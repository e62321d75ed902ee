//! HTML escaping.

/// Appends `s` to `out`, escaped for HTML element content or attribute
/// values. Runs of bytes that need no escaping are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&#39;",
            _ => continue,
        };
        // `i` is an ASCII byte, so both slice ends are char boundaries.
        out.push_str(&s[start..i]);
        out.push_str(entity);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Escapes text for inclusion in HTML element content or attribute values.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_prng::{Rng, SeedableRng, SmallRng};

    #[test]
    fn escapes_special_characters() {
        assert_eq!(
            escape_html(r#"<a href="x">&'</a>"#),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;&lt;/a&gt;"
        );
    }

    #[test]
    fn plain_text_is_unchanged() {
        assert_eq!(escape_html("plain text"), "plain text");
    }

    #[test]
    fn unicode_passes_through() {
        assert_eq!(escape_html("café 🦀"), "café 🦀");
    }

    /// The char-by-char escaper `escape_into` must agree with.
    fn reference(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\'' => out.push_str("&#39;"),
                other => out.push(other),
            }
        }
        out
    }

    #[test]
    fn escape_into_matches_the_char_by_char_reference() {
        const ALPHABET: [char; 14] = [
            '&', '<', '>', '"', '\'', 'a', 'Z', '0', ' ', ';', 'é', '€', '🦀', '\u{0301}',
        ];
        for seed in 0..500 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let len = rng.gen_range(0..40usize);
            let s: String = (0..len)
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect();
            // Appends after what the buffer already holds.
            let mut out = String::from("prefix:");
            escape_into(&mut out, &s);
            assert_eq!(
                out,
                format!("prefix:{}", reference(&s)),
                "seed {seed}: {s:?}"
            );
            assert_eq!(escape_html(&s), reference(&s), "seed {seed}: {s:?}");
        }
    }
}
