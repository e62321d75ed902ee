//! The seeded click mix: Zipf-ranked article pages over a seeded
//! permutation, category pages, and the front page.

use strudel_prng::{Rng, SeedableRng, SmallRng};

/// Zipf with exponent 1 over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)`. Sampling inverts the
/// cumulative weights by binary search.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks (`n` ≥ 1).
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n.max(1))
            .map(|k| {
                total += 1.0 / (k as f64 + 1.0);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.gen_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// Which URL (by index into the workload's URL list) each click asks
/// for: 90 % article pages, 9 % category pages, 1 % the front page.
#[derive(Clone, Debug)]
pub struct ClickMix {
    zipf: Zipf,
    /// Popularity rank → URL index of an article page.
    article_by_rank: Vec<u32>,
    categories: Vec<u32>,
    front: u32,
}

impl ClickMix {
    /// A mix over the given URL indexes. `seed` fixes which article is
    /// how popular; the draw sequence is the caller's `rng`.
    pub fn new(articles: &[u32], categories: &[u32], front: u32, seed: u64) -> ClickMix {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x005e_ed0f_7a9e);
        let article_by_rank = permutation(articles.len(), &mut rng)
            .into_iter()
            .map(|i| articles[i as usize])
            .collect();
        ClickMix {
            zipf: Zipf::new(articles.len()),
            article_by_rank,
            categories: categories.to_vec(),
            front,
        }
    }

    /// Digest of the first thousand picks under `seed`: the click-mix
    /// part of the input pin.
    pub fn fingerprint(&self, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let picks: Vec<u8> = (0..1000)
            .flat_map(|_| self.pick(&mut rng).to_le_bytes())
            .collect();
        crate::http::fnv1a(&picks)
    }

    /// The URL index of the next click.
    pub fn pick(&self, rng: &mut SmallRng) -> u32 {
        match rng.gen_range(0..100u32) {
            0 => self.front,
            1..=9 if !self.categories.is_empty() => *strudel_prng::choose(rng, &self.categories),
            _ => self.article_by_rank[self.zipf.sample(rng)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(1000);
        let draw = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same draws");
        assert_ne!(a, draw(8));
        assert!(a.iter().all(|&k| k < 1000));
        // H(1000) ≈ 7.485, so rank 0 is drawn with p ≈ 0.1336 and the
        // top ten ranks with p ≈ 0.391.
        let top1 = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        let top10 = a.iter().filter(|&&k| k < 10).count() as f64 / a.len() as f64;
        assert!((top1 - 0.1336).abs() < 0.01, "rank-0 share {top1}");
        assert!((top10 - 0.391).abs() < 0.02, "top-10 share {top10}");
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let mut rng = SmallRng::seed_from_u64(3);
        let p = permutation(257, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<u32>>());
        assert_eq!(p, permutation(257, &mut SmallRng::seed_from_u64(3)));
        assert_ne!(p, permutation(257, &mut SmallRng::seed_from_u64(4)));
    }

    #[test]
    fn mix_holds_its_shares_and_only_names_known_urls() {
        let articles: Vec<u32> = (10..510).collect();
        let categories: Vec<u32> = (1..9).collect();
        let mix = ClickMix::new(&articles, &categories, 0, 11);
        let mut rng = SmallRng::seed_from_u64(11);
        let picks: Vec<u32> = (0..50_000).map(|_| mix.pick(&mut rng)).collect();
        let share = |f: &dyn Fn(u32) -> bool| {
            picks.iter().filter(|&&u| f(u)).count() as f64 / picks.len() as f64
        };
        assert!((share(&|u| u == 0) - 0.01).abs() < 0.003);
        assert!((share(&|u| (1..9).contains(&u)) - 0.09).abs() < 0.006);
        assert!((share(&|u| u >= 10) - 0.90).abs() < 0.006);
        assert!(picks.iter().all(|&u| u < 510));
        // The seed moves which article is the most popular one.
        let other = ClickMix::new(&articles, &categories, 0, 12);
        assert_ne!(mix.article_by_rank, other.article_by_rank);
    }
}
