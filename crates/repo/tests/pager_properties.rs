//! Property tests for the store's on-disk image: seeded hostile bytes,
//! truncated at every boundary, must never panic the code that reads
//! them. The image comes off disk — a torn write, a bad sector, or a
//! stray tool can hand the decoder anything — so "malformed" has to mean
//! `Err`, never a crash. Cases come from a deterministic seeded PRNG, so
//! every failure reproduces from its seed.

use strudel_graph::{GraphDelta, Oid, Value};
use strudel_prng::{Rng, SeedableRng, SmallRng};
use strudel_repo::pager::IMAGE_FILE;
use strudel_repo::{replay_committed, PagedRepo, PagerConfig, RepoError};

const SEEDS: [u64; 4] = [11, 23, 1998, 0xBADF00D];

/// Magic, version, generation and checksum: everything before the body.
const HEADER_LEN: usize = 8 + 1 + 8 + 4;

/// Every prefix of `bytes`, shortest first (a torn write ends anywhere).
fn truncations(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..=bytes.len()).map(move |i| &bytes[..i])
}

/// Random byte soup of a random small length.
fn soup(rng: &mut SmallRng, max: usize) -> Vec<u8> {
    let n = rng.gen_range(0..max);
    (0..n).map(|_| rng.gen_range(0..=255u32) as u8).collect()
}

/// A valid encoding with one bit flipped somewhere in `bytes[from..]` is
/// the highest-value hostile input: almost right, so it reaches the
/// deepest checks.
fn flips(bytes: &[u8], from: usize, rng: &mut SmallRng, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut b = bytes.to_vec();
            let i = rng.gen_range(from..b.len());
            b[i] ^= 1 << rng.gen_range(0..8u32);
            b
        })
        .collect()
}

/// `PagedRepo::open` and the read-only `replay_committed` both decode
/// whatever sits in the image file: truncate, corrupt and replace a real
/// image on disk at every boundary — both must return, never panic, and
/// a flipped body bit must come back as `Corrupt`.
#[test]
fn image_open_never_panics_on_hostile_bytes() {
    let base =
        std::env::temp_dir().join(format!("strudel-pager-prop-image-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // A real store with some data, checkpointed so the image holds it.
    let dir = base.join("store");
    {
        let repo = PagedRepo::open(&dir, PagerConfig::default()).unwrap();
        let mut d = GraphDelta::new();
        d.add_node(Some("a"));
        d.add_node(None);
        d.add_edge(Oid::from_index(0), "v", Value::Int(1));
        d.add_edge(Oid::from_index(0), "to", Value::from(Oid::from_index(1)));
        d.add_edge(Oid::from_index(1), "s", Value::string("日本🦀\u{0}"));
        d.collect("C", Value::from(Oid::from_index(0)));
        repo.apply_delta(&d).unwrap();
        repo.checkpoint().unwrap();
    }
    let good = std::fs::read(dir.join(IMAGE_FILE)).unwrap();

    let mut case = 0u32;
    let mut try_open = |bytes: &[u8]| {
        let d = base.join(format!("case-{case}"));
        case += 1;
        std::fs::create_dir_all(&d).unwrap();
        // Copy the healthy log, then plant the hostile image.
        let _ = std::fs::copy(dir.join("pager.wal"), d.join("pager.wal"));
        std::fs::write(d.join(IMAGE_FILE), bytes).unwrap();
        let replayed = replay_committed(&d).map(|_| ());
        let opened = PagedRepo::open(&d, PagerConfig::default()).map(|_| ());
        let _ = std::fs::remove_dir_all(&d);
        (replayed, opened)
    };
    for cut in truncations(&good[..good.len() - 1]) {
        let (replayed, opened) = try_open(cut);
        assert!(
            replayed.is_err() && opened.is_err(),
            "{}-byte cut",
            cut.len()
        );
    }
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        for bad in flips(&good, HEADER_LEN, &mut rng, 16) {
            let (replayed, opened) = try_open(&bad);
            assert!(
                matches!(replayed, Err(RepoError::Corrupt { .. })),
                "seed {seed}: body flip replayed as {replayed:?}"
            );
            assert!(
                matches!(opened, Err(RepoError::Corrupt { .. })),
                "seed {seed}: body flip opened as {opened:?}"
            );
        }
        // Header flips: any outcome but a panic.
        for bad in flips(&good[..HEADER_LEN], 0, &mut rng, 8) {
            let mut image = bad;
            image.extend_from_slice(&good[HEADER_LEN..]);
            let _ = try_open(&image);
        }
        for _ in 0..8 {
            let _ = try_open(&soup(&mut rng, 2 * good.len()));
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
