//! The input pin: what the generated inputs must hash to.
//!
//! `strudel-workload` and `strudel-prng` make the inputs; if either
//! changes what it generates, every number measured afterwards is of a
//! different load. A run therefore compares its input fingerprints with
//! the table below and fails on a mismatch. The source fingerprint is
//! checked on every run; the load fingerprint (URL list, click mix,
//! delta schedule) only under the default seed, the one the table was
//! recorded with. `BENCHMARK.json` has no field for these, so they live
//! here.

use crate::inputs::InputPin;

const fn pin(
    workload: &'static str,
    smoke: bool,
    sources: u64,
    load: u64,
) -> (&'static str, bool, InputPin) {
    (workload, smoke, InputPin { sources, load })
}

/// `(workload, smoke, pin at the default seed)`. To re-record after a
/// deliberate change of the generators, run each workload with the
/// default seed and copy the `inputs:` line it prints.
const PINS: &[(&str, bool, InputPin)] = &[
    pin(
        "warm-clicks",
        false,
        0x614c_81ff_194a_08b5,
        0xb512_c60b_a5d8_605a,
    ),
    pin(
        "cold-crawl",
        false,
        0x33f4_476d_ac7c_8a2e,
        0xb56c_20bc_83bb_ab05,
    ),
    pin(
        "delta-stream",
        false,
        0xc30c_1a88_a885_15f8,
        0x9c67_7118_5f6a_bd2e,
    ),
    pin(
        "site-build",
        false,
        0xbfb9_9fd2_6fef_e296,
        0xbfb9_9fd2_6fef_e296,
    ),
    pin(
        "cluster-clicks",
        false,
        0xf974_6883_36e2_0dda,
        0x1e72_0614_37b1_7b27,
    ),
    pin(
        "warm-clicks",
        true,
        0x78b5_7674_82d8_149b,
        0xd36e_8fb2_bb2c_30f6,
    ),
    pin(
        "cold-crawl",
        true,
        0xaa35_af7c_43ba_1230,
        0x5363_8c8c_d84b_dd02,
    ),
    pin(
        "delta-stream",
        true,
        0xaa35_af7c_43ba_1230,
        0x589a_4f9c_8f22_54a4,
    ),
    pin(
        "site-build",
        true,
        0x4a2c_bbee_363a_3b8e,
        0x4a2c_bbee_363a_3b8e,
    ),
    pin(
        "cluster-clicks",
        true,
        0x6064_daa6_70be_2041,
        0xaf74_bc0a_2551_f446,
    ),
];

/// Checks `got` against the table.
pub fn check(workload: &str, smoke: bool, default_seed: bool, got: InputPin) -> Result<(), String> {
    let Some((_, _, want)) = PINS.iter().find(|(w, s, _)| *w == workload && *s == smoke) else {
        return Err(format!(
            "no input pin recorded for {workload} (smoke: {smoke})"
        ));
    };
    if got.sources != want.sources {
        return Err(format!(
            "input pin: sources hash to {:#018x}, pinned {:#018x} — the generators changed",
            got.sources, want.sources
        ));
    }
    if default_seed && got.load != want.load {
        return Err(format!(
            "input pin: seeded load hashes to {:#018x}, pinned {:#018x}",
            got.load, want.load
        ));
    }
    Ok(())
}
