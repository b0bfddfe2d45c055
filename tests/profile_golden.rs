//! Byte-exact pin on the profiler's output.
//!
//! Profiles every suite program at `-O0` and `-O3` and compares an FNV-1a
//! digest of each profile's `Debug` text against recorded constants (taken
//! with the Fenwick-over-every-access tracker that `uarch::StackDistance`
//! still implements, so they also pin the fast tracker to it). Every field of [`ExecProfile`] is an integer or a vector of integers,
//! so the text is exact: any change to a block count, a branch statistic
//! or one bucket of one reuse histogram changes the digest. A deliberate
//! change to what a profile holds must re-record the table (run with
//! `PROFILE_GOLDEN_PRINT=1 cargo test --test profile_golden -- --nocapture`)
//! and say why in the change log.

use portopt::prelude::*;
use portopt_ir::interp::ExecLimits;
use portopt_mibench::{suite, Workload};
use portopt_sim::ExecProfile;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(prof: &ExecProfile) -> u64 {
    fnv1a(format!("{prof:?}").as_bytes())
}

/// `(program, O0 digest, O3 digest)` in suite order.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("qsort", 0x3ae6d9ca4dc5c083, 0x5bd34833a4d18a89),
    ("rawcaudio", 0x602c47c38149c42f, 0x1677be0d9dc61df4),
    ("tiff2rgba", 0xf05cb1873f5d16b3, 0x14552e85b6b829f6),
    ("gs", 0x7204fab12f23c2fe, 0xbeb4ffee79f593e1),
    ("djpeg", 0x6279bdf3cc02c3b6, 0x12e94554b9f391f2),
    ("patricia", 0x42b46b920e528314, 0x73d1cdbdcfea7ea6),
    ("basicmath", 0x595e707447f6ddfa, 0x5d4f4abbe1f34fb8),
    ("lout", 0xbb043485bb5378b7, 0x61b4600703e5d816),
    ("fft_i", 0x1eacbf13242ed0cb, 0x446625964712e9b6),
    ("fft", 0x46b39fea62392de2, 0x5889c591adf3a641),
    ("susan_s", 0x4321dc5820935e43, 0xceca23919c5fbfc0),
    ("susan_c", 0x231e42662d5c7f24, 0x1590f5d5c4888219),
    ("tiffmedian", 0x3e1bf1d6629c4ca7, 0x39a822a0590a412f),
    ("ispell", 0x7f4dedca50d37e15, 0x8c8e8495fd79ccc5),
    ("pgp", 0x55536f19f1ef9de3, 0x18ccee2c493985b3),
    ("tiffdither", 0x8ca4d400db785a96, 0xb6fec453e508c8ae),
    ("bf_e", 0x3519136fad264843, 0x5c1b115a74f09e72),
    ("bf_d", 0xd0792299ff433c91, 0x3cfff6619907228b),
    ("rawdaudio", 0x327c36923f0432c7, 0x8d1206566003e9cf),
    ("pgp_sa", 0xb180b7ba8c3600a3, 0x177090dfbadc6ae4),
    ("tiff2bw", 0x1f1ce03cbb644fc7, 0xeef57c71c12e8282),
    ("cjpeg", 0xa3da87bef658b092, 0xa758f732665ac826),
    ("lame", 0xcbedc91c8ad92701, 0x33f9e9d7610e64c8),
    ("dijkstra", 0x9df72d8eafbbcf50, 0x6685ac056ab0061d),
    ("susan_e", 0x7d25ff2d0129a38b, 0x6b054280ab6cc90d),
    ("toast", 0xe2fbbd36f63200db, 0xba51f4b727c76f0f),
    ("madplay", 0x60582b57e5abe0dc, 0x546d0414e6257bf8),
    ("untoast", 0x7217762efaf7fe60, 0x65ae3bcc2e2a8b64),
    ("sha", 0xd27f88693b660f07, 0x99d1ef20a4c7a66c),
    ("bitcnts", 0xa33b7464b067264e, 0x2808268f1630ea47),
    ("say", 0xdd02575fa4aa45b8, 0x56cb20f4ae55a2fd),
    ("rijndael_d", 0x1b8dc132ecd4f3ff, 0x969fe6341e43e5a0),
    ("crc", 0xaa2573f85616e1d7, 0x50cf251ff8f27587),
    ("rijndael_e", 0xd2b406812a29765f, 0xa72a6f4a6f701c0d),
    ("search", 0x38e5e5f1741039fd, 0x6eb61a52ee50a36f),
];

#[test]
fn suite_profiles_match_recorded_digests() {
    let limits = ExecLimits {
        fuel: 100_000_000,
        max_depth: 2048,
    };
    let print = std::env::var_os("PROFILE_GOLDEN_PRINT").is_some();
    let mut got = Vec::new();
    for p in suite(Workload::default()) {
        let mut d = [0u64; 2];
        for (slot, cfg) in d.iter_mut().zip([OptConfig::o0(), OptConfig::o3()]) {
            let img = compile(&p.module, &cfg);
            let prof = profile(&img, &p.module, &[], limits)
                .unwrap_or_else(|e| panic!("{}: profile failed: {e}", p.name));
            *slot = digest(&prof);
        }
        got.push((p.name, d[0], d[1]));
    }
    if print {
        for (name, o0, o3) in &got {
            println!("    ({name:?}, {o0:#018x}, {o3:#018x}),");
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "suite size changed");
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want, "profile digest (name, O0, O3) changed");
    }
}
