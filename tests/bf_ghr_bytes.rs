//! Pins the exact bytes the bias-free history produces: `BfGhr`
//! snapshots, `fold_mixed` outputs at BF-TAGE's ten compressed history
//! lengths, and `collect()` over fixed pseudo-random commit streams,
//! plus whole bf-tage, bf-isl-tage, bf-neural and isl-tage predictor
//! snapshots after a fixed trace prefix.
//!
//! The BF-GHR digests were recorded before the BF-GHR moved to its
//! fixed-array segment layout; the bf-neural and isl-tage digests before
//! their weight-index and side-component lookups were hoisted and
//! reused. Any change to either must leave them untouched: that keeps
//! every prediction identical and every `bfbp-ckpt/1` snapshot written
//! by an earlier build restorable.

use bfbp::core::bf_ghr::BfGhr;
use bfbp::sim::ckpt::{fnv1a, Restorable, StateWriter};
use bfbp::sim::registry::PredictorSpec;
use bfbp::sim::simulate::Simulation;
use bfbp::tage::BIAS_FREE_LENGTHS_10;
use bfbp::trace::rng::Xoshiro256;
use bfbp::trace::synth::suite;

/// Running FNV-1a digest over a sequence of byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(fnv1a(&[]))
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn state_bytes(r: &dyn Restorable) -> Vec<u8> {
    let mut w = StateWriter::new();
    r.save_state(&mut w);
    w.into_bytes()
}

/// `(fold, collect, snapshot)` digests of one commit stream.
type Digests = (u64, u64, u64);

/// Commits `n` pseudo-random branches drawn from a pool of `pool` 14-bit
/// keys, digesting the fold after every commit, `collect()` every 7th
/// commit and the snapshot every 257th. Returns `(fold, collect,
/// snapshot)` digests.
fn stream_digests(seed: u64, pool: usize, n: usize, ghr: &mut BfGhr) -> Digests {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let keys: Vec<u16> = (0..pool).map(|_| rng.below(1 << 14) as u16).collect();
    let (mut fold, mut coll, mut snap) = (Digest::new(), Digest::new(), Digest::new());
    let mut folded = Vec::new();
    let mut pairs = Vec::new();
    for i in 0..n {
        let key = keys[rng.below(pool as u64) as usize];
        ghr.commit(key, rng.chance(0.5), rng.chance(0.6));
        ghr.fold_mixed(&BIAS_FREE_LENGTHS_10, &mut folded);
        for w in &folded {
            fold.eat(&w.to_le_bytes());
        }
        if i.is_multiple_of(7) {
            ghr.collect(&mut pairs);
            for &(k, t) in &pairs {
                coll.eat(&k.to_le_bytes());
                coll.eat(&[u8::from(t)]);
            }
            coll.eat(&(pairs.len() as u64).to_le_bytes());
        }
        if i.is_multiple_of(257) || i + 1 == n {
            snap.eat(&state_bytes(ghr));
        }
    }
    (fold.0, coll.0, snap.0)
}

#[test]
fn bf_ghr_streams_keep_their_bytes() {
    // (seed, key pool, commits): a pool of 12 keys makes almost every
    // crossing a refresh; 400 keys makes most of them inserts and
    // evictions. 5000 commits wrap the 2048-deep ring twice.
    let cases: [(u64, usize, usize, Digests); 3] = [
        (
            1,
            12,
            5000,
            (
                1_699_150_199_814_724_355,
                10_310_751_755_635_795_959,
                16_726_307_615_772_014_719,
            ),
        ),
        (
            2,
            48,
            5000,
            (
                2_702_345_923_246_843_633,
                5_455_622_554_206_880_110,
                227_196_362_473_002_730,
            ),
        ),
        (
            3,
            400,
            5000,
            (
                13_337_935_485_715_610_612,
                15_099_833_917_893_736_078,
                10_944_870_578_131_286_414,
            ),
        ),
    ];
    for (seed, pool, n, want) in cases {
        let got = stream_digests(seed, pool, n, &mut BfGhr::new());
        assert_eq!(got, want, "paper geometry, seed {seed}, pool {pool}");
    }
    // The tiny geometry: prefix 2, segments [2,4) and [4,8) of two
    // entries each.
    let got = stream_digests(4, 6, 600, &mut BfGhr::with_segments(&[2, 4, 8], 2));
    assert_eq!(
        got,
        (
            2_240_204_263_512_184_676,
            10_523_377_238_202_865_050,
            922_114_155_598_348_241,
        ),
        "tiny geometry"
    );
}

#[test]
fn bf_predictor_snapshots_keep_their_bytes() {
    let registry = bfbp::default_registry();
    let trace = suite::find("SPEC03")
        .expect("SPEC03 in suite")
        .generate_len(12_000);
    for (name, want) in [
        ("bf-tage", 18_444_307_907_166_261_319u64),
        ("bf-isl-tage", 15_599_213_357_338_242_216),
        ("bf-neural", 5_549_501_247_891_614_274),
        ("bf-neural-32kb", 4_855_055_939_106_956_332),
        ("bf-neural:history-mode=unfiltered", 939_779_875_413_465_997),
        ("isl-tage", 1_700_029_072_212_522_172),
    ] {
        let spec = PredictorSpec::parse(name).expect("spec");
        let mut predictor = registry.build_spec(&spec).expect("build");
        Simulation::new(predictor.as_mut())
            .run_trace(&trace)
            .expect("run");
        let bytes = state_bytes(predictor.checkpointing().expect("checkpointing"));
        assert_eq!(fnv1a(&bytes), want, "{name} snapshot after 12000 records");
    }
}
