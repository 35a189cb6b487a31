//! The three workloads, generated from a seed through the engine's own
//! workload generator. Each keeps its preset's action mix, Zipf skew and
//! popularity drift, and ignores the preset's arrival schedule: both
//! timed passes are closed-loop.

use cut_engine::{ActionMix, Timeline, Workload, WorkloadConfig};

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mix,
    Whale,
    Storm,
}

pub const ALL: [Kind; 3] = [Kind::Mix, Kind::Whale, Kind::Storm];

/// Independent streams one run serves. A stream's cost hinges on a few
/// graph trajectories (a graph that disconnects early makes its cut
/// queries trivial), so one stream per seed would make every figure a
/// property of the seed; several streams per run average those
/// trajectories out.
pub const STREAMS: usize = 8;

/// The preset rate only shapes arrival timestamps (and the storm's burst
/// period), which the closed-loop passes ignore; it matches `stress`'s
/// default so the generated operations are the ones `stress` replays.
const PRESET_RATE: f64 = 20_000.0;

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Mix => "mix",
            Kind::Whale => "whale",
            Kind::Storm => "storm",
        }
    }

    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::Mix => {
                "default action mix on 8 gnm graphs (n=48, Zipf 1.1), in-process: the approximate \
                 cut, epoch cache and shard placement do most of the work"
            }
            Kind::Whale => {
                "one 480-vertex sparse graph takes most traffic, s-t heavy, in-process: cut_graph \
                 dominates and shard placement cannot help"
            }
            Kind::Storm => {
                "delete-heavy write storm served by a fresh cut-server with a WAL (fsync off) over \
                 one loopback connection: the wire, store and mutation paths that mix never takes"
            }
        }
    }

    /// Operations (after the create prologue) in one generated stream.
    pub fn default_ops(self) -> usize {
        match self {
            Kind::Mix => 1_500,
            Kind::Whale => 600,
            Kind::Storm => 2_500,
        }
    }

    /// Listed in `BENCHMARK.json`, so changes are gated on it.
    /// `whale` is not: its cost is a handful of Stoer–Wagner calls on the
    /// one 480-vertex graph, made only while that graph is still
    /// connected, so its throughput and p99 swing several-fold with the
    /// seed (see README.md). It stays runnable and traced by hand.
    pub fn gated(self) -> bool {
        self != Kind::Whale
    }

    /// Served by a `cut-server` process over loopback (else in-process).
    pub fn remote(self) -> bool {
        self == Kind::Storm
    }

    /// The request stream for `seed`: a pure function of its arguments.
    pub fn generate(self, seed: u64, ops: usize) -> Workload {
        let cfg = WorkloadConfig { ops, seed, ..WorkloadConfig::default() };
        let mix = ActionMix::default();
        let zipf = cfg.zipf_exponent;
        match self {
            Kind::Mix => Workload::generate(&cfg),
            Kind::Whale => Workload::generate_timeline(
                &WorkloadConfig { whale_n: 480, ..cfg },
                &Timeline::whale(ops, PRESET_RATE, mix, zipf),
            ),
            Kind::Storm => Workload::generate_timeline(
                &cfg,
                &Timeline::write_storm(ops, PRESET_RATE, mix, zipf),
            ),
        }
    }
}

/// The per-stream generator seeds of run seed `seed` (splitmix64 of
/// `(seed, k)`): distinct across streams and across run seeds.
pub fn stream_seeds(seed: u64) -> Vec<u64> {
    (0..STREAMS as u64)
        .map(|k| {
            let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// The pinned traces the canary replays, with the digests `stress
/// --trace-in` prints for them.
pub const CANARIES: [(&str, &str, u64); 2] = [
    ("whale.trace", include_str!("../../crates/bench/traces/whale.trace"), 0xda29_c44a_450a_6ca4),
    (
        "write_storm.trace",
        include_str!("../../crates/bench/traces/write_storm.trace"),
        0x61ae_c3fb_8cff_a132,
    ),
];
