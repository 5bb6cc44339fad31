//! The three workloads and the seeds they derive from `--seed`.
//!
//! Every workload drives the same system (engine → payload → SLURM →
//! gossip → RTR/HTTP targets, plus the `ripki-serve` query plane and the
//! per-epoch exposure study); they differ in the generated inputs and
//! in which path carries the load.

use std::time::Duration;

/// How epochs arrive.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Open loop: epoch `k + 1` is due `mean × U(0.5, 1.5)` after epoch
    /// `k`, whether or not the system kept up.
    Open { mean: Duration },
    /// Closed loop: the next epoch starts when the previous one is done.
    Closed,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// VRPs asserted by the generated SLURM file.
    pub slurm_assertions: usize,
    pub schedule: Schedule,
    /// `ExposureConfig::stride` of the per-epoch study stage.
    pub exposure_stride: usize,
    /// Open-loop read rate against the query plane, over 2 connections.
    pub read_rps: f64,
    /// Reads per block of a connection's read mix; each block holds two
    /// conditional `/vrps.json` reads.
    pub mix_block: usize,
    /// Fixed tail percentile of per-request latencies over the run.
    pub read_tail_pct: f64,
    /// Whether the traced run must show its stage spans covering at
    /// least 90% of each epoch's event-to-RTR interval.
    pub check_rtr_coverage: bool,
}

/// Fixed tail percentile of per-epoch latencies on every workload.
pub const EPOCH_TAIL_PCT: f64 = 80.0;

/// Ranked domains in every workload's world.
pub const DOMAINS: usize = 20_000;
/// Prefix filters in every generated SLURM file.
pub const SLURM_FILTERS: usize = 8;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fabric-60k",
        slurm_assertions: 60_000,
        schedule: Schedule::Open {
            mean: Duration::from_millis(600),
        },
        exposure_stride: 20_000,
        read_rps: 120.0,
        mix_block: 300,
        read_tail_pct: 98.0,
        check_rtr_coverage: true,
    },
    Workload {
        name: "study-20k",
        slurm_assertions: 256,
        schedule: Schedule::Closed,
        exposure_stride: 50,
        read_rps: 120.0,
        mix_block: 100,
        read_tail_pct: 96.0,
        check_rtr_coverage: false,
    },
    Workload {
        name: "query-churn",
        slurm_assertions: 256,
        schedule: Schedule::Open {
            mean: Duration::from_millis(300),
        },
        exposure_stride: 20_000,
        read_rps: 300.0,
        mix_block: 100,
        read_tail_pct: 99.0,
        check_rtr_coverage: false,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The world every run measures unless `--world-seed` names another:
/// the repository's default world (`ripki-cli`'s default `--seed`).
pub const DEFAULT_WORLD_SEED: u64 = 42;

/// The independent seeds of one run. The world is fixed per run
/// configuration; churn, schedule, SLURM file and reads derive from
/// `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub world: u64,
    pub churn: u64,
    pub schedule: u64,
    pub slurm: u64,
    pub reads: u64,
}

impl Seeds {
    pub fn derive(seed: u64, world: u64) -> Seeds {
        Seeds {
            world,
            churn: splitmix(seed, 2),
            schedule: splitmix(seed, 3),
            slurm: splitmix(seed, 4),
            reads: splitmix(seed, 5),
        }
    }
}

/// SplitMix64 of `seed` on stream `stream`: decorrelated per-purpose
/// seeds from one user-supplied number.
fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
