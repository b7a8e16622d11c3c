//! The four workloads: fixed lists of simulation jobs generated from
//! the benchmark seed. The simulator only ever sees the generated
//! inputs (topology, configuration, traces and storm schedules).

use cr_core::{ProtocolKind, RoutingKind};
use cr_experiments::churn;
use cr_sim::{Cycle, NodeId, Rng, SimRng};
use cr_topology::TopologyKind;
use cr_traffic::{Trace, TraceEvent};

/// Offered loads of the paper sweep, flits/node/cycle.
const SWEEP_LOADS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];
/// Warm-up and measured cycles of every paper-sweep point, and its
/// message length in flits.
pub const SWEEP_WARMUP: u64 = 1_000;
pub const SWEEP_MEASURED: u64 = 6_000;
pub const SWEEP_MESSAGE_LEN: usize = 16;

/// Every burst is 16-flit worms, released over this many cycles.
const BURST_LEN: u32 = 16;
const BURST_SPREAD: u64 = 256;
/// Drain budget of every burst job. The 64×64 torus, the slowest,
/// drains in about 7 000 cycles.
pub const BURST_DRAIN_BUDGET: u64 = 200_000;
/// Repeats of the small fabrics, so that each takes a fifth or more
/// of a `burst_drain` pass next to the single 64×64 torus job.
const FAT_TREE_REPEATS: usize = 176;
const FULL_MESH_REPEATS: usize = 192;

/// Storms per `fault_churn` job list: enough that the share of wedged
/// FCR storms varies little from seed to seed. Each storm runs under
/// all three schemes of the churn experiment; DOR and CR drain every
/// storm, so the pass share stays well above 0 even when FCR fails.
const STORMS: usize = 16;
/// Drain budget of every storm job. The last outage revives by cycle
/// 12 100; in a 40-storm scan every storm that drained within the churn
/// experiment's own budget (460 000 cycles) had drained by cycle
/// 13 100, so this budget fails the same jobs while a wedged one costs
/// a small fraction of what it would there.
pub const STORM_DRAIN_BUDGET: u64 = 24_000;
/// Misrouting budget of the FCR scheme, as in the churn experiment.
const FCR_MISROUTE: u16 = 8;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 8×8 torus under open-loop uniform traffic.
    PaperSweep,
    /// Dense bursts on large fabrics, serial stepper.
    BurstDrain,
    /// `BurstDrain`'s job list on two shards.
    BurstDrainSh2,
    /// The churn experiment's storms under DOR, CR and FCR.
    FaultChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::BurstDrain,
        Workload::BurstDrainSh2,
        Workload::FaultChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::BurstDrain => "burst_drain",
            Workload::BurstDrainSh2 => "burst_drain_sh2",
            Workload::FaultChurn => "fault_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Width of the sweep executor the job list runs on.
    pub fn pool_jobs(self) -> usize {
        match self {
            Workload::PaperSweep => 2,
            _ => 1,
        }
    }

    /// Spatial shards of every network built.
    pub fn shards(self) -> usize {
        match self {
            Workload::BurstDrainSh2 => 2,
            _ => 1,
        }
    }

    /// The job list's entry in `golden.json`: both burst workloads run
    /// the same list and must produce the same digests.
    pub fn golden_key(self) -> &'static str {
        match self {
            Workload::BurstDrainSh2 => Workload::BurstDrain.name(),
            w => w.name(),
        }
    }

    /// The job list for `seed`.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        // One seed stream per job list; the burst workloads share one.
        let stream = match self {
            Workload::PaperSweep => 1,
            Workload::BurstDrain | Workload::BurstDrainSh2 => 2,
            Workload::FaultChurn => 3,
        };
        let mut seeds = SimRng::from_seed(seed).split(stream);
        match self {
            Workload::PaperSweep => sweep_jobs(&mut seeds),
            Workload::BurstDrain | Workload::BurstDrainSh2 => burst_jobs(&mut seeds),
            Workload::FaultChurn => storm_jobs(&mut seeds),
        }
    }
}

/// A simulated fabric, one per `core.run_s.<fabric>` metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    Torus8,
    Torus64,
    FatTree16,
    FullMesh128,
}

impl Fabric {
    /// Every fabric, in metric order.
    pub const ALL: [Fabric; 4] = [
        Fabric::Torus8,
        Fabric::Torus64,
        Fabric::FatTree16,
        Fabric::FullMesh128,
    ];

    /// The metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Fabric::Torus8 => "torus8",
            Fabric::Torus64 => "torus64",
            Fabric::FatTree16 => "fattree16",
            Fabric::FullMesh128 => "fullmesh128",
        }
    }

    /// The topology configuration.
    pub fn kind(self) -> TopologyKind {
        match self {
            Fabric::Torus8 => TopologyKind::Torus { radix: 8, dims: 2 },
            Fabric::Torus64 => TopologyKind::Torus { radix: 64, dims: 2 },
            Fabric::FatTree16 => TopologyKind::FatTree { k: 16 },
            Fabric::FullMesh128 => TopologyKind::FullMesh { nodes: 128 },
        }
    }
}

/// One simulation job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Unique within the job list.
    pub name: String,
    pub fabric: Fabric,
    pub spec: Spec,
}

/// What a job simulates.
#[derive(Clone, Debug)]
pub enum Spec {
    /// Open-loop Bernoulli traffic for warm-up plus measured cycles.
    OpenLoop {
        routing: RoutingKind,
        protocol: ProtocolKind,
        load: f64,
        seed: u64,
    },
    /// A burst of worms, every `stride`-th node sending one to a
    /// random other node, drained to quiescence.
    Burst {
        routing: RoutingKind,
        protocol: ProtocolKind,
        stride: usize,
        seed: u64,
        drain_budget: u64,
    },
    /// A churn-experiment storm and its permutation waves, drained to
    /// quiescence; FCR jobs must deliver every message exactly once.
    Storm {
        routing: RoutingKind,
        protocol: ProtocolKind,
        config: churn::Config,
        drain_budget: u64,
    },
}

impl Spec {
    /// The protocol the job runs.
    pub fn protocol(&self) -> ProtocolKind {
        match *self {
            Spec::OpenLoop { protocol, .. }
            | Spec::Burst { protocol, .. }
            | Spec::Storm { protocol, .. } => protocol,
        }
    }

    /// Cycles the job may take to drain, for drained jobs.
    pub fn drain_budget(&self) -> Option<u64> {
        match *self {
            Spec::OpenLoop { .. } => None,
            Spec::Burst { drain_budget, .. } | Spec::Storm { drain_budget, .. } => {
                Some(drain_budget)
            }
        }
    }
}

fn sweep_jobs(seeds: &mut SimRng) -> Vec<Job> {
    let schemes = [
        ("cr", RoutingKind::Adaptive { vcs: 1 }, ProtocolKind::Cr),
        ("fcr", RoutingKind::Adaptive { vcs: 1 }, ProtocolKind::Fcr),
        ("dor", RoutingKind::Dor { lanes: 1 }, ProtocolKind::Baseline),
    ];
    let mut jobs = Vec::new();
    for (label, routing, protocol) in schemes {
        for load in SWEEP_LOADS {
            jobs.push(Job {
                name: format!("sweep/{label}/{load}"),
                fabric: Fabric::Torus8,
                spec: Spec::OpenLoop {
                    routing,
                    protocol,
                    load,
                    seed: seeds.next_u64(),
                },
            });
        }
    }
    jobs
}

fn burst_jobs(seeds: &mut SimRng) -> Vec<Job> {
    let adaptive_cr = (RoutingKind::Adaptive { vcs: 1 }, ProtocolKind::Cr);
    let detour = (RoutingKind::FullMeshOrdered, ProtocolKind::Baseline);
    // 1 024 worms from every fourth torus node; one per fat-tree switch
    // and per full-mesh node.
    let groups = [
        (Fabric::Torus64, adaptive_cr, 4, 1),
        (Fabric::FatTree16, adaptive_cr, 1, FAT_TREE_REPEATS),
        (Fabric::FullMesh128, detour, 1, FULL_MESH_REPEATS),
    ];
    let mut jobs = Vec::new();
    for (fabric, (routing, protocol), stride, repeats) in groups {
        for i in 0..repeats {
            jobs.push(Job {
                name: format!("burst/{}/{i}", fabric.label()),
                fabric,
                spec: Spec::Burst {
                    routing,
                    protocol,
                    stride,
                    seed: seeds.next_u64(),
                    drain_budget: BURST_DRAIN_BUDGET,
                },
            });
        }
    }
    jobs
}

fn storm_jobs(seeds: &mut SimRng) -> Vec<Job> {
    let schemes = [
        ("dor", RoutingKind::Dor { lanes: 2 }, ProtocolKind::Baseline),
        ("cr", RoutingKind::Adaptive { vcs: 1 }, ProtocolKind::Cr),
        (
            "fcr",
            RoutingKind::AdaptiveMisroute {
                vcs: 1,
                extra_hops: FCR_MISROUTE,
            },
            ProtocolKind::Fcr,
        ),
    ];
    let mut jobs = Vec::new();
    for storm in 0..STORMS {
        let config = churn::Config {
            seed: seeds.next_u64(),
            ..churn::Config::default()
        };
        for (label, routing, protocol) in schemes {
            jobs.push(Job {
                name: format!("storm{storm}/{label}/{:#x}", config.seed),
                fabric: Fabric::Torus8,
                spec: Spec::Storm {
                    routing,
                    protocol,
                    config: config.clone(),
                    drain_budget: STORM_DRAIN_BUDGET,
                },
            });
        }
    }
    jobs
}

/// A burst on a fabric of `nodes` nodes: every `stride`-th node sends
/// one worm to a uniformly random other node, released at a random
/// cycle of the first `BURST_SPREAD`.
pub fn burst_trace(nodes: usize, stride: usize, seed: u64) -> Trace {
    let mut rng = SimRng::from_seed(seed);
    let events = (0..nodes)
        .step_by(stride)
        .map(|src| {
            let mut dst = rng.gen_range(0..nodes - 1);
            if dst >= src {
                dst += 1;
            }
            TraceEvent {
                at: Cycle::new(rng.gen_range(0..BURST_SPREAD)),
                src: NodeId::from_index(src),
                dst: NodeId::from_index(dst),
                length: BURST_LEN,
            }
        })
        .collect();
    Trace::from_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a: Vec<String> = w.jobs(7).iter().map(|j| format!("{j:?}")).collect();
            let b: Vec<String> = w.jobs(7).iter().map(|j| format!("{j:?}")).collect();
            let c: Vec<String> = w.jobs(8).iter().map(|j| format!("{j:?}")).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
            let jobs = w.jobs(7);
            let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), jobs.len(), "{}: job names repeat", w.name());
        }
    }
}
