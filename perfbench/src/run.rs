//! Runs one job through the simulator's public API: set-up, simulation,
//! report, and the job's own checks.

use crate::jobs::{self, Job, Spec, SWEEP_MEASURED, SWEEP_MESSAGE_LEN, SWEEP_WARMUP};
use crate::spans::Ctx;
use crate::sys;
use cr_core::{Network, NetworkBuilder, ProtocolKind};
use cr_sim::NodeId;
use cr_traffic::{LengthDistribution, TrafficPattern};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Cycles per timed window of `run`/`run_until_quiescent` in the traced
/// run; active routers are sampled once per window.
const WINDOW: u64 = 128;

/// What one job produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Digest of the job's `SimReport` JSON (0 when the job panicked).
    pub digest: u32,
    /// Why the job failed; empty when it passed.
    pub failures: Vec<String>,
    /// Host seconds of set-up: topology, network, storm and trace.
    pub setup_s: f64,
    /// Virtual memory of the process when the job finished stepping,
    /// with its network at full size, in MB.
    pub vm_mb: f64,
    /// Deterministic work and wait counts.
    pub work: Work,
}

/// Deterministic work and wait counts, summed over jobs. A change that
/// only speeds the simulator up leaves every one of them identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub cycles: u64,
    pub flit_hops: u64,
    pub headers_routed: u64,
    pub unroutable_headers: u64,
    pub link_flits: u64,
    pub stall_backpressure: u64,
    pub stall_busy: u64,
    pub stall_dead_link: u64,
    pub kills: u64,
    pub retransmissions: u64,
    pub flits_dropped_killed: u64,
    pub payload_flits_delivered: u64,
    pub flits_injected: u64,
    pub churn_events: u64,
    pub churn_events_drained: u64,
    pub max_time_to_drain: u64,
}

impl Work {
    /// Adds `other` (maxima for the worst-case fields).
    pub fn add(&mut self, o: &Work) {
        self.cycles += o.cycles;
        self.flit_hops += o.flit_hops;
        self.headers_routed += o.headers_routed;
        self.unroutable_headers += o.unroutable_headers;
        self.link_flits += o.link_flits;
        self.stall_backpressure += o.stall_backpressure;
        self.stall_busy += o.stall_busy;
        self.stall_dead_link += o.stall_dead_link;
        self.kills += o.kills;
        self.retransmissions += o.retransmissions;
        self.flits_dropped_killed += o.flits_dropped_killed;
        self.payload_flits_delivered += o.payload_flits_delivered;
        self.flits_injected += o.flits_injected;
        self.churn_events += o.churn_events;
        self.churn_events_drained += o.churn_events_drained;
        self.max_time_to_drain = self.max_time_to_drain.max(o.max_time_to_drain);
    }
}

/// A built network with its traffic scheduled.
pub struct SetUp {
    pub net: Network,
    /// Messages scheduled from a trace (drained jobs only).
    pub offered: Option<u64>,
    pub setup_s: f64,
}

/// Builds the job's network: topology, builder, storm, trace.
pub fn set_up(job: &Job, shards: usize, ctx: Ctx) -> SetUp {
    let start = Instant::now();
    let topology = ctx.span("topology.build", |_| job.fabric.kind().build());
    let mut builder = NetworkBuilder::new_boxed(topology);
    builder.shards(shards);
    match &job.spec {
        Spec::OpenLoop {
            routing,
            protocol,
            load,
            seed,
        } => {
            builder
                .routing(*routing)
                .protocol(*protocol)
                .warmup(SWEEP_WARMUP)
                .traffic(
                    TrafficPattern::Uniform,
                    LengthDistribution::Fixed(SWEEP_MESSAGE_LEN),
                    *load,
                )
                .seed(*seed);
        }
        Spec::Burst {
            routing,
            protocol,
            seed,
            ..
        } => {
            builder
                .routing(*routing)
                .protocol(*protocol)
                .warmup(0)
                .seed(*seed);
        }
        Spec::Storm {
            routing,
            protocol,
            config,
            ..
        } => {
            let storm = ctx.span("faults.storm", |_| config.storm());
            builder
                .routing(*routing)
                .protocol(*protocol)
                .warmup(config.scale.warmup())
                .seed(config.seed)
                .churn(storm);
        }
    }
    let vm_before = if ctx.tracing() { sys::vm_mb() } else { None };
    let mut net = ctx.span("builder.build", |_| builder.build());
    if let (Some(before), Some(after)) = (vm_before, sys::vm_mb()) {
        ctx.count(
            "builder.vm_delta_kb",
            ((after - before).max(0.0) * 1024.0) as u64,
        );
    }
    if shards > 1 {
        net.set_shard_threads(Some(shards));
    }
    let offered = match &job.spec {
        Spec::OpenLoop { .. } => None,
        Spec::Burst { stride, seed, .. } => Some(ctx.span("traffic.schedule", |_| {
            let trace = jobs::burst_trace(net.topology().num_nodes(), *stride, *seed);
            net.schedule_trace(&trace);
            trace.len() as u64
        })),
        Spec::Storm { config, .. } => Some(ctx.span("traffic.schedule", |_| {
            let trace = config.workload();
            net.schedule_trace(&trace);
            trace.len() as u64
        })),
    };
    SetUp {
        net,
        offered,
        setup_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs one job; a panic inside it is caught and reported as a
/// failure of that job alone.
pub fn run_job(job: &Job, shards: usize, ctx: Ctx) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        ctx.span("bench.job", |ctx| simulate(job, shards, ctx))
    }));
    result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Outcome {
            failures: vec![format!("panic: {msg}")],
            ..Outcome::default()
        }
    })
}

fn simulate(job: &Job, shards: usize, ctx: Ctx) -> Outcome {
    let fcr = job.spec.protocol() == ProtocolKind::Fcr;
    let SetUp {
        mut net,
        offered,
        setup_s,
    } = set_up(job, shards, ctx);
    if fcr && offered.is_some() {
        net.set_record_deliveries(true);
    }
    let drained = advance(&mut net, &job.spec, ctx);
    let vm_mb = sys::vm_mb().unwrap_or(0.0);
    let (report, json) = ctx.span("report.build", |_| {
        let report = net.report();
        let json = report.to_json();
        (report, json)
    });

    let mut failures = Vec::new();
    if report.deadlocked {
        failures.push("deadlock".to_string());
    }
    if let Some(budget) = job.spec.drain_budget() {
        if !drained {
            failures.push(format!(
                "no drain within {budget} cycles ({} flits in flight)",
                report.flits_in_flight
            ));
        }
    }
    if fcr {
        if report.counters.corrupt_payload_delivered > 0 {
            failures.push(format!(
                "{} corrupt payloads delivered",
                report.counters.corrupt_payload_delivered
            ));
        }
        if let Some(offered) = offered {
            let mut ids: Vec<u64> = net
                .take_delivery_log()
                .iter()
                .map(|d| d.id.as_u64())
                .collect();
            ids.sort_unstable();
            let exactly_once =
                ids.iter().copied().eq(0..offered) && report.counters.messages_generated == offered;
            if !exactly_once {
                failures.push(format!(
                    "not exactly-once: {} deliveries of {offered} messages",
                    ids.len()
                ));
            }
        }
    }

    let mut work = Work {
        cycles: net.now().as_u64(),
        unroutable_headers: report.counters.unroutable_headers,
        link_flits: report.trace.link_flits_forwarded,
        stall_backpressure: report.trace.stall_backpressure_cycles,
        stall_busy: report.trace.stall_busy_cycles,
        stall_dead_link: report.trace.stall_dead_link_cycles,
        kills: report.total_kills(),
        retransmissions: report.counters.retransmissions,
        flits_dropped_killed: report.counters.flits_dropped_killed,
        payload_flits_delivered: report.counters.payload_flits_delivered,
        flits_injected: report.counters.payload_flits_injected + report.counters.pad_flits_injected,
        churn_events: report.churn.events.len() as u64,
        churn_events_drained: report.churn.drained_events() as u64,
        max_time_to_drain: report.churn.max_time_to_drain(),
        ..Work::default()
    };
    for node in 0..net.topology().num_nodes() {
        let c = net.router(NodeId::from_index(node)).counters();
        work.flit_hops += c.flits_forwarded;
        work.headers_routed += c.headers_routed;
    }
    Outcome {
        digest: digest(&json),
        failures,
        setup_s,
        vm_mb,
        work,
    }
}

/// Steps the network for the job's cycles (open loop) or until it
/// drains within its budget; returns whether it drained. Traced, the
/// same cycles are stepped in timed windows.
fn advance(net: &mut Network, spec: &Spec, ctx: Ctx) -> bool {
    let budget = spec.drain_budget();
    if !ctx.tracing() {
        return match budget {
            Some(cycles) => net.run_until_quiescent(cycles),
            None => {
                net.run(SWEEP_WARMUP + SWEEP_MEASURED);
                false
            }
        };
    }
    let mut left = budget.unwrap_or(SWEEP_WARMUP + SWEEP_MEASURED);
    while left > 0 && !net.is_deadlocked() {
        let window = left.min(WINDOW);
        let start = net.now().as_u64();
        let drained = ctx.span("core.run", |_| match budget {
            Some(_) => net.run_until_quiescent(window),
            // `run` without its closing report: open-loop sources keep
            // fast-forward off, so `run` is exactly this loop.
            None => {
                for _ in 0..window {
                    if net.is_deadlocked() {
                        break;
                    }
                    net.step();
                }
                false
            }
        });
        let stepped = net.now().as_u64() - start;
        ctx.count("core.active_router_cycles", active_routers(net) * stepped);
        if drained {
            return true;
        }
        left -= window;
    }
    false
}

/// Routers holding at least one flit.
fn active_routers(net: &Network) -> u64 {
    (0..net.topology().num_nodes())
        .filter(|&n| net.router(NodeId::from_index(n)).total_occupancy() > 0)
        .count() as u64
}

/// FNV-1a of `text`, folded to 32 bits.
fn digest(text: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{Fabric, Workload};
    use cr_core::RoutingKind;

    fn small_burst(fabric: Fabric, drain_budget: u64) -> Job {
        Job {
            name: "test".into(),
            fabric,
            spec: Spec::Burst {
                routing: RoutingKind::FullMeshOrdered,
                protocol: ProtocolKind::Baseline,
                stride: 1,
                seed: 5,
                drain_budget,
            },
        }
    }

    #[test]
    fn zero_drain_budget_fails_the_job() {
        let ok = run_job(
            &small_burst(Fabric::FullMesh128, 10_000),
            1,
            Ctx::root(None),
        );
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
        let zero = run_job(&small_burst(Fabric::FullMesh128, 0), 1, Ctx::root(None));
        assert_eq!(zero.failures.len(), 1, "{:?}", zero.failures);
        assert!(zero.failures[0].starts_with("no drain within 0 cycles"));
    }

    #[test]
    fn traced_windows_match_the_untraced_run() {
        let tracer = crate::spans::Tracer::new();
        for job in Workload::PaperSweep.jobs(3).iter().take(2) {
            let plain = run_job(job, 1, Ctx::root(None));
            let traced = run_job(job, 1, Ctx::root(Some(&tracer)));
            assert_eq!(plain.digest, traced.digest, "{}", job.name);
            assert_eq!(plain.work, traced.work, "{}", job.name);
        }
        let job = small_burst(Fabric::FullMesh128, 10_000);
        let plain = run_job(&job, 1, Ctx::root(None));
        let traced = run_job(&job, 1, Ctx::root(Some(&tracer)));
        assert_eq!(plain.digest, traced.digest);
        assert!(tracer.spans().iter().any(|s| s.name == "core.run"));
    }

    #[test]
    fn burst_digests_do_not_depend_on_the_shard_count() {
        // The 64×64 torus job is left to the benchmark's own golden
        // check: it takes minutes in a debug build.
        let jobs = Workload::BurstDrain.jobs(11);
        let small: Vec<&Job> = [Fabric::FatTree16, Fabric::FullMesh128]
            .iter()
            .filter_map(|f| jobs.iter().find(|j| j.fabric == *f))
            .collect();
        assert_eq!(small.len(), 2);
        for job in small {
            let sh1 = run_job(job, Workload::BurstDrain.shards(), Ctx::root(None));
            let sh2 = run_job(job, Workload::BurstDrainSh2.shards(), Ctx::root(None));
            assert!(sh1.failures.is_empty(), "{}: {:?}", job.name, sh1.failures);
            assert_eq!(sh1.digest, sh2.digest, "{}", job.name);
            assert_eq!(sh1.work, sh2.work, "{}", job.name);
        }
    }
}
