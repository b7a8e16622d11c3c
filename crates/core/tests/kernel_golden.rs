//! Golden digests of the cycle kernel.
//!
//! The twin-run suites (`scheduler_equiv`, `shard_equiv`,
//! `churn_equiv`) compare the dense, serial and sharded schedules with
//! one another. All three run the same per-shard phase bodies, so a
//! change made inside a body moves every schedule at once and slips
//! past them. These tests pin the bodies to recorded outputs instead:
//! one tiny configuration per body branch, each run on all three
//! schedules (the dense one at one and at two shards), must reproduce a committed FNV-1a digest of its
//! `SimReport` JSON plus its drained trace-event stream.
//!
//! Each case also asserts that its branch actually fired (a nonzero
//! counter), so a digest can never pass on a run that stopped
//! exercising what it is meant to pin.
//!
//! The digests were recorded before the three steppers shared one
//! kernel. A deliberate protocol change re-records them: run
//! `cargo test -p cr-core --test kernel_golden -- --nocapture` and
//! copy the printed `got` values.

use cr_core::{Ablations, NetworkBuilder, ProtocolKind, RoutingKind, SimReport};
use cr_faults::{ChurnSchedule, FaultModel};
use cr_sim::{Cycle, SimRng};
use cr_topology::{KAryNCube, Topology};
use cr_traffic::{LengthDistribution, TrafficPattern};

/// 64-bit FNV-1a, the same hash as the low half of cr-check's state
/// fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ways one kernel can be scheduled.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// Every component visited, no fast-forward.
    Dense,
    /// Dense at two shards: the bodies called per shard on the calling
    /// thread, in shard order, without a fan-out.
    DenseSharded,
    /// Active sets at one shard, on the calling thread.
    Serial,
    /// Active sets at two shards, with a two-worker team allowed.
    /// These 4×4 cases never reach the fan-out threshold, so the
    /// bodies run on the calling thread; `shard_equiv` covers the
    /// team path.
    Sharded,
}

const SCHEDULES: [Schedule; 4] = [
    Schedule::Dense,
    Schedule::DenseSharded,
    Schedule::Serial,
    Schedule::Sharded,
];

/// The 4×4 torus every case runs on.
fn torus() -> KAryNCube {
    KAryNCube::torus(4, 2)
}

/// FCR with misrouting and uniform traffic: the base of the fault
/// cases.
fn fcr(faults: FaultModel, seed: u64) -> NetworkBuilder {
    let mut b = NetworkBuilder::new(torus());
    b.routing(RoutingKind::AdaptiveMisroute {
        vcs: 1,
        extra_hops: 4,
    })
    .protocol(ProtocolKind::Fcr)
    .faults(faults)
    .warmup(100)
    .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
    .trace(1 << 16)
    .seed(seed);
    b
}

/// Plain CR with adaptive routing and uniform traffic.
fn cr(load: f64, seed: u64) -> NetworkBuilder {
    let mut b = NetworkBuilder::new(torus());
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Cr)
        .warmup(100)
        .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), load)
        .trace(1 << 16)
        .seed(seed);
    b
}

fn dead_links(count: usize) -> FaultModel {
    let mut faults = FaultModel::new();
    faults
        .kill_random_links_connected(&torus(), count, &mut SimRng::from_seed(0xFA))
        .expect("fault plan must keep the torus connected");
    faults
}

/// Links dying under load: routers steer around links that are dead
/// when a worm is routed, so only a link that dies with flits on the
/// wire makes corrupted arrivals.
fn kills_under_load() -> ChurnSchedule {
    let links = torus().links();
    let mut schedule = ChurnSchedule::new();
    for (k, idx) in [1usize, 9, 20, 33, 47].into_iter().enumerate() {
        let at = 300 + 150 * k as u64;
        schedule
            .kill_link(Cycle::new(at), links[idx].id)
            .revive_link(Cycle::new(at + 400), links[idx].id);
    }
    schedule
}

/// Runs `build` for `cycles` on `schedule` and returns the digest and
/// the report.
fn run(build: &dyn Fn() -> NetworkBuilder, cycles: u64, schedule: Schedule) -> (u64, SimReport) {
    let mut b = build();
    if let Schedule::DenseSharded | Schedule::Sharded = schedule {
        b.shards(2);
    }
    let mut net = b.build();
    match schedule {
        Schedule::Dense => net.set_reference_stepper(true),
        Schedule::DenseSharded => {
            assert_eq!(net.num_shards(), 2);
            net.set_reference_stepper(true);
        }
        Schedule::Serial => assert_eq!(net.num_shards(), 1),
        Schedule::Sharded => {
            assert_eq!(net.num_shards(), 2);
            net.set_shard_threads(Some(2));
        }
    }
    let report = net.run(cycles);
    let mut text = report.to_json();
    for event in net.take_trace_events() {
        text.push_str(&format!("{event:?}\n"));
    }
    (fnv1a(text.as_bytes()), report)
}

/// Asserts the golden digest on every schedule and that `fired` holds
/// for the report.
fn assert_golden(
    name: &str,
    golden: u64,
    cycles: u64,
    build: impl Fn() -> NetworkBuilder,
    fired: impl Fn(&SimReport) -> bool,
) {
    for schedule in SCHEDULES {
        let (got, report) = run(&build, cycles, schedule);
        println!("{name} {schedule:?}: got {got:#018x}");
        assert!(
            fired(&report),
            "{name} {schedule:?}: the pinned branch never fired: {:?}",
            report.counters
        );
        assert_eq!(
            got, golden,
            "{name} {schedule:?}: digest {got:#018x} != golden {golden:#018x}"
        );
    }
}

#[test]
fn cr_clean() {
    assert_golden(
        "cr_clean",
        0x513d4b81af7ece3d,
        1_500,
        || cr(0.2, 0xC1),
        |r| r.counters.messages_delivered > 0,
    );
}

/// Dead links under FCR: corrupted arrivals on links that died under
/// load are detected and killed from inside the arrivals scan.
#[test]
fn fcr_dead_link_detection_kill() {
    assert_golden(
        "fcr_dead_links",
        0xb347cc921999fa60,
        1_500,
        || {
            let mut b = fcr(dead_links(2), 0xD1);
            b.churn(kills_under_load());
            b
        },
        |r| r.counters.kills_fault > 0,
    );
}

/// A nonzero detection-miss rate: corrupted flits survive detection
/// and roam, and every later arrival draws the detection RNG.
#[test]
fn fcr_detection_miss() {
    assert_golden(
        "fcr_detection_miss",
        0x333fb715a9869d43,
        1_500,
        || {
            let mut faults = dead_links(2);
            faults.set_detection_miss_rate(0.4);
            let mut b = fcr(faults, 0xD2);
            b.churn(kills_under_load());
            b
        },
        |r| r.counters.detections_missed > 0 && r.counters.kills_fault > 0,
    );
}

/// Transient corruption: every arrival draws the fault RNG.
#[test]
fn fcr_transient_corruption() {
    assert_golden(
        "fcr_transient",
        0x998210bd9dfe69f4,
        1_500,
        || {
            let mut faults = FaultModel::new();
            faults.set_transient_rate(0.002);
            fcr(faults, 0xD3)
        },
        |r| r.counters.flits_corrupted > 0 && r.counters.kills_fault > 0,
    );
}

/// A short source timeout at high load: injectors kill their own
/// worms inside the injection phase.
#[test]
fn cr_source_timeout_kill() {
    assert_golden(
        "cr_source_timeout",
        0x490a8a3167b93a92,
        1_500,
        || {
            let mut b = cr(0.45, 0xD4);
            b.timeout(12);
            b
        },
        |r| r.counters.kills_source_timeout > 0 && r.counters.retransmissions > 0,
    );
}

/// Path-wide detection: routers kill their own stalled worms.
#[test]
fn cr_path_wide() {
    assert_golden(
        "cr_path_wide",
        0xcf5a06b1c4de83fb,
        1_500,
        || {
            let mut b = cr(0.45, 0xD5);
            b.path_wide(12);
            b
        },
        |r| r.counters.kills_path_wide > 0,
    );
}

/// The instant-teardown ablation: every kill's token walk completes
/// within its cycle.
#[test]
fn cr_instant_teardown() {
    assert_golden(
        "cr_instant_teardown",
        0x8fd3f97ed521fff1,
        1_500,
        || {
            let mut b = cr(0.45, 0xD6);
            b.timeout(12).ablations(Ablations {
                instant_teardown: true,
                ..Ablations::default()
            });
            b
        },
        |r| r.counters.kills_source_timeout > 0,
    );
}

/// A churn storm under FCR: regional outages kill and revive links
/// mid-run, flipping the arrivals gate between its schedules.
#[test]
fn fcr_churn_storm() {
    assert_golden(
        "fcr_churn_storm",
        0x4c0254f938e99336,
        2_000,
        || {
            let mut schedule = ChurnSchedule::new();
            let topo = torus();
            schedule.random_regional_outages(
                &topo,
                4,
                Cycle::new(200),
                Cycle::new(1_200),
                1,
                100,
                400,
                &mut SimRng::from_seed(0x5707),
            );
            let first = topo.links()[3].id;
            schedule
                .kill_link(Cycle::new(150), first)
                .revive_link(Cycle::new(900), first);
            let mut b = fcr(FaultModel::new(), 0xD7);
            b.churn(schedule);
            b
        },
        |r| !r.churn.events.is_empty() && r.counters.kills_fault > 0,
    );
}
