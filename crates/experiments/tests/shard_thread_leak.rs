//! Thread-leak regression for the sharded stepper's persistent worker
//! team.
//!
//! This test counts the whole process's threads through
//! `/proc/self/status`, so it lives in its own test binary: sibling
//! tests running their own teams in the same process would otherwise
//! show up in the census.

use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
use cr_sim::NodeId;
use cr_topology::KAryNCube;

/// Constructing and dropping sharded networks must not leak worker
/// threads: the persistent team is joined in `Network::drop` before
/// the shard state it references is freed. 100 construct/step/drop
/// rounds leave the process thread count where it started. Every
/// round injects from all 256 nodes at once, enough work for the
/// first cycles' phases to spawn and use the team.
#[test]
fn repeated_sharded_drop_leaks_no_threads() {
    // /proc is the only std-visible thread census; skip quietly where
    // absent (same policy as the pool's own drop test).
    let count_threads = || -> Option<usize> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
    };
    let Some(before) = count_threads() else {
        return;
    };
    for round in 0..100u64 {
        let mut b = NetworkBuilder::new(KAryNCube::torus(16, 2));
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .seed(round)
            .shards(4);
        let mut net = b.build();
        net.set_shard_threads(Some(4));
        for n in 0..256u32 {
            net.send_message(NodeId::new(n), NodeId::new((n + 17) % 256), 8);
        }
        net.run(8);
        assert!(
            net.step_stats().injection.team > 0,
            "round {round}: the team never ran"
        );
    }
    let after = count_threads().expect("thread census available above");
    assert!(
        after <= before,
        "sharded network drops leaked threads: {before} -> {after}"
    );
}
