//! Thread-leak regression for the sharded stepper's persistent worker
//! team.
//!
//! This test counts the whole process's threads through
//! `/proc/self/status`, so it lives in its own test binary: sibling
//! tests running their own teams in the same process would otherwise
//! show up in the census.

use cr_core::{ProtocolKind, RoutingKind};
use cr_experiments::Scale;
use cr_traffic::{LengthDistribution, TrafficPattern};

/// Constructing and dropping sharded networks must not leak worker
/// threads: the persistent team is joined in `Network::drop` before
/// the shard state it references is freed. 100 construct/step/drop
/// rounds leave the process thread count where it started.
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
        let mut b = Scale::Tiny.builder();
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Cr)
            .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.2)
            .seed(round)
            .shards(4);
        let mut net = b.build();
        net.set_shard_threads(Some(4));
        // A handful of cycles is enough to spawn the team lazily.
        net.run(8);
    }
    let after = count_threads().expect("thread census available above");
    assert!(
        after <= before,
        "sharded network drops leaked threads: {before} -> {after}"
    );
}
