//! Thread-leak regression for `pool::Team`.
//!
//! This test counts the whole process's threads through
//! `/proc/self/status`, so it lives in its own test binary: sibling
//! tests spawning pool or team workers in the same process would
//! otherwise show up in the census.

use cr_sim::pool::Team;

/// Dropping a team must not leave threads behind.
#[test]
fn team_drop_joins_workers() {
    // /proc is the only std-visible thread census; skip quietly where
    // absent.
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
    for _ in 0..20 {
        let team = Team::new(4);
        let out = team.run((0..8u32).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out.len(), 8);
    }
    let after = count_threads().expect("thread census available above");
    assert!(
        after <= before,
        "team drops leaked threads: {before} -> {after}"
    );
}
