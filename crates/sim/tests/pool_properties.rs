//! Property-based tests of the sweep pool: for arbitrary task
//! batches and job counts, the pool is observationally identical to a
//! serial `for` loop — same count, same order, same values — and task
//! panics surface as errors instead of hangs.

use cr_sim::check::{check, Config};
use cr_sim::pool;

/// Every submitted task produces exactly one result, in submission
/// order, for any job count.
#[test]
fn count_in_equals_count_out_and_order_is_preserved() {
    check("pool_count_and_order", Config::default(), |src| {
        let n = src.usize_in(0..64);
        let jobs = src.usize_in(1..9);
        let inputs: Vec<u64> = (0..n).map(|_| src.u64_any()).collect();
        let tasks: Vec<_> = inputs
            .iter()
            .map(|&v| move || v.wrapping_mul(2654435761))
            .collect();
        let out = pool::run(jobs, tasks);
        assert_eq!(out.len(), n);
        for (got, &input) in out.iter().zip(&inputs) {
            assert_eq!(*got, input.wrapping_mul(2654435761));
        }
    });
}

/// `jobs = 1` equals direct execution: identical results to running
/// the closures in a plain loop, for any batch.
#[test]
fn jobs_one_equals_direct_execution() {
    check("pool_serial_equivalence", Config::default(), |src| {
        let inputs: Vec<u64> = src.vec_with(0..48, |s| s.u64_any());
        let direct: Vec<u64> = inputs.iter().map(|&v| v ^ (v >> 7)).collect();
        let pooled = pool::run(
            1,
            inputs.iter().map(|&v| move || v ^ (v >> 7)).collect::<Vec<_>>(),
        );
        assert_eq!(pooled, direct);
    });
}

/// Parallel runs agree with the serial run bit-for-bit — the sweep
/// determinism contract, on arbitrary workloads and job counts.
#[test]
fn any_job_count_matches_serial() {
    check("pool_jobs_invariance", Config::default(), |src| {
        let inputs: Vec<u64> = src.vec_with(1..40, |s| s.u64_any());
        let jobs = src.usize_in(2..9);
        let make_tasks = || {
            inputs
                .iter()
                .map(|&v| move || {
                    // A mildly uneven workload so workers claim
                    // different shares: cost depends on the input value.
                    let mut acc = v;
                    for _ in 0..(v % 257) {
                        acc = acc.rotate_left(9) ^ 0x9E37_79B9_7F4A_7C15;
                    }
                    acc
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(pool::run(jobs, make_tasks()), pool::run(1, make_tasks()));
    });
}

/// A panicking task surfaces as a `PoolError` naming the lowest
/// failing submission index — never a hang, never a lost panic —
/// wherever the panics land in the batch and whatever the job count.
#[test]
fn panics_surface_as_errors_not_hangs() {
    check("pool_panic_surfacing", Config::default(), |src| {
        let n = src.usize_in(1..32);
        let jobs = src.usize_in(1..9);
        let bad: Vec<bool> = (0..n).map(|_| src.bool_any()).collect();
        let first_bad = bad.iter().position(|&b| b);
        let tasks: Vec<_> = bad
            .iter()
            .enumerate()
            .map(|(i, &is_bad)| {
                move || {
                    assert!(!is_bad, "task {i} told to fail");
                    i
                }
            })
            .collect();
        match (pool::try_run(jobs, tasks), first_bad) {
            (Ok(out), None) => assert_eq!(out, (0..n).collect::<Vec<_>>()),
            (Err(e), Some(idx)) => {
                assert_eq!(e.task_index, idx);
                assert!(e.message.contains(&format!("task {idx} told to fail")), "{e}");
            }
            (Ok(_), Some(idx)) => panic!("panic at task {idx} was swallowed"),
            (Err(e), None) => panic!("spurious error: {e}"),
        }
    });
}
