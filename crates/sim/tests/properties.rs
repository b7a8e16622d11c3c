//! Property-based tests of the simulation substrate.

use cr_sim::check::{check, Config};
use cr_sim::{Cycle, Rng, SimRng};

/// Split streams never collide with the parent or each other for
/// reasonable stream counts, and are reproducible.
#[test]
fn rng_splits_are_stable_and_distinct() {
    check("rng_splits_are_stable_and_distinct", Config::default(), |src| {
        let seed = src.u64_any();
        let root = SimRng::from_seed(seed);
        let mut firsts = std::collections::HashSet::new();
        for stream in 0..128u64 {
            let mut a = root.split(stream);
            let mut b = root.split(stream);
            let va = a.next_u64();
            assert_eq!(va, b.next_u64(), "split not reproducible");
            assert!(firsts.insert(va), "stream collision at {stream}");
        }
    });
}

/// `chance(p)` over many trials lands near `p` for any seed.
#[test]
fn chance_is_calibrated() {
    check("chance_is_calibrated", Config::default(), |src| {
        let seed = src.u64_any();
        let p = f64::from(src.u32_in(0..1001)) / 1000.0;
        let mut rng = SimRng::from_seed(seed);
        let n = 4000;
        let hits = (0..n).filter(|_| rng.chance(p)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - p).abs() < 0.05, "p={p} frac={frac}");
    });
}

/// Cycle arithmetic is consistent: `(a + d) - a == d` and saturating
/// subtraction never underflows.
#[test]
fn cycle_arithmetic_laws() {
    check("cycle_arithmetic_laws", Config::default(), |src| {
        let a = src.u64_in(0..u64::MAX / 2);
        let d = src.u64_in(0..1_000_000);
        let t = Cycle::new(a);
        let later = t + d;
        assert_eq!(later - t, d);
        assert_eq!(later.saturating_since(t), d);
        assert_eq!(t.saturating_since(later), 0);
        let mut u = t;
        u.tick();
        assert_eq!(u - t, 1);
    });
}

/// `pick` always returns an element of the slice; `pick_index` stays
/// in range.
#[test]
fn pick_stays_in_bounds() {
    check("pick_stays_in_bounds", Config::default(), |src| {
        let seed = src.u64_any();
        let len = src.usize_in(1..64);
        let mut rng = SimRng::from_seed(seed);
        let items: Vec<usize> = (0..len).collect();
        for _ in 0..32 {
            let v = *rng.pick(&items).unwrap();
            assert!(v < len);
            let i = rng.pick_index(len).unwrap();
            assert!(i < len);
        }
    });
}
