//! Property-based tests of the router's internal invariants under
//! randomized worm traffic and teardown.

use cr_router::flit::worm_flits;
use cr_router::routing::MinimalAdaptive;
use cr_router::{RouteTarget, Router, RouterConfig, WormId};
use cr_sim::check::{check, Config, Source};
use cr_sim::{Cycle, MessageId, NodeId, PortId, SimRng, VcId};
use cr_topology::{KAryNCube, Topology};

/// A scripted stimulus: worms arriving on random input ports, with
/// random kill points, pushed through one router standing at node 0 of
/// a 4-ary 1-cube.
#[derive(Debug, Clone)]
struct Script {
    /// (input port 0/1, destination 1..=3, length 2..10, kill_after)
    worms: Vec<(u8, u8, u8, Option<u8>)>,
    buffer_depth: usize,
    num_vcs: usize,
}

fn script(src: &mut Source<'_>) -> Script {
    let worms = src.vec_with(1..12, |s| {
        (
            s.u32_in(0..2) as u8,
            s.u32_in(1..4) as u8,
            s.u32_in(2..10) as u8,
            if s.bool_any() {
                Some(s.u32_in(0..8) as u8)
            } else {
                None
            },
        )
    });
    Script {
        worms,
        buffer_depth: src.usize_in(1..4),
        num_vcs: src.usize_in(1..3),
    }
}

/// Feed random worms through a single router, killing some midway: at
/// the end, after flushing every kill, no allocation leaks, and credit
/// spend never exceeds what traversal produced.
#[test]
fn router_never_leaks_allocations() {
    check("router_never_leaks_allocations", Config::cases(64), |src| {
        let s = script(src);
        let topo = KAryNCube::torus(4, 1);
        let cfg = RouterConfig {
            num_node_ports: topo.num_ports(NodeId::new(0)),
            num_vcs: s.num_vcs,
            buffer_depth: s.buffer_depth,
            num_inject: 1,
            inject_depth: 2,
            num_eject: 1,
            link_depth: 0,
        };
        let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(1));
        let rf = MinimalAdaptive::new(s.num_vcs);
        let mut now = Cycle::ZERO;
        let mut out = Vec::new();

        for (i, &(in_port, dst, len, kill_after)) in s.worms.iter().enumerate() {
            let worm = WormId::new(MessageId::new(i as u64), 0);
            let flits: Vec<_> = worm_flits(
                worm,
                NodeId::new(2), // somewhere upstream
                NodeId::new(dst as u32),
                len as u32,
                0,
                i as u64,
                Cycle::ZERO,
            )
            .collect();
            let port = PortId::new(in_port as u16);
            let vc = VcId::new((i % s.num_vcs) as u8);
            let mut sent = 0usize;
            let mut steps = 0usize;
            while sent < flits.len() && steps < 200 {
                // Refill as space allows (emulating upstream).
                while sent < flits.len() && r.occupancy(port, vc) < s.buffer_depth {
                    r.accept(now, port, vc, flits[sent]);
                    sent += 1;
                }
                r.route_and_allocate(now, &rf, &topo, &|_| false);
                out.clear();
                r.traverse_into(now, &|_| false, &mut out);
                // Return credits instantly (ideal downstream).
                for t in &out {
                    if let RouteTarget::Link { port, vc } = t.target {
                        r.add_credit(port, vc);
                    }
                }
                now += 1;
                steps += 1;
                if let Some(k) = kill_after {
                    if steps == k as usize + 1 {
                        let _ = r.flush_worm(port, vc, worm);
                        break;
                    }
                }
            }
            // Drain whatever remains of this worm normally.
            for _ in 0..200 {
                if r.occupancy(port, vc) == 0 && r.route_of(port, vc).is_none() {
                    break;
                }
                r.route_and_allocate(now, &rf, &topo, &|_| false);
                out.clear();
                r.traverse_into(now, &|_| false, &mut out);
                for t in &out {
                    if let RouteTarget::Link { port, vc } = t.target {
                        r.add_credit(port, vc);
                    }
                }
                if out.is_empty() {
                    // Stuck remnants (e.g. killed worm's parked flits):
                    // flush, as the network's teardown would.
                    if let Some(w) = r.front_flit(port, vc).map(|f| f.worm) {
                        let _ = r.flush_worm(port, vc, w);
                    }
                }
                now += 1;
            }
        }

        // Invariants at quiescence: every input VC empty and unrouted,
        // every output free with full credits.
        let node = NodeId::new(0);
        for p in 0..topo.num_ports(node) {
            let port = PortId::new(p as u16);
            for v in 0..s.num_vcs {
                let vc = VcId::new(v as u8);
                assert_eq!(r.occupancy(port, vc), 0, "flits left at {port} {vc}");
                assert!(r.route_of(port, vc).is_none());
                assert!(r.output_owner(port, vc).is_none());
                assert_eq!(r.credits(port, vc), s.buffer_depth);
            }
        }
        assert_eq!(r.total_occupancy(), 0);
    });
}

/// `flush_worm` is idempotent and only ever touches its worm.
#[test]
fn flush_is_idempotent_and_precise() {
    check("flush_is_idempotent_and_precise", Config::cases(64), |src| {
        let len_a = src.u32_in(2..8);
        let len_b = src.u32_in(2..8);
        let seed = src.u64_any();
        let topo = KAryNCube::torus(4, 1);
        let cfg = RouterConfig {
            num_node_ports: 2,
            num_vcs: 2,
            buffer_depth: 8,
            num_inject: 1,
            inject_depth: 2,
            num_eject: 1,
            link_depth: 0,
        };
        let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(seed));
        let rf = MinimalAdaptive::new(2);
        let wa = WormId::new(MessageId::new(1), 0);
        let wb = WormId::new(MessageId::new(2), 0);
        let fa: Vec<_> =
            worm_flits(wa, NodeId::new(3), NodeId::new(1), len_a, 0, 0, Cycle::ZERO).collect();
        let fb: Vec<_> =
            worm_flits(wb, NodeId::new(3), NodeId::new(2), len_b, 0, 0, Cycle::ZERO).collect();
        // Interleave the two worms on different VCs of one port.
        for f in fa.iter().take(4) {
            r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), *f);
        }
        for f in fb.iter().take(4) {
            r.accept(Cycle::ZERO, PortId::new(1), VcId::new(1), *f);
        }
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);

        let first = r.flush_worm(PortId::new(1), VcId::new(0), wa);
        assert_eq!(first.flushed, fa.len().min(4));
        let again = r.flush_worm(PortId::new(1), VcId::new(0), wa);
        assert_eq!(again.flushed, 0);
        assert_eq!(again.released, None);
        // Worm B untouched.
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(1)), fb.len().min(4));
        assert_eq!(r.worm_of(PortId::new(1), VcId::new(1)), Some(wb));
    });
}
