//! Differential test of the router's allocation and traversal stages.
//!
//! [`Router`] visits only the input VCs in its pending set and the
//! output ports in its busy set. The reference model below is the
//! straightforward dense form it replaced: every input VC is scanned
//! in rotated round-robin order and every output port is walked every
//! cycle, over nested per-port `Vec`s. Both are driven with the same
//! random stimulus — arrivals, injections, kills and flushes, dead-link
//! toggles and withheld credits — on routers with at least 70 neighbor
//! ports, so every bit walk crosses a 64-bit word boundary. Each cycle
//! they must agree on every observable: departures, counters, link
//! statistics, stall streaks and RNG position.

use cr_router::flit::worm_flits;
use cr_router::routing::Candidate;
use cr_router::{
    Flit, LinkStallStreak, LinkStats, RouteCtx, RouteTarget, Router, RouterConfig, RouterCounters,
    RoutingFunction, Traversal, WormId,
};
use cr_sim::check::{check, Config, Source};
use cr_sim::trace::StallCause;
use cr_sim::{Cycle, MessageId, NodeId, PortId, SimRng, VcId};
use cr_topology::{FullMesh, Topology};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};

#[derive(Debug)]
struct InputVc {
    buf: VecDeque<Flit>,
    /// Buffer capacity in flits.
    depth: usize,
    route: Option<RouteTarget>,
    worm: Option<WormId>,
    last_progress: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    allocated_to: Option<(PortId, VcId)>,
    credits: usize,
}

/// The dense-scan reference router.
#[derive(Debug)]
struct RefRouter {
    node: NodeId,
    cfg: RouterConfig,
    inputs: Vec<Vec<InputVc>>,
    outputs: Vec<Vec<OutputVc>>,
    ejects: Vec<Option<(PortId, VcId)>>,
    dead_out: Vec<bool>,
    counters: RouterCounters,
    rng: SimRng,
    orphan_credits: Vec<(PortId, VcId)>,
    input_list: Vec<(usize, usize)>,
    link_stats: Vec<LinkStats>,
    stall_open: Vec<Option<(StallCause, Cycle, u64)>>,
    finished_streaks: Vec<LinkStallStreak>,
}

impl RefRouter {
    fn new(node: NodeId, cfg: RouterConfig, rng: SimRng) -> Self {
        let input = |depth| InputVc {
            buf: VecDeque::with_capacity(depth),
            depth,
            route: None,
            worm: None,
            last_progress: Cycle::ZERO,
        };
        let mut inputs: Vec<Vec<InputVc>> = (0..cfg.num_node_ports)
            .map(|_| (0..cfg.num_vcs).map(|_| input(cfg.buffer_depth)).collect())
            .collect();
        inputs.extend((0..cfg.num_inject).map(|_| vec![input(cfg.inject_depth)]));
        let output = OutputVc {
            allocated_to: None,
            credits: cfg.buffer_depth + cfg.link_depth,
        };
        let input_list = inputs
            .iter()
            .enumerate()
            .flat_map(|(p, vcs)| (0..vcs.len()).map(move |v| (p, v)))
            .collect();
        RefRouter {
            node,
            cfg,
            inputs,
            outputs: vec![vec![output; cfg.num_vcs]; cfg.num_node_ports],
            ejects: vec![None; cfg.num_eject],
            dead_out: vec![false; cfg.num_node_ports],
            counters: RouterCounters::default(),
            rng,
            orphan_credits: Vec::new(),
            input_list,
            link_stats: vec![LinkStats::default(); cfg.num_node_ports],
            stall_open: vec![None; cfg.num_node_ports],
            finished_streaks: Vec::new(),
        }
    }

    fn accept(&mut self, now: Cycle, port: PortId, vc: VcId, flit: Flit) {
        let ivc = &mut self.inputs[port.index()][vc.index()];
        if ivc.buf.is_empty() {
            ivc.last_progress = now;
        }
        assert!(ivc.buf.len() < ivc.depth, "credit violation");
        ivc.buf.push_back(flit);
    }

    fn try_inject(&mut self, now: Cycle, i: usize, flit: Flit) -> bool {
        let ivc = &mut self.inputs[self.cfg.num_node_ports + i][0];
        if ivc.buf.is_empty() {
            ivc.last_progress = now;
        }
        if ivc.buf.len() == ivc.depth {
            return false;
        }
        ivc.buf.push_back(flit);
        true
    }

    fn route_and_allocate(
        &mut self,
        now: Cycle,
        routing: &dyn RoutingFunction,
        topo: &dyn Topology,
        is_killed: &dyn Fn(WormId) -> bool,
    ) -> usize {
        let n = self.input_list.len();
        let mut orphans_dropped = 0;
        let offset = (now.as_u64() as usize) % n;
        let mut candidates = Vec::new();
        for k in 0..n {
            let (p, v) = self.input_list[(k + offset) % n];
            if self.inputs[p][v].route.is_some() {
                continue;
            }
            let Some(front) = self.inputs[p][v].buf.front().copied() else {
                continue;
            };
            if is_killed(front.worm) {
                continue;
            }
            if !front.is_head() {
                self.inputs[p][v].buf.pop_front();
                orphans_dropped += 1;
                self.counters.orphan_flits_dropped += 1;
                if p < self.cfg.num_node_ports {
                    self.orphan_credits
                        .push((PortId::from_index(p), VcId::from_index(v)));
                }
                continue;
            }
            if front.dst == self.node {
                if let Some(e) = self.ejects.iter().position(Option::is_none) {
                    self.ejects[e] = Some((PortId::from_index(p), VcId::from_index(v)));
                    let ivc = &mut self.inputs[p][v];
                    ivc.route = Some(RouteTarget::Eject { port: e });
                    ivc.worm = Some(front.worm);
                    self.counters.headers_routed += 1;
                }
                continue;
            }
            candidates.clear();
            let mut ctx = RouteCtx {
                topo,
                node: self.node,
                flit: &front,
                dead_out: &self.dead_out,
                rng: &mut self.rng,
            };
            routing.candidates(&mut ctx, &mut candidates);
            if candidates.is_empty() {
                self.counters.unroutable_headers += 1;
                continue;
            }
            let grant = candidates.iter().copied().find(|c: &Candidate| {
                self.outputs[c.port.index()][c.vc.index()]
                    .allocated_to
                    .is_none()
            });
            if let Some(c) = grant {
                self.outputs[c.port.index()][c.vc.index()].allocated_to =
                    Some((PortId::from_index(p), VcId::from_index(v)));
                let ivc = &mut self.inputs[p][v];
                ivc.route = Some(RouteTarget::Link {
                    port: c.port,
                    vc: c.vc,
                });
                ivc.worm = Some(front.worm);
                if c.escape {
                    self.counters.escape_allocations += 1;
                    if let Some(front) = ivc.buf.front_mut() {
                        front.escaped = true;
                    }
                }
                self.counters.headers_routed += 1;
            }
        }
        orphans_dropped
    }

    fn traverse_into(
        &mut self,
        now: Cycle,
        is_killed: &dyn Fn(WormId) -> bool,
        out: &mut Vec<Traversal>,
    ) {
        let mut input_used = vec![false; self.inputs.len()];
        for port in 0..self.cfg.num_node_ports {
            let nvcs = self.cfg.num_vcs;
            let start = (now.as_u64() as usize) % nvcs;
            let mut sent = false;
            let mut blocked: Option<StallCause> = None;
            for k in 0..nvcs {
                let vc = (start + k) % nvcs;
                let Some((ip, iv)) = self.outputs[port][vc].allocated_to else {
                    continue;
                };
                if input_used[ip.index()] || self.outputs[port][vc].credits == 0 {
                    if blocked.is_none() {
                        let ivc = &self.inputs[ip.index()][iv.index()];
                        let ready = ivc
                            .worm
                            .is_some_and(|w| ivc.buf.front().is_some_and(|f| f.worm == w));
                        if ready {
                            blocked = Some(if self.outputs[port][vc].credits == 0 {
                                StallCause::Backpressure
                            } else {
                                StallCause::BusyChannel
                            });
                        }
                    }
                    continue;
                }
                let ivc = &mut self.inputs[ip.index()][iv.index()];
                let Some(owner) = ivc.worm else {
                    continue;
                };
                if is_killed(owner) {
                    if blocked.is_none() && !ivc.buf.is_empty() {
                        blocked = Some(StallCause::BusyChannel);
                    }
                    continue;
                }
                if ivc.buf.front().is_none_or(|f| f.worm != owner) {
                    continue;
                }
                let flit = ivc.buf.pop_front().expect("front() just succeeded");
                ivc.last_progress = now;
                input_used[ip.index()] = true;
                self.outputs[port][vc].credits -= 1;
                if flit.is_tail() {
                    ivc.route = None;
                    ivc.worm = None;
                    self.outputs[port][vc].allocated_to = None;
                }
                self.counters.flits_forwarded += 1;
                out.push(Traversal {
                    flit,
                    from_port: ip,
                    from_vc: iv,
                    target: RouteTarget::Link {
                        port: PortId::from_index(port),
                        vc: VcId::from_index(vc),
                    },
                });
                sent = true;
                break;
            }
            self.note_link_cycle(port, now, sent, blocked);
        }
        for e in 0..self.ejects.len() {
            let Some((ip, iv)) = self.ejects[e] else {
                continue;
            };
            if input_used[ip.index()] {
                continue;
            }
            let ivc = &mut self.inputs[ip.index()][iv.index()];
            let Some(owner) = ivc.worm else {
                continue;
            };
            if is_killed(owner) || ivc.buf.front().is_none_or(|f| f.worm != owner) {
                continue;
            }
            let flit = ivc.buf.pop_front().expect("front() just succeeded");
            ivc.last_progress = now;
            input_used[ip.index()] = true;
            if flit.is_tail() {
                ivc.route = None;
                ivc.worm = None;
                self.ejects[e] = None;
            }
            self.counters.flits_forwarded += 1;
            out.push(Traversal {
                flit,
                from_port: ip,
                from_vc: iv,
                target: RouteTarget::Eject { port: e },
            });
        }
    }

    /// Streak recording is always on here.
    fn note_link_cycle(
        &mut self,
        port: usize,
        now: Cycle,
        sent: bool,
        blocked: Option<StallCause>,
    ) {
        let stats = &mut self.link_stats[port];
        let open = &mut self.stall_open[port];
        let pid = PortId::from_index(port);
        if sent {
            stats.flits_forwarded += 1;
        }
        let cause = match blocked {
            Some(_) if self.dead_out[port] => Some(StallCause::DeadLink),
            c => c,
        };
        let finish = |open: &mut Option<(StallCause, Cycle, u64)>, out: &mut Vec<_>| {
            if let Some((cause, since, cycles)) = open.take() {
                out.push(LinkStallStreak {
                    port: pid,
                    cause,
                    since,
                    cycles,
                });
            }
        };
        let Some(cause) = cause else {
            finish(open, &mut self.finished_streaks);
            return;
        };
        match cause {
            StallCause::BusyChannel => stats.stall_busy += 1,
            StallCause::DeadLink => stats.stall_dead_link += 1,
            StallCause::Backpressure => stats.stall_backpressure += 1,
        }
        match open {
            Some((c, _, cycles)) if *c == cause => *cycles += 1,
            _ => {
                finish(open, &mut self.finished_streaks);
                *open = Some((cause, now, 1));
            }
        }
    }

    fn add_credit(&mut self, port: PortId, vc: VcId) {
        self.outputs[port.index()][vc.index()].credits += 1;
    }

    fn flush_worm(&mut self, port: PortId, vc: VcId, worm: WormId) -> (usize, Option<RouteTarget>) {
        let ivc = &mut self.inputs[port.index()][vc.index()];
        let before = ivc.buf.len();
        ivc.buf.retain(|f| f.worm != worm);
        let flushed = before - ivc.buf.len();
        self.counters.flits_flushed += flushed as u64;
        let mut released = None;
        if ivc.worm == Some(worm) {
            released = ivc.route.take();
            ivc.worm = None;
            match released {
                Some(RouteTarget::Link { port: op, vc: ov }) => {
                    self.outputs[op.index()][ov.index()].allocated_to = None;
                }
                Some(RouteTarget::Eject { port: ep }) => self.ejects[ep] = None,
                None => {}
            }
        }
        (flushed, released)
    }

    fn stalled_worms_into(
        &self,
        now: Cycle,
        threshold: u64,
        out: &mut Vec<(PortId, VcId, WormId)>,
    ) {
        for (p, vcs) in self.inputs.iter().enumerate() {
            for (v, ivc) in vcs.iter().enumerate() {
                let Some(worm) = ivc.worm.or_else(|| ivc.buf.front().map(|f| f.worm)) else {
                    continue;
                };
                if !ivc.buf.is_empty() && now.saturating_since(ivc.last_progress) >= threshold {
                    out.push((PortId::from_index(p), VcId::from_index(v), worm));
                }
            }
        }
    }

    fn total_occupancy(&self) -> usize {
        self.inputs.iter().flatten().map(|ivc| ivc.buf.len()).sum()
    }
}

/// Random candidate lists drawn from the router's own RNG: from zero
/// to three (port, VC) pairs, half of them among the first four ports
/// so output VCs are contended, with dead ports left out and some
/// marked as escape channels. Any change in visit order moves the RNG
/// and shows up in the grants.
#[derive(Debug)]
struct Scatter {
    vcs: usize,
}

impl RoutingFunction for Scatter {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        let ports = ctx.dead_out.len();
        let k = ctx.rng.pick_index(4).unwrap_or(0);
        for _ in 0..k {
            let span = if ctx.rng.chance(0.5) {
                ports.min(4)
            } else {
                ports
            };
            let port = ctx.rng.pick_index(span).unwrap_or(0);
            let vc = ctx.rng.pick_index(self.vcs).unwrap_or(0);
            let escape = ctx.rng.chance(0.2);
            if !ctx.dead_out[port] {
                out.push(Candidate {
                    port: PortId::from_index(port),
                    vc: VcId::from_index(vc),
                    escape,
                });
            }
        }
    }

    fn num_vcs(&self) -> usize {
        self.vcs
    }

    fn name(&self) -> &'static str {
        "scatter"
    }
}

struct Harness {
    new: Router,
    old: RefRouter,
    topo: FullMesh,
    rf: Scatter,
    /// The flits still to arrive at each input VC (neighbor VCs, then
    /// injection channels), fed in order, one worm after another.
    upstream: Vec<VecDeque<Flit>>,
    /// Neighbor input VCs that receive most arrivals.
    hot: Vec<usize>,
    next_message: u64,
    killed: RefCell<BTreeSet<WormId>>,
    /// Spent output credits not yet returned, oldest first.
    owed: VecDeque<(PortId, VcId)>,
    now: Cycle,
}

impl Harness {
    /// Starts a new worm on upstream `u` if it has run dry.
    fn refill(&mut self, src: &mut Source<'_>, u: usize) {
        if !self.upstream[u].is_empty() {
            return;
        }
        let nodes = self.topo.num_nodes();
        // One worm in four ejects here; the rest pass through.
        let dst = if src.usize_in(0..4) == 0 {
            0
        } else {
            src.usize_in(1..nodes)
        };
        let worm = WormId::new(MessageId::new(self.next_message), 0);
        self.next_message += 1;
        let len = src.u32_in(2..7);
        let flits = worm_flits(
            worm,
            NodeId::new(1),
            NodeId::from_index(dst),
            len,
            0,
            0,
            Cycle::ZERO,
        );
        self.upstream[u].extend(flits);
        // Occasionally lose the header: the body arrives as orphans.
        if src.usize_in(0..12) == 0 {
            self.upstream[u].pop_front();
        }
    }

    fn cycle(&mut self, src: &mut Source<'_>) {
        let now = self.now;
        let cfg = *self.new.config();
        let node_vcs = cfg.num_node_ports * cfg.num_vcs;

        // Arrivals, mostly on the hot VCs so worms make progress,
        // respecting buffer space.
        for _ in 0..src.usize_in(0..6) {
            let u = if src.usize_in(0..4) == 0 {
                src.usize_in(0..node_vcs)
            } else {
                self.hot[src.usize_in(0..self.hot.len())]
            };
            let (port, vc) = self.input_of(u);
            self.refill(src, u);
            if self.new.vc_is_full(port, vc) {
                continue;
            }
            let Some(flit) = self.upstream[u].pop_front() else {
                continue;
            };
            self.new.accept(now, port, vc, flit);
            self.old.accept(now, port, vc, flit);
        }
        // Injection attempts.
        for i in 0..cfg.num_inject {
            if !src.bool_any() {
                continue;
            }
            let u = node_vcs + i;
            self.refill(src, u);
            let Some(&flit) = self.upstream[u].front() else {
                continue;
            };
            let ok = self.new.try_inject(now, i, flit);
            assert_eq!(ok, self.old.try_inject(now, i, flit), "try_inject");
            if ok {
                self.upstream[u].pop_front();
            }
        }
        // Kill the worm at the front of a random input VC, dropping the
        // rest of it upstream.
        if src.usize_in(0..8) == 0 {
            let u = src.usize_in(0..self.upstream.len());
            let (port, vc) = self.input_of(u);
            let worm = self
                .new
                .worm_of(port, vc)
                .or_else(|| self.new.front_flit(port, vc).map(|f| f.worm));
            if let Some(w) = worm {
                self.killed.borrow_mut().insert(w);
                for up in &mut self.upstream {
                    up.retain(|f| f.worm != w);
                }
            }
        }
        // Flush a killed worm out of every input VC (the kill token's
        // visit); some flushed worms leave the killed registry.
        if src.usize_in(0..3) == 0 {
            let pick = {
                let killed = self.killed.borrow();
                let k = killed.len();
                (k > 0).then(|| *killed.iter().nth(src.usize_in(0..k)).expect("k > 0"))
            };
            if let Some(w) = pick {
                for u in 0..self.upstream.len() {
                    let (port, vc) = self.input_of(u);
                    let got = self.new.flush_worm(port, vc, w);
                    let want = self.old.flush_worm(port, vc, w);
                    assert_eq!(
                        (got.flushed, got.released),
                        want,
                        "flush_worm at {port} {vc}"
                    );
                }
                if src.bool_any() {
                    self.killed.borrow_mut().remove(&w);
                }
            }
        }
        // Dead-link toggles.
        if src.usize_in(0..10) == 0 {
            let p = PortId::from_index(src.usize_in(0..cfg.num_node_ports));
            if self.new.is_dead_out(p) {
                self.new.clear_dead_out(p);
                self.old.dead_out[p.index()] = false;
            } else {
                self.new.set_dead_out(p);
                self.old.dead_out[p.index()] = true;
            }
        }

        let killed = &self.killed;
        let is_killed = |w: WormId| killed.borrow().contains(&w);
        let orphans = self
            .new
            .route_and_allocate(now, &self.rf, &self.topo, &is_killed);
        let want = self
            .old
            .route_and_allocate(now, &self.rf, &self.topo, &is_killed);
        assert_eq!(orphans, want, "orphans dropped at {now}");
        assert_eq!(
            self.new.take_orphan_credits(),
            std::mem::take(&mut self.old.orphan_credits),
            "orphan credits at {now}"
        );
        assert_eq!(
            self.new.rng_words_consumed(),
            self.old.rng.words_consumed(),
            "rng at {now}"
        );

        let mut got = Vec::new();
        let mut want = Vec::new();
        self.new.traverse_into(now, &is_killed, &mut got);
        self.old.traverse_into(now, &is_killed, &mut want);
        assert_eq!(got, want, "traversals at {now}");
        for t in &got {
            if let RouteTarget::Link { port, vc } = t.target {
                self.owed.push_back((port, vc));
            }
        }
        // Return some of the owed credits, oldest first; the rest are
        // withheld for now.
        for _ in 0..src.usize_in(0..4).min(self.owed.len()) {
            let (port, vc) = self.owed.pop_front().expect("bounded by len");
            self.new.add_credit(port, vc);
            self.old.add_credit(port, vc);
        }

        assert_eq!(*self.new.counters(), self.old.counters, "counters at {now}");
        assert_eq!(
            self.new.link_stats(),
            &self.old.link_stats[..],
            "link stats at {now}"
        );
        let mut streaks = Vec::new();
        self.new.drain_streaks_into(&mut streaks);
        assert_eq!(
            streaks,
            std::mem::take(&mut self.old.finished_streaks),
            "streaks at {now}"
        );
        assert_eq!(
            self.new.has_open_streaks(),
            self.old.stall_open.iter().any(Option::is_some),
            "open streaks at {now}"
        );
        assert_eq!(self.new.total_occupancy(), self.old.total_occupancy());
        for u in 0..self.upstream.len() {
            let (port, vc) = self.input_of(u);
            assert_eq!(
                self.new.route_of(port, vc),
                self.old.inputs[port.index()][vc.index()].route
            );
        }
        let mut got = Vec::new();
        let mut want = Vec::new();
        self.new.stalled_worms_into(now, 3, &mut got);
        self.old.stalled_worms_into(now, 3, &mut want);
        assert_eq!(got, want, "stalled worms at {now}");
        self.now += 1;
    }

    fn input_of(&self, u: usize) -> (PortId, VcId) {
        let cfg = self.new.config();
        let node_vcs = cfg.num_node_ports * cfg.num_vcs;
        if u < node_vcs {
            (
                PortId::from_index(u / cfg.num_vcs),
                VcId::from_index(u % cfg.num_vcs),
            )
        } else {
            (
                PortId::from_index(cfg.num_node_ports + u - node_vcs),
                VcId::new(0),
            )
        }
    }
}

#[test]
fn sparse_walks_match_dense_reference() {
    check(
        "sparse_walks_match_dense_reference",
        Config::cases(48),
        |src| {
            let num_node_ports = src.usize_in(70..140);
            let num_vcs = src.usize_in(1..4);
            let cfg = RouterConfig {
                num_node_ports,
                num_vcs,
                buffer_depth: src.usize_in(1..4),
                num_inject: src.usize_in(1..3),
                inject_depth: src.usize_in(1..4),
                num_eject: src.usize_in(1..3),
                link_depth: src.usize_in(0..2),
            };
            let seed = src.u64_any();
            let mut new = Router::new(NodeId::new(0), cfg, SimRng::from_seed(seed));
            new.set_record_streaks(true);
            let old = RefRouter::new(NodeId::new(0), cfg, SimRng::from_seed(seed));
            let mut h = Harness {
                new,
                old,
                topo: FullMesh::new(num_node_ports + 1),
                rf: Scatter { vcs: num_vcs },
                upstream: (0..num_node_ports * num_vcs + cfg.num_inject)
                    .map(|_| VecDeque::new())
                    .collect(),
                hot: (0..8)
                    .map(|_| src.usize_in(0..num_node_ports * num_vcs))
                    .collect(),
                next_message: 0,
                killed: RefCell::new(BTreeSet::new()),
                owed: VecDeque::new(),
                now: Cycle::new(src.u64_in(0..1000)),
            };
            for _ in 0..src.usize_in(100..300) {
                h.cycle(src);
            }
        },
    );
}
