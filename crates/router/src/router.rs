//! The input-buffered wormhole router.
//!
//! A [`Router`] owns, for one node:
//!
//! * **input units** — one per neighbor port plus one per injection
//!   channel; each neighbor input holds `num_vcs` virtual channels with
//!   `buffer_depth`-flit FIFOs, each injection input holds a single
//!   FIFO of `inject_depth` flits;
//! * **output state** — per (neighbor port, VC): which input VC holds
//!   the channel, and a credit counter mirroring the downstream buffer
//!   space; plus ejection ports with allocation but no credits
//!   (the receiver always sinks one flit per ejection port per cycle);
//! * the **routing/allocation** and **switch-traversal** pipeline
//!   stages, invoked once per cycle by the network. Each visits only
//!   live state — input VCs that may hold an unrouted header, output
//!   ports with an allocated VC or an open stall streak — in the order
//!   a scan of every VC and port would use (DESIGN.md §10).
//!
//! The router is deliberately protocol-agnostic: it neither times out
//! nor kills. The CR/FCR machinery drives it through
//! [`Router::flush_worm`] (teardown) and the counters it exposes.

use crate::flit::{Flit, WormId};
use crate::routing::{Candidate, RouteCtx, RoutingFunction};
use cr_sim::trace::StallCause;
use cr_sim::{Cycle, NodeId, PortId, SimRng, VcId};
use cr_topology::Topology;

/// Where an allocated worm is headed from this router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteTarget {
    /// Out a neighbor port on a specific virtual channel.
    Link {
        /// Output port.
        port: PortId,
        /// Virtual channel on the output port.
        vc: VcId,
    },
    /// Into the node's receiver via an ejection port.
    Eject {
        /// Ejection-port index (`0..num_eject`).
        port: usize,
    },
}

/// What kind of input unit a port index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// A neighbor (topology) port.
    Node,
    /// An injection interface port.
    Inject,
}

/// Static configuration of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of neighbor ports (the topology's port span at this
    /// node).
    pub num_node_ports: usize,
    /// Virtual channels per neighbor port.
    pub num_vcs: usize,
    /// Flit-buffer depth per neighbor input VC.
    pub buffer_depth: usize,
    /// Number of injection channels (paper Fig. 14(e)/(f): "multiple
    /// source channels").
    pub num_inject: usize,
    /// Flit-buffer depth of each injection channel.
    pub inject_depth: usize,
    /// Number of ejection channels ("sink channels").
    pub num_eject: usize,
    /// Flits the outgoing channel pipeline latches can hold when
    /// stalled (the channel depth `d_chan`). Wormhole handshake
    /// channels store one flit per pipeline stage when blocked, so
    /// output credits cover `buffer_depth + link_depth`.
    pub link_depth: usize,
}

impl RouterConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized resources.
    pub fn validate(&self) {
        assert!(self.num_vcs > 0, "need at least one virtual channel");
        assert!(self.buffer_depth > 0, "need at least one buffer slot");
        assert!(self.num_inject > 0, "need at least one injection channel");
        assert!(self.inject_depth > 0, "injection FIFO needs a slot");
        assert!(self.num_eject > 0, "need at least one ejection channel");
    }
}

/// Counters exposed for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Headers granted an output (or ejection) channel.
    pub headers_routed: u64,
    /// Flits moved through the crossbar.
    pub flits_forwarded: u64,
    /// Escape-channel allocations under Duato's protocol — the paper's
    /// "potential deadlock situation" events.
    pub escape_allocations: u64,
    /// Defensive count of flits dropped because their worm state was
    /// gone (should stay zero; teardown catches worms via the killed
    /// registry first).
    pub orphan_flits_dropped: u64,
    /// Flits flushed out of buffers by worm teardown.
    pub flits_flushed: u64,
    /// Headers that were offered no candidate (blocked by faults).
    pub unroutable_headers: u64,
}

/// Per-output-port utilization and stall-attribution counters.
///
/// Maintained by [`Router::traverse_into`] for every neighbor output
/// port, every cycle, whether or not tracing is on (plain counter
/// adds on the already-slow blocked path). A port is *stalled* on a
/// cycle when some allocated output VC had a flit ready to forward
/// but none crossed; the cause attribution follows
/// [`StallCause`]: a dead output link wins, then zero credits
/// (backpressure), then input-port contention or a frozen killed
/// owner (busy channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Flits forwarded out this port.
    pub flits_forwarded: u64,
    /// Stalled cycles attributed to crossbar-input contention or a
    /// frozen (killed) channel owner.
    pub stall_busy: u64,
    /// Stalled cycles on a port whose outgoing link is dead.
    pub stall_dead_link: u64,
    /// Stalled cycles attributed to exhausted downstream credits.
    pub stall_backpressure: u64,
}

impl LinkStats {
    /// Total stalled cycles of any cause.
    pub fn stall_total(&self) -> u64 {
        self.stall_busy + self.stall_dead_link + self.stall_backpressure
    }

    /// Accumulates `other` into `self` field by field. All fields are
    /// plain `u64` sums, so merging per-shard accumulators in any
    /// order yields the same totals the serial stepper counts — this
    /// is what lets the sharded stepper fold per-router stats into
    /// one `SimReport` deterministically.
    pub fn merge(&mut self, other: &LinkStats) {
        self.flits_forwarded += other.flits_forwarded;
        self.stall_busy += other.stall_busy;
        self.stall_dead_link += other.stall_dead_link;
        self.stall_backpressure += other.stall_backpressure;
    }

    /// The stalled-cycle count attributed to `cause`.
    pub fn stall_for(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::BusyChannel => self.stall_busy,
            StallCause::DeadLink => self.stall_dead_link,
            StallCause::Backpressure => self.stall_backpressure,
        }
    }
}

/// A finished run of consecutive stalled cycles on one output port,
/// with a constant attributed cause. Produced only while streak
/// recording is on (see [`Router::set_record_streaks`]); the network
/// converts these to `LinkStall` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStallStreak {
    /// The stalled output port.
    pub port: PortId,
    /// The attributed cause (constant across the streak).
    pub cause: StallCause,
    /// Cycle the streak started.
    pub since: Cycle,
    /// Streak length in cycles.
    pub cycles: u64,
}

/// One flit leaving the router this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traversal {
    /// The departing flit (header mutations — escape marking — already
    /// applied).
    pub flit: Flit,
    /// Input port it came from (for upstream credit return).
    pub from_port: PortId,
    /// Input virtual channel it came from.
    pub from_vc: VcId,
    /// Where it is going.
    pub target: RouteTarget,
}

/// Result of flushing one worm out of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushResult {
    /// Flits removed from the FIFO.
    pub flushed: usize,
    /// The downstream hop the worm had allocated, if any — the next
    /// stop for a teardown token.
    pub released: Option<RouteTarget>,
}

/// One input VC's flit FIFO: a ring over its own window
/// `base..base + cap` of the router's shared flit slab
/// (`Router::slots`), so a router keeps every input buffer in one
/// allocation.
#[derive(Debug, Clone, Copy)]
struct Ring {
    base: usize,
    cap: usize,
    head: usize,
    len: usize,
}

impl Ring {
    /// Slab index of queue position `i`; needs `i < cap`.
    fn slot(&self, i: usize) -> usize {
        let j = self.head + i;
        self.base + if j >= self.cap { j - self.cap } else { j }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len == self.cap
    }

    fn get<'a>(&self, slots: &'a [Option<Flit>], i: usize) -> Option<&'a Flit> {
        if i < self.len {
            slots[self.slot(i)].as_ref()
        } else {
            None
        }
    }

    fn front<'a>(&self, slots: &'a [Option<Flit>]) -> Option<&'a Flit> {
        self.get(slots, 0)
    }

    fn front_mut<'a>(&self, slots: &'a mut [Option<Flit>]) -> Option<&'a mut Flit> {
        if self.len > 0 {
            slots[self.slot(0)].as_mut()
        } else {
            None
        }
    }

    /// Appends `flit`; `false` (and no change) when full.
    fn push(&mut self, slots: &mut [Option<Flit>], flit: Flit) -> bool {
        if self.is_full() {
            return false;
        }
        slots[self.slot(self.len)] = Some(flit);
        self.len += 1;
        true
    }

    fn pop(&mut self, slots: &mut [Option<Flit>]) -> Option<Flit> {
        if self.len == 0 {
            return None;
        }
        let flit = slots[self.slot(0)].take();
        self.head = if self.head + 1 == self.cap {
            0
        } else {
            self.head + 1
        };
        self.len -= 1;
        flit
    }

    /// Removes the flits `keep` rejects, preserving the order of the
    /// rest; returns how many were removed.
    fn retain(&mut self, slots: &mut [Option<Flit>], keep: impl Fn(&Flit) -> bool) -> usize {
        let mut kept = 0;
        for i in 0..self.len {
            let Some(flit) = slots[self.slot(i)].take() else {
                continue;
            };
            if keep(&flit) {
                slots[self.slot(kept)] = Some(flit);
                kept += 1;
            }
        }
        let removed = self.len - kept;
        self.len = kept;
        removed
    }
}

#[derive(Debug)]
struct InputVc {
    buf: Ring,
    route: Option<RouteTarget>,
    worm: Option<WormId>,
    /// Last cycle a flit was forwarded out of this VC (or arrived into
    /// an empty VC); drives path-wide stall detection.
    last_progress: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// The input VC currently holding this output channel.
    allocated_to: Option<(PortId, VcId)>,
    /// Free buffer slots at the downstream input VC.
    credits: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct EjectPort {
    allocated_to: Option<(PortId, VcId)>,
}

/// A fixed-size set of small indices, one bit each, walked in
/// ascending order.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The smallest member in `from..end`, if any.
    fn next_in(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.words[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                return (i < end).then_some(i);
            }
            w += 1;
            if w * 64 >= end {
                return None;
            }
            bits = self.words[w];
        }
    }
}

/// The wormhole router for one node. See the module docs for the
/// microarchitecture.
#[derive(Debug)]
pub struct Router {
    node: NodeId,
    cfg: RouterConfig,
    /// Input VCs, flat: neighbor port `p` VC `v` at `p * num_vcs + v`,
    /// then one single-VC entry per injection channel.
    inputs: Vec<InputVc>,
    /// Flit slots behind every input VC's [`Ring`].
    slots: Vec<Option<Flit>>,
    /// Output VCs of the neighbor ports, flat at `p * num_vcs + v`.
    outputs: Vec<OutputVc>,
    ejects: Vec<EjectPort>,
    dead_out: Vec<bool>,
    counters: RouterCounters,
    rng: SimRng,
    /// (port, vc) pairs whose orphan drop needs an upstream credit.
    orphan_credits: Vec<(PortId, VcId)>,
    /// Input VCs that may hold an unrouted front flit: a superset of
    /// the non-empty, unrouted VCs, so the allocation stage visits
    /// only these.
    pending: BitSet,
    /// Neighbor output ports with an allocated output VC or an open
    /// stall streak, possibly plus ports that just went idle: the
    /// traversal stage visits only these.
    busy: BitSet,
    /// Routing-candidate scratch, reused across headers and cycles.
    candidates: Vec<Candidate>,
    /// `input_used[p] == traverse_epoch` marks input port `p` as having
    /// supplied a flit in the current [`Router::traverse_into`] call;
    /// bumping the epoch resets every flag at once.
    input_used: Vec<u64>,
    traverse_epoch: u64,
    /// Per-neighbor-output-port utilization/stall counters.
    link_stats: Vec<LinkStats>,
    /// Open stall streak per neighbor output port: `(cause, start,
    /// length)`.
    stall_open: Vec<Option<(StallCause, Cycle, u64)>>,
    /// Finished streaks awaiting [`Router::drain_streaks_into`]; only
    /// populated while `record_streaks` is on.
    finished_streaks: Vec<LinkStallStreak>,
    /// Whether finished stall streaks are kept for the trace layer.
    record_streaks: bool,
    /// Flits buffered across all input VCs, maintained incrementally
    /// so [`Router::total_occupancy`] is O(1) — the active-set
    /// scheduler and the quiescence check probe it every cycle.
    occupancy: usize,
    /// How many entries of `stall_open` are `Some` — O(1) answer to
    /// [`Router::has_open_streaks`].
    open_streaks: usize,
}

impl Router {
    /// Builds the router for `node` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RouterConfig::validate`]).
    pub fn new(node: NodeId, cfg: RouterConfig, rng: SimRng) -> Self {
        cfg.validate();
        let node_vcs = cfg.num_node_ports * cfg.num_vcs;
        let num_inputs = node_vcs + cfg.num_inject;
        let mut inputs = Vec::with_capacity(num_inputs);
        let mut base = 0;
        for i in 0..num_inputs {
            let cap = if i < node_vcs {
                cfg.buffer_depth
            } else {
                cfg.inject_depth
            };
            inputs.push(InputVc {
                buf: Ring {
                    base,
                    cap,
                    head: 0,
                    len: 0,
                },
                route: None,
                worm: None,
                last_progress: Cycle::ZERO,
            });
            base += cap;
        }
        let output = OutputVc {
            allocated_to: None,
            credits: cfg.buffer_depth + cfg.link_depth,
        };
        Router {
            node,
            cfg,
            inputs,
            slots: vec![None; base],
            outputs: vec![output; node_vcs],
            ejects: vec![EjectPort::default(); cfg.num_eject],
            dead_out: vec![false; cfg.num_node_ports],
            counters: RouterCounters::default(),
            rng,
            orphan_credits: Vec::new(),
            pending: BitSet::new(num_inputs),
            busy: BitSet::new(cfg.num_node_ports),
            candidates: Vec::new(),
            input_used: vec![0; cfg.num_node_ports + cfg.num_inject],
            traverse_epoch: 0,
            link_stats: vec![LinkStats::default(); cfg.num_node_ports],
            stall_open: vec![None; cfg.num_node_ports],
            finished_streaks: Vec::new(),
            record_streaks: false,
            occupancy: 0,
            open_streaks: 0,
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The experiment counters.
    pub fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    /// The input-port index of injection channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inject`.
    pub fn inject_port(&self, i: usize) -> PortId {
        assert!(i < self.cfg.num_inject, "injection channel out of range");
        PortId::from_index(self.cfg.num_node_ports + i)
    }

    /// What kind of input unit `port` is.
    pub fn port_kind(&self, port: PortId) -> PortKind {
        if port.index() < self.cfg.num_node_ports {
            PortKind::Node
        } else {
            PortKind::Inject
        }
    }

    /// Flat index of input VC `(port, vc)` into `inputs`.
    fn input_index(&self, port: PortId, vc: VcId) -> usize {
        let nodes = self.cfg.num_node_ports;
        if port.index() < nodes {
            debug_assert!(vc.index() < self.cfg.num_vcs, "{vc} out of range");
            port.index() * self.cfg.num_vcs + vc.index()
        } else {
            debug_assert_eq!(vc.index(), 0, "injection ports have one VC");
            nodes * self.cfg.num_vcs + (port.index() - nodes)
        }
    }

    /// The `(port, vc)` of flat input index `i` (inverse of
    /// [`Router::input_index`]).
    fn input_at(&self, i: usize) -> (PortId, VcId) {
        let node_vcs = self.cfg.num_node_ports * self.cfg.num_vcs;
        if i < node_vcs {
            (
                PortId::from_index(i / self.cfg.num_vcs),
                VcId::from_index(i % self.cfg.num_vcs),
            )
        } else {
            (
                PortId::from_index(self.cfg.num_node_ports + (i - node_vcs)),
                VcId::from_index(0),
            )
        }
    }

    /// Flat index of output VC `(port, vc)` into `outputs`.
    fn output_index(&self, port: PortId, vc: VcId) -> usize {
        port.index() * self.cfg.num_vcs + vc.index()
    }

    /// Marks the outgoing link on `port` as dead; routing functions
    /// will no longer be offered it.
    pub fn set_dead_out(&mut self, port: PortId) {
        self.dead_out[port.index()] = true;
    }

    /// Clears the dead marking on `port`'s outgoing link — the link
    /// was revived and routing functions may use it again. Worms that
    /// were stalled waiting for an alternative resume on their next
    /// allocation attempt.
    pub fn clear_dead_out(&mut self, port: PortId) {
        self.dead_out[port.index()] = false;
    }

    /// Returns `true` if the outgoing link on `port` is marked dead.
    pub fn is_dead_out(&self, port: PortId) -> bool {
        self.dead_out
            .get(port.index())
            .copied()
            .unwrap_or(false)
    }

    /// Accepts a flit arriving on a neighbor input channel.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — that would mean the upstream
    /// router violated credit flow control, which is a simulator bug,
    /// never a legal network state.
    pub fn accept(&mut self, now: Cycle, port: PortId, vc: VcId, flit: Flit) {
        let i = self.input_index(port, vc);
        let ivc = &mut self.inputs[i];
        if ivc.buf.is_empty() {
            ivc.last_progress = now;
        }
        if !ivc.buf.push(&mut self.slots, flit) {
            // cr-lint: allow(panic-discipline, reason = "documented invariant: a full buffer here means upstream violated credit flow control, which is a simulator bug and must abort loudly, never a recoverable network state")
            panic!("credit violation at {} {port} {vc}", self.node);
        }
        if ivc.route.is_none() {
            self.pending.insert(i);
        }
        self.occupancy += 1;
    }

    /// Free space in injection channel `i`'s FIFO.
    pub fn injection_free(&self, i: usize) -> usize {
        let buf = &self.inputs[self.input_index(self.inject_port(i), VcId::new(0))].buf;
        buf.cap - buf.len()
    }

    /// Pushes a flit into injection channel `i`; returns `false`
    /// (leaving the flit with the caller) when the FIFO is full —
    /// which is exactly the back-pressure the CR injector watches.
    pub fn try_inject(&mut self, now: Cycle, i: usize, flit: Flit) -> bool {
        let idx = self.input_index(self.inject_port(i), VcId::new(0));
        let ivc = &mut self.inputs[idx];
        if ivc.buf.is_empty() {
            ivc.last_progress = now;
        }
        let ok = ivc.buf.push(&mut self.slots, flit);
        if ok {
            if ivc.route.is_none() {
                self.pending.insert(idx);
            }
            self.occupancy += 1;
        }
        ok
    }

    /// Routing and virtual-channel allocation stage: every input VC
    /// whose head-of-line flit is an unrouted header tries to acquire
    /// an output VC (or an ejection port, at the destination).
    ///
    /// Iteration order rotates with `now` for fairness: the flat input
    /// list is walked from `now % len`, wrapping. Only VCs in the
    /// pending set are visited, in that same order, so grants and
    /// routing-RNG draws match a walk over every VC.
    ///
    /// Returns the number of orphan flits dropped this call (the
    /// network subtracts them from its in-flight flit counter;
    /// inject-port orphans produce no `orphan_credits` entry, so the
    /// credit list cannot stand in for this count).
    pub fn route_and_allocate(
        &mut self,
        now: Cycle,
        routing: &dyn RoutingFunction,
        topo: &dyn Topology,
        is_killed: &dyn Fn(WormId) -> bool,
    ) -> usize {
        let n = self.inputs.len();
        let offset = (now.as_u64() as usize) % n;
        let mut orphans_dropped = 0;
        // The candidate scratch has to leave `self` for the loop body
        // to borrow the router mutably alongside it.
        let mut candidates = std::mem::take(&mut self.candidates);
        for (lo, hi) in [(offset, n), (0, offset)] {
            let mut from = lo;
            while let Some(i) = self.pending.next_in(from, hi) {
                from = i + 1;
                let settled = self.route_input(
                    i,
                    routing,
                    topo,
                    is_killed,
                    &mut candidates,
                    &mut orphans_dropped,
                );
                if settled {
                    self.pending.remove(i);
                }
            }
        }
        self.candidates = candidates;
        orphans_dropped
    }

    /// One input VC's turn in [`Router::route_and_allocate`]. Returns
    /// `true` once the VC needs no more routing (it is routed or
    /// empty), `false` while its front flit still waits.
    fn route_input(
        &mut self,
        i: usize,
        routing: &dyn RoutingFunction,
        topo: &dyn Topology,
        is_killed: &dyn Fn(WormId) -> bool,
        candidates: &mut Vec<Candidate>,
        orphans_dropped: &mut usize,
    ) -> bool {
        if self.inputs[i].route.is_some() {
            return true;
        }
        let Some(front) = self.inputs[i].buf.front(&self.slots).copied() else {
            return true;
        };
        if is_killed(front.worm) {
            // Teardown in progress: the kill token will flush this.
            return false;
        }
        if !front.is_head() {
            // A non-head flit with no route: its worm was torn down
            // while this flit was in flight and it slipped past the
            // killed registry. Drop defensively.
            let buf = &mut self.inputs[i].buf;
            let dropped = buf.pop(&mut self.slots);
            debug_assert!(dropped.is_some_and(|f| !f.is_head()));
            let now_empty = buf.is_empty();
            self.occupancy -= 1;
            *orphans_dropped += 1;
            self.counters.orphan_flits_dropped += 1;
            if i < self.cfg.num_node_ports * self.cfg.num_vcs {
                self.orphan_credits.push(self.input_at(i));
            }
            return now_empty;
        }
        // Ejection?
        if front.dst == self.node {
            let Some(e) = self.ejects.iter().position(|ej| ej.allocated_to.is_none()) else {
                return false;
            };
            self.ejects[e].allocated_to = Some(self.input_at(i));
            let ivc = &mut self.inputs[i];
            ivc.route = Some(RouteTarget::Eject { port: e });
            ivc.worm = Some(front.worm);
            self.counters.headers_routed += 1;
            return true;
        }
        // Network routing.
        candidates.clear();
        let mut ctx = RouteCtx {
            topo,
            node: self.node,
            flit: &front,
            dead_out: &self.dead_out,
            rng: &mut self.rng,
        };
        routing.candidates(&mut ctx, candidates);
        if candidates.is_empty() {
            self.counters.unroutable_headers += 1;
            return false;
        }
        let Some(c) = candidates.iter().copied().find(|c: &Candidate| {
            self.outputs[self.output_index(c.port, c.vc)]
                .allocated_to
                .is_none()
        }) else {
            return false;
        };
        let o = self.output_index(c.port, c.vc);
        self.outputs[o].allocated_to = Some(self.input_at(i));
        self.busy.insert(c.port.index());
        let ivc = &mut self.inputs[i];
        ivc.route = Some(RouteTarget::Link {
            port: c.port,
            vc: c.vc,
        });
        ivc.worm = Some(front.worm);
        if c.escape {
            self.counters.escape_allocations += 1;
            if let Some(front) = ivc.buf.front_mut(&mut self.slots) {
                front.escaped = true;
            }
        }
        self.counters.headers_routed += 1;
        true
    }

    /// Switch-traversal stage: each output port and each ejection port
    /// forwards at most one flit; each input port supplies at most one.
    /// Appends the departing flits to `out` (not cleared, so the
    /// per-cycle network loop can reuse one buffer across all routers
    /// and cycles); the caller moves them onto links or into receivers
    /// and returns credits upstream.
    ///
    /// `is_killed` freezes worms undergoing teardown: their flits stop
    /// moving (and in particular their tails stop releasing channels),
    /// so that kill tokens are the only thing that releases a killed
    /// worm's resources — otherwise a draining worm's tail races the
    /// token and hands channels to new worms before the teardown has
    /// cleaned the downstream endpoint.
    ///
    /// Only busy neighbor ports are visited, in ascending order: an
    /// idle port with no open streak forwards nothing and has nothing
    /// to record.
    pub fn traverse_into(
        &mut self,
        now: Cycle,
        is_killed: &dyn Fn(WormId) -> bool,
        out: &mut Vec<Traversal>,
    ) {
        self.traverse_epoch += 1;
        let nvcs = self.cfg.num_vcs;
        let mut from = 0;
        while let Some(port) = self.busy.next_in(from, self.cfg.num_node_ports) {
            from = port + 1;
            let (sent, blocked) = self.forward_port(port, now, is_killed, out);
            Self::note_link_cycle(
                &mut self.link_stats[port],
                &mut self.stall_open[port],
                &mut self.open_streaks,
                &mut self.finished_streaks,
                self.record_streaks,
                self.dead_out[port],
                PortId::from_index(port),
                now,
                sent,
                blocked,
            );
            let allocated = self.outputs[port * nvcs..(port + 1) * nvcs]
                .iter()
                .any(|o| o.allocated_to.is_some());
            if !allocated && self.stall_open[port].is_none() {
                self.busy.remove(port);
            }
        }

        // Ejection ports: one flit each per cycle.
        for e in 0..self.ejects.len() {
            let Some((ip, iv)) = self.ejects[e].allocated_to else {
                continue;
            };
            if self.input_used[ip.index()] == self.traverse_epoch {
                continue;
            }
            let i = self.input_index(ip, iv);
            let ivc = &mut self.inputs[i];
            let Some(owner) = ivc.worm else {
                continue;
            };
            if is_killed(owner) {
                continue;
            }
            let Some(front) = ivc.buf.front(&self.slots) else {
                continue;
            };
            debug_assert_eq!(
                front.worm, owner,
                "eject owner and buffered worm diverged at {}",
                self.node
            );
            if front.worm != owner {
                continue; // defensive in release builds
            }
            let Some(flit) = ivc.buf.pop(&mut self.slots) else {
                continue; // unreachable: front() just succeeded
            };
            self.occupancy -= 1;
            ivc.last_progress = now;
            self.input_used[ip.index()] = self.traverse_epoch;
            if flit.is_tail() {
                ivc.route = None;
                ivc.worm = None;
                self.ejects[e].allocated_to = None;
                if !ivc.buf.is_empty() {
                    self.pending.insert(i);
                }
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

    /// One neighbor output port's turn in [`Router::traverse_into`]:
    /// forwards at most one flit, round-robin over the port's VCs from
    /// `now % num_vcs`. Returns whether a flit crossed and, if not, the
    /// first ready-but-blocked VC's stall cause (if any) for the
    /// link-stats layer.
    fn forward_port(
        &mut self,
        port: usize,
        now: Cycle,
        is_killed: &dyn Fn(WormId) -> bool,
        out: &mut Vec<Traversal>,
    ) -> (bool, Option<StallCause>) {
        let nvcs = self.cfg.num_vcs;
        let start = (now.as_u64() as usize) % nvcs;
        let epoch = self.traverse_epoch;
        let mut blocked: Option<StallCause> = None;
        for k in 0..nvcs {
            let vc = (start + k) % nvcs;
            let o = port * nvcs + vc;
            let Some((ip, iv)) = self.outputs[o].allocated_to else {
                continue;
            };
            let i = self.input_index(ip, iv);
            let credits = self.outputs[o].credits;
            if self.input_used[ip.index()] == epoch || credits == 0 {
                if blocked.is_none() {
                    let ivc = &self.inputs[i];
                    let ready = ivc
                        .worm
                        .is_some_and(|w| ivc.buf.front(&self.slots).is_some_and(|f| f.worm == w));
                    if ready {
                        blocked = Some(if credits == 0 {
                            StallCause::Backpressure
                        } else {
                            StallCause::BusyChannel
                        });
                    }
                }
                continue;
            }
            let ivc = &mut self.inputs[i];
            let Some(owner) = ivc.worm else {
                continue;
            };
            // Frozen: the owner is being torn down; only its kill
            // token may release this channel. (The front flit may
            // even belong to a live successor worm whose tailward
            // predecessor flits were swallowed by the killed
            // registry — it waits here until the token clears the
            // stale route.)
            if is_killed(owner) {
                if blocked.is_none() && !ivc.buf.is_empty() {
                    blocked = Some(StallCause::BusyChannel);
                }
                continue;
            }
            let Some(front) = ivc.buf.front(&self.slots) else {
                continue;
            };
            debug_assert_eq!(
                front.worm, owner,
                "output owner and buffered worm diverged at {}",
                self.node
            );
            if front.worm != owner {
                continue; // defensive in release builds
            }
            let Some(flit) = ivc.buf.pop(&mut self.slots) else {
                continue; // unreachable: front() just succeeded
            };
            self.occupancy -= 1;
            ivc.last_progress = now;
            self.input_used[ip.index()] = epoch;
            self.outputs[o].credits -= 1;
            if flit.is_tail() {
                ivc.route = None;
                ivc.worm = None;
                self.outputs[o].allocated_to = None;
                if !ivc.buf.is_empty() {
                    self.pending.insert(i);
                }
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
            return (true, blocked); // this physical port is used this cycle
        }
        (false, blocked)
    }

    /// Folds one cycle's outcome for a neighbor output port into its
    /// [`LinkStats`] and streak state. Associated function (not a
    /// method) so `traverse_into` can call it under its outstanding
    /// disjoint field borrows.
    #[allow(clippy::too_many_arguments)]
    fn note_link_cycle(
        stats: &mut LinkStats,
        open: &mut Option<(StallCause, Cycle, u64)>,
        open_count: &mut usize,
        finished: &mut Vec<LinkStallStreak>,
        record: bool,
        dead: bool,
        port: PortId,
        now: Cycle,
        sent: bool,
        blocked: Option<StallCause>,
    ) {
        if sent {
            stats.flits_forwarded += 1;
        }
        // A dead output link dominates any other attribution: the flit
        // is never leaving this way, whatever the credits say.
        let cause = match blocked {
            Some(_) if dead => Some(StallCause::DeadLink),
            c => c,
        };
        let Some(cause) = cause else {
            // Forwarded or idle: any open streak is finished.
            if let Some((c, since, cycles)) = open.take() {
                *open_count -= 1;
                if record {
                    finished.push(LinkStallStreak {
                        port,
                        cause: c,
                        since,
                        cycles,
                    });
                }
            }
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
                if let Some((c, since, cycles)) = open.take() {
                    *open_count -= 1;
                    if record {
                        finished.push(LinkStallStreak {
                            port,
                            cause: c,
                            since,
                            cycles,
                        });
                    }
                }
                *open = Some((cause, now, 1));
                *open_count += 1;
            }
        }
    }

    /// Per-neighbor-output-port utilization/stall counters, indexed by
    /// port. Always maintained (tracing on or off).
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.link_stats
    }

    /// Turns finished-stall-streak recording on or off. Off (the
    /// default), streaks are tracked but discarded as they finish, so
    /// nothing accumulates; on, the network drains them into
    /// `LinkStall` trace events via [`Router::drain_streaks_into`].
    pub fn set_record_streaks(&mut self, record: bool) {
        self.record_streaks = record;
        if !record {
            self.finished_streaks.clear();
        }
    }

    /// Moves all finished stall streaks into `out` (appended, not
    /// cleared), oldest first. Streaks still open when the run ends
    /// are not reported as streaks — their cycles are already in
    /// [`Router::link_stats`].
    pub fn drain_streaks_into(&mut self, out: &mut Vec<LinkStallStreak>) {
        out.append(&mut self.finished_streaks);
    }

    /// Adds one credit to output `(port, vc)` — the downstream input
    /// VC freed a buffer slot.
    ///
    /// # Panics
    ///
    /// Panics if credits would exceed the downstream buffer depth
    /// (double-return bug).
    pub fn add_credit(&mut self, port: PortId, vc: VcId) {
        let o = self.output_index(port, vc);
        let o = &mut self.outputs[o];
        assert!(
            o.credits < self.cfg.buffer_depth + self.cfg.link_depth,
            "credit overflow on {} {port} {vc}",
            self.node
        );
        o.credits += 1;
    }

    /// Removes every flit of `worm` from input VC `(port, vc)` and
    /// releases the worm's allocated output, if it owned one.
    ///
    /// This is the teardown primitive used by CR kill tokens: the
    /// caller (the network) walks the returned [`RouteTarget`] to the
    /// next router and repeats, and returns `flushed` credits to the
    /// upstream router.
    pub fn flush_worm(&mut self, port: PortId, vc: VcId, worm: WormId) -> FlushResult {
        let i = self.input_index(port, vc);
        let ivc = &mut self.inputs[i];
        let flushed = ivc.buf.retain(&mut self.slots, |f| f.worm != worm);
        self.occupancy -= flushed;
        self.counters.flits_flushed += flushed as u64;
        let mut released = None;
        if ivc.worm == Some(worm) {
            released = ivc.route.take();
            ivc.worm = None;
            match released {
                Some(RouteTarget::Link { port: op, vc: ov }) => {
                    let o = op.index() * self.cfg.num_vcs + ov.index();
                    self.outputs[o].allocated_to = None;
                }
                Some(RouteTarget::Eject { port: ep }) => {
                    self.ejects[ep].allocated_to = None;
                }
                None => {}
            }
        }
        if ivc.route.is_none() && !ivc.buf.is_empty() {
            self.pending.insert(i);
        }
        FlushResult { flushed, released }
    }

    /// The route target currently allocated to input VC `(port, vc)`,
    /// if any.
    pub fn route_of(&self, port: PortId, vc: VcId) -> Option<RouteTarget> {
        self.inputs[self.input_index(port, vc)].route
    }

    /// The worm currently owning input VC `(port, vc)`, if any.
    pub fn worm_of(&self, port: PortId, vc: VcId) -> Option<WormId> {
        self.inputs[self.input_index(port, vc)].worm
    }

    /// Which input VC holds output `(port, vc)`, if any.
    pub fn output_owner(&self, port: PortId, vc: VcId) -> Option<(PortId, VcId)> {
        self.outputs[self.output_index(port, vc)].allocated_to
    }

    /// Current credit count of output `(port, vc)`.
    pub fn credits(&self, port: PortId, vc: VcId) -> usize {
        self.outputs[self.output_index(port, vc)].credits
    }

    /// Returns `true` if input VC `(port, vc)` has no free buffer
    /// slot (the arriving flit must wait in the channel latches).
    pub fn vc_is_full(&self, port: PortId, vc: VcId) -> bool {
        self.inputs[self.input_index(port, vc)].buf.is_full()
    }

    /// Number of flits buffered in input VC `(port, vc)`.
    pub fn occupancy(&self, port: PortId, vc: VcId) -> usize {
        self.inputs[self.input_index(port, vc)].buf.len()
    }

    /// The head-of-line flit of input VC `(port, vc)`, if any.
    pub fn front_flit(&self, port: PortId, vc: VcId) -> Option<&Flit> {
        self.inputs[self.input_index(port, vc)]
            .buf
            .front(&self.slots)
    }

    /// The flit at queue position `i` (0 = front) of input VC
    /// `(port, vc)`, or `None` past the back. The model checker walks
    /// whole buffers with this when encoding a canonical state.
    pub fn flit_at(&self, port: PortId, vc: VcId, i: usize) -> Option<&Flit> {
        self.inputs[self.input_index(port, vc)]
            .buf
            .get(&self.slots, i)
    }

    /// Which input VC holds ejection port `e`, if any.
    pub fn eject_owner(&self, e: usize) -> Option<(PortId, VcId)> {
        self.ejects[e].allocated_to
    }

    /// Position of this router's adaptive tie-break RNG, in 32-bit
    /// keystream words consumed. Part of the checker's canonical state:
    /// the stream itself is fixed by the seed, so the position pins all
    /// future draws.
    pub fn rng_words_consumed(&self) -> u64 {
        self.rng.words_consumed()
    }

    /// Total flits buffered anywhere in this router. O(1): maintained
    /// incrementally at every push/pop/flush site.
    pub fn total_occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.inputs.iter().map(|ivc| ivc.buf.len()).sum::<usize>(),
            "incremental occupancy diverged at {}",
            self.node
        );
        debug_assert!(
            self.inputs
                .iter()
                .enumerate()
                .all(|(i, ivc)| ivc.route.is_some()
                    || ivc.buf.is_empty()
                    || self.pending.contains(i)),
            "a non-empty unrouted input VC is missing from the pending set at {}",
            self.node
        );
        self.occupancy
    }

    /// `true` while any neighbor output port has an open (unfinished)
    /// stall streak. The active-set scheduler must keep stepping such
    /// a router — only [`Router::traverse_into`] can close the streak,
    /// and closing it late would reorder `LinkStall` trace events.
    pub fn has_open_streaks(&self) -> bool {
        debug_assert_eq!(
            self.open_streaks,
            self.stall_open.iter().filter(|s| s.is_some()).count(),
            "incremental open-streak count diverged at {}",
            self.node
        );
        debug_assert!(
            (0..self.cfg.num_node_ports).all(|p| {
                let nvcs = self.cfg.num_vcs;
                let allocated = self.outputs[p * nvcs..(p + 1) * nvcs]
                    .iter()
                    .any(|o| o.allocated_to.is_some());
                !(allocated || self.stall_open[p].is_some()) || self.busy.contains(p)
            }),
            "an allocated or stalled output port is missing from the busy set at {}",
            self.node
        );
        self.open_streaks > 0
    }

    /// Input VCs that hold a worm but have not forwarded a flit for at
    /// least `threshold` cycles — the path-wide stall detector of the
    /// alternative kill scheme the paper compares against. Appends to
    /// `out` (not cleared): the detector polls every router every cycle
    /// and reuses one list.
    pub fn stalled_worms_into(
        &self,
        now: Cycle,
        threshold: u64,
        out: &mut Vec<(PortId, VcId, WormId)>,
    ) {
        if self.occupancy == 0 {
            return;
        }
        for (i, ivc) in self.inputs.iter().enumerate() {
            let Some(front) = ivc.buf.front(&self.slots) else {
                continue;
            };
            let worm = ivc.worm.unwrap_or(front.worm);
            if now.saturating_since(ivc.last_progress) >= threshold {
                let (port, vc) = self.input_at(i);
                out.push((port, vc, worm));
            }
        }
    }

    /// Drains the pending upstream-credit notices for orphan drops
    /// (see [`RouterCounters::orphan_flits_dropped`]).
    pub fn take_orphan_credits(&mut self) -> Vec<(PortId, VcId)> {
        std::mem::take(&mut self.orphan_credits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::worm_flits;
    use crate::routing::MinimalAdaptive;
    use cr_sim::MessageId;
    use cr_topology::KAryNCube;

    fn cfg() -> RouterConfig {
        RouterConfig {
            num_node_ports: 2, // 1-D torus
            num_vcs: 1,
            buffer_depth: 2,
            num_inject: 1,
            inject_depth: 2,
            num_eject: 1,
            link_depth: 0,
        }
    }

    fn router(node: u32) -> Router {
        Router::new(NodeId::new(node), cfg(), SimRng::from_seed(1))
    }

    fn worm(src: u32, dst: u32, len: u32, msg: u64) -> Vec<Flit> {
        worm_flits(
            WormId::new(MessageId::new(msg), 0),
            NodeId::new(src),
            NodeId::new(dst),
            len,
            0,
            0,
            Cycle::ZERO,
        )
        .collect()
    }

    /// One traversal cycle into a fresh buffer.
    fn traversed(r: &mut Router, now: Cycle) -> Vec<Traversal> {
        let mut out = Vec::new();
        r.traverse_into(now, &|_| false, &mut out);
        out
    }

    fn stalled(r: &Router, now: Cycle, threshold: u64) -> Vec<(PortId, VcId, WormId)> {
        let mut out = Vec::new();
        r.stalled_worms_into(now, threshold, &mut out);
        out
    }

    #[test]
    fn header_gets_routed_and_flits_flow() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 3, 1); // passing through node 0 toward 1
        // Header arrives on input port 1 (-x input faces node 3... the
        // exact port does not matter to the router).
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), flits[0]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_some());
        let t = traversed(&mut r, now);
        assert_eq!(t.len(), 1);
        assert!(t[0].flit.is_head());
        match t[0].target {
            RouteTarget::Link { port, .. } => assert_eq!(port, PortId::new(0)),
            _ => panic!("expected link target"),
        }
        // Body and tail follow without re-routing.
        r.accept(now, PortId::new(1), VcId::new(0), flits[1]);
        r.accept(now, PortId::new(1), VcId::new(0), flits[2]);
        let t = traversed(&mut r, now + 1);
        assert_eq!(t.len(), 1);
        assert!(!t[0].flit.is_head());
        // Two credits are spent; the downstream router must free a slot
        // before the tail can move.
        r.add_credit(PortId::new(0), VcId::new(0));
        let t = traversed(&mut r, now + 2);
        assert_eq!(t.len(), 1);
        assert!(t[0].flit.is_tail());
        // Tail released the channel.
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_none());
        assert!(r.output_owner(PortId::new(0), VcId::new(0)).is_none());
    }

    #[test]
    fn ejection_at_destination() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(2);
        let flits = worm(0, 2, 2, 1);
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), flits[0]);
        r.accept(now, PortId::new(1), VcId::new(0), flits[1]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert_eq!(
            r.route_of(PortId::new(1), VcId::new(0)),
            Some(RouteTarget::Eject { port: 0 })
        );
        let t = traversed(&mut r, now);
        assert_eq!(t.len(), 1);
        assert!(matches!(t[0].target, RouteTarget::Eject { port: 0 }));
        let t = traversed(&mut r, now + 1);
        assert!(t[0].flit.is_tail());
        // Eject port released.
        r.accept(now + 2, PortId::new(0), VcId::new(0), worm(1, 2, 2, 2)[0]);
        r.route_and_allocate(now + 2, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(0), VcId::new(0)).is_some());
    }

    #[test]
    fn credits_block_traversal() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        // Destination 1 is one hop away: port 0 is the unique minimal
        // direction, so the credit observations below are well-defined.
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        // Drain the 2 credits.
        assert_eq!(traversed(&mut r, now).len(), 1);
        assert_eq!(traversed(&mut r, now + 1).len(), 1);
        assert_eq!(r.credits(PortId::new(0), VcId::new(0)), 0);
        // More flits buffered but no credits: stall.
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(traversed(&mut r, now + 2).is_empty());
        // Credit return unblocks.
        r.add_credit(PortId::new(0), VcId::new(0));
        assert_eq!(traversed(&mut r, now + 3).len(), 1);
    }

    #[test]
    fn one_flit_per_output_port_per_cycle() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(2);
        let mut r = Router::new(
            NodeId::new(0),
            RouterConfig {
                num_vcs: 2,
                ..cfg()
            },
            SimRng::from_seed(2),
        );
        // Two worms on different VCs, both heading out port 0.
        let w1 = worm(3, 1, 2, 1);
        let w2 = worm(3, 1, 2, 2);
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), w1[0]);
        r.accept(now, PortId::new(1), VcId::new(1), w2[0]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        // Both allocated (different output VCs of port 0)...
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_some());
        assert!(r.route_of(PortId::new(1), VcId::new(1)).is_some());
        // ...but only one flit crosses per cycle (also input-port
        // bandwidth: both share input port 1).
        assert_eq!(traversed(&mut r, now).len(), 1);
        assert_eq!(traversed(&mut r, now + 1).len(), 1);
    }

    #[test]
    fn injection_backpressure_visible() {
        let mut r = router(0);
        let flits = worm(0, 2, 6, 1);
        let now = Cycle::ZERO;
        assert_eq!(r.injection_free(0), 2);
        assert!(r.try_inject(now, 0, flits[0]));
        assert!(r.try_inject(now, 0, flits[1]));
        assert!(!r.try_inject(now, 0, flits[2]), "FIFO full: back-pressure");
        assert_eq!(r.injection_free(0), 0);
    }

    #[test]
    fn flush_worm_releases_everything() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 2, 6, 1);
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), flits[0]);
        r.accept(now, PortId::new(1), VcId::new(0), flits[1]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        let w = flits[0].worm;
        let res = r.flush_worm(PortId::new(1), VcId::new(0), w);
        assert_eq!(res.flushed, 2);
        assert!(matches!(res.released, Some(RouteTarget::Link { .. })));
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_none());
        assert!(r.output_owner(PortId::new(0), VcId::new(0)).is_none());
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(0)), 0);
        // Flushing again is a no-op.
        let res2 = r.flush_worm(PortId::new(1), VcId::new(0), w);
        assert_eq!(res2.flushed, 0);
        assert_eq!(res2.released, None);
    }

    #[test]
    fn flush_preserves_other_worms_flits() {
        let mut r = router(0);
        let w1 = worm(3, 2, 2, 1);
        let w2 = worm(3, 1, 2, 2);
        let now = Cycle::ZERO;
        // Tail of w1 then header of w2 share the FIFO.
        r.accept(now, PortId::new(1), VcId::new(0), w1[1]);
        r.accept(now, PortId::new(1), VcId::new(0), w2[0]);
        let res = r.flush_worm(PortId::new(1), VcId::new(0), w2[0].worm);
        assert_eq!(res.flushed, 1);
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(0)), 1);
        assert_eq!(
            r.front_flit(PortId::new(1), VcId::new(0)).unwrap().worm,
            w1[0].worm
        );
    }

    #[test]
    fn stalled_worm_detection() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 2, 6, 1);
        r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), flits[0]);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);
        // Drain credits so the worm jams.
        let _ = traversed(&mut r, Cycle::ZERO);
        r.accept(Cycle::new(1), PortId::new(1), VcId::new(0), flits[1]);
        let _ = traversed(&mut r, Cycle::new(1));
        r.accept(Cycle::new(2), PortId::new(1), VcId::new(0), flits[2]);
        assert!(
            traversed(&mut r, Cycle::new(2)).is_empty(),
            "out of credits"
        );
        assert!(stalled(&r, Cycle::new(10), 20).is_empty());
        let stalled = stalled(&r, Cycle::new(40), 20);
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].2, flits[0].worm);
    }

    #[test]
    fn dead_port_blocks_routing() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        r.set_dead_out(PortId::new(0));
        let flits = worm(3, 1, 2, 1); // must leave via +x = port 0
        r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), flits[0]);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_none());
        assert_eq!(r.counters().unroutable_headers, 1);
    }

    #[test]
    #[should_panic]
    fn credit_overflow_is_a_bug() {
        let mut r = router(0);
        r.add_credit(PortId::new(0), VcId::new(0)); // already at depth
    }

    #[test]
    fn stall_attribution_backpressure() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        // Two forwards drain the credits; later cycles stall on
        // backpressure with a flit still buffered.
        assert_eq!(traversed(&mut r, now).len(), 1);
        assert_eq!(traversed(&mut r, now + 1).len(), 1);
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(traversed(&mut r, now + 2).is_empty());
        assert!(traversed(&mut r, now + 3).is_empty());
        let s = r.link_stats()[0];
        assert_eq!(s.flits_forwarded, 2);
        assert_eq!(s.stall_backpressure, 2);
        assert_eq!(s.stall_busy, 0);
        assert_eq!(s.stall_dead_link, 0);
        assert_eq!(s.stall_total(), 2);
    }

    #[test]
    fn stall_attribution_busy_channel() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(2);
        let mut r = Router::new(
            NodeId::new(0),
            RouterConfig {
                num_vcs: 2,
                ..cfg()
            },
            SimRng::from_seed(2),
        );
        // Two worms sharing input port 1 but bound for different
        // output ports: whichever port loses the shared input that
        // cycle records a busy-channel stall.
        let w1 = worm(3, 1, 2, 1); // out port 0
        let w2 = worm(3, 3, 2, 2); // out port 1 (wraps -x)
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), w1[0]);
        r.accept(now, PortId::new(1), VcId::new(1), w2[0]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_some());
        assert!(r.route_of(PortId::new(1), VcId::new(1)).is_some());
        assert_eq!(traversed(&mut r, now).len(), 1);
        let stats = r.link_stats();
        assert_eq!(
            stats[0].flits_forwarded + stats[1].flits_forwarded,
            1,
            "one flit crossed"
        );
        assert_eq!(
            stats[0].stall_busy + stats[1].stall_busy,
            1,
            "the loser of the shared input port stalls busy"
        );
    }

    #[test]
    fn stall_attribution_dead_link_dominates() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert_eq!(traversed(&mut r, now).len(), 1);
        assert_eq!(traversed(&mut r, now + 1).len(), 1);
        // The link dies mid-worm: the credit stall is re-attributed.
        r.set_dead_out(PortId::new(0));
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(traversed(&mut r, now + 2).is_empty());
        let s = r.link_stats()[0];
        assert_eq!(s.stall_dead_link, 1);
        assert_eq!(s.stall_backpressure, 0);
        assert_eq!(s.stall_for(StallCause::DeadLink), 1);
    }

    #[test]
    fn stall_streaks_recorded_only_when_enabled() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert_eq!(traversed(&mut r, now).len(), 1);
        assert_eq!(traversed(&mut r, now + 1).len(), 1);
        // Two stalled cycles with recording off leave nothing behind.
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(traversed(&mut r, now + 2).is_empty());
        assert!(traversed(&mut r, now + 3).is_empty());
        let mut streaks = Vec::new();
        r.add_credit(PortId::new(0), VcId::new(0));
        assert_eq!(traversed(&mut r, now + 4).len(), 1);
        r.drain_streaks_into(&mut streaks);
        assert!(streaks.is_empty(), "recording was off");
        // Again with recording on: stall twice, then forward to close
        // the streak.
        r.set_record_streaks(true);
        r.accept(now + 5, PortId::new(1), VcId::new(0), flits[3]);
        r.accept(now + 5, PortId::new(1), VcId::new(0), flits[4]);
        assert!(traversed(&mut r, now + 5).is_empty());
        assert!(traversed(&mut r, now + 6).is_empty());
        r.add_credit(PortId::new(0), VcId::new(0));
        assert_eq!(traversed(&mut r, now + 7).len(), 1);
        r.drain_streaks_into(&mut streaks);
        assert_eq!(streaks.len(), 1);
        assert_eq!(streaks[0].port, PortId::new(0));
        assert_eq!(streaks[0].cause, StallCause::Backpressure);
        assert_eq!(streaks[0].since, now + 5);
        assert_eq!(streaks[0].cycles, 2);
    }

    #[test]
    fn orphan_body_flit_dropped_with_credit_notice() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 3, 1);
        // A body flit arrives with no preceding header (worm was torn
        // down upstream).
        r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), flits[1]);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);
        assert_eq!(r.counters().orphan_flits_dropped, 1);
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(0)), 0);
        let credits = r.take_orphan_credits();
        assert_eq!(credits, vec![(PortId::new(1), VcId::new(0))]);
        assert!(r.take_orphan_credits().is_empty(), "drained");
    }
}
