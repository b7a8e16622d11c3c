//! The cycle kernel: one body per parallel-capable phase, run under
//! three schedules (DESIGN.md §10, §12).
//!
//! # One body per phase
//!
//! Arrivals, injection, routing plus orphan-credit collection, and
//! switch traversal each have exactly one implementation here, a
//! `fn(&Ctx, &mut Shard)`. The [`Shard`] is the one owned struct that
//! holds a shard's state: the routers, injectors and receivers of a
//! contiguous node-id range, every link whose *destination* lies in
//! that range, the shard's active sets and its [`ShardScratch`]. The
//! [`Ctx`] carries the shared read-only tables. Everything a body
//! would have to touch outside its shard is buffered in the scratch
//! instead: upstream credit returns, departing flits, teardown tokens,
//! killed-registry inserts, trace events, deliveries and counter
//! deltas. Each phase has one barrier routine on [`Network`] that
//! applies those buffers in shard order. Shards are contiguous id
//! ranges walked ascending, so shard order reproduces the global
//! ascending order of one big sweep.
//!
//! # Three schedules
//!
//! The steppers differ only in which components a body visits and how
//! the bodies are dispatched:
//!
//! * **Dense reference** ([`Network::set_reference_stepper`]): each
//!   body visits every component of its shard, runs on the calling
//!   thread on `&mut shards[s]` in shard order, and the run loops
//!   never fast-forward.
//! * **Serial active** (one shard, the default): each body drains its
//!   shard's active set and runs directly on the calling thread.
//! * **Sharded** (`shards > 1`): each body drains its shard's active
//!   set. A phase whose visit count, summed over shards, reaches
//!   [`FAN_OUT_MIN`] runs as one task per shard on the persistent
//!   [`pool::Team`]; a smaller one runs its bodies on the calling
//!   thread in shard order, exactly as the dense schedule does, and
//!   meets the same barrier. Team workers are long-lived, so the
//!   fan-out takes the network's `Vec<Shard>`, moves each `Shard` into
//!   its task by value and stores the `Vec` the team hands back. The
//!   tasks read the tables through `Arc` clones ([`SharedCtx`]) that
//!   are dropped before the barrier runs. The team is spawned at the
//!   first fan-out, so a run whose phases never reach the threshold
//!   starts no worker thread.
//!
//! # Arrivals and the detection escape
//!
//! Arrivals are the one phase whose body can need the orchestrator
//! mid-scan. Under a fault-detecting protocol a corrupted arrival
//! kills its worm, and that kill must take effect before the next
//! flit is peeked: it inserts into the registry that later
//! `killed.contains` peeks read, and it purges the very lane being
//! scanned. The body therefore stops with a [`Detected`] value, the
//! caller applies the kill with `Network::kill_worm_at`, and the scan
//! resumes at the same link and lane. The fault RNG is drawn in the
//! same global order. `Network::arrivals_parallel_ok` picks one of
//! two schedules per cycle:
//!
//! * **fan-out**: the body runs per shard without the fault RNG (on
//!   the team or inline, by the same [`FAN_OUT_MIN`] rule as the other
//!   phases). The gate has proved that no arrival this cycle can draw
//!   it or detect corruption, and a `debug_assert` checks that the
//!   body never stops;
//! * **serial walk**: the body runs on the calling thread over every
//!   due link in global original-index order, with the fault RNG and
//!   the detection stop live.
//!
//! Traversal needs no such escape. Its upstream credit returns are
//! committed at the end of the phase under every schedule (one cycle
//! of credit-return latency), so no same-cycle decision can observe a
//! credit freed by another router, and no cross-shard read order
//! exists to preserve.

use super::{idx32, Network, Shard, Token, Wiring, SOURCE_GONE};
use crate::killmap::KilledMap;
use crate::receiver::DeliveredMessage;
use crate::report::NetCounters;
use cr_faults::FaultModel;
use cr_router::{Flit, LinkStallStreak, PortKind, RouteTarget, Traversal, WormId};
use cr_sim::pool;
use cr_sim::sched::ActiveSet;
use cr_sim::trace::{Event, KillCause};
use cr_sim::{Cycle, LinkId, NodeId, PortId, SimRng, VcId};
use std::sync::Arc;

/// Components a phase visits, summed over the shards, below which a
/// sharded phase runs its bodies on the calling thread instead of the
/// team.
///
/// On a 2-core host a team round trip costs about 10 µs before any
/// work is done, while a visited component costs 0.06–0.3 µs inline,
/// so two shards only win once a phase visits a few hundred
/// components. Calibrated on `burst_drain_sh2` by timing every phase
/// dispatch under both paths (DESIGN.md §12 has the sweep): any
/// threshold from 128 to 2048 was within noise of the best. Both
/// paths run the same bodies and the same barrier, so the value moves
/// wall time only, never a result.
const FAN_OUT_MIN: usize = 256;

/// The four parallel-capable phases.
#[derive(Clone, Copy)]
enum Phase {
    Arrivals,
    Injection,
    Route,
    Traverse,
}

impl Phase {
    /// The phase's body.
    fn body(self) -> Body {
        match self {
            Phase::Arrivals => arrivals_fan_out,
            Phase::Injection => injection,
            Phase::Route => route,
            Phase::Traverse => traverse,
        }
    }

    /// The components the body will visit in shard `sh`: the active
    /// set it drains, or, for traversal, the routers route left in
    /// `scratch.ids`.
    fn work(self, sh: &Shard) -> usize {
        match self {
            Phase::Arrivals => sh.link_set.len(),
            Phase::Injection => sh.injector_set.len(),
            Phase::Route => sh.router_set.len(),
            Phase::Traverse => sh.scratch.ids.len(),
        }
    }
}

/// How one phase's shard bodies were dispatched, counted in
/// shard-phases (one per shard per cycle the phase ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseDispatch {
    /// Shard-phases run as tasks on the worker team.
    pub team: u64,
    /// Shard-phases run on the calling thread.
    pub inline: u64,
}

/// Deterministic counters of how the stepper scheduled its work
/// ([`Network::step_stats`]). They are kept outside [`SimReport`]
/// because the schedules legitimately do different amounts of work
/// for byte-identical reports; recording them costs one add per phase
/// and changes no result.
///
/// [`SimReport`]: crate::SimReport
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Arrivals (the serial walk counts every shard as inline).
    pub arrivals: PhaseDispatch,
    /// Injection.
    pub injection: PhaseDispatch,
    /// Routing and orphan-credit collection.
    pub route: PhaseDispatch,
    /// Switch traversal.
    pub traverse: PhaseDispatch,
    /// Cycles of a sharded run whose arrivals the gate sent to the
    /// serial walk.
    pub arrivals_gate_serial: u64,
}

impl StepStats {
    fn record(&mut self, phase: Phase, on_team: bool, shards: usize) {
        let slot = match phase {
            Phase::Arrivals => &mut self.arrivals,
            Phase::Injection => &mut self.injection,
            Phase::Route => &mut self.route,
            Phase::Traverse => &mut self.traverse,
        };
        let count = if on_team {
            &mut slot.team
        } else {
            &mut slot.inline
        };
        *count += shards as u64;
    }
}

/// Per-shard mutation buffers, drained at each phase barrier in shard
/// order. One per shard, persistent across cycles so the Vec
/// capacities amortize.
#[derive(Default)]
pub(crate) struct ShardScratch {
    /// Component ids being walked this phase (router ids persist from
    /// the route body to the traverse body).
    ids: Vec<u32>,
    /// Per-router switch-traversal output, reused across routers.
    traversals: Vec<Traversal>,
    /// Finished link-stall streaks, reused across routers.
    streaks: Vec<LinkStallStreak>,
    /// Struct-of-arrays buffer of flits departing onto links:
    /// original link index, lane, flit. Applied (in order) at the
    /// traverse barrier — this is the cross-shard flit handoff.
    push_li: Vec<u32>,
    /// Lane (virtual channel) per push.
    push_vc: Vec<u8>,
    /// Flit payload per push.
    push_flit: Vec<Flit>,
    /// Upstream credit returns, already resolved to (upstream node,
    /// upstream output port, vc). Credits commute, so per-shard
    /// buffers applied in shard order equal any serial interleaving.
    credits: Vec<(u32, PortId, VcId)>,
    /// Messages completed by this shard's receivers, in traversal
    /// order; all delivery side effects run at the barrier.
    delivered: Vec<DeliveredMessage>,
    /// Forward teardown tokens from source-timeout kills.
    tokens: Vec<Token>,
    /// Worms killed this phase (all at the current cycle).
    kills: Vec<WormId>,
    /// Trace events in shard-local emission order (empty when tracing
    /// is off).
    events: Vec<Event>,
    /// `LinkStall` events, kept separate because every streak event is
    /// emitted after every delivery.
    streak_events: Vec<Event>,
    /// Counter increments (plain sums; merge order cannot matter).
    counters: NetCounters,
    /// Net change to the live-flit count.
    live_delta: i64,
    /// Net change to the undrained-injector count.
    undrained_delta: i64,
    /// Whether anything in this shard made forward progress.
    progress: bool,
}

/// The read-only tables a phase body reads, borrowed for one call.
pub(crate) struct Ctx<'a> {
    now: Cycle,
    /// Visit every component of the shard instead of draining its
    /// active set (the dense reference schedule).
    dense: bool,
    wiring: &'a Wiring,
    killed: &'a KilledMap,
    faults: &'a FaultModel,
    detects: bool,
    trace_on: bool,
    chans: usize,
}

impl Ctx<'_> {
    /// Buffers a credit for the router feeding `(node, in_port, vc)`.
    fn buffer_credit(&self, scratch: &mut ShardScratch, node: usize, in_port: PortId, vc: VcId) {
        if let Some((up_node, up_out)) = self.wiring.in_upstream[node][in_port.index()] {
            scratch.credits.push((idx32(up_node), up_out, vc));
        }
    }
}

/// A phase body: one shard's share of one cycle phase.
type Body = fn(&Ctx<'_>, &mut Shard);

/// `Arc` clones of the tables, shared by every task of one fan-out.
/// Dropped before the barrier, so the serially mutated registries
/// (`killed`, `faults`) are uniquely owned again whenever
/// `Arc::make_mut` touches them.
struct SharedCtx {
    now: Cycle,
    wiring: Arc<Wiring>,
    killed: Arc<KilledMap>,
    faults: Arc<FaultModel>,
    detects: bool,
    trace_on: bool,
    chans: usize,
}

impl SharedCtx {
    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            now: self.now,
            dense: false,
            wiring: &self.wiring,
            killed: &self.killed,
            faults: &self.faults,
            detects: self.detects,
            trace_on: self.trace_on,
            chans: self.chans,
        }
    }
}

/// Where an arrivals scan stopped for a detected corruption: the
/// caller kills `worm` at `(node, port, vc)` and resumes the scan at
/// `ids[pos]`, lane `lane`.
pub(crate) struct Detected {
    pos: usize,
    lane: usize,
    node: usize,
    port: PortId,
    vc: VcId,
    worm: WormId,
    link: LinkId,
}

/// Applies a signed delta to an unsigned incremental counter.
fn apply_delta(value: &mut usize, delta: i64) {
    let next = *value as i64 + delta;
    debug_assert!(next >= 0, "incremental counter went negative");
    *value = next.max(0) as usize;
}

/// Fills `out` with the ids a body visits: all of `range` under the
/// dense schedule, else the drained active set (ascending).
fn visit(dense: bool, set: &mut ActiveSet, range: std::ops::Range<usize>, out: &mut Vec<u32>) {
    out.clear();
    if dense {
        out.extend(range.map(idx32));
    } else {
        set.drain_sorted_into(out);
    }
}

impl Network {
    /// Whether the bodies fan out on the team: the sharded schedule.
    fn fans_out(&self) -> bool {
        !self.reference_stepper && self.shards.len() > 1
    }

    /// Borrows shard `s`, the tables and the fault RNG for a body call
    /// on the calling thread.
    fn parts(&mut self, s: usize, now: Cycle) -> (Ctx<'_>, &mut Shard, &mut SimRng) {
        let ctx = Ctx {
            now,
            dense: self.reference_stepper,
            wiring: &self.wiring,
            killed: &self.killed,
            faults: &self.faults,
            detects: self.cfg.protocol.detects_faults(),
            trace_on: self.trace.enabled(),
            chans: self.cfg.inject_channels,
        };
        (ctx, &mut self.shards[s], &mut self.fault_rng)
    }

    /// Runs `phase`'s body once per shard: on the team under the
    /// sharded schedule when the phase visits at least [`FAN_OUT_MIN`]
    /// components, else on the calling thread in shard order.
    fn run_phase(&mut self, now: Cycle, phase: Phase) {
        let on_team = self.fans_out()
            && self.shards.iter().map(|sh| phase.work(sh)).sum::<usize>() >= FAN_OUT_MIN;
        self.step_stats.record(phase, on_team, self.shards.len());
        let body = phase.body();
        if on_team {
            self.team_fan_out(now, body);
            return;
        }
        for s in 0..self.shards.len() {
            let (ctx, shard, _) = self.parts(s, now);
            body(&ctx, shard);
        }
    }

    /// Runs `body` for every shard on the persistent team (spawned on
    /// first use, its width resolved once then): each task owns its
    /// shard outright and hands it back as its result.
    fn team_fan_out(&mut self, now: Cycle, body: Body) {
        let shared = Arc::new(SharedCtx {
            now,
            wiring: Arc::clone(&self.wiring),
            killed: Arc::clone(&self.killed),
            faults: Arc::clone(&self.faults),
            detects: self.cfg.protocol.detects_faults(),
            trace_on: self.trace.enabled(),
            chans: self.cfg.inject_channels,
        });
        let tasks: Vec<_> = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|mut shard| {
                let shared = Arc::clone(&shared);
                move || {
                    body(&shared.ctx(), &mut shard);
                    shard
                }
            })
            .collect();
        drop(shared);
        let num_shards = tasks.len();
        let threads = self.shard_threads;
        let team = self.team.get_or_insert_with(|| {
            let workers = threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            pool::Team::new(workers.min(num_shards))
        });
        self.shards = team.run(tasks);
    }

    // --------------------------------------------------------------
    // Arrivals
    // --------------------------------------------------------------

    /// Whether this cycle's arrivals can fan out: true exactly when no
    /// arrival can draw the fault RNG or detect a corruption *this
    /// cycle* (DESIGN.md §12 has the case analysis). Evaluated every
    /// cycle against the live fault model, which churn and the check
    /// API change mid-run:
    ///
    /// * transient corruption draws the RNG on every arrival;
    /// * non-detecting protocols never detect, so corruption is a flag
    ///   flip on the shard-owned flit;
    /// * with a nonzero miss rate, a corrupted flit may still roam once
    ///   any link has been dead (`ever_dead`);
    /// * with a zero miss rate, only a dead link with a flit due now
    ///   can detect (wakes are never stale-late).
    fn arrivals_parallel_ok(&self, now: Cycle) -> bool {
        if self.faults.transient_rate() != 0.0 {
            return false;
        }
        if !self.cfg.protocol.detects_faults() {
            return true;
        }
        if self.faults.num_dead_links() == 0 && !self.ever_dead {
            return true;
        }
        if self.faults.detection_miss_rate() != 0.0 {
            return false;
        }
        for id in self.faults.dead_links() {
            let li = self.link_by_id[id.index()] as usize;
            let (s, l) = self.link_slot(self.link_perm[li] as usize);
            if self.shards[s].links[l].occupied > 0 && self.shards[s].wake[l] <= now {
                return false;
            }
        }
        true
    }

    /// The arrivals phase: the per-shard fan-out body when the gate
    /// allows it, else the serial walk over every candidate link in
    /// global original-index order (all links under the dense
    /// schedule, the drained active sets otherwise).
    pub(super) fn phase_arrivals(&mut self, now: Cycle) {
        if self.fans_out() && self.arrivals_parallel_ok(now) {
            self.run_phase(now, Phase::Arrivals);
        } else {
            if self.fans_out() {
                self.step_stats.arrivals_gate_serial += 1;
            }
            self.step_stats
                .record(Phase::Arrivals, false, self.shards.len());
            let mut ids = std::mem::take(&mut self.ids_scratch);
            ids.clear();
            if self.reference_stepper {
                ids.extend_from_slice(&self.link_perm);
            } else {
                for sh in &mut self.shards {
                    sh.link_set.drain_sorted_into(&mut ids);
                }
                if self.shards.len() > 1 {
                    // Per-shard drains are sorted by permuted index;
                    // the walk goes by original index.
                    let orig = &self.wiring.link_orig;
                    ids.sort_unstable_by_key(|&pi| orig[pi as usize]);
                }
            }
            self.arrivals_walk(now, &ids);
            self.ids_scratch = ids;
        }
        self.apply_all_scratch(now);
    }

    /// Runs the arrivals body over `ids` (permuted link indices in
    /// global original order) on the calling thread, one run of
    /// same-shard links at a time, resolving each detection stop
    /// before resuming at the stopped link and lane.
    fn arrivals_walk(&mut self, now: Cycle, ids: &[u32]) {
        let (mut at, mut lane) = (0, 0);
        while at < ids.len() {
            let s = self.link_shard[ids[at] as usize];
            let run = if self.shards.len() == 1 {
                ids.len() - at
            } else {
                ids[at..]
                    .iter()
                    .take_while(|&&pi| self.link_shard[pi as usize] == s)
                    .count()
            };
            let stop = {
                let (ctx, shard, rng) = self.parts(usize::from(s), now);
                arrivals(&ctx, shard, Some(rng), &ids[at..at + run], lane)
            };
            match stop {
                None => {
                    at += run;
                    lane = 0;
                }
                Some(d) => {
                    at += d.pos;
                    lane = d.lane;
                    // Everything buffered so far lands first, so the
                    // kill sees exactly the state a flat scan would.
                    self.apply_all_scratch(now);
                    self.trace.emit(|| Event::CorruptionDetected {
                        at: now,
                        link: d.link,
                        message: d.worm.message,
                        attempt: d.worm.attempt,
                    });
                    self.kill_worm_at(now, d.node, d.port, d.vc, d.worm, KillCause::Fault);
                }
            }
        }
    }

    /// The arrivals and route barrier: every shard's credits, counter
    /// deltas and events, in shard order.
    fn apply_all_scratch(&mut self, now: Cycle) {
        for s in 0..self.shards.len() {
            self.apply_scratch(now, s);
        }
    }

    // --------------------------------------------------------------
    // Injection
    // --------------------------------------------------------------

    pub(super) fn phase_injection(&mut self, now: Cycle) {
        self.run_phase(now, Phase::Injection);
        for s in 0..self.shards.len() {
            // Per injector the order is Kill event (buffered),
            // registry insert, forward token push. Nothing in this
            // phase reads the registry or the token lists, so applying
            // per kind is state-identical.
            let mut kills = std::mem::take(&mut self.shards[s].scratch.kills);
            for &worm in &kills {
                self.killed_mut().insert(worm, now);
            }
            kills.clear();
            self.shards[s].scratch.kills = kills;
            self.fwd_tokens.append(&mut self.shards[s].scratch.tokens);
            self.apply_scratch(now, s);
        }
    }

    // --------------------------------------------------------------
    // Routing + switch traversal
    // --------------------------------------------------------------

    pub(super) fn phase_route_and_traverse(&mut self, now: Cycle) {
        // Routing/VC-allocation and orphan-credit collection; the
        // orphan credits must land before any traversal reads its
        // credit counters.
        self.run_phase(now, Phase::Route);
        self.apply_all_scratch(now);
        self.run_phase(now, Phase::Traverse);
        // Traverse barrier, in shard order: link pushes (the
        // cross-shard flit handoff, in router-ascending emission
        // order), then deliveries with all their side effects, then
        // the deferred credits and counter deltas. Pushes, deliveries
        // and credits touch disjoint state, so their grouping cannot
        // be observed.
        let channel_latency = self.cfg.channel_latency;
        let warmup = self.cfg.warmup;
        for s in 0..self.shards.len() {
            let mut scratch = std::mem::take(&mut self.shards[s].scratch);
            for i in 0..scratch.push_li.len() {
                let li = scratch.push_li[i] as usize;
                if now.as_u64() >= warmup {
                    self.link_flits[li] += 1;
                }
                self.push_onto_link(
                    li,
                    VcId::new(scratch.push_vc[i]),
                    now + channel_latency,
                    scratch.push_flit[i],
                );
            }
            scratch.push_li.clear();
            scratch.push_vc.clear();
            scratch.push_flit.clear();
            for m in scratch.delivered.drain(..) {
                self.deliver(now, m);
            }
            self.shards[s].scratch = scratch;
            self.apply_scratch(now, s);
        }
        // Every finished stall streak is emitted after every delivery.
        for sh in &mut self.shards {
            for ev in sh.scratch.streak_events.drain(..) {
                self.trace.emit(|| ev);
            }
        }
    }

    /// The side effects of one completed message.
    fn deliver(&mut self, now: Cycle, m: DeliveredMessage) {
        self.counters.messages_delivered += 1;
        self.counters.payload_flits_delivered += u64::from(m.payload_len);
        if m.corrupt {
            self.counters.corrupt_payload_delivered += 1;
        }
        self.latency.record(m.created, now);
        self.throughput.record_flits(now, m.payload_len as usize);
        self.trace.emit(|| Event::Deliver {
            at: now,
            src: m.src,
            dst: m.dst,
            message: m.id,
            attempts: m.attempts,
            latency: now.saturating_since(m.created),
        });
        if let Some((sn, sc)) = self.source_of(m.id) {
            self.worm_sources[m.id.as_u64() as usize] = SOURCE_GONE;
            self.injector_on_delivered(sn, sc, m.id);
        }
        if self.record_deliveries {
            self.delivery_log.push(m);
        }
    }

    /// Commits shard `s`'s buffered credit returns, counter deltas,
    /// progress flag and trace events. Credits are commutative
    /// increments and counters plain sums, so shard order equals any
    /// serial interleaving.
    fn apply_scratch(&mut self, now: Cycle, s: usize) {
        let mut credits = std::mem::take(&mut self.shards[s].scratch.credits);
        for &(up_node, up_out, vc) in &credits {
            self.router_mut(up_node as usize).add_credit(up_out, vc);
        }
        credits.clear();
        let scratch = &mut self.shards[s].scratch;
        scratch.credits = credits;
        self.counters.merge(&scratch.counters);
        scratch.counters = NetCounters::default();
        apply_delta(
            &mut self.live_flits,
            std::mem::take(&mut scratch.live_delta),
        );
        apply_delta(
            &mut self.undrained_injectors,
            std::mem::take(&mut scratch.undrained_delta),
        );
        if std::mem::take(&mut scratch.progress) {
            self.last_progress = now;
        }
        for ev in scratch.events.drain(..) {
            self.trace.emit(|| ev);
        }
    }
}

// ------------------------------------------------------------------
// Phase bodies
// ------------------------------------------------------------------

/// Arrivals for one shard on the team: the drained link set, no fault
/// RNG, and (by the gate) no detection stop.
fn arrivals_fan_out(ctx: &Ctx<'_>, sh: &mut Shard) {
    let mut ids = std::mem::take(&mut sh.scratch.ids);
    ids.clear();
    sh.link_set.drain_sorted_into(&mut ids);
    let stop = arrivals(ctx, sh, None, &ids, 0);
    debug_assert!(stop.is_none(), "detection on a fan-out arrivals cycle");
    sh.scratch.ids = ids;
}

/// Delivers every due flit of links `ids` (permuted indices, all of
/// this shard) into their destination routers — fault injection,
/// killed-worm filtering, corruption detection, acceptance — and
/// re-arms the links still holding flits. The first link's scan starts
/// at lane `first_lane` (a resumed scan).
///
/// `rng` is the fault RNG; `None` on fan-out cycles, where the gate
/// has proved no arrival draws it. A detected corruption stops the
/// scan and returns where it stopped; the detected flit is already
/// dropped and its credit buffered.
fn arrivals(
    ctx: &Ctx<'_>,
    sh: &mut Shard,
    mut rng: Option<&mut SimRng>,
    ids: &[u32],
    first_lane: usize,
) -> Option<Detected> {
    debug_assert!(rng.is_some() || ctx.faults.transient_rate() == 0.0);
    let now = ctx.now;
    let mut from_lane = first_lane;
    for (pos, &pi32) in ids.iter().enumerate() {
        let first = std::mem::take(&mut from_lane);
        let pi = pi32 as usize;
        let local = pi - sh.links_lo;
        if sh.links[local].occupied == 0 {
            continue; // purged empty since it was armed
        }
        if sh.wake[local] > now {
            // Nothing due yet: every lane peek would break at once.
            sh.link_set.insert(pi32);
            continue;
        }
        let li = ctx.wiring.link_orig[pi] as usize;
        let (dst_node, dst_port) = ctx.wiring.link_head[li];
        let dst = dst_node - sh.node_lo;
        let link = ctx.wiring.link_ids[li];
        let link_dead = ctx.faults.is_dead(link);
        for v in first..sh.links[local].lanes.len() {
            let vc = VcId::from_index(v);
            loop {
                // Wormhole channels are stall-holding: a flit stays in
                // the channel's pipeline latches while the downstream
                // buffer is full (the `link_depth` share of the
                // credits covers exactly this occupancy).
                let killed = match sh.links[local].lanes[v].front() {
                    Some(&(arrive, ref flit)) if arrive <= now => {
                        let killed = ctx.killed.contains(flit.worm);
                        if !killed && sh.routers[dst].vc_is_full(dst_port, vc) {
                            break;
                        }
                        killed
                    }
                    _ => break,
                };
                let Some((_, mut flit)) = sh.links[local].lanes[v].pop_front() else {
                    break; // unreachable: front() just succeeded
                };
                sh.links[local].occupied -= 1;
                flit.hops = flit.hops.saturating_add(1);

                // Dead links corrupt every flit (the detectable-failure
                // model); healthy links at the transient rate.
                if link_dead
                    || rng
                        .as_deref_mut()
                        .is_some_and(|r| ctx.faults.corrupts_flit(r))
                {
                    if !flit.corrupted {
                        sh.scratch.counters.flits_corrupted += 1;
                    }
                    flit.corrupted = true;
                }

                // `killed` is still current: nothing between the peek
                // and here touches the registry.
                if killed {
                    drop_arrival(ctx, &mut sh.scratch, dst_node, dst_port, vc);
                    continue;
                }
                if flit.corrupted && ctx.detects {
                    if rng
                        .as_deref_mut()
                        .is_none_or(|r| ctx.faults.detects_corruption(r))
                    {
                        drop_arrival(ctx, &mut sh.scratch, dst_node, dst_port, vc);
                        return Some(Detected {
                            pos,
                            lane: v,
                            node: dst_node,
                            port: dst_port,
                            vc,
                            worm: flit.worm,
                            link,
                        });
                    }
                    sh.scratch.counters.detections_missed += 1;
                }

                sh.routers[dst].accept(now, dst_port, vc, flit);
                sh.router_set.insert(idx32(dst_node));
                sh.scratch.progress = true;
            }
        }
        if sh.links[local].occupied > 0 {
            if let Some(wake) = sh.links[local]
                .lanes
                .iter()
                .filter_map(|lane| lane.front().map(|&(arrive, _)| arrive))
                .min()
            {
                sh.wake[local] = wake;
            }
            sh.link_set.insert(pi32);
        }
    }
    None
}

/// Drops an arriving flit of a dead worm: it leaves the network and
/// its credit returns upstream.
fn drop_arrival(ctx: &Ctx<'_>, scratch: &mut ShardScratch, node: usize, port: PortId, vc: VcId) {
    scratch.counters.flits_dropped_killed += 1;
    scratch.live_delta -= 1;
    ctx.buffer_credit(scratch, node, port, vc);
}

/// Injection for one shard, ascending flat injector id. A source
/// timeout kill only touches the worm's own node (the flush at the
/// inject port releases no upstream credit and has no feeding link);
/// its registry insert and forward token are buffered.
fn injection(ctx: &Ctx<'_>, sh: &mut Shard) {
    let now = ctx.now;
    let chans = ctx.chans;
    let mut ids = std::mem::take(&mut sh.scratch.ids);
    let range = sh.node_lo * chans..(sh.node_lo + sh.routers.len()) * chans;
    visit(ctx.dense, &mut sh.injector_set, range, &mut ids);
    for &id in &ids {
        let (n, c) = (id as usize / chans, id as usize % chans);
        let local = n - sh.node_lo;
        // `step` is a no-op that draws no RNG whenever the injector
        // has no step work — the active schedule's skip condition.
        let out = sh.injectors[local][c].step(now, &mut sh.routers[local]);
        if out.injected_flit {
            sh.scratch.progress = true;
            sh.scratch.live_delta += 1;
            sh.router_set.insert(idx32(n));
            if out.injected_pad {
                sh.scratch.counters.pad_flits_injected += 1;
            } else {
                sh.scratch.counters.payload_flits_injected += 1;
            }
        }
        if out.restarted {
            sh.scratch.counters.retransmissions += 1;
        }
        if ctx.trace_on {
            if let Some((worm, dst)) = out.started {
                sh.scratch.events.push(Event::Inject {
                    at: now,
                    src: NodeId::from_index(n),
                    dst,
                    message: worm.message,
                    attempt: worm.attempt,
                });
            }
            if let Some(worm) = out.committed {
                sh.scratch.events.push(Event::Commit {
                    at: now,
                    src: NodeId::from_index(n),
                    message: worm.message,
                    attempt: worm.attempt,
                });
            }
        }
        if let Some(worm) = out.kill {
            sh.scratch.counters.kills_source_timeout += 1;
            sh.scratch.kills.push(worm);
            if ctx.trace_on {
                sh.scratch.events.push(Event::Kill {
                    at: now,
                    node: NodeId::from_index(n),
                    message: worm.message,
                    attempt: worm.attempt,
                    cause: KillCause::SourceTimeout,
                });
            }
            let port = sh.routers[local].inject_port(c);
            debug_assert_eq!(sh.routers[local].port_kind(port), PortKind::Inject);
            let res = sh.routers[local].flush_worm(port, VcId::new(0), worm);
            sh.scratch.live_delta -= res.flushed as i64;
            match res.released {
                Some(RouteTarget::Link { port: op, vc: ov }) => {
                    if let Some(li) = ctx.wiring.out_link[n][op.index()] {
                        let (node, port) = ctx.wiring.link_head[li];
                        sh.scratch.tokens.push(Token {
                            worm,
                            node,
                            port,
                            vc: ov,
                        });
                    }
                }
                Some(RouteTarget::Eject { .. }) => sh.receivers[local].discard(worm),
                None => {}
            }
            let was_drained = sh.injectors[local][c].is_drained();
            let retx = sh.injectors[local][c].on_killed(now, worm);
            match (was_drained, sh.injectors[local][c].is_drained()) {
                (true, false) => sh.scratch.undrained_delta += 1,
                (false, true) => sh.scratch.undrained_delta -= 1,
                _ => {}
            }
            if ctx.trace_on {
                if let Some((attempt, resume_at)) = retx {
                    sh.scratch.events.push(Event::RetransmitScheduled {
                        at: now,
                        message: worm.message,
                        attempt,
                        resume_at,
                    });
                }
            }
        }
        if sh.injectors[local][c].has_step_work() {
            sh.injector_set.insert(id);
        }
    }
    sh.scratch.ids = ids;
}

/// Routing/VC-allocation, then orphan-credit collection, for one
/// shard. Orphan drops leave the network. The visited router ids stay
/// in `scratch.ids` for [`traverse`]: nothing in between arms a
/// router, so the list is complete for both.
fn route(ctx: &Ctx<'_>, sh: &mut Shard) {
    let mut ids = std::mem::take(&mut sh.scratch.ids);
    let range = sh.node_lo..sh.node_lo + sh.routers.len();
    visit(ctx.dense, &mut sh.router_set, range, &mut ids);
    let is_killed = |w: WormId| ctx.killed.contains(w);
    for &n in &ids {
        let local = n as usize - sh.node_lo;
        let orphans = sh.routers[local].route_and_allocate(
            ctx.now,
            &*ctx.wiring.routing,
            &*ctx.wiring.topo,
            &is_killed,
        );
        sh.scratch.live_delta -= orphans as i64;
    }
    for &n in &ids {
        let local = n as usize - sh.node_lo;
        for (port, vc) in sh.routers[local].take_orphan_credits() {
            ctx.buffer_credit(&mut sh.scratch, n as usize, port, vc);
        }
    }
    sh.scratch.ids = ids;
}

/// Switch traversal for one shard over the routers [`route`] visited:
/// departing flits buffer into the push buffer (their link may belong
/// to another shard) or deliver into the shard's own receivers;
/// upstream credits buffer per the credit-return latency; finished
/// stall streaks buffer as events. Routers still holding flits or an
/// open streak re-arm.
fn traverse(ctx: &Ctx<'_>, sh: &mut Shard) {
    let now = ctx.now;
    let mut ids = std::mem::take(&mut sh.scratch.ids);
    let mut traversals = std::mem::take(&mut sh.scratch.traversals);
    let is_killed = |w: WormId| ctx.killed.contains(w);
    for &n in &ids {
        let local = n as usize - sh.node_lo;
        traversals.clear();
        sh.routers[local].traverse_into(now, &is_killed, &mut traversals);
        for t in &traversals {
            sh.scratch.progress = true;
            if sh.routers[local].port_kind(t.from_port) == PortKind::Node {
                ctx.buffer_credit(&mut sh.scratch, n as usize, t.from_port, t.from_vc);
            }
            match t.target {
                RouteTarget::Link { port, vc } => {
                    let Some(li) = ctx.wiring.out_link[n as usize][port.index()] else {
                        // Routing only offers connected ports; stay
                        // loud in debug, drop defensively in release.
                        debug_assert!(false, "route to disconnected port");
                        continue;
                    };
                    sh.scratch.push_li.push(idx32(li));
                    sh.scratch.push_vc.push(vc.as_u8());
                    sh.scratch.push_flit.push(t.flit);
                }
                RouteTarget::Eject { .. } => {
                    // The flit leaves the fabric, delivered or not.
                    sh.scratch.live_delta -= 1;
                    if ctx.killed.contains(t.flit.worm) {
                        sh.scratch.counters.flits_dropped_killed += 1;
                        sh.receivers[local].discard(t.flit.worm);
                        continue;
                    }
                    let delivered = sh.receivers[local].on_flit(now, t.flit);
                    sh.scratch.delivered.extend(delivered);
                }
            }
        }
    }
    if ctx.trace_on {
        // Routers only record streaks while tracing (the per-cause
        // counters are always on), so this drain is trace-gated too.
        let mut streaks = std::mem::take(&mut sh.scratch.streaks);
        for &n in &ids {
            streaks.clear();
            sh.routers[n as usize - sh.node_lo].drain_streaks_into(&mut streaks);
            for st in &streaks {
                if let Some(li) = ctx.wiring.out_link[n as usize][st.port.index()] {
                    sh.scratch.streak_events.push(Event::LinkStall {
                        at: st.since,
                        link: ctx.wiring.link_ids[li],
                        cause: st.cause,
                        cycles: st.cycles,
                    });
                }
            }
        }
        sh.scratch.streaks = streaks;
    }
    for &n in &ids {
        let r = &sh.routers[n as usize - sh.node_lo];
        if r.total_occupancy() > 0 || r.has_open_streaks() {
            sh.router_set.insert(n);
        }
    }
    ids.clear();
    sh.scratch.ids = ids;
    sh.scratch.traversals = traversals;
}
