//! The network: routers, links, injectors and receivers, advanced one
//! cycle at a time, with the CR/FCR kill machinery on top.
//!
//! # Cycle phases
//!
//! 1. **Churn** — scheduled link kills and revivals fire.
//! 2. **Arrivals** — flits finish their link traversal: fault
//!    injection, killed-worm filtering, FCR corruption detection, then
//!    acceptance into the downstream input VC.
//! 3. **Kill tokens** — forward teardown tokens walk one hop toward
//!    the destination, backward tokens one hop toward the source, each
//!    flushing buffers, releasing channels and restoring credits.
//! 4. **Path-wide detection** (optional) — routers kill locally
//!    stalled worms (the paper's inferior alternative to source
//!    timeouts).
//! 5. **Traffic generation** — Bernoulli sources enqueue messages.
//! 6. **Injection** — injectors push flits, watch stalls, and kill
//!    their own worms on a source timeout.
//! 7. **Routing/allocation** then **switch traversal** for every
//!    router; departing flits enter link pipelines or receivers, and
//!    credits return upstream at the end of the phase.
//! 8. Bookkeeping: registry pruning and the deadlock watchdog.
//!
//! # One kernel, three schedules
//!
//! Arrivals, injection, routing and traversal each have one body,
//! written against one [`Shard`], in the kernel module
//! (`network_sharded.rs`); the other phases are serial code on this
//! type. A `Shard` is the only home of per-component state: the
//! network holds one per contiguous node-id range in `shards`, and
//! serial code reaches a single router, injector or link through the
//! `node_shard` / `link_shard` tables (`Network::node_slot`,
//! `Network::link_slot`). The three steppers — **serial active** (the default: only the
//! components in the [`ActiveSet`]s, plus cycle fast-forward), **dense
//! reference** ([`Network::set_reference_stepper`]: every component,
//! no fast-forward) and **sharded** (`shards > 1`: the active bodies
//! fanned out on a worker team) — are schedules of those bodies and
//! are byte-identical (DESIGN.md §10, §12).

use crate::config::NetworkConfig;
use crate::injector::{Injector, PendingMessage};
use crate::killmap::KilledMap;
use crate::receiver::Receiver;
use crate::report::{ChurnEventReport, ChurnSummary, NetCounters, SimReport, TraceSummary};
use cr_faults::{ChurnFiring, FaultModel};
use cr_metrics::{LatencyRecorder, ThroughputMeter};
use cr_router::{
    Flit, LinkStats, PortKind, RouteTarget, Router, RouterConfig, RoutingFunction, WormId,
};
use cr_sim::sched::ActiveSet;
use cr_sim::trace::{Event, KillCause, TraceSink, TraceStats};
use cr_sim::{Cycle, MessageId, NodeId, PortId, SimRng, VcId};
use cr_topology::Topology;
use cr_traffic::TrafficSource;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

#[path = "network_sharded.rs"]
mod sharded;
pub use sharded::{PhaseDispatch, StepStats};

#[path = "check_api.rs"]
pub mod check_api;

/// Checked narrowing of a dense table index or length to the `u32`
/// the packed encodings and active-set members use.
pub(crate) fn idx32(i: usize) -> u32 {
    // cr-lint: allow(panic-discipline, reason = "dense indices and lengths sit far below u32::MAX by construction; wrapping silently would corrupt state")
    u32::try_from(i).expect("index exceeds u32::MAX")
}

#[derive(Debug)]
struct LinkState {
    /// Flits in flight or parked in the channel's stall-holding
    /// latches, one lane per virtual channel so a blocked VC never
    /// blocks the others: (arrival cycle, flit).
    lanes: Vec<VecDeque<(Cycle, Flit)>>,
    /// Total flits across all lanes, so the per-cycle arrival scan can
    /// skip idle links without touching their lane deques.
    occupied: usize,
}

/// One shard's slice of the machine, and the only place per-component
/// state lives: the routers, injectors and receivers of the contiguous
/// node-id range starting at `node_lo`, every link whose *destination*
/// lies in that range (the side arrivals mutate), the shard's active
/// sets and the phase bodies' mutation buffers. A phase body takes a
/// `&mut Shard`; the team fan-out moves whole shards into its tasks
/// and back; serial code reaches one component through
/// [`Network::node_slot`] and [`Network::link_slot`].
struct Shard {
    /// First node id owned: node `n` is `routers[n - node_lo]`.
    node_lo: usize,
    /// First permuted link index owned: link `pi` is
    /// `links[pi - links_lo]`.
    links_lo: usize,
    routers: Vec<Router>,
    /// `injectors[local][channel]`.
    injectors: Vec<Vec<Injector>>,
    receivers: Vec<Receiver>,
    links: Vec<LinkState>,
    /// `wake[local]` = the link's earliest front-of-lane arrival
    /// estimate. Min-updated on every push; may go stale-*early* after
    /// purges (harmless: the link is rescanned and the wake recomputed)
    /// but never stale-late, because pops only raise the true minimum.
    wake: Vec<Cycle>,
    // Active sets (DESIGN.md §10), keyed by global ids. The mutation
    // helpers and the phase bodies maintain them under every schedule,
    // so they are always a superset of the truly active components;
    // only the active schedules drain them and drop the stale members.
    // That keeps a dense->active switch mid-run legal. Shards own
    // contiguous ranges, so concatenating the per-shard sorted drains
    // in shard order gives the global ascending order.
    /// Routers with buffered flits or an open stall streak.
    router_set: ActiveSet,
    /// Links with flits in flight or parked in the channel latches,
    /// keyed by permuted index.
    link_set: ActiveSet,
    /// Injectors (flat id `node * inject_channels + channel`) with a
    /// worm in hand or queued messages.
    injector_set: ActiveSet,
    /// The phase bodies' mutation buffers, drained at each phase
    /// barrier in shard order.
    scratch: sharded::ShardScratch,
}

#[derive(Debug, Clone, Copy)]
struct Token {
    worm: WormId,
    node: usize,
    port: PortId,
    vc: VcId,
}

/// Sentinel in `worm_sources` for delivered messages.
const SOURCE_GONE: u32 = u32::MAX;

/// Per-fired-churn-event drain bookkeeping: which in-flight messages
/// the event touched, and when the last of them left the network.
#[derive(Debug)]
struct ChurnTracker {
    /// Cycle the event actually applied (always == the scheduled
    /// cycle; fast-forward treats pending churn as a wake source).
    at: Cycle,
    kind: &'static str,
    subject: u64,
    links_killed: u64,
    links_revived: u64,
    /// Messages in flight on the affected links when the event fired;
    /// entries are retired as they deliver (`worm_sources` goes to
    /// [`SOURCE_GONE`]).
    affected: Vec<MessageId>,
    /// `affected.len()` at fire time (the report field; `affected`
    /// itself shrinks as messages drain).
    affected_total: u64,
    drained_at: Option<Cycle>,
}

/// The tables fixed at assembly that the phase bodies read: the
/// topology, the routing function and the link wiring.
struct Wiring {
    topo: Box<dyn Topology>,
    routing: Box<dyn RoutingFunction>,
    /// `out_link[node][port]` = link index leaving that port.
    out_link: Vec<Vec<Option<usize>>>,
    /// `link_head[link]` = (dst node, dst input port).
    link_head: Vec<(usize, PortId)>,
    /// `link_ids[link]` = the topology's `LinkId` (fault-model key).
    link_ids: Vec<cr_sim::LinkId>,
    /// `in_upstream[node][in_port]` = (upstream node, upstream output
    /// port).
    in_upstream: Vec<Vec<Option<(usize, PortId)>>>,
    /// `link_orig[permuted]` = original link index (see
    /// `Network::link_perm`).
    link_orig: Vec<u32>,
}

/// A complete simulated network. Build one with
/// [`NetworkBuilder`](crate::NetworkBuilder).
pub struct Network {
    // The wiring (and the serially-mutated killed/faults registries)
    // sit behind `Arc` so the sharded stepper can hand clones to the
    // persistent worker team's 'static tasks. The mutable registries
    // are only written through `killed_mut` / `faults_mut`, which
    // assert the task clones are gone.
    wiring: Arc<Wiring>,
    cfg: NetworkConfig,
    faults: Arc<FaultModel>,
    timeout: u64,

    /// Every router, injector, receiver and link, with its active
    /// sets and mutation buffers, one [`Shard`] per contiguous node-id
    /// range in ascending order. A fan-out moves each shard into a
    /// team task by value and stores the returned `Vec` back.
    shards: Vec<Shard>,
    sources: Vec<TrafficSource>,

    /// Inverse of `wiring.link_ids`: `link_by_id[id.index()]` =
    /// original link index (`u32::MAX` for ids the topology never
    /// handed out).
    link_by_id: Vec<u32>,

    /// Post-warmup flits carried per link (channel-utilization
    /// statistics).
    link_flits: Vec<u64>,
    killed: Arc<KilledMap>,
    registry_lifetime: u64,
    fwd_tokens: Vec<Token>,
    bwd_tokens: Vec<Token>,
    /// Token double-buffers: `step_tokens_once` swaps the live lists
    /// into these so re-pushed continuation tokens reuse capacity
    /// instead of reallocating every teardown step.
    fwd_scratch: Vec<Token>,
    bwd_scratch: Vec<Token>,
    /// `worm_sources[message]` = `src * inject_channels + channel`,
    /// indexed by the dense monotonic [`MessageId`];
    /// [`SOURCE_GONE`] once the message is delivered.
    worm_sources: Vec<u32>,
    /// Future trace events, time-sorted (front = next due).
    scheduled: VecDeque<cr_traffic::TraceEvent>,
    /// Next per-flow sequence number, keyed on `(src, dst)`; flows
    /// that never sent are absent (next number 0). Sparse, because a
    /// dense n² table is 32 GiB at 65 536 nodes.
    seq_counters: BTreeMap<(NodeId, NodeId), u64>,
    next_message_id: u64,
    /// Per-cycle path-wide stall list, reused across cycles.
    stall_scratch: Vec<(PortId, VcId, WormId)>,
    /// Structured protocol-event sink ([`cr_sim::trace`]); the
    /// disabled variant unless the builder enables tracing.
    trace: TraceSink,

    now: Cycle,
    record_deliveries: bool,
    delivery_log: Vec<crate::receiver::DeliveredMessage>,
    latency: LatencyRecorder,
    throughput: ThroughputMeter,
    counters: NetCounters,
    last_progress: Cycle,
    deadlocked: bool,
    offered_load: f64,
    fault_rng: SimRng,

    /// Visit-list scratch of the serial arrivals walk and path-wide
    /// detection.
    ids_scratch: Vec<u32>,
    /// Flits in routers + links, maintained incrementally; the O(1)
    /// backing of [`Network::flits_in_flight`].
    live_flits: usize,
    /// Injectors with queued, in-flight, or vulnerable messages —
    /// the O(1) backing of the quiescence check.
    undrained_injectors: usize,
    /// `true` = run the dense reference stepper (every phase sweeps
    /// every component, no fast-forward).
    reference_stepper: bool,

    // --- spatial sharding state (DESIGN.md §12) ---
    /// `node_shard[node]` = owning shard (the plan's owner table).
    node_shard: Vec<u16>,
    /// `link_perm[orig li]` = permuted index. Link state is stored
    /// grouped by owning shard (the shard of the link's destination
    /// node), ascending original index within each shard, so shard
    /// `s` owns the permuted indices from `shards[s].links_lo` on.
    /// Identity when serial.
    link_perm: Vec<u32>,
    /// `link_shard[permuted]` = owning shard.
    link_shard: Vec<u16>,
    /// Worker-thread override for the sharded stepper (tests force >1
    /// on single-core machines); `None` = available parallelism.
    shard_threads: Option<usize>,
    /// Persistent worker team for the sharded stepper, spawned (and its
    /// width resolved) at the first fan-out and reused for every
    /// fan-out thereafter (DESIGN.md §12). `None` until then, and reset by
    /// [`Network::set_shard_threads`]. Shut down (workers joined)
    /// ahead of the shard state by [`Network`]'s `Drop`.
    team: Option<cr_sim::pool::Team>,
    /// How each phase was dispatched ([`Network::step_stats`]).
    step_stats: StepStats,
    /// `true` once any link has ever been dead during a step. Under a
    /// fault-detecting protocol with a nonzero detection-miss rate, a
    /// corrupted flit may have survived its dead-link arrival and
    /// still be roaming, so the per-cycle parallel-arrivals gate must
    /// stay conservative forever after (DESIGN.md §12).
    ever_dead: bool,

    // --- live fault churn state (DESIGN.md §13) ---
    /// Scratch for [`cr_faults::FaultModel::apply_churn_due`], reused
    /// across cycles.
    churn_firings: Vec<ChurnFiring>,
    /// One tracker per fired churn event, in firing order (the
    /// report's `churn.events` rows).
    churn_trackers: Vec<ChurnTracker>,
    /// Trackers still waiting on affected messages to deliver — the
    /// O(1) gate on the per-cycle drain check.
    churn_undrained: usize,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.wiring.topo.label())
            .field("routing", &self.wiring.routing.name())
            .field("protocol", &self.cfg.protocol)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Assembles a network. Prefer
    /// [`NetworkBuilder`](crate::NetworkBuilder), which fills in the
    /// routing function and traffic sources consistently.
    pub(crate) fn assemble(
        topo: Box<dyn Topology>,
        cfg: NetworkConfig,
        routing: Box<dyn RoutingFunction>,
        mut faults: FaultModel,
        sources: Vec<TrafficSource>,
        offered_load: f64,
        shards: usize,
    ) -> Self {
        cfg.validate();
        let n = topo.num_nodes();
        let plan = cr_sim::shard::Plan::from_hint(topo.partition_hint(shards), n, shards);
        let node_shard = plan.owner_table();
        let root = SimRng::from_seed(cfg.seed);
        let num_vcs = routing.num_vcs();
        let descs = topo.links();
        let chans = cfg.inject_channels;

        // The paper's default timeout: message length x number of VCs.
        // Without traffic we fall back to a generous constant.
        let timeout = cfg.timeout.unwrap_or(32 * num_vcs as u64);
        // Under the path-wide scheme, stall detection lives in the
        // routers *instead of* the source: the injector never times
        // out on its own (its injection FIFO is still watched by the
        // path-wide detector, which covers the source case too).
        let injector_timeout = if cfg.path_wide_threshold.is_some() {
            u64::MAX
        } else {
            timeout
        };
        let trace = match cfg.trace_capacity {
            Some(capacity) => TraceSink::ring(capacity),
            None => TraceSink::Disabled,
        };

        let mut shards: Vec<Shard> = (0..plan.num_shards())
            .map(|s| Shard {
                node_lo: plan.range(s).start,
                links_lo: 0,
                routers: Vec::with_capacity(plan.range(s).len()),
                injectors: Vec::with_capacity(plan.range(s).len()),
                receivers: Vec::with_capacity(plan.range(s).len()),
                links: Vec::new(),
                wake: Vec::new(),
                router_set: ActiveSet::new(n),
                link_set: ActiveSet::new(descs.len()),
                injector_set: ActiveSet::new(n * chans),
                scratch: sharded::ShardScratch::default(),
            })
            .collect();
        for i in 0..n {
            let node = NodeId::from_index(i);
            let sh = &mut shards[usize::from(node_shard[i])];
            let rc = RouterConfig {
                num_node_ports: topo.num_ports(node),
                num_vcs,
                buffer_depth: cfg.buffer_depth,
                num_inject: chans,
                inject_depth: cfg.inject_depth,
                num_eject: cfg.eject_channels,
                link_depth: cfg.channel_latency as usize,
            };
            let mut router = Router::new(node, rc, root.split(1_000 + i as u64));
            if trace.enabled() {
                // Finished link-stall streaks become `LinkStall`
                // events; with tracing off they are discarded at the
                // router.
                router.set_record_streaks(true);
            }
            sh.routers.push(router);
            sh.injectors.push(
                (0..chans)
                    .map(|c| {
                        let mut inj = Injector::new(
                            node,
                            c,
                            cfg.protocol,
                            injector_timeout,
                            cfg.retransmit,
                            root.split(2_000_000 + (i * 64 + c) as u64),
                        );
                        inj.set_ablations(cfg.ablations);
                        inj
                    })
                    .collect(),
            );
            sh.receivers.push(Receiver::new(node));
        }

        // Link tables. Link *state* lives in the shard of the link's
        // destination node, ascending original index within a shard,
        // so each shard's links are one contiguous run of permuted
        // indices. With one shard the permutation is the identity.
        let mut out_link: Vec<Vec<Option<usize>>> = (0..n)
            .map(|i| vec![None; topo.num_ports(NodeId::from_index(i))])
            .collect();
        let mut link_head = Vec::with_capacity(descs.len());
        let mut link_ids = Vec::with_capacity(descs.len());
        let mut in_upstream: Vec<Vec<Option<(usize, PortId)>>> = (0..n)
            .map(|i| vec![None; topo.num_ports(NodeId::from_index(i))])
            .collect();
        for (idx, d) in descs.iter().enumerate() {
            let sh = &mut shards[usize::from(node_shard[d.dst.index()])];
            sh.links.push(LinkState {
                lanes: (0..num_vcs).map(|_| VecDeque::new()).collect(),
                occupied: 0,
            });
            sh.wake.push(Cycle::ZERO);
            out_link[d.src.index()][d.src_port.index()] = Some(idx);
            link_head.push((d.dst.index(), d.dst_port));
            link_ids.push(d.id);
            in_upstream[d.dst.index()][d.dst_port.index()] = Some((d.src.index(), d.src_port));
        }
        let mut at = 0;
        for sh in &mut shards {
            sh.links_lo = at;
            at += sh.links.len();
        }
        let mut next: Vec<usize> = shards.iter().map(|sh| sh.links_lo).collect();
        let mut link_perm = vec![0u32; descs.len()];
        let mut link_orig = vec![0u32; descs.len()];
        let mut link_shard = vec![0u16; descs.len()];
        for (idx, d) in descs.iter().enumerate() {
            let s = node_shard[d.dst.index()];
            let pi = next[usize::from(s)];
            next[usize::from(s)] += 1;
            link_perm[idx] = idx32(pi);
            link_orig[pi] = idx32(idx);
            link_shard[pi] = s;
        }

        // `LinkId` -> original link index, for resolving churn firings
        // back to link state.
        let max_id = descs.iter().map(|d| d.id.index() + 1).max().unwrap_or(0);
        let mut link_by_id = vec![u32::MAX; max_id];
        for (idx, d) in descs.iter().enumerate() {
            link_by_id[d.id.index()] = idx32(idx);
        }

        // Regional outages expand to concrete kill/revive pairs once,
        // against this topology, so the per-cycle churn check is a
        // plain cursor compare.
        faults.expand_churn(&*topo);

        // Routers learn their dead outgoing links up front (the
        // diagnosed-fault model; undiagnosed behaviour still works via
        // corruption detection, this just lets adaptivity avoid them).
        // Churn events update these flags live as they fire — the
        // marking is state, not a construction-time-only decision.
        for d in &descs {
            if faults.is_dead(d.id) {
                let sh = &mut shards[usize::from(node_shard[d.src.index()])];
                sh.routers[d.src.index() - sh.node_lo].set_dead_out(d.src_port);
            }
        }

        let misroute = cfg.routing.misroute_budget() as usize;
        let registry_lifetime =
            4 * (topo.diameter() + misroute) as u64 + cfg.channel_latency + 64;
        let ever_dead = faults.num_dead_links() > 0;

        let warmup = Cycle::new(cfg.warmup);
        Network {
            latency: LatencyRecorder::new(warmup),
            throughput: ThroughputMeter::new(warmup, n),
            ids_scratch: Vec::new(),
            live_flits: 0,
            undrained_injectors: 0,
            reference_stepper: false,
            shard_threads: None,
            team: None,
            step_stats: StepStats::default(),
            ever_dead,
            node_shard,
            link_perm,
            link_shard,
            faults: Arc::new(faults),
            timeout,
            shards,
            sources,
            link_flits: vec![0; descs.len()],
            link_by_id,
            wiring: Arc::new(Wiring {
                topo,
                routing,
                out_link,
                link_head,
                link_ids,
                in_upstream,
                link_orig,
            }),
            churn_firings: Vec::new(),
            churn_trackers: Vec::new(),
            churn_undrained: 0,
            killed: Arc::new(KilledMap::new()),
            registry_lifetime,
            fwd_tokens: Vec::new(),
            bwd_tokens: Vec::new(),
            fwd_scratch: Vec::new(),
            bwd_scratch: Vec::new(),
            worm_sources: Vec::new(),
            scheduled: VecDeque::new(),
            seq_counters: BTreeMap::new(),
            next_message_id: 0,
            stall_scratch: Vec::new(),
            trace,
            now: Cycle::ZERO,
            record_deliveries: false,
            delivery_log: Vec::new(),
            counters: NetCounters::default(),
            last_progress: Cycle::ZERO,
            deadlocked: false,
            offered_load,
            fault_rng: SimRng::from_seed(cfg.seed).split(777),
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The topology.
    pub fn topology(&self) -> &dyn Topology {
        &*self.wiring.topo
    }

    /// The effective source timeout in cycles.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Mutable access to the killed-worm registry. The `Arc` is only
    /// cloned into shard-task contexts that are dropped before any
    /// serial code runs again, so the uniqueness assert holds and
    /// `make_mut` never actually copies.
    pub(crate) fn killed_mut(&mut self) -> &mut KilledMap {
        debug_assert_eq!(
            Arc::strong_count(&self.killed),
            1,
            "killed registry aliased at mutation time"
        );
        Arc::make_mut(&mut self.killed)
    }

    /// Mutable access to the fault model, same contract as
    /// [`Network::killed_mut`].
    pub(crate) fn faults_mut(&mut self) -> &mut FaultModel {
        debug_assert_eq!(
            Arc::strong_count(&self.faults),
            1,
            "fault model aliased at mutation time"
        );
        Arc::make_mut(&mut self.faults)
    }

    /// Live event counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// `true` once the deadlock watchdog has fired.
    pub fn is_deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// The router at `node` (for tests and instrumentation).
    pub fn router(&self, node: NodeId) -> &Router {
        self.router_at(node.index())
    }

    /// The receiver at `node`.
    pub fn receiver(&self, node: NodeId) -> &Receiver {
        let (s, l) = self.node_slot(node.index());
        &self.shards[s].receivers[l]
    }

    /// Injection channel `channel` at `node`.
    pub fn injector(&self, node: NodeId, channel: usize) -> &Injector {
        let (s, l) = self.node_slot(node.index());
        &self.shards[s].injectors[l][channel]
    }

    // ------------------------------------------------------------------
    // Flat access to the shards, for serial code
    // ------------------------------------------------------------------

    /// The shard owning `node` and the node's index within it.
    fn node_slot(&self, node: usize) -> (usize, usize) {
        let s = usize::from(self.node_shard[node]);
        (s, node - self.shards[s].node_lo)
    }

    /// The shard owning permuted link `pi` and the link's index
    /// within it.
    fn link_slot(&self, pi: usize) -> (usize, usize) {
        let s = usize::from(self.link_shard[pi]);
        (s, pi - self.shards[s].links_lo)
    }

    fn router_at(&self, node: usize) -> &Router {
        let (s, l) = self.node_slot(node);
        &self.shards[s].routers[l]
    }

    fn router_mut(&mut self, node: usize) -> &mut Router {
        let (s, l) = self.node_slot(node);
        &mut self.shards[s].routers[l]
    }

    fn injector_mut(&mut self, node: usize, channel: usize) -> &mut Injector {
        let (s, l) = self.node_slot(node);
        &mut self.shards[s].injectors[l][channel]
    }

    /// The state of permuted link `pi`.
    fn link(&self, pi: usize) -> &LinkState {
        let (s, l) = self.link_slot(pi);
        &self.shards[s].links[l]
    }

    /// Every router in ascending node order (shards own ascending
    /// contiguous ranges).
    fn routers(&self) -> impl Iterator<Item = &Router> {
        self.shards.iter().flat_map(|sh| &sh.routers)
    }

    /// Every injector in ascending flat id order.
    fn injectors(&self) -> impl Iterator<Item = &Injector> {
        self.shards
            .iter()
            .flat_map(|sh| sh.injectors.iter().flatten())
    }

    /// Every receiver in ascending node order.
    fn receivers(&self) -> impl Iterator<Item = &Receiver> {
        self.shards.iter().flat_map(|sh| &sh.receivers)
    }

    /// Enables (or disables) logging of every delivered message,
    /// retrievable with [`Network::take_delivery_log`]. Off by default
    /// to keep long sweeps lean.
    pub fn set_record_deliveries(&mut self, on: bool) {
        self.record_deliveries = on;
    }

    /// Drains the recorded delivery log (empty unless
    /// [`Network::set_record_deliveries`] was enabled).
    pub fn take_delivery_log(&mut self) -> Vec<crate::receiver::DeliveredMessage> {
        std::mem::take(&mut self.delivery_log)
    }

    /// Whether structured event tracing is on (see
    /// [`NetworkBuilder::trace`](crate::NetworkBuilder::trace)).
    pub fn trace_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// Emission statistics of the trace sink (zeros when disabled).
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.stats()
    }

    /// Drains the buffered trace events, oldest first (empty unless
    /// tracing is enabled).
    pub fn take_trace_events(&mut self) -> Vec<Event> {
        self.trace.drain()
    }

    /// Per-link utilization and stall-attribution counters, keyed by
    /// the topology's [`cr_sim::LinkId`]. Always maintained, tracing
    /// on or off: entry `i` describes the link whose source router
    /// output port feeds it.
    pub fn link_stall_stats(&self) -> Vec<(cr_sim::LinkId, LinkStats)> {
        let mut out = vec![(cr_sim::LinkId::new(0), LinkStats::default()); self.link_perm.len()];
        for (ports, router) in self.wiring.out_link.iter().zip(self.routers()) {
            let stats = router.link_stats();
            for (p, li) in ports.iter().enumerate() {
                if let (Some(li), Some(s)) = (li, stats.get(p)) {
                    out[*li] = (self.wiring.link_ids[*li], *s);
                }
            }
        }
        out
    }

    /// Flits currently buffered in routers or in flight on links.
    /// O(1): maintained incrementally at every flit movement.
    pub fn flits_in_flight(&self) -> usize {
        debug_assert_eq!(
            self.live_flits,
            self.routers().map(Router::total_occupancy).sum::<usize>()
                + self
                    .shards
                    .iter()
                    .flat_map(|sh| &sh.links)
                    .map(|l| l.occupied)
                    .sum::<usize>(),
            "incremental flit count diverged"
        );
        self.live_flits
    }

    /// Selects the stepper: `true` runs the dense reference sweep
    /// (every phase walks every component, no cycle fast-forward),
    /// `false` (the default) the active-set scheduler. The two are
    /// byte-identical in every observable output; the dense path
    /// exists as the equivalence baseline and may be switched on at
    /// any point of a run (the active sets stay maintained while
    /// dense-stepping, so switching back is also legal).
    pub fn set_reference_stepper(&mut self, dense: bool) {
        self.reference_stepper = dense;
    }

    /// `true` while the dense reference stepper is selected.
    pub fn is_reference_stepper(&self) -> bool {
        self.reference_stepper
    }

    /// Number of spatial shards the active stepper runs with (1 =
    /// serial; the dense reference stepper runs its shards in order on
    /// the calling thread).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// How the stepper dispatched its phases so far: shard-phases run
    /// on the worker team and inline, and cycles whose arrivals the
    /// gate forced serial. Deterministic for a given configuration,
    /// but not part of [`SimReport`]: the schedules differ in it.
    pub fn step_stats(&self) -> StepStats {
        self.step_stats
    }

    /// Overrides the sharded stepper's worker-thread count (`None`,
    /// the default, sizes the phase pool to the machine's available
    /// parallelism, capped at the shard count). Results are identical
    /// for every value — equivalence tests force >1 to exercise real
    /// cross-thread handoff even on single-core machines; benchmarks
    /// may pin it for stable measurements.
    pub fn set_shard_threads(&mut self, threads: Option<usize>) {
        if self.shard_threads != threads {
            // The persistent team is sized from this setting; drop it
            // (joining its workers) so the next sharded step respawns
            // at the new width.
            self.team = None;
        }
        self.shard_threads = threads;
    }

    /// All traffic drained: nothing buffered or in flight, nothing
    /// scheduled, every injector empty. O(1) via the incremental
    /// counters.
    fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.undrained_injectors,
            self.injectors().filter(|i| !i.is_drained()).count(),
            "incremental undrained-injector count diverged"
        );
        self.live_flits == 0 && self.scheduled.is_empty() && self.undrained_injectors == 0
    }

    /// Marks a router possibly-active (it gained a flit).
    fn arm_router(&mut self, node: usize) {
        self.shards[usize::from(self.node_shard[node])]
            .router_set
            .insert(idx32(node));
    }

    /// Marks an injector possibly-active (it gained work).
    fn arm_injector(&mut self, node: usize, channel: usize) {
        self.shards[usize::from(self.node_shard[node])]
            .injector_set
            .insert(idx32(node * self.cfg.inject_channels + channel));
    }

    /// Parks `flit` on link `li`'s lane `vc`, due at `arrive`, keeping
    /// the link's active-set membership and wake estimate current.
    /// `li` is an original link index; state lives at the permuted
    /// slot.
    fn push_onto_link(&mut self, li: usize, vc: VcId, arrive: Cycle, flit: Flit) {
        let pi = self.link_perm[li] as usize;
        let (s, l) = self.link_slot(pi);
        let sh = &mut self.shards[s];
        sh.links[l].lanes[vc.index()].push_back((arrive, flit));
        sh.links[l].occupied += 1;
        if sh.link_set.insert(idx32(pi)) || arrive < sh.wake[l] {
            sh.wake[l] = arrive;
        }
    }

    /// [`Injector::enqueue`] keeping the undrained counter and the
    /// active set current.
    fn injector_enqueue(&mut self, node: usize, channel: usize, msg: PendingMessage) {
        let inj = self.injector_mut(node, channel);
        let was_drained = inj.is_drained();
        inj.enqueue(msg);
        if was_drained {
            self.undrained_injectors += 1;
        }
        self.arm_injector(node, channel);
    }

    /// [`Injector::on_killed`] keeping the undrained counter and the
    /// active set current (a backward kill can re-queue a vulnerable
    /// message into an otherwise idle injector).
    fn injector_on_killed(
        &mut self,
        node: usize,
        channel: usize,
        now: Cycle,
        worm: WormId,
    ) -> Option<(u32, Cycle)> {
        let inj = self.injector_mut(node, channel);
        let was_drained = inj.is_drained();
        let retx = inj.on_killed(now, worm);
        match (was_drained, inj.is_drained()) {
            (true, false) => self.undrained_injectors += 1,
            (false, true) => self.undrained_injectors -= 1,
            _ => {}
        }
        self.arm_injector(node, channel);
        retx
    }

    /// [`Injector::on_delivered`] keeping the undrained counter
    /// current.
    fn injector_on_delivered(&mut self, node: usize, channel: usize, message: MessageId) {
        let inj = self.injector_mut(node, channel);
        let was_drained = inj.is_drained();
        inj.on_delivered(message);
        if !was_drained && inj.is_drained() {
            self.undrained_injectors -= 1;
        }
    }

    /// `(node, channel)` of the injector that sent `message`, unless
    /// delivery already retired it.
    fn source_of(&self, message: MessageId) -> Option<(usize, usize)> {
        match self.worm_sources.get(message.as_u64() as usize) {
            Some(&encoded) if encoded != SOURCE_GONE => {
                let chans = self.cfg.inject_channels;
                Some((encoded as usize / chans, encoded as usize % chans))
            }
            _ => None,
        }
    }

    /// The sequence number the next message from `src` to `dst` will
    /// carry.
    pub(crate) fn next_flow_seq(&self, src: NodeId, dst: NodeId) -> u64 {
        self.seq_counters.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Queues a message for transmission, bypassing the traffic
    /// sources — the programmatic send API used by the examples.
    ///
    /// Returns the message id.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, if either node is out of range, or if
    /// `payload_len < 2`.
    pub fn send_message(&mut self, src: NodeId, dst: NodeId, payload_len: u32) -> MessageId {
        let nodes = self.wiring.topo.num_nodes();
        assert!(src.index() < nodes, "src out of range");
        assert!(dst.index() < nodes, "dst out of range");
        assert_ne!(src, dst, "self-addressed message");
        assert!(payload_len >= 2, "a worm needs a head and a tail");
        let id = MessageId::new(self.next_message_id);
        self.next_message_id += 1;
        let msg_seq = self.next_flow_seq(src, dst);
        self.seq_counters.insert((src, dst), msg_seq + 1);
        let hops = self.wiring.topo.distance(src, dst);
        let budget = self.cfg.routing.misroute_budget() as usize;
        let channel = dst.index() % self.cfg.inject_channels;
        let msg = PendingMessage {
            id,
            src,
            dst,
            payload_len,
            msg_seq,
            created: self.now,
            hops,
            i_min: self.cfg.i_min(hops + budget),
            attempts: 0,
        };
        // Message ids are dense and monotonic, so the source table is
        // a plain push-indexed vector.
        debug_assert_eq!(self.worm_sources.len() as u64, id.as_u64());
        let encoded = idx32(src.index() * self.cfg.inject_channels + channel);
        debug_assert_ne!(encoded, SOURCE_GONE);
        self.worm_sources.push(encoded);
        self.injector_enqueue(src.index(), channel, msg);
        self.counters.messages_generated += 1;
        id
    }

    /// Schedules every message of `trace` for injection at its
    /// recorded time (events already in the past fire immediately).
    /// Composes with Bernoulli traffic and [`Network::send_message`].
    ///
    /// # Panics
    ///
    /// Panics if any event is self-addressed or out of range (checked
    /// when the event fires).
    pub fn schedule_trace(&mut self, trace: &cr_traffic::Trace) {
        // Insert each event behind its equal-time peers: that is the
        // order a stable sort of old-then-new would produce, and
        // equal-time firing order is observable (it fixes message-id
        // assignment), so it must not change.
        for &e in trace.events() {
            let pos = self.scheduled.partition_point(|queued| queued.at <= e.at);
            self.scheduled.insert(pos, e);
        }
    }

    /// Trace events not yet fired.
    pub fn scheduled_len(&self) -> usize {
        self.scheduled.len()
    }

    /// Advances the simulation one cycle.
    pub fn step(&mut self) {
        let now = self.now;

        // Live churn fires first, as serial orchestrator code shared
        // by every stepper — dense, active, and sharded all see the
        // same dead-link set for the whole cycle, which is what keeps
        // them byte-identical under churn (DESIGN.md §13).
        self.apply_churn(now);
        if !self.ever_dead && self.faults.num_dead_links() > 0 {
            self.ever_dead = true;
        }

        self.phase_arrivals(now);
        self.phase_tokens(now);
        if let Some(threshold) = self.cfg.path_wide_threshold {
            self.phase_path_wide(now, threshold);
        }
        self.phase_traffic(now);
        self.phase_injection(now);
        self.phase_route_and_traverse(now);
        self.phase_bookkeeping(now);

        self.now.tick();
    }

    /// Runs for `cycles` cycles (stopping early on deadlock) and
    /// returns the report.
    pub fn run(&mut self, cycles: u64) -> SimReport {
        let end = Cycle::new(self.now.as_u64().saturating_add(cycles));
        while self.now < end {
            if self.deadlocked {
                break;
            }
            if !self.reference_stepper {
                // Skip stretches of provably idle cycles. Jumping to
                // `end` exactly matches the dense stepper ticking
                // no-op cycles until the loop bound.
                self.fast_forward(end);
                if self.now >= end {
                    break;
                }
            }
            self.step();
        }
        self.report()
    }

    /// Runs until all traffic has drained (sources willing, injectors
    /// empty, network empty) or `max_cycles` elapse; returns `true` if
    /// quiescent. O(1) per cycle: the drain condition reads the
    /// incrementally maintained counters.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        let end = Cycle::new(self.now.as_u64().saturating_add(max_cycles));
        while self.now < end {
            if self.deadlocked {
                return false;
            }
            if self.is_quiescent() {
                return true;
            }
            if !self.reference_stepper {
                // The quiescence predicate cannot change across
                // skipped cycles (they are no-ops), so checking once
                // before the jump matches the dense per-cycle check.
                self.fast_forward(end);
                if self.now >= end {
                    break;
                }
            }
            self.step();
        }
        false
    }

    /// Post-warmup channel utilization: (mean, max) flits per cycle
    /// per link, over the measurement window so far.
    pub fn channel_utilization(&self) -> (f64, f64) {
        let window = self.now.as_u64().saturating_sub(self.cfg.warmup);
        if window == 0 || self.link_flits.is_empty() {
            return (0.0, 0.0);
        }
        let sum: u64 = self.link_flits.iter().sum();
        let max: u64 = self.link_flits.iter().copied().max().unwrap_or(0);
        (
            sum as f64 / self.link_flits.len() as f64 / window as f64,
            max as f64 / window as f64,
        )
    }

    /// Builds the report for the run so far.
    pub fn report(&self) -> SimReport {
        let mut counters = self.counters;
        for r in self.routers() {
            counters.escape_allocations += r.counters().escape_allocations;
            counters.unroutable_headers += r.counters().unroutable_headers;
            counters.orphan_flits_dropped += r.counters().orphan_flits_dropped;
            counters.flits_flushed += r.counters().flits_flushed;
        }
        for rx in self.receivers() {
            counters.out_of_order_arrivals += rx.counters().out_of_order_arrivals;
            counters.duplicates_dropped += rx.counters().duplicates_dropped;
            counters.partials_discarded += rx.counters().partials_discarded;
        }
        let stats = self.trace.stats();
        let mut trace = TraceSummary {
            enabled: self.trace.enabled(),
            events_emitted: stats.emitted,
            events_dropped: stats.dropped,
            links: self.link_perm.len() as u64,
            ..TraceSummary::default()
        };
        let mut totals = LinkStats::default();
        for (_, s) in self.link_stall_stats() {
            totals.merge(&s);
            trace.max_link_stall_cycles = trace.max_link_stall_cycles.max(s.stall_total());
        }
        trace.stall_busy_cycles = totals.stall_busy;
        trace.stall_dead_link_cycles = totals.stall_dead_link;
        trace.stall_backpressure_cycles = totals.stall_backpressure;
        trace.link_flits_forwarded = totals.flits_forwarded;
        let (util_mean, util_max) = self.channel_utilization();
        SimReport {
            channel_utilization_mean: util_mean,
            channel_utilization_max: util_max,
            cycles: self.now.as_u64(),
            warmup: self.cfg.warmup,
            num_nodes: self.wiring.topo.num_nodes(),
            offered_load: self.offered_load,
            accepted_flits_per_node_cycle: self.throughput.flits_per_node_cycle(self.now),
            latency: self.latency.stats().clone(),
            latency_percentiles: (
                self.latency.percentile(0.50),
                self.latency.percentile(0.95),
                self.latency.percentile(0.99),
            ),
            latency_histogram: self.latency.histogram().clone(),
            counters,
            trace,
            churn: ChurnSummary {
                events: self
                    .churn_trackers
                    .iter()
                    .map(|t| ChurnEventReport {
                        at: t.at.as_u64(),
                        kind: t.kind.to_string(),
                        subject: t.subject,
                        links_killed: t.links_killed,
                        links_revived: t.links_revived,
                        affected_messages: t.affected_total,
                        drained: t.drained_at.is_some(),
                        time_to_drain: t.drained_at.map(|d| d - t.at).unwrap_or(0),
                    })
                    .collect(),
            },
            deadlocked: self.deadlocked,
            flits_in_flight: self.flits_in_flight(),
        }
    }

    // ------------------------------------------------------------------
    // Live fault churn (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Fires every churn entry due at cycle `now`: flips the fault
    /// model's dead-link set, keeps the upstream routers' dead-out
    /// flags in sync (the diagnosed-fault model is live state, not a
    /// construction-time decision), re-arms revived endpoints in the
    /// active sets, emits `link_killed` / `link_revived` trace events,
    /// and opens one drain tracker per event.
    ///
    /// Runs as serial orchestrator code at the top of [`Network::step`]
    /// before any phase, so all three steppers observe the same
    /// dead-link set for the whole cycle. Flits already in flight on a
    /// killed link are *not* flushed here: corruption is assessed at
    /// arrival time (the arrivals body reads the live fault model),
    /// exactly as with static faults.
    fn apply_churn(&mut self, now: Cycle) {
        match self.faults.next_churn_at() {
            Some(at) if at <= now => {}
            _ => return,
        }
        let mut firings = std::mem::take(&mut self.churn_firings);
        firings.clear();
        let wiring = Arc::clone(&self.wiring);
        let faults = self.faults_mut();
        faults.apply_churn_due(&*wiring.topo, now, &mut firings);
        let num_vcs = self.wiring.routing.num_vcs();
        for f in &firings {
            let mut affected: Vec<MessageId> = Vec::new();
            for &id in &f.killed {
                let li = self.link_by_id[id.index()] as usize;
                let (dst, dst_port) = self.wiring.link_head[li];
                if let Some((src, src_port)) = self.wiring.in_upstream[dst][dst_port.index()] {
                    let router = self.router_mut(src);
                    router.set_dead_out(src_port);
                    // Worms holding the upstream output are stranded
                    // mid-transmission by this kill.
                    for v in 0..num_vcs {
                        let vc = VcId::from_index(v);
                        if let Some((ip, ivc)) = router.output_owner(src_port, vc) {
                            if let Some(w) = router.worm_of(ip, ivc) {
                                affected.push(w.message);
                            }
                        }
                    }
                }
                // Flits already on the wire arrive corrupted.
                for lane in &self.link(self.link_perm[li] as usize).lanes {
                    for (_, flit) in lane {
                        affected.push(flit.worm.message);
                    }
                }
                self.trace.emit(|| Event::LinkKilled { at: now, link: id });
            }
            for &id in &f.revived {
                let li = self.link_by_id[id.index()] as usize;
                let (dst, dst_port) = self.wiring.link_head[li];
                if let Some((src, src_port)) = self.wiring.in_upstream[dst][dst_port.index()] {
                    self.router_mut(src).clear_dead_out(src_port);
                    // Re-arm the upstream endpoint: a worm parked there
                    // waiting out the dead port must be reconsidered by
                    // the active stepper (dense sweeps everything
                    // anyway; extra set members are no-op skips, so
                    // byte-identity holds).
                    self.arm_router(src);
                }
                self.arm_router(dst);
                self.trace.emit(|| Event::LinkRevived { at: now, link: id });
            }
            affected.retain(|m| self.worm_sources[m.as_u64() as usize] != SOURCE_GONE);
            affected.sort_unstable();
            affected.dedup();
            let drained_at = if affected.is_empty() { Some(now) } else { None };
            if drained_at.is_none() {
                self.churn_undrained += 1;
            }
            self.churn_trackers.push(ChurnTracker {
                at: now,
                kind: f.event.kind(),
                subject: f.event.subject(),
                links_killed: f.killed.len() as u64,
                links_revived: f.revived.len() as u64,
                affected_total: affected.len() as u64,
                affected,
                drained_at,
            });
        }
        self.churn_firings = firings;
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Drops `worm`'s flits parked in the channel feeding
    /// `(node, in_port)`, restoring their credits — teardown of the
    /// stall-holding link stage.
    fn purge_link_into(&mut self, node: usize, in_port: PortId, vc: VcId, worm: cr_router::WormId) {
        let Some((up_node, up_out)) = self.wiring.in_upstream[node][in_port.index()] else {
            return;
        };
        let Some(li) = self.wiring.out_link[up_node][up_out.index()] else {
            return;
        };
        let (s, l) = self.link_slot(self.link_perm[li] as usize);
        let link = &mut self.shards[s].links[l];
        let before = link.lanes[vc.index()].len();
        link.lanes[vc.index()].retain(|(_, f)| f.worm != worm);
        let purged = before - link.lanes[vc.index()].len();
        link.occupied -= purged;
        self.live_flits -= purged;
        for _ in 0..purged {
            self.counters.flits_dropped_killed += 1;
            self.router_mut(up_node).add_credit(up_out, vc);
        }
    }

    fn phase_tokens(&mut self, now: Cycle) {
        if self.fwd_tokens.is_empty() && self.bwd_tokens.is_empty() {
            // Provably a no-op (every schedule): the walk loops run
            // zero iterations and nothing else is touched.
            return;
        }
        if self.cfg.ablations.instant_teardown {
            // Idealized kill wire: complete every teardown walk within
            // the cycle. Each pass moves every token one hop; walks are
            // bounded by the longest path, so this terminates.
            while !self.fwd_tokens.is_empty() || !self.bwd_tokens.is_empty() {
                self.step_tokens_once(now);
            }
            return;
        }
        self.step_tokens_once(now);
    }

    fn step_tokens_once(&mut self, now: Cycle) {
        // Forward tokens: walk toward the destination. Swapping with
        // the scratch buffer (instead of `mem::take`) lets both lists
        // keep their capacity across teardown steps.
        self.fwd_scratch.clear();
        std::mem::swap(&mut self.fwd_tokens, &mut self.fwd_scratch);
        for i in 0..self.fwd_scratch.len() {
            let t = self.fwd_scratch[i];
            self.flush_forward(t.node, t.port, t.vc, t.worm);
        }

        // Backward tokens: walk toward the source, ending at its
        // injector.
        self.bwd_scratch.clear();
        std::mem::swap(&mut self.bwd_tokens, &mut self.bwd_scratch);
        for i in 0..self.bwd_scratch.len() {
            let t = self.bwd_scratch[i];
            let _ = self.flush_and_credit(t.node, t.port, t.vc, t.worm);
            self.continue_backward(now, t);
        }
    }

    /// Path-wide detection over every router (dense) or the router
    /// sets (active), ascending. A stalled worm needs a buffered flit,
    /// so only routers in the sets can trigger. The sets are read, not
    /// drained — routing owns their drain-and-rebuild — and kills arm
    /// injectors, never routers, so the list is stable while walked.
    fn phase_path_wide(&mut self, now: Cycle, threshold: u64) {
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        if self.reference_stepper {
            ids.extend((0..self.node_shard.len()).map(idx32));
        } else {
            // Shards own contiguous node ranges: walking the sets in
            // shard order is globally ascending.
            for sh in &mut self.shards {
                sh.router_set.sort();
                ids.extend((0..sh.router_set.len()).map(|k| sh.router_set.get(k)));
            }
        }
        let mut stalled = std::mem::take(&mut self.stall_scratch);
        for &node in &ids {
            let node = node as usize;
            stalled.clear();
            self.router_mut(node)
                .stalled_worms_into(now, threshold, &mut stalled);
            for &(port, vc, worm) in &stalled {
                if self.killed.contains(worm) {
                    continue;
                }
                self.counters.kills_path_wide += 1;
                if let Some((sn, sc)) = self.source_of(worm.message) {
                    if self.injector(NodeId::from_index(sn), sc).is_committed(worm) {
                        self.counters.kills_committed += 1;
                    }
                }
                self.kill_worm_at(now, node, port, vc, worm, KillCause::PathWide);
            }
        }
        self.stall_scratch = stalled;
        self.ids_scratch = ids;
    }

    fn phase_traffic(&mut self, now: Cycle) {
        while self.scheduled.front().is_some_and(|e| e.at <= now) {
            let Some(e) = self.scheduled.pop_front() else {
                break; // unreachable: front() just succeeded
            };
            self.send_message(e.src, e.dst, e.length);
        }
        for n in 0..self.sources.len() {
            if let Some(req) = self.sources[n].poll() {
                self.send_message(NodeId::from_index(n), req.dst, idx32(req.length));
            }
        }
    }

    fn phase_bookkeeping(&mut self, now: Cycle) {
        if now.as_u64().is_multiple_of(256) {
            self.prune_registries(now);
        }
        if self.churn_undrained > 0 {
            // Retire delivered messages from open churn trackers.
            // Deliveries only happen on stepped cycles and bookkeeping
            // runs on every stepped cycle, so `drained_at` lands on
            // the same cycle under every stepper.
            let sources = &self.worm_sources;
            for t in &mut self.churn_trackers {
                if t.drained_at.is_some() {
                    continue;
                }
                t.affected
                    .retain(|m| sources[m.as_u64() as usize] != SOURCE_GONE);
                if t.affected.is_empty() {
                    t.drained_at = Some(now);
                    self.churn_undrained -= 1;
                }
            }
        }
        if now.saturating_since(self.last_progress) > self.cfg.deadlock_threshold
            && self.flits_in_flight() > 0
        {
            self.deadlocked = true;
        }
    }

    /// Expires old killed-registry and receiver bookkeeping as of
    /// cycle `now`. Both prunes are monotone in `now` (an entry
    /// removed at `t` is removed at every `t' > t`), so one catch-up
    /// call at the last skipped prune cycle is equivalent to the
    /// dense stepper's sequence of prunes — the fast-forward path
    /// relies on exactly that.
    fn prune_registries(&mut self, now: Cycle) {
        let lifetime = self.registry_lifetime;
        self.killed_mut()
            .retain(|t| now.saturating_since(t) < lifetime);
        let horizon = Cycle::new(now.as_u64().saturating_sub(4 * lifetime));
        for rx in self.shards.iter_mut().flat_map(|sh| &mut sh.receivers) {
            rx.prune(horizon);
        }
    }

    // ------------------------------------------------------------------
    // Cycle fast-forward
    // ------------------------------------------------------------------

    /// Jumps `now` to the earliest cycle at which anything can happen
    /// (clamped to `end`), when — and only when — every cycle in
    /// between is provably identical to a dense no-op step:
    ///
    /// * no traffic sources (each `poll` draws RNG every cycle);
    /// * no teardown tokens in flight;
    /// * every router in the active set is empty with no open stall
    ///   streak (so routing/traversal do nothing and close no streak);
    /// * every injector in the set is either stale or backing off
    ///   with a future resume cycle (`step` early-returns untouched);
    /// * every link in the set is empty or has no flit due yet.
    ///
    /// The jump target is the minimum of: the next scheduled traffic
    /// event, the earliest retransmission-backoff resume, the
    /// earliest link arrival, and — when flits are in flight — the
    /// first cycle the deadlock watchdog could fire, so a deadlock is
    /// declared at exactly the dense cycle. Skipped registry prunes
    /// are replayed as one catch-up [`Network::prune_registries`].
    fn fast_forward(&mut self, end: Cycle) {
        if !self.sources.is_empty()
            || !self.fwd_tokens.is_empty()
            || !self.bwd_tokens.is_empty()
        {
            return;
        }
        let now = self.now;
        let mut target = end;
        let chans = self.cfg.inject_channels;
        for sh in &self.shards {
            for k in 0..sh.router_set.len() {
                let r = &sh.routers[sh.router_set.get(k) as usize - sh.node_lo];
                if r.total_occupancy() > 0 || r.has_open_streaks() {
                    return;
                }
            }
            for k in 0..sh.injector_set.len() {
                let id = sh.injector_set.get(k) as usize;
                let inj = &sh.injectors[id / chans - sh.node_lo][id % chans];
                if !inj.has_step_work() {
                    continue; // stale entry
                }
                match inj.backoff_resume() {
                    Some(resume) if resume > now => target = target.min(resume),
                    _ => return, // sending or resuming now: must step
                }
            }
            for k in 0..sh.link_set.len() {
                let l = sh.link_set.get(k) as usize - sh.links_lo;
                if sh.links[l].occupied == 0 {
                    continue; // purged empty since it was armed
                }
                if sh.wake[l] <= now {
                    // Due (or a conservative stale-early estimate): step.
                    return;
                }
                target = target.min(sh.wake[l]);
            }
        }
        if let Some(e) = self.scheduled.front() {
            if e.at <= now {
                return;
            }
            target = target.min(e.at);
        }
        if let Some(at) = self.faults.next_churn_at() {
            // Pending churn is a wake source: the event cycle itself is
            // always stepped, never jumped past, so churn applies at
            // exactly the dense cycle.
            if at <= now {
                return;
            }
            target = target.min(at);
        }
        if self.live_flits > 0 {
            // First cycle at which `saturating_since(last_progress) >
            // deadlock_threshold` holds — the watchdog must observe it.
            target = target.min(self.last_progress + (self.cfg.deadlock_threshold + 1));
        }
        if target <= now {
            return;
        }
        // Catch-up prune for the skipped cycles [now, target - 1]: the
        // latest multiple-of-256 cycle in that range subsumes them all
        // (prunes are monotone in `now`).
        let last_skipped = target.as_u64() - 1;
        let prune_at = last_skipped - (last_skipped % 256);
        if prune_at >= now.as_u64() {
            self.prune_registries(Cycle::new(prune_at));
        }
        self.now = target;
    }

    // ------------------------------------------------------------------
    // Kill machinery
    // ------------------------------------------------------------------

    fn kill_worm_at(
        &mut self,
        now: Cycle,
        node: usize,
        port: PortId,
        vc: VcId,
        worm: WormId,
        cause: KillCause,
    ) {
        self.killed_mut().insert(worm, now);
        if cause == KillCause::Fault {
            self.counters.kills_fault += 1;
        }
        self.trace.emit(|| Event::Kill {
            at: now,
            node: NodeId::from_index(node),
            message: worm.message,
            attempt: worm.attempt,
            cause,
        });
        // Tear down from the kill point toward the destination.
        self.flush_forward(node, port, vc, worm);
        // And from the kill point toward the source (no-op for
        // source-initiated kills, whose kill point is the injection
        // FIFO itself).
        if cause != KillCause::SourceTimeout {
            let t = Token {
                worm,
                node,
                port,
                vc,
            };
            self.continue_backward(now, t);
        }
    }

    /// Moves a backward token one hop toward the source; notifies the
    /// injector when it gets there (or when the chain has already
    /// drained behind the worm's tail).
    fn continue_backward(&mut self, now: Cycle, t: Token) {
        if self.router_at(t.node).port_kind(t.port) == PortKind::Inject {
            let channel = t.port.index() - self.wiring.topo.num_ports(NodeId::from_index(t.node));
            let retx = self.injector_on_killed(t.node, channel, now, t.worm);
            self.emit_retransmit(now, t.worm.message, retx);
            return;
        }
        let up = self.wiring.in_upstream[t.node][t.port.index()];
        if let Some((up_node, up_out)) = up {
            let up_router = self.router_at(up_node);
            if let Some((ip, iv)) = up_router.output_owner(up_out, t.vc) {
                if up_router.worm_of(ip, iv) == Some(t.worm) {
                    self.bwd_tokens.push(Token {
                        worm: t.worm,
                        node: up_node,
                        port: ip,
                        vc: iv,
                    });
                    return;
                }
            }
        }
        // The upstream chain has already released (the tail passed):
        // notify the source directly.
        self.notify_source(now, t.worm);
    }

    fn notify_source(&mut self, now: Cycle, worm: WormId) {
        if let Some((sn, sc)) = self.source_of(worm.message) {
            let retx = self.injector_on_killed(sn, sc, now, worm);
            self.emit_retransmit(now, worm.message, retx);
        }
    }

    /// Emits a `RetransmitScheduled` event for an
    /// [`Injector::on_killed`] return value (no-op for `None`: stale
    /// and duplicate kill notifications schedule nothing).
    fn emit_retransmit(&mut self, now: Cycle, message: MessageId, retx: Option<(u32, Cycle)>) {
        if let Some((attempt, resume_at)) = retx {
            self.trace.emit(|| Event::RetransmitScheduled {
                at: now,
                message,
                attempt,
                resume_at,
            });
        }
    }

    fn flush_and_credit(
        &mut self,
        node: usize,
        port: PortId,
        vc: VcId,
        worm: WormId,
    ) -> Option<RouteTarget> {
        let router = self.router_mut(node);
        let res = router.flush_worm(port, vc, worm);
        let from_link = router.port_kind(port) == PortKind::Node;
        self.live_flits -= res.flushed;
        if from_link {
            for _ in 0..res.flushed {
                self.credit_into(node, port, vc);
            }
            // Flits of the worm parked in the feeding channel's
            // latches go with the buffer contents.
            self.purge_link_into(node, port, vc, worm);
        }
        res.released
    }

    /// Returns one credit to the router feeding `(node, in_port, vc)`.
    fn credit_into(&mut self, node: usize, in_port: PortId, vc: VcId) {
        if let Some((up_node, up_out)) = self.wiring.in_upstream[node][in_port.index()] {
            self.router_mut(up_node).add_credit(up_out, vc);
        }
    }

    /// Flushes `worm` at `(node, port, vc)` and carries its teardown
    /// one hop toward the destination: a forward token at the next
    /// router, or a discard at this node's receiver.
    fn flush_forward(&mut self, node: usize, port: PortId, vc: VcId, worm: WormId) {
        match self.flush_and_credit(node, port, vc, worm) {
            Some(RouteTarget::Link { port: out, vc }) => {
                if let Some(li) = self.wiring.out_link[node][out.index()] {
                    let (node, port) = self.wiring.link_head[li];
                    self.fwd_tokens.push(Token {
                        worm,
                        node,
                        port,
                        vc,
                    });
                }
            }
            Some(RouteTarget::Eject { .. }) => {
                let (s, l) = self.node_slot(node);
                self.shards[s].receivers[l].discard(worm);
            }
            None => {}
        }
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        // Shut the worker team down (its threads joined) before any
        // shard state is freed. The tasks own their shards outright so
        // no worker can reference freed state even without this, but
        // the explicit order keeps teardown deterministic and lets the
        // no-thread-leak regression test assert it.
        self.team = None;
    }
}
