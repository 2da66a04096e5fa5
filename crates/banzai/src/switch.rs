//! The whole-switch view of Figure 1: packets traverse an **ingress
//! pipeline**, are queued, and then traverse an **egress pipeline** before
//! transmission.
//!
//! Table 4 assigns each algorithm to one of the two pipelines (flowlet
//! routing decisions happen at ingress; RCP/HULL/CoDel queue measurements
//! at egress, where sojourn times are known). Both pipelines are ordinary
//! Banzai machines; the queue between them is one bounded PIFO (a
//! drop-tail FIFO by default, see [`crate::pifo`]) whose occupancy and
//! sojourn timestamps are exposed to egress programs as packet metadata —
//! exactly the metadata real switch schedulers provide.
//!
//! The switch is generic over its [`PipelineEngine`]: the map-based
//! reference [`Machine`] (the default) or the slot-compiled
//! [`SlotMachine`] fast path — the two are observably identical, which the
//! differential throughput harness asserts.
//!
//! Inside the switch a packet is carried flat: one [`FlatPacket`] over
//! the switch's one [`FieldTable`], built when the switch is built, plus
//! the input [`Packet`] for the fields outside it (see [`Switch`]). The
//! engines, the queue's metadata stamps and the scheduler's key all
//! address slots; a `Packet` is built once, at the sink, from the table's
//! shared names. Engines without a flat path run through
//! [`PipelineEngine::process_carried`]'s default adapter.

use crate::error::{FaultReport, ShardSalvage, SourceFault, SwitchError};
use crate::machine::{AtomPipeline, Machine};
use crate::pifo::{KeySlots, Pifo, SchedKey, SchedSpec, Scheduler};
use crate::slot::SlotMachine;
use crate::stream::{
    FrameSource, IntoFrameSource, IntoPacketSource, PacketSource, RunStats, SourceError,
};
use crate::wire::{self, ParseVerdict, WireConfig, WireLayout};
use domino_ir::{FieldId, FieldTable, FlatPacket, Packet, StateStore};
use std::fmt;
use std::sync::Arc;

/// An execution engine a [`Switch`] can drive a pipeline with.
///
/// Implemented by the map-based reference [`Machine`] and by the
/// slot-compiled [`SlotMachine`]; both process one packet per clock and
/// expose their persistent state for inspection. `build` and
/// `import_state` are the hooks the sharded switch (`crate::shard`) uses
/// to instantiate one independent engine per partition and warm-start it
/// from a serial checkpoint.
///
/// A switch carries each packet flat (see [`Switch`]), so it drives an
/// engine through the provided flat methods. An engine with a native
/// flat path ([`SlotMachine`]) overrides all three; any other engine —
/// the map [`Machine`], a wrapper that only implements the four required
/// methods — gets the default adapter, which materializes a [`Packet`],
/// runs [`PipelineEngine::process`] and absorbs the result.
pub trait PipelineEngine {
    /// Instantiates an engine (with fresh state) for a compiled pipeline.
    fn build(pipeline: &AtomPipeline) -> Result<Self, SwitchError>
    where
        Self: Sized;

    /// Runs one packet through every stage (transactional view).
    fn process(&mut self, pkt: Packet) -> Packet;

    /// Snapshot of the engine's persistent state, in map form.
    fn export_state(&self) -> StateStore;

    /// Overwrites the engine's persistent state from a snapshot (the
    /// inverse of [`PipelineEngine::export_state`]; shapes must match).
    fn import_state(&mut self, snapshot: &StateStore);

    /// The fields the engine's native flat path reads and writes, which a
    /// switch interns in its one table; `None` (the default) for an
    /// engine with no flat path.
    fn flat_table(&self) -> Option<&Arc<FieldTable>> {
        None
    }

    /// Re-targets the native flat path at a switch's table, which interns
    /// every field of [`PipelineEngine::flat_table`]. The default has
    /// nothing to re-target.
    fn bind_flat(&mut self, _table: &Arc<FieldTable>) {}

    /// Runs one carried packet through every stage in place: `flat` holds
    /// the fields of the table the engine was bound to, `rest` the input
    /// packet whose other fields ride along (for a field in the table,
    /// the slot is authoritative when present).
    ///
    /// The default is the adapter for engines without a flat path:
    /// materialize the packet, [`PipelineEngine::process`] it, and absorb
    /// the result — every table field back into `flat`, the whole packet
    /// into `rest`.
    fn process_carried(&mut self, flat: &mut FlatPacket, rest: &mut Packet) {
        let out = self.process(flat.merged_with(std::mem::take(rest)));
        flat.load(&out);
        *rest = out;
    }
}

impl PipelineEngine for Machine {
    fn build(pipeline: &AtomPipeline) -> Result<Machine, SwitchError> {
        Ok(Machine::new(pipeline.clone()))
    }

    fn process(&mut self, pkt: Packet) -> Packet {
        Machine::process(self, pkt)
    }

    fn export_state(&self) -> StateStore {
        self.state().clone()
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        Machine::import_state(self, snapshot)
    }
}

impl PipelineEngine for SlotMachine {
    fn build(pipeline: &AtomPipeline) -> Result<SlotMachine, SwitchError> {
        SlotMachine::compile(pipeline).map_err(SwitchError::build)
    }

    fn process(&mut self, pkt: Packet) -> Packet {
        SlotMachine::process(self, pkt)
    }

    fn export_state(&self) -> StateStore {
        SlotMachine::export_state(self)
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        SlotMachine::import_state(self, snapshot)
    }

    fn flat_table(&self) -> Option<&Arc<FieldTable>> {
        Some(self.field_table())
    }

    fn bind_flat(&mut self, table: &Arc<FieldTable>) {
        self.rebind(table)
            .expect("a switch's table interns every field of its engines' tables");
    }

    fn process_carried(&mut self, flat: &mut FlatPacket, _rest: &mut Packet) {
        debug_assert!(
            Arc::ptr_eq(flat.table(), self.field_table()) || **flat.table() == **self.field_table()
        );
        self.process_flat(flat);
    }
}

/// Why a switch dropped a packet — the observability split between
/// congestion losses and malformed traffic.
///
/// A real switch's counters distinguish tail drops from parser discards;
/// conflating them (as a single `drops` total once did) makes a burst of
/// garbage frames indistinguishable from congestion. Every drop anywhere
/// in the switch is exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The packet parsed (or arrived parsed) but the FIFO was at
    /// capacity — a congestion loss.
    QueueFull,
    /// The frame failed the wire parse graph with this verdict — a
    /// malformed-traffic discard, before ingress ever ran.
    Parse(ParseVerdict),
    /// The packet was shed at the sharded switch's dispatcher because the
    /// target shard's batch ring was full and the overload policy is
    /// [`Backpressure::Shed`](crate::shard::Backpressure::Shed) — an
    /// overload loss upstream of any per-shard queue.
    Backpressure,
    /// The packet parsed and cleared ingress, but the **programmed
    /// scheduler** ([`crate::pifo`]: rank, shaping, or strict priority — any
    /// non-FIFO [`SchedSpec`]) was at capacity — a congestion loss on a
    /// rank-ordered queue, split from [`DropReason::QueueFull`] so a
    /// drowning scheduler is distinguishable from a drowning drop-tail
    /// FIFO.
    SchedFull,
}

impl DropReason {
    /// Number of distinct reasons (queue-full, one per parse verdict,
    /// backpressure, sched-full).
    pub const COUNT: usize = 3 + ParseVerdict::COUNT;

    /// Dense index of this reason (0 is queue-full; parse verdicts follow
    /// in [`ParseVerdict::ALL`] order; then backpressure, then
    /// sched-full).
    ///
    /// New reasons are **appended**, never inserted: the dense index is
    /// part of exported diagnostics (`BENCH_throughput.json`, merged
    /// counters), so existing indices must stay stable —
    /// `tests/drop_reasons.rs` golden-pins the full assignment.
    pub fn index(self) -> usize {
        match self {
            DropReason::QueueFull => 0,
            DropReason::Parse(v) => 1 + v.index(),
            DropReason::Backpressure => 1 + ParseVerdict::COUNT,
            DropReason::SchedFull => 2 + ParseVerdict::COUNT,
        }
    }

    /// Every reason, in dense-index order.
    pub fn all() -> impl Iterator<Item = DropReason> {
        std::iter::once(DropReason::QueueFull)
            .chain(ParseVerdict::ALL.into_iter().map(DropReason::Parse))
            .chain([DropReason::Backpressure, DropReason::SchedFull])
    }

    /// Stable snake_case label (counter name in logs and bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::Parse(v) => v.label(),
            DropReason::Backpressure => "backpressure",
            DropReason::SchedFull => "sched_full",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-reason drop counters: one saturating-free `u64` per
/// [`DropReason`], cheap enough to bump on the per-packet path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropCounters {
    counts: [u64; DropReason::COUNT],
}

impl Default for DropCounters {
    fn default() -> Self {
        DropCounters {
            counts: [0; DropReason::COUNT],
        }
    }
}

impl DropCounters {
    /// All-zero counters.
    pub fn new() -> DropCounters {
        DropCounters::default()
    }

    pub(crate) fn bump(&mut self, reason: DropReason) {
        self.counts[reason.index()] += 1;
    }

    pub(crate) fn bump_by(&mut self, reason: DropReason, n: u64) {
        self.counts[reason.index()] += n;
    }

    /// Drops recorded for one reason.
    pub fn get(&self, reason: DropReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total drops across every reason (what `Switch::drops` reports).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Congestion losses (the queue-full reason alone).
    pub fn queue_full(&self) -> u64 {
        self.counts[DropReason::QueueFull.index()]
    }

    /// Overload sheds at the sharded dispatcher (the backpressure reason
    /// alone; always 0 on a serial [`Switch`]).
    pub fn backpressure(&self) -> u64 {
        self.counts[DropReason::Backpressure.index()]
    }

    /// Congestion losses on a programmed (non-FIFO) scheduler (the
    /// sched-full reason alone; always 0 under the default FIFO policy).
    pub fn sched_full(&self) -> u64 {
        self.counts[DropReason::SchedFull.index()]
    }

    /// Malformed-traffic discards (every parse verdict summed).
    pub fn parse_total(&self) -> u64 {
        self.total() - self.queue_full() - self.backpressure() - self.sched_full()
    }

    /// Adds another set of counters into this one (shard merging).
    pub fn merge(&mut self, other: &DropCounters) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The per-reason difference since an earlier snapshot — what one
    /// run contributed to cumulative counters.
    pub(crate) fn since(&self, earlier: &DropCounters) -> DropCounters {
        let mut diff = DropCounters::new();
        for (i, (now, then)) in self.counts.iter().zip(&earlier.counts).enumerate() {
            diff.counts[i] = now - then;
        }
        diff
    }

    /// Iterates `(reason, count)` in dense-index order.
    pub fn iter(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::all().map(|r| (r, self.counts[r.index()]))
    }
}

/// One transmitted packet of a scheduling run ([`SchedRun::collect`]):
/// the packet after egress, plus the scheduling observables the
/// invariant suites assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedDeparture {
    /// The packet's arrival cycle (0-based within the run).
    pub arrival: i64,
    /// The key the scheduler ordered it by.
    pub key: SchedKey,
    /// The cycle it left the switch (drain starts at `trace.len()`).
    pub departure: i64,
    /// The packet, after the egress pipeline.
    pub pkt: Packet,
}

/// The metadata fields the queue stamps on every packet handed to the
/// egress pipeline: enqueue timestamp, dequeue time, and queue depth.
/// The names are fixed, so sharding's flow-key analysis can treat exactly
/// this set as written before egress (see `crate::shard`).
pub const QUEUE_METADATA_FIELDS: [&str; 3] = ["enq_ts", "now", "qdepth"];

/// A switch: ingress pipeline, a bounded PIFO queue, egress pipeline.
///
/// # The flat carrier
///
/// Every packet crosses the switch as one [`FlatPacket`] over the
/// switch's one [`FieldTable`] — the union of both engines' tables, the
/// [`QUEUE_METADATA_FIELDS`] and the [`SchedSpec`]'s key fields — paired
/// with its input [`Packet`], whose fields outside the table ride along
/// untouched. Ingress, the scheduler's key, the metadata stamps and
/// egress all read and write slots resolved when the switch is built; a
/// `Packet` is built once, at the sink, where the API hands one out
/// ([`Run::collect`], [`Run::for_each`], [`SchedDeparture`], the frame
/// deparser), and never for a dropped packet.
///
/// # Panic freedom
///
/// The run entry points ([`Switch::run`], [`Switch::run_frames`]) never
/// panic on any input trace: malformed frames become typed
/// [`DropReason::Parse`] counters, overfull queues become
/// [`DropReason::QueueFull`] counters, and unsupported configurations are
/// rejected up front as typed [`SwitchError`]s. A panic can only
/// originate inside a custom [`PipelineEngine`] (e.g. a deliberately
/// faulty one — see [`crate::fault`]); the sharded switch supervises even
/// those (see [`crate::shard`]).
#[derive(Debug, Clone)]
pub struct Switch<E: PipelineEngine = Machine> {
    ingress: E,
    egress: E,
    /// The one layout every carried packet uses (both engines are bound
    /// to it).
    table: Arc<FieldTable>,
    /// The slots of [`QUEUE_METADATA_FIELDS`], in that order.
    meta: [FieldId; 3],
    /// The scheduler's key fields, resolved in `table`.
    key: KeySlots,
    /// Flat packets of departed and dropped packets, reused by arrivals.
    spare: Vec<FlatPacket>,
    /// The queue between the pipelines, ordered by the keys `sched`
    /// computes (one key for all, i.e. drop-tail FIFO, by default). Every
    /// run queues here, byte-born packets ([`Switch::run_frames`]) with
    /// their [`WireLayout`].
    queue: Pifo<Queued>,
    /// The scheduling policy: keys, shaping gate and drop reason (see
    /// [`Switch::with_scheduler`]).
    sched: SchedSpec,
    /// Cycles taken to transmit one packet from the queue (≥1): values
    /// above 1 create standing queues under load, which is what egress
    /// AQM algorithms exist to observe.
    drain_period: u64,
    now: i64,
    drops: DropCounters,
    transmitted: u64,
}

/// Flat packets kept for reuse; beyond this, departing ones are freed.
/// Reuse spares two allocations per arrival: about 10% of perfbench
/// `figure1`'s `pkts_per_s` (2-core VM, six alternating runs).
const SPARE_FLATS: usize = 64;

/// The slots of [`QUEUE_METADATA_FIELDS`] in a switch's table.
fn meta_slots(table: &FieldTable) -> [FieldId; 3] {
    QUEUE_METADATA_FIELDS.map(|name| {
        table
            .lookup(name)
            .expect("a switch's table interns the queue metadata")
    })
}

impl Switch<Machine> {
    /// Builds a switch from two compiled pipelines and a queue capacity,
    /// running both on the map-based reference engine.
    pub fn new(ingress: AtomPipeline, egress: AtomPipeline, capacity: usize) -> Switch {
        Switch::from_engines(Machine::new(ingress), Machine::new(egress), capacity)
    }

    /// The ingress machine's state (for inspection).
    pub fn ingress_state(&self) -> &domino_ir::StateStore {
        self.ingress.state()
    }

    /// The egress machine's state (for inspection).
    pub fn egress_state(&self) -> &domino_ir::StateStore {
        self.egress.state()
    }
}

impl Switch<SlotMachine> {
    /// Builds a switch running both pipelines on the slot-compiled fast
    /// path (bit-identical to [`Switch::new`], without per-packet string
    /// hashing inside the pipelines).
    pub fn new_slot(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        capacity: usize,
    ) -> Result<Switch<SlotMachine>, SwitchError> {
        Ok(Switch::from_engines(
            SlotMachine::compile(ingress).map_err(SwitchError::build)?,
            SlotMachine::compile(egress).map_err(SwitchError::build)?,
            capacity,
        ))
    }
}

impl<E: PipelineEngine> Switch<E> {
    /// Builds a switch from two already-instantiated engines (compiled
    /// independently or not: the switch builds its table from both and
    /// binds both to it).
    pub fn from_engines(ingress: E, egress: E, capacity: usize) -> Switch<E> {
        let mut table = FieldTable::new();
        for t in [ingress.flat_table(), egress.flat_table()]
            .into_iter()
            .flatten()
        {
            table.extend_from(t);
        }
        for name in QUEUE_METADATA_FIELDS {
            table.intern(name);
        }
        let table = Arc::new(table);
        let mut sw = Switch {
            ingress,
            egress,
            meta: meta_slots(&table),
            table: Arc::clone(&table),
            key: KeySlots::Fifo,
            spare: Vec::new(),
            queue: Pifo::bounded(capacity),
            sched: SchedSpec::Fifo,
            drain_period: 1,
            now: 0,
            drops: DropCounters::new(),
            transmitted: 0,
        };
        sw.bind(table);
        sw
    }

    /// Makes `table` the switch's layout: binds both engines to it and
    /// resolves the metadata and key slots. Nothing may be queued.
    fn bind(&mut self, table: Arc<FieldTable>) {
        debug_assert!(self.queue.is_empty());
        self.ingress.bind_flat(&table);
        self.egress.bind_flat(&table);
        self.meta = meta_slots(&table);
        self.key = self.sched.resolve(&table);
        self.spare.clear();
        self.table = table;
    }

    /// The switch's one field layout: every carried packet's slots (see
    /// [`Switch`]).
    pub(crate) fn field_table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// Shares another switch's table, which must intern every field this
    /// one does (the sharded switch makes all its switches agree on one
    /// table, so queued packets move between them unchanged). Nothing
    /// may be queued.
    ///
    /// # Panics
    ///
    /// If `table` lacks a field of this switch's table.
    pub(crate) fn adopt_table(&mut self, table: &Arc<FieldTable>) {
        if !Arc::ptr_eq(&self.table, table) {
            assert!(
                table.covers(&self.table),
                "a shared switch table must intern every field of this switch's"
            );
            self.bind(Arc::clone(table));
        }
    }

    /// Sets how many cycles the output link needs per packet (default 1;
    /// larger values model an oversubscribed egress link).
    pub fn with_drain_period(mut self, cycles: u64) -> Switch<E> {
        self.drain_period = cycles.max(1);
        self
    }

    /// Replaces the queue's discipline (default: drop-tail FIFO) with the
    /// given [`SchedSpec`] — a PIFO, shaper, or strict-priority order
    /// whose rank fields an ingress Domino program writes. Call before
    /// running traffic; any queued packets are discarded.
    ///
    /// ```
    /// use banzai::pifo::SchedSpec;
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// // A PIFO ranked by the packets' own `start` field: a burst
    /// // admitted back-to-back departs in rank order, not arrival order.
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// )
    /// .with_scheduler(SchedSpec::Pifo { rank: "start".into() });
    /// let trace: Vec<Packet> = [30, 10, 20]
    ///     .iter()
    ///     .map(|&r| Packet::new().with("start", r))
    ///     .collect();
    /// let deps = sw.run(&trace).scheduled().collect().unwrap();
    /// let order: Vec<i64> = deps.iter().map(|d| d.key.rank).collect();
    /// assert_eq!(order, [10, 20, 30]);
    /// ```
    pub fn with_scheduler(mut self, spec: SchedSpec) -> Switch<E> {
        self.set_scheduler(spec);
        self
    }

    /// The in-place form of [`Switch::with_scheduler`] (the [`Run::sched`]
    /// builder step uses it): replaces the queue's discipline, discarding
    /// any queued packets.
    pub fn set_scheduler(&mut self, spec: SchedSpec) {
        self.queue = Pifo::bounded(self.queue.capacity());
        self.sched = spec;
        if self
            .sched
            .fields()
            .iter()
            .all(|f| self.table.lookup(f).is_some())
        {
            self.key = self.sched.resolve(&self.table);
        } else {
            let mut table = (*self.table).clone();
            for f in self.sched.fields() {
                table.intern(f);
            }
            self.bind(Arc::new(table));
        }
    }

    /// The scheduling policy the queue runs.
    pub fn scheduler(&self) -> &SchedSpec {
        &self.sched
    }

    /// Total packets dropped so far, for any reason (the sum over
    /// [`Switch::drop_counters`]).
    ///
    /// ```
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// // Capacity 2 with a link needing 4 cycles/packet: arrivals outrun
    /// // the drain and the tail drops.
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     2,
    /// )
    /// .with_drain_period(4);
    /// let out = sw.run(&vec![Packet::new(); 10]).collect().unwrap();
    /// assert!(sw.drops() > 0);
    /// // Conservation: every admitted packet is eventually transmitted.
    /// assert_eq!(out.len() as u64, sw.transmitted());
    /// assert_eq!(sw.transmitted() + sw.drops(), 10);
    /// ```
    pub fn drops(&self) -> u64 {
        self.drops.total()
    }

    /// The per-reason drop counters: congestion (queue-full) losses split
    /// from every malformed-traffic parse verdict.
    ///
    /// ```
    /// use banzai::wire::{encode, FrameSpec, ParseVerdict, WireConfig};
    /// use banzai::{AtomPipeline, DropReason, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// let cfg = WireConfig::new();
    /// let good = encode(&Packet::new(), &cfg, &FrameSpec::default());
    /// let runt = good[..9].to_vec(); // cut inside the Ethernet header
    /// let frames = vec![good, runt];
    /// let out = sw.run_frames(&frames, &cfg).collect().unwrap();
    ///
    /// // One frame made it through; the runt was counted by reason.
    /// assert_eq!(out.len(), 1);
    /// let counters = sw.drop_counters();
    /// assert_eq!(
    ///     counters.get(DropReason::Parse(ParseVerdict::TruncatedEthernet)),
    ///     1,
    /// );
    /// assert_eq!(counters.parse_total(), 1);
    /// assert_eq!(counters.queue_full(), 0); // not a congestion loss
    /// assert_eq!(sw.drops(), 1);            // total still sees it
    /// ```
    pub fn drop_counters(&self) -> &DropCounters {
        &self.drops
    }

    /// Number of packets transmitted (fully processed by egress) so far.
    ///
    /// ```
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// sw.run(&vec![Packet::new(); 5]).collect().unwrap();
    /// assert_eq!(sw.transmitted(), 5);
    /// assert_eq!(sw.drops(), 0);
    /// ```
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Current queue occupancy.
    ///
    /// ```
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// assert_eq!(sw.queue_depth(), 0); // empty between full traces
    /// sw.run(&vec![Packet::new(); 8]).collect().unwrap();
    /// assert_eq!(sw.queue_depth(), 0); // a full run drains the queue
    /// assert_eq!(sw.capacity(), 64);
    /// ```
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The queue's capacity (packets beyond this are dropped at enqueue).
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Snapshot of the ingress engine's persistent state.
    pub fn export_ingress_state(&self) -> StateStore {
        self.ingress.export_state()
    }

    /// Snapshot of the egress engine's persistent state.
    pub fn export_egress_state(&self) -> StateStore {
        self.egress.export_state()
    }

    /// Overwrites the ingress engine's state from a snapshot (the
    /// per-partition import hook; shapes must match the pipeline's
    /// declarations).
    pub fn import_ingress_state(&mut self, snapshot: &StateStore) {
        self.ingress.import_state(snapshot);
    }

    /// Overwrites the egress engine's state from a snapshot.
    pub fn import_egress_state(&mut self, snapshot: &StateStore) {
        self.egress.import_state(snapshot);
    }

    /// The stamped-clock precondition of sharded execution: the egress
    /// link must run at line rate.
    ///
    /// With `drain_period == 1` every packet admitted at cycle `t` leaves
    /// at `t + 1` with queue depth 0, independent of what other shards
    /// carry, which is why per-shard runs stamped with global arrival
    /// cycles compose back into the serial behaviour.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Unsupported`] if `drain_period != 1`: an
    /// oversubscribed egress link couples shards through the shared
    /// queue and cannot be partitioned.
    pub(crate) fn line_rate(&self) -> Result<(), SwitchError> {
        if self.drain_period == 1 {
            return Ok(());
        }
        Err(SwitchError::Unsupported(format!(
            "stamped (sharded) execution requires a line-rate egress link \
             (drain_period 1, got {}); a standing queue couples shards",
            self.drain_period
        )))
    }

    /// The run core behind every serial run and every shard lane.
    ///
    /// It pulls arrivals until the source ends or fails. Each packet runs
    /// ingress and is queued under the configured [`SchedSpec`] (or
    /// dropped under the policy's full reason); each rejected frame is
    /// booked under its [`DropReason::Parse`] verdict and still spends
    /// its arrival cycle. The run varies in two ways:
    ///
    /// * **The clock.** An [`Arrivals`] source either stamps each arrival
    ///   with the run's local counter (serial runs: one arrival per
    ///   cycle) or carries its own stamp (shard lanes: the global
    ///   arrival cycle, so queue metadata matches the serial switch).
    /// * **The drain.** [`Drain::Periodic`] departs one packet on every
    ///   `drain_period`-th cycle as the clock advances (a shaper holds
    ///   the head until the cycle its rank names) and empties the queue
    ///   when the source ends. [`Drain::Burst`] only admits: nothing
    ///   departs, and admission is the burst rule "arrival cycle below
    ///   `capacity`", which a shard can apply to global stamps. The
    ///   caller drains with [`Switch::drain_burst`] once every arrival
    ///   is in.
    ///
    /// Returns what was pulled and transmitted, and the source's error if
    /// it failed rather than ended. Everything admitted before a failure
    /// still departs, so the books close with nothing lost.
    pub(crate) fn run_core<A: Arrivals>(
        &mut self,
        src: &mut A,
        drain: Drain,
        emit: &mut dyn FnMut(SchedDeparture, Option<Box<WireLayout>>),
    ) -> (RunStats, Option<SourceError>) {
        let start = match drain {
            Drain::Periodic => self.now,
            Drain::Burst => 0,
        };
        let mut stats = RunStats::default();
        // The cycle after the latest arrival.
        let mut next = start;
        let error = loop {
            let local = start + stats.offered as i64;
            let arrival = match src.next_arrival(local) {
                Ok(Some(arrival)) => arrival,
                Ok(None) => break None,
                Err(e) => break Some(e),
            };
            stats.offered += 1;
            let (t, pkt, layout) = match arrival {
                Ok(queued) => queued,
                Err(verdict) => {
                    self.drops.bump(DropReason::Parse(verdict));
                    next = local + 1;
                    continue;
                }
            };
            next = t + 1;
            if drain == Drain::Periodic {
                stats.transmitted += self.drain_until(Some(t), self.drain_period, emit);
            }
            let mut flat = match self.spare.pop() {
                Some(mut flat) => {
                    flat.load(&pkt);
                    flat
                }
                None => FlatPacket::from_packet(&pkt, &self.table),
            };
            let mut rest = pkt;
            self.ingress.process_carried(&mut flat, &mut rest);
            let key = self.key.key_of(&flat);
            let queued = Queued {
                arrival: t,
                flat,
                rest,
                layout,
            };
            // Compared unsigned: `capacity` may be `usize::MAX`.
            let full = drain == Drain::Burst && t as u64 >= self.capacity() as u64;
            let refused = if full {
                Err(queued)
            } else {
                self.queue.push(key, queued)
            };
            if let Err(queued) = refused {
                self.drops.bump(self.sched.full_drop_reason());
                self.recycle(queued.flat);
            }
        };
        if drain == Drain::Periodic {
            // The cycle after the last arrival still drains; then the
            // link keeps draining until the queue is empty.
            stats.transmitted += self.drain_until(Some(next), self.drain_period, emit);
            stats.transmitted += self.drain_until(None, self.drain_period, emit);
        }
        (stats, error)
    }

    /// Departs queued packets on every `period`-th cycle after
    /// `self.now`, up to and including cycle `limit` (or until the queue
    /// is empty), then sets the clock to `limit`. A shaper holds the
    /// head until the cycle its rank names. Returns the departures.
    ///
    /// `limit` never precedes the clock while packets are queued; with
    /// an empty queue the clock may jump back, which is how a shard
    /// lane's stamps restart at cycle 0 on every run.
    fn drain_until(
        &mut self,
        limit: Option<i64>,
        period: u64,
        emit: &mut dyn FnMut(SchedDeparture, Option<Box<WireLayout>>),
    ) -> u64 {
        let period = period as i64;
        let mut sent = 0;
        while let Some(head) = self.queue.peek_key() {
            let mut cycle = (self.now.div_euclid(period) + 1) * period;
            if self.sched.is_shaping() && head.rank > cycle {
                cycle = (head.rank + period - 1) / period * period;
            }
            if limit.is_some_and(|t| cycle > t) {
                break;
            }
            let Some((key, queued)) = self.queue.pop() else {
                break;
            };
            self.now = cycle;
            self.depart(key, queued, emit);
            sent += 1;
        }
        if let Some(t) = limit {
            self.now = t;
        }
        sent
    }

    /// The burst regime's drain, after `arrivals` packets arrived on
    /// cycles `0..arrivals`: one departure per cycle from cycle
    /// `arrivals` in the discipline's order (`drain_period` is ignored),
    /// a shaper idling the link until the head's rank. Returns the
    /// departures.
    pub(crate) fn drain_burst(
        &mut self,
        arrivals: u64,
        emit: &mut dyn FnMut(SchedDeparture, Option<Box<WireLayout>>),
    ) -> u64 {
        self.now = arrivals as i64 - 1;
        let sent = self.drain_until(None, 1, emit);
        self.now += 1;
        sent
    }

    /// Stamps the [`QUEUE_METADATA_FIELDS`] on a departing packet
    /// (`enq_ts` = its arrival cycle, `now` = the departure cycle,
    /// `qdepth` = packets still queued), runs egress, builds the packet
    /// and hands it on.
    fn depart(
        &mut self,
        key: SchedKey,
        mut queued: Queued,
        emit: &mut dyn FnMut(SchedDeparture, Option<Box<WireLayout>>),
    ) {
        let [enq_ts, now, qdepth] = self.meta;
        queued.flat.set(enq_ts, queued.arrival as i32);
        queued.flat.set(now, self.now as i32);
        queued.flat.set(qdepth, self.queue.len() as i32);
        self.egress
            .process_carried(&mut queued.flat, &mut queued.rest);
        self.transmitted += 1;
        let departure = SchedDeparture {
            arrival: queued.arrival,
            key,
            departure: self.now,
            pkt: queued.flat.merged_with(queued.rest),
        };
        self.recycle(queued.flat);
        emit(departure, queued.layout);
    }

    /// Keeps a flat packet for the next arrival.
    fn recycle(&mut self, flat: FlatPacket) {
        if self.spare.len() < SPARE_FLATS && Arc::ptr_eq(flat.table(), &self.table) {
            self.spare.push(flat);
        }
    }

    /// Packets handled so far: transmitted, dropped, or queued. It grows
    /// by one per arrival and is unchanged by a departure, so across a
    /// batch that unwound it counts the arrivals handled before the
    /// fault.
    pub(crate) fn handled(&self) -> u64 {
        self.transmitted + self.drops.total() + self.queue.len() as u64
    }

    /// Pops every queued entry, in the discipline's order.
    pub(crate) fn take_queue(&mut self) -> Vec<(SchedKey, Queued)> {
        std::iter::from_fn(|| self.queue.pop()).collect()
    }

    /// Queues already-ingressed entries, in the order given. The entries
    /// must be carried over this switch's table (the sharded switch makes
    /// all its switches share one, see [`Switch::adopt_table`]).
    pub(crate) fn requeue(&mut self, entries: Vec<(SchedKey, Queued)>) {
        for (key, queued) in entries {
            debug_assert!(Arc::ptr_eq(queued.flat.table(), &self.table));
            if self.queue.push(key, queued).is_err() {
                self.drops.bump(self.sched.full_drop_reason());
            }
        }
    }

    /// Bumps a drop counter directly (a frame the sharded dispatcher
    /// rejected for this shard).
    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        self.drops.bump(reason);
    }

    /// This switch's salvage after a run cut short by its source: the
    /// run's drops since `before`, its output, and a state snapshot.
    pub(crate) fn salvage(
        &self,
        shard: usize,
        offered: u64,
        output: Vec<Packet>,
        before: &DropCounters,
    ) -> ShardSalvage {
        ShardSalvage {
            shard,
            failed: false,
            offered,
            output,
            drops: self.drops.since(before),
            state: Some((self.ingress.export_state(), self.egress.export_state())),
        }
    }

    /// Closes a serial run: its stats, or, if the source failed, a
    /// [`FaultReport`] with this switch as its only lane and
    /// `salvaged()` as the output it recovered.
    fn close(
        &self,
        (stats, error): (RunStats, Option<SourceError>),
        before: &DropCounters,
        salvaged: impl FnOnce() -> Vec<Packet>,
    ) -> Result<RunStats, SwitchError> {
        let Some(error) = error else {
            return Ok(stats);
        };
        let output = salvaged();
        let at = stats.offered;
        Err(SwitchError::Fault(FaultReport::closed(
            at,
            stats.transmitted,
            Vec::new(),
            Some(SourceFault { at, error }),
            vec![self.salvage(0, at, output.clone(), before)],
            output,
        )))
    }

    /// Opens a streaming run session: anything convertible to a
    /// [`PacketSource`] (a `&[Packet]` slice, a `&Vec<Packet>`, a
    /// generator, a pcap-backed source) drives the switch through the
    /// returned [`Run`] builder.
    ///
    /// ```
    /// use banzai::stream::GenSource;
    /// use banzai::{AtomPipeline, Switch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = Switch::new(
    ///     AtomPipeline::passthrough("in"),
    ///     AtomPipeline::passthrough("out"),
    ///     64,
    /// );
    /// // Slices are sources…
    /// let out = sw.run(&vec![Packet::new(); 3]).collect().unwrap();
    /// assert_eq!(out.len(), 3);
    /// // …and so is a bounded generator that never materializes the
    /// // trace: outputs stream to the sink, memory stays O(queue).
    /// let stats = sw
    ///     .run(GenSource::with_len(1000, |i| {
    ///         Some(Packet::new().with("seq", i as i32))
    ///     }))
    ///     .for_each(|_pkt| {})
    ///     .unwrap();
    /// assert_eq!(stats.offered, 1000);
    /// assert_eq!(stats.transmitted, 1000);
    /// ```
    pub fn run<S: IntoPacketSource>(&mut self, source: S) -> Run<'_, E, S::Source> {
        Run {
            switch: self,
            source: source.into_packet_source(),
        }
    }

    /// Opens a streaming **byte-frame** run session: anything convertible
    /// to a [`FrameSource`] (a slice of frames, a pcap reader) drives the
    /// parse → pipeline → deparse path through the returned [`FrameRun`]
    /// builder.
    ///
    /// Each arrival cycle admits one frame. A frame that fails to parse
    /// is dropped on its arrival cycle under the matching
    /// [`DropReason::Parse`] counter (malformed traffic still consumes
    /// arrival slots, as on a real wire; it just never reaches ingress).
    /// Accepted frames carry their [`WireLayout`] through the queue,
    /// under the configured [`SchedSpec`] like any packet, so egress
    /// re-serializes every pipeline-modified field back into its wire
    /// position and all unparsed bytes (options, payloads) survive
    /// verbatim.
    pub fn run_frames<'c, S: IntoFrameSource>(
        &mut self,
        source: S,
        cfg: &'c WireConfig,
    ) -> FrameRun<'_, 'c, E, S::Source> {
        FrameRun {
            switch: self,
            source: source.into_frame_source(),
            cfg,
        }
    }
}

/// An arrival before ingress: its cycle, the input packet, and its wire
/// layout when the packet was born from a frame.
pub(crate) type Incoming = (i64, Packet, Option<Box<WireLayout>>);

/// What the run core pulls per arrival: a packet to queue, or the
/// verdict of a frame the parser rejected.
pub(crate) type Arrival = Result<Incoming, ParseVerdict>;

/// A queue entry: an ingress-processed packet, carried flat.
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    /// The arrival cycle.
    pub(crate) arrival: i64,
    /// The table's fields.
    flat: FlatPacket,
    /// The input packet: its fields outside the table ride along here
    /// (for a field in the table, `flat` is authoritative when present).
    rest: Packet,
    /// The wire layout of a frame-born packet.
    layout: Option<Box<WireLayout>>,
}

impl Queued {
    /// The packet this entry stands for.
    pub(crate) fn into_packet(self) -> Packet {
        self.flat.merged_with(self.rest)
    }
}

/// A source of arrivals for [`Switch::run_core`] and the sharded
/// dispatcher.
pub(crate) trait Arrivals {
    /// Pulls the next arrival, `Ok(None)` at end of stream. `local` is
    /// the run's own clock: local-clock sources stamp the arrival with
    /// it, stamped sources carry their own cycle.
    fn next_arrival(&mut self, local: i64) -> Result<Option<Arrival>, SourceError>;
}

/// A [`PacketSource`] on the local clock.
pub(crate) struct Packets<'a, S>(pub(crate) &'a mut S);

impl<S: PacketSource> Arrivals for Packets<'_, S> {
    fn next_arrival(&mut self, local: i64) -> Result<Option<Arrival>, SourceError> {
        Ok(self.0.next_packet()?.map(|pkt| Ok((local, pkt, None))))
    }
}

/// A [`FrameSource`] on the local clock, parsed as it is pulled.
pub(crate) struct Frames<'a, S> {
    pub(crate) src: &'a mut S,
    pub(crate) cfg: &'a WireConfig,
}

impl<S: FrameSource> Arrivals for Frames<'_, S> {
    fn next_arrival(&mut self, local: i64) -> Result<Option<Arrival>, SourceError> {
        let cfg = self.cfg;
        Ok(self.src.next_frame()?.map(|frame| {
            wire::parse(frame, cfg).map(|wp| (local, wp.pkt, Some(Box::new(wp.layout))))
        }))
    }
}

/// A shard's batch, stamped with global arrival cycles. Each packet is
/// taken out as it is pulled; the stamps stay, so a fault can name the
/// packet it hit.
pub(crate) struct Stamped<'a>(pub(crate) std::slice::IterMut<'a, Incoming>);

impl Arrivals for Stamped<'_> {
    fn next_arrival(&mut self, _local: i64) -> Result<Option<Arrival>, SourceError> {
        Ok(self
            .0
            .next()
            .map(|(t, pkt, layout)| Ok((*t, std::mem::take(pkt), layout.take()))))
    }
}

/// How a run drains its queue (see [`Switch::run_core`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drain {
    /// One departure every `drain_period` cycles while packets arrive.
    Periodic,
    /// Admit only; the caller drains the burst afterwards.
    Burst,
}

/// A configured line-rate run session on a serial [`Switch`] — the
/// builder [`Switch::run`] returns. Terminal methods consume it:
/// [`Run::collect`] materializes the transmitted packets,
/// [`Run::for_each`] streams them to a sink (O(queue) memory), and
/// [`Run::sched`]/[`Run::scheduled`] switch to the burst-then-drain
/// scheduling regime first.
#[must_use = "a run session does nothing until a terminal method (`collect`, `for_each`) runs it"]
pub struct Run<'s, E: PipelineEngine, S: PacketSource> {
    switch: &'s mut Switch<E>,
    source: S,
}

impl<'s, E: PipelineEngine, S: PacketSource> Run<'s, E, S> {
    /// Installs `spec` as the queue's discipline (discarding anything
    /// queued, like [`Switch::with_scheduler`]) and switches this session
    /// to the scheduling regime — burst arrival, then a rank-ordered
    /// drain that makes the discipline observable.
    pub fn sched(self, spec: SchedSpec) -> SchedRun<'s, E, S> {
        self.switch.set_scheduler(spec);
        self.scheduled()
    }

    /// Switches this session to the scheduling regime under the queue's
    /// **already-configured** discipline (see [`Switch::with_scheduler`]).
    pub fn scheduled(self) -> SchedRun<'s, E, S> {
        SchedRun {
            switch: self.switch,
            source: self.source,
        }
    }

    /// Runs the session and collects every transmitted packet, in order —
    /// bit-identical to streaming them through [`Run::for_each`].
    ///
    /// Each input packet is processed by ingress and enqueued (or dropped
    /// if the queue is full); the queue drains one packet every
    /// `drain_period` cycles through egress. One input packet arrives per
    /// cycle (the line-rate assumption); `enq_ts`/`qdepth` metadata and
    /// the dequeue time `now` are stamped at departure, so egress
    /// programs can compute sojourn times.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream; the report
    /// carries everything transmitted before (and drained after) the
    /// failure, with closed books.
    pub fn collect(mut self) -> Result<Vec<Packet>, SwitchError> {
        let (lo, hi) = self.source.size_hint();
        let mut out = Vec::with_capacity(hi.unwrap_or(lo).min(1 << 20));
        let before = self.switch.drops.clone();
        let run = self.switch.run_core(
            &mut Packets(&mut self.source),
            Drain::Periodic,
            &mut |d, _| out.push(d.pkt),
        );
        self.switch.close(run, &before, || out.clone())?;
        Ok(out)
    }

    /// Runs the session, streaming each transmitted packet to `sink` the
    /// cycle it departs — the bounded-memory terminal for arbitrarily
    /// long sources. Returns offered/transmitted totals for this run.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream (packets
    /// already handed to `sink` are not replayed in the report's salvage;
    /// the sink saw them the moment they departed).
    pub fn for_each<F: FnMut(Packet)>(mut self, mut sink: F) -> Result<RunStats, SwitchError> {
        let before = self.switch.drops.clone();
        let run = self.switch.run_core(
            &mut Packets(&mut self.source),
            Drain::Periodic,
            &mut |d, _| sink(d.pkt),
        );
        self.switch.close(run, &before, Vec::new)
    }
}

/// A run session in the scheduling regime — built by [`Run::sched`] or
/// [`Run::scheduled`].
#[must_use = "a run session does nothing until `collect` runs it"]
pub struct SchedRun<'s, E: PipelineEngine, S: PacketSource> {
    switch: &'s mut Switch<E>,
    source: S,
}

impl<E: PipelineEngine, S: PacketSource> SchedRun<'_, E, S> {
    /// Runs a **scheduling experiment** and returns one
    /// [`SchedDeparture`] per transmitted packet, in departure order.
    ///
    /// The whole source arrives as a back-to-back burst (one packet per
    /// cycle, cycles `0..n`), then the queue drains at one packet per
    /// cycle from cycle `n` in whatever order the configured
    /// [`SchedSpec`] dictates. This is the regime where a scheduler is
    /// observable at all: under [`Run::collect`]'s line-rate admission
    /// the queue never holds more than one packet, so every discipline
    /// degenerates to FIFO. The burst builds a standing queue of up to
    /// `capacity` packets (arrivals beyond that drop under the policy's
    /// reason — [`DropReason::SchedFull`] for rank schedulers), and the
    /// drain exposes the discipline's order. `drain_period` is ignored:
    /// the drain *is* the one-packet-per-cycle output link.
    ///
    /// Under a [`SchedSpec::Shaping`] policy a packet's rank is its
    /// earliest-departure cycle: the link idles until the head's rank,
    /// so departure times (not just order) are programmed.
    ///
    /// Egress metadata is stamped per departure (`enq_ts` = arrival
    /// cycle, `now` = departure cycle, `qdepth` = packets still queued),
    /// so sojourn-aware egress programs (CoDel) observe the scheduler's
    /// actual queueing delays. The arrival clock is run-local (restarts
    /// at 0 each call); engine state and the drop/transmit counters
    /// accumulate across calls as usual.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-burst; everything
    /// admitted still drains and is reported, with closed books.
    pub fn collect(mut self) -> Result<Vec<SchedDeparture>, SwitchError> {
        let before = self.switch.drops.clone();
        let (mut stats, error) =
            self.switch
                .run_core(&mut Packets(&mut self.source), Drain::Burst, &mut |_, _| {});
        let mut out = Vec::with_capacity(self.switch.queue_depth());
        stats.transmitted = self
            .switch
            .drain_burst(stats.offered, &mut |d, _| out.push(d));
        self.switch.close((stats, error), &before, || {
            out.iter().map(|d| d.pkt.clone()).collect()
        })?;
        Ok(out)
    }
}

/// A streaming byte-frame run session (parse → pipeline → deparse) — the
/// builder [`Switch::run_frames`] returns.
#[must_use = "a run session does nothing until a terminal method (`collect`, `for_each`) runs it"]
pub struct FrameRun<'s, 'c, E: PipelineEngine, S: FrameSource> {
    switch: &'s mut Switch<E>,
    source: S,
    cfg: &'c WireConfig,
}

impl<E: PipelineEngine, S: FrameSource> FrameRun<'_, '_, E, S> {
    /// Runs the session and collects every transmitted frame, in order.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream (a torn
    /// capture file); frames transmitted before the failure are in the
    /// report's accounting, and malformed-but-complete frames are *not*
    /// errors — they are [`DropReason::Parse`] drops as always.
    pub fn collect(self) -> Result<Vec<Vec<u8>>, SwitchError> {
        let mut out = Vec::new();
        self.for_each(|f| out.push(f))?;
        Ok(out)
    }

    /// Runs the session, streaming each transmitted frame to `sink` —
    /// the bounded-memory terminal. Returns offered/transmitted totals.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Fault`] if the source fails mid-stream.
    pub fn for_each<F: FnMut(Vec<u8>)>(mut self, mut sink: F) -> Result<RunStats, SwitchError> {
        let before = self.switch.drops.clone();
        let mut frames = Frames {
            src: &mut self.source,
            cfg: self.cfg,
        };
        let run = self
            .switch
            .run_core(&mut frames, Drain::Periodic, &mut |d, layout| {
                // Frame-born packets always carry their layout.
                if let Some(layout) = layout {
                    sink(wire::deparse(&d.pkt, &layout));
                }
            });
        self.switch.close(run, &before, Vec::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The compiler lives upstream of this crate, so unit tests here cover
    // queue mechanics with pass-through pipelines; real-algorithm switch
    // tests live in the workspace integration suite.
    fn passthrough(name: &str) -> AtomPipeline {
        AtomPipeline::passthrough(name)
    }

    #[test]
    fn queue_preserves_order_and_count() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let trace: Vec<Packet> = (0..40).map(|i| Packet::new().with("seq", i)).collect();
        let out = sw.run(&trace).collect().unwrap();
        assert_eq!(out.len(), 40);
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p.get("seq"), Some(i as i32));
        }
        assert_eq!(sw.drops(), 0);
        assert_eq!(sw.transmitted(), 40);
    }

    #[test]
    fn oversubscribed_link_builds_queue_and_drops() {
        // Drain every 2 cycles with capacity 8: arrivals outpace the link.
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let trace: Vec<Packet> = (0..100).map(|i| Packet::new().with("seq", i)).collect();
        let out = sw.run(&trace).collect().unwrap();
        assert!(sw.drops() > 0, "expected drops, got none");
        assert_eq!(out.len() as u64 + sw.drops(), 100);
        assert_eq!(sw.transmitted(), out.len() as u64);
    }

    #[test]
    fn egress_sees_sojourn_metadata() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64).with_drain_period(3);
        let trace: Vec<Packet> = (0..30).map(|i| Packet::new().with("seq", i)).collect();
        let out = sw.run(&trace).collect().unwrap();
        // Sojourn = now - enq_ts grows as the queue builds.
        let sojourns: Vec<i32> = out
            .iter()
            .map(|p| p.get("now").unwrap() - p.get("enq_ts").unwrap())
            .collect();
        assert!(*sojourns.last().unwrap() > sojourns[0], "{sojourns:?}");
        assert!(out.iter().all(|p| p.get("qdepth").is_some()));
    }

    /// Runs `(cycle, packet)` arrivals on caller stamps, as a shard lane
    /// does.
    fn stamped(sw: &mut Switch, batch: &[(i64, Packet)]) -> Result<Vec<Packet>, SwitchError> {
        sw.line_rate()?;
        let mut lane: Vec<Incoming> = batch.iter().map(|(t, p)| (*t, p.clone(), None)).collect();
        let mut out = Vec::new();
        sw.run_core(
            &mut Stamped(lane.iter_mut()),
            Drain::Periodic,
            &mut |d, _| out.push(d.pkt),
        );
        Ok(out)
    }

    #[test]
    fn stamped_run_equals_serial_run_at_line_rate() {
        let trace: Vec<Packet> = (0..20).map(|i| Packet::new().with("seq", i)).collect();
        let mut serial = Switch::new(passthrough("in"), passthrough("out"), 8);
        let serial_out = serial.run(&trace).collect().unwrap();
        let mut shard = Switch::new(passthrough("in"), passthrough("out"), 8);
        let batch: Vec<(i64, Packet)> = trace
            .iter()
            .enumerate()
            .map(|(i, p)| (i as i64, p.clone()))
            .collect();
        let stamped_out = stamped(&mut shard, &batch).unwrap();
        assert_eq!(serial_out, stamped_out);
        assert_eq!(serial.transmitted(), shard.transmitted());
        assert_eq!(serial.drops(), shard.drops());
    }

    #[test]
    fn stamped_subsequences_compose_into_the_serial_run() {
        // Even/odd arrivals on two separate switches (as two shards would
        // see them) reproduce the serial outputs at those positions —
        // the global stamps carry the shared clock.
        let trace: Vec<Packet> = (0..30).map(|i| Packet::new().with("seq", i)).collect();
        let mut serial = Switch::new(passthrough("in"), passthrough("out"), 8);
        let serial_out = serial.run(&trace).collect().unwrap();
        for parity in 0..2usize {
            let mut shard = Switch::new(passthrough("in"), passthrough("out"), 8);
            let batch: Vec<(i64, Packet)> = trace
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(i, p)| (i as i64, p.clone()))
                .collect();
            let out = stamped(&mut shard, &batch).unwrap();
            let expected: Vec<Packet> = serial_out
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, p)| p.clone())
                .collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn stamped_rejects_oversubscribed_links() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let err = stamped(&mut sw, &[]).unwrap_err();
        assert!(
            matches!(&err, SwitchError::Unsupported(msg) if msg.contains("line-rate egress link")),
            "{err}"
        );
    }

    #[test]
    fn state_import_hooks_roundtrip() {
        let mut a = Switch::new_slot(&passthrough("in"), &passthrough("out"), 8).unwrap();
        let snap_in = a.export_ingress_state();
        let snap_eg = a.export_egress_state();
        a.import_ingress_state(&snap_in);
        a.import_egress_state(&snap_eg);
        assert_eq!(a.export_ingress_state(), snap_in);
        assert_eq!(a.export_egress_state(), snap_eg);
    }

    #[test]
    fn wire_trace_roundtrips_frames_through_the_switch() {
        use crate::wire::{encode, parse, FrameSpec, WireConfig};

        let cfg = WireConfig::new();
        let frames: Vec<Vec<u8>> = (0..10)
            .map(|i| {
                let spec = FrameSpec {
                    sport: 1000 + i,
                    ..FrameSpec::default()
                };
                encode(&Packet::new(), &cfg, &spec)
            })
            .collect();
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let out = sw.run_frames(&frames, &cfg).collect().unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(sw.transmitted(), 10);
        assert_eq!(sw.drops(), 0);
        // Passthrough pipelines leave every header byte intact, but the
        // queue metadata is not a wire field, so frames come back
        // byte-identical in order.
        for (i, (frame, orig)) in out.iter().zip(&frames).enumerate() {
            assert_eq!(frame, orig, "frame {i}");
            assert_eq!(
                parse(frame, &cfg).unwrap().pkt.get("sport"),
                Some(1000 + i as i32)
            );
        }
    }

    #[test]
    fn wire_trace_splits_congestion_from_parse_drops() {
        use crate::wire::{encode, FrameSpec, ParseVerdict, WireConfig};

        let cfg = WireConfig::new();
        let good = encode(&Packet::new(), &cfg, &FrameSpec::default());
        let mut frames: Vec<Vec<u8>> = vec![good.clone(); 20];
        frames.push(good[..13].to_vec()); // runt Ethernet
        frames.push(good[..20].to_vec()); // cut inside IPv4
                                          // Capacity 2, slow link: some good frames tail-drop too.
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 2).with_drain_period(4);
        let out = sw.run_frames(&frames, &cfg).collect().unwrap();
        let c = sw.drop_counters();
        assert_eq!(c.get(DropReason::Parse(ParseVerdict::TruncatedEthernet)), 1);
        assert_eq!(c.get(DropReason::Parse(ParseVerdict::TruncatedIpv4)), 1);
        assert_eq!(c.parse_total(), 2);
        assert!(c.queue_full() > 0, "expected congestion drops");
        assert_eq!(c.total(), sw.drops());
        assert_eq!(out.len() as u64 + c.total(), frames.len() as u64);
    }

    #[test]
    fn drop_reason_indices_are_dense() {
        let all: Vec<DropReason> = DropReason::all().collect();
        assert_eq!(all.len(), DropReason::COUNT);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(DropReason::QueueFull.to_string(), "queue_full");
    }

    #[test]
    fn drop_counters_merge_is_elementwise() {
        use crate::wire::ParseVerdict;

        let mut a = DropCounters::new();
        a.bump(DropReason::QueueFull);
        a.bump(DropReason::Parse(ParseVerdict::BadIhl));
        let mut b = DropCounters::new();
        b.bump(DropReason::QueueFull);
        b.bump(DropReason::Parse(ParseVerdict::TruncatedTcp));
        a.merge(&b);
        assert_eq!(a.queue_full(), 2);
        assert_eq!(a.get(DropReason::Parse(ParseVerdict::BadIhl)), 1);
        assert_eq!(a.get(DropReason::Parse(ParseVerdict::TruncatedTcp)), 1);
        assert_eq!(a.total(), 4);
        assert_eq!(a.iter().map(|(_, n)| n).sum::<u64>(), 4);
    }

    #[test]
    fn sched_trace_under_fifo_departs_in_arrival_order() {
        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("seq", 9 - i)).collect();
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        assert_eq!(deps.len(), 10);
        for (i, d) in deps.iter().enumerate() {
            assert_eq!(d.arrival, i as i64, "FIFO keeps arrival order");
            // Burst of 10, drain starts at cycle 10.
            assert_eq!(d.departure, 10 + i as i64);
            assert_eq!(d.pkt.get("enq_ts"), Some(i as i32));
            assert_eq!(d.pkt.get("now"), Some(d.departure as i32));
        }
        assert_eq!(sw.transmitted(), 10);
    }

    #[test]
    fn sched_trace_pifo_orders_by_rank_and_drops_sched_full() {
        use crate::pifo::SchedSpec;

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 4)
            .with_scheduler(SchedSpec::Pifo { rank: "r".into() });
        // 6 packets into capacity 4: the last two drop as SchedFull.
        let ranks = [40, 10, 30, 20, 99, 98];
        let trace: Vec<Packet> = ranks.iter().map(|&r| Packet::new().with("r", r)).collect();
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        let got: Vec<i64> = deps.iter().map(|d| d.key.rank).collect();
        assert_eq!(got, [10, 20, 30, 40]);
        assert_eq!(sw.drop_counters().sched_full(), 2);
        assert_eq!(sw.drop_counters().queue_full(), 0);
        assert_eq!(sw.transmitted() + sw.drops(), 6);
    }

    #[test]
    fn sched_trace_shaping_delays_departures_to_their_ranks() {
        use crate::pifo::SchedSpec;

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64)
            .with_scheduler(SchedSpec::Shaping { rank: "edt".into() });
        // Earliest-departure times well past the burst end (cycle 3).
        let trace: Vec<Packet> = [20, 10, 40]
            .iter()
            .map(|&t| Packet::new().with("edt", t))
            .collect();
        let deps = sw.run(&trace).scheduled().collect().unwrap();
        let times: Vec<i64> = deps.iter().map(|d| d.departure).collect();
        assert_eq!(times, [10, 20, 40], "the link idles until each EDT");
    }

    #[test]
    fn slot_engine_switch_matches_reference_switch() {
        let mk_map = || Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let mk_slot = || {
            Switch::new_slot(&passthrough("in"), &passthrough("out"), 8)
                .unwrap()
                .with_drain_period(2)
        };
        let trace: Vec<Packet> = (0..100).map(|i| Packet::new().with("seq", i)).collect();
        let (mut a, mut b) = (mk_map(), mk_slot());
        assert_eq!(
            a.run(&trace).collect().unwrap(),
            b.run(&trace).collect().unwrap()
        );
        assert_eq!(a.drops(), b.drops());
        assert_eq!(a.transmitted(), b.transmitted());
    }

    #[test]
    fn for_each_streams_bit_identical_to_collect() {
        let trace: Vec<Packet> = (0..50).map(|i| Packet::new().with("seq", i)).collect();
        let mut collected =
            Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let out = collected.run(&trace).collect().unwrap();
        let mut streamed =
            Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(2);
        let mut sunk = Vec::new();
        let stats = streamed.run(&trace).for_each(|p| sunk.push(p)).unwrap();
        assert_eq!(out, sunk);
        assert_eq!(stats.offered, 50);
        assert_eq!(stats.transmitted, out.len() as u64);
        assert_eq!(collected.drops(), streamed.drops());
        assert_eq!(collected.transmitted(), streamed.transmitted());
    }

    #[test]
    fn generated_source_matches_materialized_slice() {
        use crate::stream::GenSource;

        let mk = |i: u64| Packet::new().with("seq", i as i32);
        let trace: Vec<Packet> = (0..200).map(mk).collect();
        let mut a = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(3);
        let mut b = Switch::new(passthrough("in"), passthrough("out"), 8).with_drain_period(3);
        let from_slice = a.run(&trace).collect().unwrap();
        let from_gen = b
            .run(GenSource::with_len(200, |i| Some(mk(i))))
            .collect()
            .unwrap();
        assert_eq!(from_slice, from_gen);
        assert_eq!(a.drops(), b.drops());
    }

    #[test]
    fn source_error_mid_stream_closes_the_books() {
        use crate::stream::{FailAfter, GenSource};

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 4).with_drain_period(3);
        let source = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("seq", i as i32))),
            25,
            "disk torn mid-record",
        );
        let err = sw.run(source).collect().unwrap_err();
        let report = err.fault().expect("source failures are faults");
        let src = report.source.as_ref().expect("a SourceFault is attached");
        assert_eq!(src.at, 25);
        assert!(src.error.to_string().contains("disk torn"), "{src}");
        assert!(report.failures.is_empty(), "no worker faulted");
        // Everything pulled before the failure was processed and drained:
        // the books close with nothing lost to the fault.
        let acc = report.accounting;
        assert!(acc.conserved(), "{acc}");
        assert_eq!(acc.offered, 25);
        assert_eq!(acc.lost_in_fault, 0);
        assert_eq!(report.merged.len() as u64, acc.transmitted);
        assert_eq!(acc.transmitted + acc.dropped, 25);
        assert!(acc.dropped > 0, "capacity 4 at drain 3 must tail-drop");
        assert!(err.to_string().contains("source failed after 25"), "{err}");
    }

    #[test]
    fn sched_run_source_error_still_drains_admitted_burst() {
        use crate::pifo::SchedSpec;
        use crate::stream::{FailAfter, GenSource};

        let mut sw = Switch::new(passthrough("in"), passthrough("out"), 64);
        let source = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("r", 100 - i as i32))),
            10,
            "burst cut short",
        );
        let err = sw
            .run(source)
            .sched(SchedSpec::Pifo { rank: "r".into() })
            .collect()
            .unwrap_err();
        let report = err.fault().unwrap();
        assert_eq!(report.accounting.offered, 10);
        assert_eq!(report.accounting.transmitted, 10, "admitted burst drains");
        assert!(report.accounting.conserved());
        assert_eq!(report.merged.len(), 10);
    }
}
