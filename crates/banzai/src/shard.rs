//! The sharded switch: N independent slot-compiled switches behind an
//! RSS-style flow-steering dispatcher.
//!
//! The paper's Banzai machine reaches line rate by pipelining atoms in
//! hardware; a software simulator reaches for cores instead. The key
//! observation carries over: Domino confines every piece of per-flow
//! state to one atom, and when that state is *indexed by a packet-derived
//! flow key* (`flowlet.domino`'s `last_time[pkt.id]`), packets of
//! different key classes never touch common state — so the trace can be
//! partitioned across shards with **no cross-shard coordination**, the
//! same per-flow partitioning RSS NICs and multi-pipeline P4 targets rely
//! on.
//!
//! The moving parts:
//!
//! * [`ShardPlan`] — resolves how to steer: the flow key extracted from
//!   the pipelines' state indexing
//!   ([`StateLayout::flow_key`](domino_ir::layout::StateLayout::flow_key)),
//!   **replica mode** for commutative sketch state
//!   (`heavy_hitters.domino`'s three differently-hashed count-min rows:
//!   every shard runs a full copy over packets dealt round-robin —
//!   balanced even under heavy-tailed flow skew — and exported copies
//!   fold back elementwise at collect time), whole-packet hashing for
//!   stateless pipelines, or a **single-shard fallback with a two-tier
//!   diagnostic** when the state survives neither analysis (`rcp.domino`'s
//!   global registers) — see [`ShardTier`];
//! * [`ShardedSwitch`] — steers packets to one independent [`Switch`]
//!   per shard, each run through the serial switch's run core on global
//!   arrival stamps (so queue metadata is bit-identical to the serial
//!   switch), and merges transmitted packets by **seeded
//!   round-robin** — per-flow order is preserved exactly (a flow, as
//!   defined by the steering key, lives on one shard; under stateless
//!   whole-packet steering that means identical packets), and the
//!   cross-flow interleaving is a deterministic function of the seed, so
//!   differential tests stay bit-reproducible run to run;
//! * merged state export — under keyed steering each array slot belongs
//!   to exactly one key class, hence to exactly one shard; reading every
//!   slot from its owner reconstructs the serial state bit-for-bit.
//!   Under replica mode every shard holds a full sketch copy and
//!   [`ReplicaSpec::merge_states`] folds them — summed displacements for
//!   counter rows, elementwise max for membership bits — which is *also*
//!   bit-identical to the serial state; only per-packet outputs that
//!   read sketch state mid-trace trade bit-identity for the sketch's own
//!   (ε, δ) approximation contract.
//!
//! Two drivers run the shards. The supervised threaded driver
//! ([`ShardedRun::collect`], [`ShardedSchedRun::collect`]) spawns one
//! worker per shard and feeds each through a bounded ring of batches.
//! The chunked inline driver ([`ShardedRun::for_each`],
//! [`ShardedRun::partitioned`], [`ShardedRun::instrumented`],
//! [`ShardedFrameRun::partitioned`]) runs the same plan on the caller's
//! thread a chunk at a time, which is what the E10 harness times:
//! per-shard busy time measured without scheduler interference gives the
//! critical-path throughput the shards would sustain on real cores.
//!
//! # Supervision
//!
//! The threaded driver is **supervised**: a
//! worker that panics, stalls past the [`ShardConfig::watchdog_ms`]
//! watchdog, or dies silently never takes the run down with it. Each
//! worker wraps every batch in `catch_unwind`; the feeder detects dead
//! rings and applies the configured [`Backpressure`] policy to full ones
//! (block with a watchdog, or shed under the
//! [`DropReason::Backpressure`]
//! counter); the collector abandons — never joins — a hung worker. A
//! faulted run returns
//! [`SwitchError::Fault`] carrying a
//! full [`FaultReport`]: per-shard errors,
//! salvaged outputs and state snapshots, and exact packet-conservation
//! accounting. Failed shards are rebuilt with fresh engines, so the
//! switch stays usable after a fault.

use crate::error::{FaultCause, FaultReport, ShardError, ShardSalvage, SourceFault, SwitchError};
use crate::machine::AtomPipeline;
use crate::pifo::{SchedKey, SchedSpec};
use crate::slot::{SlotFlowKey, SlotMachine};
use crate::stream::{
    FrameSource, IntoFrameSource, IntoPacketSource, PacketSource, RunStats, SourceError,
};
use crate::switch::{
    Arrival, Arrivals, Drain, DropCounters, DropReason, Frames, Incoming, Packets, PipelineEngine,
    Queued, SchedDeparture, Stamped, Switch,
};
use crate::wire::{self, WireConfig, WireLayout};
use domino_ast::{StateKind, StateVar};
use domino_ir::layout::{mix64, FlowKeySpec, Partitionability, ReplicaSpec, StateLayout};
use domino_ir::{FieldTable, Packet, StateStore, TacStmt};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a [`ShardedSwitch`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Requested shard (worker) count; the plan may fall back to 1.
    pub shards: usize,
    /// Packets per steering batch: the unit pushed into a shard's ring,
    /// and the chunk the inline terminals steer before running the lanes.
    pub batch: usize,
    /// Ring depth in batches (bounded channel capacity — backpressure).
    pub ring: usize,
    /// Seed for the deterministic round-robin output merge.
    pub seed: u64,
    /// Per-shard queue capacity (see [`Switch::capacity`]).
    pub capacity: usize,
    /// What the dispatcher does when a shard's ring stays full.
    pub backpressure: Backpressure,
    /// Watchdog window in milliseconds: how long the dispatcher blocks on
    /// a full ring under [`Backpressure::Block`], and how long the
    /// collector waits for a worker's outcome, before declaring the
    /// worker stalled and abandoning it.
    pub watchdog_ms: u64,
    /// The scheduling policy every shard's queue runs (default: drop-tail
    /// FIFO — see [`SchedSpec`] and [`ShardedRun::scheduled`]).
    pub sched: SchedSpec,
}

impl ShardConfig {
    /// A config with `shards` workers and the defaults: 256-packet
    /// batches, an 8-batch ring, capacity 512, blocking backpressure with
    /// a 5-second watchdog.
    pub fn new(shards: usize) -> ShardConfig {
        ShardConfig {
            shards: shards.max(1),
            batch: 256,
            ring: 8,
            seed: 0x5EED_0001,
            capacity: 512,
            backpressure: Backpressure::Block,
            watchdog_ms: 5_000,
            sched: SchedSpec::Fifo,
        }
    }

    /// Overrides the steering batch size.
    pub fn with_batch(mut self, batch: usize) -> ShardConfig {
        self.batch = batch.max(1);
        self
    }

    /// Overrides the merge seed.
    pub fn with_seed(mut self, seed: u64) -> ShardConfig {
        self.seed = seed;
        self
    }

    /// Overrides the per-shard queue capacity.
    pub fn with_capacity(mut self, capacity: usize) -> ShardConfig {
        self.capacity = capacity;
        self
    }

    /// Overrides the ring depth (batches per shard channel, floored at 1).
    pub fn with_ring(mut self, ring: usize) -> ShardConfig {
        self.ring = ring.max(1);
        self
    }

    /// Overrides the overload policy.
    pub fn with_backpressure(mut self, policy: Backpressure) -> ShardConfig {
        self.backpressure = policy;
        self
    }

    /// Overrides the watchdog window (milliseconds, floored at 1).
    pub fn with_watchdog_ms(mut self, ms: u64) -> ShardConfig {
        self.watchdog_ms = ms.max(1);
        self
    }

    /// Overrides the scheduling policy every shard's queue runs.
    pub fn with_scheduler(mut self, sched: SchedSpec) -> ShardConfig {
        self.sched = sched;
        self
    }
}

/// What the dispatcher does when a shard's batch ring is full — the
/// explicit overload policy (a full ring must degrade deterministically,
/// never block forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Wait for the worker to drain the ring (lossless), but only up to
    /// the [`ShardConfig::watchdog_ms`] watchdog — a worker that never
    /// drains is declared stalled and abandoned, not waited on forever.
    #[default]
    Block,
    /// Drop the batch on the floor immediately, counting every packet
    /// under [`DropReason::Backpressure`]
    /// — bounded latency at the cost of loss, the overload behaviour of a
    /// real line-rate dispatcher.
    Shed,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig::new(1)
    }
}

/// The resolved steering rule (see [`ShardPlan`]).
#[derive(Debug, Clone, PartialEq)]
enum ResolvedSteer {
    /// Everything to shard 0 (the fallback).
    Single,
    /// Steer by the extracted flow key — bit-exact serial equivalence.
    /// The key slice is evaluated lowered onto slots.
    Keyed(FlowKeySpec, SlotFlowKey),
    /// Both pipelines are stateless: hash the whole packet. Only
    /// bit-identical packets are guaranteed to share a shard — a flow
    /// defined by a *subset* of fields may spread across shards, which
    /// the pure pipelines make state-safe.
    WholePacket,
    /// Replica mode: every shard runs a full copy of the sketch state,
    /// so *any* deterministic steering is state-safe. Packets are dealt
    /// round-robin by trace index — sketches exist for heavy-tailed
    /// traffic, where flow-hash steering would pile the elephant flows
    /// onto one shard and cap the speedup at the skew; dealing keeps
    /// the lanes balanced by construction. The named index-root fields
    /// (the union over both pipelines' replica specs) are carried for
    /// diagnostics and for deployments that want flow affinity anyway.
    Replica(Vec<String>),
}

/// Keyed steering by `spec`, its key slice lowered onto slots; a slice
/// that does not lower is a diagnostic (the plan falls back to one shard).
fn keyed(spec: &FlowKeySpec) -> Result<ResolvedSteer, String> {
    let slots = SlotFlowKey::lower(spec)
        .map_err(|e| format!("flow key `{}` does not lower: {e}", spec.key_field()))?;
    Ok(ResolvedSteer::Keyed(spec.clone(), slots))
}

/// How one side's (ingress or egress) serial state is reconstructed from
/// per-shard snapshots at collect time (see
/// [`ShardedSwitch::export_merged_ingress_state`]).
#[derive(Debug, Clone, PartialEq)]
enum MergePlan {
    /// The pipeline writes no state (or a single shard ran the whole
    /// trace): every snapshot already equals the serial state.
    Trivial,
    /// Exact partition: each array slot belongs to one key class, hence
    /// to one shard; read every slot from its owner.
    Owned(FlowKeySpec),
    /// Full replica per shard: fold snapshots elementwise per the spec
    /// ([`ReplicaSpec::merge_states`]) — sum of displacements for
    /// counter rows, max for membership bits. Bit-identical to serial.
    Replicated(ReplicaSpec),
}

/// The partitioning tier a [`ShardPlan`] resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardTier {
    /// Keyed or whole-packet steering: sharded per-shard outputs and
    /// merged state are bit-identical to serial execution.
    Exact,
    /// At least one pipeline runs full sketch replicas merged at collect
    /// time. Merged *state* is still bit-identical to serial; per-packet
    /// *outputs* that read sketch state obey the sketch's own (ε, δ)
    /// approximation contract instead of bit-identity.
    Replicable,
    /// Single-shard fallback; [`ShardPlan::fallback`] carries the
    /// two-tier diagnostic.
    Fallback,
}

impl fmt::Display for ShardTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardTier::Exact => write!(f, "Exact"),
            ShardTier::Replicable => write!(f, "Replicable"),
            ShardTier::Fallback => write!(f, "Fallback"),
        }
    }
}

/// FNV-1a over a string, folded into a running hash (steering must be
/// deterministic across runs and platforms, so no `RandomState`).
fn hash_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// The resolved sharding decision for an ingress/egress pipeline pair.
///
/// Produced by [`ShardPlan::plan`]; inspect [`ShardPlan::effective`] and
/// [`ShardPlan::fallback`] to see whether the requested parallelism was
/// granted and, if not, why.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    requested: usize,
    effective: usize,
    steer: ResolvedSteer,
    merge_ingress: MergePlan,
    merge_egress: MergePlan,
    fallback: Option<String>,
}

/// All TAC statements of a compiled pipeline, in execution order.
fn stmts_of(pipeline: &AtomPipeline) -> Vec<TacStmt> {
    pipeline
        .stages
        .iter()
        .flatten()
        .flat_map(|a| a.codelet.stmts.iter().cloned())
        .collect()
}

/// Every packet field the pipeline can write on its way through —
/// assignments, state-read destinations, deparsed declared fields, and
/// the switch queue's metadata stamps.
fn written_fields(pipeline: &AtomPipeline) -> BTreeSet<String> {
    let mut written: BTreeSet<String> = BTreeSet::new();
    for stmt in stmts_of(pipeline) {
        match stmt {
            TacStmt::Assign { dst, .. } | TacStmt::ReadState { dst, .. } => {
                written.insert(dst);
            }
            TacStmt::WriteState { .. } => {}
        }
    }
    for (declared, internal) in &pipeline.output_map {
        // Identity pairs are pass-throughs, not writes (the deparser
        // only copies when the names differ).
        if declared != internal {
            written.insert(declared.clone());
        }
    }
    for meta in crate::switch::QUEUE_METADATA_FIELDS {
        written.insert(meta.to_string());
    }
    written
}

impl ShardPlan {
    /// Resolves the steering rule for a pipeline pair and a requested
    /// shard count.
    ///
    /// Both pipelines' state indexing must be partitionable (see
    /// [`StateLayout::flow_key`](domino_ir::layout::StateLayout::flow_key));
    /// when both carry keyed state the two keys must agree, and an
    /// egress-derived key must not depend on fields the ingress pipeline
    /// or the queue's metadata stamps
    /// ([`QUEUE_METADATA_FIELDS`](crate::switch::QUEUE_METADATA_FIELDS))
    /// rewrite — the dispatcher evaluates the key on the *input* packet.
    /// Any violation produces a single-shard plan carrying the diagnostic.
    pub fn plan(ingress: &AtomPipeline, egress: &AtomPipeline, shards: usize) -> ShardPlan {
        let requested = shards.max(1);
        let part_in = StateLayout::from_decls(&ingress.state_decls).flow_key(&stmts_of(ingress));
        let part_eg = StateLayout::from_decls(&egress.state_decls).flow_key(&stmts_of(egress));

        let egress_key_ok = |spec: &FlowKeySpec| -> Result<(), String> {
            let written = written_fields(ingress);
            for root in spec.roots() {
                if written.contains(root) {
                    return Err(format!(
                        "egress `{}` keys its state on `{root}`, which ingress \
                         `{}` (or the queue metadata) rewrites; the dispatcher \
                         cannot evaluate the key on the input packet",
                        egress.name, ingress.name
                    ));
                }
            }
            Ok(())
        };
        // Replica steering hashes the union of both sides' index roots —
        // steering never affects replica merge correctness (updates
        // commute), only which flows share a shard for output ordering.
        let replica_roots = |specs: &[&ReplicaSpec]| -> Vec<String> {
            let union: BTreeSet<String> = specs
                .iter()
                .flat_map(|s| s.steer_roots().iter().cloned())
                .collect();
            union.into_iter().collect()
        };

        use Partitionability::{Keyed, Replicable, Stateless};
        type Resolution = (ResolvedSteer, MergePlan, MergePlan);
        let resolved: Result<Resolution, String> = match (part_in, part_eg) {
            (Err(e), _) => Err(format!("ingress `{}`: {e}", ingress.name)),
            (_, Err(e)) => Err(format!("egress `{}`: {e}", egress.name)),
            (Ok(Stateless), Ok(Stateless)) => Ok((
                ResolvedSteer::WholePacket,
                MergePlan::Trivial,
                MergePlan::Trivial,
            )),
            (Ok(Keyed(k)), Ok(Stateless)) => {
                keyed(&k).map(|s| (s, MergePlan::Owned(k), MergePlan::Trivial))
            }
            (Ok(Stateless), Ok(Keyed(k))) => egress_key_ok(&k)
                .and_then(|()| keyed(&k))
                .map(|s| (s, MergePlan::Trivial, MergePlan::Owned(k))),
            (Ok(Keyed(a)), Ok(Keyed(b))) => {
                if a != b {
                    Err(format!(
                        "ingress `{}` and egress `{}` partition their state by \
                         different flow keys (`{}` mod {} vs `{}` mod {})",
                        ingress.name,
                        egress.name,
                        a.key_field(),
                        a.modulus(),
                        b.key_field(),
                        b.modulus()
                    ))
                } else {
                    egress_key_ok(&b)
                        .and_then(|()| keyed(&a))
                        .map(|s| (s, MergePlan::Owned(a), MergePlan::Owned(b)))
                }
            }
            // Replica tiers: a replicable side is state-safe under any
            // deterministic steering, so it adapts to whatever the other
            // side needs.
            (Ok(Replicable(r)), Ok(Stateless)) => Ok((
                ResolvedSteer::Replica(replica_roots(&[&r])),
                MergePlan::Replicated(r),
                MergePlan::Trivial,
            )),
            (Ok(Stateless), Ok(Replicable(r))) => Ok((
                ResolvedSteer::Replica(replica_roots(&[&r])),
                MergePlan::Trivial,
                MergePlan::Replicated(r),
            )),
            (Ok(Replicable(a)), Ok(Replicable(b))) => Ok((
                ResolvedSteer::Replica(replica_roots(&[&a, &b])),
                MergePlan::Replicated(a),
                MergePlan::Replicated(b),
            )),
            // An exactly-keyed side dictates the steering (its partition
            // demands it); the replicated side tolerates it. The egress
            // key still has to be computable on the input packet.
            (Ok(Keyed(k)), Ok(Replicable(r))) => {
                keyed(&k).map(|s| (s, MergePlan::Owned(k), MergePlan::Replicated(r)))
            }
            (Ok(Replicable(r)), Ok(Keyed(k))) => egress_key_ok(&k)
                .and_then(|()| keyed(&k))
                .map(|s| (s, MergePlan::Replicated(r), MergePlan::Owned(k))),
        };

        match resolved {
            Ok((steer, merge_ingress, merge_egress)) => ShardPlan {
                requested,
                effective: requested,
                steer,
                merge_ingress,
                merge_egress,
                fallback: None,
            },
            Err(diagnostic) => ShardPlan {
                requested,
                effective: 1,
                steer: ResolvedSteer::Single,
                merge_ingress: MergePlan::Trivial,
                merge_egress: MergePlan::Trivial,
                fallback: Some(diagnostic),
            },
        }
    }

    /// The shard count the caller asked for.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The shard count actually granted (1 on fallback).
    pub fn effective(&self) -> usize {
        self.effective
    }

    /// The diagnostic explaining a single-shard fallback, if any.
    pub fn fallback(&self) -> Option<&str> {
        self.fallback.as_deref()
    }

    /// The extracted flow key, when steering is key-derived.
    pub fn flow_key(&self) -> Option<&FlowKeySpec> {
        match &self.steer {
            ResolvedSteer::Keyed(spec, _) => Some(spec),
            _ => None,
        }
    }

    /// The partitioning tier this plan resolved to.
    pub fn tier(&self) -> ShardTier {
        if self.fallback.is_some() {
            ShardTier::Fallback
        } else if matches!(self.merge_ingress, MergePlan::Replicated(_))
            || matches!(self.merge_egress, MergePlan::Replicated(_))
        {
            ShardTier::Replicable
        } else {
            ShardTier::Exact
        }
    }

    /// The ingress pipeline's replica spec, when it runs in replica mode.
    pub fn ingress_replica(&self) -> Option<&ReplicaSpec> {
        match &self.merge_ingress {
            MergePlan::Replicated(spec) => Some(spec),
            _ => None,
        }
    }

    /// The egress pipeline's replica spec, when it runs in replica mode.
    pub fn egress_replica(&self) -> Option<&ReplicaSpec> {
        match &self.merge_egress {
            MergePlan::Replicated(spec) => Some(spec),
            _ => None,
        }
    }

    /// The shard the `idx`-th input packet steers to.
    ///
    /// Keyed and whole-packet modes are pure functions of the packet
    /// content (`idx` is ignored); replica mode deals packets
    /// round-robin by trace index, which any replica merge tolerates
    /// (updates commute) and which stays load-balanced even on the
    /// heavy-tailed traces sketch programs are written for.
    pub fn steer(&self, idx: usize, pkt: &Packet) -> usize {
        let n = self.effective;
        if n <= 1 {
            return 0;
        }
        match &self.steer {
            ResolvedSteer::Single => 0,
            ResolvedSteer::Keyed(_, slots) => FlowKeySpec::shard_of_class(slots.key_of(pkt), n),
            ResolvedSteer::Replica(_) => idx % n,
            ResolvedSteer::WholePacket => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for (name, value) in pkt.iter() {
                    h = hash_str(h, name);
                    h = mix64(h ^ value as u32 as u64);
                }
                (h % n as u64) as usize
            }
        }
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} shards", self.effective, self.requested)?;
        match &self.steer {
            ResolvedSteer::Single => {
                let why = self.fallback.as_deref().unwrap_or("single shard requested");
                write!(f, ", single-shard fallback: {why}")
            }
            ResolvedSteer::Keyed(spec, _) => {
                write!(
                    f,
                    ", keyed on pkt.{} mod {}",
                    spec.key_field(),
                    spec.modulus()
                )
            }
            ResolvedSteer::WholePacket => write!(f, ", stateless whole-packet hashing"),
            ResolvedSteer::Replica(roots) if roots.is_empty() => {
                write!(f, ", replicated sketches, dealt round-robin")
            }
            ResolvedSteer::Replica(roots) => {
                write!(
                    f,
                    ", replicated sketches, dealt round-robin (index roots [{}])",
                    roots.join(", ")
                )
            }
        }
    }
}

/// Wall-clock breakdown of one instrumented sharded run.
///
/// `shard_ns` is measured with the shards' lanes executed one after
/// another on the calling thread, chunk by chunk, so each number is that
/// shard's *busy* time free of scheduler interference — on an N-core machine the shards run
/// concurrently and the run completes in [`ShardTimings::critical_ns`]
/// (dispatcher and workers are pipelined, so the slower of the two lanes
/// bounds the run).
#[derive(Debug, Clone)]
pub struct ShardTimings {
    /// Time to pull the trace and steer it into per-shard lanes.
    pub steer_ns: u128,
    /// Per-shard pipeline busy time.
    pub shard_ns: Vec<u128>,
    /// Time to merge the transmitted streams back together.
    pub merge_ns: u128,
}

impl ShardTimings {
    /// The modeled steady-state completion time on dedicated hardware:
    /// `max(steer, merge, slowest shard)`.
    ///
    /// The deployment shape is the standard one for software dataplanes:
    /// an RX (steering) core, N worker cores, a TX (merge) core, all
    /// pipelined batch by batch — so sustained throughput is bounded by
    /// the busiest single lane, not their sum.
    pub fn critical_ns(&self) -> u128 {
        self.shard_ns
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.steer_ns)
            .max(self.merge_ns)
    }
}

/// One instrumented sharded run: merged output plus the timing breakdown.
///
/// (For the un-merged per-shard view — the observable differential tests
/// compare — use [`ShardedRun::partitioned`]; keeping both
/// alive would double the run's memory footprint, which matters at
/// millions of packets.)
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The seeded round-robin merge of every shard's transmitted packets.
    pub merged: Vec<Packet>,
    /// Where the time went.
    pub timings: ShardTimings,
}

/// A switch sharded across N workers by flow steering: one independent
/// [`Switch`] (slot-compiled by default) per shard, fed with batched
/// packets, merged back deterministically.
///
/// # Panic freedom
///
/// No public entry point panics. The threaded run supervises its workers
/// (even a deliberately panicking [`PipelineEngine`] surfaces as a typed
/// [`SwitchError::Fault`], never an abort — see the module docs); the
/// inline terminals return typed errors and leave engine panics to the
/// caller.
///
/// ```
/// use banzai::{AtomPipeline, ShardConfig, ShardedSwitch};
/// use domino_ir::Packet;
///
/// // Stateless pipelines shard by whole-packet hashing; 4 workers.
/// let mut sw = ShardedSwitch::new_slot(
///     &AtomPipeline::passthrough("in"),
///     &AtomPipeline::passthrough("out"),
///     ShardConfig::new(4),
/// )
/// .unwrap();
/// let trace: Vec<Packet> = (0..100).map(|i| Packet::new().with("flow", i % 7)).collect();
/// let out = sw.run(&trace).collect().unwrap();
/// assert_eq!(out.len(), 100);
/// assert_eq!(sw.transmitted(), 100);
/// assert_eq!(sw.plan().effective(), 4);
/// ```
#[derive(Debug)]
pub struct ShardedSwitch<E: PipelineEngine = SlotMachine> {
    plan: ShardPlan,
    shards: Vec<Switch<E>>,
    /// The compiled pipelines, kept for rebuilding a failed shard's
    /// engines after a fault (through the plain [`PipelineEngine::build`]
    /// hook, so replacements are pristine — a [`crate::fault::FaultyEngine`]
    /// shard is rebuilt *without* its fault schedule).
    ingress_pipeline: AtomPipeline,
    egress_pipeline: AtomPipeline,
    /// The one field table every shard and the post-merge stage share,
    /// so queued packets move between them as they are.
    table: Arc<FieldTable>,
    capacity: usize,
    batch: usize,
    ring: usize,
    seed: u64,
    backpressure: Backpressure,
    watchdog_ms: u64,
    /// The scheduling policy every shard runs (and the merge obeys).
    sched: SchedSpec,
    /// The serial post-merge stage of the scheduling path: after a PIFO
    /// the output link is a single serialized stream, so the merged
    /// queue drains here, and its egress engine's state evolves over
    /// exactly the serial departure sequence. Built lazily on the first
    /// [`ShardedSchedRun::collect`].
    sched_tail: Option<Switch<E>>,
    /// Counters salvaged from shards that have since been rebuilt, plus
    /// feeder-side drops (backpressure sheds) — folded into
    /// [`Self::transmitted`] / [`Self::drop_counters`] so the totals stay
    /// conservation-exact across faults.
    extra_transmitted: u64,
    extra_drops: DropCounters,
}

impl ShardedSwitch<SlotMachine> {
    /// Builds a sharded switch running every shard on the slot-compiled
    /// fast path (the production configuration).
    pub fn new_slot(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        config: ShardConfig,
    ) -> Result<ShardedSwitch<SlotMachine>, SwitchError> {
        ShardedSwitch::new(ingress, egress, config)
    }
}

impl<E: PipelineEngine> ShardedSwitch<E> {
    /// Builds a sharded switch over any [`PipelineEngine`].
    ///
    /// Never fails on a non-partitionable pipeline pair — that produces a
    /// working single-shard plan with [`ShardPlan::fallback`] set.
    /// Errors only if the engine itself cannot be built.
    pub fn new(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        config: ShardConfig,
    ) -> Result<ShardedSwitch<E>, SwitchError> {
        ShardedSwitch::new_with(ingress, egress, config, |_, ing, eg, capacity| {
            Ok(Switch::from_engines(
                E::build(ing)?,
                E::build(eg)?,
                capacity,
            ))
        })
    }

    /// Builds a sharded switch with a caller-supplied per-shard factory —
    /// the constructor-driven injection point the chaos suite uses to arm
    /// individual shards with [`crate::fault::FaultyEngine`] schedules.
    ///
    /// The factory is called once per shard with `(shard index, ingress
    /// pipeline, egress pipeline, queue capacity)`. Shards **rebuilt
    /// after a fault** do *not* go through the factory; they use the
    /// plain [`PipelineEngine::build`] hook, so a replacement engine
    /// never inherits its predecessor's fault schedule.
    pub fn new_with<F>(
        ingress: &AtomPipeline,
        egress: &AtomPipeline,
        config: ShardConfig,
        mut factory: F,
    ) -> Result<ShardedSwitch<E>, SwitchError>
    where
        F: FnMut(usize, &AtomPipeline, &AtomPipeline, usize) -> Result<Switch<E>, SwitchError>,
    {
        let plan = ShardPlan::plan(ingress, egress, config.shards);
        let mut shards = Vec::with_capacity(plan.effective());
        for s in 0..plan.effective() {
            // The factory builds the engines; the configured scheduling
            // policy is applied uniformly on top (so injected-fault
            // factories compose with programmed schedulers).
            shards.push(
                factory(s, ingress, egress, config.capacity)?.with_scheduler(config.sched.clone()),
            );
        }
        let mut union = FieldTable::new();
        for sw in &shards {
            union.extend_from(sw.field_table());
        }
        let table = Arc::new(union);
        for sw in &mut shards {
            sw.adopt_table(&table);
        }
        Ok(ShardedSwitch {
            plan,
            shards,
            ingress_pipeline: ingress.clone(),
            egress_pipeline: egress.clone(),
            table,
            capacity: config.capacity,
            batch: config.batch.max(1),
            ring: config.ring.max(1),
            seed: config.seed,
            backpressure: config.backpressure,
            watchdog_ms: config.watchdog_ms.max(1),
            sched: config.sched,
            sched_tail: None,
            extra_transmitted: 0,
            extra_drops: DropCounters::new(),
        })
    }

    /// The resolved sharding decision.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of live shards (== [`ShardPlan::effective`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured overload policy.
    pub fn backpressure(&self) -> Backpressure {
        self.backpressure
    }

    /// Packets dropped across all shards for any reason, dispatcher
    /// backpressure sheds and counters salvaged from rebuilt shards
    /// included.
    pub fn drops(&self) -> u64 {
        self.drop_counters().total()
    }

    /// Per-reason drop counters merged across all shards (see
    /// [`crate::switch::DropCounters`]), dispatcher sheds and salvaged
    /// counters included.
    pub fn drop_counters(&self) -> DropCounters {
        let mut merged = self.extra_drops.clone();
        for s in &self.shards {
            merged.merge(s.drop_counters());
        }
        merged
    }

    /// Packets transmitted across all shards (outputs salvaged from
    /// since-rebuilt shards included).
    pub fn transmitted(&self) -> u64 {
        let tail = self.sched_tail.as_ref().map_or(0, Switch::transmitted);
        self.shards.iter().map(|s| s.transmitted()).sum::<u64>() + self.extra_transmitted + tail
    }

    /// Merges per-shard output streams by seeded round-robin: starting at
    /// a seed-derived shard, take one packet from each non-exhausted
    /// shard in cyclic order. Per-flow order is preserved for flows as
    /// the steering key defines them (such a flow lives on one shard and
    /// shard order is kept — under whole-packet steering that means
    /// identical packets; replica mode deals by trace index, so its
    /// "flows" are the index residue classes); the cross-flow interleave
    /// is a pure function of
    /// the seed and shard count, so repeated runs are bit-identical
    /// regardless of thread scheduling.
    pub fn merge(&self, parts: Vec<Vec<Packet>>) -> Vec<Packet> {
        let n = parts.len();
        if n == 1 {
            return parts.into_iter().next().unwrap_or_default();
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let start = self.merge_start(n);
        let mut iters: Vec<std::vec::IntoIter<Packet>> =
            parts.into_iter().map(|p| p.into_iter()).collect();
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            for off in 0..n {
                if let Some(p) = iters[(start + off) % n].next() {
                    out.push(p);
                }
            }
        }
        out
    }

    /// The shard the seeded round-robin merge starts at.
    fn merge_start(&self, n: usize) -> usize {
        (mix64(self.seed) % n as u64) as usize
    }

    /// Opens a streaming run session: anything convertible to a
    /// [`PacketSource`] drives the sharded switch through the returned
    /// [`ShardedRun`] builder, whose terminal picks the driver.
    ///
    /// The supervised terminal ([`ShardedRun::collect`]) pulls from the
    /// source on the dispatcher thread and feeds the bounded batch rings,
    /// so *input* memory stays O(batch × shards) however long the run;
    /// [`ShardedRun::for_each`] additionally streams outputs to a sink.
    ///
    /// ```
    /// use banzai::{AtomPipeline, ShardConfig, ShardedSwitch};
    /// use domino_ir::Packet;
    ///
    /// let mut sw = ShardedSwitch::new_slot(
    ///     &AtomPipeline::passthrough("in"),
    ///     &AtomPipeline::passthrough("out"),
    ///     ShardConfig::new(2),
    /// )
    /// .unwrap();
    /// let trace: Vec<Packet> = (0..50).map(|i| Packet::new().with("flow", i % 5)).collect();
    /// let merged = sw.run(&trace).collect().unwrap();
    /// assert_eq!(merged.len(), 50);
    /// ```
    pub fn run<S: IntoPacketSource>(&mut self, source: S) -> ShardedRun<'_, E, S::Source> {
        ShardedRun {
            switch: self,
            source: source.into_packet_source(),
        }
    }

    /// Opens a streaming byte-frame run session over anything convertible
    /// to a [`FrameSource`] — the sharded twin of
    /// [`Switch::run_frames`], terminated by
    /// [`ShardedFrameRun::partitioned`].
    pub fn run_frames<'c, S: IntoFrameSource>(
        &mut self,
        source: S,
        cfg: &'c WireConfig,
    ) -> ShardedFrameRun<'_, 'c, E, S::Source> {
        ShardedFrameRun {
            switch: self,
            source: source.into_frame_source(),
            cfg,
        }
    }

    /// Every shard's link must run at line rate for stamped lanes to
    /// compose (see `Switch::line_rate`).
    fn line_rate(&self) -> Result<(), SwitchError> {
        self.shards.iter().try_for_each(Switch::line_rate)
    }

    /// A fresh shard with pristine engines, through the plain build hook
    /// (a replacement never inherits a fault schedule).
    fn rebuild(&self, capacity: usize) -> Result<Switch<E>, SwitchError> {
        let mut sw = Switch::from_engines(
            E::build(&self.ingress_pipeline)?,
            E::build(&self.egress_pipeline)?,
            capacity,
        )
        .with_scheduler(self.sched.clone());
        sw.adopt_table(&self.table);
        Ok(sw)
    }

    /// The dispatcher's one step: pulls arrival `i` (stamped with its
    /// global cycle `i`) and steers it. A packet goes where the plan
    /// says; a frame the parser rejected has no fields to steer by and
    /// is dealt to shard `i % n`, so exactly one shard books its drop.
    fn pull_steered<A: Arrivals>(
        &self,
        src: &mut A,
        i: u64,
    ) -> Result<Option<(usize, Arrival)>, SourceError> {
        Ok(src.next_arrival(i as i64)?.map(|arrival| {
            let shard = match &arrival {
                Ok((_, pkt, _)) => self.plan.steer(i as usize, pkt),
                Err(_) => i as usize % self.plan.effective(),
            };
            (shard, arrival)
        }))
    }

    /// The supervised threaded driver behind [`ShardedRun::collect`] and
    /// [`ShardedSchedRun::collect`].
    ///
    /// One worker per shard runs its switch through the serial run core
    /// on global arrival stamps, a batch at a time, each batch inside
    /// `catch_unwind`. The caller's thread pulls and steers arrivals into
    /// bounded batch rings under the configured [`Backpressure`] policy,
    /// then collects each worker's outcome, bounded by the watchdog.
    /// Input memory is O(batch × ring × shards).
    ///
    /// Under [`Drain::Periodic`] each shard's outputs come back in
    /// order. Under [`Drain::Burst`] the workers only admit, and every
    /// admitted packet stays queued on its shard for the caller to
    /// merge.
    ///
    /// Returns the packets pulled and the per-shard outputs, or a
    /// [`FaultReport`] if a worker or the source failed (see
    /// [`ShardedRun::collect`] for the failure model).
    fn run_supervised<A: Arrivals>(
        &mut self,
        src: &mut A,
        drain: Drain,
    ) -> Result<(u64, Vec<Vec<Packet>>), SwitchError>
    where
        E: Send + 'static,
    {
        if drain == Drain::Periodic {
            self.line_rate()?;
        }
        let n = self.shards.len();
        let watchdog = Duration::from_millis(self.watchdog_ms);
        let mut rings: Vec<Ring> = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for sw in std::mem::take(&mut self.shards) {
            let (tx, rx) = mpsc::sync_channel::<Vec<Incoming>>(self.ring);
            let (done_tx, done_rx) = mpsc::channel();
            let handle = std::thread::spawn(move || {
                let _ = done_tx.send(worker_loop(sw, rx, drain));
            });
            rings.push(Some(tx));
            workers.push((done_rx, handle));
        }

        // Feed. A shard cut off (dead or stalled) keeps accumulating
        // `offered` for the books but receives nothing further.
        let mut offered = vec![0u64; n];
        let mut feeder_drops = vec![DropCounters::new(); n];
        let mut stalled = vec![false; n];
        let mut pending: Vec<Vec<Incoming>> =
            (0..n).map(|_| Vec::with_capacity(self.batch)).collect();
        let mut pulled: u64 = 0;
        let source_error = loop {
            let (s, arrival) = match self.pull_steered(src, pulled) {
                Ok(Some(steered)) => steered,
                Ok(None) => break None,
                Err(e) => break Some(e),
            };
            pulled += 1;
            offered[s] += 1;
            match arrival {
                Err(verdict) => feeder_drops[s].bump(DropReason::Parse(verdict)),
                Ok(queued) if rings[s].is_some() => {
                    pending[s].push(queued);
                    if pending[s].len() >= self.batch {
                        let batch =
                            std::mem::replace(&mut pending[s], Vec::with_capacity(self.batch));
                        self.feed(&mut rings[s], batch, &mut feeder_drops[s], &mut stalled[s]);
                    }
                }
                Ok(_) => {}
            }
        };
        for (s, rest) in pending.into_iter().enumerate() {
            if !rest.is_empty() {
                self.feed(&mut rings[s], rest, &mut feeder_drops[s], &mut stalled[s]);
            }
        }
        drop(rings); // close every ring: drained workers exit their loops

        // Collect. A worker that never reports is abandoned (its handle
        // is dropped, detaching it), never joined, so a wedged engine
        // cannot hang the caller.
        let mut collected: Vec<Collected<E>> = Vec::with_capacity(n);
        for (s, (done_rx, handle)) in workers.into_iter().enumerate() {
            collected.push(if stalled[s] {
                Collected::Stalled
            } else {
                match done_rx.recv_timeout(watchdog) {
                    Ok(outcome) => {
                        let _ = handle.join();
                        Collected::Reported(outcome)
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => Collected::Stalled,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        let _ = handle.join();
                        Collected::Vanished
                    }
                }
            });
        }
        for drops in &feeder_drops {
            self.extra_drops.merge(drops);
        }

        let clean = source_error.is_none()
            && collected
                .iter()
                .all(|c| matches!(c, Collected::Reported(WorkerOutcome::Done(..))));
        if clean {
            let mut parts = Vec::with_capacity(n);
            for c in collected {
                if let Collected::Reported(WorkerOutcome::Done(sw, out)) = c {
                    self.shards.push(*sw);
                    parts.push(out);
                }
            }
            return Ok((pulled, parts));
        }

        // A worker or the source faulted: salvage everything reachable,
        // rebuild the dead shards so the switch stays usable, and close
        // the books.
        let mut failures: Vec<ShardError> = Vec::new();
        let mut salvage: Vec<ShardSalvage> = Vec::with_capacity(n);
        for (s, (c, mut drops)) in collected.into_iter().zip(feeder_drops).enumerate() {
            let (output, state, failure) = match c {
                Collected::Reported(WorkerOutcome::Done(mut sw, mut out)) => {
                    drops.merge(sw.drop_counters());
                    if drain == Drain::Burst {
                        // Nothing reached egress: the salvage is the
                        // shard's queue, in the discipline's order.
                        out = popped(&mut sw);
                        self.extra_transmitted += out.len() as u64;
                    }
                    let state = (sw.export_ingress_state(), sw.export_egress_state());
                    self.shards.push(*sw);
                    (out, Some(state), None)
                }
                Collected::Reported(WorkerOutcome::Fault {
                    out,
                    packet,
                    cause,
                    drops: shard_drops,
                }) => {
                    drops.merge(&shard_drops);
                    self.extra_drops.merge(&shard_drops);
                    self.extra_transmitted += out.len() as u64;
                    (out, None, Some((packet, cause)))
                }
                Collected::Stalled => {
                    let cause = FaultCause::Stall {
                        watchdog_ms: self.watchdog_ms,
                    };
                    (Vec::new(), None, Some((None, cause)))
                }
                Collected::Vanished => (Vec::new(), None, Some((None, FaultCause::Disconnected))),
            };
            if let Some((packet, cause)) = failure {
                failures.push(ShardError {
                    shard: s,
                    packet,
                    cause,
                });
                self.shards.push(self.rebuild(self.capacity)?);
            }
            salvage.push(ShardSalvage {
                shard: s,
                failed: state.is_none(),
                offered: offered[s],
                output,
                drops,
                state,
            });
        }
        let transmitted = salvage.iter().map(|s| s.output.len() as u64).sum();
        let survivors = salvage
            .iter()
            .map(|s| {
                if s.failed {
                    Vec::new()
                } else {
                    s.output.clone()
                }
            })
            .collect();
        Err(SwitchError::Fault(FaultReport::closed(
            pulled,
            transmitted,
            failures,
            source_error.map(|error| SourceFault { at: pulled, error }),
            salvage,
            self.merge(survivors),
        )))
    }

    /// Pushes one batch into a shard's ring under the overload policy,
    /// never blocking past the watchdog: a full ring sheds the batch
    /// (counted under [`DropReason::Backpressure`]) or, once the watchdog
    /// expires, marks the shard stalled; a hung-up ring (its worker
    /// exited) is cut off.
    fn feed(
        &self,
        ring: &mut Ring,
        mut batch: Vec<Incoming>,
        drops: &mut DropCounters,
        stalled: &mut bool,
    ) {
        let Some(tx) = ring.as_ref() else { return };
        let started = Instant::now();
        loop {
            match tx.try_send(batch) {
                Ok(()) => return,
                Err(mpsc::TrySendError::Disconnected(_)) => break,
                Err(mpsc::TrySendError::Full(b)) => match self.backpressure {
                    Backpressure::Shed => {
                        drops.bump_by(DropReason::Backpressure, b.len() as u64);
                        return;
                    }
                    Backpressure::Block
                        if started.elapsed() >= Duration::from_millis(self.watchdog_ms) =>
                    {
                        *stalled = true;
                        break;
                    }
                    Backpressure::Block => {
                        batch = b;
                        // SyncSender has no send_timeout; a short sleep
                        // keeps the spin polite while staying far under
                        // any realistic watchdog granularity.
                        std::thread::sleep(Duration::from_micros(200));
                    }
                },
            }
        }
        *ring = None;
    }

    /// The scheduling terminal behind [`ShardedSchedRun::collect`]: the
    /// workers admit their packets under the serial burst rule, then
    /// every shard's queued packets go, in global arrival order, into the
    /// queue of a serial post-merge stage whose burst drain assigns the
    /// departures. Its queue pops in exactly the serial switch's order
    /// (the serial tie-break *is* arrival order), and its egress engine
    /// sees exactly the serial departure sequence.
    fn run_scheduled<S: PacketSource>(
        &mut self,
        source: &mut S,
    ) -> Result<Vec<SchedDeparture>, SwitchError>
    where
        E: Send + 'static,
    {
        let (pulled, _) = self.run_supervised(&mut Packets(source), Drain::Burst)?;
        let mut entries: Vec<(SchedKey, Queued)> = self
            .shards
            .iter_mut()
            .flat_map(Switch::take_queue)
            .collect();
        entries.sort_unstable_by_key(|(_, queued)| queued.arrival);
        let tail = match self.sched_tail.take() {
            Some(tail) => tail,
            // Unbounded: it only re-orders what the shards admitted.
            None => self.rebuild(usize::MAX)?,
        };
        let tail = self.sched_tail.insert(tail);
        tail.requeue(entries);
        let mut out = Vec::with_capacity(tail.queue_depth());
        tail.drain_burst(pulled, &mut |d, _| out.push(d));
        Ok(out)
    }

    /// The chunked inline driver behind [`ShardedRun::for_each`],
    /// [`ShardedRun::partitioned`], [`ShardedRun::instrumented`] and
    /// [`ShardedFrameRun::partitioned`], on the caller's thread.
    ///
    /// It pulls up to `batch` arrivals and steers them, then runs each
    /// shard's lane of the chunk through the serial run core on global
    /// arrival stamps, and buffers the outputs per shard (`lift` shapes
    /// each departure). `flush` sees the buffers after every chunk, and
    /// is told when the source has ended. Lanes are timed chunk by
    /// chunk: interleaving spreads host interference (virtualization
    /// steal, frequency excursions) evenly over the lanes, so the
    /// relative lane balance stays honest.
    ///
    /// Unsupervised: engine panics propagate as panics.
    fn run_inline<A: Arrivals, T>(
        &mut self,
        src: &mut A,
        lift: impl Fn(SchedDeparture, Option<Box<WireLayout>>) -> T,
        timings: &mut ShardTimings,
        mut flush: impl FnMut(&mut [VecDeque<T>], bool),
    ) -> Result<Inline<T>, SwitchError> {
        self.line_rate()?;
        let n = self.shards.len();
        let mut run = Inline {
            pulled: 0,
            offered: vec![0; n],
            before: self
                .shards
                .iter()
                .map(|s| s.drop_counters().clone())
                .collect(),
            error: None,
            out: (0..n).map(|_| VecDeque::new()).collect(),
        };
        timings.shard_ns = vec![0; n];
        let mut lanes: Vec<Vec<Incoming>> = (0..n).map(|_| Vec::new()).collect();
        let mut ended = false;
        while !ended {
            let t = Instant::now();
            for _ in 0..self.batch {
                match self.pull_steered(src, run.pulled) {
                    Ok(Some((s, arrival))) => {
                        run.pulled += 1;
                        run.offered[s] += 1;
                        match arrival {
                            Ok(queued) => lanes[s].push(queued),
                            Err(verdict) => self.shards[s].record_drop(DropReason::Parse(verdict)),
                        }
                    }
                    Ok(None) => ended = true,
                    Err(e) => {
                        run.error = Some(e);
                        ended = true;
                    }
                }
                if ended {
                    break;
                }
            }
            timings.steer_ns += t.elapsed().as_nanos();
            for (s, (sw, lane)) in self.shards.iter_mut().zip(&mut lanes).enumerate() {
                if lane.is_empty() {
                    continue;
                }
                let out = &mut run.out[s];
                let t = Instant::now();
                sw.run_core(
                    &mut Stamped(lane.iter_mut()),
                    Drain::Periodic,
                    &mut |d, layout| out.push_back(lift(d, layout)),
                );
                timings.shard_ns[s] += t.elapsed().as_nanos();
                lane.clear();
            }
            flush(&mut run.out, ended);
        }
        Ok(run)
    }

    /// Closes an inline run whose source failed: every lane ran what it
    /// was fed to completion, so the salvage is complete (`outputs`, one
    /// per shard, empty where they already left through a sink) and
    /// nothing is lost in the fault.
    fn inline_fault<T>(
        &self,
        run: Inline<T>,
        error: SourceError,
        transmitted: u64,
        outputs: Vec<Vec<Packet>>,
    ) -> SwitchError {
        let salvage = self
            .shards
            .iter()
            .zip(outputs.iter().cloned())
            .enumerate()
            .map(|(s, (sw, output))| sw.salvage(s, run.offered[s], output, &run.before[s]))
            .collect();
        SwitchError::Fault(FaultReport::closed(
            run.pulled,
            transmitted,
            Vec::new(),
            Some(SourceFault {
                at: run.pulled,
                error,
            }),
            salvage,
            self.merge(outputs),
        ))
    }

    /// The per-shard outputs of an inline packet run (see
    /// [`ShardedRun::partitioned`]).
    fn run_parts<S: PacketSource>(
        &mut self,
        source: &mut S,
        timings: &mut ShardTimings,
    ) -> Result<Vec<Vec<Packet>>, SwitchError> {
        let mut run = self.run_inline(&mut Packets(source), |d, _| d.pkt, timings, |_, _| {})?;
        let parts: Vec<Vec<Packet>> = std::mem::take(&mut run.out)
            .into_iter()
            .map(Vec::from)
            .collect();
        match run.error.take() {
            None => Ok(parts),
            Some(error) => {
                let transmitted = parts.iter().map(|p| p.len() as u64).sum();
                Err(self.inline_fault(run, error, transmitted, parts))
            }
        }
    }

    /// The scheduling policy every shard runs.
    pub fn scheduler(&self) -> &SchedSpec {
        &self.sched
    }

    /// Snapshot of the scheduling path's post-merge egress engine
    /// (`None` until the first [`ShardedSchedRun::collect`]).
    /// Bit-identical to a serial switch's egress state over the same
    /// departures, because the post-merge egress pass *is* serial.
    pub fn export_sched_egress_state(&self) -> Option<StateStore> {
        self.sched_tail.as_ref().map(Switch::export_egress_state)
    }

    /// Each shard's `(ingress, egress)` state snapshot.
    pub fn export_shard_states(&self) -> Vec<(StateStore, StateStore)> {
        self.shards
            .iter()
            .map(|s| (s.export_ingress_state(), s.export_egress_state()))
            .collect()
    }

    /// Reconstructs the serial switch's ingress state from the shards:
    /// every array slot is read from the shard that owns its key class.
    ///
    /// Under replica mode the shards' full copies are folded instead (see
    /// [`ReplicaSpec::merge_states`]). Every plan defines how its state
    /// merges, so no error path remains; the `Result` is kept so callers
    /// need not change.
    pub fn export_merged_ingress_state(&self) -> Result<StateStore, SwitchError> {
        self.merged_state(
            &self.plan.merge_ingress,
            &self.ingress_pipeline.state_decls,
            |s| s.export_ingress_state(),
        )
    }

    /// Reconstructs the serial switch's egress state from the shards.
    pub fn export_merged_egress_state(&self) -> Result<StateStore, SwitchError> {
        self.merged_state(
            &self.plan.merge_egress,
            &self.egress_pipeline.state_decls,
            |s| s.export_egress_state(),
        )
    }

    fn merged_state(
        &self,
        plan: &MergePlan,
        decls: &[StateVar],
        export: impl Fn(&Switch<E>) -> StateStore,
    ) -> Result<StateStore, SwitchError> {
        if self.shards.len() == 1 {
            return Ok(export(&self.shards[0]));
        }
        match plan {
            // A trivial side writes no state: all shards still hold the
            // declared initializers, as does the serial switch.
            MergePlan::Trivial => Ok(export(&self.shards[0])),
            MergePlan::Owned(spec) => {
                let snaps: Vec<StateStore> = self.shards.iter().map(&export).collect();
                let mut merged = StateStore::from_decls(decls);
                for d in decls {
                    match d.kind {
                        // Keyed extraction forbids scalar *access*, so a
                        // declared scalar is untouched everywhere and the
                        // initializer already in `merged` is the value.
                        StateKind::Scalar => {}
                        StateKind::Array { size } => {
                            for k in 0..size {
                                let owner =
                                    FlowKeySpec::shard_of_class(k % spec.modulus(), snaps.len());
                                merged.write_array(
                                    &d.name,
                                    k as i32,
                                    snaps[owner].read_array(&d.name, k as i32),
                                );
                            }
                        }
                    }
                }
                Ok(merged)
            }
            MergePlan::Replicated(spec) => {
                let snaps: Vec<StateStore> = self.shards.iter().map(&export).collect();
                Ok(spec.merge_states(&snaps))
            }
        }
    }

    /// Broadcasts serial state snapshots to every shard — the import half
    /// of the per-partition state hooks. Each shard only ever touches its
    /// own key classes, so handing every shard the full snapshot
    /// reproduces exactly the partition a merged export would select.
    pub fn import_state(&mut self, ingress: &StateStore, egress: &StateStore) {
        for sw in &mut self.shards {
            sw.import_ingress_state(ingress);
            sw.import_egress_state(egress);
        }
    }
}

/// A pending sharded streaming run, opened by [`ShardedSwitch::run`].
///
/// Terminal methods pick the driver:
///
/// * [`ShardedRun::collect`] — supervised worker threads, merged output
///   (the production path);
/// * [`ShardedRun::for_each`] — the caller's thread, outputs streamed to
///   a sink in merge order (bounded memory end to end);
/// * [`ShardedRun::partitioned`] — the caller's thread, un-merged
///   per-shard outputs (the differential observable);
/// * [`ShardedRun::instrumented`] — the partitioned run with lane timings;
/// * [`ShardedRun::scheduled`] — switch to the PIFO scheduling experiment.
#[must_use = "a run session does nothing until a terminal method consumes it"]
pub struct ShardedRun<'s, E: PipelineEngine, S: PacketSource> {
    switch: &'s mut ShardedSwitch<E>,
    source: S,
}

impl<'s, E: PipelineEngine, S: PacketSource> ShardedRun<'s, E, S> {
    /// Switches this run to the scheduling experiment under the
    /// [`SchedSpec`] the switch was configured with (see
    /// [`ShardConfig::with_scheduler`]).
    pub fn scheduled(self) -> ShardedSchedRun<'s, E, S> {
        ShardedSchedRun {
            switch: self.switch,
            source: self.source,
        }
    }

    /// Runs the source across all shards on **supervised worker
    /// threads** — the caller thread pulls packets and steers them into
    /// per-shard bounded batch rings, each worker drains its ring through
    /// its own switch inside `catch_unwind`, and the outputs merge
    /// deterministically. Input memory is O(batch × ring × shards).
    ///
    /// # Failure model
    ///
    /// * A **panicking** worker is isolated: its panic is caught, the
    ///   remaining shards drain cleanly, and the run returns
    ///   [`SwitchError::Fault`] with a [`FaultReport`] naming the shard,
    ///   the global index of the packet that triggered the fault, the
    ///   panic payload, every surviving shard's complete output and state
    ///   snapshot, the failed shard's completed-batch output prefix, and
    ///   [`Accounting`](crate::error::Accounting) that balances exactly
    ///   (`offered == transmitted + dropped + lost_in_fault`).
    /// * A **source error** mid-stream stops the feeder; every worker
    ///   still drains what it was fed, and the report carries the
    ///   [`SourceFault`] alongside complete per-shard salvage.
    /// * A **full ring** degrades per the configured [`Backpressure`]
    ///   policy: `Block` waits up to [`ShardConfig::watchdog_ms`] then
    ///   declares the worker stalled; `Shed` drops the batch under the
    ///   [`DropReason::Backpressure`] counter and keeps going.
    /// * A **stalled or silently dead** worker is detected by the
    ///   feeder/collector watchdog and abandoned — this method never
    ///   hangs on a wedged worker and never joins one.
    ///
    /// After a fault, failed shards are **rebuilt** with fresh engines
    /// (surviving shards keep their state), so the switch remains usable;
    /// warm-start a rebuilt shard from the salvaged snapshots via
    /// [`ShardedSwitch::import_state`] if desired. In the practically
    /// unreachable case that rebuilding itself fails, that `Build` error
    /// is returned and the switch must be reconstructed.
    ///
    /// # Errors
    ///
    /// Besides faults, [`SwitchError::Unsupported`] if a shard's egress
    /// link is oversubscribed (`drain_period != 1`): a standing queue
    /// couples the shards.
    pub fn collect(mut self) -> Result<Vec<Packet>, SwitchError>
    where
        E: Send + 'static,
    {
        let (_, parts) = self
            .switch
            .run_supervised(&mut Packets(&mut self.source), Drain::Periodic)?;
        Ok(self.switch.merge(parts))
    }

    /// Streams every merged output packet to `sink` instead of
    /// materializing them, on the caller's thread, in exactly the order
    /// [`ShardedRun::collect`] would return — bit-identical output with
    /// memory bounded by the steering balance rather than the trace
    /// length: per-shard buffers hold only packets the round-robin cursor
    /// has not reached, and the cursor waits on a shard with nothing
    /// buffered until the source ends. Returns the run's [`RunStats`].
    pub fn for_each<F: FnMut(Packet)>(mut self, mut sink: F) -> Result<RunStats, SwitchError> {
        let n = self.switch.shards.len();
        let mut cursor = self.switch.merge_start(n);
        let mut emitted: u64 = 0;
        let mut run = self.switch.run_inline(
            &mut Packets(&mut self.source),
            |d, _| d.pkt,
            &mut untimed(),
            |buffers, ended| loop {
                if let Some(pkt) = buffers[cursor].pop_front() {
                    emitted += 1;
                    sink(pkt);
                } else if !ended || buffers.iter().all(VecDeque::is_empty) {
                    break;
                }
                cursor = (cursor + 1) % n;
            },
        )?;
        match run.error.take() {
            None => Ok(RunStats {
                offered: run.pulled,
                transmitted: emitted,
            }),
            // The outputs already left through the sink.
            Some(error) => Err(self
                .switch
                .inline_fault(run, error, emitted, vec![Vec::new(); n])),
        }
    }

    /// Runs shard-by-shard on the calling thread and returns each shard's
    /// output subsequence (un-merged) — the observable the differential
    /// suites compare against serial execution. Unsupervised: engine
    /// panics propagate as panics.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Unsupported`] on an oversubscribed egress link;
    /// [`SwitchError::Fault`] if the source fails mid-stream, with every
    /// lane's salvage complete.
    pub fn partitioned(mut self) -> Result<Vec<Vec<Packet>>, SwitchError> {
        self.switch.run_parts(&mut self.source, &mut untimed())
    }

    /// Like [`ShardedRun::partitioned`], but timed (steer, per-shard busy
    /// runs, merge) and merged — see [`ShardTimings`].
    pub fn instrumented(mut self) -> Result<ShardRun, SwitchError> {
        let mut timings = untimed();
        let parts = self.switch.run_parts(&mut self.source, &mut timings)?;
        // Time the merge the production path performs: a move, no clones.
        let t = Instant::now();
        let merged = self.switch.merge(parts);
        timings.merge_ns = t.elapsed().as_nanos();
        Ok(ShardRun { merged, timings })
    }
}

/// A pending sharded **scheduling** run (see [`ShardedRun::scheduled`]).
#[must_use = "a run session does nothing until a terminal method consumes it"]
pub struct ShardedSchedRun<'s, E: PipelineEngine, S: PacketSource> {
    switch: &'s mut ShardedSwitch<E>,
    source: S,
}

impl<E: PipelineEngine, S: PacketSource> ShardedSchedRun<'_, E, S> {
    /// Runs the scheduling experiment across all shards on supervised
    /// worker threads — the sharded twin of the serial
    /// `run(..).scheduled().collect()`, bit-identical to it on
    /// [`ShardTier::Exact`] plans.
    ///
    /// Each worker ingress-processes its steered packets and queues them
    /// under the configured [`SchedSpec`]. Admission is the serial burst
    /// rule: during the arrival phase the serial queue only grows, so it
    /// admits exactly the arrivals with global cycle below `capacity` — a
    /// globally computable rule, which is what keeps sharded `SchedFull`
    /// drops bit-identical to serial even under overload. At collect
    /// time every shard's queued packets enter one serial post-merge
    /// queue in global arrival order, and its drain assigns departure
    /// cycles and runs egress exactly as the serial switch does.
    ///
    /// # Failure model
    ///
    /// Supervision is identical to [`ShardedRun::collect`] (same feeder,
    /// rings, watchdog, and collector). A faulted run returns
    /// [`SwitchError::Fault`]; the failed shard's salvage is its queue's
    /// contents **popped in rank order** (the queue lives outside the
    /// per-batch `catch_unwind`, so a mid-batch panic cannot corrupt or
    /// lose it), and the accounting closes the books exactly.
    pub fn collect(mut self) -> Result<Vec<SchedDeparture>, SwitchError>
    where
        E: Send + 'static,
    {
        self.switch.run_scheduled(&mut self.source)
    }
}

/// A pending sharded **byte-level** run, opened by
/// [`ShardedSwitch::run_frames`].
#[must_use = "a run session does nothing until a terminal method consumes it"]
pub struct ShardedFrameRun<'s, 'c, E: PipelineEngine, S: FrameSource> {
    switch: &'s mut ShardedSwitch<E>,
    source: S,
    cfg: &'c WireConfig,
}

impl<E: PipelineEngine, S: FrameSource> ShardedFrameRun<'_, '_, E, S> {
    /// Parses and steers the frame stream, runs each shard's lane on the
    /// calling thread, and returns the per-shard output frames
    /// (un-merged).
    ///
    /// The dispatcher parses each frame once and steers by the parsed
    /// packet and frame index, so a frame lands on exactly the shard its
    /// packet-born twin would (under replica mode both paths deal by
    /// index), stamped with its global arrival cycle as on the serial
    /// switch. Malformed frames carry no fields to steer by; frame `i`
    /// books its parse drop on shard `i % n`, so frame conservation
    /// holds shard by shard.
    ///
    /// # Errors
    ///
    /// [`SwitchError::Unsupported`] on an oversubscribed egress link;
    /// [`SwitchError::Fault`] if the source fails mid-stream, whose
    /// salvage carries each shard's egressed packets (before deparse).
    pub fn partitioned(mut self) -> Result<Vec<Vec<Vec<u8>>>, SwitchError> {
        let mut frames = Frames {
            src: &mut self.source,
            cfg: self.cfg,
        };
        let mut run = self.switch.run_inline(
            &mut frames,
            |d, layout| (d.pkt, layout),
            &mut untimed(),
            |_, _| {},
        )?;
        let lanes = std::mem::take(&mut run.out);
        if let Some(error) = run.error.take() {
            let outputs: Vec<Vec<Packet>> = lanes
                .into_iter()
                .map(|lane| lane.into_iter().map(|(pkt, _)| pkt).collect())
                .collect();
            let transmitted = outputs.iter().map(|o| o.len() as u64).sum();
            return Err(self.switch.inline_fault(run, error, transmitted, outputs));
        }
        Ok(lanes
            .into_iter()
            .map(|lane| {
                // Frame-born packets always carry their layout.
                lane.into_iter()
                    .filter_map(|(pkt, layout)| layout.map(|l| wire::deparse(&pkt, &l)))
                    .collect()
            })
            .collect())
    }
}

/// Lane timings that start at zero.
fn untimed() -> ShardTimings {
    ShardTimings {
        steer_ns: 0,
        shard_ns: Vec::new(),
        merge_ns: 0,
    }
}

/// What an inline run leaves behind.
struct Inline<T> {
    /// Arrivals pulled from the source.
    pulled: u64,
    /// Arrivals steered to each shard.
    offered: Vec<u64>,
    /// Each shard's drop counters before the run.
    before: Vec<DropCounters>,
    /// The source's error, if it failed rather than ended.
    error: Option<SourceError>,
    /// Outputs not yet flushed, per shard.
    out: Vec<VecDeque<T>>,
}

/// The feeder's handle to one shard's batch ring (`None` once the shard
/// has been declared dead or stalled and cut off).
type Ring = Option<mpsc::SyncSender<Vec<Incoming>>>;

/// What a shard worker reports back on its outcome channel.
enum WorkerOutcome<E: PipelineEngine> {
    /// Ring drained, switch handed back with its complete output stream
    /// (under [`Drain::Burst`], with its admitted packets still queued).
    Done(Box<Switch<E>>, Vec<Packet>),
    /// The engine faulted mid-batch. The switch is discarded (its state
    /// is suspect after an unwind), but its drop counters — plain
    /// integers, safe to read — ride along, as does its salvage and the
    /// global index of the packet whose processing faulted.
    Fault {
        out: Vec<Packet>,
        packet: Option<u64>,
        cause: FaultCause,
        drops: DropCounters,
    },
}

/// One shard worker: runs each batch from the ring through the serial
/// run core on the batch's global stamps, inside `catch_unwind` so an
/// engine panic is contained to this shard.
///
/// The queue lives outside the unwind scope, so a panic loses only the
/// packet in flight. The salvage of a faulted forwarding worker is the
/// output of its completed batches; that of a faulted scheduling worker
/// is its queue, popped in the discipline's order.
fn worker_loop<E: PipelineEngine>(
    mut sw: Switch<E>,
    rx: mpsc::Receiver<Vec<Incoming>>,
    drain: Drain,
) -> WorkerOutcome<E> {
    let mut out: Vec<Packet> = Vec::new();
    while let Ok(mut batch) = rx.recv() {
        let (before, mark) = (sw.handled(), out.len());
        let run = catch_unwind(AssertUnwindSafe(|| {
            sw.run_core(&mut Stamped(batch.iter_mut()), drain, &mut |d, _| {
                out.push(d.pkt)
            });
        }));
        if let Err(payload) = run {
            // `handled` grows by one per arrival, so the delta across the
            // failing batch pinpoints the packet whose processing faulted.
            let handled = (sw.handled() - before) as usize;
            out.truncate(mark);
            if drain == Drain::Burst {
                out = popped(&mut sw);
            }
            return WorkerOutcome::Fault {
                packet: batch.get(handled).map(|(t, _, _)| *t as u64),
                // `payload.as_ref()`, not `&payload`: the latter unsizes
                // the Box itself into `dyn Any` and every downcast misses.
                cause: FaultCause::Panic(panic_payload_string(payload.as_ref())),
                drops: sw.drop_counters().clone(),
                out,
            };
        }
    }
    WorkerOutcome::Done(Box::new(sw), out)
}

/// Pops a shard's queue, keeping the packets.
fn popped<E: PipelineEngine>(sw: &mut Switch<E>) -> Vec<Packet> {
    sw.take_queue()
        .into_iter()
        .map(|(_, queued)| queued.into_packet())
        .collect()
}

/// Renders a caught panic payload (`String` and `&str` payloads verbatim,
/// anything else a placeholder).
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// What the collector observed for one shard.
enum Collected<E: PipelineEngine> {
    /// The worker reported an outcome within the watchdog window.
    Reported(WorkerOutcome<E>),
    /// No outcome within the window — the worker was abandoned.
    Stalled,
    /// The outcome channel disconnected with no report: the thread died
    /// outside the supervised path.
    Vanished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AtomRole, CompiledAtom};
    use domino_ast::BinOp;
    use domino_ir::{Codelet, Operand, StateRef, TacRhs};

    /// A per-flow array counter: `counts[pkt.flow] += 1`, exposing the
    /// new count in `pkt.c` — keyed on the input field `flow`.
    fn array_counter(name: &str, arr: &str, size: u32) -> AtomPipeline {
        let body = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field("flow".into()),
                },
            },
            TacStmt::Assign {
                dst: "c".into(),
                rhs: TacRhs::Binary(BinOp::Add, Operand::Field("old".into()), Operand::Const(1)),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field("flow".into()),
                },
                src: Operand::Field("c".into()),
            },
        ]);
        AtomPipeline {
            name: name.into(),
            target_name: "test".into(),
            stages: vec![vec![CompiledAtom {
                codelet: body,
                role: AtomRole::Stateless,
            }]],
            state_decls: vec![StateVar {
                name: arr.into(),
                kind: StateKind::Array { size },
                init: 0,
            }],
            declared_fields: vec!["c".into()],
            output_map: vec![],
        }
    }

    /// A global scalar counter — deliberately *not* partitionable.
    fn scalar_counter() -> AtomPipeline {
        let body = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Scalar("total".into()),
            },
            TacStmt::Assign {
                dst: "c".into(),
                rhs: TacRhs::Binary(BinOp::Add, Operand::Field("old".into()), Operand::Const(1)),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("total".into()),
                src: Operand::Field("c".into()),
            },
        ]);
        AtomPipeline {
            name: "scalar_counter".into(),
            target_name: "test".into(),
            stages: vec![vec![CompiledAtom {
                codelet: body,
                role: AtomRole::Stateless,
            }]],
            state_decls: vec![StateVar {
                name: "total".into(),
                kind: StateKind::Scalar,
                init: 0,
            }],
            declared_fields: vec!["c".into()],
            output_map: vec![],
        }
    }

    fn flow_trace(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                Packet::new()
                    .with("flow", (i * 7 % 23) as i32)
                    .with("seq", i as i32)
            })
            .collect()
    }

    fn passthrough(name: &str) -> AtomPipeline {
        AtomPipeline::passthrough(name)
    }

    #[test]
    fn plan_extracts_flow_key_from_array_counter() {
        let p = array_counter("count", "counts", 64);
        let plan = ShardPlan::plan(&p, &passthrough("out"), 4);
        assert_eq!(plan.effective(), 4);
        assert!(plan.fallback().is_none());
        let spec = plan.flow_key().expect("keyed");
        assert_eq!(spec.key_field(), "flow");
        assert_eq!(spec.modulus(), 64);
        assert!(plan.to_string().contains("keyed on pkt.flow mod 64"));
    }

    #[test]
    fn plan_falls_back_on_scalar_state_with_diagnostic() {
        let plan = ShardPlan::plan(&scalar_counter(), &passthrough("out"), 8);
        assert_eq!(plan.requested(), 8);
        assert_eq!(plan.effective(), 1);
        let why = plan.fallback().expect("diagnostic");
        assert!(why.contains("scalar state `total`"), "{why}");
    }

    #[test]
    fn plan_rejects_mismatched_ingress_egress_keys() {
        let ingress = array_counter("in", "a", 8);
        let mut egress = array_counter("eg", "b", 16);
        // Re-key egress on a different field.
        for stage in &mut egress.stages {
            for atom in stage {
                for stmt in &mut atom.codelet.stmts {
                    match stmt {
                        TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. } => {
                            if let StateRef::Array { index, .. } = state {
                                *index = Operand::Field("other".into());
                            }
                        }
                        TacStmt::Assign { .. } => {}
                    }
                }
            }
        }
        let plan = ShardPlan::plan(&ingress, &egress, 4);
        assert_eq!(plan.effective(), 1);
        assert!(
            plan.fallback().unwrap().contains("different flow keys"),
            "{}",
            plan.fallback().unwrap()
        );
    }

    #[test]
    fn sharded_counter_equals_serial_per_shard_and_in_state() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let trace = flow_trace(500);

        let mut serial = Switch::new_slot(&ingress, &egress, 512).unwrap();
        let serial_out = serial.run(&trace).collect().unwrap();

        for shards in [1, 2, 4, 8] {
            let mut sharded =
                ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(shards)).unwrap();
            let parts = sharded.run(&trace).partitioned().unwrap();
            // Each shard's outputs are the serial outputs at the
            // positions steered to it (serial output order == input
            // order at line rate).
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<Packet> = trace
                    .iter()
                    .enumerate()
                    .filter(|&(i, p)| sharded.plan().steer(i, p) == s)
                    .map(|(i, _)| serial_out[i].clone())
                    .collect();
                assert_eq!(part, &expected, "shard {s} of {shards}");
            }
            assert_eq!(
                sharded.export_merged_ingress_state().unwrap(),
                serial.export_ingress_state(),
                "{shards} shards: merged state"
            );
            assert_eq!(sharded.transmitted(), serial.transmitted());
            assert_eq!(sharded.drops(), 0);
        }
    }

    #[test]
    fn threaded_run_is_deterministic_and_equals_sequential_merge() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let trace = flow_trace(700);
        let cfg = ShardConfig::new(4).with_batch(32);

        let mut a = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let threaded = a.run(&trace).collect().unwrap();

        let mut b = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let run = b.run(&trace).instrumented().unwrap();
        assert_eq!(threaded, run.merged);
        assert_eq!(
            a.export_merged_ingress_state().unwrap(),
            b.export_merged_ingress_state().unwrap()
        );

        // And a second threaded run from fresh state is bit-identical.
        let mut c = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        assert_eq!(c.run(&trace).collect().unwrap(), threaded);
    }

    #[test]
    fn merge_preserves_per_shard_order_and_multiset() {
        let sw = ShardedSwitch::new_slot(
            &passthrough("in"),
            &passthrough("out"),
            ShardConfig::new(3).with_seed(7),
        )
        .unwrap();
        let parts: Vec<Vec<Packet>> = (0..3)
            .map(|s| {
                (0..4)
                    .map(|i| Packet::new().with("shard", s).with("i", i))
                    .collect()
            })
            .collect();
        let merged = sw.merge(parts.clone());
        assert_eq!(merged.len(), 12);
        for s in 0..3 {
            let sub: Vec<&Packet> = merged
                .iter()
                .filter(|p| p.get("shard") == Some(s))
                .collect();
            let orig: Vec<&Packet> = parts[s as usize].iter().collect();
            assert_eq!(sub, orig, "shard {s} order broken by merge");
        }
    }

    #[test]
    fn fallback_shard_still_matches_serial_exactly() {
        let ingress = scalar_counter();
        let egress = passthrough("out");
        let trace = flow_trace(200);
        let mut serial = Switch::new_slot(&ingress, &egress, 512).unwrap();
        let serial_out = serial.run(&trace).collect().unwrap();
        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.run(&trace).collect().unwrap(), serial_out);
        assert_eq!(
            sharded.export_merged_ingress_state().unwrap(),
            serial.export_ingress_state()
        );
    }

    #[test]
    fn import_state_broadcast_roundtrips_through_merged_export() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        // Build a warm serial state.
        let mut serial = Switch::new_slot(&ingress, &egress, 512).unwrap();
        serial.run(&flow_trace(300)).collect().unwrap();
        let warm_in = serial.export_ingress_state();
        let warm_eg = serial.export_egress_state();

        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(4)).unwrap();
        sharded.import_state(&warm_in, &warm_eg);
        assert_eq!(sharded.export_merged_ingress_state().unwrap(), warm_in);

        // Continuing from the warm state matches serial continuation.
        let more = flow_trace(100);
        let serial_more = serial.run(&more).collect().unwrap();
        let parts = sharded.run(&more).partitioned().unwrap();
        let mut flat: Vec<(usize, Packet)> = Vec::new();
        for (s, part) in parts.iter().enumerate() {
            let idxs: Vec<usize> = more
                .iter()
                .enumerate()
                .filter(|&(i, p)| sharded.plan().steer(i, p) == s)
                .map(|(i, _)| i)
                .collect();
            for (i, p) in idxs.into_iter().zip(part.iter()) {
                flat.push((i, p.clone()));
            }
        }
        flat.sort_by_key(|(i, _)| *i);
        // Timestamps differ (the warm serial switch's clock kept
        // running), so compare the algorithm's own fields.
        for (i, p) in flat {
            assert_eq!(
                p.get("c"),
                serial_more[i].get("c"),
                "packet {i} diverged after warm start"
            );
        }
        assert_eq!(
            sharded.export_merged_ingress_state().unwrap(),
            serial.export_ingress_state()
        );
    }

    #[test]
    fn sharded_for_each_streams_bit_identical_to_collect() {
        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let trace = flow_trace(500);
        let cfg = ShardConfig::new(4).with_batch(32);

        let mut a = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let collected = a.run(&trace).collect().unwrap();

        let mut b = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let mut streamed = Vec::new();
        let stats = b.run(&trace).for_each(|p| streamed.push(p)).unwrap();
        assert_eq!(streamed, collected);
        assert_eq!(stats.offered, 500);
        assert_eq!(stats.transmitted, collected.len() as u64);
        assert_eq!(
            a.export_merged_ingress_state().unwrap(),
            b.export_merged_ingress_state().unwrap()
        );
    }

    #[test]
    fn sharded_source_error_mid_stream_closes_the_books() {
        use crate::stream::{FailAfter, GenSource};

        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let cfg = ShardConfig::new(4).with_batch(16);
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let src = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("flow", (i % 23) as i32))),
            100,
            "link flap",
        );
        let err = sw.run(src).collect().unwrap_err();
        let SwitchError::Fault(report) = err else {
            panic!("expected a fault report");
        };
        let fault = report.source.as_ref().expect("source fault recorded");
        assert_eq!(fault.at, 100);
        assert!(report.failures.is_empty(), "no shard failed");
        assert!(report.accounting.conserved(), "{}", report.accounting);
        assert_eq!(report.accounting.offered, 100);
        assert_eq!(report.accounting.lost_in_fault, 0);
        assert_eq!(report.merged.len(), report.accounting.transmitted as usize);
        assert!(report
            .salvage
            .iter()
            .all(|s| !s.failed && s.state.is_some()));
        // The switch stays usable after the fault.
        let out = sw.run(&flow_trace(50)).collect().unwrap();
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn partitioned_source_error_salvages_every_shard() {
        use crate::stream::{FailAfter, GenSource};

        let ingress = array_counter("count", "counts", 64);
        let egress = passthrough("out");
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(2)).unwrap();
        let src = FailAfter::new(
            GenSource::new(|i| Some(Packet::new().with("flow", (i % 23) as i32))),
            40,
            "disk error",
        );
        let err = sw.run(src).partitioned().unwrap_err();
        let SwitchError::Fault(report) = err else {
            panic!("expected a fault report");
        };
        assert_eq!(report.source.as_ref().unwrap().at, 40);
        assert_eq!(report.salvage.len(), 2);
        assert!(report
            .salvage
            .iter()
            .all(|s| !s.failed && s.state.is_some()));
        assert_eq!(report.salvage.iter().map(|s| s.offered).sum::<u64>(), 40);
        assert_eq!(report.accounting.offered, 40);
        assert!(report.accounting.conserved(), "{}", report.accounting);
    }
}
