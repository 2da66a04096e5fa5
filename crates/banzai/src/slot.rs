//! The slot-compiled execution engine: atom pipelines lowered onto fixed
//! field/state layouts and executed with pure integer indexing.
//!
//! [`Machine`](crate::Machine) interprets TAC with string-keyed map
//! lookups on every operand — fine as a semantic reference, orders of
//! magnitude off the paper's "run at the line rate of the switching
//! fabric" story. This module is the fast path:
//!
//! 1. [`SlotPipeline::lower`] resolves, once per pipeline, every packet
//!    field to a [`FieldId`] slot (via a [`FieldTable`] built in
//!    deterministic first-mention order), every state variable to a base
//!    offset in a flat register file ([`StateLayout`]), and every
//!    intrinsic to a direct entry point — producing slot-indexed atom
//!    programs ([`SlotOp`]).
//! 2. [`SlotMachine`] executes those programs over [`FlatPacket`]s and a
//!    [`FlatState`] register file: no per-packet string hashing, no tree
//!    walks, no allocation in the per-statement loop.
//!
//! Because TAC is straight-line, the set of slots a pipeline writes is a
//! compile-time constant; the engine writes raw slots in the hot loop and
//! restores the presence invariant with one precomputed bitmask OR per
//! packet. The map-based [`Machine`](crate::Machine) remains the semantic
//! reference; differential tests (and the `throughput` harness) assert the
//! two paths are bit-identical, packet-for-packet and state-for-state.
//!
//! A [`Switch`](crate::Switch) re-targets both of its engines at its one
//! table (the same program, slots renumbered by name), so a packet
//! crosses ingress, the queue and egress as one [`FlatPacket`] and
//! [`SlotMachine::process_flat`] is the whole per-stage cost. The map-edged [`SlotMachine::process`] stays for callers holding
//! `Packet`s. [`SlotFlowKey`] lowers a sharding flow key's stateless slice
//! the same way, for the sharded dispatcher.

use crate::machine::AtomPipeline;
use domino_ast::{intrinsics, BinOp, UnOp};
use domino_ir::layout::{FieldId, FieldTable, FlatPacket, FlatState, FlowKeySpec, StateLayout};
use domino_ir::{Operand, Packet, StateRef, StateStore, TacRhs, TacStmt};
use std::fmt;
use std::sync::Arc;

/// An operand with its field pre-resolved to a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOperand {
    /// A packet-field slot.
    Slot(FieldId),
    /// An immediate constant.
    Const(i32),
}

impl SlotOperand {
    #[inline]
    fn eval(self, vals: &[i32]) -> i32 {
        match self {
            SlotOperand::Slot(id) => vals[id.index()],
            SlotOperand::Const(c) => c,
        }
    }

    fn remap(&mut self, map: &[FieldId]) {
        if let SlotOperand::Slot(id) = self {
            *id = map[id.index()];
        }
    }
}

/// An intrinsic pre-resolved to its accelerator entry point (no per-packet
/// string dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants are the intrinsic names
pub enum IntrinsicFn {
    Hash2,
    Hash3,
    Isqrt,
    CodelGap,
}

impl IntrinsicFn {
    /// Resolves an intrinsic by name.
    pub fn from_name(name: &str) -> Option<IntrinsicFn> {
        match name {
            "hash2" => Some(IntrinsicFn::Hash2),
            "hash3" => Some(IntrinsicFn::Hash3),
            "isqrt" => Some(IntrinsicFn::Isqrt),
            "codel_gap" => Some(IntrinsicFn::CodelGap),
            _ => None,
        }
    }

    /// The argument count this intrinsic requires (enforced at lowering).
    pub fn arity(self) -> usize {
        match self {
            IntrinsicFn::Hash2 | IntrinsicFn::CodelGap => 2,
            IntrinsicFn::Hash3 => 3,
            IntrinsicFn::Isqrt => 1,
        }
    }

    #[inline]
    fn eval(self, args: &[i32]) -> i32 {
        match (self, args) {
            (IntrinsicFn::Hash2, [a, b]) => intrinsics::hash2(*a, *b),
            (IntrinsicFn::Hash3, [a, b, c]) => intrinsics::hash3(*a, *b, *c),
            (IntrinsicFn::Isqrt, [a]) => intrinsics::isqrt(*a),
            (IntrinsicFn::CodelGap, [count, interval]) => intrinsics::codel_gap(*count, *interval),
            _ => unreachable!("arity checked at lowering time"),
        }
    }
}

/// A state reference with the variable pre-resolved to its register-file
/// window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotStateRef {
    /// A scalar at a fixed offset.
    Scalar(u32),
    /// An array window `[base, base+len)` indexed by an operand.
    Array {
        /// First register-file slot of the array.
        base: u32,
        /// Array length (indices wrap modulo this, like the map path).
        len: u32,
        /// The index operand.
        index: SlotOperand,
    },
}

impl SlotStateRef {
    #[inline]
    fn read(&self, state: &FlatState, vals: &[i32]) -> i32 {
        match self {
            SlotStateRef::Scalar(base) => state.read(*base),
            SlotStateRef::Array { base, len, index } => {
                state.read_array(*base, *len, index.eval(vals))
            }
        }
    }

    #[inline]
    fn write(&self, value: i32, state: &mut FlatState, vals: &[i32]) {
        match self {
            SlotStateRef::Scalar(base) => state.write(*base, value),
            SlotStateRef::Array { base, len, index } => {
                state.write_array(*base, *len, index.eval(vals), value)
            }
        }
    }

    fn remap(&mut self, map: &[FieldId]) {
        if let SlotStateRef::Array { index, .. } = self {
            index.remap(map);
        }
    }
}

/// A right-hand side with all operands slot-resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // mirrors `TacRhs`, variant for variant
pub enum SlotRhs {
    Copy(SlotOperand),
    Unary(UnOp, SlotOperand),
    Binary(BinOp, SlotOperand, SlotOperand),
    Ternary(SlotOperand, SlotOperand, SlotOperand),
    Intrinsic {
        func: IntrinsicFn,
        args: Vec<SlotOperand>,
        modulo: Option<i32>,
    },
}

impl SlotRhs {
    #[inline]
    fn eval(&self, vals: &[i32]) -> i32 {
        match self {
            SlotRhs::Copy(o) => o.eval(vals),
            SlotRhs::Unary(op, o) => op.eval(o.eval(vals)),
            SlotRhs::Binary(op, a, b) => op.eval(a.eval(vals), b.eval(vals)),
            SlotRhs::Ternary(c, a, b) => {
                if c.eval(vals) != 0 {
                    a.eval(vals)
                } else {
                    b.eval(vals)
                }
            }
            SlotRhs::Intrinsic { func, args, modulo } => {
                let mut buf = [0i32; 3];
                for (slot, a) in buf.iter_mut().zip(args) {
                    *slot = a.eval(vals);
                }
                let raw = func.eval(&buf[..args.len()]);
                match modulo {
                    Some(m) => BinOp::Mod.eval(raw, *m),
                    None => raw,
                }
            }
        }
    }

    fn remap(&mut self, map: &[FieldId]) {
        match self {
            SlotRhs::Copy(o) | SlotRhs::Unary(_, o) => o.remap(map),
            SlotRhs::Binary(_, a, b) => {
                a.remap(map);
                b.remap(map);
            }
            SlotRhs::Ternary(c, a, b) => {
                c.remap(map);
                a.remap(map);
                b.remap(map);
            }
            SlotRhs::Intrinsic { args, .. } => args.iter_mut().for_each(|a| a.remap(map)),
        }
    }
}

/// One slot-indexed statement (the lowered form of [`TacStmt`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // mirrors `TacStmt`, variant for variant
pub enum SlotOp {
    ReadState {
        dst: FieldId,
        state: SlotStateRef,
    },
    WriteState {
        state: SlotStateRef,
        src: SlotOperand,
    },
    Assign {
        dst: FieldId,
        rhs: SlotRhs,
    },
}

impl SlotOp {
    #[inline]
    fn exec(&self, state: &mut FlatState, vals: &mut [i32]) {
        match self {
            SlotOp::ReadState { dst, state: sref } => {
                vals[dst.index()] = sref.read(state, vals);
            }
            SlotOp::WriteState { state: sref, src } => {
                sref.write(src.eval(vals), state, vals);
            }
            SlotOp::Assign { dst, rhs } => {
                vals[dst.index()] = rhs.eval(vals);
            }
        }
    }

    fn remap(&mut self, map: &[FieldId]) {
        match self {
            SlotOp::ReadState { dst, state } => {
                *dst = map[dst.index()];
                state.remap(map);
            }
            SlotOp::WriteState { state, src } => {
                state.remap(map);
                src.remap(map);
            }
            SlotOp::Assign { dst, rhs } => {
                *dst = map[dst.index()];
                rhs.remap(map);
            }
        }
    }
}

/// An [`AtomPipeline`] compiled down to slot-indexed programs: one op list
/// per stage (atoms concatenated in execution order), a deparse copy list,
/// and the static written-slot presence mask.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPipeline {
    name: String,
    table: Arc<FieldTable>,
    state_layout: StateLayout,
    stages: Vec<Vec<SlotOp>>,
    /// Deparser view as `(declared, internal)` slot pairs (only pairs with
    /// distinct names, matching the map path).
    deparse: Vec<(FieldId, FieldId)>,
    /// Presence bitmask of every slot any statement (or the deparser)
    /// writes — constant because TAC is straight-line.
    written_mask: Box<[u64]>,
    /// The same set as a slot list, for merging results back into map
    /// packets at the edges.
    written_slots: Vec<FieldId>,
}

impl SlotPipeline {
    /// Lowers an atom pipeline onto fixed layouts.
    ///
    /// Fails (with a human-readable reason) only on pipelines the compiler
    /// would never emit — an unknown intrinsic, a bad arity, or a state
    /// variable outside the declarations; `domino_compiler` validates the
    /// lowering at code-generation time so every compiled pipeline is
    /// guaranteed slot-executable.
    pub fn lower(pipeline: &AtomPipeline) -> Result<SlotPipeline, String> {
        let mut table = FieldTable::new();
        // Declared fields first: their slots are stable for observers.
        for f in &pipeline.declared_fields {
            table.intern(f);
        }
        let state_layout = StateLayout::from_decls(&pipeline.state_decls);

        let mut written: Vec<FieldId> = Vec::new();
        let mut stages = Vec::with_capacity(pipeline.stages.len());
        for stage in &pipeline.stages {
            let mut ops = Vec::new();
            for atom in stage {
                for stmt in &atom.codelet.stmts {
                    let op = lower_stmt(stmt, &mut table, &state_layout)?;
                    if let SlotOp::ReadState { dst, .. } | SlotOp::Assign { dst, .. } = op {
                        written.push(dst);
                    }
                    ops.push(op);
                }
            }
            stages.push(ops);
        }

        let mut deparse = Vec::new();
        for (declared, internal) in &pipeline.output_map {
            if declared != internal {
                let d = table.intern(declared);
                let i = table.intern(internal);
                deparse.push((d, i));
                written.push(d);
            }
        }

        written.sort_unstable();
        written.dedup();
        let written_mask = mask_of(&written, table.len());

        Ok(SlotPipeline {
            name: pipeline.name.clone(),
            table: Arc::new(table),
            state_layout,
            stages,
            deparse,
            written_mask,
            written_slots: written,
        })
    }

    /// Re-targets the program at `table`, a superset of its own layout
    /// (a switch's one table, see [`crate::Switch`]): every slot is
    /// renumbered to the slot `table` gives the same name. Re-targeting at
    /// a table whose prefix is this program's layout changes no slot.
    ///
    /// # Errors
    ///
    /// If `table` lacks a field this program reads or writes.
    pub(crate) fn rebind(&mut self, table: &Arc<FieldTable>) -> Result<(), String> {
        if Arc::ptr_eq(&self.table, table) {
            return Ok(());
        }
        let map = self
            .table
            .iter()
            .map(|(_, name)| {
                table
                    .lookup(name)
                    .ok_or_else(|| format!("field `{name}` of `{}` is not in the table", self.name))
            })
            .collect::<Result<Vec<FieldId>, String>>()?;
        for op in self.stages.iter_mut().flatten() {
            op.remap(&map);
        }
        for (declared, internal) in &mut self.deparse {
            *declared = map[declared.index()];
            *internal = map[internal.index()];
        }
        for id in &mut self.written_slots {
            *id = map[id.index()];
        }
        self.written_slots.sort_unstable();
        self.written_mask = mask_of(&self.written_slots, table.len());
        self.table = Arc::clone(table);
        Ok(())
    }

    /// Transaction name this pipeline implements.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field layout (interned slots) this pipeline executes over.
    pub fn field_table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// The state layout (register-file offsets).
    pub fn state_layout(&self) -> &StateLayout {
        &self.state_layout
    }

    /// Pipeline depth (number of stages).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Total slot-indexed operations across all stages.
    pub fn op_count(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }
}

impl fmt::Display for SlotPipeline {
    /// Renders the layout: field slots, state offsets, per-stage op counts
    /// (the `domc --emit layout` view).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "layout for `{}` — {} field slots, {} state slots, {} stages / {} ops",
            self.name,
            self.table.len(),
            self.state_layout.total_slots(),
            self.depth(),
            self.op_count()
        )?;
        write!(f, "{}", self.table)?;
        write!(f, "{}", self.state_layout)?;
        for (i, stage) in self.stages.iter().enumerate() {
            writeln!(f, "stage {}: {} ops", i + 1, stage.len())?;
        }
        Ok(())
    }
}

/// The presence bitmask of `slots` over a `len`-slot layout.
fn mask_of(slots: &[FieldId], len: usize) -> Box<[u64]> {
    let mut mask = vec![0u64; len.div_ceil(64)].into_boxed_slice();
    for id in slots {
        mask[id.index() / 64] |= 1 << (id.index() % 64);
    }
    mask
}

fn lower_operand(op: &Operand, table: &mut FieldTable) -> SlotOperand {
    match op {
        Operand::Field(f) => SlotOperand::Slot(table.intern(f)),
        Operand::Const(c) => SlotOperand::Const(*c),
    }
}

fn lower_state_ref(
    sref: &StateRef,
    table: &mut FieldTable,
    layout: &StateLayout,
) -> Result<SlotStateRef, String> {
    let entry = layout
        .slot(sref.name())
        .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
    match sref {
        StateRef::Scalar(name) => {
            if entry.is_array {
                return Err(format!(
                    "state variable `{name}` is an array, used as scalar"
                ));
            }
            Ok(SlotStateRef::Scalar(entry.base))
        }
        StateRef::Array { name, index } => {
            if !entry.is_array {
                return Err(format!(
                    "state variable `{name}` is a scalar, used as array"
                ));
            }
            Ok(SlotStateRef::Array {
                base: entry.base,
                len: entry.len,
                index: lower_operand(index, table),
            })
        }
    }
}

fn lower_stmt(
    stmt: &TacStmt,
    table: &mut FieldTable,
    layout: &StateLayout,
) -> Result<SlotOp, String> {
    Ok(match stmt {
        TacStmt::ReadState { dst, state } => SlotOp::ReadState {
            dst: table.intern(dst),
            state: lower_state_ref(state, table, layout)?,
        },
        TacStmt::WriteState { state, src } => SlotOp::WriteState {
            state: lower_state_ref(state, table, layout)?,
            src: lower_operand(src, table),
        },
        TacStmt::Assign { dst, rhs } => SlotOp::Assign {
            dst: table.intern(dst),
            rhs: lower_rhs(rhs, table)?,
        },
    })
}

fn lower_rhs(rhs: &TacRhs, table: &mut FieldTable) -> Result<SlotRhs, String> {
    Ok(match rhs {
        TacRhs::Copy(o) => SlotRhs::Copy(lower_operand(o, table)),
        TacRhs::Unary(op, o) => SlotRhs::Unary(*op, lower_operand(o, table)),
        TacRhs::Binary(op, a, b) => {
            SlotRhs::Binary(*op, lower_operand(a, table), lower_operand(b, table))
        }
        TacRhs::Ternary(c, a, b) => SlotRhs::Ternary(
            lower_operand(c, table),
            lower_operand(a, table),
            lower_operand(b, table),
        ),
        TacRhs::Intrinsic { name, args, modulo } => {
            let func = IntrinsicFn::from_name(name)
                .ok_or_else(|| format!("no execution-engine entry point for intrinsic `{name}`"))?;
            if args.len() != func.arity() {
                return Err(format!(
                    "intrinsic `{name}` takes {} argument(s), got {}",
                    func.arity(),
                    args.len()
                ));
            }
            SlotRhs::Intrinsic {
                func,
                args: args.iter().map(|a| lower_operand(a, table)).collect(),
                modulo: *modulo,
            }
        }
    })
}

/// A machine instance running the slot-compiled fast path: a lowered
/// pipeline plus a live flat register file.
///
/// Mirrors [`Machine`](crate::Machine)'s API (`process`, `run_trace`,
/// `run_trace_pipelined`) with bit-identical observable behaviour, plus
/// `*_flat` variants that skip the map-packet edges entirely for replaying
/// pre-converted traces at full speed.
#[derive(Debug, Clone)]
pub struct SlotMachine {
    program: SlotPipeline,
    state: FlatState,
}

impl SlotMachine {
    /// Lowers `pipeline` and instantiates fresh state.
    pub fn compile(pipeline: &AtomPipeline) -> Result<SlotMachine, String> {
        Ok(SlotMachine::from_program(SlotPipeline::lower(pipeline)?))
    }

    /// Instantiates a machine from an already-lowered pipeline.
    pub fn from_program(program: SlotPipeline) -> SlotMachine {
        let state = FlatState::new(program.state_layout.clone());
        SlotMachine { program, state }
    }

    /// The lowered program this machine runs.
    pub fn program(&self) -> &SlotPipeline {
        &self.program
    }

    /// The field layout for building [`FlatPacket`]s to feed `*_flat`.
    pub fn field_table(&self) -> &Arc<FieldTable> {
        &self.program.table
    }

    /// Converts a map-packet trace onto this machine's layout once, for
    /// repeated replay through the flat entry points.
    pub fn flatten_trace(&self, trace: &[Packet]) -> Vec<FlatPacket> {
        trace
            .iter()
            .map(|p| FlatPacket::from_packet(p, &self.program.table))
            .collect()
    }

    /// Exports the live register file as a map [`StateStore`] (for
    /// inspection and for comparison against the reference path).
    pub fn export_state(&self) -> StateStore {
        self.state.export()
    }

    /// Overwrites the register file from a map snapshot (the inverse of
    /// [`SlotMachine::export_state`]; shapes must match the layout).
    pub fn import_state(&mut self, snapshot: &StateStore) {
        self.state.import(snapshot);
    }

    /// Runs one flat packet through every stage in place (transactional
    /// view) — the allocation-free hot path.
    pub fn process_flat(&mut self, pkt: &mut FlatPacket) {
        let vals = pkt.slots_mut();
        for stage in &self.program.stages {
            for op in stage {
                op.exec(&mut self.state, vals);
            }
        }
        for (declared, internal) in &self.program.deparse {
            vals[declared.index()] = vals[internal.index()];
        }
        pkt.mark_present(&self.program.written_mask);
    }

    /// Runs a flat trace, one packet at a time.
    pub fn run_trace_flat(&mut self, trace: &[FlatPacket]) -> Vec<FlatPacket> {
        trace
            .iter()
            .map(|p| {
                let mut pkt = p.clone();
                self.process_flat(&mut pkt);
                pkt
            })
            .collect()
    }

    /// Cycle-accurate simulation over flat packets: one packet enters per
    /// cycle, up to `depth` in flight — the slot-path mirror of
    /// [`Machine::run_trace_pipelined`](crate::Machine::run_trace_pipelined).
    pub fn run_trace_pipelined_flat(&mut self, trace: &[FlatPacket]) -> Vec<FlatPacket> {
        let depth = self.program.depth();
        let mut slots: Vec<Option<FlatPacket>> = vec![None; depth];
        let mut out = Vec::with_capacity(trace.len());
        let mut input = trace.iter();
        loop {
            for s in (0..depth).rev() {
                if let Some(mut pkt) = slots[s].take() {
                    for op in &self.program.stages[s] {
                        op.exec(&mut self.state, pkt.slots_mut());
                    }
                    if s + 1 == depth {
                        let vals = pkt.slots_mut();
                        for (declared, internal) in &self.program.deparse {
                            vals[declared.index()] = vals[internal.index()];
                        }
                        pkt.mark_present(&self.program.written_mask);
                        out.push(pkt);
                    } else {
                        slots[s + 1] = Some(pkt);
                    }
                }
            }
            match input.next() {
                Some(p) => {
                    if depth == 0 {
                        out.push(p.clone());
                    } else {
                        slots[0] = Some(p.clone());
                    }
                }
                None => {
                    if slots.iter().all(|s| s.is_none()) {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Runs one map packet through the fast path.
    ///
    /// Fields the layout does not know (pass-through metadata the program
    /// never mentions) are preserved verbatim, exactly like the map path:
    /// the result is the input packet with the flat run's slots merged
    /// over it in one sorted pass ([`FlatPacket::merged_with`]; the same
    /// packet `merge_back` makes, since the other present slots hold the
    /// input's own values).
    pub fn process(&mut self, pkt: Packet) -> Packet {
        let mut flat = FlatPacket::from_packet(&pkt, &self.program.table);
        self.process_flat(&mut flat);
        flat.merged_with(pkt)
    }

    /// Runs a map-packet trace, one packet at a time (the drop-in
    /// replacement for [`Machine::run_trace`](crate::Machine::run_trace)).
    pub fn run_trace(&mut self, trace: &[Packet]) -> Vec<Packet> {
        trace.iter().map(|p| self.process(p.clone())).collect()
    }

    /// Cycle-accurate simulation over map packets: bit-identical to
    /// [`Machine::run_trace_pipelined`](crate::Machine::run_trace_pipelined).
    ///
    /// The pipeline is in-order, so output `i` corresponds to input `i` and
    /// pass-through fields can be merged from the matching input.
    pub fn run_trace_pipelined(&mut self, trace: &[Packet]) -> Vec<Packet> {
        let flat = self.flatten_trace(trace);
        let outs = self.run_trace_pipelined_flat(&flat);
        debug_assert_eq!(outs.len(), trace.len());
        outs.iter()
            .zip(trace)
            .map(|(f, orig)| {
                let mut out = orig.clone();
                self.merge_back(f, &mut out);
                out
            })
            .collect()
    }

    /// Copies every slot this pipeline writes from `flat` into `out` by
    /// name — the deparser step reconstructing a map packet from a flat
    /// run. `process` equals `from_packet` → `process_flat` →
    /// `merge_back`; harnesses that time the flat path re-use this to
    /// realize outputs for comparison against the reference path.
    pub fn merge_back(&self, flat: &FlatPacket, out: &mut Packet) {
        let vals = flat.slots();
        for id in &self.program.written_slots {
            out.set_shared(self.program.table.shared_name(*id), vals[id.index()]);
        }
    }

    /// Re-targets this machine at a superset layout (see
    /// [`SlotPipeline::rebind`]); state is untouched.
    ///
    /// # Errors
    ///
    /// If `table` lacks a field the program reads or writes.
    pub(crate) fn rebind(&mut self, table: &Arc<FieldTable>) -> Result<(), String> {
        self.program.rebind(table)
    }
}

/// A [`FlowKeySpec`]'s stateless key slice lowered onto slots, so a
/// dispatcher evaluates the flow key with integer indexing over a
/// reusable scratch slab instead of a fresh map packet per call.
///
/// Bit-identical to [`FlowKeySpec::key_of`], its reference: the scratch
/// starts with every slot absent (reading 0) and only the slice's root
/// fields loaded, exactly like the reference's scratch packet.
///
/// ```
/// use banzai::slot::SlotFlowKey;
/// use domino_ir::{FlowKeySpec, Packet, Partitionability, StateLayout};
/// use domino_ir::{Operand, StateRef, TacStmt};
/// use domino_ast::{StateKind, StateVar};
///
/// // `counts[pkt.flow] = counts[pkt.flow] + 1`: keyed on `flow` mod 16.
/// let decls = [StateVar { name: "counts".into(), kind: StateKind::Array { size: 16 }, init: 0 }];
/// let idx = || StateRef::Array { name: "counts".into(), index: Operand::Field("flow".into()) };
/// let stmts = [
///     TacStmt::ReadState { dst: "old".into(), state: idx() },
///     TacStmt::WriteState { state: idx(), src: Operand::Field("old".into()) },
/// ];
/// let Ok(Partitionability::Keyed(spec)) = StateLayout::from_decls(&decls).flow_key(&stmts) else {
///     panic!("keyed");
/// };
/// let key = SlotFlowKey::lower(&spec).unwrap();
/// let pkt = Packet::new().with("flow", 35);
/// assert_eq!(key.key_of(&pkt), spec.key_of(&pkt));
/// assert_eq!(key.key_of(&pkt), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlotFlowKey {
    /// The slice's root fields and their scratch slots.
    roots: Vec<(String, FieldId)>,
    /// The slice, in program order: each statement assigns one slot.
    ops: Vec<(FieldId, SlotRhs)>,
    /// The slot of the key field.
    key: FieldId,
    /// Number of key classes.
    modulus: u32,
    /// Scratch slots the slice needs.
    slots: usize,
}

thread_local! {
    /// The dispatcher's reusable key scratch (one per thread, so a shared
    /// plan steers from any thread without locking).
    static KEY_SCRATCH: std::cell::RefCell<Vec<i32>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl SlotFlowKey {
    /// Lowers the spec's key slice onto a slot layout of its own.
    ///
    /// # Errors
    ///
    /// If the slice touches state (it never does: flow-key extraction
    /// only emits stateless slices) or names an intrinsic the engine has
    /// no entry point for.
    pub fn lower(spec: &FlowKeySpec) -> Result<SlotFlowKey, String> {
        let mut table = FieldTable::new();
        let roots = spec
            .roots()
            .iter()
            .map(|r| (r.clone(), table.intern(r)))
            .collect();
        let mut ops = Vec::with_capacity(spec.stmts().len());
        for stmt in spec.stmts() {
            let TacStmt::Assign { dst, rhs } = stmt else {
                return Err("a flow-key slice must be stateless".into());
            };
            let rhs = lower_rhs(rhs, &mut table)?;
            ops.push((table.intern(dst), rhs));
        }
        let key = table.intern(spec.key_field());
        Ok(SlotFlowKey {
            roots,
            ops,
            key,
            modulus: spec.modulus(),
            slots: table.len(),
        })
    }

    /// The key class of an input packet (see [`FlowKeySpec::key_of`]).
    pub fn key_of(&self, pkt: &Packet) -> u32 {
        KEY_SCRATCH.with(|scratch| {
            let mut vals = scratch.borrow_mut();
            vals.clear();
            vals.resize(self.slots, 0);
            for (root, id) in &self.roots {
                if let Some(v) = pkt.get(root) {
                    vals[id.index()] = v;
                }
            }
            for (dst, rhs) in &self.ops {
                vals[dst.index()] = rhs.eval(&vals);
            }
            (vals[self.key.index()] as i64).rem_euclid(self.modulus as i64) as u32
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AtomRole, CompiledAtom, Machine};
    use domino_ast::{StateKind, StateVar};
    use domino_ir::Codelet;

    // banzai cannot depend on domino-compiler (it is upstream), so unit
    // tests lower hand-built pipelines; compiled-program coverage lives in
    // the workspace integration suite. This builds the same 2-stage
    // counter pipeline as the `machine` module's tests.
    fn counter_pipeline() -> AtomPipeline {
        use domino_ir::{TacRhs, TacStmt};
        let counter = Codelet::new(vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Scalar("c".into()),
            },
            TacStmt::Assign {
                dst: "count".into(),
                rhs: TacRhs::Binary(BinOp::Add, Operand::Field("old".into()), Operand::Const(1)),
            },
            TacStmt::WriteState {
                state: StateRef::Scalar("c".into()),
                src: Operand::Field("count".into()),
            },
        ]);
        let compare = Codelet::new(vec![TacStmt::Assign {
            dst: "flag".into(),
            rhs: TacRhs::Binary(BinOp::Gt, Operand::Field("count".into()), Operand::Const(2)),
        }]);
        AtomPipeline {
            name: "count".into(),
            target_name: "test".into(),
            stages: vec![
                vec![CompiledAtom {
                    codelet: counter,
                    role: AtomRole::Stateless, // role is irrelevant to execution
                }],
                vec![CompiledAtom {
                    codelet: compare,
                    role: AtomRole::Stateless,
                }],
            ],
            state_decls: vec![StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 0,
            }],
            declared_fields: vec!["count".into(), "flag".into()],
            output_map: vec![],
        }
    }

    #[test]
    fn slot_machine_matches_map_machine_on_counter_pipeline() {
        let pipeline = counter_pipeline();
        let trace: Vec<Packet> = (0..40).map(|i| Packet::new().with("seq", i)).collect();
        let mut map = Machine::new(pipeline.clone());
        let mut slot = SlotMachine::compile(&pipeline).unwrap();
        let map_out = map.run_trace(&trace);
        let slot_out = slot.run_trace(&trace);
        assert_eq!(map_out, slot_out);
        assert_eq!(*map.state(), slot.export_state());
    }

    #[test]
    fn slot_pipelined_matches_map_pipelined() {
        let pipeline = counter_pipeline();
        let trace: Vec<Packet> = (0..23).map(|i| Packet::new().with("seq", i)).collect();
        let mut map = Machine::new(pipeline.clone());
        let mut slot = SlotMachine::compile(&pipeline).unwrap();
        assert_eq!(
            map.run_trace_pipelined(&trace),
            slot.run_trace_pipelined(&trace)
        );
        assert_eq!(*map.state(), slot.export_state());
    }

    #[test]
    fn unknown_passthrough_fields_survive_the_fast_path() {
        let pipeline = counter_pipeline();
        let mut slot = SlotMachine::compile(&pipeline).unwrap();
        let out = slot.process(Packet::new().with("mystery", 77));
        assert_eq!(out.get("mystery"), Some(77));
        assert_eq!(out.get("count"), Some(1));
    }

    #[test]
    fn lowering_is_deterministic() {
        let pipeline = counter_pipeline();
        let a = SlotPipeline::lower(&pipeline).unwrap();
        let b = SlotPipeline::lower(&pipeline).unwrap();
        assert_eq!(a, b);
        // Declared fields take the first slots, in declaration order.
        assert_eq!(a.field_table().lookup("count").map(|f| f.index()), Some(0));
        assert_eq!(a.field_table().lookup("flag").map(|f| f.index()), Some(1));
    }

    #[test]
    fn flat_replay_equals_map_edged_run() {
        let pipeline = counter_pipeline();
        let trace: Vec<Packet> = (0..10).map(|i| Packet::new().with("count", i)).collect();
        let mut m1 = SlotMachine::compile(&pipeline).unwrap();
        let mut m2 = SlotMachine::compile(&pipeline).unwrap();
        let map_edged = m1.run_trace(&trace);
        let flat = m2.flatten_trace(&trace);
        let flat_out = m2.run_trace_flat(&flat);
        for (m, f) in map_edged.iter().zip(&flat_out) {
            assert_eq!(*m, f.to_packet());
        }
        assert_eq!(m1.export_state(), m2.export_state());
    }

    #[test]
    fn intrinsic_arity_mismatch_is_rejected_at_lowering() {
        use domino_ir::{TacRhs, TacStmt};
        let mut pipeline = counter_pipeline();
        pipeline.stages[1][0].codelet = Codelet::new(vec![TacStmt::Assign {
            dst: "flag".into(),
            rhs: TacRhs::Intrinsic {
                name: "isqrt".into(),
                args: vec![Operand::Field("count".into()), Operand::Const(1)],
                modulo: None,
            },
        }]);
        let err = SlotPipeline::lower(&pipeline).unwrap_err();
        assert!(err.contains("takes 1 argument(s), got 2"), "{err}");
    }

    #[test]
    fn undeclared_state_is_rejected_at_lowering() {
        let mut pipeline = counter_pipeline();
        pipeline.state_decls.clear();
        let err = SlotPipeline::lower(&pipeline).unwrap_err();
        assert!(err.contains("`c`"), "{err}");
    }

    #[test]
    fn display_shows_layout() {
        let program = SlotPipeline::lower(&counter_pipeline()).unwrap();
        let text = program.to_string();
        assert!(text.contains("field slots"), "{text}");
        assert!(text.contains("pkt.count"), "{text}");
        assert!(text.contains("state[0] = c"), "{text}");
    }
}
