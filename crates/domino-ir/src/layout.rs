//! Compile-time field layout: interned fields, flat packets, flat state.
//!
//! The map-based [`Packet`] is the *semantic reference*: a name-sorted
//! list of fields, convenient and order-deterministic but string-keyed on
//! every access. Real switch pipelines resolve header layouts at compile
//! time — a PHV container is a fixed offset, not a dictionary lookup.
//! This module provides that layout-resolution step:
//!
//! * [`FieldTable`] — an interner assigning every packet field a dense
//!   [`FieldId`] (its PHV slot), keeping reverse names (shared `Arc<str>`s,
//!   also in name order) for diagnostics and for building packets;
//! * [`FlatPacket`] — a fixed `i32` slab keyed by [`FieldId`], with a
//!   presence bitmask replicating the map packet's has/absent semantics;
//! * [`StateLayout`] / [`FlatState`] — every state variable resolved to a
//!   base offset into one flat register file (scalars take one slot,
//!   arrays `size` slots).
//!
//! The slot-compiled execution engine in `banzai` lowers atom pipelines
//! onto these layouts once, then executes packets with pure integer
//! indexing — no per-packet string hashing or tree walks. Differential
//! tests assert the fast path is bit-identical to the map path.
//!
//! The layout is also where **shard-partitionability** is decided:
//! [`StateLayout::flow_key`] inspects how a program indexes its state and,
//! when every access goes through one packet-derived index field, extracts
//! a [`FlowKeySpec`] — the RSS-style steering rule under which per-shard
//! execution is bit-identical to serial execution (see `banzai::shard`).

use crate::packet::Packet;
use crate::state::{StateStore, StateValue};
use crate::tac::{Operand, StateRef, TacRhs, TacStmt};
use domino_ast::{StateKind, StateVar};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A dense identifier for an interned packet field — the field's slot in a
/// [`FlatPacket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(u32);

impl FieldId {
    /// The slot index this id addresses.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw slot number.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// FNV-1a over the name's bytes: field names are short, and the table is
/// probed with every field of every packet that enters a switch, where a
/// keyed SipHash costs more than the probe. An unkeyed hash is safe here
/// because only program field names are ever inserted: names arriving
/// with traffic are looked up, never stored, so they cannot lengthen a
/// chain. Against the std SipHash it raised perfbench `figure1`'s
/// `pkts_per_s` by about 8% (2-core VM, six alternating runs).
#[derive(Debug, Clone, Copy)]
struct NameHasher(u64);

impl Default for NameHasher {
    fn default() -> NameHasher {
        NameHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// An interner mapping packet field names to dense [`FieldId`]s.
///
/// Slots are assigned in first-intern order, so a table built by walking a
/// pipeline deterministically is itself deterministic. The table keeps the
/// reverse mapping (`id → name`) so fast-path diagnostics can still name
/// the field — matching [`Packet::expect`]'s contract. Names are shared
/// `Arc<str>`s: a [`Packet`] built from a flat packet references them
/// instead of copying them, and the table keeps its slots in name order
/// too, so that build is one sorted merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldTable {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32, BuildHasherDefault<NameHasher>>,
    /// Slot numbers in ascending name order.
    sorted: Vec<u32>,
}

impl FieldTable {
    /// An empty table.
    pub fn new() -> Self {
        FieldTable::default()
    }

    /// Interns `name`, returning its (new or existing) [`FieldId`].
    pub fn intern(&mut self, name: &str) -> FieldId {
        if let Some(&id) = self.index.get(name) {
            return FieldId(id);
        }
        let id = self.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        let at = self
            .sorted
            .partition_point(|&s| self.names[s as usize] < name);
        self.sorted.insert(at, id);
        self.names.push(Arc::clone(&name));
        self.index.insert(name, id);
        FieldId(id)
    }

    /// Interns every name of `other`, in its slot order — so a table
    /// extended from an empty one assigns `other`'s slots unchanged.
    pub fn extend_from(&mut self, other: &FieldTable) {
        for (_, name) in other.iter() {
            self.intern(name);
        }
    }

    /// True if every name `other` interns is interned here too.
    pub fn covers(&self, other: &FieldTable) -> bool {
        other.names.iter().all(|n| self.index.contains_key(n))
    }

    /// Looks up an already-interned field.
    #[inline]
    pub fn lookup(&self, name: &str) -> Option<FieldId> {
        self.index.get(name).copied().map(FieldId)
    }

    /// The name behind a [`FieldId`] (reverse mapping, for diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn name(&self, id: FieldId) -> &str {
        &self.names[id.index()]
    }

    /// The shared name behind a [`FieldId`], for building packets whose
    /// keys reference the table's names (see [`Packet::set_shared`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn shared_name(&self, id: FieldId) -> &Arc<str> {
        &self.names[id.index()]
    }

    /// Number of interned fields (== the slot count of a [`FlatPacket`]).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no field has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (FieldId(i as u32), &**n))
    }

    /// Iterates `(id, name)` in ascending name order.
    fn iter_sorted(&self) -> impl Iterator<Item = (FieldId, &Arc<str>)> {
        self.sorted
            .iter()
            .map(|&i| (FieldId(i), &self.names[i as usize]))
    }
}

impl fmt::Display for FieldTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, name) in self.iter() {
            writeln!(f, "{id} = pkt.{name}")?;
        }
        Ok(())
    }
}

/// Number of 64-bit words needed for a presence bitmask over `slots` slots.
fn mask_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

/// A packet laid out flat: one `i32` per interned field plus a presence
/// bitmask.
///
/// Invariant: an absent slot always holds 0, so the hot path may read raw
/// slot values directly — `get_or_zero` semantics for free. Presence only
/// matters at the edges ([`FlatPacket::has`], [`FlatPacket::expect`],
/// [`FlatPacket::to_packet`]), exactly like uninitialized PHV containers in
/// a real pipeline reading as zero.
#[derive(Debug, Clone)]
pub struct FlatPacket {
    table: Arc<FieldTable>,
    vals: Box<[i32]>,
    present: Box<[u64]>,
}

impl FlatPacket {
    /// An empty packet over `table`'s layout (all slots absent).
    pub fn new(table: Arc<FieldTable>) -> Self {
        let slots = table.len();
        FlatPacket {
            table,
            vals: vec![0; slots].into_boxed_slice(),
            present: vec![0; mask_words(slots)].into_boxed_slice(),
        }
    }

    /// Converts a map packet onto `table`'s layout.
    ///
    /// Fields of `pkt` not present in the table are *not* representable and
    /// are skipped; callers that must preserve pass-through fields keep the
    /// original packet and merge written slots back (see the slot engine,
    /// and [`FlatPacket::merged_with`]).
    pub fn from_packet(pkt: &Packet, table: &Arc<FieldTable>) -> Self {
        let mut flat = FlatPacket::new(Arc::clone(table));
        flat.fill(pkt);
        flat
    }

    /// Overwrites this packet with `pkt`'s fields: every slot is cleared,
    /// then each field of `pkt` the table interns is written (the
    /// allocation-free form of [`FlatPacket::from_packet`]).
    pub fn load(&mut self, pkt: &Packet) {
        self.vals.fill(0);
        self.present.fill(0);
        self.fill(pkt);
    }

    fn fill(&mut self, pkt: &Packet) {
        for (name, value) in pkt.iter() {
            if let Some(id) = self.table.lookup(name) {
                self.set(id, value);
            }
        }
    }

    /// The layout this packet is keyed by.
    pub fn table(&self) -> &Arc<FieldTable> {
        &self.table
    }

    /// Reads a slot, `None` if no write has marked it present.
    pub fn get(&self, id: FieldId) -> Option<i32> {
        if self.has(id) {
            Some(self.vals[id.index()])
        } else {
            None
        }
    }

    /// Reads a slot, absent slots read as 0 (the hot-path read).
    #[inline]
    pub fn get_or_zero(&self, id: FieldId) -> i32 {
        self.vals[id.index()]
    }

    /// Reads a slot that the execution model guarantees was written.
    ///
    /// # Panics
    ///
    /// Panics with the *field name* (via the table's reverse mapping), not
    /// a bare slot index — same contract as [`Packet::expect`]: a missing
    /// field is a compiler bug and the diagnostic must name it.
    pub fn expect(&self, id: FieldId) -> i32 {
        match self.get(id) {
            Some(v) => v,
            None => panic!(
                "internal error: packet field `{}` ({id}) read before any write; \
                 fields present: [{}]",
                self.table.name(id),
                self.field_names().collect::<Vec<_>>().join(", ")
            ),
        }
    }

    /// True if the slot has been written.
    #[inline]
    pub fn has(&self, id: FieldId) -> bool {
        let i = id.index();
        self.present[i / 64] >> (i % 64) & 1 == 1
    }

    /// Writes a slot and marks it present.
    #[inline]
    pub fn set(&mut self, id: FieldId, value: i32) {
        let i = id.index();
        self.vals[i] = value;
        self.present[i / 64] |= 1 << (i % 64);
    }

    /// Raw value slab (hot-path accessor for the slot engine). Writes via
    /// this slice do *not* update presence; the engine restores the
    /// invariant by OR-ing its static written-slot mask afterwards.
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [i32] {
        &mut self.vals
    }

    /// Raw value slab (read side).
    #[inline]
    pub fn slots(&self) -> &[i32] {
        &self.vals
    }

    /// OR-s a precomputed presence mask into this packet (the engine's
    /// static set of written slots; statements are straight-line, so the
    /// written set per pipeline is a compile-time constant).
    #[inline]
    pub fn mark_present(&mut self, mask: &[u64]) {
        debug_assert_eq!(mask.len(), self.present.len());
        for (word, m) in self.present.iter_mut().zip(mask) {
            *word |= m;
        }
    }

    /// Names of present fields, in slot order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.table
            .iter()
            .filter(|(id, _)| self.has(*id))
            .map(|(_, n)| n)
    }

    /// Converts back to a map packet (present fields only).
    pub fn to_packet(&self) -> Packet {
        self.merged_with(Packet::new())
    }

    /// The packet `input` becomes once every present slot is written over
    /// it: fields the table interns take their slot's value when present
    /// (the input's otherwise), and every other input field passes
    /// through untouched.
    ///
    /// This is how a switch builds the one `Packet` a flat packet turns
    /// into at the sink: a single merge of the input's sorted fields with
    /// the table's name order, whose keys are the input's and the table's
    /// shared names — no name is copied.
    ///
    /// ```
    /// use domino_ir::{FieldTable, FlatPacket, Packet};
    /// use std::sync::Arc;
    ///
    /// let mut table = FieldTable::new();
    /// let hop = table.intern("hop");
    /// let mut flat = FlatPacket::new(Arc::new(table));
    /// flat.set(hop, 7);
    /// let input = Packet::new().with("sport", 80).with("hop", 1);
    /// let out = flat.merged_with(input);
    /// assert_eq!(out, Packet::new().with("sport", 80).with("hop", 7));
    /// ```
    pub fn merged_with(&self, input: Packet) -> Packet {
        use std::cmp::Ordering::{Equal, Greater};
        let mut table = self.table.iter_sorted().peekable();
        let mut out = Vec::with_capacity(input.len() + self.table.len());
        for (name, mut value) in input.into_sorted_fields() {
            // Table names up to this input field: present slots only,
            // and the field itself takes its slot's value if present.
            while let Some(&(id, tname)) = table.peek() {
                let ord = if Arc::ptr_eq(tname, &name) {
                    Equal
                } else {
                    (**tname).cmp(&*name)
                };
                if ord == Greater {
                    break;
                }
                table.next();
                if ord == Equal {
                    if self.has(id) {
                        value = self.vals[id.index()];
                    }
                    break;
                }
                if self.has(id) {
                    out.push((Arc::clone(tname), self.vals[id.index()]));
                }
            }
            out.push((name, value));
        }
        for (id, tname) in table {
            if self.has(id) {
                out.push((Arc::clone(tname), self.vals[id.index()]));
            }
        }
        Packet::from_sorted(out)
    }
}

impl PartialEq for FlatPacket {
    /// Two flat packets are equal when they agree on layout, presence, and
    /// every present value (tables compare by content, so packets from two
    /// identical lowerings compare equal).
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(&self.table, &other.table) || self.table == other.table)
            && self.present == other.present
            && self.vals == other.vals
    }
}

impl Eq for FlatPacket {}

/// Where one state variable lives in the flat register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSlot {
    /// The variable's name (kept for diagnostics and state export).
    pub name: String,
    /// First slot of the variable in the register file.
    pub base: u32,
    /// Number of slots (1 for a scalar, the array size otherwise).
    pub len: u32,
    /// True if the variable is a register array.
    pub is_array: bool,
    /// Initial value of every slot.
    pub init: i32,
}

/// The compile-time layout of all state variables: each resolved to a base
/// offset into one flat `i32` register file, in declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateLayout {
    entries: Vec<StateSlot>,
    total: u32,
}

impl StateLayout {
    /// Builds the layout from checked state declarations.
    pub fn from_decls(decls: &[StateVar]) -> Self {
        let mut entries = Vec::with_capacity(decls.len());
        let mut total = 0u32;
        for d in decls {
            let (len, is_array) = match d.kind {
                StateKind::Scalar => (1, false),
                StateKind::Array { size } => (size, true),
            };
            entries.push(StateSlot {
                name: d.name.clone(),
                base: total,
                len,
                is_array,
                init: d.init,
            });
            total += len;
        }
        StateLayout { entries, total }
    }

    /// The layout entry for a variable, if declared.
    pub fn slot(&self, name: &str) -> Option<&StateSlot> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Total register-file slots.
    pub fn total_slots(&self) -> usize {
        self.total as usize
    }

    /// All entries in declaration (base-offset) order.
    pub fn entries(&self) -> &[StateSlot] {
        &self.entries
    }
}

impl fmt::Display for StateLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            if e.is_array {
                writeln!(
                    f,
                    "state[{}..{}] = {}[{}]",
                    e.base,
                    e.base + e.len,
                    e.name,
                    e.len
                )?;
            } else {
                writeln!(f, "state[{}] = {}", e.base, e.name)?;
            }
        }
        Ok(())
    }
}

/// All state variables of a program as one flat register file.
///
/// Array indexing wraps modulo the array size with the same `rem_euclid`
/// rule as [`StateStore`] — the two representations are observably
/// identical, which [`FlatState::export`] lets tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatState {
    layout: StateLayout,
    slots: Box<[i32]>,
}

impl FlatState {
    /// Initializes the register file from a layout (every slot of a
    /// variable starts at the variable's initializer).
    pub fn new(layout: StateLayout) -> Self {
        let mut slots = vec![0; layout.total_slots()].into_boxed_slice();
        for e in layout.entries() {
            for s in &mut slots[e.base as usize..(e.base + e.len) as usize] {
                *s = e.init;
            }
        }
        FlatState { layout, slots }
    }

    /// The layout this register file was built from.
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// Reads the scalar at `base`.
    #[inline]
    pub fn read(&self, base: u32) -> i32 {
        self.slots[base as usize]
    }

    /// Writes the scalar at `base`.
    #[inline]
    pub fn write(&mut self, base: u32, value: i32) {
        self.slots[base as usize] = value;
    }

    /// Reads an array element (index reduced modulo `len`, like a hardware
    /// address decoder — identical to [`StateStore`]'s rule).
    #[inline]
    pub fn read_array(&self, base: u32, len: u32, index: i32) -> i32 {
        self.slots[base as usize + Self::wrap(index, len)]
    }

    /// Writes an array element (index reduced modulo `len`).
    #[inline]
    pub fn write_array(&mut self, base: u32, len: u32, index: i32, value: i32) {
        self.slots[base as usize + Self::wrap(index, len)] = value;
    }

    #[inline]
    fn wrap(index: i32, len: u32) -> usize {
        (index as i64).rem_euclid(len as i64) as usize
    }

    /// Imports variables from a map snapshot — the inverse of
    /// [`FlatState::export`], used to warm-start a partition from a serial
    /// checkpoint.
    ///
    /// Variables of the snapshot missing from this layout, or arrays whose
    /// sizes disagree, indicate a partitioning bug upstream.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot variable is unknown to the layout or has the
    /// wrong kind/size.
    pub fn import(&mut self, snapshot: &StateStore) {
        for (name, value) in snapshot.iter() {
            let (base, len, is_array) = {
                let e = self
                    .layout
                    .slot(name)
                    .unwrap_or_else(|| panic!("internal error: unknown state variable `{name}`"));
                (e.base as usize, e.len as usize, e.is_array)
            };
            match value {
                StateValue::Scalar(v) if !is_array => self.slots[base] = *v,
                StateValue::Array(vs) if is_array && vs.len() == len => {
                    self.slots[base..base + len].copy_from_slice(vs);
                }
                _ => panic!("internal error: state variable `{name}` has the wrong shape"),
            }
        }
    }

    /// Exports the register file as a map-based [`StateStore`] for
    /// comparison against the reference path.
    pub fn export(&self) -> StateStore {
        let mut store = StateStore::new();
        for e in self.layout.entries() {
            let window = &self.slots[e.base as usize..(e.base + e.len) as usize];
            if e.is_array {
                store.insert_array(&e.name, e.len as usize, 0);
                // insert_array fills with one init value; overwrite with
                // the live contents.
                for (i, v) in window.iter().enumerate() {
                    store.write_array(&e.name, i as i32, *v);
                }
            } else {
                store.insert_scalar(&e.name, window[0]);
            }
        }
        store
    }
}

impl fmt::Display for FlatState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.export())
    }
}

/// How a program's state indexing partitions across parallel shards.
///
/// Extracted by [`StateLayout::flow_key`]. `Keyed` is the software
/// analogue of the paper's stateful-atom locality argument: all persistent
/// state is per-flow (indexed by one packet-derived key), so flows can be
/// steered to independent shards with no cross-shard coordination — the
/// same partitioning RSS NICs and multi-pipeline P4 targets rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitionability {
    /// The program touches no persistent state: any flow-consistent
    /// steering reproduces serial execution.
    Stateless,
    /// Every state access is an array access through one common index
    /// field; the extracted spec steers packets so that packets that can
    /// touch the same state slot always land on the same shard.
    Keyed(FlowKeySpec),
    /// State is not exactly partitionable, but every update is a
    /// commutative fold (increments / constant stores into hashed
    /// arrays): each shard runs a full replica and the replicas merge
    /// elementwise — serial state is reproduced bit for bit, per-packet
    /// sketch reads keep only the sketch's own (ε, δ) contract.
    Replicable(ReplicaSpec),
}

impl fmt::Display for Partitionability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Partitionability::Stateless => {
                writeln!(
                    f,
                    "stateless: no persistent state, any flow steering is sound"
                )
            }
            Partitionability::Keyed(spec) => write!(f, "{spec}"),
            Partitionability::Replicable(spec) => write!(f, "{spec}"),
        }
    }
}

/// The flow key a shard-partitionable program steers by.
///
/// Invariant (established by [`StateLayout::flow_key`]): two packets that
/// can read or write a common state slot have equal keys. The key is the
/// program's own array-index value reduced modulo the gcd of every
/// accessed array's size — equal slots imply congruent indices, congruent
/// indices imply equal keys — and it is computed by a *stateless*
/// straight-line slice of the program, so a dispatcher can evaluate it
/// before any pipeline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowKeySpec {
    /// Stateless slice computing `key_field` from input fields, in
    /// program order.
    stmts: Vec<TacStmt>,
    /// The common index field whose value (mod `modulus`) is the key.
    key_field: String,
    /// gcd of the sizes of every array the program indexes.
    modulus: u32,
    /// Input fields the key depends on (the slice's free variables).
    roots: Vec<String>,
}

impl FlowKeySpec {
    /// The field whose value the key is derived from.
    pub fn key_field(&self) -> &str {
        &self.key_field
    }

    /// Number of key classes (gcd of all accessed array sizes).
    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// The input fields the key depends on.
    pub fn roots(&self) -> &[String] {
        &self.roots
    }

    /// The stateless slice that computes the key field.
    pub fn stmts(&self) -> &[TacStmt] {
        &self.stmts
    }

    /// Evaluates the key of an input packet by running the stateless slice
    /// and reducing the key field modulo [`FlowKeySpec::modulus`].
    ///
    /// This is the reference evaluator: only the root fields are copied
    /// into a fresh map-packet scratch. The sharded dispatcher's hot path
    /// steers with the slice lowered onto slots (`banzai::SlotFlowKey`),
    /// which tests check against this.
    pub fn key_of(&self, pkt: &Packet) -> u32 {
        let mut scratch = Packet::new();
        for root in &self.roots {
            if let Some(v) = pkt.get(root) {
                scratch.set(root, v);
            }
        }
        // The slice is stateless by construction; the store is never read.
        let mut no_state = StateStore::new();
        for stmt in &self.stmts {
            crate::interp::exec_tac_stmt(stmt, &mut no_state, &mut scratch);
        }
        (scratch.get_or_zero(&self.key_field) as i64).rem_euclid(self.modulus as i64) as u32
    }

    /// The shard an input packet steers to.
    pub fn shard_of(&self, pkt: &Packet, shards: usize) -> usize {
        FlowKeySpec::shard_of_class(self.key_of(pkt), shards)
    }

    /// The shard that owns a key class. Array slot `k` of any accessed
    /// array belongs to class `k % modulus`, so this is also the state
    /// partition: only the owning shard ever touches that slot.
    pub fn shard_of_class(class: u32, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        (mix64(class as u64) % shards as u64) as usize
    }
}

impl fmt::Display for FlowKeySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow key = pkt.{} mod {}", self.key_field, self.modulus)?;
        writeln!(f, "roots: {}", self.roots.join(", "))?;
        if !self.stmts.is_empty() {
            writeln!(f, "slice:")?;
            for s in &self.stmts {
                writeln!(f, "  {s}")?;
            }
        }
        Ok(())
    }
}

/// The elementwise fold that reconciles per-shard replicas of one state
/// array back into the serial array (see [`ReplicaSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// `merged[k] = init + Σ_shard (replica[k] − init)`, wrapping like the
    /// interpreter's `+`. Sound when every write is `slot = slot + δ` with
    /// a state-independent δ: addition commutes and associates, so
    /// splitting the trace across replicas and summing the per-replica
    /// displacements reproduces the serial array bit for bit.
    Sum,
    /// `merged[k] = max over shards of replica[k]`. Sound when every write
    /// stores one constant `c ≥ init` (membership bits): a slot holds `c`
    /// exactly when some shard stored it, on any split of the trace.
    Max,
}

impl fmt::Display for MergeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeOp::Sum => write!(f, "sum"),
            MergeOp::Max => write!(f, "max"),
        }
    }
}

/// One mergeable state array of a [`ReplicaSpec`]: its geometry, merge
/// op, and the stateless slices recovering the per-packet slot index and
/// update value — what the statistical differential harness replays to
/// compute exact per-key masses without re-running the program.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaArray {
    name: String,
    len: u32,
    init: i32,
    merge: MergeOp,
    /// Stateless slice computing the index operand (empty when the index
    /// is a constant or a raw input field).
    index_stmts: Vec<TacStmt>,
    index: Operand,
    index_roots: Vec<String>,
    /// For [`MergeOp::Sum`], the per-packet increment; for
    /// [`MergeOp::Max`], the stored constant.
    value_stmts: Vec<TacStmt>,
    value: Operand,
    value_roots: Vec<String>,
}

impl ReplicaArray {
    /// The declared array name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Array length (the sketch row width `w`; ε = e/w for `Sum` rows).
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the array has zero slots (never true for declared state).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The declared initializer every replica starts from.
    pub fn init(&self) -> i32 {
        self.init
    }

    /// How per-shard replicas of this array fold back together.
    pub fn merge(&self) -> MergeOp {
        self.merge
    }

    /// Input fields the slot index depends on.
    pub fn index_roots(&self) -> &[String] {
        &self.index_roots
    }

    /// Evaluates a stateless slice on a fresh scratch packet seeded with
    /// the roots, then reads the operand (mirrors [`FlowKeySpec::key_of`]).
    fn eval(stmts: &[TacStmt], roots: &[String], op: &Operand, pkt: &Packet) -> i32 {
        match op {
            Operand::Const(c) => *c,
            Operand::Field(f) => {
                let mut scratch = Packet::new();
                for root in roots {
                    if let Some(v) = pkt.get(root) {
                        scratch.set(root, v);
                    }
                }
                let mut no_state = StateStore::new();
                for stmt in stmts {
                    crate::interp::exec_tac_stmt(stmt, &mut no_state, &mut scratch);
                }
                scratch.get_or_zero(f)
            }
        }
    }

    /// The slot an input packet's update lands in (the program's own index
    /// arithmetic, reduced like the state store reduces indices).
    pub fn slot_of(&self, pkt: &Packet) -> usize {
        (Self::eval(&self.index_stmts, &self.index_roots, &self.index, pkt) as i64)
            .rem_euclid(self.len as i64) as usize
    }

    /// The per-packet update value: the increment added ([`MergeOp::Sum`])
    /// or the constant stored ([`MergeOp::Max`]).
    pub fn update_of(&self, pkt: &Packet) -> i32 {
        Self::eval(&self.value_stmts, &self.value_roots, &self.value, pkt)
    }
}

impl fmt::Display for ReplicaArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] init {}: merge {}, update {}",
            self.name, self.len, self.init, self.merge, self.value
        )
    }
}

/// Witness that a program's state is **replicable**: every state update
/// commutes and associates, so each shard may run a *full copy* of the
/// state under any packet steering, and the per-shard copies fold back
/// into the serial state elementwise ([`ReplicaSpec::merge_states`]).
///
/// This is the tier below [`FlowKeySpec`]'s exact partitioning. The
/// merged *state* is still bit-identical to serial execution, but
/// per-packet *outputs* that read sketch state (post-increment estimates)
/// are not — they obey the sketch's own approximation contract instead,
/// which the statistical differential harness checks as overestimate,
/// mass-conservation, and (ε, δ) error-bound invariants (the count-min
/// guarantees the source algorithm already lives with).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaSpec {
    arrays: Vec<ReplicaArray>,
    steer_roots: Vec<String>,
}

impl ReplicaSpec {
    /// The mergeable (written) arrays, in declaration-independent
    /// name order.
    pub fn arrays(&self) -> &[ReplicaArray] {
        &self.arrays
    }

    /// Looks up one mergeable array by name.
    pub fn array(&self, name: &str) -> Option<&ReplicaArray> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Input fields replica steering hashes: the union of every index
    /// slice's roots. Steering never affects merge correctness (updates
    /// commute); hashing these keeps packets of one flow on one shard so
    /// per-flow output order survives. Empty for constant-indexed
    /// sketches — any deterministic steering then works.
    pub fn steer_roots(&self) -> &[String] {
        &self.steer_roots
    }

    /// Count-min depth `d`: the number of `Sum`-merged rows.
    pub fn sum_rows(&self) -> usize {
        self.arrays
            .iter()
            .filter(|a| a.merge == MergeOp::Sum)
            .count()
    }

    /// ε of the sketch's (ε, δ) contract — `e / w` for the narrowest
    /// `Sum` row — or `None` when the sketch has no `Sum` rows.
    pub fn epsilon(&self) -> Option<f64> {
        self.arrays
            .iter()
            .filter(|a| a.merge == MergeOp::Sum)
            .map(|a| a.len)
            .min()
            .map(|w| std::f64::consts::E / w as f64)
    }

    /// δ of the (ε, δ) contract: the probability that the min-over-rows
    /// estimate of any key exceeds `exact + ε·N`, bounded by `e^(−d)`.
    pub fn delta(&self) -> Option<f64> {
        let d = self.sum_rows();
        (d > 0).then(|| (-(d as f64)).exp())
    }

    /// Folds per-shard exported snapshots into one state **bit-identical**
    /// to the serial run's: `Sum` arrays by summed displacement from the
    /// initializer (wrapping, like the interpreter), `Max` arrays by
    /// elementwise max. Everything else — read-only arrays, declared but
    /// untouched state — is identical in every replica and is taken from
    /// the first snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `snaps` is empty or a snapshot is missing one of the
    /// spec's arrays.
    pub fn merge_states(&self, snaps: &[StateStore]) -> StateStore {
        assert!(
            !snaps.is_empty(),
            "merge_states needs at least one snapshot"
        );
        let mut merged = snaps[0].clone();
        for arr in &self.arrays {
            for k in 0..arr.len as i32 {
                let folded = match arr.merge {
                    MergeOp::Sum => snaps.iter().fold(arr.init, |acc, s| {
                        acc.wrapping_add(s.read_array(&arr.name, k).wrapping_sub(arr.init))
                    }),
                    MergeOp::Max => snaps
                        .iter()
                        .map(|s| s.read_array(&arr.name, k))
                        .max()
                        .expect("snaps is non-empty"),
                };
                merged.write_array(&arr.name, k, folded);
            }
        }
        merged
    }
}

impl fmt::Display for ReplicaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "replicable: full sketch replica per shard, elementwise merge"
        )?;
        if self.steer_roots.is_empty() {
            writeln!(f, "steer roots: (none; any deterministic steering)")?;
        } else {
            writeln!(f, "steer roots: {}", self.steer_roots.join(", "))?;
        }
        for a in &self.arrays {
            writeln!(f, "  {a}")?;
        }
        if let (Some(eps), Some(delta)) = (self.epsilon(), self.delta()) {
            writeln!(
                f,
                "(ε, δ) bound: ε = {eps:.3e} ({} sum rows), δ = {delta:.3e}",
                self.sum_rows()
            )?;
        }
        Ok(())
    }
}

/// SplitMix64 finalizer: spreads key classes uniformly over shards so
/// steering stays balanced even when keys cluster. Deterministic across
/// runs and platforms (steering must be reproducible).
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Backward slice of `targets` over stateless, singly-assigned defs,
/// walking `stmts` in reverse. Returns the slice (in program order) and
/// its free input fields. Errors — named after `what`, e.g. "the flow
/// key" or "array `cms1`'s index" — if the slice passes through state or
/// a multiply-assigned field.
fn stateless_slice(
    stmts: &[TacStmt],
    defs: &HashMap<&str, usize>,
    targets: &[&str],
    what: &str,
) -> Result<(Vec<TacStmt>, Vec<String>), String> {
    let mut need: BTreeSet<String> = targets.iter().map(|t| t.to_string()).collect();
    let mut slice: Vec<TacStmt> = Vec::new();
    for stmt in stmts.iter().rev() {
        match stmt {
            TacStmt::Assign { dst, rhs } if need.contains(dst.as_str()) => {
                if defs.get(dst.as_str()).copied().unwrap_or(0) > 1 {
                    return Err(format!(
                        "field `{dst}` feeding {what} is assigned more \
                         than once; the key has no unique pre-execution value"
                    ));
                }
                need.remove(dst.as_str());
                for op in rhs.operands() {
                    if let Operand::Field(f) = op {
                        need.insert(f.clone());
                    }
                }
                slice.push(stmt.clone());
            }
            TacStmt::ReadState { dst, state } if need.contains(dst.as_str()) => {
                return Err(format!(
                    "{what} depends on state `{}` (via field `{dst}`); \
                     it cannot be computed before execution",
                    state.name()
                ));
            }
            _ => {}
        }
    }
    slice.reverse();
    Ok((slice, need.into_iter().collect()))
}

/// Per-`dst` definition counts (assignments and state-read destinations)
/// — the single-assignment witness both tiers' slices rely on.
fn def_counts(stmts: &[TacStmt]) -> HashMap<&str, usize> {
    let mut defs: HashMap<&str, usize> = HashMap::new();
    for stmt in stmts {
        match stmt {
            TacStmt::Assign { dst, .. } | TacStmt::ReadState { dst, .. } => {
                *defs.entry(dst.as_str()).or_insert(0) += 1;
            }
            TacStmt::WriteState { .. } => {}
        }
    }
    defs
}

/// Rejects programs that access state through `field` *before* its
/// assignment: the access would index by the field's input value while
/// the extracted slice computes the assigned value — two different index
/// values in one pipeline. (Compiler-emitted TAC is SSA, so this only
/// bites hand-built pipelines — but those reach this API too.)
fn index_defined_before_access(stmts: &[TacStmt], field: &str) -> Result<(), String> {
    if let Some(def_pos) = stmts
        .iter()
        .position(|s| matches!(s, TacStmt::Assign { dst, .. } if dst == field))
    {
        let early_access = stmts[..def_pos].iter().any(|s| {
            matches!(s,
                TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. }
                    if matches!(state, StateRef::Array { index: Operand::Field(f), .. }
                        if f == field))
        });
        if early_access {
            return Err(format!(
                "state is accessed through `{field}` before that field is \
                 assigned; the flow key has no single pre-execution value"
            ));
        }
    }
    Ok(())
}

impl StateLayout {
    /// Decides how a program's state indexing partitions across shards,
    /// trying the strongest tier first:
    ///
    /// 1. **Exact** ([`Partitionability::Keyed`] / `Stateless`) — one
    ///    common index field keys every access; steering by it reproduces
    ///    serial execution bit for bit.
    /// 2. **Replicable** ([`Partitionability::Replicable`]) — every state
    ///    update is a commutative fold into an array slot, so full
    ///    per-shard replicas merge back into the serial state.
    ///
    /// When both tiers reject, the error names the tier decision and the
    /// specific analysis step each tier failed on — the single-shard
    /// fallback diagnostic `banzai`'s sharded switch surfaces.
    pub fn flow_key(&self, stmts: &[TacStmt]) -> Result<Partitionability, String> {
        let exact_why = match self.exact_flow_key(stmts) {
            Ok(part) => return Ok(part),
            Err(why) => why,
        };
        match self.replica_spec(stmts) {
            Ok(spec) => Ok(Partitionability::Replicable(spec)),
            Err(replica_why) => Err(format!(
                "not Exact-partitionable: {exact_why}; \
                 not Replicable: {replica_why}"
            )),
        }
    }

    /// The **exact** tier: extracts the [`FlowKeySpec`] witnessing that
    /// flow steering reproduces serial execution bit for bit.
    ///
    /// `stmts` is the program's straight-line TAC in execution order (for
    /// a compiled pipeline: every atom's codelet, stage by stage). The
    /// rule:
    ///
    /// * **scalar state** is a global register every packet read-modify-
    ///   writes — not partitionable (e.g. `rcp.domino`);
    /// * **array state** must be indexed by *one* common packet field
    ///   across all accesses (e.g. `flowlet.domino`'s `pkt.id`); arrays
    ///   indexed by distinct hash fields couple packets through slot
    ///   collisions (e.g. `heavy_hitters.domino`'s three sketch rows —
    ///   which the [`StateLayout::replica_spec`] tier covers instead);
    /// * the index field's computation must be a **stateless** slice of
    ///   the program (a dispatcher steers *before* execution);
    /// * the key is the index reduced modulo the **gcd of the array
    ///   sizes**, so congruent indices — the only ones that can alias a
    ///   slot — share a key class.
    fn exact_flow_key(&self, stmts: &[TacStmt]) -> Result<Partitionability, String> {
        let mut index_fields: BTreeSet<&str> = BTreeSet::new();
        let mut modulus = 0u32;
        for stmt in stmts {
            let sref = match stmt {
                TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. } => state,
                TacStmt::Assign { .. } => continue,
            };
            let entry = self
                .slot(sref.name())
                .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
            match sref {
                StateRef::Scalar(name) => {
                    return Err(format!(
                        "scalar state `{name}` is a global register (every packet \
                         read-modify-writes it); no flow steering preserves serial \
                         semantics"
                    ));
                }
                StateRef::Array { name, index } => match index {
                    Operand::Const(c) => {
                        return Err(format!(
                            "array `{name}` is indexed by the constant {c}; every \
                             packet touches the same slot"
                        ));
                    }
                    Operand::Field(f) => {
                        index_fields.insert(f);
                        modulus = gcd(modulus, entry.len);
                    }
                },
            }
        }

        if index_fields.is_empty() {
            return Ok(Partitionability::Stateless);
        }
        if index_fields.len() > 1 {
            let fields: Vec<&str> = index_fields.into_iter().collect();
            return Err(format!(
                "state arrays are indexed by {} distinct fields (`{}`); packets \
                 couple through slot collisions, so no single flow key covers them",
                fields.len(),
                fields.join("`, `")
            ));
        }
        if modulus <= 1 {
            return Err(
                "the accessed arrays' sizes share no common factor; the flow key \
                 has a single class"
                    .to_string(),
            );
        }
        let key_field = index_fields.into_iter().next().unwrap().to_string();

        // The key field must be defined before any state access indexes
        // by it, and its computation must be a stateless, singly-assigned
        // slice — the dispatcher evaluates it before any pipeline runs.
        index_defined_before_access(stmts, &key_field)?;
        let defs = def_counts(stmts);
        let (slice, roots) = stateless_slice(stmts, &defs, &[&key_field], "the flow key")?;
        Ok(Partitionability::Keyed(FlowKeySpec {
            stmts: slice,
            key_field,
            modulus,
            roots,
        }))
    }

    /// The **replicable** tier: proves every state update is a
    /// commutative, associative, state-independent fold into one array
    /// slot, and builds the [`ReplicaSpec`] naming each mergeable array
    /// and its merge op.
    ///
    /// Accepted update grammar, per written array (one write site; the
    /// resolution follows unique copy chains):
    ///
    /// * `arr[i] = c` with constant `c ≥ init` → merge [`MergeOp::Max`]
    ///   (membership bits, e.g. `bloom_filter.domino`);
    /// * `arr[i] = arr[i] + δ`, optionally guarded
    ///   (`cond ? arr[i] + δ : arr[i]`), where δ's and `cond`'s backward
    ///   slices are stateless → merge [`MergeOp::Sum`] (count-min rows,
    ///   e.g. `heavy_hitters.domino`'s three differently-hashed sketches);
    /// * a bare copy-back `arr[i] = arr[i]` → `Sum` with δ = 0.
    ///
    /// Everything else is rejected with the specific failing step: scalar
    /// accesses (replicas of a global register diverge), reads and writes
    /// of one array at different slots (cross-slot moves do not commute),
    /// packet-dependent overwrites (last-writer-wins depends on the
    /// split), updates whose δ or index reads *any* state (read-modify-
    /// write coupling across arrays). Reads that feed only packet outputs
    /// are unconstrained — those are the per-packet sketch estimates the
    /// statistical harness covers.
    fn replica_spec(&self, stmts: &[TacStmt]) -> Result<ReplicaSpec, String> {
        let defs = def_counts(stmts);

        // Group accesses per array; scalars cannot be replicated.
        #[derive(Default)]
        struct Accesses {
            reads: Vec<(String, Operand)>,
            writes: Vec<(Operand, Operand)>,
        }
        let mut access: BTreeMap<String, Accesses> = BTreeMap::new();
        for stmt in stmts {
            let sref = match stmt {
                TacStmt::ReadState { state, .. } | TacStmt::WriteState { state, .. } => state,
                TacStmt::Assign { .. } => continue,
            };
            self.slot(sref.name())
                .ok_or_else(|| format!("state variable `{}` is not declared", sref.name()))?;
            if let StateRef::Scalar(name) = sref {
                return Err(format!(
                    "scalar state `{name}` is a global register; per-shard \
                     replicas of it diverge and no elementwise merge recovers \
                     the serial value"
                ));
            }
            let StateRef::Array { name, index } = sref else {
                unreachable!("scalars returned above")
            };
            let entry = access.entry(name.clone()).or_default();
            match stmt {
                TacStmt::ReadState { dst, .. } => entry.reads.push((dst.clone(), index.clone())),
                TacStmt::WriteState { src, .. } => entry.writes.push((src.clone(), index.clone())),
                TacStmt::Assign { .. } => unreachable!("assigns were skipped above"),
            }
        }

        // Resolves an operand through unique single-assignment copy
        // chains to its terminal operand.
        let resolve = |op: &Operand| -> Operand {
            let mut op = op.clone();
            loop {
                let Operand::Field(ref f) = op else { return op };
                if defs.get(f.as_str()).copied().unwrap_or(0) != 1 {
                    return op;
                }
                let copied = stmts.iter().find_map(|s| match s {
                    TacStmt::Assign {
                        dst,
                        rhs: TacRhs::Copy(inner),
                    } if dst == f => Some(inner.clone()),
                    _ => None,
                });
                match copied {
                    Some(inner) => op = inner,
                    None => return op,
                }
            }
        };
        // The unique non-copy Assign rhs ultimately defining `op`, if any.
        let rhs_of = |op: &Operand| -> Option<TacRhs> {
            let Operand::Field(f) = resolve(op) else {
                return None;
            };
            if defs.get(f.as_str()).copied().unwrap_or(0) != 1 {
                return None;
            }
            stmts.iter().find_map(|s| match s {
                TacStmt::Assign { dst, rhs } if *dst == f => Some(rhs.clone()),
                _ => None,
            })
        };

        /// A classified commutative update.
        enum Update {
            /// `arr[i] = c` — constant store, max-merge.
            Store(i32),
            /// `arr[i] = arr[i] + δ`, `guard ? … : arr[i]` — sum-merge.
            /// `negated` marks the `guard ? arr[i] : arr[i] + δ` arm order.
            Increment {
                delta: Operand,
                guard: Option<(Operand, bool)>,
            },
        }

        let mut arrays: Vec<ReplicaArray> = Vec::new();
        let mut steer_roots: BTreeSet<String> = BTreeSet::new();
        for (name, acc) in &access {
            if acc.writes.is_empty() {
                continue; // read-only: every replica stays bit-identical
            }
            if acc.writes.len() > 1 {
                return Err(format!(
                    "array `{name}` is written at {} sites; a replica needs a \
                     single commutative update per packet",
                    acc.writes.len()
                ));
            }
            let (src, widx) = acc.writes[0].clone();
            let entry = self.slot(name).expect("declared above");

            // Is `op` this array's own read value? A read feeding the
            // write must use the write's own index — a cross-slot move
            // (`arr[i] = arr[j] + δ`) does not commute.
            let own_read = |op: &Operand| -> Result<bool, String> {
                let Operand::Field(f) = resolve(op) else {
                    return Ok(false);
                };
                let Some((_, ridx)) = acc.reads.iter().find(|(dst, _)| *dst == f) else {
                    return Ok(false);
                };
                if *ridx != widx {
                    return Err(format!(
                        "array `{name}` is read at index `{ridx}` but written \
                         at index `{widx}`; cross-slot moves do not commute"
                    ));
                }
                Ok(true)
            };
            // `arr[i] + δ` (either operand order) → δ.
            let increment_of = |op: &Operand| -> Result<Option<Operand>, String> {
                match rhs_of(op) {
                    Some(TacRhs::Binary(domino_ast::BinOp::Add, a, b)) => {
                        if own_read(&a)? {
                            Ok(Some(b))
                        } else if own_read(&b)? {
                            Ok(Some(a))
                        } else {
                            Ok(None)
                        }
                    }
                    _ => Ok(None),
                }
            };
            // The taken arm of a guarded update: the slot kept (δ = 0) or
            // incremented.
            let arm_of = |op: &Operand| -> Result<Option<Operand>, String> {
                if own_read(op)? {
                    Ok(Some(Operand::Const(0)))
                } else {
                    increment_of(op)
                }
            };

            let update = if let Operand::Const(c) = resolve(&src) {
                Update::Store(c)
            } else if own_read(&src)? {
                Update::Increment {
                    delta: Operand::Const(0),
                    guard: None,
                }
            } else if let Some(delta) = increment_of(&src)? {
                Update::Increment { delta, guard: None }
            } else if let Some(TacRhs::Ternary(cond, then_, else_)) = rhs_of(&src) {
                // Guarded increment: one arm keeps the slot, the other
                // increments it — `cond ? arr[i] + δ : arr[i]` or mirrored.
                let taken = if own_read(&else_)? {
                    arm_of(&then_)?.map(|delta| (delta, false))
                } else if own_read(&then_)? {
                    arm_of(&else_)?.map(|delta| (delta, true))
                } else {
                    None
                };
                match taken {
                    Some((delta, negated)) => Update::Increment {
                        delta,
                        guard: Some((cond, negated)),
                    },
                    None => {
                        return Err(format!(
                            "array `{name}` is overwritten with a \
                             packet-dependent value; last-writer-wins depends \
                             on the trace split, so replicas cannot be merged"
                        ))
                    }
                }
            } else {
                return Err(format!(
                    "array `{name}` is overwritten with a packet-dependent \
                     value; last-writer-wins depends on the trace split, so \
                     replicas cannot be merged"
                ));
            };

            // The slot index must be a pre-execution value: stateless,
            // singly assigned, never accessed before its definition.
            let (index_stmts, index_roots) = match &widx {
                Operand::Const(_) => (Vec::new(), Vec::new()),
                Operand::Field(f) => {
                    index_defined_before_access(stmts, f)?;
                    stateless_slice(stmts, &defs, &[f], &format!("array `{name}`'s index"))?
                }
            };

            let arr = match update {
                Update::Store(c) => {
                    if c < entry.init {
                        return Err(format!(
                            "array `{name}` stores the constant {c} below its \
                             initializer {}; max-merge cannot reproduce it",
                            entry.init
                        ));
                    }
                    ReplicaArray {
                        name: name.clone(),
                        len: entry.len,
                        init: entry.init,
                        merge: MergeOp::Max,
                        index_stmts,
                        index: widx.clone(),
                        index_roots,
                        value_stmts: Vec::new(),
                        value: Operand::Const(c),
                        value_roots: Vec::new(),
                    }
                }
                Update::Increment { delta, guard } => {
                    // δ and the guard must be stateless: a δ read from
                    // another array would couple the sketches' evolution
                    // across the split (read-modify-write coupling).
                    let mut targets: Vec<&str> = Vec::new();
                    if let Operand::Field(f) = &delta {
                        targets.push(f);
                    }
                    if let Some((Operand::Field(f), _)) = &guard {
                        targets.push(f);
                    }
                    let (mut value_stmts, value_roots) = stateless_slice(
                        stmts,
                        &defs,
                        &targets,
                        &format!("array `{name}`'s update value"),
                    )?;
                    let value = match guard {
                        None => delta,
                        Some((cond, negated)) => {
                            // Synthesize `cond ? δ : 0` (arms swapped for
                            // the negated form) so `update_of` evaluates
                            // the guard exactly as the program does.
                            let dst = format!("__replica_update_{name}");
                            let (then_, else_) = if negated {
                                (Operand::Const(0), delta)
                            } else {
                                (delta, Operand::Const(0))
                            };
                            value_stmts.push(TacStmt::Assign {
                                dst: dst.clone(),
                                rhs: TacRhs::Ternary(cond, then_, else_),
                            });
                            Operand::Field(dst)
                        }
                    };
                    ReplicaArray {
                        name: name.clone(),
                        len: entry.len,
                        init: entry.init,
                        merge: MergeOp::Sum,
                        index_stmts,
                        index: widx.clone(),
                        index_roots,
                        value_stmts,
                        value,
                        value_roots,
                    }
                }
            };
            steer_roots.extend(arr.index_roots.iter().cloned());
            arrays.push(arr);
        }

        Ok(ReplicaSpec {
            arrays,
            steer_roots: steer_roots.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_abc() -> Arc<FieldTable> {
        let mut t = FieldTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        Arc::new(t)
    }

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut t = FieldTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.lookup("b"), Some(b));
        assert_eq!(t.lookup("ghost"), None);
    }

    #[test]
    fn flat_packet_roundtrips_through_map_packet() {
        let table = table_abc();
        let pkt = Packet::new().with("a", 5).with("c", -2);
        let flat = FlatPacket::from_packet(&pkt, &table);
        assert_eq!(flat.get(table.lookup("a").unwrap()), Some(5));
        assert_eq!(flat.get(table.lookup("b").unwrap()), None);
        assert_eq!(flat.get_or_zero(table.lookup("b").unwrap()), 0);
        assert_eq!(flat.to_packet(), pkt);
    }

    #[test]
    fn absent_slots_read_zero_until_masked_present() {
        let table = table_abc();
        let mut flat = FlatPacket::new(Arc::clone(&table));
        let b = table.lookup("b").unwrap();
        flat.slots_mut()[b.index()] = 7; // raw engine write, no presence
        assert!(!flat.has(b));
        assert_eq!(flat.get_or_zero(b), 7);
        let mut mask = vec![0u64; 1];
        mask[0] |= 1 << b.index();
        flat.mark_present(&mask);
        assert!(flat.has(b));
        assert_eq!(flat.to_packet().get("b"), Some(7));
    }

    #[test]
    #[should_panic(expected = "packet field `b` (slot#1) read before any write")]
    fn expect_panics_with_field_name_not_bare_index() {
        let table = table_abc();
        let mut flat = FlatPacket::new(Arc::clone(&table));
        flat.set(table.lookup("a").unwrap(), 1);
        flat.expect(table.lookup("b").unwrap());
    }

    #[test]
    fn state_layout_assigns_contiguous_bases() {
        let decls = vec![
            StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 7,
            },
            StateVar {
                name: "arr".into(),
                kind: StateKind::Array { size: 4 },
                init: -1,
            },
            StateVar {
                name: "d".into(),
                kind: StateKind::Scalar,
                init: 0,
            },
        ];
        let layout = StateLayout::from_decls(&decls);
        assert_eq!(layout.total_slots(), 6);
        assert_eq!(layout.slot("c").unwrap().base, 0);
        assert_eq!(layout.slot("arr").unwrap().base, 1);
        assert_eq!(layout.slot("arr").unwrap().len, 4);
        assert_eq!(layout.slot("d").unwrap().base, 5);
        assert!(layout.slot("ghost").is_none());
    }

    #[test]
    fn flat_state_matches_state_store_semantics() {
        let decls = vec![
            StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 7,
            },
            StateVar {
                name: "arr".into(),
                kind: StateKind::Array { size: 4 },
                init: -1,
            },
        ];
        let mut flat = FlatState::new(StateLayout::from_decls(&decls));
        let mut store = StateStore::from_decls(&decls);

        let arr = flat.layout().slot("arr").unwrap().clone();
        let c = flat.layout().slot("c").unwrap().clone();
        assert_eq!(flat.read(c.base), 7);
        flat.write(c.base, 42);
        store.write_scalar("c", 42);
        // Wrapping behaviour must match rem_euclid on both sides.
        for idx in [0, 2, 6, -1] {
            flat.write_array(arr.base, arr.len, idx, 10 + idx);
            store.write_array("arr", idx, 10 + idx);
        }
        assert_eq!(flat.export(), store);
    }

    #[test]
    fn flat_state_import_roundtrips_export() {
        let decls = vec![
            StateVar {
                name: "c".into(),
                kind: StateKind::Scalar,
                init: 7,
            },
            StateVar {
                name: "arr".into(),
                kind: StateKind::Array { size: 4 },
                init: -1,
            },
        ];
        let mut a = FlatState::new(StateLayout::from_decls(&decls));
        a.write(0, 42);
        a.write_array(1, 4, 3, 9);
        let mut b = FlatState::new(StateLayout::from_decls(&decls));
        b.import(&a.export());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown state variable `ghost`")]
    fn flat_state_import_rejects_unknown_variables() {
        let mut flat = FlatState::new(StateLayout::from_decls(&[]));
        let mut snap = StateStore::new();
        snap.insert_scalar("ghost", 1);
        flat.import(&snap);
    }

    // --- flow-key extraction -------------------------------------------

    use crate::tac::{Operand, StateRef, TacRhs, TacStmt};

    fn arr_decl(name: &str, size: u32) -> StateVar {
        StateVar {
            name: name.into(),
            kind: StateKind::Array { size },
            init: 0,
        }
    }

    /// `pkt.idx = pkt.sport % 8; a[pkt.idx] read+write` — partitionable.
    fn keyed_stmts() -> Vec<TacStmt> {
        vec![
            TacStmt::Assign {
                dst: "idx".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Mod,
                    Operand::Field("sport".into()),
                    Operand::Const(8),
                ),
            },
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("old".into()),
            },
        ]
    }

    #[test]
    fn flow_key_extracts_single_index_field() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let part = layout.flow_key(&keyed_stmts()).unwrap();
        let Partitionability::Keyed(spec) = part else {
            panic!("expected Keyed, got {part:?}");
        };
        assert_eq!(spec.key_field(), "idx");
        assert_eq!(spec.modulus(), 8);
        assert_eq!(spec.roots(), ["sport".to_string()]);
        assert_eq!(spec.stmts().len(), 1); // just the idx assignment
                                           // Keys follow the program's own index arithmetic.
        let k = spec.key_of(&Packet::new().with("sport", 13));
        assert_eq!(k, 5);
        // Equal keys steer to equal shards; classes cover all shards' ids.
        assert_eq!(
            spec.shard_of(&Packet::new().with("sport", 13), 4),
            FlowKeySpec::shard_of_class(5, 4)
        );
        assert!(spec.to_string().contains("flow key = pkt.idx mod 8"));
    }

    #[test]
    fn flow_key_modulus_is_gcd_of_array_sizes() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8), arr_decl("b", 12)]);
        let mut stmts = keyed_stmts();
        stmts.push(TacStmt::WriteState {
            state: StateRef::Array {
                name: "b".into(),
                index: Operand::Field("idx".into()),
            },
            src: Operand::Const(1),
        });
        let Partitionability::Keyed(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Keyed");
        };
        assert_eq!(spec.modulus(), 4); // gcd(8, 12)
    }

    #[test]
    fn flow_key_rejects_scalars_with_two_tier_diagnostic() {
        let layout = StateLayout::from_decls(&[
            arr_decl("a", 8),
            StateVar {
                name: "s".into(),
                kind: StateKind::Scalar,
                init: 0,
            },
        ]);
        // Scalar access: a global register fails both tiers, and the
        // diagnostic names each tier's rejection.
        let err = layout
            .flow_key(&[TacStmt::WriteState {
                state: StateRef::Scalar("s".into()),
                src: Operand::Const(1),
            }])
            .unwrap_err();
        assert!(err.contains("not Exact-partitionable:"), "{err}");
        assert!(err.contains("not Replicable:"), "{err}");
        assert!(err.contains("scalar state `s`"), "{err}");
    }

    #[test]
    fn multi_field_indexing_demotes_to_replicable() {
        // Two arrays indexed by different fields: not exactly
        // partitionable (slot-collision coupling), but both updates
        // commute, so the program lands in the replica tier.
        let layout = StateLayout::from_decls(&[arr_decl("a", 8), arr_decl("b", 8)]);
        let mut stmts = keyed_stmts();
        stmts.push(TacStmt::WriteState {
            state: StateRef::Array {
                name: "b".into(),
                index: Operand::Field("other".into()),
            },
            src: Operand::Const(1),
        });
        let Partitionability::Replicable(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Replicable");
        };
        // `a` keeps its own read value (δ = 0); `b` stores a constant.
        assert_eq!(spec.array("a").unwrap().merge(), MergeOp::Sum);
        assert_eq!(spec.array("b").unwrap().merge(), MergeOp::Max);
        assert_eq!(spec.steer_roots(), ["other".to_string(), "sport".into()]);
        let rendered = spec.to_string();
        assert!(
            rendered.contains("full sketch replica per shard"),
            "{rendered}"
        );
    }

    #[test]
    fn constant_index_store_is_replicable_via_max_merge() {
        // Everyone writes 1 into slot 3: max-merge reproduces the serial
        // slot on any trace split, so this is Replicable, not a fallback.
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let part = layout
            .flow_key(&[TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Const(3),
                },
                src: Operand::Const(1),
            }])
            .unwrap();
        let Partitionability::Replicable(spec) = part else {
            panic!("expected Replicable, got {part:?}");
        };
        let arr = spec.array("a").unwrap();
        assert_eq!(arr.merge(), MergeOp::Max);
        assert!(spec.steer_roots().is_empty());
        assert_eq!(arr.slot_of(&Packet::new()), 3);
        assert_eq!(arr.update_of(&Packet::new()), 1);
        // No Sum rows → no (ε, δ) contract to state.
        assert_eq!(spec.epsilon(), None);
        assert_eq!(spec.delta(), None);
    }

    /// Count-min-style row: idx = sport % 8; row[idx] = row[idx] + 1.
    fn sketch_row(arr: &str, idx_field: &str, root: &str) -> Vec<TacStmt> {
        vec![
            TacStmt::Assign {
                dst: idx_field.into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Mod,
                    Operand::Field(root.into()),
                    Operand::Const(8),
                ),
            },
            TacStmt::ReadState {
                dst: format!("{arr}_old"),
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field(idx_field.into()),
                },
            },
            TacStmt::Assign {
                dst: format!("{arr}_new"),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Add,
                    Operand::Field(format!("{arr}_old")),
                    Operand::Const(1),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: arr.into(),
                    index: Operand::Field(idx_field.into()),
                },
                src: Operand::Field(format!("{arr}_new")),
            },
        ]
    }

    #[test]
    fn replica_spec_classifies_count_min_rows_as_sum() {
        let layout = StateLayout::from_decls(&[arr_decl("r1", 8), arr_decl("r2", 16)]);
        let mut stmts = sketch_row("r1", "i1", "sport");
        stmts.extend(sketch_row("r2", "i2", "dport"));
        let Partitionability::Replicable(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Replicable");
        };
        assert_eq!(spec.sum_rows(), 2);
        // ε from the narrowest Sum row, δ from the row count.
        assert!((spec.epsilon().unwrap() - std::f64::consts::E / 8.0).abs() < 1e-12);
        assert!((spec.delta().unwrap() - (-2.0f64).exp()).abs() < 1e-12);
        // slot_of follows the program's own index arithmetic (incl. the
        // store's rem_euclid wrap) and update_of yields the increment.
        let pkt = Packet::new().with("sport", 13).with("dport", -3);
        let r1 = spec.array("r1").unwrap();
        let r2 = spec.array("r2").unwrap();
        assert_eq!(r1.slot_of(&pkt), 5);
        assert_eq!(r2.slot_of(&pkt), (-3i64).rem_euclid(16) as usize);
        assert_eq!(r1.update_of(&pkt), 1);
        assert_eq!(spec.steer_roots(), ["dport".to_string(), "sport".into()]);
    }

    #[test]
    fn replica_merge_is_bit_identical_to_serial_state() {
        // Split a trace across 3 replicas; the sum/max folds must land
        // exactly on the serial state, including wrapping adds.
        let decls = [arr_decl("r1", 8), arr_decl("r2", 16), arr_decl("b", 8)];
        let layout = StateLayout::from_decls(&decls);
        let mut stmts = sketch_row("r1", "i1", "sport");
        stmts.extend(sketch_row("r2", "i2", "dport"));
        stmts.push(TacStmt::WriteState {
            state: StateRef::Array {
                name: "b".into(),
                index: Operand::Field("i1".into()),
            },
            src: Operand::Const(1),
        });
        let Partitionability::Replicable(spec) = layout.flow_key(&stmts).unwrap() else {
            panic!("expected Replicable");
        };

        let trace: Vec<Packet> = (0..50)
            .map(|i| Packet::new().with("sport", i * 7 + 3).with("dport", i * 11))
            .collect();
        let run = |pkts: &[&Packet]| -> StateStore {
            let mut st = StateStore::from_decls(&decls);
            for pkt in pkts {
                let mut p = (*pkt).clone();
                for s in &stmts {
                    crate::interp::exec_tac_stmt(s, &mut st, &mut p);
                }
            }
            st
        };
        let serial = run(&trace.iter().collect::<Vec<_>>());
        let snaps: Vec<StateStore> = (0..3)
            .map(|shard| {
                run(&trace
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == shard)
                    .map(|(_, p)| p)
                    .collect::<Vec<_>>())
            })
            .collect();
        assert_eq!(spec.merge_states(&snaps), serial);
        // Merging a single full-trace snapshot is the identity.
        assert_eq!(spec.merge_states(std::slice::from_ref(&serial)), serial);
    }

    #[test]
    fn replica_spec_accepts_guarded_increments() {
        // r[idx] = pkt.cond ? r[idx] + 2 : r[idx]  (and the mirrored arm
        // order) — a guarded increment still commutes. A second array on
        // a different field keeps the exact tier from claiming this.
        let layout = StateLayout::from_decls(&[arr_decl("r", 8), arr_decl("b", 8)]);
        let stmts = |negated: bool| {
            let (then_, else_) = if negated {
                (
                    Operand::Field("r_old".into()),
                    Operand::Field("r_new".into()),
                )
            } else {
                (
                    Operand::Field("r_new".into()),
                    Operand::Field("r_old".into()),
                )
            };
            vec![
                TacStmt::ReadState {
                    dst: "r_old".into(),
                    state: StateRef::Array {
                        name: "r".into(),
                        index: Operand::Field("sport".into()),
                    },
                },
                TacStmt::Assign {
                    dst: "r_new".into(),
                    rhs: TacRhs::Binary(
                        domino_ast::BinOp::Add,
                        Operand::Field("r_old".into()),
                        Operand::Const(2),
                    ),
                },
                TacStmt::Assign {
                    dst: "picked".into(),
                    rhs: TacRhs::Ternary(Operand::Field("cond".into()), then_, else_),
                },
                TacStmt::WriteState {
                    state: StateRef::Array {
                        name: "r".into(),
                        index: Operand::Field("sport".into()),
                    },
                    src: Operand::Field("picked".into()),
                },
                TacStmt::WriteState {
                    state: StateRef::Array {
                        name: "b".into(),
                        index: Operand::Field("dport".into()),
                    },
                    src: Operand::Const(1),
                },
            ]
        };
        for negated in [false, true] {
            let Partitionability::Replicable(spec) = layout.flow_key(&stmts(negated)).unwrap()
            else {
                panic!("expected Replicable (negated = {negated})");
            };
            let arr = spec.array("r").unwrap();
            assert_eq!(arr.merge(), MergeOp::Sum);
            // When the guard takes the increment arm δ = 2, else δ = 0 —
            // regardless of which ternary arm held the update.
            let hit = Packet::new()
                .with("sport", 1)
                .with("cond", if negated { 0 } else { 1 });
            let miss = Packet::new()
                .with("sport", 1)
                .with("cond", if negated { 1 } else { 0 });
            assert_eq!(arr.update_of(&hit), 2, "negated = {negated}");
            assert_eq!(arr.update_of(&miss), 0, "negated = {negated}");
        }
    }

    #[test]
    fn replica_spec_rejects_non_commutative_updates() {
        let layout = StateLayout::from_decls(&[arr_decl("r", 8), arr_decl("q", 8)]);
        // Cross-slot move: read at the input index, write at another.
        let cross = vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("src_idx".into()),
                },
            },
            TacStmt::Assign {
                dst: "bump".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Add,
                    Operand::Field("old".into()),
                    Operand::Const(1),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("dst_idx".into()),
                },
                src: Operand::Field("bump".into()),
            },
        ];
        let err = layout.flow_key(&cross).unwrap_err();
        assert!(err.contains("not Replicable:"), "{err}");
        assert!(err.contains("cross-slot moves do not commute"), "{err}");

        // Packet-dependent overwrite: last-writer-wins. (The `q` write on
        // a second field keeps the exact tier from claiming the program.)
        let overwrite = vec![
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "q".into(),
                    index: Operand::Field("j".into()),
                },
                src: Operand::Const(1),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("payload".into()),
            },
        ];
        let err = layout.flow_key(&overwrite).unwrap_err();
        assert!(err.contains("last-writer-wins"), "{err}");

        // Read-modify-write coupling across arrays: δ for `r` is read
        // from `q` at an unrelated index, so the sketches' evolutions
        // are entangled across any trace split.
        let coupled = vec![
            TacStmt::ReadState {
                dst: "qv".into(),
                state: StateRef::Array {
                    name: "q".into(),
                    index: Operand::Field("j".into()),
                },
            },
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::Assign {
                dst: "bump".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Add,
                    Operand::Field("old".into()),
                    Operand::Field("qv".into()),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "r".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("bump".into()),
            },
        ];
        let err = layout.flow_key(&coupled).unwrap_err();
        assert!(err.contains("depends on state `q`"), "{err}");

        // A constant store below the initializer: max-merge cannot
        // reproduce a downward write.
        let layout_hi = StateLayout::from_decls(&[StateVar {
            name: "r".into(),
            kind: StateKind::Array { size: 8 },
            init: 5,
        }]);
        let down = vec![TacStmt::WriteState {
            state: StateRef::Array {
                name: "r".into(),
                index: Operand::Const(0),
            },
            src: Operand::Const(1),
        }];
        let err = layout_hi.flow_key(&down).unwrap_err();
        assert!(err.contains("below its initializer"), "{err}");
    }

    #[test]
    fn flow_key_rejects_state_dependent_index() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let stmts = vec![
            TacStmt::ReadState {
                dst: "idx".into(),
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Const(1),
            },
        ];
        let err = layout.flow_key(&stmts).unwrap_err();
        assert!(err.contains("depends on state"), "{err}");
    }

    #[test]
    fn flow_key_rejects_state_access_before_key_definition() {
        // a[idx] is read while `idx` still holds its input value; the
        // assignment below would give the slice a different key.
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let stmts = vec![
            TacStmt::ReadState {
                dst: "old".into(),
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
            },
            TacStmt::Assign {
                dst: "idx".into(),
                rhs: TacRhs::Binary(
                    domino_ast::BinOp::Mod,
                    Operand::Field("sport".into()),
                    Operand::Const(8),
                ),
            },
            TacStmt::WriteState {
                state: StateRef::Array {
                    name: "a".into(),
                    index: Operand::Field("idx".into()),
                },
                src: Operand::Field("old".into()),
            },
        ];
        let err = layout.flow_key(&stmts).unwrap_err();
        assert!(err.contains("before that field is assigned"), "{err}");
    }

    #[test]
    fn flow_key_stateless_when_no_state_touched() {
        let layout = StateLayout::from_decls(&[arr_decl("a", 8)]);
        let part = layout
            .flow_key(&[TacStmt::Assign {
                dst: "x".into(),
                rhs: TacRhs::Copy(Operand::Const(1)),
            }])
            .unwrap();
        assert_eq!(part, Partitionability::Stateless);
    }

    #[test]
    fn mix64_spreads_consecutive_classes() {
        // Consecutive keys should not all collapse onto one shard.
        let shards: BTreeSet<usize> = (0..16u32)
            .map(|k| FlowKeySpec::shard_of_class(k, 4))
            .collect();
        assert!(shards.len() > 1, "{shards:?}");
    }

    #[test]
    fn flat_packet_equality_compares_layout_and_contents() {
        let table = table_abc();
        let p1 = FlatPacket::from_packet(&Packet::new().with("a", 1), &table);
        let p2 = FlatPacket::from_packet(&Packet::new().with("a", 1), &table);
        let p3 = FlatPacket::from_packet(&Packet::new().with("a", 2), &table);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        // Same content, different (but equal) table instances.
        let other = Arc::new((*table).clone());
        let p4 = FlatPacket::from_packet(&Packet::new().with("a", 1), &other);
        assert_eq!(p1, p4);
    }
}
