//! Programmable packet scheduling: PIFO (push-in-first-out) queues whose
//! ranks are computed by packet transactions.
//!
//! The paper's switch model stops at a drop-tail FIFO; the same authors'
//! *Programmable Packet Scheduling at Line Rate* shows that a single
//! primitive — a priority queue that admits packets at an arbitrary rank
//! and releases them in rank order — expresses WFQ, strict priority,
//! token-bucket shaping, and hierarchies thereof, with the rank itself
//! computed by an ordinary Domino program (STFQ's virtual start time,
//! CoDel's deadline). This module provides that primitive:
//!
//! * [`Scheduler`] — the queue discipline contract: push under a
//!   [`SchedKey`], pop whatever departs next,
//! * [`Pifo`] — the binary-heap PIFO block: pop in ascending
//!   [`SchedKey`] order with a **stable FIFO tie-break on arrival
//!   order**, bounded capacity. It is the switch's only queue: under a
//!   constant key it pops in arrival order (the drop-tail FIFO), and
//!   under a `(class, rank)` key it pops strict priority across classes
//!   over rank order within each — the order a PIFO tree (a root over
//!   classes, one rank-ordered leaf per class) would produce,
//! * [`SchedSpec`] — the switch-facing policy: which packet fields feed
//!   the key, whether pops wait for the rank's cycle (shaping), and which
//!   [`DropReason`](crate::switch::DropReason) a rejected packet counts
//!   under ([`DropReason::SchedFull`](crate::switch::DropReason) for every
//!   rank scheduler; the FIFO keeps its historical
//!   [`DropReason::QueueFull`](crate::switch::DropReason)).
//!
//! The contracts here are pinned by `tests/scheduling.rs` (golden
//! invariants: WFQ fairness, strict-priority exactness, shaping departure
//! times) and `tests/proptest_scheduling.rs` (pop order equals a
//! stable-sort oracle across random rank streams × capacities × tie
//! patterns).

use domino_ir::{FieldId, FieldTable, FlatPacket, Packet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The scheduling key of one packet: `(class, rank)`, compared
/// lexicographically — class is the outer (strict-priority) level, rank
/// the inner one. Flat policies leave `class` at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchedKey {
    /// Outer strict-priority level (lower departs first).
    pub class: i64,
    /// Inner rank (lower departs first within a class). Under a shaping
    /// policy this is an earliest-departure cycle rather than a priority.
    pub rank: i64,
}

impl SchedKey {
    /// A flat (class 0) key.
    pub fn rank(rank: i64) -> SchedKey {
        SchedKey { class: 0, rank }
    }
}

/// A queue discipline the switch can drive: push with a [`SchedKey`],
/// pop whatever the discipline says departs next.
///
/// Implementations are bounded: `push` hands the item back instead of
/// growing past [`Scheduler::capacity`], and the caller decides which
/// drop counter the rejection bumps.
pub trait Scheduler<T> {
    /// Admits an item under a key, or returns it if the queue is full.
    #[allow(clippy::result_large_err)] // Err is the caller's own item, returned by design.
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T>;

    /// Removes and returns the next item to depart, with its key.
    fn pop(&mut self) -> Option<(SchedKey, T)>;

    /// The key [`Scheduler::pop`] would return next, without removing it.
    fn peek_key(&self) -> Option<SchedKey>;

    /// Current occupancy.
    fn len(&self) -> usize;

    /// Maximum occupancy.
    fn capacity(&self) -> usize;

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One heap entry: the key plus a monotone arrival sequence number that
/// breaks rank ties FIFO — two packets with equal keys depart in arrival
/// order, which is what makes PIFO order a *stable* sort of the pushes.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: SchedKey,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Entry<T>) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Entry<T>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Entry<T>) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

/// A push-in-first-out queue: admits at any [`SchedKey`], pops in
/// ascending key order, ties broken by arrival order (stable).
///
/// ```
/// use banzai::pifo::{Pifo, SchedKey, Scheduler};
///
/// let mut q: Pifo<&str> = Pifo::bounded(8);
/// q.push(SchedKey::rank(30), "c").unwrap();
/// q.push(SchedKey::rank(10), "a").unwrap();
/// q.push(SchedKey::rank(10), "b").unwrap(); // same rank, arrives later
/// assert_eq!(q.pop().unwrap().1, "a"); // lowest rank first
/// assert_eq!(q.pop().unwrap().1, "b"); // FIFO within a rank
/// assert_eq!(q.pop().unwrap().1, "c");
/// ```
#[derive(Debug, Clone)]
pub struct Pifo<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    capacity: usize,
    next_seq: u64,
}

impl<T> Pifo<T> {
    /// An empty PIFO bounded at `capacity` items.
    pub fn bounded(capacity: usize) -> Pifo<T> {
        Pifo {
            heap: BinaryHeap::new(),
            capacity,
            next_seq: 0,
        }
    }

    /// An empty PIFO with no occupancy bound (`usize::MAX`).
    pub fn unbounded() -> Pifo<T> {
        Pifo::bounded(usize::MAX)
    }
}

impl<T> Scheduler<T> for Pifo<T> {
    fn push(&mut self, key: SchedKey, item: T) -> Result<(), T> {
        if self.heap.len() >= self.capacity {
            return Err(item);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, seq, item }));
        Ok(())
    }

    fn pop(&mut self) -> Option<(SchedKey, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.item))
    }

    fn peek_key(&self) -> Option<SchedKey> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The scheduling policy a switch runs: which packet fields — written by
/// the ingress pipeline, i.e. by the rank *program* — feed the
/// [`SchedKey`] of the switch's one [`Pifo`]. The fields are read after
/// ingress, so STFQ's `start`, CoDel's deadline, or a shaper's send time
/// program the scheduler end-to-end.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedSpec {
    /// Drop-tail FIFO (the historical switch): every packet gets the same
    /// key, so the PIFO's arrival-order tie-break is the whole order.
    #[default]
    Fifo,
    /// PIFO ranked by the named field — WFQ when the field is an STFQ
    /// virtual start time.
    Pifo {
        /// Packet field supplying the rank.
        rank: String,
    },
    /// PIFO ranked by the named field, with pops **gated**: a packet
    /// does not depart before the cycle its rank names (rank =
    /// earliest-departure cycle). Token-bucket / pacing shapers.
    Shaping {
        /// Packet field supplying the earliest-departure cycle.
        rank: String,
    },
    /// Strict priority by the class field, rank order (per the rank
    /// field) within each class: a PIFO keyed on `(class, rank)`.
    Priority {
        /// Packet field supplying the strict-priority class.
        class: String,
        /// Packet field supplying the within-class rank.
        rank: String,
    },
}

impl SchedSpec {
    /// Reads this policy's [`SchedKey`] off an (ingress-processed) packet.
    /// Missing fields read as 0, matching the engines' semantics.
    pub fn key_of(&self, pkt: &Packet) -> SchedKey {
        match self {
            SchedSpec::Fifo => SchedKey::rank(0),
            SchedSpec::Pifo { rank } | SchedSpec::Shaping { rank } => {
                SchedKey::rank(pkt.get_or_zero(rank) as i64)
            }
            SchedSpec::Priority { class, rank } => SchedKey {
                class: pkt.get_or_zero(class) as i64,
                rank: pkt.get_or_zero(rank) as i64,
            },
        }
    }

    /// The drop reason a packet rejected by a full queue counts under:
    /// the FIFO keeps its historical
    /// [`DropReason::QueueFull`](crate::switch::DropReason); every rank
    /// scheduler drops under
    /// [`DropReason::SchedFull`](crate::switch::DropReason), so congestion
    /// on a programmed scheduler is distinguishable in the counters.
    pub fn full_drop_reason(&self) -> crate::switch::DropReason {
        match self {
            SchedSpec::Fifo => crate::switch::DropReason::QueueFull,
            _ => crate::switch::DropReason::SchedFull,
        }
    }

    /// Whether pops are gated on the rank as an earliest-departure cycle.
    pub fn is_shaping(&self) -> bool {
        matches!(self, SchedSpec::Shaping { .. })
    }

    /// The packet fields the key reads.
    pub(crate) fn fields(&self) -> Vec<&str> {
        match self {
            SchedSpec::Fifo => Vec::new(),
            SchedSpec::Pifo { rank } | SchedSpec::Shaping { rank } => vec![rank],
            SchedSpec::Priority { class, rank } => vec![class, rank],
        }
    }

    /// Resolves the key's fields to their slots in `table`, which interns
    /// every one of [`SchedSpec::fields`] (a switch's table does).
    pub(crate) fn resolve(&self, table: &FieldTable) -> KeySlots {
        let slot = |f: &str| {
            table
                .lookup(f)
                .expect("a switch's table interns its scheduler's key fields")
        };
        match self {
            SchedSpec::Fifo => KeySlots::Fifo,
            SchedSpec::Pifo { rank } | SchedSpec::Shaping { rank } => KeySlots::Rank(slot(rank)),
            SchedSpec::Priority { class, rank } => KeySlots::ClassRank {
                class: slot(class),
                rank: slot(rank),
            },
        }
    }
}

/// A [`SchedSpec`]'s key fields resolved to slots of a switch's field
/// table, so the per-packet key read is two slot loads at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeySlots {
    /// The FIFO's constant key.
    Fifo,
    /// A rank field.
    Rank(FieldId),
    /// A class field and a rank field.
    ClassRank { class: FieldId, rank: FieldId },
}

impl KeySlots {
    /// The key of an (ingress-processed) flat packet; absent slots read 0,
    /// like [`SchedSpec::key_of`]'s missing fields.
    #[inline]
    pub(crate) fn key_of(self, flat: &FlatPacket) -> SchedKey {
        match self {
            KeySlots::Fifo => SchedKey::rank(0),
            KeySlots::Rank(rank) => SchedKey::rank(flat.get_or_zero(rank) as i64),
            KeySlots::ClassRank { class, rank } => SchedKey {
                class: flat.get_or_zero(class) as i64,
                rank: flat.get_or_zero(rank) as i64,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything, asserting `peek_key` agrees with each pop.
    fn drain<T, S: Scheduler<T>>(q: &mut S) -> Vec<(SchedKey, T)> {
        let mut out = Vec::new();
        while let Some(peeked) = q.peek_key() {
            let (key, item) = q.pop().expect("peek said non-empty");
            assert_eq!(key, peeked);
            out.push((key, item));
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn pifo_pops_in_rank_order_with_stable_ties() {
        let mut q: Pifo<usize> = Pifo::bounded(64);
        let ranks = [5i64, 3, 5, 1, 3, 3, 9, 1];
        for (i, r) in ranks.iter().enumerate() {
            q.push(SchedKey::rank(*r), i).unwrap();
        }
        // Oracle: stable sort of (rank, arrival).
        let mut expect: Vec<(i64, usize)> = ranks.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(r, i)| (r, i));
        let got: Vec<(i64, usize)> = drain(&mut q)
            .into_iter()
            .map(|(k, v)| (k.rank, v))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pifo_rejects_when_full_without_displacing() {
        let mut q: Pifo<&str> = Pifo::bounded(2);
        q.push(SchedKey::rank(10), "a").unwrap();
        q.push(SchedKey::rank(20), "b").unwrap();
        // Even a better-ranked packet is rejected: drop-tail admission,
        // like the hardware PIFO block's bounded SRAM.
        assert_eq!(q.push(SchedKey::rank(1), "urgent"), Err("urgent"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn hierarchy_interleaved_push_pop_still_pops_global_min() {
        // Strict priority is a class-keyed PIFO: class is the outer key.
        let mut q: Pifo<&str> = Pifo::bounded(16);
        q.push(SchedKey { class: 1, rank: 0 }, "low-a").unwrap();
        q.push(SchedKey { class: 0, rank: 5 }, "hi-a").unwrap();
        assert_eq!(q.pop().unwrap().1, "hi-a");
        // A high-class packet arriving *after* pops began still preempts.
        q.push(SchedKey { class: 0, rank: 9 }, "hi-b").unwrap();
        assert_eq!(q.pop().unwrap().1, "hi-b");
        assert_eq!(q.pop().unwrap().1, "low-a");
        assert!(q.pop().is_none());
    }

    #[test]
    fn hierarchy_capacity_is_total_across_leaves() {
        let mut q: Pifo<u32> = Pifo::bounded(2);
        q.push(SchedKey { class: 0, rank: 0 }, 0).unwrap();
        q.push(SchedKey { class: 5, rank: 0 }, 1).unwrap();
        assert_eq!(q.push(SchedKey { class: 9, rank: 0 }, 2), Err(2));
    }

    #[test]
    fn spec_reads_keys_and_picks_drop_reason() {
        use crate::switch::DropReason;

        let pkt = Packet::new().with("start", 42).with("class", 3);
        assert_eq!(SchedSpec::Fifo.key_of(&pkt), SchedKey::rank(0));
        let wfq = SchedSpec::Pifo {
            rank: "start".into(),
        };
        assert_eq!(wfq.key_of(&pkt), SchedKey::rank(42));
        assert_eq!(wfq.full_drop_reason(), DropReason::SchedFull);
        let prio = SchedSpec::Priority {
            class: "class".into(),
            rank: "start".into(),
        };
        assert_eq!(prio.key_of(&pkt), SchedKey { class: 3, rank: 42 });
        let missing = SchedSpec::Pifo {
            rank: "absent".into(),
        };
        assert_eq!(missing.key_of(&pkt), SchedKey::rank(0));
        assert_eq!(SchedSpec::Fifo.full_drop_reason(), DropReason::QueueFull);
        assert!(SchedSpec::Shaping { rank: "dl".into() }.is_shaping());
    }
}
