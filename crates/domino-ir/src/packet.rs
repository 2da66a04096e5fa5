//! Packets as seen by the data plane: a bag of named 32-bit fields.
//!
//! Banzai does not model parsing (§2.2) — packets arrive already parsed, so
//! a packet here is simply a map from field name to value. Fields cover
//! both real headers (`sport`, `dport`) and per-packet metadata/temporaries
//! introduced by the programmer (`id`) or by the compiler (SSA temps).
//!
//! A `Packet` is the API-edge form of a packet: what a caller builds and
//! what a switch hands back. Inside a switch a packet travels as a
//! [`FlatPacket`](crate::layout::FlatPacket) over the switch's
//! [`FieldTable`](crate::layout::FieldTable), and a `Packet` is built from
//! it once, at the sink. Field names are shared `Arc<str>`s, so building
//! a packet from a table's interned names bumps reference counts instead
//! of allocating one string per field.

use std::fmt;
use std::sync::Arc;

/// A parsed packet: named 32-bit fields.
///
/// Fields are kept sorted by name, which keeps iteration deterministic
/// (reproducible simulation output and golden tests) and lets a flat
/// packet be merged back into a `Packet` in one sorted pass.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Packet {
    /// `(name, value)`, strictly ascending by name.
    fields: Vec<(Arc<str>, i32)>,
}

impl Packet {
    /// An empty packet.
    pub fn new() -> Self {
        Packet::default()
    }

    /// Builds a packet from `(name, value)` pairs already strictly
    /// ascending by name (the sorted merges of `layout` produce them).
    pub(crate) fn from_sorted(fields: Vec<(Arc<str>, i32)>) -> Packet {
        debug_assert!(fields.windows(2).all(|w| w[0].0 < w[1].0));
        Packet { fields }
    }

    /// Takes the fields out, strictly ascending by name.
    pub(crate) fn into_sorted_fields(self) -> Vec<(Arc<str>, i32)> {
        self.fields
    }

    fn find(&self, field: &str) -> Result<usize, usize> {
        self.fields.binary_search_by(|(k, _)| (**k).cmp(field))
    }

    /// Builder-style field setter.
    ///
    /// ```
    /// use domino_ir::Packet;
    /// let p = Packet::new().with("sport", 80).with("dport", 443);
    /// assert_eq!(p.get("sport"), Some(80));
    /// ```
    pub fn with(mut self, field: &str, value: i32) -> Self {
        self.set(field, value);
        self
    }

    /// Sets a field (creating it if absent).
    pub fn set(&mut self, field: &str, value: i32) {
        // Overwrites are the common case in the execution hot path; they
        // allocate nothing.
        match self.find(field) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (Arc::from(field), value)),
        }
    }

    /// Sets a field under a shared name (creating it if absent): a new
    /// field takes a reference to `field` instead of a fresh copy of the
    /// name — how interned names (a field table's, a parser's) reach a
    /// packet without one allocation per field.
    pub fn set_shared(&mut self, field: &Arc<str>, value: i32) {
        match self.find(field) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (Arc::clone(field), value)),
        }
    }

    /// Reads a field, `None` if the packet does not carry it.
    pub fn get(&self, field: &str) -> Option<i32> {
        self.find(field).ok().map(|i| self.fields[i].1)
    }

    /// Reads a field that the execution model guarantees to exist.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the field is missing — this
    /// always indicates a compiler bug (a stage consuming a field no earlier
    /// stage produced), never a user error, so failing loudly is correct.
    pub fn expect(&self, field: &str) -> i32 {
        match self.get(field) {
            Some(v) => v,
            None => panic!(
                "internal error: packet field `{field}` read before any write; \
                 fields present: [{}]",
                self.field_names().collect::<Vec<_>>().join(", ")
            ),
        }
    }

    /// Reads a field, defaulting to 0 (uninitialized packet metadata reads
    /// as zero, like uninitialized PHV containers in real switch pipelines).
    pub fn get_or_zero(&self, field: &str) -> i32 {
        self.get(field).unwrap_or(0)
    }

    /// True if the packet carries `field`.
    pub fn has(&self, field: &str) -> bool {
        self.find(field).is_ok()
    }

    /// Iterates field names in deterministic (sorted) order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| &**k)
    }

    /// Iterates `(name, value)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i32)> {
        self.fields.iter().map(|(k, v)| (&**k, *v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the packet has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Restricts the packet to the given fields (missing ones read as 0).
    ///
    /// Used when comparing pipeline output against the reference
    /// interpreter: compiler-introduced temporaries (SSA renames, flank
    /// reads) are not part of the observable result.
    pub fn project(&self, fields: &[String]) -> Packet {
        let mut out = Packet::new();
        for f in fields {
            out.set(f, self.get_or_zero(f));
        }
        out
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Packet {
    /// The shape a derived `Debug` over a name → value map prints:
    /// `Packet { fields: {"a": 1, "z": 3} }`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Fields<'a>(&'a [(Arc<str>, i32)]);
        impl fmt::Debug for Fields<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(k, v)| (k, v)))
                    .finish()
            }
        }
        f.debug_struct("Packet")
            .field("fields", &Fields(&self.fields))
            .finish()
    }
}

impl FromIterator<(String, i32)> for Packet {
    /// Collects pairs into a packet; a name given twice keeps its last
    /// value.
    fn from_iter<T: IntoIterator<Item = (String, i32)>>(iter: T) -> Self {
        iter.into_iter().map(|(k, v)| (Arc::from(k), v)).collect()
    }
}

impl FromIterator<(Arc<str>, i32)> for Packet {
    /// Collects pairs under shared names into a packet (no name is
    /// copied); a name given twice keeps its last value.
    fn from_iter<T: IntoIterator<Item = (Arc<str>, i32)>>(iter: T) -> Self {
        let mut fields: Vec<(Arc<str>, i32)> = iter.into_iter().collect();
        // A stable sort keeps equal names in the order given, so the
        // value kept is the last one's.
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Packet { fields }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut p = Packet::new();
        p.set("a", 5);
        assert_eq!(p.get("a"), Some(5));
        assert_eq!(p.get("b"), None);
        assert_eq!(p.get_or_zero("b"), 0);
    }

    #[test]
    fn builder_chains() {
        let p = Packet::new().with("x", 1).with("y", -2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("y"), Some(-2));
    }

    #[test]
    #[should_panic(expected = "read before any write")]
    fn expect_panics_on_missing_field() {
        Packet::new().expect("ghost");
    }

    #[test]
    fn project_restricts_and_zero_fills() {
        let p = Packet::new().with("a", 1).with("b", 2);
        let q = p.project(&["a".into(), "c".into()]);
        assert_eq!(q.get("a"), Some(1));
        assert_eq!(q.get("c"), Some(0));
        assert!(!q.has("b"));
    }

    #[test]
    fn display_is_deterministic() {
        let p = Packet::new().with("z", 3).with("a", 1);
        assert_eq!(p.to_string(), "{a: 1, z: 3}");
    }

    // `Packet` crosses threads (shard rings, worker outputs), so shared
    // keys must keep it `Send + Sync`.
    const _: fn() = || {
        fn shareable<T: Send + Sync>() {}
        shareable::<Packet>();
    };

    #[test]
    fn display_and_debug_are_pinned() {
        let p = Packet::new()
            .with("sport", 80)
            .with("dport", -1)
            .with("a", 0);
        assert_eq!(p.to_string(), "{a: 0, dport: -1, sport: 80}");
        assert_eq!(
            format!("{p:?}"),
            r#"Packet { fields: {"a": 0, "dport": -1, "sport": 80} }"#
        );
        assert_eq!(format!("{:?}", Packet::new()), "Packet { fields: {} }");
    }

    #[test]
    fn from_iter_and_with_build_equal_packets() {
        let pairs = [("zeta", 3), ("alpha", 1), ("mid", 2), ("alpha", 9)];
        let collected: Packet = pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let built = pairs.iter().fold(Packet::new(), |p, &(k, v)| p.with(k, v));
        assert_eq!(collected, built);
        // A name given twice keeps its last value, in both.
        assert_eq!(collected.get("alpha"), Some(9));
        assert_eq!(collected.len(), 3);
        assert_eq!(
            collected.field_names().collect::<Vec<_>>(),
            ["alpha", "mid", "zeta"]
        );
    }

    #[test]
    fn switch_built_packet_equals_the_same_packet_built_with_with() {
        use crate::layout::{FieldTable, FlatPacket};

        // A switch builds its output packets by merging the input
        // packet's fields (here: one outside the table, one in it) with
        // the present slots of its flat carrier, keyed by the table's
        // shared names.
        let mut table = FieldTable::new();
        let ids: Vec<_> = ["now", "enq_ts", "b_hop", "sport", "unset"]
            .iter()
            .map(|n| table.intern(n))
            .collect();
        let table = Arc::new(table);
        let input = Packet::new().with("zz_extra", 5).with("sport", 80);
        let mut flat = FlatPacket::from_packet(&input, &table);
        for (id, v) in ids.iter().zip([30, 12, 7]) {
            flat.set(*id, v);
        }
        let built = flat.merged_with(input);
        let expected = Packet::new()
            .with("sport", 80)
            .with("zz_extra", 5)
            .with("now", 30)
            .with("enq_ts", 12)
            .with("b_hop", 7);
        assert_eq!(built, expected);
        assert_eq!(built.to_string(), expected.to_string());
        assert!(!built.has("unset"), "absent slots stay absent");
        // Its keys are the table's names, shared rather than copied.
        let now = built.fields.iter().find(|(k, _)| &**k == "now").unwrap();
        assert!(Arc::ptr_eq(&now.0, table.shared_name(ids[0])));
    }

    #[test]
    fn set_shared_reuses_the_name() {
        let name: Arc<str> = Arc::from("qdepth");
        let mut p = Packet::new().with("a", 1);
        p.set_shared(&name, 4);
        p.set_shared(&name, 5);
        assert_eq!(p, Packet::new().with("a", 1).with("qdepth", 5));
        assert!(Arc::ptr_eq(&p.fields[1].0, &name));
    }

    #[test]
    fn overwriting_a_field_keeps_latest() {
        let mut p = Packet::new();
        p.set("a", 1);
        p.set("a", 7);
        assert_eq!(p.get("a"), Some(7));
        assert_eq!(p.len(), 1);
    }
}
