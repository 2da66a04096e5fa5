//! Golden pinning of the state-partitioning tier decision for every
//! Table 4 algorithm (plus the `codel_lut` X1 variant).
//!
//! The tier (`Exact` / `Replicable` / `Fallback`) and the diagnostic
//! text are exported surface: `ShardedSwitch` plans shard counts from
//! them, `domc --emit flow-key` prints them, and the E10 baseline gate
//! trips when a workload regresses to a coarser tier. Like
//! `tests/drop_reasons.rs`, this table is **append-only**: new
//! algorithms append rows; an edit to the layout analysis that moves an
//! existing algorithm across tiers or rewrites its diagnostic must
//! update the golden row *deliberately* — a failure here is the
//! tripwire, with the exact delta in the message.

use proptest::prelude::*;

/// Which tier the analysis resolved, by diagnostic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Keyed flow steering (`flow key = …`).
    Exact,
    /// Full sketch replica per shard (`replicable: …`).
    Replicable,
    /// Neither tier accepts; single-shard fallback with the two-tier
    /// diagnostic.
    Fallback,
}

/// The pinned decision: (algorithm, tier, substrings the diagnostic
/// must contain, in order of appearance). Paper order (Table 4), then
/// the X1 LUT variant. Append-only.
const GOLDEN: [(&str, Tier, &[&str]); 12] = [
    (
        "bloom_filter",
        Tier::Replicable,
        &[
            "replicable: full sketch replica per shard, elementwise merge",
            "steer roots: dport, sport",
            "filter1[1024] init 0: merge max, update 1",
            "filter2[1024] init 0: merge max, update 1",
            "filter3[1024] init 0: merge max, update 1",
        ],
    ),
    (
        "heavy_hitters",
        Tier::Replicable,
        &[
            "replicable: full sketch replica per shard, elementwise merge",
            "steer roots: dport, sport",
            "cms1[4096] init 0: merge sum, update 1",
            "cms2[4096] init 0: merge sum, update 1",
            "cms3[4096] init 0: merge sum, update 1",
            "(ε, δ) bound: ε = 6.636e-4 (3 sum rows), δ = 4.979e-2",
        ],
    ),
    (
        "flowlet",
        Tier::Exact,
        &[
            "flow key = pkt.id0 mod 8000",
            "roots: dport, sport",
            "pkt.id0 = hash2(pkt.sport, pkt.dport) % 8000;",
        ],
    ),
    (
        "rcp",
        Tier::Fallback,
        &[
            "not Exact-partitionable: scalar state `input_traffic_bytes` is a \
             global register (every packet read-modify-writes it); no flow \
             steering preserves serial semantics",
            "not Replicable: scalar state `input_traffic_bytes` is a global \
             register; per-shard replicas of it diverge and no elementwise \
             merge recovers the serial value",
        ],
    ),
    (
        "sampled_netflow",
        Tier::Exact,
        &[
            "flow key = pkt.bucket0 mod 4096",
            "roots: dport, sport",
            "pkt.bucket0 = hash2(pkt.sport, pkt.dport) % 4096;",
        ],
    ),
    (
        "hull",
        Tier::Fallback,
        &[
            "not Exact-partitionable: scalar state `last_update`",
            "not Replicable: scalar state `last_update`",
        ],
    ),
    (
        "avq",
        Tier::Fallback,
        &[
            "not Exact-partitionable: scalar state `last_update`",
            "not Replicable: scalar state `last_update`",
        ],
    ),
    (
        "stfq",
        Tier::Exact,
        &[
            "flow key = pkt.idx0 mod 2048",
            "roots: flow",
            "pkt.idx0 = pkt.flow & 2047;",
        ],
    ),
    (
        "dns_ttl_change",
        Tier::Exact,
        &[
            "flow key = pkt.d0 mod 4096",
            "roots: domain",
            "pkt.d0 = hash2(pkt.domain, 12289) % 4096;",
        ],
    ),
    (
        "conga",
        Tier::Exact,
        &[
            "flow key = pkt.s0 mod 256",
            "roots: src",
            "pkt.s0 = pkt.src & 255;",
        ],
    ),
    (
        "codel",
        Tier::Fallback,
        &[
            "not Exact-partitionable: scalar state `first_above_time`",
            "not Replicable: scalar state `first_above_time`",
        ],
    ),
    (
        "codel_lut",
        Tier::Fallback,
        &[
            "not Exact-partitionable: scalar state `first_above_time`",
            "not Replicable: scalar state `first_above_time`",
        ],
    ),
];

/// Classifies one algorithm the way `domc --emit flow-key` does:
/// normalize, then run the layout analysis (no lowering — even `codel`,
/// which maps to no standard target, still gets a tier).
fn classify(name: &str) -> (Tier, String) {
    let a = algorithms::by_name(name).unwrap_or_else(|| panic!("unknown algorithm `{name}`"));
    let c = domino_compiler::normalize(a.source).unwrap();
    match domino_compiler::flow_key(&c) {
        Ok(p) => {
            let text = p.to_string();
            let tier = if text.starts_with("replicable") {
                Tier::Replicable
            } else {
                Tier::Exact
            };
            (tier, text)
        }
        Err(why) => (Tier::Fallback, why),
    }
}

#[test]
fn tier_decisions_are_pinned_for_all_table4_algorithms() {
    // The golden table covers exactly Table 4 + the LUT variant; an
    // algorithm added to the registry must be appended here too.
    let mut expected: Vec<&str> = algorithms::TABLE4.iter().map(|a| a.name).collect();
    expected.push("codel_lut");
    let golden_names: Vec<&str> = GOLDEN.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(
        golden_names, expected,
        "golden table out of sync with the algorithm registry (append-only)"
    );

    for (name, tier, pins) in GOLDEN {
        let (got_tier, text) = classify(name);
        assert_eq!(
            got_tier, tier,
            "{name}: tier moved (diagnostic now: {text})"
        );
        let mut cursor = 0usize;
        for pin in pins {
            match text[cursor..].find(pin) {
                Some(at) => cursor += at + pin.len(),
                None => panic!(
                    "{name}: diagnostic no longer contains `{pin}` (after \
                     byte {cursor}); full text:\n{text}"
                ),
            }
        }
    }
}

/// The tier split is exhaustive and matches the paper's locality
/// argument: 5 keyed, 2 replicable sketches, 5 global-register
/// fallbacks (codel twice, with and without the LUT).
#[test]
fn tier_census_is_pinned() {
    let mut exact = 0;
    let mut replicable = 0;
    let mut fallback = 0;
    for (name, _, _) in GOLDEN {
        match classify(name).0 {
            Tier::Exact => exact += 1,
            Tier::Replicable => replicable += 1,
            Tier::Fallback => fallback += 1,
        }
    }
    assert_eq!(
        (exact, replicable, fallback),
        (5, 2, 5),
        "tier census changed — update the golden table deliberately"
    );
}

/// The five Exact-tier flow keys, as the sharded switch plans them.
fn exact_keys() -> Vec<(&'static str, domino_ir::FlowKeySpec)> {
    let mut keys = Vec::new();
    for (name, _, _) in GOLDEN {
        let a = algorithms::by_name(name).unwrap();
        let c = domino_compiler::normalize(a.source).unwrap();
        if let Ok(domino_ir::Partitionability::Keyed(spec)) = domino_compiler::flow_key(&c) {
            keys.push((name, spec));
        }
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Steering evaluates each Exact-tier key slice lowered onto slots;
    /// it must agree with the reference evaluator on any input packet:
    /// roots with arbitrary values (wrapping hashes and masks, negative
    /// values for the modulus), roots missing (read as 0), and fields
    /// the slice never reads.
    #[test]
    fn slot_flow_key_equals_the_reference_key(
        rows in proptest::collection::vec(
            (proptest::collection::vec(proptest::option::of(any::<i32>()), 4), any::<i32>()),
            1..32,
        ),
    ) {
        let keys = exact_keys();
        prop_assert_eq!(keys.len(), 5);
        for (name, spec) in &keys {
            let slots = banzai::SlotFlowKey::lower(spec).unwrap();
            for (roots, noise) in &rows {
                let mut pkt = domino_ir::Packet::new().with("noise", *noise);
                for (root, value) in spec.roots().iter().zip(roots) {
                    if let Some(v) = value {
                        pkt.set(root, *v);
                    }
                }
                prop_assert_eq!(slots.key_of(&pkt), spec.key_of(&pkt), "{} on {}", name, pkt);
            }
        }
    }
}
