//! Sharded-switch differential suite: flow-steered multi-core execution
//! must be observably equivalent to the serial switch for **every**
//! Table 4 algorithm, at every shard count — with the oracle chosen by
//! the plan's partitioning tier.
//!
//! The contract under test (see `banzai::shard`):
//!
//! * **Exact** tier (keyed steering): each shard's output stream equals
//!   the serial switch's outputs at exactly the positions steered to
//!   that shard — full packets, queue metadata included (per-flow order
//!   preservation follows);
//! * **Replicable** tier (full sketch replica per shard): per-packet
//!   in-stream estimates are shard-local by design, so positional
//!   bit-identity is not asserted; instead the sketch's own contract
//!   holds (`bench::sketch::verify_sketch` — spec replay, overestimate,
//!   mass conservation, the (ε, δ) bound) on both the serial and the
//!   merged state;
//! * in **both** tiers the merged exported state is bit-identical to
//!   the serial state (sum/max merges are exact on final state) and
//!   the threaded run reproduces the sequential merge bit-for-bit
//!   (scheduling cannot leak into outputs);
//! * algorithms whose state partitions under *neither* tier fall back
//!   to a single shard with a two-tier diagnostic — and still match
//!   serial exactly.

use banzai::{AtomPipeline, ShardConfig, ShardTier, ShardedSwitch, Switch, Target};
use domino_ir::Packet;

const TRACE_LEN: usize = 600;
const SEED: u64 = 0x000D_0771_2016;
const CAPACITY: usize = 512;

/// Compiles an algorithm on its least-expressive paper target.
fn compile_least(a: &algorithms::Algorithm) -> AtomPipeline {
    let kind = a.paper.least_atom.expect("algorithm must map");
    let target = if a.name == "codel_lut" {
        Target::banzai_with_lut(kind)
    } else {
        Target::banzai(kind)
    };
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{}: {e}", a.name))
}

/// Asserts a sharded ingress/egress pair is observably equivalent to the
/// serial switch at `shards` shards on `trace`, with the oracle routed
/// by the plan's tier: per-shard output subsequences for `Exact` and
/// `Fallback`, the sketch contract for `Replicable`; merged state and
/// counters in every tier.
fn sharded_pair_differential(
    label: &str,
    ingress: &AtomPipeline,
    egress: &AtomPipeline,
    trace: &[Packet],
    shards: usize,
) {
    let mut serial = Switch::new_slot(ingress, egress, CAPACITY).unwrap();
    let serial_out = serial
        .run(trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    let mut sharded = ShardedSwitch::new_slot(ingress, egress, ShardConfig::new(shards)).unwrap();
    let parts = sharded.run(trace).partitioned().unwrap();

    let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| sharded.plan().steer(i, p))
        .collect();
    match sharded.plan().tier() {
        ShardTier::Exact | ShardTier::Fallback => {
            for (s, part) in parts.iter().enumerate() {
                let expected: Vec<&Packet> = assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &shard)| shard == s)
                    .map(|(i, _)| &serial_out[i])
                    .collect();
                let got: Vec<&Packet> = part.iter().collect();
                assert_eq!(
                    got, expected,
                    "{label} @ {shards} shards: shard {s} diverged from serial"
                );
            }
        }
        ShardTier::Replicable => {
            // Replica shards see only their slice of the trace, so
            // in-stream sketch reads differ positionally; packet
            // conservation per shard plus the statistical contract on
            // the merged state are the oracle.
            for (s, part) in parts.iter().enumerate() {
                let offered = assignment.iter().filter(|&&shard| shard == s).count();
                assert_eq!(
                    part.len(),
                    offered,
                    "{label} @ {shards} shards: shard {s} lost packets"
                );
            }
            let spec = sharded
                .plan()
                .ingress_replica()
                .expect("replicable tier carries an ingress replica spec")
                .clone();
            bench::sketch::verify_sketch(
                &spec,
                trace,
                &serial.export_ingress_state(),
                &format!("{label} serial"),
            );
            bench::sketch::verify_sketch(
                &spec,
                trace,
                &sharded.export_merged_ingress_state().unwrap(),
                &format!("{label} @ {shards} merged"),
            );
        }
    }
    assert_eq!(
        sharded.export_merged_ingress_state().unwrap(),
        serial.export_ingress_state(),
        "{label} @ {shards} shards: merged ingress state diverged"
    );
    assert_eq!(
        sharded.export_merged_egress_state().unwrap(),
        serial.export_egress_state(),
        "{label} @ {shards} shards: merged egress state diverged"
    );
    assert_eq!(sharded.transmitted(), serial.transmitted(), "{label}");
    assert_eq!(sharded.drops(), serial.drops(), "{label}");
}

/// Every mapping Table 4 algorithm, at 1/2/4/8 shards: partitionable
/// algorithms fan out, the rest exercise the single-shard fallback — the
/// serial equivalence must hold either way.
#[test]
fn all_table4_algorithms_shard_safely() {
    for a in algorithms::TABLE4
        .iter()
        .filter(|a| a.paper.least_atom.is_some())
    {
        let ingress = compile_least(a);
        let egress = AtomPipeline::passthrough("egress");
        let trace = a.trace(TRACE_LEN, SEED);
        for shards in [1, 2, 4, 8] {
            sharded_pair_differential(a.name, &ingress, &egress, &trace, shards);
        }
    }
}

/// The partitionability split is exactly the paper's locality argument,
/// now three-tiered: per-flow keyed state shards exactly; multi-hash
/// sketches with commutative updates shard by replication; global
/// scalar registers do not shard at all.
#[test]
fn partitionability_matches_state_indexing_structure() {
    let keyed = [
        "flowlet",
        "conga",
        "dns_ttl_change",
        "sampled_netflow",
        "stfq",
    ];
    let replicable = ["bloom_filter", "heavy_hitters"];
    let fallback = ["rcp", "hull", "avq", "codel_lut"];
    for name in keyed {
        let a = algorithms::by_name(name).unwrap();
        let sw = ShardedSwitch::new_slot(
            &compile_least(&a),
            &AtomPipeline::passthrough("egress"),
            ShardConfig::new(4),
        )
        .unwrap();
        assert_eq!(sw.plan().effective(), 4, "{name} should shard");
        assert_eq!(sw.plan().tier(), ShardTier::Exact, "{name}");
        assert!(
            sw.plan().fallback().is_none(),
            "{name} should not fall back"
        );
        assert!(sw.plan().flow_key().is_some(), "{name} should be keyed");
    }
    for name in replicable {
        let a = algorithms::by_name(name).unwrap();
        let sw = ShardedSwitch::new_slot(
            &compile_least(&a),
            &AtomPipeline::passthrough("egress"),
            ShardConfig::new(4),
        )
        .unwrap();
        assert_eq!(sw.plan().effective(), 4, "{name} should replicate");
        assert_eq!(sw.plan().tier(), ShardTier::Replicable, "{name}");
        assert!(
            sw.plan().fallback().is_none(),
            "{name} should not fall back"
        );
        assert!(
            sw.plan().ingress_replica().is_some(),
            "{name} should carry a replica spec"
        );
    }
    for name in fallback {
        let a = algorithms::by_name(name).unwrap();
        let sw = ShardedSwitch::new_slot(
            &compile_least(&a),
            &AtomPipeline::passthrough("egress"),
            ShardConfig::new(4),
        )
        .unwrap();
        assert_eq!(sw.plan().effective(), 1, "{name} should fall back");
        assert_eq!(sw.plan().tier(), ShardTier::Fallback, "{name}");
        let why = sw
            .plan()
            .fallback()
            .unwrap_or_else(|| panic!("{name}: no diagnostic"));
        // The diagnostic records the full tier decision: why the exact
        // tier said no AND why the replica tier said no.
        assert!(why.contains("not Exact-partitionable"), "{name}: `{why}`");
        assert!(why.contains("not Replicable"), "{name}: `{why}`");
        assert!(
            why.contains("scalar state") || why.contains("distinct fields"),
            "{name}: unexpected diagnostic `{why}`"
        );
    }
}

/// rcp's diagnostic names the offending global register — the message a
/// user sees when asking for shards they cannot have.
#[test]
fn rcp_fallback_diagnostic_names_the_global_register() {
    let a = algorithms::by_name("rcp").unwrap();
    let sw = ShardedSwitch::new_slot(
        &compile_least(&a),
        &AtomPipeline::passthrough("egress"),
        ShardConfig::new(8),
    )
    .unwrap();
    let why = sw.plan().fallback().unwrap();
    assert!(why.contains("`input_traffic_bytes`"), "{why}");
    assert_eq!(sw.plan().requested(), 8);
    assert_eq!(sw.shard_count(), 1);
}

/// Flowlet at ingress *and* egress: the two pipelines extract the same
/// flow key, so the pair shards (the ingress/egress compatibility rule).
#[test]
fn flowlet_both_sides_shares_one_flow_key() {
    let a = algorithms::by_name("flowlet").unwrap();
    let pipeline = compile_least(&a);
    let trace = a.trace(TRACE_LEN, SEED);

    let sharded = ShardedSwitch::new_slot(&pipeline, &pipeline, ShardConfig::new(4)).unwrap();
    assert_eq!(sharded.plan().effective(), 4, "{}", sharded.plan());
    sharded_pair_differential("flowlet/flowlet", &pipeline, &pipeline, &trace, 4);
}

/// Thread scheduling cannot leak into outputs: the threaded run equals
/// the sequential merge bit-for-bit, across repeated runs and batch
/// sizes.
#[test]
fn threaded_run_is_deterministic_for_flowlet() {
    let a = algorithms::by_name("flowlet").unwrap();
    let ingress = compile_least(&a);
    let egress = AtomPipeline::passthrough("egress");
    let trace = a.trace(2_000, SEED);

    let mut reference: Option<Vec<Packet>> = None;
    for batch in [7, 64, 1024] {
        let cfg = ShardConfig::new(4).with_batch(batch);
        let mut threaded = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        let got = threaded.run(&trace).collect().unwrap();
        let mut sequential = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let run = sequential.run(&trace).instrumented().unwrap();
        assert_eq!(got, run.merged, "batch {batch}: threaded vs sequential");
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "batch {batch}: batch size leaked into output"),
        }
    }
}

/// The merge seed permutes only the cross-flow interleave: per-shard
/// subsequences (hence per-flow sequences) are seed-independent.
#[test]
fn merge_seed_only_permutes_across_flows() {
    let a = algorithms::by_name("flowlet").unwrap();
    let ingress = compile_least(&a);
    let egress = AtomPipeline::passthrough("egress");
    let trace = a.trace(1_000, SEED);

    let mut outs = Vec::new();
    for seed in [1u64, 0xDEAD_BEEF] {
        let cfg = ShardConfig::new(4).with_seed(seed);
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let merged = sw.run(&trace).collect().unwrap();
        // Reconstruct per-shard subsequences from the merged stream by
        // steering each *output* packet (flowlet passes its key roots
        // through untouched).
        let mut per_shard: Vec<Vec<Packet>> = vec![Vec::new(); 4];
        for p in &merged {
            // Keyed steering is content-pure: the trace index argument
            // is ignored, so re-steering an *output* packet is sound.
            per_shard[sw.plan().steer(0, p)].push(p.clone());
        }
        outs.push(per_shard);
    }
    assert_eq!(
        outs[0], outs[1],
        "per-shard streams must be seed-independent"
    );
}

/// The facade helper wires the whole stack together.
#[test]
fn facade_sharded_switch_runs_flowlet_end_to_end() {
    let a = algorithms::by_name("flowlet").unwrap();
    let mut sw = domino::sharded_switch(
        a.source,
        a.source,
        &Target::banzai(banzai::AtomKind::Pairs),
        banzai::ShardConfig::new(4),
    )
    .unwrap();
    assert_eq!(sw.plan().effective(), 4);
    let out = sw.run(&a.trace(500, SEED)).collect().unwrap();
    assert_eq!(out.len(), 500);
    assert_eq!(sw.transmitted(), 500);
}

/// A per-flow counter over the `dport` wire field: keyed, so frames fan
/// out across shards by their parsed headers.
const DPORT_COUNTER: &str = "struct P { int dport; int c; };\nint counts[16] = {0};\n\
                             void count(struct P pkt) {\n\
                               counts[pkt.dport] = counts[pkt.dport] + 1;\n\
                               pkt.c = counts[pkt.dport];\n\
                             }";

/// An egress that writes the departure cycle into a wire field, so the
/// clock a shard ran on shows in its output bytes.
const NOW_TO_SPORT: &str = "struct P { int now; int sport; };\n\
                            void stamp(struct P pkt) {\n\
                              pkt.sport = pkt.now;\n\
                            }";

fn compile_raw(source: &str) -> AtomPipeline {
    domino_compiler::compile(source, &Target::banzai(banzai::AtomKind::Raw)).unwrap()
}

/// `n` valid TCP frames over 16 `dport` flows.
fn dport_frames(n: usize, cfg: &banzai::WireConfig) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let spec = banzai::FrameSpec {
                dport: (i * 7 % 16) as u16,
                sport: 1000 + i as u16,
                ..banzai::FrameSpec::default()
            };
            banzai::encode(&Packet::new(), cfg, &spec)
        })
        .collect()
}

/// Each frame's shard, as the dispatcher steers it: by its parsed
/// packet, or `i % n` when it does not parse.
fn frame_assignment(
    sw: &ShardedSwitch,
    frames: &[Vec<u8>],
    cfg: &banzai::WireConfig,
) -> Vec<usize> {
    let n = sw.plan().effective();
    frames
        .iter()
        .enumerate()
        .map(|(i, f)| match banzai::parse(f, cfg) {
            Ok(wp) => sw.plan().steer(i, &wp.pkt),
            Err(_) => i % n,
        })
        .collect()
}

/// Sharded frame runs stamp global arrival cycles, as sharded packet runs
/// do: with an egress that copies `now` into `sport`, every shard's
/// output frames equal the serial switch's at the steered positions.
#[test]
fn sharded_frames_run_on_the_global_clock() {
    let cfg = banzai::WireConfig::new();
    let ingress = compile_raw(DPORT_COUNTER);
    let egress = compile_raw(NOW_TO_SPORT);
    let frames = dport_frames(40, &cfg);

    let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY).unwrap();
    let serial_out = serial.run_frames(&frames, &cfg).collect().unwrap();
    assert_eq!(serial_out.len(), frames.len());

    let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(2)).unwrap();
    assert_eq!(sharded.plan().effective(), 2, "{}", sharded.plan());
    let parts = sharded.run_frames(&frames, &cfg).partitioned().unwrap();
    let assignment = frame_assignment(&sharded, &frames, &cfg);
    for (s, part) in parts.iter().enumerate() {
        let expected: Vec<&Vec<u8>> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &shard)| shard == s)
            .map(|(i, _)| &serial_out[i])
            .collect();
        let got: Vec<&Vec<u8>> = part.iter().collect();
        assert_eq!(got, expected, "shard {s} ran on its own clock");
    }
    assert_eq!(
        sharded.export_merged_ingress_state().unwrap(),
        serial.export_ingress_state()
    );
}

/// An oversubscribed egress link couples the shards through the shared
/// queue: every sharded forwarding run refuses it up front, frame-born
/// or packet-born.
#[test]
fn sharded_runs_refuse_an_oversubscribed_link() {
    let cfg = banzai::WireConfig::new();
    let ingress = compile_raw(DPORT_COUNTER);
    let egress = AtomPipeline::passthrough("egress");
    let frames = dport_frames(20, &cfg);
    let trace: Vec<Packet> = frames
        .iter()
        .map(|f| banzai::parse(f, &cfg).unwrap().pkt)
        .collect();
    let slow = || {
        ShardedSwitch::<banzai::SlotMachine>::new_with(
            &ingress,
            &egress,
            ShardConfig::new(2),
            |_, ing, eg, cap| Ok(Switch::new_slot(ing, eg, cap)?.with_drain_period(3)),
        )
        .unwrap()
    };
    let unsupported = |res: Result<(), banzai::SwitchError>, path: &str| match res {
        Err(banzai::SwitchError::Unsupported(msg)) => {
            assert!(msg.contains("line-rate egress link"), "{path}: {msg}")
        }
        other => panic!("{path}: expected Unsupported, got {other:?}"),
    };
    let mut sw = slow();
    unsupported(
        sw.run_frames(&frames, &cfg).partitioned().map(drop),
        "frames partitioned",
    );
    unsupported(sw.run(&trace).partitioned().map(drop), "partitioned");
    unsupported(sw.run(&trace).instrumented().map(drop), "instrumented");
    unsupported(sw.run(&trace).for_each(|_| {}).map(drop), "for_each");
    unsupported(sw.run(&trace).collect().map(drop), "collect");
    assert_eq!(sw.transmitted() + sw.drops(), 0, "nothing ran");
}

/// The dispatcher books frame `i`'s parse drop on shard `i % n`: with a
/// source that fails right after the last frame, every shard's salvage
/// closes its own books — steered frames are transmitted or dropped on
/// that shard, none lost.
#[test]
fn malformed_frames_are_booked_on_their_dealt_shard() {
    const SHARDS: usize = 3;
    let cfg = banzai::WireConfig::new();
    let ingress = compile_raw(DPORT_COUNTER);
    let egress = AtomPipeline::passthrough("egress");
    let mut frames = dport_frames(60, &cfg);
    for i in (0..frames.len()).step_by(4) {
        frames[i].truncate(9 + i % 30); // cut inside Ethernet or IPv4
    }
    let mut sw = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(SHARDS)).unwrap();
    let assignment = frame_assignment(&sw, &frames, &cfg);

    let src = banzai::FailAfter::new(
        banzai::FrameSliceSource::new(&frames),
        frames.len() as u64,
        "capture ends torn",
    );
    let err = sw.run_frames(src, &cfg).partitioned().unwrap_err();
    let report = err.fault().expect("a source fault");
    assert_eq!(report.accounting.offered, frames.len() as u64);
    assert!(report.accounting.conserved(), "{}", report.accounting);
    assert_eq!(report.accounting.lost_in_fault, 0);
    for s in 0..SHARDS {
        let salvage = report.shard(s).unwrap();
        let steered = assignment.iter().filter(|&&a| a == s).count() as u64;
        let malformed = (0..frames.len())
            .filter(|&i| i % SHARDS == s && banzai::parse(&frames[i], &cfg).is_err())
            .count() as u64;
        assert!(malformed > 0, "shard {s} was dealt no malformed frame");
        assert_eq!(salvage.offered, steered, "shard {s}");
        assert_eq!(salvage.drops.parse_total(), malformed, "shard {s}");
        assert_eq!(salvage.lost(), 0, "shard {s}: books do not close");
    }
}
