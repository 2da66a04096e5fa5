//! The differential throughput harness (E9): replay large seeded traces
//! through the map-based reference engine and the slot-compiled fast path,
//! assert the two are bit-identical (packet-for-packet and
//! state-for-state), and measure the speedup the compile-time field-layout
//! pass buys.
//!
//! Workloads:
//!
//! * **machine workloads** — one Table 4 algorithm on its least-expressive
//!   target, [`Machine::run_trace`] vs a pre-flattened
//!   [`SlotMachine::run_trace_flat`] replay (the line-rate story: parsing
//!   into the PHV happens once at the parser, execution is pure integer
//!   indexing);
//! * **the Figure-1 switch workload** — flowlet at ingress, CoDel (LUT) at
//!   egress, a real queue in between, driven once per engine through the
//!   unified run builder (`switch.run(trace).collect()`: the slot switch
//!   carries packets flat and builds each output once at the sink, the
//!   map switch drives its engines through the packet adapter);
//! * **wire roundtrip workloads (E11)** — the same traces born as raw
//!   byte frames (`bench::wiregen`) through the full
//!   parse → pipeline → deparse path ([`wire_workload`]), plus the
//!   malformed-traffic parser-stress differential ([`wire_stress`]).
//!
//! Every run *is* a differential test: divergence panics, so any recorded
//! [`Measurement`] is also a correctness witness.
//!
//! Three additions ride on the same machinery:
//!
//! * **E13 — the programmable-scheduling workloads** ([`sched_workload`]):
//!   the three PIFO disciplines — WFQ via `stfq`'s `start` ranks, strict
//!   priority over per-class WFQ, and token-bucket shaping via the
//!   pacer's earliest-departure ranks — each driven through
//!   `switch.run(trace).scheduled().collect()` on both engines (bit-identical
//!   departures, counters, and state), re-run 4-way sharded
//!   (bit-identical to serial), and checked against its scheduling
//!   invariant (fairness bound / priority exactness / pacing) before the
//!   timing is recorded. Rows land in the JSON under the `sched` key and
//!   are gated by [`parse_baseline`] / [`check_regressions`] under
//!   [`SCHED_KEY`].
//! * **E10 — the shard-scaling sweep** ([`shard_sweep`]): the flowlet,
//!   heavy-hitters, and bloom-filter traces through a [`ShardedSwitch`]
//!   at 1/2/4/8 shards. Every configuration is verified against the
//!   serial switch with the oracle chosen by the plan's partitioning
//!   tier — per-shard positional bit-identity for `Exact`, the sketch's
//!   own (ε, δ) contract ([`crate::sketch`]) for `Replicable` — then
//!   records both the threaded wall clock *and* the per-shard busy
//!   times (measured sequentially, free of scheduler interference). On
//!   an N-core host wall clock approaches
//!   [`ShardMeasurement::critical_ns`]; on the single-core CI runner
//!   only the critical-path number can show scaling, which is why both
//!   are recorded, clearly labeled.
//! * **the CI perf-regression gate** ([`parse_baseline`] /
//!   [`check_regressions`], plus [`parse_scaling_baseline`] /
//!   [`check_scaling_regressions`] for the E10 rows): compares freshly
//!   measured slot speedups and shard-scaling rows against the
//!   committed `BENCH_throughput.json` and fails the build when a
//!   workload regresses below tolerance — or when a sketch workload
//!   loses effective shards (regression to the 1-shard fallback is an
//!   exact structural trip). Speedups (not absolute pps) are compared,
//!   so the gate is robust to runner hardware.

use crate::wiregen::{self, GenOptions};
use banzai::fault::{FaultPlan, FaultSpec, FaultyEngine};
use banzai::wire::{self, BoundParser};
use banzai::{
    Backpressure, DropReason, Machine, SchedDeparture, SchedSpec, ShardConfig, ShardTimings,
    ShardedSwitch, SlotMachine, Switch, Target,
};
use domino_ir::Packet;
use std::time::Instant;

/// One workload's timed, verified comparison of the two engines.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name (algorithm, or `figure1_switch`).
    pub name: String,
    /// Packets replayed through each engine.
    pub packets: usize,
    /// Wall-clock nanoseconds for the map-based reference path.
    pub map_ns: u128,
    /// Wall-clock nanoseconds for the slot-compiled fast path.
    pub slot_ns: u128,
}

impl Measurement {
    /// Packets per second through the map-based reference path.
    pub fn map_pps(&self) -> f64 {
        self.packets as f64 / (self.map_ns as f64 / 1e9)
    }

    /// Packets per second through the slot-compiled fast path.
    pub fn slot_pps(&self) -> f64 {
        self.packets as f64 / (self.slot_ns as f64 / 1e9)
    }

    /// Fast-path speedup over the reference path.
    pub fn speedup(&self) -> f64 {
        self.map_ns as f64 / self.slot_ns.max(1) as f64
    }
}

/// Independent repetitions for every E9/E11 engine timing; each timed
/// region keeps its minimum over these (see [`machine_workload`] for why
/// minimum-of-reps is the right estimator on a noisy host).
const ENGINE_REPS: usize = 3;

/// Compiles `name` on its least-expressive paper target (LUT-extended for
/// `codel_lut`), mirroring `tests/differential.rs`.
fn compile_least(name: &str) -> banzai::AtomPipeline {
    let a = algorithms::by_name(name).unwrap_or_else(|| panic!("unknown algorithm `{name}`"));
    let kind = a.paper.least_atom.expect("algorithm must map");
    let target = if a.name == "codel_lut" {
        Target::banzai_with_lut(kind)
    } else {
        Target::banzai(kind)
    };
    domino_compiler::compile(a.source, &target).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Replays `n` seeded packets of algorithm `name` through both engines and
/// returns the timed, verified measurement.
///
/// # Panics
///
/// Panics if the two paths diverge on any output packet or on final state —
/// the measurement doubles as a differential test.
pub fn machine_workload(name: &str, n: usize, seed: u64) -> Measurement {
    let pipeline = compile_least(name);
    let trace = algorithms::by_name(name).unwrap().trace(n, seed);

    // Each engine keeps its *minimum* time over ENGINE_REPS runs on fresh
    // engine instances: host interference (virtualization steal, frequency
    // excursions) only ever inflates a measurement, so the min is the
    // cleanest estimate of true cost — and taking it on both sides keeps
    // the gate's speedup ratio stable run to run. Outputs are deterministic,
    // so the differential assertions check the last rep.
    let mut map_machine = Machine::new(pipeline.clone());
    let mut map_out = Vec::new();
    let mut map_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        map_machine = Machine::new(pipeline.clone());
        let t = Instant::now();
        map_out = map_machine.run_trace(&trace);
        map_ns = map_ns.min(t.elapsed().as_nanos());
    }

    let mut slot_machine =
        SlotMachine::compile(&pipeline).expect("compiled pipelines are slot-executable");
    // Parse once onto the layout (a real parser fills the PHV exactly
    // once); the timed region is pure slot-indexed execution.
    let flat = slot_machine.flatten_trace(&trace);
    let mut flat_out = Vec::new();
    let mut slot_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        slot_machine =
            SlotMachine::compile(&pipeline).expect("compiled pipelines are slot-executable");
        let t = Instant::now();
        flat_out = slot_machine.run_trace_flat(&flat);
        slot_ns = slot_ns.min(t.elapsed().as_nanos());
    }

    // Bit-identical or bust: state…
    assert_eq!(
        *map_machine.state(),
        slot_machine.export_state(),
        "{name}: engines diverged on final state"
    );
    // …and every output packet, realized through the deparser.
    for (i, (m, f)) in map_out.iter().zip(&flat_out).enumerate() {
        let mut realized = trace[i].clone();
        slot_machine.merge_back(f, &mut realized);
        assert_eq!(*m, realized, "{name}: engines diverged at packet {i}");
    }

    Measurement {
        name: name.to_string(),
        packets: n,
        map_ns,
        slot_ns,
    }
}

/// Drives the Figure-1 switch (flowlet ingress, CoDel-LUT egress, bounded
/// queue at 1/3 line rate) once per engine and returns the measurement.
///
/// # Panics
///
/// Panics if outputs, drop counts, transmit counts, or final pipeline
/// state differ between the engines.
pub fn switch_workload(n: usize, seed: u64) -> Measurement {
    let ingress = compile_least("flowlet");
    let egress = compile_least("codel_lut");
    let trace: Vec<Packet> = algorithms::by_name("flowlet").unwrap().trace(n, seed);

    // Min over fresh-switch reps, for the same reason as `machine_workload`.
    let mut map_switch = Switch::new(ingress.clone(), egress.clone(), 512).with_drain_period(3);
    let mut map_out = Vec::new();
    let mut map_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        map_switch = Switch::new(ingress.clone(), egress.clone(), 512).with_drain_period(3);
        let t = Instant::now();
        map_out = map_switch
            .run(&trace)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        map_ns = map_ns.min(t.elapsed().as_nanos());
    }

    let mut slot_switch = Switch::new_slot(&ingress, &egress, 512)
        .expect("compiled pipelines are slot-executable")
        .with_drain_period(3);
    let mut slot_out = Vec::new();
    let mut slot_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        slot_switch = Switch::new_slot(&ingress, &egress, 512)
            .expect("compiled pipelines are slot-executable")
            .with_drain_period(3);
        let t = Instant::now();
        slot_out = slot_switch
            .run(&trace)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        slot_ns = slot_ns.min(t.elapsed().as_nanos());
    }

    assert_eq!(map_out, slot_out, "switch engines diverged on outputs");
    assert_eq!(
        map_switch.drops(),
        slot_switch.drops(),
        "drop counts diverged"
    );
    assert_eq!(
        map_switch.transmitted(),
        slot_switch.transmitted(),
        "transmit counts diverged"
    );
    assert_eq!(
        map_switch.export_ingress_state(),
        slot_switch.export_ingress_state(),
        "ingress state diverged"
    );
    assert_eq!(
        map_switch.export_egress_state(),
        slot_switch.export_egress_state(),
        "egress state diverged"
    );

    Measurement {
        name: "figure1_switch".to_string(),
        packets: n,
        map_ns,
        slot_ns,
    }
}

/// E11 — the byte-level roundtrip workload: the same seeded trace as the
/// E9 machine workload, but **born as wire frames** (`bench::wiregen`)
/// and driven through the full parse → pipeline → deparse path on both
/// engines:
///
/// * the reference path parses each frame with the map-level
///   [`wire::parse`], processes the map packet, and deparses it;
/// * the fast path binds a [`BoundParser`] to the slot pipeline's field
///   table and runs [`BoundParser::parse_flat`] →
///   [`SlotMachine::process_flat`] → [`BoundParser::deparse_flat`].
///
/// Unlike [`machine_workload`] (where parsing is deliberately hoisted out
/// of the timed region), the timed region here **includes** the parser
/// and deparser on both sides — that's the number E11 exists to record:
/// what the byte front-end costs around each engine.
///
/// # Panics
///
/// Panics if the two paths disagree on any output **byte** or on final
/// state — stricter than field equality, since deparsing also covers
/// patch placement and untouched-byte preservation.
pub fn wire_workload(name: &str, n: usize, seed: u64) -> Measurement {
    let pipeline = compile_least(name);
    let algo = algorithms::by_name(name).unwrap();
    let wt = wiregen::wire_trace(&algo.trace(n, seed), seed, &GenOptions::default());

    // Min over fresh-engine reps, for the same reason as `machine_workload`.
    let mut map_machine = Machine::new(pipeline.clone());
    let mut map_out: Vec<Vec<u8>> = Vec::new();
    let mut map_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        map_machine = Machine::new(pipeline.clone());
        let t = Instant::now();
        map_out = wt
            .frames
            .iter()
            .map(|frame| {
                let wp =
                    wire::parse(frame, &wt.cfg).expect("wiregen default frames are well-formed");
                let processed = map_machine.process(wp.pkt);
                wire::deparse(&processed, &wp.layout)
            })
            .collect();
        map_ns = map_ns.min(t.elapsed().as_nanos());
    }

    let mut slot_machine =
        SlotMachine::compile(&pipeline).expect("compiled pipelines are slot-executable");
    let parser = BoundParser::bind(wt.cfg.clone(), slot_machine.field_table().clone());
    let mut slot_out: Vec<Vec<u8>> = Vec::new();
    let mut slot_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        slot_machine =
            SlotMachine::compile(&pipeline).expect("compiled pipelines are slot-executable");
        let t = Instant::now();
        slot_out = wt
            .frames
            .iter()
            .map(|frame| {
                let (mut flat, layout) = parser
                    .parse_flat(frame)
                    .expect("same frames, same verdicts");
                slot_machine.process_flat(&mut flat);
                parser.deparse_flat(&flat, &layout)
            })
            .collect();
        slot_ns = slot_ns.min(t.elapsed().as_nanos());
    }

    assert_eq!(
        *map_machine.state(),
        slot_machine.export_state(),
        "wire_{name}: engines diverged on final state"
    );
    for (i, (m, s)) in map_out.iter().zip(&slot_out).enumerate() {
        assert_eq!(m, s, "wire_{name}: deparsed frames diverged at packet {i}");
    }

    Measurement {
        name: format!("wire_{name}"),
        packets: n,
        map_ns,
        slot_ns,
    }
}

/// The parser-stress differential: a malformed-heavy wire trace through
/// the whole Figure-1 switch (`switch.run_frames(frames, cfg).collect()`)
/// on both engines, with the per-reason drop counters checked three ways.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Frames offered to the switch.
    pub frames: usize,
    /// Frames transmitted (accepted, survived the queue, deparsed).
    pub transmitted: u64,
    /// Congestion (queue-full) drops.
    pub queue_full: u64,
    /// `(verdict label, count)` for every nonzero parse-drop reason.
    pub parse_drops: Vec<(&'static str, u64)>,
}

/// Runs the parser-stress scenario: flowlet ingress, pass-through egress,
/// an oversubscribed link, and a wire trace where `malform_rate` of the
/// frames are corrupted. Asserts the map-engine and slot-engine switches
/// agree on every transmitted **byte**, on every per-reason drop counter,
/// and that the parse counters equal the [`wiregen::expected_verdicts`]
/// oracle computed from the frames alone.
///
/// # Panics
///
/// Panics on any divergence.
pub fn wire_stress(n: usize, seed: u64, malform_rate: f64) -> StressReport {
    let ingress = compile_least("flowlet");
    let egress = banzai::AtomPipeline::passthrough("egress");
    let opts = GenOptions {
        malform_rate,
        ..GenOptions::default()
    };
    let wt = wiregen::wire_trace_for("flowlet", n, seed, &opts);
    let (expected_accepted, expected_counts) = wiregen::expected_verdicts(&wt.frames, &wt.cfg);

    let mut map_switch = Switch::new(ingress.clone(), egress.clone(), 256).with_drain_period(2);
    let map_out = map_switch
        .run_frames(&wt.frames, &wt.cfg)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    let mut slot_switch = Switch::new_slot(&ingress, &egress, 256)
        .expect("compiled pipelines are slot-executable")
        .with_drain_period(2);
    let slot_out = slot_switch
        .run_frames(&wt.frames, &wt.cfg)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    assert_eq!(map_out, slot_out, "stress: transmitted bytes diverged");
    assert_eq!(
        map_switch.drop_counters(),
        slot_switch.drop_counters(),
        "stress: drop counters diverged"
    );
    let counters = map_switch.drop_counters();
    assert_eq!(
        counters.parse_total(),
        expected_counts.iter().sum::<u64>(),
        "stress: parse drops disagree with the frame oracle"
    );
    for v in banzai::wire::ParseVerdict::ALL {
        assert_eq!(
            counters.get(DropReason::Parse(v)),
            expected_counts[v.index()],
            "stress: counter for `{v}` disagrees with the frame oracle"
        );
    }
    assert_eq!(
        map_switch.transmitted() + counters.queue_full(),
        expected_accepted,
        "stress: accepted frames must be transmitted or tail-dropped"
    );

    StressReport {
        frames: wt.frames.len(),
        transmitted: map_switch.transmitted(),
        queue_full: counters.queue_full(),
        parse_drops: counters
            .iter()
            .filter(|&(r, c)| c > 0 && r != DropReason::QueueFull)
            .map(|(r, c)| (r.label(), c))
            .collect(),
    }
}

/// One shard-count configuration of the E10 scaling sweep: a verified
/// differential run of the sharded switch, with both wall-clock and
/// critical-path timings.
#[derive(Debug, Clone)]
pub struct ShardMeasurement {
    /// Workload (ingress algorithm) name.
    pub workload: String,
    /// Packets in the trace.
    pub packets: usize,
    /// Shards requested.
    pub requested: usize,
    /// Shards granted by the plan (1 on fallback).
    pub effective: usize,
    /// Wall-clock nanoseconds of the threaded run **on this host** (on a
    /// single-core runner this cannot beat 1 shard; see `critical_ns`).
    pub wall_ns: u128,
    /// The sequential run's lane breakdown (steer / per-shard busy /
    /// merge), measured free of scheduler interference.
    pub timings: banzai::ShardTimings,
    /// The partitioning tier the plan resolved to (what the run's
    /// differential oracle was: bit-identity for `Exact`, the sketch
    /// (ε, δ) contract for `Replicable`).
    pub tier: banzai::ShardTier,
    /// The single-shard fallback diagnostic, if the plan fell back.
    pub fallback: Option<String>,
}

impl ShardMeasurement {
    /// Modeled steady-state completion time on dedicated hardware — the
    /// busiest lane of the RX-core / worker-cores / TX-core pipeline
    /// (delegates to [`banzai::ShardTimings::critical_ns`]).
    pub fn critical_ns(&self) -> u128 {
        self.timings.critical_ns()
    }

    /// Packets per second at the critical-path (modeled multi-core) rate.
    pub fn modeled_pps(&self) -> f64 {
        self.packets as f64 / (self.critical_ns().max(1) as f64 / 1e9)
    }

    /// Packets per second at this host's threaded wall-clock rate.
    pub fn wall_pps(&self) -> f64 {
        self.packets as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// E10: replays an algorithm's seeded trace through a [`ShardedSwitch`]
/// (slot-compiled shards, pass-through egress, line-rate queue) at each
/// requested shard count.
///
/// Every configuration is a differential test against the serial slot
/// switch, with the oracle chosen by the plan's tier:
///
/// * **Exact** (keyed steering, e.g. flowlet): each shard's outputs
///   must equal the serial outputs at exactly the positions steered to
///   it (full packets, queue metadata included), and the merged
///   exported state must equal the serial state bit-for-bit.
/// * **Replicable** (full sketch replica per shard, e.g.
///   heavy_hitters): the merged exported state must *still* equal the
///   serial state bit-for-bit (sum/max merges are exact on final
///   state), and both the serial and merged states must satisfy the
///   sketch's own contract — spec replay, overestimate, mass
///   conservation, and the (ε, δ) bound
///   ([`crate::sketch::verify_sketch`]). Per-packet in-stream estimates
///   are shard-local by design, so positional bit-identity is not
///   asserted; output counts and drop counters still must agree.
///
/// In every tier the threaded run must reproduce the sequential merge
/// bit-for-bit, and drop/transmit counters must agree with serial.
///
/// # Panics
///
/// Panics on any divergence — a recorded measurement is a correctness
/// witness.
pub fn shard_sweep(
    name: &str,
    n: usize,
    seed: u64,
    shard_counts: &[usize],
) -> Vec<ShardMeasurement> {
    const CAPACITY: usize = 512;
    let ingress = compile_least(name);
    let egress = banzai::AtomPipeline::passthrough("egress");
    let trace = algorithms::by_name(name).unwrap().trace(n, seed);

    let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY)
        .expect("compiled pipelines are slot-executable");
    let serial_out = serial
        .run(&trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");
    let serial_state = serial.export_ingress_state();

    // One discarded instrumented pass: the partition/replay allocation
    // pattern differs from the serial run's, and its first execution pays
    // allocator/page-cache costs that would otherwise skew whichever
    // shard count happens to run first.
    ShardedSwitch::new_slot(
        &ingress,
        &egress,
        ShardConfig::new(1).with_capacity(CAPACITY),
    )
    .expect("compiled pipelines are slot-executable")
    .run(&trace)
    .instrumented()
    .expect("line-rate shard switches support stamped runs");

    shard_counts
        .iter()
        .map(|&count| {
            let cfg = ShardConfig::new(count).with_capacity(CAPACITY);

            // Pass 1 — verification (untimed): per-shard outputs must be
            // the serial outputs at exactly the steered positions, state
            // must merge back bit-identical, counters must agree. All of
            // its allocations are freed before anything is timed — at
            // millions of map packets, live copies push the allocator
            // into a page-churn regime that poisons measurements.
            let mut verify_sw = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone())
                .expect("compiled pipelines are slot-executable");
            let parts = verify_sw
                .run(&trace)
                .partitioned()
                .expect("line-rate shard switches support stamped runs");
            let tier = verify_sw.plan().tier();
            match tier {
                banzai::ShardTier::Exact | banzai::ShardTier::Fallback => {
                    let assignment: Vec<usize> = trace
                        .iter()
                        .enumerate()
                        .map(|(i, p)| verify_sw.plan().steer(i, p))
                        .collect();
                    for (s, part) in parts.iter().enumerate() {
                        let mut cursor = 0usize;
                        for (i, &shard) in assignment.iter().enumerate() {
                            if shard != s {
                                continue;
                            }
                            assert_eq!(
                                part[cursor], serial_out[i],
                                "{name}@{count}: shard {s} diverged at input {i}"
                            );
                            cursor += 1;
                        }
                        assert_eq!(part.len(), cursor, "{name}@{count}: shard {s} length");
                    }
                }
                banzai::ShardTier::Replicable => {
                    // Replica shards see only their slice of the trace, so
                    // in-stream estimates are not positionally comparable;
                    // the statistical tier below is the oracle. Packet
                    // conservation still holds shard by shard.
                    let assignment: Vec<usize> = trace
                        .iter()
                        .enumerate()
                        .map(|(i, p)| verify_sw.plan().steer(i, p))
                        .collect();
                    for (s, part) in parts.iter().enumerate() {
                        let offered = assignment.iter().filter(|&&shard| shard == s).count();
                        assert_eq!(
                            part.len(),
                            offered,
                            "{name}@{count}: shard {s} transmitted {} of {offered} offered",
                            part.len()
                        );
                    }
                    let spec = verify_sw
                        .plan()
                        .ingress_replica()
                        .expect("replicable tier has an ingress replica spec")
                        .clone();
                    let merged = verify_sw.export_merged_ingress_state().unwrap();
                    crate::sketch::verify_sketch(
                        &spec,
                        &trace,
                        &serial_state,
                        &format!("{name} serial"),
                    );
                    crate::sketch::verify_sketch(
                        &spec,
                        &trace,
                        &merged,
                        &format!("{name}@{count} merged"),
                    );
                }
            }
            assert_eq!(
                verify_sw.export_merged_ingress_state().unwrap(),
                serial_state,
                "{name}@{count}: merged state diverged"
            );
            assert_eq!(verify_sw.transmitted(), serial.transmitted());
            assert_eq!(verify_sw.drops(), serial.drops());
            let effective = verify_sw.plan().effective();
            let fallback = verify_sw.plan().fallback().map(str::to_string);
            let merged_len: usize = parts.iter().map(|p| p.len()).sum();
            drop(parts);
            drop(verify_sw);

            // Pass 2 — sequential timing: per-shard busy times measured
            // one after another on this thread (scheduler-free), with
            // only the run's own working set live. Wall time on this
            // host arrives with bursty interference (virtualization
            // steal, frequency excursions) that can inflate a single
            // lane 2–4x, so each lane keeps its *minimum* over
            // independent repetitions — under purely additive noise the
            // minimum is the consistent estimator of true busy time,
            // and the runs are deterministic so every repetition does
            // identical work.
            const TIMING_REPS: usize = 3;
            let mut merged: Option<Vec<_>> = None;
            let mut timings: Option<ShardTimings> = None;
            for _ in 0..TIMING_REPS {
                let mut timed_sw = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone())
                    .expect("compiled pipelines are slot-executable");
                let run = timed_sw
                    .run(&trace)
                    .instrumented()
                    .expect("line-rate shard switches support stamped runs");
                timings = Some(match timings.take() {
                    None => run.timings,
                    Some(best) => ShardTimings {
                        steer_ns: best.steer_ns.min(run.timings.steer_ns),
                        shard_ns: best
                            .shard_ns
                            .iter()
                            .zip(&run.timings.shard_ns)
                            .map(|(&a, &b)| a.min(b))
                            .collect(),
                        merge_ns: best.merge_ns.min(run.timings.merge_ns),
                    },
                });
                merged = Some(run.merged);
            }
            let timings = timings.expect("TIMING_REPS >= 1");
            let merged = merged.expect("TIMING_REPS >= 1");
            assert_eq!(
                merged.len(),
                merged_len,
                "{name}@{count}: merge lost packets"
            );

            // Pass 3 — threaded wall clock, asserted bit-identical to the
            // sequential merge (scheduling cannot leak into outputs).
            let mut threaded_sw = ShardedSwitch::new_slot(&ingress, &egress, cfg)
                .expect("compiled pipelines are slot-executable");
            let t = Instant::now();
            let threaded = threaded_sw
                .run(&trace)
                .collect()
                .expect("no faults injected in the scaling sweep");
            let wall_ns = t.elapsed().as_nanos();
            assert_eq!(
                threaded, merged,
                "{name}@{count}: threaded run diverged from sequential merge"
            );

            ShardMeasurement {
                workload: name.to_string(),
                packets: n,
                requested: count,
                effective,
                wall_ns,
                timings,
                tier,
                fallback,
            }
        })
        .collect()
}

/// One E12 chaos scenario's verified outcome: what was injected, what the
/// supervisor reported, and where every offered packet went.
///
/// Like every other row in this harness, a recorded outcome is a
/// correctness witness — [`chaos_suite`] asserts the failure-model
/// invariants (no hang, typed error, salvage-equals-serial, conservation)
/// before returning it.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Scenario id (`kill_worker`, `stall_worker`, `overload_shed`,
    /// `bit_flip`).
    pub scenario: String,
    /// Workload (ingress algorithm) name.
    pub workload: String,
    /// Packets offered.
    pub packets: usize,
    /// Worker shards in the run.
    pub shards: usize,
    /// `fault` if the run returned [`banzai::SwitchError::Fault`], else `ok`.
    pub outcome: String,
    /// The failed shard, when the run faulted.
    pub faulted_shard: Option<usize>,
    /// Rendered [`banzai::FaultCause`] (or `none`).
    pub cause: String,
    /// Packets whose outputs were delivered (merged + salvaged prefixes).
    pub transmitted: u64,
    /// Packets under typed drop counters (queue-full / parse /
    /// backpressure shed).
    pub dropped: u64,
    /// Packets attributed to the fault by the salvage accounting.
    pub lost_in_fault: u64,
    /// Shards that survived and drained cleanly.
    pub survivors: usize,
    /// Wall-clock nanoseconds of the supervised run (the no-hang number:
    /// bounded by the watchdog, not by the injected stall).
    pub wall_ns: u128,
}

impl ChaosOutcome {
    /// `offered == transmitted + dropped + lost_in_fault` (asserted by
    /// [`chaos_suite`]; recorded so the JSON self-documents).
    pub fn conserved(&self) -> bool {
        self.packets as u64 == self.transmitted + self.dropped + self.lost_in_fault
    }
}

/// Builds a sharded switch whose shards are armed with `faults` — the
/// constructor-driven injection path (`ShardedSwitch::new_with` +
/// [`FaultyEngine`]).
fn armed_sharded(
    ingress: &banzai::AtomPipeline,
    egress: &banzai::AtomPipeline,
    cfg: ShardConfig,
    faults: &FaultPlan,
) -> ShardedSwitch<FaultyEngine<SlotMachine>> {
    ShardedSwitch::new_with(ingress, egress, cfg, |s, ing, eg, cap| {
        let i = FaultyEngine::with_faults(ing, faults.faults_for(s).to_vec())?;
        let e = <FaultyEngine<SlotMachine> as banzai::PipelineEngine>::build(eg)?;
        Ok(Switch::from_engines(i, e, cap))
    })
    .expect("compiled pipelines are slot-executable")
}

/// E12 — the chaos/overload suite: four fault-injection scenarios against
/// the supervised sharded switch on a real Table 4 workload, each
/// asserting the failure-model contract before its outcome is recorded:
///
/// 1. **kill_worker** — panic one shard's engine mid-trace: the run must
///    return a typed [`banzai::SwitchError::Fault`] naming the shard, packet, and
///    payload; every surviving shard's salvaged output *and state* must be
///    bit-identical to the serial switch restricted to its flows; the
///    accounting must balance exactly.
/// 2. **stall_worker** — wedge a worker past the watchdog: the caller
///    gets a typed `Stall` error in bounded time (never hangs, never joins
///    the wedged thread) and the books still balance.
/// 3. **overload_shed** — a slow worker under [`Backpressure::Shed`]:
///    the run *succeeds*, overload is counted under the backpressure drop
///    reason, and transmitted + dropped equals offered.
/// 4. **bit_flip** — silent single-bit corruption: not a fault (nothing
///    to supervise), but the divergence from the clean run is observable
///    and conservation still holds — the boundary of the failure model.
///
/// # Panics
///
/// Panics if any scenario violates its invariant — a returned outcome is
/// a correctness witness, same as every other row in this harness.
pub fn chaos_suite(name: &str, n: usize, seed: u64) -> Vec<ChaosOutcome> {
    const SHARDS: usize = 4;
    const CAPACITY: usize = 512;
    let ingress = compile_least(name);
    let egress = banzai::AtomPipeline::passthrough("egress");
    let trace = algorithms::by_name(name).unwrap().trace(n, seed);

    let mut serial = Switch::new_slot(&ingress, &egress, CAPACITY)
        .expect("compiled pipelines are slot-executable");
    let serial_out = serial
        .run(&trace)
        .collect()
        .expect("slice-backed sources cannot fail mid-stream");

    let probe = ShardedSwitch::new_slot(&ingress, &egress, ShardConfig::new(SHARDS))
        .expect("compiled pipelines are slot-executable");
    assert_eq!(
        probe.plan().effective(),
        SHARDS,
        "{name}: chaos suite needs a partitionable workload ({})",
        probe.plan()
    );
    let assignment: Vec<usize> = trace
        .iter()
        .enumerate()
        .map(|(i, p)| probe.plan().steer(i, p))
        .collect();
    let offered_to = |s: usize| assignment.iter().filter(|&&sh| sh == s).count() as u64;
    // Victim: the busiest shard (guaranteed nonempty), killed one third in.
    let victim = (0..SHARDS)
        .max_by_key(|&s| offered_to(s))
        .expect("SHARDS > 0");
    let mut outcomes = Vec::new();

    // 1. kill_worker ------------------------------------------------------
    {
        let kill_at = offered_to(victim) / 3;
        let cfg = ShardConfig::new(SHARDS).with_capacity(CAPACITY);
        let mut sw = armed_sharded(
            &ingress,
            &egress,
            cfg,
            &FaultPlan::kill(SHARDS, victim, kill_at),
        );
        let t = Instant::now();
        let err = sw
            .run(&trace)
            .collect()
            .expect_err("an armed panic must surface as an error");
        let wall_ns = t.elapsed().as_nanos();
        let report = err.fault().expect("worker faults carry a report").clone();

        let failure = &report.failures[0];
        assert_eq!(failure.shard, victim, "{name}: wrong shard blamed");
        assert!(
            failure.packet.is_some(),
            "{name}: fault packet not recovered"
        );
        assert!(
            matches!(&failure.cause, banzai::FaultCause::Panic(p)
                if p.contains(banzai::fault::INJECTED_PANIC_MARKER)),
            "{name}: cause is not the injected panic: {}",
            failure.cause
        );
        for s in report.survivors() {
            let salvage = report.shard(s).expect("salvage covers every shard");
            // Outputs: the serial stream restricted to this shard's flows.
            let mut cursor = 0usize;
            for (i, &shard) in assignment.iter().enumerate() {
                if shard != s {
                    continue;
                }
                assert_eq!(
                    salvage.output[cursor], serial_out[i],
                    "{name}: survivor {s} output diverged at input {i}"
                );
                cursor += 1;
            }
            assert_eq!(salvage.output.len(), cursor, "{name}: survivor {s} length");
            // State: bit-identical to a serial run over exactly this
            // shard's packet subsequence.
            let sub: Vec<Packet> = assignment
                .iter()
                .enumerate()
                .filter(|&(_, &sh)| sh == s)
                .map(|(i, _)| trace[i].clone())
                .collect();
            let mut twin = Switch::new_slot(&ingress, &egress, CAPACITY)
                .expect("compiled pipelines are slot-executable");
            twin.run(&sub)
                .for_each(|_| {})
                .expect("slice-backed sources cannot fail mid-stream");
            let (ing_state, _) = salvage.state.as_ref().expect("survivors report state");
            assert_eq!(
                ing_state,
                &twin.export_ingress_state(),
                "{name}: survivor {s} state diverged from the serial prefix"
            );
        }
        assert!(
            report.accounting.conserved(),
            "{name}: {}",
            report.accounting
        );
        outcomes.push(ChaosOutcome {
            scenario: "kill_worker".into(),
            workload: name.into(),
            packets: n,
            shards: SHARDS,
            outcome: "fault".into(),
            faulted_shard: Some(victim),
            cause: failure.cause.to_string(),
            transmitted: report.accounting.transmitted,
            dropped: report.accounting.dropped,
            lost_in_fault: report.accounting.lost_in_fault,
            survivors: report.survivors().len(),
            wall_ns,
        });
    }

    // 2. stall_worker -----------------------------------------------------
    {
        const WATCHDOG_MS: u64 = 150;
        let mut faults = FaultPlan::none(SHARDS);
        faults.push(victim, FaultSpec::stall_at(0, 600));
        let cfg = ShardConfig::new(SHARDS)
            .with_capacity(CAPACITY)
            .with_batch(64)
            .with_ring(1)
            .with_watchdog_ms(WATCHDOG_MS);
        let mut sw = armed_sharded(&ingress, &egress, cfg, &faults);
        let t = Instant::now();
        let err = sw
            .run(&trace)
            .collect()
            .expect_err("a stall past the watchdog must surface as an error");
        let wall_ns = t.elapsed().as_nanos();
        assert!(
            wall_ns < 5_000_000_000,
            "{name}: supervisor hung on a wedged worker ({wall_ns} ns)"
        );
        let report = err.fault().expect("worker faults carry a report").clone();
        let failure = report
            .failures
            .iter()
            .find(|f| f.shard == victim)
            .expect("the wedged shard must be reported");
        assert!(
            matches!(
                failure.cause,
                banzai::FaultCause::Stall {
                    watchdog_ms: WATCHDOG_MS
                }
            ),
            "{name}: expected a watchdog stall, got {}",
            failure.cause
        );
        assert!(
            report.accounting.conserved(),
            "{name}: {}",
            report.accounting
        );
        outcomes.push(ChaosOutcome {
            scenario: "stall_worker".into(),
            workload: name.into(),
            packets: n,
            shards: SHARDS,
            outcome: "fault".into(),
            faulted_shard: Some(victim),
            cause: failure.cause.to_string(),
            transmitted: report.accounting.transmitted,
            dropped: report.accounting.dropped,
            lost_in_fault: report.accounting.lost_in_fault,
            survivors: report.survivors().len(),
            wall_ns,
        });
    }

    // 3. overload_shed ----------------------------------------------------
    {
        let mut faults = FaultPlan::none(SHARDS);
        faults.push(victim, FaultSpec::stall_at(0, 200));
        let cfg = ShardConfig::new(SHARDS)
            .with_capacity(CAPACITY)
            .with_batch(16)
            .with_ring(1)
            .with_backpressure(Backpressure::Shed);
        let mut sw = armed_sharded(&ingress, &egress, cfg, &faults);
        let t = Instant::now();
        let out = sw
            .run(&trace)
            .collect()
            .expect("shedding is an overload policy, not a fault");
        let wall_ns = t.elapsed().as_nanos();
        let shed = sw.drop_counters().backpressure();
        assert!(
            shed > 0,
            "{name}: a 200ms stall against a 1-batch ring must shed"
        );
        assert_eq!(
            out.len() as u64 + sw.drops(),
            n as u64,
            "{name}: shed run out of balance"
        );
        outcomes.push(ChaosOutcome {
            scenario: "overload_shed".into(),
            workload: name.into(),
            packets: n,
            shards: SHARDS,
            outcome: "ok".into(),
            faulted_shard: None,
            cause: "none".into(),
            transmitted: out.len() as u64,
            dropped: sw.drops(),
            lost_in_fault: 0,
            survivors: SHARDS,
            wall_ns,
        });
    }

    // 4. bit_flip ---------------------------------------------------------
    {
        let field = trace[0]
            .field_names()
            .min()
            .expect("trace packets carry fields")
            .to_string();
        let mut faults = FaultPlan::none(SHARDS);
        faults.push(
            victim,
            FaultSpec::bit_flip_at(offered_to(victim) / 2, &field, 0),
        );
        let cfg = ShardConfig::new(SHARDS).with_capacity(CAPACITY);

        let mut clean = armed_sharded(&ingress, &egress, cfg.clone(), &FaultPlan::none(SHARDS));
        let clean_out = clean.run(&trace).collect().expect("no faults armed");
        let mut sw = armed_sharded(&ingress, &egress, cfg, &faults);
        let t = Instant::now();
        let out = sw
            .run(&trace)
            .collect()
            .expect("silent corruption is invisible to the supervisor");
        let wall_ns = t.elapsed().as_nanos();
        assert_eq!(out.len(), clean_out.len(), "{name}: bit flip lost packets");
        assert_ne!(
            out, clean_out,
            "{name}: flipping `{field}` bit 0 must be observable"
        );
        assert_eq!(
            out.len() as u64 + sw.drops(),
            n as u64,
            "{name}: bit-flip run out of balance"
        );
        outcomes.push(ChaosOutcome {
            scenario: "bit_flip".into(),
            workload: name.into(),
            packets: n,
            shards: SHARDS,
            outcome: "ok".into(),
            faulted_shard: None,
            cause: format!("bit_flip({field}, bit 0)"),
            transmitted: out.len() as u64,
            dropped: sw.drops(),
            lost_in_fault: 0,
            survivors: SHARDS,
            wall_ns,
        });
    }

    for o in &outcomes {
        assert!(o.conserved(), "{}: {:?} out of balance", o.scenario, o);
    }
    outcomes
}

/// The E13 scheduling disciplines, in emission order.
pub const SCHED_DISCIPLINES: [&str; 3] = ["wfq", "strict_priority", "shaping"];

/// One maximum-size packet (trace lengths are drawn from 64..1500): the
/// fairness slack WFQ is allowed, same bound as `tests/scheduling.rs`.
const SCHED_MAX_PKT: i64 = 1500;

/// Stateful egress for the scheduling runs: prefix sums over the
/// departure sequence, so any order or timing divergence between engines
/// (or between serial and sharded) corrupts `sum` and the exported
/// `total_sojourn` register — the departure-order-sensitive witness.
const SCHED_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                            int total_sojourn = 0;\n\
                            void sojourn(struct P pkt) {\n\
                              pkt.soj = pkt.now - pkt.enq_ts;\n\
                              total_sojourn = total_sojourn + pkt.soj;\n\
                              pkt.sum = total_sojourn;\n\
                            }";

/// One E13 scheduling workload's timed, verified comparison of the two
/// engines driving the programmable scheduler.
#[derive(Debug, Clone)]
pub struct SchedMeasurement {
    /// Discipline name (one of [`SCHED_DISCIPLINES`]).
    pub sched: String,
    /// Packets offered to the scheduler.
    pub packets: usize,
    /// Packets transmitted (== `packets`: E13 runs at full capacity).
    pub transmitted: u64,
    /// Wall-clock nanoseconds for the map-based reference path.
    pub map_ns: u128,
    /// Wall-clock nanoseconds for the slot-compiled fast path.
    pub slot_ns: u128,
}

impl SchedMeasurement {
    /// Packets per second through the map-based reference path.
    pub fn map_pps(&self) -> f64 {
        self.packets as f64 / (self.map_ns as f64 / 1e9)
    }

    /// Packets per second through the slot-compiled fast path.
    pub fn slot_pps(&self) -> f64 {
        self.packets as f64 / (self.slot_ns as f64 / 1e9)
    }

    /// Fast-path speedup over the reference path.
    pub fn speedup(&self) -> f64 {
        self.map_ns as f64 / self.slot_ns.max(1) as f64
    }
}

/// Rank transaction, scheduler spec, and trace for one E13 discipline.
fn sched_setup(
    discipline: &str,
    n: usize,
    seed: u64,
) -> (banzai::AtomPipeline, SchedSpec, Vec<Packet>) {
    match discipline {
        "wfq" => {
            // Flow-major burst: the most unfair arrival order; stfq's
            // `start` ranks must drain it byte-by-byte fair.
            const FLOWS: usize = 32;
            (
                compile_least("stfq"),
                SchedSpec::Pifo {
                    rank: "start".into(),
                },
                algorithms::sched::backlogged_burst(FLOWS, n.div_ceil(FLOWS), seed),
            )
        }
        "strict_priority" => (
            compile_least("stfq"),
            SchedSpec::Priority {
                class: "class".into(),
                rank: "start".into(),
            },
            algorithms::sched::classed_stfq_trace(n, 4, seed),
        ),
        "shaping" => (
            domino_compiler::compile(
                algorithms::sched::PACER_SOURCE,
                &Target::banzai(banzai::AtomKind::Nested),
            )
            .expect("pacer compiles on Nested"),
            SchedSpec::Shaping { rank: "dl".into() },
            algorithms::sched::pacer_trace(n, seed),
        ),
        other => panic!("unknown scheduling discipline `{other}`"),
    }
}

/// The discipline's scheduling invariant, checked over the verified
/// departure sequence before the measurement is recorded.
fn assert_sched_invariants(discipline: &str, deps: &[SchedDeparture]) {
    match discipline {
        "wfq" => {
            // SFQ fairness: every pair of still-backlogged flows stays
            // within one maximum packet of served bytes at every
            // departure (equivalently max-min over backlogged flows).
            let flows = deps
                .iter()
                .map(|d| d.pkt.expect("flow") as usize + 1)
                .max()
                .unwrap_or(0);
            let mut remaining = vec![0usize; flows];
            for d in deps {
                remaining[d.pkt.expect("flow") as usize] += 1;
            }
            let mut served = vec![0i64; flows];
            for d in deps {
                let flow = d.pkt.expect("flow") as usize;
                served[flow] += i64::from(d.pkt.expect("length"));
                remaining[flow] -= 1;
                let (mut lo, mut hi) = (i64::MAX, i64::MIN);
                for f in 0..flows {
                    if remaining[f] > 0 {
                        lo = lo.min(served[f]);
                        hi = hi.max(served[f]);
                    }
                }
                assert!(
                    lo == i64::MAX || hi - lo <= SCHED_MAX_PKT,
                    "wfq: backlogged flows {hi} vs {lo} bytes served — more \
                     than one max packet apart after arrival {}",
                    d.arrival
                );
            }
        }
        "strict_priority" => {
            // One co-resident burst, so priority is absolute: strictly
            // increasing (class, rank, arrival) departure order.
            for w in deps.windows(2) {
                assert!(
                    (w[0].key, w[0].arrival) < (w[1].key, w[1].arrival),
                    "strict_priority: departure order not increasing in \
                     (class, rank, arrival): {:?} then {:?}",
                    (w[0].key, w[0].arrival),
                    (w[1].key, w[1].arrival)
                );
            }
        }
        "shaping" => {
            // Never before the programmed earliest-departure cycle, link
            // serial (strictly increasing cycles), per-flow spacing at
            // least the pacer's GAP.
            let mut prev_cycle = i64::MIN;
            let mut last_dep: std::collections::HashMap<i32, i64> = Default::default();
            for d in deps {
                assert!(
                    d.departure >= d.key.rank,
                    "shaping: departed at {} before its EDT {}",
                    d.departure,
                    d.key.rank
                );
                assert!(d.departure > prev_cycle, "shaping: link not serial");
                prev_cycle = d.departure;
                let flow = d.pkt.expect("flow");
                if let Some(prev) = last_dep.insert(flow, d.departure) {
                    assert!(
                        d.departure - prev >= i64::from(algorithms::sched::PACER_GAP),
                        "shaping: flow {flow} released {prev} then {} — under GAP",
                        d.departure
                    );
                }
            }
        }
        other => panic!("unknown scheduling discipline `{other}`"),
    }
}

/// E13 — drives one scheduling discipline (rank transaction + PIFO)
/// through `switch.run(trace).scheduled().collect()` on both engines and returns the
/// timed, verified measurement. The queue capacity equals the trace
/// length, so the run is lossless and the whole burst is co-resident —
/// scheduling order is fully observable.
///
/// # Panics
///
/// Panics if the engines diverge on any departure (packet, key, arrival,
/// or departure cycle), counter, or exported state; if the untimed 4-way
/// sharded re-run is not bit-identical to serial; or if the departure
/// sequence violates the discipline's scheduling invariant — the
/// measurement doubles as a differential test and an invariant witness.
pub fn sched_workload(discipline: &str, n: usize, seed: u64) -> SchedMeasurement {
    let (ingress, spec, trace) = sched_setup(discipline, n, seed);
    let egress = domino_compiler::compile(SCHED_EGRESS, &Target::banzai(banzai::AtomKind::Raw))
        .expect("sojourn egress compiles on Raw");
    let capacity = trace.len();

    // Min over fresh-switch reps, for the same reason as `machine_workload`.
    let mut map_switch =
        Switch::new(ingress.clone(), egress.clone(), capacity).with_scheduler(spec.clone());
    let mut map_out = Vec::new();
    let mut map_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        map_switch =
            Switch::new(ingress.clone(), egress.clone(), capacity).with_scheduler(spec.clone());
        let t = Instant::now();
        map_out = map_switch
            .run(&trace)
            .scheduled()
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        map_ns = map_ns.min(t.elapsed().as_nanos());
    }

    let mut slot_switch = Switch::new_slot(&ingress, &egress, capacity)
        .expect("compiled pipelines are slot-executable")
        .with_scheduler(spec.clone());
    let mut slot_out = Vec::new();
    let mut slot_ns = u128::MAX;
    for _ in 0..ENGINE_REPS {
        slot_switch = Switch::new_slot(&ingress, &egress, capacity)
            .expect("compiled pipelines are slot-executable")
            .with_scheduler(spec.clone());
        let t = Instant::now();
        slot_out = slot_switch
            .run(&trace)
            .scheduled()
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");
        slot_ns = slot_ns.min(t.elapsed().as_nanos());
    }

    assert_eq!(
        map_out, slot_out,
        "{discipline}: engines diverged on departures"
    );
    assert_eq!(
        map_switch.transmitted(),
        slot_switch.transmitted(),
        "{discipline}: transmit counts diverged"
    );
    assert_eq!(
        map_switch.drop_counters(),
        slot_switch.drop_counters(),
        "{discipline}: drop counters diverged"
    );
    assert_eq!(
        map_switch.export_ingress_state(),
        slot_switch.export_ingress_state(),
        "{discipline}: ingress state diverged"
    );
    assert_eq!(
        map_switch.export_egress_state(),
        slot_switch.export_egress_state(),
        "{discipline}: egress state diverged"
    );

    // The sharded scheduler must reproduce the serial run bit-for-bit
    // (untimed: this is the correctness witness, not the timing).
    let cfg = ShardConfig::new(4)
        .with_capacity(capacity)
        .with_scheduler(spec);
    let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, cfg)
        .expect("compiled pipelines are slot-executable");
    let sharded_out = sharded
        .run(&trace)
        .scheduled()
        .collect()
        .expect("no faults armed");
    assert_eq!(
        sharded_out, slot_out,
        "{discipline}: sharded departures diverged from serial"
    );
    assert_eq!(
        sharded.drop_counters(),
        slot_switch.drop_counters().clone(),
        "{discipline}: sharded drop counters diverged"
    );
    assert_eq!(
        sharded.export_sched_egress_state().expect("sched ran"),
        slot_switch.export_egress_state(),
        "{discipline}: sharded egress state diverged"
    );

    assert_eq!(
        slot_out.len(),
        trace.len(),
        "{discipline}: lossless at full capacity"
    );
    assert_sched_invariants(discipline, &slot_out);

    SchedMeasurement {
        sched: discipline.to_string(),
        packets: trace.len(),
        transmitted: slot_switch.transmitted(),
        map_ns,
        slot_ns,
    }
}

/// One E14 streaming-ingestion run: the Figure-1 switch pulled from a
/// generator [`banzai::GenSource`] through the bounded-memory
/// `run(..).for_each(..)` path, with the process's peak RSS sampled
/// before and after.
///
/// The point of the row is the memory bound: `n` packets flow through
/// without ever materializing a `Vec<Packet>` on either side, so
/// [`StreamMeasurement::rss_growth_kb`] stays flat no matter how large
/// `n` is — the witness that the unified run API actually streams.
#[derive(Debug, Clone)]
pub struct StreamMeasurement {
    /// Packets offered by the generator source.
    pub packets: usize,
    /// Packets that reached the sink.
    pub transmitted: u64,
    /// Packets under typed drop counters.
    pub dropped: u64,
    /// Wall-clock nanoseconds for the streamed run.
    pub wall_ns: u128,
    /// Peak RSS (`VmHWM`) in KiB before the run, if readable.
    pub rss_before_kb: Option<u64>,
    /// Peak RSS (`VmHWM`) in KiB after the run, if readable.
    pub rss_after_kb: Option<u64>,
}

impl StreamMeasurement {
    /// Packets per second through the streamed path.
    pub fn pps(&self) -> f64 {
        self.packets as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// How much the process's peak RSS grew across the run, in KiB
    /// (`None` where `/proc/self/status` is unavailable).
    pub fn rss_growth_kb(&self) -> Option<u64> {
        Some(self.rss_after_kb?.saturating_sub(self.rss_before_kb?))
    }
}

/// The process's peak resident set size (`VmHWM`) in KiB, read from
/// `/proc/self/status`. `None` on platforms without procfs — callers
/// treat an unreadable high-water mark as "cannot assert", not a failure.
pub fn max_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// E14 — streams `n` generator-born flowlet packets through the
/// slot-compiled Figure-1 switch via `run(source).for_each(sink)`: no
/// input trace and no output vector ever exist, so memory stays flat at
/// any `n`. The sink folds a checksum so the compiler cannot elide the
/// packets; conservation (`offered == transmitted + dropped`) is asserted
/// before the measurement is returned.
///
/// The generator produces the same bursty flowlet mix as
/// `algorithms::workload::flowlet_trace`, but derives each packet
/// arithmetically from its index (splitmix-style), so it needs no
/// materialized trace and no RNG state proportional to `n`.
///
/// # Panics
///
/// Panics if the books do not balance or the source under-delivers.
pub fn stream_workload(n: usize, seed: u64) -> StreamMeasurement {
    let ingress = compile_least("flowlet");
    let egress = banzai::AtomPipeline::passthrough("egress");
    let mut sw = Switch::new_slot(&ingress, &egress, 512)
        .expect("compiled pipelines are slot-executable")
        .with_drain_period(3);

    let rss_before_kb = max_rss_kb();
    let mut checksum = 0u64;
    let t = Instant::now();
    let stats = sw
        .run(banzai::GenSource::with_len(n as u64, move |i| {
            Some(flowlet_stream_packet(i, seed))
        }))
        .for_each(|pkt| {
            checksum ^= pkt.get("arrival").unwrap_or(0) as u64;
        })
        .expect("generator sources cannot fail mid-stream");
    let wall_ns = t.elapsed().as_nanos();
    let rss_after_kb = max_rss_kb();

    assert_eq!(stats.offered, n as u64, "stream: source under-delivered");
    assert_eq!(
        stats.transmitted + sw.drops(),
        n as u64,
        "stream: books out of balance"
    );

    StreamMeasurement {
        packets: n,
        transmitted: stats.transmitted,
        dropped: sw.drops(),
        wall_ns,
        rss_before_kb,
        rss_after_kb,
    }
}

/// The `i`-th packet of the E14 streaming workload: the flowlet-trace
/// field mix (bursty arrivals over a small flow space) derived purely
/// from the packet index, so any suffix of the stream can be regenerated
/// without storing anything.
fn flowlet_stream_packet(i: u64, seed: u64) -> Packet {
    // splitmix64: a full-avalanche index hash, the standard trick for
    // stateless deterministic streams.
    let mut z = i.wrapping_add(seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // ~15% of packets open a gap past the flowlet threshold; the clock is
    // index-derived (mean inter-arrival ≈ 4.5) so it needs no state.
    let gap = if z % 100 < 15 { 20 } else { 2 };
    Packet::new()
        .with("sport", (z % 16) as i32)
        .with("dport", 80 + ((z >> 8) % 4) as i32)
        .with("arrival", (i / 2) as i32 * 9 / 2 + gap)
        .with("new_hop", 0)
        .with("next_hop", 0)
        .with("id", 0)
}

/// The modeled speedup of each sweep row over the 1-shard row of the same
/// workload (`None` when no 1-shard row exists).
pub fn scaling_speedup(rows: &[ShardMeasurement], row: &ShardMeasurement) -> Option<f64> {
    let base = rows
        .iter()
        .find(|r| r.workload == row.workload && r.requested == 1)?;
    Some(base.critical_ns() as f64 / row.critical_ns().max(1) as f64)
}

/// Row key of the E9 engine-speedup workload rows.
pub const WORKLOAD_KEY: &str = "name";

/// Row key of the E13 scheduling rows.
pub const SCHED_KEY: &str = "sched";

/// One parsed speedup row of a committed `BENCH_throughput.json` — just
/// the fields the speedup gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// The row's name under its key (a workload or a discipline).
    pub name: String,
    /// Committed slot-over-map speedup.
    pub speedup: f64,
}

/// Extracts the `(name, speedup)` rows keyed `key` ([`WORKLOAD_KEY`] or
/// [`SCHED_KEY`]) from a committed baseline document.
///
/// A deliberately minimal line scanner, not a JSON parser: the document
/// is emitted by [`render_json`] with one key per line, and a row is
/// emitted when a `speedup` line arrives with a pending name under
/// `key`. E9 rows pair their speedup with `name`, E13 rows with `sched`,
/// and the E10 scaling and E12 chaos rows use `workload`/`scenario`, so
/// each key sees only its own section.
pub fn parse_baseline(doc: &str, key: &str) -> Vec<BaselineRow> {
    let name_prefix = format!("\"{key}\": \"");
    let mut rows = Vec::new();
    let mut name: Option<String> = None;
    for line in doc.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix(name_prefix.as_str()) {
            name = rest.strip_suffix('"').map(str::to_string);
        } else if let Some(rest) = t.strip_prefix("\"speedup\": ") {
            if let (Some(n), Ok(v)) = (name.take(), rest.parse::<f64>()) {
                rows.push(BaselineRow {
                    name: n,
                    speedup: v,
                });
            }
        }
    }
    rows
}

/// The CI speedup gate for the rows keyed `key`: every row in the
/// committed baseline must be present in the fresh `(name, speedup)`
/// pairs and keep at least `tolerance` × its committed slot speedup.
/// Returns one message per violation (empty = gate passes), each
/// prefixed with the row's name (`sched/<name>` for scheduling rows).
/// Iterating the *baseline* means a row cannot be silently un-gated by
/// renaming or dropping it from the harness; fresh rows not yet in the
/// baseline are not gated. Speedups are host-relative ratios, so the
/// gate is meaningful across runner hardware; `tolerance` absorbs
/// measurement noise.
pub fn check_regressions(
    key: &str,
    fresh: &[(&str, f64)],
    baseline: &[BaselineRow],
    tolerance: f64,
) -> Vec<String> {
    baseline
        .iter()
        .filter_map(|base| {
            let label = if key == WORKLOAD_KEY {
                base.name.clone()
            } else {
                format!("{key}/{}", base.name)
            };
            let Some(&(_, speedup)) = fresh.iter().find(|(name, _)| *name == base.name) else {
                return Some(format!(
                    "{label}: row is in the committed baseline but missing from \
                     the fresh run — renamed or dropped? (update the baseline \
                     deliberately instead)"
                ));
            };
            let floor = base.speedup * tolerance;
            (speedup < floor).then(|| {
                format!(
                    "{label}: slot speedup {speedup:.2}x regressed below {floor:.2}x \
                     (tolerance {tolerance} x committed {:.2}x)",
                    base.speedup
                )
            })
        })
        .collect()
}

/// One parsed E10 scaling row of a committed `BENCH_throughput.json` —
/// the fields the scaling regression gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingBaselineRow {
    /// Workload name.
    pub workload: String,
    /// Shards requested in the committed row.
    pub shards: usize,
    /// Shards the committed plan actually granted. This is the
    /// un-fallback gate: a `Replicable` workload that regresses to a
    /// 1-shard fallback shows up here as `fresh.effective <
    /// base.effective` — an exact structural check, immune to timing
    /// noise.
    pub effective: usize,
    /// Committed modeled speedup over the workload's own 1-shard row
    /// (`None` for the 1-shard row itself).
    pub speedup: Option<f64>,
}

/// Extracts the E10 scaling rows from a committed baseline document.
///
/// The same deliberately minimal line scanner as [`parse_baseline`]:
/// only scaling rows carry the `effective_shards` key, and a row is
/// emitted when its `modeled_speedup_vs_1shard` line arrives — chaos
/// rows have `workload`/`shards` but neither of those keys, so they
/// never emit.
pub fn parse_scaling_baseline(doc: &str) -> Vec<ScalingBaselineRow> {
    let mut rows = Vec::new();
    let mut workload: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut effective: Option<usize> = None;
    for line in doc.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix("\"workload\": \"") {
            workload = rest.strip_suffix('"').map(str::to_string);
        } else if let Some(rest) = t.strip_prefix("\"shards\": ") {
            shards = rest.parse().ok();
        } else if let Some(rest) = t.strip_prefix("\"effective_shards\": ") {
            effective = rest.parse().ok();
        } else if let Some(rest) = t.strip_prefix("\"modeled_speedup_vs_1shard\": ") {
            if let (Some(w), Some(s), Some(e)) = (workload.take(), shards.take(), effective.take())
            {
                rows.push(ScalingBaselineRow {
                    workload: w,
                    shards: s,
                    effective: e,
                    speedup: rest.parse().ok(),
                });
            }
        }
    }
    rows
}

/// The E10 half of the CI gate: every committed scaling row must be
/// present in the fresh sweep, keep its effective shard count, and keep
/// at least `tolerance` × its committed modeled speedup. Returns one
/// message per violation (empty = gate passes).
///
/// The effective-shards check is exact (no tolerance): a workload that
/// the planner un-partitions — say `heavy_hitters` regressing from the
/// `Replicable` tier to a 1-shard fallback — fails the build even if
/// the 1-shard run happens to be fast.
pub fn check_scaling_regressions(
    fresh: &[ShardMeasurement],
    baseline: &[ScalingBaselineRow],
    tolerance: f64,
) -> Vec<String> {
    baseline
        .iter()
        .filter_map(|base| {
            let Some(m) = fresh
                .iter()
                .find(|m| m.workload == base.workload && m.requested == base.shards)
            else {
                return Some(format!(
                    "{}@{}: scaling row is in the committed baseline but missing \
                     from the fresh sweep — renamed or dropped? (update the \
                     baseline deliberately instead)",
                    base.workload, base.shards
                ));
            };
            if m.effective < base.effective {
                return Some(format!(
                    "{}@{}: plan granted {} effective shard(s), committed baseline \
                     granted {} — the workload regressed to a coarser partition \
                     tier ({}{})",
                    base.workload,
                    base.shards,
                    m.effective,
                    base.effective,
                    m.tier,
                    m.fallback
                        .as_deref()
                        .map(|why| format!(": {why}"))
                        .unwrap_or_default()
                ));
            }
            let (Some(base_speedup), Some(fresh_speedup)) =
                (base.speedup, scaling_speedup(fresh, m))
            else {
                return None; // 1-shard anchor rows carry no speedup
            };
            let floor = base_speedup * tolerance;
            if fresh_speedup < floor {
                Some(format!(
                    "{}@{}: modeled speedup {fresh_speedup:.2}x regressed below \
                     {floor:.2}x (tolerance {tolerance} x committed {base_speedup:.2}x)",
                    base.workload, base.shards
                ))
            } else {
                None
            }
        })
        .collect()
}

/// Renders the measurements as the machine-readable `BENCH_throughput.json`
/// document (hand-rolled: the build environment is offline, no serde).
///
/// The `workloads` section (E9, keyed `name`) is what
/// [`parse_baseline`] reads back for the regression gate; the `scaling`
/// section (E10, keyed `workload`) records the shard sweep with both
/// wall-clock and critical-path numbers, plus `host_cores` so readers can
/// judge which of the two is meaningful on the recording machine. The
/// `chaos` section (E12, keyed `scenario` — deliberately *not* `name`, so
/// the baseline scanner skips it) records the fault-injection outcomes.
/// The `sched` section (E13, keyed `sched`) records the scheduling
/// disciplines and is what [`parse_baseline`] reads back under
/// [`SCHED_KEY`]. The
/// `stream` section (E14, keyed `mode`) records the bounded-memory
/// streaming runs with their peak-RSS growth; no scanner reads it back —
/// its gate is the hard RSS assertion in the binary, not a speedup ratio.
pub fn render_json(
    measurements: &[Measurement],
    scaling: &[ShardMeasurement],
    chaos: &[ChaosOutcome],
    sched: &[SchedMeasurement],
    stream: &[StreamMeasurement],
    host_cores: usize,
) -> String {
    let rows: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"packets\": {},\n      \
                 \"map_ns\": {},\n      \"slot_ns\": {},\n      \
                 \"map_pkts_per_sec\": {:.0},\n      \"slot_pkts_per_sec\": {:.0},\n      \
                 \"speedup\": {:.2},\n      \"identical\": true\n    }}",
                m.name,
                m.packets,
                m.map_ns,
                m.slot_ns,
                m.map_pps(),
                m.slot_pps(),
                m.speedup()
            )
        })
        .collect();
    let scaling_rows: Vec<String> = scaling
        .iter()
        .map(|s| {
            let shard_ns: Vec<String> =
                s.timings.shard_ns.iter().map(|ns| ns.to_string()).collect();
            let speedup = scaling_speedup(scaling, s)
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "null".to_string());
            let fallback = s
                .fallback
                .as_deref()
                .map(|why| format!("\"{}\"", why.replace('"', "'")))
                .unwrap_or_else(|| "null".to_string());
            format!(
                "    {{\n      \"workload\": \"{}\",\n      \"packets\": {},\n      \
                 \"shards\": {},\n      \"effective_shards\": {},\n      \
                 \"tier\": \"{}\",\n      \
                 \"wall_ns\": {},\n      \"steer_ns\": {},\n      \"merge_ns\": {},\n      \
                 \"shard_ns\": [{}],\n      \"critical_ns\": {},\n      \
                 \"modeled_pkts_per_sec\": {:.0},\n      \"wall_pkts_per_sec\": {:.0},\n      \
                 \"modeled_speedup_vs_1shard\": {},\n      \"fallback\": {},\n      \
                 \"identical\": true\n    }}",
                s.workload,
                s.packets,
                s.requested,
                s.effective,
                s.tier,
                s.wall_ns,
                s.timings.steer_ns,
                s.timings.merge_ns,
                shard_ns.join(", "),
                s.critical_ns(),
                s.modeled_pps(),
                s.wall_pps(),
                speedup,
                fallback
            )
        })
        .collect();
    let chaos_rows: Vec<String> = chaos
        .iter()
        .map(|c| {
            let shard = c
                .faulted_shard
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".to_string());
            format!(
                "    {{\n      \"scenario\": \"{}\",\n      \"workload\": \"{}\",\n      \
                 \"packets\": {},\n      \"shards\": {},\n      \"outcome\": \"{}\",\n      \
                 \"faulted_shard\": {},\n      \"cause\": \"{}\",\n      \
                 \"transmitted\": {},\n      \"dropped\": {},\n      \
                 \"lost_in_fault\": {},\n      \"survivors\": {},\n      \
                 \"wall_ns\": {},\n      \"conserved\": {}\n    }}",
                c.scenario,
                c.workload,
                c.packets,
                c.shards,
                c.outcome,
                shard,
                c.cause.replace('"', "'").replace('\n', " "),
                c.transmitted,
                c.dropped,
                c.lost_in_fault,
                c.survivors,
                c.wall_ns,
                c.conserved()
            )
        })
        .collect();
    let sched_rows: Vec<String> = sched
        .iter()
        .map(|m| {
            format!(
                "    {{\n      \"sched\": \"{}\",\n      \"packets\": {},\n      \
                 \"transmitted\": {},\n      \
                 \"map_ns\": {},\n      \"slot_ns\": {},\n      \
                 \"map_pkts_per_sec\": {:.0},\n      \"slot_pkts_per_sec\": {:.0},\n      \
                 \"speedup\": {:.2},\n      \"identical\": true\n    }}",
                m.sched,
                m.packets,
                m.transmitted,
                m.map_ns,
                m.slot_ns,
                m.map_pps(),
                m.slot_pps(),
                m.speedup()
            )
        })
        .collect();
    let stream_rows: Vec<String> = stream
        .iter()
        .map(|m| {
            let opt = |v: Option<u64>| v.map(|k| k.to_string()).unwrap_or_else(|| "null".into());
            format!(
                "    {{\n      \"mode\": \"generator\",\n      \"packets\": {},\n      \
                 \"transmitted\": {},\n      \"dropped\": {},\n      \"wall_ns\": {},\n      \
                 \"pkts_per_sec\": {:.0},\n      \"rss_before_kb\": {},\n      \
                 \"rss_after_kb\": {},\n      \"rss_growth_kb\": {}\n    }}",
                m.packets,
                m.transmitted,
                m.dropped,
                m.wall_ns,
                m.pps(),
                opt(m.rss_before_kb),
                opt(m.rss_after_kb),
                opt(m.rss_growth_kb())
            )
        })
        .collect();
    format!(
        "{{\n  \"suite\": \"throughput\",\n  \"engines\": [\"map\", \"slot\"],\n  \
         \"host_cores\": {},\n  \"workloads\": [\n{}\n  ],\n  \"scaling\": [\n{}\n  ],\n  \
         \"chaos\": [\n{}\n  ],\n  \"sched\": [\n{}\n  ],\n  \"stream\": [\n{}\n  ]\n}}\n",
        host_cores,
        rows.join(",\n"),
        scaling_rows.join(",\n"),
        chaos_rows.join(",\n"),
        sched_rows.join(",\n"),
        stream_rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_workload_verifies_and_measures() {
        let m = machine_workload("flowlet", 2_000, 0xBEEF);
        assert_eq!(m.packets, 2_000);
        assert!(m.map_ns > 0 && m.slot_ns > 0);
    }

    #[test]
    fn switch_workload_verifies_and_measures() {
        let m = switch_workload(1_500, 0xF00D);
        assert_eq!(m.name, "figure1_switch");
        assert!(m.map_ns > 0 && m.slot_ns > 0);
    }

    #[test]
    fn wire_workload_verifies_and_measures() {
        let m = wire_workload("flowlet", 1_500, 0xBEEF);
        assert_eq!(m.name, "wire_flowlet");
        assert_eq!(m.packets, 1_500);
        assert!(m.map_ns > 0 && m.slot_ns > 0);
    }

    #[test]
    fn wire_stress_accounts_for_every_frame() {
        let r = wire_stress(2_000, 0xF00D, 0.2);
        assert_eq!(r.frames, 2_000);
        let parse_drops: u64 = r.parse_drops.iter().map(|&(_, c)| c).sum();
        assert!(parse_drops > 0, "expected malformed frames to be dropped");
        assert_eq!(r.transmitted + r.queue_full + parse_drops, 2_000);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = Measurement {
            name: "flowlet".into(),
            packets: 10,
            map_ns: 100,
            slot_ns: 10,
        };
        let s = ShardMeasurement {
            workload: "flowlet".into(),
            packets: 10,
            requested: 2,
            effective: 2,
            wall_ns: 50,
            timings: banzai::ShardTimings {
                steer_ns: 5,
                shard_ns: vec![20, 25],
                merge_ns: 5,
            },
            tier: banzai::ShardTier::Exact,
            fallback: None,
        };
        let c = ChaosOutcome {
            scenario: "kill_worker".into(),
            workload: "flowlet".into(),
            packets: 10,
            shards: 4,
            outcome: "fault".into(),
            faulted_shard: Some(2),
            cause: "worker panicked: \"boom\"".into(),
            transmitted: 7,
            dropped: 1,
            lost_in_fault: 2,
            survivors: 3,
            wall_ns: 40,
        };
        let sm = SchedMeasurement {
            sched: "wfq".into(),
            packets: 10,
            transmitted: 10,
            map_ns: 80,
            slot_ns: 20,
        };
        let st = StreamMeasurement {
            packets: 10,
            transmitted: 9,
            dropped: 1,
            wall_ns: 100,
            rss_before_kb: Some(1000),
            rss_after_kb: Some(1004),
        };
        let doc = render_json(&[m], &[s], &[c], &[sm], &[st], 1);
        assert!(doc.contains("\"name\": \"flowlet\""), "{doc}");
        assert!(doc.contains("\"sched\": \"wfq\""), "{doc}");
        assert!(doc.contains("\"speedup\": 4.00"), "{doc}");
        assert!(doc.contains("\"speedup\": 10.00"), "{doc}");
        assert!(doc.contains("\"workload\": \"flowlet\""), "{doc}");
        assert!(doc.contains("\"tier\": \"Exact\""), "{doc}");
        assert!(doc.contains("\"critical_ns\": 25"), "{doc}");
        assert!(doc.contains("\"host_cores\": 1"), "{doc}");
        assert!(doc.contains("\"scenario\": \"kill_worker\""), "{doc}");
        assert!(doc.contains("\"faulted_shard\": 2"), "{doc}");
        assert!(doc.contains("\"conserved\": true"), "{doc}");
        // Quotes inside causes are sanitized so the document stays valid.
        assert!(doc.contains("worker panicked: 'boom'"), "{doc}");
        assert!(doc.contains("\"mode\": \"generator\""), "{doc}");
        assert!(doc.contains("\"rss_growth_kb\": 4"), "{doc}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn stream_workload_balances_and_stays_bounded() {
        let m = stream_workload(50_000, 0xE14);
        assert_eq!(m.packets, 50_000);
        assert_eq!(m.transmitted + m.dropped, 50_000);
        assert!(m.wall_ns > 0);
        // procfs is available on every host this suite targets; if it
        // ever is not, the binary's RSS gate degrades to unasserted.
        if let Some(growth) = m.rss_growth_kb() {
            // 50k packets materialized twice (trace + outputs) would be
            // several MB; the streamed run must stay far under that.
            assert!(growth < 512 * 1024, "streamed run grew {growth} KiB");
        }
    }

    #[test]
    fn stream_generator_is_deterministic() {
        let a: Vec<Packet> = (0..64).map(|i| flowlet_stream_packet(i, 7)).collect();
        let b: Vec<Packet> = (0..64).map(|i| flowlet_stream_packet(i, 7)).collect();
        assert_eq!(a, b);
        let c: Vec<Packet> = (0..64).map(|i| flowlet_stream_packet(i, 8)).collect();
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn shard_sweep_verifies_and_scales_bookkeeping() {
        let rows = shard_sweep("flowlet", 3_000, 0xF10, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].effective, 1);
        assert_eq!(rows[1].effective, 2);
        assert_eq!(rows[1].tier, banzai::ShardTier::Exact);
        assert!(rows[1].fallback.is_none());
        assert_eq!(rows[1].timings.shard_ns.len(), 2);
        assert!(scaling_speedup(&rows, &rows[1]).is_some());
    }

    #[test]
    fn shard_sweep_replicates_sketch_workloads() {
        // heavy_hitters carries a count-min sketch indexed by per-row
        // hashes: the exact tier rejects it, the replica tier shards it.
        let rows = shard_sweep("heavy_hitters", 2_000, 0xF12, &[1, 4]);
        assert_eq!(rows[1].effective, 4, "{:?}", rows[1].fallback);
        assert_eq!(rows[1].tier, banzai::ShardTier::Replicable);
        assert!(rows[1].fallback.is_none());
        assert_eq!(rows[1].timings.shard_ns.len(), 4);
    }

    #[test]
    fn shard_sweep_records_fallback_for_unpartitionable_state() {
        let rows = shard_sweep("rcp", 1_000, 0xF11, &[4]);
        assert_eq!(rows[0].effective, 1);
        assert_eq!(rows[0].tier, banzai::ShardTier::Fallback);
        // The diagnostic must name the tier decision: why the exact
        // tier rejected it AND why the replica tier rejected it.
        let why = rows[0].fallback.as_deref().unwrap();
        assert!(why.contains("not Exact-partitionable"), "{why}");
        assert!(why.contains("not Replicable"), "{why}");
        assert!(why.contains("scalar state"), "{why}");
    }

    #[test]
    fn chaos_suite_verifies_all_four_scenarios() {
        let outcomes = chaos_suite("flowlet", 2_000, 0xC405);
        let scenarios: Vec<&str> = outcomes.iter().map(|o| o.scenario.as_str()).collect();
        assert_eq!(
            scenarios,
            ["kill_worker", "stall_worker", "overload_shed", "bit_flip"]
        );
        for o in &outcomes {
            assert!(o.conserved(), "{:?}", o);
        }
        assert_eq!(outcomes[0].outcome, "fault");
        assert!(outcomes[0].lost_in_fault > 0, "a kill must cost packets");
        assert_eq!(outcomes[2].outcome, "ok");
        assert!(outcomes[2].dropped > 0, "shedding must count drops");
    }

    #[test]
    fn baseline_roundtrips_through_the_json_emitter() {
        let ms = vec![
            Measurement {
                name: "flowlet".into(),
                packets: 10,
                map_ns: 100,
                slot_ns: 10,
            },
            Measurement {
                name: "figure1_switch".into(),
                packets: 10,
                map_ns: 30,
                slot_ns: 20,
            },
        ];
        // Chaos rows ride in the same document but are keyed `scenario`,
        // not `name` — the baseline scanner must skip them.
        let chaos = vec![ChaosOutcome {
            scenario: "overload_shed".into(),
            workload: "flowlet".into(),
            packets: 10,
            shards: 4,
            outcome: "ok".into(),
            faulted_shard: None,
            cause: "none".into(),
            transmitted: 8,
            dropped: 2,
            lost_in_fault: 0,
            survivors: 4,
            wall_ns: 40,
        }];
        // …and sched rows are keyed `sched`, also skipped by this scanner.
        let sched = vec![SchedMeasurement {
            sched: "wfq".into(),
            packets: 10,
            transmitted: 10,
            map_ns: 90,
            slot_ns: 30,
        }];
        let parsed = parse_baseline(&render_json(&ms, &[], &chaos, &sched, &[], 1), WORKLOAD_KEY);
        assert_eq!(
            parsed,
            vec![
                BaselineRow {
                    name: "flowlet".into(),
                    speedup: 10.0
                },
                BaselineRow {
                    name: "figure1_switch".into(),
                    speedup: 1.5
                },
            ]
        );
    }

    #[test]
    fn regression_gate_trips_only_below_tolerance() {
        let baseline = vec![BaselineRow {
            name: "flowlet".into(),
            speedup: 20.0,
        }];
        let fresh_ok = Measurement {
            name: "flowlet".into(),
            packets: 10,
            map_ns: 110,
            slot_ns: 10, // 11x ≥ 0.5 × 20x
        };
        let gate = |m: &Measurement| {
            check_regressions(
                WORKLOAD_KEY,
                &[(m.name.as_str(), m.speedup())],
                &baseline,
                0.5,
            )
        };
        assert!(gate(&fresh_ok).is_empty());
        let fresh_bad = Measurement {
            name: "flowlet".into(),
            packets: 10,
            map_ns: 90,
            slot_ns: 10, // 9x < 0.5 × 20x
        };
        let failures = gate(&fresh_bad);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{}", failures[0]);
        // Workloads absent from the baseline are not gated…
        let fresh_new = Measurement {
            name: "brand_new".into(),
            packets: 10,
            map_ns: 10,
            slot_ns: 10,
        };
        let failures = gate(&fresh_new);
        // …but a baseline workload missing from the fresh run trips the
        // gate: dropping/renaming a workload cannot silently un-gate it.
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("missing from the fresh run"),
            "{}",
            failures[0]
        );
    }

    fn scaling_row(
        workload: &str,
        requested: usize,
        effective: usize,
        busy_ns: u128,
        tier: banzai::ShardTier,
    ) -> ShardMeasurement {
        ShardMeasurement {
            workload: workload.into(),
            packets: 10,
            requested,
            effective,
            wall_ns: busy_ns,
            timings: banzai::ShardTimings {
                steer_ns: 1,
                shard_ns: vec![busy_ns; effective],
                merge_ns: 1,
            },
            tier,
            fallback: None,
        }
    }

    #[test]
    fn scaling_baseline_roundtrips_through_the_json_emitter() {
        let rows = vec![
            scaling_row("heavy_hitters", 1, 1, 400, banzai::ShardTier::Replicable),
            scaling_row("heavy_hitters", 4, 4, 100, banzai::ShardTier::Replicable),
        ];
        // Chaos rows carry `workload` and `shards` keys too; the scanner
        // must not emit rows for them (they lack `effective_shards` and
        // `modeled_speedup_vs_1shard`).
        let chaos = vec![ChaosOutcome {
            scenario: "kill_worker".into(),
            workload: "flowlet".into(),
            packets: 10,
            shards: 4,
            outcome: "fault".into(),
            faulted_shard: Some(1),
            cause: "kill".into(),
            transmitted: 7,
            dropped: 1,
            lost_in_fault: 2,
            survivors: 3,
            wall_ns: 40,
        }];
        let parsed = parse_scaling_baseline(&render_json(&[], &rows, &chaos, &[], &[], 1));
        assert_eq!(
            parsed,
            vec![
                ScalingBaselineRow {
                    workload: "heavy_hitters".into(),
                    shards: 1,
                    effective: 1,
                    // The 1-shard anchor is its own base, so the emitter
                    // records 1.00 rather than null.
                    speedup: Some(1.0),
                },
                ScalingBaselineRow {
                    workload: "heavy_hitters".into(),
                    shards: 4,
                    effective: 4,
                    speedup: Some(4.0),
                },
            ]
        );
    }

    #[test]
    fn scaling_gate_trips_on_fallback_and_slowdown() {
        let baseline = vec![
            ScalingBaselineRow {
                workload: "heavy_hitters".into(),
                shards: 1,
                effective: 1,
                speedup: None,
            },
            ScalingBaselineRow {
                workload: "heavy_hitters".into(),
                shards: 4,
                effective: 4,
                speedup: Some(4.0),
            },
        ];
        let fresh_ok = vec![
            scaling_row("heavy_hitters", 1, 1, 400, banzai::ShardTier::Replicable),
            scaling_row("heavy_hitters", 4, 4, 130, banzai::ShardTier::Replicable),
        ];
        assert!(check_scaling_regressions(&fresh_ok, &baseline, 0.5).is_empty());

        // Regressing to a 1-shard fallback is an exact structural trip,
        // even when the fallback run is fast.
        let mut fallback_row = scaling_row("heavy_hitters", 4, 1, 10, banzai::ShardTier::Fallback);
        fallback_row.fallback = Some("not Replicable: scalar state".into());
        let fresh_fallback = vec![
            scaling_row("heavy_hitters", 1, 1, 400, banzai::ShardTier::Fallback),
            fallback_row,
        ];
        let failures = check_scaling_regressions(&fresh_fallback, &baseline, 0.5);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("coarser partition tier"),
            "{failures:?}"
        );
        assert!(failures[0].contains("not Replicable"), "{failures:?}");

        // A >tolerance modeled slowdown trips too.
        let fresh_slow = vec![
            scaling_row("heavy_hitters", 1, 1, 400, banzai::ShardTier::Replicable),
            scaling_row("heavy_hitters", 4, 4, 300, banzai::ShardTier::Replicable),
        ];
        let failures = check_scaling_regressions(&fresh_slow, &baseline, 0.5);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("regressed"), "{failures:?}");

        // A committed row missing from the fresh sweep trips.
        let failures = check_scaling_regressions(&fresh_ok[..1], &baseline, 0.5);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn sched_workloads_verify_and_measure() {
        // Small but real: each discipline runs both engines, the 4-way
        // sharded re-run, and its scheduling invariant.
        for discipline in SCHED_DISCIPLINES {
            let m = sched_workload(discipline, 800, 0xE13);
            assert_eq!(m.sched, discipline);
            assert!(m.packets >= 800, "{discipline}");
            assert_eq!(m.transmitted, m.packets as u64, "{discipline}: lossless");
            assert!(m.map_ns > 0 && m.slot_ns > 0, "{discipline}");
        }
    }

    #[test]
    fn sched_baseline_roundtrips_through_the_json_emitter() {
        let sched = vec![
            SchedMeasurement {
                sched: "wfq".into(),
                packets: 10,
                transmitted: 10,
                map_ns: 100,
                slot_ns: 10,
            },
            SchedMeasurement {
                sched: "shaping".into(),
                packets: 10,
                transmitted: 10,
                map_ns: 30,
                slot_ns: 20,
            },
        ];
        // E9 rows ride in the same document, keyed `name` — the sched
        // scanner must skip them (and vice versa, tested above).
        let ms = vec![Measurement {
            name: "flowlet".into(),
            packets: 10,
            map_ns: 50,
            slot_ns: 10,
        }];
        let doc = render_json(&ms, &[], &[], &sched, &[], 1);
        let parsed = parse_baseline(&doc, SCHED_KEY);
        assert_eq!(
            parsed,
            vec![
                BaselineRow {
                    name: "wfq".into(),
                    speedup: 10.0
                },
                BaselineRow {
                    name: "shaping".into(),
                    speedup: 1.5
                },
            ]
        );
        // The E9 scanner still sees exactly its own row.
        assert_eq!(parse_baseline(&doc, WORKLOAD_KEY).len(), 1);
    }

    #[test]
    fn sched_gate_trips_only_below_tolerance() {
        let baseline = vec![BaselineRow {
            name: "wfq".into(),
            speedup: 8.0,
        }];
        let gate = |fresh: &[SchedMeasurement]| {
            let rows: Vec<(&str, f64)> = fresh
                .iter()
                .map(|m| (m.sched.as_str(), m.speedup()))
                .collect();
            check_regressions(SCHED_KEY, &rows, &baseline, 0.5)
        };
        let fresh_ok = SchedMeasurement {
            sched: "wfq".into(),
            packets: 10,
            transmitted: 10,
            map_ns: 50,
            slot_ns: 10, // 5x ≥ 0.5 × 8x
        };
        assert!(gate(&[fresh_ok]).is_empty());
        let fresh_bad = SchedMeasurement {
            sched: "wfq".into(),
            packets: 10,
            transmitted: 10,
            map_ns: 30,
            slot_ns: 10, // 3x < 0.5 × 8x
        };
        let failures = gate(&[fresh_bad]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{}", failures[0]);
        // A committed discipline missing from the fresh run trips.
        let failures = gate(&[]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"), "{}", failures[0]);
    }
}
