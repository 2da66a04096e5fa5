//! Property suite for the programmable scheduler (`banzai::pifo`).
//!
//! Three invariants, each over randomized geometry:
//!
//! * a PIFO is a **stable priority queue**: its pop sequence equals a
//!   stable sort of the admitted pushes by `(class, rank)` — arrival
//!   order breaking ties — for any rank distribution, tie density, and
//!   capacity, including under interleaved push/pop against a naive
//!   model;
//! * the sharded scheduling run (`run(..).scheduled().collect()` on a
//!   [`ShardedSwitch`]) is **bit-identical to serial** — departures, drop
//!   counters, and the state of a departure-order-sensitive egress —
//!   across disciplines, shard counts, capacities, and batch/ring
//!   geometries;
//! * **frame-born == packet-born**: a byte-frame run queues under the
//!   configured discipline exactly like the run of its parsed packets —
//!   same output bytes, drop counters, and state — at every drain period
//!   and capacity;
//! * **conservation under `SchedFull` pressure**: a rank scheduler at
//!   capacity `c` admits exactly `min(n, c)` of an `n`-packet burst and
//!   books the rest under the pinned `sched_full` reason, with
//!   `offered == transmitted + dropped` in every configuration;
//! * **the FIFO contract**: under `SchedSpec::Fifo` the switch's PIFO
//!   ignores whatever ranks the packets carry, departs a burst in arrival
//!   order, and books overflow under `queue_full`;
//! * **map == slot with unreferenced input fields**: input fields no
//!   pipeline names ride through the flat carrier bit-identical, under
//!   every discipline, on the serial switch (slot-native, independently
//!   compiled engines, and the packet-only adapter path) and on a
//!   2-shard switch.

use banzai::{
    deparse, encode, parse, AtomKind, AtomPipeline, DropReason, FrameSpec, Machine, Pifo,
    PipelineEngine, SchedKey, SchedSpec, Scheduler, ShardConfig, ShardedSwitch, SlotMachine,
    Switch, SwitchError, Target, WireConfig,
};
use domino_ir::{Packet, StateStore};
use proptest::prelude::*;

/// Per-flow counter: `c` is the flow's running packet count, so using it
/// as a rank produces dense cross-flow ties (every flow's k-th packet
/// shares rank k) — maximal tie-break stress.
const COUNTER: &str = "struct P { int flow; int c; };\nint counts[64] = {0};\n\
                       void count(struct P pkt) {\n\
                         counts[pkt.flow] = counts[pkt.flow] + 1;\n\
                         pkt.c = counts[pkt.flow];\n\
                       }";

/// Stateful egress whose outputs are prefix sums over the departure
/// sequence: any order or timing divergence corrupts `sum` and the
/// exported `total_sojourn` register.
const SOJOURN_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                              int total_sojourn = 0;\n\
                              void sojourn(struct P pkt) {\n\
                                pkt.soj = pkt.now - pkt.enq_ts;\n\
                                total_sojourn = total_sojourn + pkt.soj;\n\
                                pkt.sum = total_sojourn;\n\
                              }";

fn counter_pipeline() -> AtomPipeline {
    domino_compiler::compile(COUNTER, &Target::banzai(AtomKind::Raw)).unwrap()
}

/// The per-flow counter keyed on the `dport` wire field instead.
fn counter_pipeline_on_dport() -> AtomPipeline {
    let source = COUNTER.replace("flow", "dport");
    domino_compiler::compile(&source, &Target::banzai(AtomKind::Raw)).unwrap()
}

fn sojourn_pipeline() -> AtomPipeline {
    domino_compiler::compile(SOJOURN_EGRESS, &Target::banzai(AtomKind::Raw)).unwrap()
}

fn to_trace(flows: &[i32]) -> Vec<Packet> {
    flows
        .iter()
        .map(|&f| {
            Packet::new()
                .with("flow", f)
                .with("cls", f % 3)
                .with("c", 0)
        })
        .collect()
}

fn spec_of(sel: usize) -> SchedSpec {
    match sel {
        0 => SchedSpec::Pifo { rank: "c".into() },
        1 => SchedSpec::Priority {
            class: "cls".into(),
            rank: "c".into(),
        },
        _ => SchedSpec::Shaping { rank: "c".into() },
    }
}

fn capacity_of(sel: usize) -> usize {
    [0, 1, 17, 512][sel]
}

/// All four disciplines, keyed on the counter program's fields.
fn any_spec(sel: usize) -> SchedSpec {
    match sel {
        0 => SchedSpec::Fifo,
        1 => SchedSpec::Pifo { rank: "c".into() },
        2 => SchedSpec::Priority {
            class: "cls".into(),
            rank: "c".into(),
        },
        _ => SchedSpec::Shaping { rank: "c".into() },
    }
}

/// Names no pipeline here mentions, sorting before, between and after
/// the programs' own fields.
const EXTRA_FIELDS: [&str; 6] = ["aaa_tag", "b0", "d_extra", "m_mark", "soj_x", "zz_tail"];

/// The counter trace, each packet also carrying a random subset of
/// [`EXTRA_FIELDS`] with random values.
fn trace_with_extras(rows: &[(i32, Vec<(usize, i32)>)]) -> Vec<Packet> {
    rows.iter()
        .map(|(flow, extras)| {
            let mut pkt = Packet::new()
                .with("flow", *flow)
                .with("cls", flow % 3)
                .with("c", 0);
            for &(k, v) in extras {
                pkt.set(EXTRA_FIELDS[k], v);
            }
            pkt
        })
        .collect()
}

/// A packet-only engine: the slot engine behind the four required
/// methods alone, so a switch drives it through the default adapter —
/// the path an engine wrapper such as a tracer takes.
#[derive(Debug, Clone)]
struct PacketOnly(SlotMachine);

impl PipelineEngine for PacketOnly {
    fn build(pipeline: &AtomPipeline) -> Result<PacketOnly, SwitchError> {
        Ok(PacketOnly(
            SlotMachine::compile(pipeline).map_err(SwitchError::Build)?,
        ))
    }

    fn process(&mut self, pkt: Packet) -> Packet {
        self.0.process(pkt)
    }

    fn export_state(&self) -> StateStore {
        self.0.export_state()
    }

    fn import_state(&mut self, snapshot: &StateStore) {
        self.0.import_state(snapshot)
    }
}

/// What one serial switch run shows: its outputs (line-rate run) or
/// departures (burst run, as `Debug` text so every engine compares), the
/// typed drops and both states.
type Observed = (String, banzai::DropCounters, StateStore, StateStore);

fn observe<E: PipelineEngine>(
    sw: Switch<E>,
    trace: &[Packet],
    drain: u64,
    spec: &SchedSpec,
    burst: bool,
) -> Observed {
    let mut sw = sw.with_drain_period(drain).with_scheduler(spec.clone());
    let out = if burst {
        format!("{:?}", sw.run(trace).scheduled().collect().unwrap())
    } else {
        format!("{:?}", sw.run(trace).collect().unwrap())
    };
    (
        out,
        sw.drop_counters().clone(),
        sw.export_ingress_state(),
        sw.export_egress_state(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pop order == stable sort of the admitted pushes. Small key
    /// domains force heavy ties; the capacity draw covers rejection
    /// (bounded PIFOs refuse new pushes rather than displace).
    #[test]
    fn pifo_pop_order_is_the_stable_sort_of_admitted_pushes(
        keys in proptest::collection::vec((0..3i64, 0..6i64), 0..120),
        cap_frac in 0..=100usize,
    ) {
        let capacity = keys.len() * cap_frac / 100;
        let mut pifo: Pifo<usize> = Pifo::bounded(capacity);
        let mut admitted: Vec<(SchedKey, usize)> = Vec::new();
        for (i, &(class, rank)) in keys.iter().enumerate() {
            let key = SchedKey { class, rank };
            if pifo.push(key, i).is_ok() {
                admitted.push((key, i));
            }
        }
        prop_assert_eq!(admitted.len(), keys.len().min(capacity));

        let mut oracle = admitted;
        oracle.sort_by_key(|&(key, _)| key); // sort_by_key is stable: arrival breaks ties
        let mut popped = Vec::new();
        while let Some(entry) = pifo.pop() {
            popped.push(entry);
        }
        prop_assert_eq!(popped, oracle);
    }

    /// Interleaved push/pop against a naive model: at every step the
    /// PIFO pops the globally minimal (class, rank, arrival) element.
    #[test]
    fn pifo_interleaved_ops_match_the_naive_model(
        ops in proptest::collection::vec(
            proptest::option::of((0..4i64, 0..8i64)), 0..200),
    ) {
        let mut pifo: Pifo<u64> = Pifo::unbounded();
        let mut model: Vec<(SchedKey, u64)> = Vec::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                Some((class, rank)) => {
                    let key = SchedKey { class, rank };
                    prop_assert!(pifo.push(key, seq).is_ok());
                    model.push((key, seq));
                    seq += 1;
                }
                None => {
                    let expected = model
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &(key, s))| (key, s))
                        .map(|(i, _)| i)
                        .map(|i| model.remove(i));
                    prop_assert_eq!(pifo.pop(), expected);
                }
            }
            prop_assert_eq!(pifo.len(), model.len());
        }
    }

    /// The sharded scheduling run reproduces the serial one bit-for-bit:
    /// same departures (packets, keys, arrival and departure cycles),
    /// same typed drop counters, same egress register state — for every
    /// discipline, shard count, capacity, and feeder geometry.
    #[test]
    fn sharded_sched_run_is_bit_identical_to_serial(
        flows in proptest::collection::vec(0..64i32, 0..300),
        shards in 1..=6usize,
        spec_sel in 0..3usize,
        cap in 0..=3usize,
        batch in 1..=64usize,
        ring in 1..=8usize,
    ) {
        let ingress = counter_pipeline();
        let egress = sojourn_pipeline();
        let spec = spec_of(spec_sel);
        let capacity = capacity_of(cap);
        let trace = to_trace(&flows);

        let mut serial = Switch::new_slot(&ingress, &egress, capacity)
            .unwrap()
            .with_scheduler(spec.clone());
        let serial_out = serial.run(&trace).scheduled().collect()
        .expect("slice-backed sources cannot fail mid-stream");

        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity)
            .with_batch(batch)
            .with_ring(ring)
            .with_scheduler(spec);
        let mut sharded = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let sharded_out = sharded.run(&trace).scheduled().collect().expect("no faults armed");

        prop_assert_eq!(sharded_out, serial_out);
        prop_assert_eq!(sharded.transmitted(), serial.transmitted());
        prop_assert_eq!(sharded.drop_counters(), serial.drop_counters().clone());
        prop_assert_eq!(
            sharded.export_sched_egress_state().expect("sched ran"),
            serial.export_egress_state()
        );
    }

    /// Conservation under overflow pressure: a burst longer than the
    /// queue admits exactly `capacity` packets; the overflow is booked
    /// under `sched_full` (never `queue_full`) and the ledger balances.
    #[test]
    fn sched_full_pressure_conserves_packets(
        n in 0..250usize,
        shards in 1..=6usize,
        spec_sel in 0..3usize,
        cap in 0..=3usize,
    ) {
        let ingress = counter_pipeline();
        let egress = sojourn_pipeline();
        let capacity = capacity_of(cap);
        let flows: Vec<i32> = (0..n).map(|i| (i % 64) as i32).collect();
        let trace = to_trace(&flows);

        let cfg = ShardConfig::new(shards)
            .with_capacity(capacity)
            .with_scheduler(spec_of(spec_sel));
        let mut sw = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let out = sw.run(&trace).scheduled().collect().expect("no faults armed");

        let admitted = n.min(capacity);
        prop_assert_eq!(out.len(), admitted);
        prop_assert_eq!(sw.transmitted(), admitted as u64);
        let counters = sw.drop_counters();
        prop_assert_eq!(counters.get(DropReason::SchedFull), (n - admitted) as u64);
        prop_assert_eq!(counters.get(DropReason::QueueFull), 0);
        prop_assert_eq!(sw.transmitted() + sw.drops(), n as u64);
    }

    /// Frame-born runs honour the configured discipline: a switch fed
    /// encoded frames transmits exactly the bytes of its packet-born twin
    /// (the parsed packets, deparsed into their own frames), with the
    /// same per-reason drops and exported state — under every
    /// discipline, drain period 1–3, and capacities down to 1. The queue
    /// metadata rides a trailer, so departure order and timing show in
    /// the bytes.
    #[test]
    fn frame_born_equals_packet_born_under_every_discipline(
        flows in proptest::collection::vec((0..16u16, 0..48u16), 1..80),
        spec_sel in 0..4usize,
        drain in 1..=3usize,
        capacity in 1..=8usize,
    ) {
        let ingress = counter_pipeline_on_dport();
        let egress = AtomPipeline::passthrough("egress");
        let spec = match spec_sel {
            0 => SchedSpec::Fifo,
            1 => SchedSpec::Pifo { rank: "c".into() },
            2 => SchedSpec::Priority { class: "cls".into(), rank: "c".into() },
            _ => SchedSpec::Shaping { rank: "sport".into() },
        };
        let cfg = WireConfig::with_meta_fields(["c", "cls", "enq_ts", "now", "qdepth"]).unwrap();
        let frames: Vec<Vec<u8>> = flows
            .iter()
            .map(|&(dport, sport)| {
                let pkt = Packet::new().with("cls", (dport % 3) as i32);
                encode(&pkt, &cfg, &FrameSpec { dport, sport, ..FrameSpec::default() })
            })
            .collect();
        let parsed: Vec<_> = frames.iter().map(|f| parse(f, &cfg).unwrap()).collect();
        let packets: Vec<Packet> = parsed.iter().map(|wp| wp.pkt.clone()).collect();
        let build = || {
            Switch::new_slot(&ingress, &egress, capacity)
                .unwrap()
                .with_drain_period(drain as u64)
                .with_scheduler(spec.clone())
        };

        let mut packet_born = build();
        let expected: Vec<Vec<u8>> = packet_born
            .run(&packets)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream")
            .iter()
            .map(|p| deparse(p, &parsed[p.expect("enq_ts") as usize].layout))
            .collect();
        let mut frame_born = build();
        let got = frame_born
            .run_frames(&frames, &cfg)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");

        prop_assert_eq!(got, expected);
        prop_assert_eq!(frame_born.drop_counters(), packet_born.drop_counters());
        prop_assert_eq!(frame_born.transmitted(), packet_born.transmitted());
        prop_assert_eq!(frame_born.export_ingress_state(), packet_born.export_ingress_state());
        prop_assert_eq!(frame_born.export_egress_state(), packet_born.export_egress_state());
    }

    /// FIFO is the switch's PIFO under one constant key: a burst whose
    /// packets carry arbitrary values in a field named `rank` departs in
    /// arrival order, one per cycle from the burst's end. The first
    /// `capacity` packets are admitted; the rest are booked as
    /// `QueueFull`, never `SchedFull`.
    #[test]
    fn fifo_burst_departs_in_arrival_order_whatever_the_ranks(
        ranks in proptest::collection::vec(any::<i32>(), 0..120),
        capacity in 0..=130usize,
    ) {
        let mut sw = Switch::new(
            AtomPipeline::passthrough("in"),
            AtomPipeline::passthrough("out"),
            capacity,
        );
        let trace: Vec<Packet> = ranks.iter().map(|&r| Packet::new().with("rank", r)).collect();
        let deps = sw
            .run(&trace)
            .sched(SchedSpec::Fifo)
            .collect()
            .expect("slice-backed sources cannot fail mid-stream");

        let n = trace.len();
        let admitted = n.min(capacity);
        let arrivals: Vec<i64> = deps.iter().map(|d| d.arrival).collect();
        prop_assert_eq!(arrivals, (0..admitted as i64).collect::<Vec<_>>());
        for (i, d) in deps.iter().enumerate() {
            prop_assert_eq!(d.departure, (n + i) as i64);
            prop_assert_eq!(d.pkt.get("rank"), Some(ranks[i]));
        }
        let counters = sw.drop_counters();
        prop_assert_eq!(counters.get(DropReason::QueueFull), (n - admitted) as u64);
        prop_assert_eq!(counters.get(DropReason::SchedFull), 0);
    }

    /// Input fields no pipeline names come out bit-identical, and the
    /// slot switch equals the map reference on outputs or departures,
    /// per-reason drops and both states — under every discipline, drain
    /// period and capacity, whichever way the engines reach the carrier:
    /// slot-native through `new_slot`, two independently compiled slot
    /// engines through `from_engines`, or a packet-only wrapper through
    /// the default adapter.
    #[test]
    fn slot_switch_equals_map_switch_with_unreferenced_fields(
        rows in proptest::collection::vec(
            (0..64i32, proptest::collection::vec((0..6usize, any::<i32>()), 0..4)),
            0..60,
        ),
        spec_sel in 0..4usize,
        drain in 1..=3usize,
        capacity in 1..=8usize,
        burst in any::<bool>(),
    ) {
        let ingress = counter_pipeline();
        let egress = sojourn_pipeline();
        let trace = trace_with_extras(&rows);
        let spec = any_spec(spec_sel);
        let drain = drain as u64;

        let map = Switch::new(ingress.clone(), egress.clone(), capacity);
        let reference = observe(map, &trace, drain, &spec, burst);
        let slot = Switch::new_slot(&ingress, &egress, capacity).unwrap();
        prop_assert_eq!(&observe(slot, &trace, drain, &spec, burst), &reference);
        let split = Switch::from_engines(
            SlotMachine::compile(&ingress).unwrap(),
            SlotMachine::compile(&egress).unwrap(),
            capacity,
        );
        prop_assert_eq!(&observe(split, &trace, drain, &spec, burst), &reference);
        let adapted = Switch::from_engines(
            PacketOnly::build(&ingress).unwrap(),
            PacketOnly::build(&egress).unwrap(),
            capacity,
        );
        prop_assert_eq!(&observe(adapted, &trace, drain, &spec, burst), &reference);

        // The extra fields leave exactly as they arrived.
        if !burst {
            let mut sw = Switch::new_slot(&ingress, &egress, capacity)
                .unwrap()
                .with_drain_period(drain)
                .with_scheduler(spec.clone());
            for out in sw.run(&trace).collect().unwrap() {
                let input = &trace[out.expect("enq_ts") as usize];
                for name in EXTRA_FIELDS {
                    prop_assert_eq!(out.get(name), input.get(name));
                }
            }
        }
    }

    /// The same equality on a 2-shard switch: slot shards equal map
    /// shards through both the supervised `collect` and the inline
    /// `for_each`, with the unreferenced fields intact.
    #[test]
    fn sharded_slot_switch_equals_map_with_unreferenced_fields(
        rows in proptest::collection::vec(
            (0..64i32, proptest::collection::vec((0..6usize, any::<i32>()), 0..4)),
            0..120,
        ),
        spec_sel in 0..4usize,
        capacity in 1..=8usize,
        batch in 1..=16usize,
    ) {
        let ingress = counter_pipeline();
        let egress = AtomPipeline::passthrough("egress");
        let trace = trace_with_extras(&rows);
        let cfg = ShardConfig::new(2)
            .with_capacity(capacity)
            .with_batch(batch)
            .with_scheduler(any_spec(spec_sel));

        let mut map = ShardedSwitch::<Machine>::new(&ingress, &egress, cfg.clone()).unwrap();
        let mut slot = ShardedSwitch::new_slot(&ingress, &egress, cfg.clone()).unwrap();
        prop_assert_eq!(slot.plan().effective(), 2);
        let expected = map.run(&trace).collect().unwrap();
        prop_assert_eq!(&slot.run(&trace).collect().unwrap(), &expected);
        for out in &expected {
            let input = &trace[out.expect("enq_ts") as usize];
            for name in EXTRA_FIELDS {
                prop_assert_eq!(out.get(name), input.get(name));
            }
        }

        let mut streamed = ShardedSwitch::new_slot(&ingress, &egress, cfg).unwrap();
        let mut sunk = Vec::new();
        streamed.run(&trace).for_each(|p| sunk.push(p)).unwrap();
        prop_assert_eq!(&sunk, &expected);

        for sw in [&slot, &streamed] {
            prop_assert_eq!(sw.drop_counters(), map.drop_counters());
            prop_assert_eq!(sw.transmitted(), map.transmitted());
            prop_assert_eq!(
                sw.export_merged_ingress_state().unwrap(),
                map.export_merged_ingress_state().unwrap()
            );
            prop_assert_eq!(
                sw.export_merged_egress_state().unwrap(),
                map.export_merged_egress_state().unwrap()
            );
        }
    }
}
