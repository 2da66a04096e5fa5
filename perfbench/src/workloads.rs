//! The four workloads: their programs, inputs, switch builds, the timed
//! and traced runs, and the map-engine reference each run is judged by.

use crate::ledger::Clock;
use crate::oracle::{Books, Outcome, Outputs};
use banzai::pifo::{Pifo, SchedSpec, Scheduler};
use banzai::{
    AtomKind, AtomPipeline, FaultReport, FrameSliceSource, FrameSource, Machine, PacketSource,
    PipelineEngine, RunStats, ShardConfig, ShardedSwitch, SliceSource, SlotMachine, Switch,
    SwitchError, Target,
};
use bench::wiregen::{self, GenOptions};
use domino_ir::{Packet, StateStore};
use std::sync::Arc;
use std::time::Instant;

/// The FIFO workloads' drop-tail capacity (also `ShardConfig`'s default),
/// and Figure 1's drain period in cycles per packet.
const QUEUE_CAPACITY: usize = 512;
const FIGURE1_DRAIN: u64 = 3;
/// Flows of the PIFO workload's flow-major backlogged burst.
const PIFO_FLOWS: usize = 32;
/// Share of the wire workload's frames corrupted by a reject mutator.
const WIRE_MALFORM_RATE: f64 = 0.02;

/// Sojourn egress of the PIFO workload: a prefix sum over the departure
/// sequence, so any change of departure order or timing shows in `sum`
/// and in the exported `total_sojourn` register.
const SOJOURN_EGRESS: &str = "struct P { int enq_ts; int now; int qdepth; int soj; int sum; };\n\
                              int total_sojourn = 0;\n\
                              void sojourn(struct P pkt) {\n\
                                pkt.soj = pkt.now - pkt.enq_ts;\n\
                                total_sojourn = total_sojourn + pkt.soj;\n\
                                pkt.sum = total_sojourn;\n\
                              }";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1, packet-born: flowlet → drop-tail FIFO (drain 3) → codel_lut.
    Figure1,
    /// Byte-born heavy_hitters frames: parse → ingress → FIFO → deparse.
    Wire,
    /// stfq ranks into a bounded PIFO, burst then drain, sojourn egress.
    Pifo,
    /// One-worker `ShardedSwitch`: flowlet ingress, passthrough egress.
    Sharded,
}

/// A Domino program and the target it is compiled for.
#[derive(Debug, Clone)]
struct Program {
    source: &'static str,
    target: Target,
}

/// A pipeline slot: a Domino program, or the stateless passthrough.
#[derive(Debug, Clone)]
enum Stage {
    Domino(Program),
    Passthrough(&'static str),
}

/// A Table 4 algorithm on its least-expressive paper target (with the
/// look-up-table extension for `codel_lut`).
fn table4(name: &str) -> Stage {
    let algo = algorithms::by_name(name).expect("Table 4 algorithm");
    let kind = algo.paper.least_atom.expect("Table 4 algorithm maps");
    let target = if name == "codel_lut" {
        Target::banzai_with_lut(kind)
    } else {
        Target::banzai(kind)
    };
    Stage::Domino(Program {
        source: algo.source,
        target,
    })
}

/// The compiled ingress and egress pipelines of a workload.
#[derive(Debug, Clone)]
pub struct Programs {
    /// Ingress pipeline.
    pub ingress: AtomPipeline,
    /// Egress pipeline.
    pub egress: AtomPipeline,
}

impl Programs {
    /// Pipeline stages, ingress plus egress.
    pub fn stages(&self) -> usize {
        self.ingress.depth() + self.egress.depth()
    }

    /// Atoms, ingress plus egress.
    pub fn atoms(&self) -> usize {
        self.ingress.atom_count() + self.egress.atom_count()
    }
}

/// One set-up sample, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSample {
    /// `domino_ast::parse_and_check`.
    pub parse_check: f64,
    /// `domino_compiler::normalize_checked`.
    pub normalize: f64,
    /// `domino_compiler::lower` (codegen and atom synthesis).
    pub lower: f64,
    /// Switch construction, shard plan included.
    pub build: f64,
}

impl SetupSample {
    /// The whole sample: compile plus build.
    pub fn total(&self) -> f64 {
        self.parse_check + self.normalize + self.lower + self.build
    }

    /// Every phase times `f`.
    pub fn scaled(self, f: f64) -> SetupSample {
        SetupSample {
            parse_check: self.parse_check * f,
            normalize: self.normalize * f,
            lower: self.lower * f,
            build: self.build * f,
        }
    }
}

/// The workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The packet trace (empty for `Wire`).
    pub packets: Vec<Packet>,
    /// Frames and their trailer schema (`Wire` only).
    pub wire: Option<wiregen::WireTrace>,
}

impl Inputs {
    /// Generates about `n` packets from `seed`.
    pub fn generate(w: Workload, n: usize, seed: u64) -> Inputs {
        match w {
            Workload::Figure1 | Workload::Sharded => Inputs {
                packets: algorithms::by_name("flowlet").unwrap().trace(n, seed),
                wire: None,
            },
            Workload::Pifo => Inputs {
                packets: algorithms::sched::backlogged_burst(
                    PIFO_FLOWS,
                    n.div_ceil(PIFO_FLOWS),
                    seed,
                ),
                wire: None,
            },
            Workload::Wire => {
                let algo = algorithms::by_name("heavy_hitters").unwrap();
                // The program's output fields ride the metadata trailer,
                // so what it computed survives the deparser.
                let opts = GenOptions {
                    malform_rate: WIRE_MALFORM_RATE,
                    extra_meta: algo.output_fields.iter().map(|f| f.to_string()).collect(),
                    ..GenOptions::default()
                };
                Inputs {
                    packets: Vec::new(),
                    wire: Some(wiregen::wire_trace(&algo.trace(n, seed), seed, &opts)),
                }
            }
        }
    }

    /// Items offered to the switch.
    pub fn offered(&self) -> u64 {
        match &self.wire {
            Some(w) => w.frames.len() as u64,
            None => self.packets.len() as u64,
        }
    }

    fn wire(&self) -> &wiregen::WireTrace {
        self.wire.as_ref().expect("wire workload inputs")
    }
}

/// One run of a workload.
#[derive(Debug)]
pub struct Run {
    /// What the run produced.
    pub outcome: Outcome,
    /// Start and end of the run call on the harness's clock.
    pub span: (u64, u64),
    /// The shard plan's effective shard count (1 on serial switches).
    pub effective: usize,
}

impl Run {
    /// Wall time of the run call, ns.
    pub fn wall_ns(&self) -> u64 {
        self.span.1 - self.span.0
    }
}

/// What differs between the reference run, a timed run and a traced run:
/// the engine the switch is built from and the wrapper around its source.
pub trait Harness {
    /// The pipeline engine.
    type Engine: PipelineEngine + Send + 'static;
    /// A serial switch over `p` with a queue of `capacity`.
    fn serial(&self, p: &Programs, capacity: usize) -> Switch<Self::Engine>;
    /// The sharded switch, or `None` to run `sharded` serially.
    fn sharded(&self, p: &Programs, config: ShardConfig) -> Option<ShardedSwitch<Self::Engine>>;
    /// The packet source a run pulls from.
    fn packets<'a>(&self, s: SliceSource<'a>) -> impl PacketSource + use<'a, Self>;
    /// The frame source a run pulls from.
    fn frames<'a>(&self, s: FrameSliceSource<'a, Vec<u8>>) -> impl FrameSource + use<'a, Self>;
}

/// Where a `for_each` run hands its outputs.
pub trait Sink {
    /// Takes one output packet.
    fn packet(&mut self, out: &mut Vec<Packet>, pkt: Packet);
    /// Takes one output frame.
    fn frame(&mut self, out: &mut Vec<Vec<u8>>, frame: Vec<u8>);
}

/// The timed run: slot engines, the slice sources as they are, and a sink
/// that only collects.
#[derive(Debug, Clone, Copy)]
pub struct Plain;

/// The map-engine reference: `Switch::new`, serial also for `sharded`.
#[derive(Debug, Clone, Copy)]
pub struct Reference;

impl Sink for Plain {
    fn packet(&mut self, out: &mut Vec<Packet>, pkt: Packet) {
        out.push(pkt)
    }

    fn frame(&mut self, out: &mut Vec<Vec<u8>>, frame: Vec<u8>) {
        out.push(frame)
    }
}

impl Harness for Plain {
    type Engine = SlotMachine;

    fn serial(&self, p: &Programs, capacity: usize) -> Switch<SlotMachine> {
        Switch::new_slot(&p.ingress, &p.egress, capacity).expect("switch builds")
    }

    fn sharded(&self, p: &Programs, config: ShardConfig) -> Option<ShardedSwitch<SlotMachine>> {
        Some(ShardedSwitch::new_slot(&p.ingress, &p.egress, config).expect("sharded switch builds"))
    }

    fn packets<'a>(&self, s: SliceSource<'a>) -> impl PacketSource + use<'a> {
        s
    }

    fn frames<'a>(&self, s: FrameSliceSource<'a, Vec<u8>>) -> impl FrameSource + use<'a> {
        s
    }
}

impl Harness for Reference {
    type Engine = Machine;

    fn serial(&self, p: &Programs, capacity: usize) -> Switch<Machine> {
        Switch::new(p.ingress.clone(), p.egress.clone(), capacity)
    }

    fn sharded(&self, _: &Programs, _: ShardConfig) -> Option<ShardedSwitch<Machine>> {
        None
    }

    fn packets<'a>(&self, s: SliceSource<'a>) -> impl PacketSource + use<'a> {
        s
    }

    fn frames<'a>(&self, s: FrameSliceSource<'a, Vec<u8>>) -> impl FrameSource + use<'a> {
        s
    }
}

fn serial_books<E: PipelineEngine>(sw: &Switch<E>) -> Books {
    Books {
        drops: sw.drop_counters().clone(),
        transmitted: sw.transmitted(),
        ingress: sw.export_ingress_state(),
        egress: sw.export_egress_state(),
    }
}

fn sharded_books<E: PipelineEngine>(sw: &ShardedSwitch<E>) -> Books {
    let merged = |s: Result<StateStore, _>| s.expect("exact-tier plans merge their state");
    Books {
        drops: sw.drop_counters(),
        transmitted: sw.transmitted(),
        ingress: merged(sw.export_merged_ingress_state()),
        egress: merged(sw.export_merged_egress_state()),
    }
}

/// The result of a run that may fault: a faulted run keeps what it
/// salvaged, and the packets it lost count as missing outputs.
fn salvaged<T>(result: Result<T, SwitchError>, salvage: impl FnOnce(&FaultReport) -> T) -> T {
    match result {
        Ok(v) => v,
        Err(SwitchError::Fault(report)) => salvage(&report),
        Err(e) => panic!("the switch refused the workload: {e}"),
    }
}

fn offered_before(report: &FaultReport) -> RunStats {
    RunStats {
        offered: report.accounting.offered,
        transmitted: report.accounting.transmitted,
    }
}

/// Seconds since `t`, taken before `built` is dropped.
fn seconds_since<T>(t: Instant, built: T) -> f64 {
    let elapsed = t.elapsed().as_secs_f64();
    drop(built);
    elapsed
}

/// The offered index of an output packet: the queue stamps its arrival
/// cycle, one arrival per cycle from cycle 0.
pub fn enq_key(pkt: &Packet) -> u64 {
    pkt.get("enq_ts").map_or(u64::MAX, |t| t as u64)
}
impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Figure1,
        Workload::Wire,
        Workload::Pifo,
        Workload::Sharded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure1 => "figure1",
            Workload::Wire => "wire",
            Workload::Pifo => "pifo",
            Workload::Sharded => "sharded",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stated input size: packets (or frames) offered per run.
    pub fn input_size(self) -> usize {
        match self {
            Workload::Figure1 => 20_000,
            Workload::Wire => 20_000,
            Workload::Pifo => 32 * 512,
            Workload::Sharded => 20_000,
        }
    }

    fn stages(self) -> [Stage; 2] {
        match self {
            Workload::Figure1 => [table4("flowlet"), table4("codel_lut")],
            Workload::Wire => [table4("heavy_hitters"), Stage::Passthrough("egress")],
            Workload::Pifo => [
                table4("stfq"),
                Stage::Domino(Program {
                    source: SOJOURN_EGRESS,
                    target: Target::banzai(AtomKind::Raw),
                }),
            ],
            Workload::Sharded => [table4("flowlet"), Stage::Passthrough("egress")],
        }
    }

    /// The queue capacity for `packets` offered packets. The PIFO's is
    /// below the burst, so both deep-heap admission and `SchedFull`
    /// refusal run.
    fn capacity(self, packets: usize) -> usize {
        match self {
            Workload::Pifo => packets * 3 / 4,
            _ => QUEUE_CAPACITY,
        }
    }

    fn pifo_spec() -> SchedSpec {
        SchedSpec::Pifo {
            rank: "start".into(),
        }
    }

    fn drain(self) -> u64 {
        match self {
            Workload::Figure1 => FIGURE1_DRAIN,
            _ => 1,
        }
    }

    /// One set-up sample: compile every program through
    /// `parse_and_check` → `normalize_checked` → `lower` (which is what
    /// `domino_compiler::compile` does), timing each phase, then build the
    /// switch.
    pub fn setup_sample(self) -> (Programs, SetupSample) {
        let mut s = SetupSample::default();
        let [ingress, egress] = self.stages().map(|stage| match stage {
            Stage::Passthrough(name) => AtomPipeline::passthrough(name),
            Stage::Domino(p) => {
                let t = Instant::now();
                let checked = domino_ast::parse_and_check(p.source).expect("program checks");
                let t1 = Instant::now();
                let normalized =
                    domino_compiler::normalize_checked(checked).expect("program normalizes");
                let t2 = Instant::now();
                let pipeline =
                    domino_compiler::lower(&normalized, &p.target).expect("program lowers");
                let t3 = Instant::now();
                s.parse_check += (t1 - t).as_secs_f64();
                s.normalize += (t2 - t1).as_secs_f64();
                s.lower += (t3 - t2).as_secs_f64();
                pipeline
            }
        });
        let progs = Programs { ingress, egress };
        let t = Instant::now();
        s.build = match self {
            Workload::Sharded => seconds_since(t, Plain.sharded(&progs, ShardConfig::new(1))),
            _ => seconds_since(t, Plain.serial(&progs, self.capacity(self.input_size()))),
        };
        (progs, s)
    }

    /// One run of the inputs through a switch `h` builds (untimed), with
    /// only the run call timed on `clock`. `figure1` and `wire` hand their
    /// outputs to `sink`; `pifo` and `sharded` collect them.
    pub fn drive<H: Harness>(
        self,
        h: &H,
        sink: &mut impl Sink,
        p: &Programs,
        inputs: &Inputs,
        clock: Clock,
    ) -> Run {
        let n = inputs.offered() as usize;
        if self == Workload::Sharded {
            if let Some(mut sw) = h.sharded(p, ShardConfig::new(1)) {
                let src = h.packets(SliceSource::new(&inputs.packets));
                let t0 = clock.now();
                let out = sw.run(src).collect();
                let t1 = clock.now();
                let out = salvaged(out, |r| r.merged.clone());
                return Run {
                    outcome: Outcome {
                        offered: n as u64,
                        outputs: Outputs::Packets(out),
                        books: sharded_books(&sw),
                    },
                    span: (t0, t1),
                    effective: sw.plan().effective(),
                };
            }
        }
        let mut sw = h
            .serial(p, self.capacity(inputs.packets.len()))
            .with_drain_period(self.drain());
        let (offered, outputs, span) = match self {
            Workload::Figure1 | Workload::Sharded => {
                let mut out = Vec::with_capacity(n);
                let src = h.packets(SliceSource::new(&inputs.packets));
                let t0 = clock.now();
                let stats = sw.run(src).for_each(|pkt| sink.packet(&mut out, pkt));
                let t1 = clock.now();
                let stats = salvaged(stats, offered_before);
                (stats.offered, Outputs::Packets(out), (t0, t1))
            }
            Workload::Wire => {
                let w = inputs.wire();
                let mut out = Vec::with_capacity(n);
                let src = h.frames(FrameSliceSource::new(&w.frames));
                let t0 = clock.now();
                let stats = sw
                    .run_frames(src, &w.cfg)
                    .for_each(|frame| sink.frame(&mut out, frame));
                let t1 = clock.now();
                let stats = salvaged(stats, offered_before);
                (stats.offered, Outputs::Frames(out), (t0, t1))
            }
            Workload::Pifo => {
                let src = h.packets(SliceSource::new(&inputs.packets));
                let t0 = clock.now();
                let deps = sw.run(src).sched(Workload::pifo_spec()).collect();
                let t1 = clock.now();
                // Salvaged packets carry no departure record: all missing.
                let deps = salvaged(deps, |_| Vec::new());
                (n as u64, Outputs::Departures(deps), (t0, t1))
            }
        };
        Run {
            outcome: Outcome {
                offered,
                outputs,
                books: serial_books(&sw),
            },
            span,
            effective: 1,
        }
    }

    /// The map-engine reference run.
    pub fn reference(self, p: &Programs, inputs: &Inputs) -> Outcome {
        self.drive(&Reference, &mut Plain, p, inputs, Clock::start())
            .outcome
    }
}

/// Layers timed outside the run, on the same inputs, in ns summed over
/// the inputs (divide by offered packets for ns/pkt).
#[derive(Debug, Clone, Default)]
pub struct Standalone {
    /// `wire::parse` of every frame.
    pub parse_ns: f64,
    /// `wire::deparse` of every accepted frame.
    pub deparse_ns: f64,
    /// Offered indices of accepted frames, in order.
    pub accepted: Option<Arc<[u64]>>,
    /// `Pifo::bounded` burst push then drain pop of the ranked packets.
    pub push_pop_ns: f64,
    /// The PIFO's depth after the burst.
    pub max_depth: usize,
    /// `ShardPlan::steer` of every packet.
    pub steer_ns: f64,
    /// `ShardedSwitch::merge` of one run's outputs.
    pub merge_ns: f64,
}

impl Workload {
    /// Times the layers the switch runs internally, replayed standalone.
    pub fn standalone(self, p: &Programs, inputs: &Inputs, reference: &Outcome) -> Standalone {
        let mut s = Standalone::default();
        match self {
            Workload::Figure1 => {}
            Workload::Wire => {
                // Chunks keep the parsed packets small in memory and the
                // clock reads rare.
                const CHUNK: usize = 1024;
                let w = inputs.wire();
                let mut accepted = Vec::with_capacity(w.frames.len());
                for (c, chunk) in w.frames.chunks(CHUNK).enumerate() {
                    let t0 = Instant::now();
                    let parsed: Vec<_> = chunk.iter().map(|f| banzai::parse(f, &w.cfg)).collect();
                    let t1 = Instant::now();
                    let mut bytes = 0usize;
                    for wp in parsed.iter().flatten() {
                        bytes += banzai::deparse(&wp.pkt, &wp.layout).len();
                    }
                    let t2 = Instant::now();
                    std::hint::black_box(bytes);
                    s.parse_ns += (t1 - t0).as_nanos() as f64;
                    s.deparse_ns += (t2 - t1).as_nanos() as f64;
                    accepted.extend(
                        parsed
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.is_ok())
                            .map(|(i, _)| (c * CHUNK + i) as u64),
                    );
                }
                s.accepted = Some(accepted.into());
            }
            Workload::Pifo => {
                let mut ingress =
                    banzai::SlotMachine::compile(&p.ingress).expect("slot engine builds");
                let spec = Workload::pifo_spec();
                let ranked: Vec<_> = inputs
                    .packets
                    .iter()
                    .enumerate()
                    .map(|(i, pkt)| {
                        let out = ingress.process(pkt.clone());
                        (spec.key_of(&out), (i as i64, out))
                    })
                    .collect();
                let mut q = Pifo::bounded(Workload::Pifo.capacity(inputs.packets.len()));
                // Popped packets move out, as they move on to egress in the
                // switch; they are freed after the timer stops.
                let mut popped = Vec::with_capacity(ranked.len());
                let t = Instant::now();
                for (key, item) in ranked {
                    let _ = q.push(key, item);
                }
                s.max_depth = q.len();
                while let Some(item) = q.pop() {
                    popped.push(item);
                }
                s.push_pop_ns = t.elapsed().as_nanos() as f64;
                drop(popped);
            }
            Workload::Sharded => {
                let sw = ShardedSwitch::new_slot(&p.ingress, &p.egress, ShardConfig::new(1))
                    .expect("sharded switch builds");
                let plan = sw.plan();
                let t = Instant::now();
                let mut steered = 0usize;
                for (i, pkt) in inputs.packets.iter().enumerate() {
                    steered += plan.steer(i, pkt);
                }
                s.steer_ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box(steered);
                if let Outputs::Packets(out) = &reference.outputs {
                    let parts = vec![out.clone()];
                    let t = Instant::now();
                    let merged = sw.merge(parts);
                    s.merge_ns = t.elapsed().as_nanos() as f64;
                    std::hint::black_box(merged.len());
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Tracer;

    #[test]
    fn tracing_changes_no_output_counter_or_state() {
        for w in Workload::ALL {
            let (progs, _) = w.setup_sample();
            let inputs = Inputs::generate(w, 3_000, 11);
            let reference = w.reference(&progs, &inputs);
            let standalone = w.standalone(&progs, &inputs, &reference);
            let clock = Clock::start();
            let plain = w.drive(&Plain, &mut Plain, &progs, &inputs, clock).outcome;
            let tracer = Tracer::new(clock, standalone.accepted.as_ref());
            let mut sink = tracer.sink();
            let traced = w.drive(&tracer, &mut sink, &progs, &inputs, clock);
            drop(sink);
            let r = tracer.take();
            assert_eq!(traced.outcome, plain, "{}", w.name());
            assert_eq!(
                r.ingress.calls,
                inputs.offered() - plain.books.drops.parse_total()
            );
            assert_eq!(r.egress.calls, plain.books.transmitted, "{}", w.name());
            assert!(r.ingress.timed > 0 && r.pull.timed > 0, "{}", w.name());
        }
    }
}
