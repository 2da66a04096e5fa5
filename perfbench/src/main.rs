//! Whole-switch benchmark.
//!
//! ```text
//! perfbench --workload <figure1|wire|pifo|sharded> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run compiles the workload's Domino programs and builds its switch
//! several times (`setup_s` is the median), generates the inputs from the
//! seed, runs the map-engine reference once, and then replays the inputs
//! through a fresh slot-engine switch, rep after rep, for `--seconds`.
//! Only the run call is timed; each rep's outputs, drop counters and state
//! are checked against the reference after its timer stops. Each set-up
//! sample and each rep is followed by a run of the calibration kernel
//! (`calib`), and `setup_s` and `pkts_per_s` are scaled by the host
//! slowdown it measured around them.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` untraced and traced reps
//! alternate, and it carries the per-layer ledger instead (see README.md).

mod calib;
mod ledger;
mod oracle;
mod workloads;

use calib::{slowdown, Kernel};
use ledger::{clock_read_ns, Clock, Layer, Recorded, Tracer};
use oracle::{judge, Verdict};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Inputs, Plain, Programs, Run, SetupSample, Standalone, Workload};

/// Set-up samples per run: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` and the compile phases are
/// their calibrated medians.
const SETUP_REPS: usize = 31;
const SETUP_SECONDS: f64 = 3.0;
/// Fewest timed reps per run, however long a rep takes.
const MIN_REPS: usize = 3;
/// The largest share of the traced wall the ledger may leave unexplained,
/// either way.
const BOOKS_BOUND: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// The median of `v`, interpolating between the middle two.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut items.iter().map(f).collect::<Vec<_>>())
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric line of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The oracle's running totals over every rep of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    fatal: Vec<String>,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        self.attempted += v.offered;
        self.failed += v.wrong;
        if let Some(f) = v.fatal {
            self.fatal.push(f);
        }
    }

    fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The timed reps of an untraced run: per-rep raw rates and the host
/// slowdown the calibration kernel measured around each.
struct Rates {
    raw: Vec<f64>,
    slowdown: Vec<f64>,
    kernel_ns: Vec<f64>,
}

impl Rates {
    /// The median calibrated rate: each rep's raw rate times the slowdown
    /// around it.
    fn calibrated(&self) -> f64 {
        let mut v: Vec<f64> = self
            .raw
            .iter()
            .zip(&self.slowdown)
            .map(|(r, s)| r * s)
            .collect();
        median(&mut v)
    }
}

fn untraced(
    w: Workload,
    progs: &Programs,
    inputs: &Inputs,
    budget: Duration,
    k: &Kernel,
) -> (Tally, Rates) {
    let reference = w.reference(progs, inputs);
    let clock = Clock::start();
    let mut tally = Tally::default();
    let mut rates = Rates {
        raw: Vec::new(),
        slowdown: Vec::new(),
        kernel_ns: Vec::new(),
    };
    let mut before = k.run();
    let start = Instant::now();
    while rates.raw.len() < MIN_REPS || start.elapsed() < budget {
        let run = w.drive(&Plain, &mut Plain, progs, inputs, clock);
        let v = judge(&run.outcome, &reference);
        let wall = run.wall_ns().max(1) as f64;
        // The kernel allocates from the heap the rep used: free the rep's
        // outputs first, so how the switch uses memory moves it less.
        drop(run);
        let after = k.run();
        rates.raw.push(v.offered as f64 / (wall / 1e9));
        rates.slowdown.push(slowdown(before, after));
        rates.kernel_ns.push(after);
        before = after;
        tally.add(v);
    }
    (tally, rates)
}

/// Per-layer totals summed over the traced reps, in ns.
#[derive(Default)]
struct Ledger {
    reps: u64,
    offered: u64,
    wall: f64,
    pull: f64,
    /// Ingress key look-up, to_flat, exec, merge_back.
    ingress: [f64; 4],
    /// Egress, the same.
    egress: [f64; 4],
    sink: f64,
    /// Clock reads and key look-ups of the adapters on the blocking lane.
    probe: f64,
    self_ns: f64,
    busy: f64,
    idle: f64,
    unexplained: f64,
}

impl Ledger {
    /// Books one traced rep. Every timed interval loses one clock read
    /// (`c` ns). Serial switches: the switch's own time is the gaps
    /// between adapter calls, timed directly, less the layers it runs
    /// there that the standalone replays measured (parse, deparse, PIFO);
    /// what the layers, gaps and clock reads leave of the wall is
    /// unexplained. Sharded: the worker lane is the blocking one; its
    /// batch windows are busy time, the gaps between them idle, and the
    /// switch's own work is what busy time the engines and probes leave
    /// over. The caller's pull and steer overlap the worker and are
    /// reported outside the sum.
    fn add(&mut self, w: Workload, run: &Run, r: &Recorded, s: &Standalone, c: f64) {
        let wall = run.wall_ns() as f64;
        let ing = [0, 1, 2, 3].map(|i| r.ingress.estimate(i, c));
        let eg = [0, 1, 2, 3].map(|i| r.egress.estimate(i, c));
        let engines: f64 = ing[1..].iter().chain(&eg[1..]).sum();
        let pull = r.pull.estimate(0, c);
        let sink = r.sink.estimate(0, c);
        self.reps += 1;
        self.offered += run.outcome.offered;
        self.wall += wall;
        self.pull += pull;
        for (acc, ns) in self.ingress.iter_mut().zip(ing) {
            *acc += ns;
        }
        for (acc, ns) in self.egress.iter_mut().zip(eg) {
            *acc += ns;
        }
        self.sink += sink;
        if w == Workload::Sharded {
            let busy: f64 = r
                .batch_starts
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let b = r.batch_ends.get(i).copied().unwrap_or(r.last_end);
                    b.saturating_sub(a) as f64
                })
                .sum();
            let lane = r.last_end.saturating_sub(run.span.0) as f64;
            let probe = (r.ingress.reads + r.egress.reads) as f64 * c + ing[0] + eg[0];
            self.probe += probe;
            self.busy += busy;
            self.idle += lane - busy;
            self.self_ns += busy - engines - probe;
            self.unexplained += wall - lane.max(busy) - s.merge_ns;
        } else {
            let gaps: f64 = [Layer::Pull, Layer::Ingress, Layer::Egress, Layer::Sink]
                .map(|l| r.gap_estimate(l, c))
                .iter()
                .sum();
            let probe = r.reads() as f64 * c + ing[0] + eg[0];
            self.probe += probe;
            self.self_ns += gaps - s.parse_ns - s.deparse_ns - s.push_pop_ns;
            self.unexplained += wall - (pull + engines + sink + gaps + probe);
        }
    }

    fn per_pkt(&self, ns: f64) -> f64 {
        ns / self.offered.max(1) as f64
    }
}

fn write_spans(w: Workload, seed: u64, spans: &[(usize, (u64, u64), Vec<ledger::Span>)]) {
    let dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into());
    let dir = std::path::Path::new(&dir).join("perfbench-spans");
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    let mut out = String::new();
    for (rep, (s0, s1), list) in spans {
        let _ = writeln!(
            out,
            "{{\"rep\":{rep},\"key\":null,\"layer\":\"switch\",\"parent\":null,\"start_ns\":{s0},\"end_ns\":{s1}}}"
        );
        for s in list {
            let _ = writeln!(
                out,
                "{{\"rep\":{rep},\"key\":{},\"layer\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.key, s.layer, s.parent, s.start, s.end
            );
        }
    }
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, out)) {
        Ok(()) => eprintln!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn traced(
    w: Workload,
    seed: u64,
    progs: &Programs,
    inputs: &Inputs,
    budget: Duration,
    setups: &[SetupSample],
    k: &Kernel,
) -> (Tally, Vec<Metric>) {
    let reference = w.reference(progs, inputs);
    let clock = Clock::start();
    let clock_ns = clock_read_ns(&clock);
    let standalone = w.standalone(progs, inputs, &reference);
    let offered = inputs.offered() as f64;

    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut last: Option<(Run, Recorded)> = None;
    let start = Instant::now();
    while traced_walls.len() < MIN_REPS || start.elapsed() < budget {
        let plain = w.drive(&Plain, &mut Plain, progs, inputs, clock);
        tally.add(judge(&plain.outcome, &reference));
        plain_walls.push(plain.wall_ns() as f64);

        let tracer = Tracer::new(clock, standalone.accepted.as_ref());
        let mut sink = tracer.sink();
        let t = w.drive(&tracer, &mut sink, progs, inputs, clock);
        drop(sink);
        let mut rec = tracer.take();
        tally.add(judge(&t.outcome, &reference));
        if t.outcome != plain.outcome {
            tally
                .fatal
                .push("the traced run's outputs or books differ from the untraced run's".into());
        }
        traced_walls.push(t.wall_ns() as f64);
        ledger.add(w, &t, &rec, &standalone, clock_ns);
        spans.push((spans.len(), t.span, std::mem::take(&mut rec.spans)));
        last = Some((t, rec));
    }
    write_spans(w, seed, &spans);
    let (last, rec) = last.expect("at least one traced rep");

    let reps = ledger.reps as f64;
    let drops = &last.outcome.books.drops;
    let admitted = offered
        - (drops.parse_total() + drops.queue_full() + drops.sched_full() + drops.backpressure())
            as f64;
    let wall = ledger.per_pkt(ledger.wall);
    let unexplained_frac = ledger.unexplained / ledger.wall.max(1.0);
    if unexplained_frac.abs() > BOOKS_BOUND {
        tally.fatal.push(format!(
            "the ledger leaves {:.1}% of the traced wall unexplained (bound {:.0}%)",
            unexplained_frac * 100.0,
            BOOKS_BOUND * 100.0
        ));
    }
    let plain_wall = median(&mut plain_walls);
    let per = |ns: f64| ledger.per_pkt(ns);
    let metrics = vec![
        ("stream.pull_ns", per(ledger.pull), "ns/pkt"),
        ("wire.parse_ns", standalone.parse_ns / offered, "ns/pkt"),
        ("wire.deparse_ns", standalone.deparse_ns / offered, "ns/pkt"),
        ("wire.parse_rejects", drops.parse_total() as f64, "count"),
        (
            "layout.ingress.to_flat_ns",
            per(ledger.ingress[1]),
            "ns/pkt",
        ),
        ("layout.egress.to_flat_ns", per(ledger.egress[1]), "ns/pkt"),
        (
            "slot.ingress.merge_back_ns",
            per(ledger.ingress[3]),
            "ns/pkt",
        ),
        ("slot.egress.merge_back_ns", per(ledger.egress[3]), "ns/pkt"),
        ("slot.ingress.exec_ns", per(ledger.ingress[2]), "ns/pkt"),
        ("slot.egress.exec_ns", per(ledger.egress[2]), "ns/pkt"),
        ("slot.ingress.calls", rec.ingress.calls as f64, "count"),
        ("slot.egress.calls", rec.egress.calls as f64, "count"),
        ("switch.self_ns", per(ledger.self_ns), "ns/pkt"),
        ("switch.admitted", admitted, "count"),
        ("switch.queue_full", drops.queue_full() as f64, "count"),
        ("switch.sched_full", drops.sched_full() as f64, "count"),
        (
            "switch.transmitted",
            last.outcome.books.transmitted as f64,
            "count",
        ),
        ("switch.admit_ratio", admitted / offered, "frac"),
        (
            "pifo.push_pop_ns",
            standalone.push_pop_ns / offered,
            "ns/pkt",
        ),
        ("pifo.max_depth", standalone.max_depth as f64, "count"),
        ("shard.steer_ns", standalone.steer_ns / offered, "ns/pkt"),
        ("shard.worker_busy_ns", per(ledger.busy), "ns/pkt"),
        ("shard.worker_idle_ns", per(ledger.idle), "ns/pkt"),
        ("shard.merge_ns", standalone.merge_ns / offered, "ns/pkt"),
        (
            "shard.effective",
            if w == Workload::Sharded {
                last.effective as f64
            } else {
                0.0
            },
            "count",
        ),
        ("sink.ns", per(ledger.sink), "ns/pkt"),
        (
            "ast.parse_check_s",
            median_of(setups, |s| s.parse_check),
            "s",
        ),
        (
            "compiler.normalize_s",
            median_of(setups, |s| s.normalize),
            "s",
        ),
        ("compiler.lower_s", median_of(setups, |s| s.lower), "s"),
        ("switch.build_s", median_of(setups, |s| s.build), "s"),
        ("compiler.stages", progs.stages() as f64, "count"),
        ("compiler.atoms", progs.atoms() as f64, "count"),
        ("trace.wall_ns", wall, "ns/pkt"),
        ("trace.probe_ns", per(ledger.probe), "ns/pkt"),
        ("trace.unexplained_frac", unexplained_frac, "frac"),
        (
            "trace.overhead_frac",
            median(&mut traced_walls) / plain_wall.max(1.0) - 1.0,
            "frac",
        ),
        ("trace.clock_ns", clock_ns, "ns"),
        ("trace.reps", reps, "count"),
        ("host.kernel_ms", k.run() / 1e6, "ms"),
        (
            "host.raw_pkts_per_s",
            offered / (plain_wall / 1e9),
            "pkts/s",
        ),
        ("error_frac", tally.error_frac(), "frac"),
    ];
    (tally, metrics)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <figure1|wire|pifo|sharded> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-up first, before any input exists. Each sample is bracketed by
    // calibration kernel runs and scaled by the host slowdown around it.
    let kernel = Kernel::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setup = Vec::with_capacity(SETUP_REPS);
    let mut progs = None;
    let mut before = kernel.run();
    let start = Instant::now();
    while setups.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let (p, s) = w.setup_sample();
        let after = kernel.run();
        raw_setup.push(s.total());
        setups.push(s.scaled(1.0 / slowdown(before, after)));
        before = after;
        progs = Some(p);
    }
    let progs = progs.expect("at least one set-up sample");
    let setup_s = median_of(&setups, SetupSample::total);

    let inputs = Inputs::generate(w, w.input_size(), args.seed);
    let (tally, metrics) = if args.trace {
        traced(w, args.seed, &progs, &inputs, budget, &setups, &kernel)
    } else {
        let (tally, mut rates) = untraced(w, &progs, &inputs, budget, &kernel);
        println!(
            "timed reps {}, raw rate median {:.1} pkts/s, calibration kernel median {:.3} ms, \
             raw set-up median {:.6} s",
            rates.raw.len(),
            median(&mut rates.raw.clone()),
            median(&mut rates.kernel_ns) / 1e6,
            median(&mut raw_setup),
        );
        let metrics = vec![
            ("pkts_per_s", rates.calibrated(), "pkts/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        (tally, metrics)
    };

    println!(
        "workload {} seed {} packets {} trace {}",
        w.name(),
        args.seed,
        inputs.offered(),
        args.trace as u8
    );
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    if !args.trace {
        println!("{:<28} {:>18.6} frac", "error_frac", tally.error_frac());
    }
    for f in &tally.fatal {
        println!("FAILED: {f}");
    }
    let correct = tally.failed == 0 && tally.fatal.is_empty();
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    /// The switch's own time is timed, not taken as a residual, so time
    /// inside the run call that no layer accounts for shows as unexplained.
    #[test]
    fn the_books_show_an_unexplained_stretch() {
        let w = Workload::Figure1;
        let (progs, _) = w.setup_sample();
        let inputs = Inputs::generate(w, 3_000, 5);
        let reference = w.reference(&progs, &inputs);
        let standalone = w.standalone(&progs, &inputs, &reference);
        let clock = Clock::start();
        let c = clock_read_ns(&clock);
        let tracer = Tracer::new(clock, None);
        let mut sink = tracer.sink();
        let mut run = w.drive(&tracer, &mut sink, &progs, &inputs, clock);
        drop(sink);
        let rec = tracer.take();
        let mut closed = Ledger::default();
        closed.add(w, &run, &rec, &standalone, c);

        // The same rep, with as long again of nothing inside the run call.
        run.span.1 += run.wall_ns();
        let mut padded = Ledger::default();
        padded.add(w, &run, &rec, &standalone, c);
        let frac = |l: &Ledger| l.unexplained / l.wall;
        assert!((frac(&padded) - (0.5 + frac(&closed) / 2.0)).abs() < 1e-9);
        assert_eq!(padded.self_ns, closed.self_ns);
    }
}
