//! E9/E10 — the differential throughput harness: map-based reference
//! engine vs the slot-compiled fast path (E9), plus the shard-scaling
//! sweep of the flow-steered multi-core switch (E10). Bit-identical
//! outputs asserted throughout; results emitted as
//! `BENCH_throughput.json`; optionally gates against a committed baseline
//! (the CI perf-regression check).
//!
//! ```text
//! throughput [--smoke] [--wire] [--chaos] [--sched] [--stream] [--packets <n>]
//!            [--out <path>] [--shards <csv>] [--check <baseline.json>]
//!            [--tolerance <f>] [--scaling-tolerance <f>]
//!            [--sched-tolerance <f>] [--stream-packets <n>] [--rss-limit-kb <n>]
//!
//!   --smoke            small traces (CI: exercises both engines, the
//!                      sharded switch, and the JSON emission quickly)
//!   --wire             add the E11 byte-level roundtrip workloads
//!                      (parse → pipeline → deparse on both engines) and
//!                      the malformed-traffic parser-stress differential;
//!                      wire rows land in the JSON and are gated by --check
//!   --chaos            add the E12 fault-injection suite against the
//!                      supervised sharded switch (kill / stall / shed /
//!                      bit-flip); every row asserts the failure-model
//!                      invariants before it is recorded
//!   --sched            add the E13 programmable-scheduling workloads
//!                      (WFQ fairness, strict priority, token-bucket
//!                      shaping through the PIFO on both engines, each
//!                      re-run 4-way sharded and held to its scheduling
//!                      invariant); sched rows land in the JSON and are
//!                      gated by --check
//!   --stream           add the E14 bounded-memory streaming run: a
//!                      generator-born flowlet stream pulled through
//!                      `run(source).for_each(sink)` with **no trace and no
//!                      output vector ever materialized**, gated by a hard
//!                      peak-RSS (VmHWM) growth assertion. Runs before the
//!                      trace-materializing sections so the high-water mark
//!                      is honest; CI drives it as its own invocation
//!   --stream-packets <n>
//!                      packets for the E14 stream (default 10000000;
//!                      1000000 under --smoke)
//!   --rss-limit-kb <n> peak-RSS growth ceiling for the E14 run in KiB
//!                      (default 262144 = 256 MiB — an order of magnitude
//!                      under what materializing the default stream would
//!                      take); exceeded = exit nonzero
//!   --packets <n>      packets for the headline flowlet trace (default 1000000)
//!   --out <path>       where to write the JSON (default BENCH_throughput.json)
//!   --shards <csv>     shard counts for the E10 sweep (default 1,2,4,8)
//!   --check <path>     compare fresh slot speedups AND E10 shard-scaling
//!                      rows (effective shard count exactly, modeled
//!                      speedup within tolerance) AND E13 sched rows
//!                      against a committed baseline; exit nonzero on
//!                      regression — a sketch workload regressing to a
//!                      1-shard fallback fails
//!   --tolerance <f>    regression floor for the engine-speedup rows, as
//!                      a fraction of the committed speedup (default 0.5).
//!                      Engine speedups divide a map time by a slot time
//!                      measured seconds apart, so they carry the most
//!                      host noise of anything in the JSON
//!   --scaling-tolerance <f>
//!                      regression floor for the E10 modeled-scaling rows
//!                      (default: the --tolerance value). These ratios
//!                      come from one instrumented run (interleaved
//!                      lanes, min-of-reps), so they are far more stable
//!                      than engine speedups and can hold a tighter floor
//!   --sched-tolerance <f>
//!                      regression floor for the E13 sched rows (default:
//!                      the --tolerance value). Sched speedups are engine
//!                      ratios like the E9 rows, but the timed region
//!                      includes the shared PIFO on both sides, so the
//!                      ratio is compressed toward 1 and steadier
//! ```

use bench::throughput::{
    chaos_suite, check_regressions, check_scaling_regressions, machine_workload, parse_baseline,
    parse_scaling_baseline, render_json, scaling_speedup, sched_workload, shard_sweep,
    stream_workload, switch_workload, wire_stress, wire_workload, ChaosOutcome, Measurement,
    SchedMeasurement, ShardMeasurement, StreamMeasurement, SCHED_DISCIPLINES, SCHED_KEY,
    WORKLOAD_KEY,
};
use std::process::ExitCode;

const SEED: u64 = 0x000D_0771_2016;

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut smoke = false;
    let mut with_wire = false;
    let mut with_chaos = false;
    let mut with_sched = false;
    let mut with_stream = false;
    let mut stream_n: Option<usize> = None;
    let mut rss_limit_kb = 262_144u64;
    let mut flowlet_n: Option<usize> = None;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut shard_counts: Vec<usize> = vec![1, 2, 4, 8];
    let mut check: Option<String> = None;
    let mut tolerance = 0.5f64;
    let mut scaling_tolerance: Option<f64> = None;
    let mut sched_tolerance: Option<f64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--wire" => with_wire = true,
            "--chaos" => with_chaos = true,
            "--sched" => with_sched = true,
            "--stream" => with_stream = true,
            "--stream-packets" => {
                i += 1;
                let v = args.get(i).ok_or("--stream-packets needs a value")?;
                stream_n = Some(
                    v.parse()
                        .map_err(|_| format!("bad --stream-packets `{v}`"))?,
                );
            }
            "--rss-limit-kb" => {
                i += 1;
                let v = args.get(i).ok_or("--rss-limit-kb needs a value")?;
                rss_limit_kb = v.parse().map_err(|_| format!("bad --rss-limit-kb `{v}`"))?;
            }
            "--packets" => {
                i += 1;
                let v = args.get(i).ok_or("--packets needs a value")?;
                flowlet_n = Some(v.parse().map_err(|_| format!("bad --packets `{v}`"))?);
            }
            "--out" => {
                i += 1;
                out_path = args.get(i).ok_or("--out needs a value")?.clone();
            }
            "--shards" => {
                i += 1;
                let v = args.get(i).ok_or("--shards needs a value")?;
                shard_counts = v
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad --shards `{v}`")))
                    .collect::<Result<_, _>>()?;
                if shard_counts.is_empty() {
                    return Err("--shards needs at least one count".into());
                }
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).ok_or("--check needs a value")?.clone());
            }
            "--tolerance" => {
                i += 1;
                let v = args.get(i).ok_or("--tolerance needs a value")?;
                tolerance = v.parse().map_err(|_| format!("bad --tolerance `{v}`"))?;
            }
            "--scaling-tolerance" => {
                i += 1;
                let v = args.get(i).ok_or("--scaling-tolerance needs a value")?;
                scaling_tolerance = Some(
                    v.parse()
                        .map_err(|_| format!("bad --scaling-tolerance `{v}`"))?,
                );
            }
            "--sched-tolerance" => {
                i += 1;
                let v = args.get(i).ok_or("--sched-tolerance needs a value")?;
                sched_tolerance = Some(
                    v.parse()
                        .map_err(|_| format!("bad --sched-tolerance `{v}`"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "throughput [--smoke] [--wire] [--chaos] [--sched] [--stream] [--packets <n>] \
                     [--out <path>] [--shards <csv>] [--check <baseline.json>] \
                     [--tolerance <f>] [--scaling-tolerance <f>] [--sched-tolerance <f>] \
                     [--stream-packets <n>] [--rss-limit-kb <n>]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }

    let (flowlet, hh, codel, switch, sweep_n) = if smoke {
        (20_000, 10_000, 10_000, 5_000, 20_000)
    } else {
        (1_000_000, 300_000, 300_000, 200_000, 1_000_000)
    };
    let flowlet = flowlet_n.unwrap_or(flowlet);

    // E14 runs first: every later section materializes million-packet
    // traces, which would push the process high-water mark far above
    // anything the streamed run adds — measuring it on a fresh process
    // keeps the RSS-growth gate honest.
    let mut stream: Vec<StreamMeasurement> = Vec::new();
    if with_stream {
        let n = stream_n.unwrap_or(if smoke { 1_000_000 } else { 10_000_000 });
        println!(
            "E14 — bounded-memory streaming ingestion: {n} generator-born packets \
             through run(source).for_each(sink), no trace and no output vector \
             ever materialized\n"
        );
        let m = stream_workload(n, SEED);
        let growth = m.rss_growth_kb();
        println!(
            "  offered {}  transmitted {}  dropped {}  {:.0} pkts/s  \
             peak-RSS growth {} (limit {rss_limit_kb} KiB)\n",
            m.packets,
            m.transmitted,
            m.dropped,
            m.pps(),
            growth
                .map(|k| format!("{k} KiB"))
                .unwrap_or_else(|| "unreadable".into()),
        );
        if let Some(growth) = growth {
            if growth > rss_limit_kb {
                return Err(format!(
                    "E14: streamed run grew peak RSS by {growth} KiB, over the \
                     {rss_limit_kb} KiB limit — the run API is buffering somewhere"
                ));
            }
        }
        stream.push(m);
    }

    println!("E9 — execution-engine throughput (every row is a verified differential run)\n");
    let mut measurements = vec![
        machine_workload("flowlet", flowlet, SEED),
        machine_workload("heavy_hitters", hh, SEED),
        machine_workload("codel_lut", codel, SEED),
        switch_workload(switch, SEED),
    ];

    if with_wire {
        // E11 — same traces, born as bytes: the timed region includes
        // parse and deparse on both engines (see bench::throughput).
        measurements.push(wire_workload("flowlet", flowlet.min(200_000), SEED));
        measurements.push(wire_workload("heavy_hitters", hh, SEED));
        measurements.push(wire_workload("codel_lut", codel, SEED));
    }

    let rows: Vec<Vec<String>> = measurements
        .iter()
        .map(|m: &Measurement| {
            vec![
                m.name.clone(),
                m.packets.to_string(),
                format!("{:.0}", m.map_pps()),
                format!("{:.0}", m.slot_pps()),
                format!("{:.1}x", m.speedup()),
                "yes".to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::render_table(
            &[
                "workload",
                "packets",
                "map pkts/s",
                "slot pkts/s",
                "speedup",
                "identical"
            ],
            &rows
        )
    );

    if with_wire {
        let stress_n = if smoke { 5_000 } else { 100_000 };
        let r = wire_stress(stress_n, SEED, 0.15);
        println!(
            "parser stress — {} frames at 15% malformation through the wire switch \
             (map and slot engines byte-identical, counters oracle-checked):",
            r.frames
        );
        println!(
            "  transmitted {}  queue_full {}  parse drops: {}\n",
            r.transmitted,
            r.queue_full,
            r.parse_drops
                .iter()
                .map(|(label, c)| format!("{label}={c}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "E10 — shard scaling, flow-steered sharded switch \
         (host has {host_cores} core(s); `modeled` is the per-shard \
         critical path, `wall` is this host's threaded clock)\n"
    );
    let mut scaling: Vec<ShardMeasurement> = Vec::new();
    for workload in ["flowlet", "heavy_hitters", "bloom_filter"] {
        scaling.extend(shard_sweep(workload, sweep_n, SEED, &shard_counts));
    }
    let scaling_rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|s| {
            let speedup = scaling_speedup(&scaling, s)
                .map(|v| format!("{v:.2}x"))
                .unwrap_or_else(|| "-".to_string());
            vec![
                s.workload.clone(),
                s.packets.to_string(),
                format!("{}->{}", s.requested, s.effective),
                s.tier.to_string(),
                format!("{:.0}", s.modeled_pps()),
                format!("{:.0}", s.wall_pps()),
                speedup,
                "yes".to_string(),
                s.fallback
                    .as_deref()
                    .map(|why| {
                        let mut short = why.split(';').next().unwrap_or(why).to_string();
                        if short.len() > 48 {
                            short.truncate(45);
                            short.push_str("...");
                        }
                        short
                    })
                    .unwrap_or_default(),
            ]
        })
        .collect();
    println!(
        "{}",
        bench::render_table(
            &[
                "workload",
                "packets",
                "shards",
                "tier",
                "modeled pkts/s",
                "wall pkts/s",
                "vs 1 shard",
                "identical",
                "fallback"
            ],
            &scaling_rows
        )
    );

    let mut chaos: Vec<ChaosOutcome> = Vec::new();
    if with_chaos {
        let chaos_n = if smoke { 4_000 } else { 50_000 };
        println!(
            "E12 — chaos/overload suite, supervised sharded switch \
             (each row asserts no-hang, typed errors, salvage-equals-serial, \
             and packet conservation before it is recorded)\n"
        );
        // The kill scenario panics a worker on purpose; silence the
        // default panic-hook backtrace so the table stays readable. This
        // binary is single-purpose, so the process-global swap is safe.
        // Chaos workloads must actually fan out (the suite supervises a
        // real multi-worker run) *and* be exactly partitioned, because the
        // suite's salvage oracle is per-shard bit-identity: flowlet plus
        // another per-flow-keyed algorithm. Replicable sketches shard too,
        // but their salvage story is the statistical merge covered by
        // tests/chaos.rs; scalar-state programs (rcp, …) collapse to one
        // shard and are rejected by the suite's precondition.
        chaos = banzai::fault::with_quiet_panics(|| {
            ["flowlet", "sampled_netflow"]
                .iter()
                .flat_map(|w| chaos_suite(w, chaos_n, SEED))
                .collect()
        });
        let chaos_rows: Vec<Vec<String>> = chaos
            .iter()
            .map(|c| {
                vec![
                    c.scenario.clone(),
                    c.workload.clone(),
                    c.packets.to_string(),
                    c.outcome.clone(),
                    c.faulted_shard
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                    c.transmitted.to_string(),
                    c.dropped.to_string(),
                    c.lost_in_fault.to_string(),
                    format!("{}/{}", c.survivors, c.shards),
                    format!("{:.1}", c.wall_ns as f64 / 1e6),
                    "yes".to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            bench::render_table(
                &[
                    "scenario",
                    "workload",
                    "packets",
                    "outcome",
                    "shard",
                    "transmitted",
                    "dropped",
                    "lost",
                    "survivors",
                    "wall ms",
                    "conserved"
                ],
                &chaos_rows
            )
        );
    }

    let mut sched: Vec<SchedMeasurement> = Vec::new();
    if with_sched {
        let sched_n = if smoke { 20_000 } else { 1_000_000 };
        println!(
            "E13 — programmable scheduling, rank transactions driving the PIFO \
             (each row is a verified map-vs-slot differential on the scheduling \
             run, re-run 4-way sharded bit-identically, and held to its \
             discipline's invariant — fairness bound, priority exactness, or \
             pacing — before it is recorded)\n"
        );
        sched = SCHED_DISCIPLINES
            .iter()
            .map(|d| sched_workload(d, sched_n, SEED))
            .collect();
        let sched_rows: Vec<Vec<String>> = sched
            .iter()
            .map(|m| {
                vec![
                    m.sched.clone(),
                    m.packets.to_string(),
                    format!("{:.0}", m.map_pps()),
                    format!("{:.0}", m.slot_pps()),
                    format!("{:.1}x", m.speedup()),
                    "yes".to_string(),
                    "yes".to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            bench::render_table(
                &[
                    "discipline",
                    "packets",
                    "map pkts/s",
                    "slot pkts/s",
                    "speedup",
                    "identical",
                    "invariant"
                ],
                &sched_rows
            )
        );
    }

    let doc = render_json(&measurements, &scaling, &chaos, &sched, &stream, host_cores);
    std::fs::write(&out_path, &doc).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
    println!("wrote {out_path}");

    if let Some(baseline_path) = check {
        let baseline_doc = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
        let baseline = parse_baseline(&baseline_doc, WORKLOAD_KEY);
        if baseline.is_empty() {
            return Err(format!(
                "baseline `{baseline_path}` has no workload rows — wrong file?"
            ));
        }
        let scaling_tolerance = scaling_tolerance.unwrap_or(tolerance);
        let sched_tolerance = sched_tolerance.unwrap_or(tolerance);
        let fresh: Vec<(&str, f64)> = measurements
            .iter()
            .map(|m| (m.name.as_str(), m.speedup()))
            .collect();
        let mut failures = check_regressions(WORKLOAD_KEY, &fresh, &baseline, tolerance);
        let scaling_baseline = parse_scaling_baseline(&baseline_doc);
        failures.extend(check_scaling_regressions(
            &scaling,
            &scaling_baseline,
            scaling_tolerance,
        ));
        // Committed sched rows gate even when --sched was forgotten: a
        // fresh run without them trips the missing-row check, same as
        // dropping a workload from the other sections.
        let sched_baseline = parse_baseline(&baseline_doc, SCHED_KEY);
        let fresh_sched: Vec<(&str, f64)> = sched
            .iter()
            .map(|m| (m.sched.as_str(), m.speedup()))
            .collect();
        failures.extend(check_regressions(
            SCHED_KEY,
            &fresh_sched,
            &sched_baseline,
            sched_tolerance,
        ));
        println!(
            "\nperf-regression gate vs {baseline_path} (tolerance {tolerance}, scaling \
             {scaling_tolerance}, sched {sched_tolerance}): {}",
            if failures.is_empty() { "PASS" } else { "FAIL" }
        );
        for m in &measurements {
            if let Some(b) = baseline.iter().find(|b| b.name == m.name) {
                println!(
                    "  {:<16} fresh {:>6.2}x  committed {:>6.2}x  floor {:>6.2}x",
                    m.name,
                    m.speedup(),
                    b.speedup,
                    b.speedup * tolerance
                );
            }
        }
        for s in &scaling {
            if let Some(b) = scaling_baseline
                .iter()
                .find(|b| b.workload == s.workload && b.shards == s.requested)
            {
                let fresh = scaling_speedup(&scaling, s);
                println!(
                    "  {:<16} @{} {:<10} shards {}->{} (committed {})  speedup fresh {}  \
                     committed {}",
                    s.workload,
                    s.requested,
                    s.tier,
                    s.requested,
                    s.effective,
                    b.effective,
                    fresh.map(|v| format!("{v:.2}x")).unwrap_or("-".into()),
                    b.speedup.map(|v| format!("{v:.2}x")).unwrap_or("-".into()),
                );
            }
        }
        for m in &sched {
            if let Some(b) = sched_baseline.iter().find(|b| b.name == m.sched) {
                println!(
                    "  sched/{:<10} fresh {:>6.2}x  committed {:>6.2}x  floor {:>6.2}x",
                    m.sched,
                    m.speedup(),
                    b.speedup,
                    b.speedup * sched_tolerance
                );
            }
        }
        if !failures.is_empty() {
            return Err(format!(
                "perf regression detected:\n  {}",
                failures.join("\n  ")
            ));
        }
    }
    Ok(())
}
