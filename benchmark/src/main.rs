//! `rbench`: the one command of the benchmark.
//!
//! ```text
//! rbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rbench [--seed <n>] [--seconds <s>]     every workload, untraced then traced
//! rbench --smoke                          the same at 2 s per run
//! rbench --emit-spec                      print BENCHMARK.json
//! rbench --fingerprint                    cores and coding-kernel tier
//! ```
//!
//! Each run prints `metric <workload> <name> <value> <unit>` lines and,
//! as its last line, the JSON result object the driver reads. The exit
//! code is non-zero if any operation failed or any output check did.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use robustore_benchmark::probes::Metrics;
use robustore_benchmark::service_disk::Snapshot;
use robustore_benchmark::stats::{median, percentile};
use robustore_benchmark::trace::{self, Span, Tracer};
use robustore_benchmark::workloads::{self, Cfg, Kind, Phase, Run, DISKS, STRAGGLER};
use robustore_benchmark::{metrics, probes, spec};
use robustore_core::default_group_commit;

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// The measured run: set up, run once, untraced.
fn untraced(cfg: &'static Cfg, seed: u64, secs: f64) -> Outcome {
    let begun = Instant::now();
    let mut st = workloads::setup(cfg, seed, None);
    let setup_s = begun.elapsed().as_secs_f64();
    let run = workloads::run(&mut st, secs);
    eprintln!("{}: {}", cfg.name, metrics::sample_counts(&run));
    Outcome {
        metrics: metrics::end_to_end(&run, cfg, setup_s),
        attempted: run.attempted(),
        failed: run.failed(),
    }
}

fn value_of(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(f64::NAN, |m| m.1)
}

fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// The least time the busiest disk needs for the writes of `phase` with
/// every dispatch a full group commit, per writing thread's share of
/// wall time: what `Client::write` would cost if only the disks counted.
fn write_vs_disk(cfg: &Cfg, phase: &Phase) -> f64 {
    let models = cfg.models();
    let batch = default_group_commit() as u64;
    let busiest = (0..DISKS)
        .map(|d| {
            let blocks = phase.disk.write_blocks[d];
            let modelled = models[d].write_block.as_secs_f64() * blocks as f64
                + models[d].write_dispatch.as_secs_f64() * blocks.div_ceil(batch) as f64;
            if modelled > 0.0 {
                modelled
            } else {
                // Zero-delay disks: the service time they were measured to take.
                phase.disk.write_busy_ns[d] as f64 / 1e9
            }
        })
        .fold(0.0, f64::max);
    let writes = || phase.tally.log.iter().filter(|op| op.kind == Kind::Write);
    let in_writes: u64 = writes().map(|op| op.end_ns - op.start_ns).sum();
    let writers = (0..cfg.threads)
        .filter(|&t| writes().any(|op| op.thread as usize == t))
        .count();
    in_writes as f64 / 1e9 / writers as f64 / busiest
}

/// The traced run: a short untraced run, the same run with spans on,
/// then the probes and layer replays.
fn traced(cfg: &'static Cfg, seed: u64, secs: f64, out_dir: &std::path::Path) -> Outcome {
    let tracer = Arc::new(Tracer::default());
    let mut st = workloads::setup(cfg, seed, Some(tracer.clone()));
    let spans_on = st.tracer.take();
    let plain = workloads::run(&mut st, secs * 0.15);
    st.tracer = spans_on;
    tracer.record_disks(true);
    let run = workloads::run(&mut st, secs * 0.3);
    st.tracer = None;
    let mut spans = tracer.finish();

    let mut m: Metrics = Vec::new();
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    let (write_layers_s, read_layers_s) = probes::all(&st, seed, secs, &tracer, &scratch, &mut m);
    let _ = std::fs::remove_dir_all(&scratch);
    spans.extend(tracer.finish());

    let main = &run.main;
    let both: Vec<&Phase> = std::iter::once(main)
        .chain(run.complement.as_ref())
        .collect();
    let sum = |f: fn(&Snapshot) -> &Vec<u64>| -> f64 {
        both.iter()
            .map(|p| f(&p.disk).iter().sum::<u64>())
            .sum::<u64>() as f64
    };
    let reads = main.tally.intact;
    let degraded = both
        .iter()
        .map(|p| p.tally.degraded)
        .find(|d| d.reads > 0)
        .unwrap_or_default();
    let main_reads: u64 = main.disk.read_blocks.iter().sum();
    let busy: u64 = main
        .disk
        .read_busy_ns
        .iter()
        .chain(&main.disk.write_busy_ns)
        .sum();
    let writes_phase = both
        .iter()
        .find(|p| p.tally.log.iter().any(|op| op.kind == Kind::Write))
        .expect("writes happen");
    let mut late = main.tally.late_us.clone();
    let headline = |r: &Run| value_of(&metrics::end_to_end(r, cfg, 0.0), cfg.headline);
    let write_ms = median(&mut span_ms(&spans, "client.write"));
    let read_ms = median(&mut span_ms(&spans, "client.read"));
    m.extend([
        ("erasure.pool_reuse_ratio", run.pool_reuse_ratio),
        ("erasure.pool_fresh_MBps", run.pool_fresh_mbps),
        (
            "ring.group_commit_batch_mean",
            sum(|s| &s.write_blocks) / sum(|s| &s.write_dispatches),
        ),
        (
            "ring.disk_busy_share",
            busy as f64 / (DISKS as u64 * (main.end_ns - main.start_ns)) as f64,
        ),
        (
            "ring.read_useful_ratio",
            (reads.fetched + main.tally.degraded.fetched) as f64 / main_reads as f64,
        ),
        (
            "ring.cancelled_share",
            reads.cancelled as f64 / reads.stored as f64,
        ),
        (
            "ring.straggler_read_share",
            main.disk.read_blocks[STRAGGLER] as f64 / main_reads as f64,
        ),
        ("client.write_ms_p50", write_ms),
        ("client.read_ms_p50", read_ms),
        (
            "client.delete_us_p50",
            median(&mut span_ms(&spans, "client.delete")) * 1e3,
        ),
        ("client.op_p99_ms", metrics::tail_ms(main, 0.99, |_| true)),
        ("client.write_vs_layers", write_ms / 1e3 / write_layers_s),
        ("client.read_vs_layers", read_ms / 1e3 / read_layers_s),
        ("client.write_vs_disk", write_vs_disk(cfg, writes_phase)),
        (
            "client.read_waves_mean",
            reads.waves as f64 / reads.reads as f64,
        ),
        (
            "client.read_deferred_mean",
            reads.deferred as f64 / reads.reads as f64,
        ),
        (
            "repair.blocks_repaired_per_missing",
            degraded.repaired as f64 / degraded.missing as f64,
        ),
        (
            "harness.gen_late_p99_us",
            if late.is_empty() {
                0.0
            } else {
                percentile(&mut late, 0.99)
            },
        ),
        (
            "harness.trace_overhead_ratio",
            headline(&run) / headline(&plain),
        ),
        ("harness.trace_coverage", trace::coverage(&spans)),
        (
            "harness.failed_ratio",
            (run.failed() + plain.failed()) as f64 / (run.attempted() + plain.attempted()) as f64,
        ),
        ("harness.degraded_skipped_share", run.degraded_skipped_share),
    ]);

    let path = out_dir.join(format!("trace-{}.jsonl", cfg.name));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => eprintln!(
            "{}: {} spans written to {}",
            cfg.name,
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{}: could not write {}: {e}", cfg.name, path.display()),
    }
    for (name, count, total, own) in trace::self_times(&spans) {
        eprintln!(
            "{}: span {name:<28} count {count:>7} total {:>10.2} ms self {:>10.2} ms",
            cfg.name,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    // Print in BENCHMARK.json's order.
    let metrics = spec::PER_LAYER
        .iter()
        .map(|(name, ..)| (*name, value_of(&m, name)))
        .collect();
    Outcome {
        metrics,
        attempted: run.attempted() + plain.attempted(),
        failed: run.failed() + plain.failed(),
    }
}

/// Print one run's metrics and its JSON result line; `true` if correct.
fn report(cfg: &Cfg, outcome: &Outcome) -> bool {
    let unit_of = |name: &str| {
        let e2e = spec::END_TO_END.iter().map(|m| (m.0, m.1));
        e2e.chain(spec::PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|m| m.0 == name)
            .map_or("?", |m| m.1)
    };
    let finite = outcome.metrics.iter().all(|m| m.1.is_finite());
    let correct = outcome.failed == 0 && finite;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        let unit = unit_of(name);
        println!("metric {} {name} {value} {unit}", cfg.name);
        // JSON has no NaN; a non-finite value already made the run incorrect.
        let value = if value.is_finite() { *value } else { -1.0 };
        json.push_str(&format!(
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        ));
    }
    json.push_str("}}");
    println!("{json}");
    correct
}

fn usage() -> ! {
    eprintln!(
        "usage: rbench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] | --smoke | --emit-spec | --fingerprint\n\
         workloads: {}",
        workloads::ALL.map(|c| c.name).join(", ")
    );
    std::process::exit(2)
}

fn main() {
    let mut workload: Option<&'static Cfg> = None;
    let (mut seed, mut secs, mut trace_mode) = (1u64, spec::RUN_SECONDS as f64, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                secs = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => trace_mode = Some(value() == "1"),
            "--smoke" => secs = 2.0,
            "--emit-spec" => {
                print!("{}", spec::benchmark_json());
                return;
            }
            "--fingerprint" => {
                println!(
                    "generator threads available: {}; robustore_erasure kernel tier: {:?} (simd available: {})",
                    std::thread::available_parallelism().map_or(1, |n| n.get()),
                    robustore_erasure::kernels::active_kernel(),
                    robustore_erasure::simd_available()
                );
                return;
            }
            _ => usage(),
        }
    }
    // Traces and scratch files live next to the benchmark's sources.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut all_correct = true;
    for cfg in workloads::ALL {
        if workload.is_some_and(|w| w.name != cfg.name) {
            continue;
        }
        // One run of one mode when the driver names both; otherwise both.
        for traced_run in [false, true] {
            if trace_mode.is_some_and(|t| t != traced_run) {
                continue;
            }
            let outcome = if traced_run {
                traced(cfg, seed, secs, &out_dir)
            } else {
                untraced(cfg, seed, secs)
            };
            all_correct &= report(cfg, &outcome);
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}
