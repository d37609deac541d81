//! End-to-end metrics from the operation log of a timed run.
//!
//! A phase is cut into equal windows and every throughput or p95 is the
//! median of the per-window values, so one scheduler hiccup cannot move
//! it; p50s are over all samples of the phase. A metric about one kind of
//! operation is taken from the main phase when the main phase performs
//! that kind, else from the complement phase.

use crate::stats::{median, percentile};
use crate::workloads::{Cfg, Kind, OpRec, Phase, Run, Shape};

fn ms(op: &OpRec) -> f64 {
    (op.end_ns - op.start_ns) as f64 / 1e6
}

/// The phase that performs `kind`.
fn home(run: &Run, kind: Kind) -> &Phase {
    let in_main = run.main.tally.log.iter().any(|op| op.kind == kind);
    match &run.complement {
        Some(c) if !in_main => c,
        _ => &run.main,
    }
}

/// The operations of `phase` by the window they ended in.
fn windows(phase: &Phase) -> Vec<Vec<&OpRec>> {
    let width = (phase.end_ns - phase.start_ns) as f64 / phase.windows as f64;
    let mut out = vec![Vec::new(); phase.windows];
    for op in &phase.tally.log {
        let w = (op.end_ns.saturating_sub(phase.start_ns) as f64 / width) as usize;
        out[w.min(phase.windows - 1)].push(op);
    }
    out
}

/// Median over the windows where `f` yields a value.
fn window_median<'a>(phase: &'a Phase, f: impl Fn(&[&'a OpRec]) -> Option<f64>) -> f64 {
    let mut values: Vec<f64> = windows(phase).iter().filter_map(|w| f(w)).collect();
    median(&mut values)
}

/// MB/s of `kind`. Closed loop: each thread's bytes ÷ its time inside
/// those operations, summed over threads. Open loop (overlapping
/// accesses): bytes completed ÷ the window's wall time.
fn mbps(run: &Run, cfg: &Cfg, kind: Kind) -> f64 {
    let phase = home(run, kind);
    let open_loop = cfg.shape == Shape::OpenLoop && std::ptr::eq(phase, &run.main);
    let wall_s = (phase.end_ns - phase.start_ns) as f64 / 1e9 / phase.windows as f64;
    window_median(phase, |ops| {
        let mut per_thread = vec![(0u64, 0u64); cfg.threads];
        for op in ops.iter().filter(|op| op.kind == kind) {
            per_thread[op.thread as usize].0 += op.bytes;
            per_thread[op.thread as usize].1 += op.end_ns - op.start_ns;
        }
        let rate: f64 = per_thread
            .iter()
            .filter(|(_, ns)| *ns > 0)
            .map(|&(bytes, ns)| {
                if open_loop {
                    bytes as f64 / 1e6 / wall_s
                } else {
                    bytes as f64 / 1e6 / (ns as f64 / 1e9)
                }
            })
            .sum();
        (rate > 0.0).then_some(rate)
    })
}

fn p50_ms(run: &Run, kind: Kind) -> f64 {
    let mut all: Vec<f64> = home(run, kind)
        .tally
        .log
        .iter()
        .filter(|op| op.kind == kind)
        .map(ms)
        .collect();
    median(&mut all)
}

/// Percentile `q` per window over the operations `keep` selects, median
/// of windows.
pub fn tail_ms(phase: &Phase, q: f64, keep: impl Fn(&OpRec) -> bool) -> f64 {
    window_median(phase, |ops| {
        let mut v: Vec<f64> = ops.iter().filter(|op| keep(op)).map(|op| ms(op)).collect();
        (!v.is_empty()).then(|| percentile(&mut v, q))
    })
}

/// Operations per second of each window, median. An operation counts
/// towards a window by the share of its duration inside it, so that a
/// few long operations per window are not rounded to whole counts.
fn ops_per_s(phase: &Phase) -> f64 {
    let width = (phase.end_ns - phase.start_ns) / phase.windows as u64;
    let mut rates: Vec<f64> = (0..phase.windows as u64)
        .map(|w| {
            let (lo, hi) = (phase.start_ns + w * width, phase.start_ns + (w + 1) * width);
            let ops: f64 = phase
                .tally
                .log
                .iter()
                .map(|op| {
                    let inside = op.end_ns.min(hi).saturating_sub(op.start_ns.max(lo));
                    inside as f64 / (op.end_ns - op.start_ns).max(1) as f64
                })
                .sum();
            ops / (width as f64 / 1e9)
        })
        .collect();
    median(&mut rates)
}

/// Every end-to-end metric of BENCHMARK.json, in its order.
pub fn end_to_end(run: &Run, cfg: &Cfg, setup_s: f64) -> Vec<(&'static str, f64)> {
    let main = &run.main;
    // Block reads the disks serviced during the main phase per source
    // block of the reads it completed: the I/O cost of speculation.
    let reads = &main.tally.intact;
    let degraded = &main.tally.degraded;
    let serviced: u64 = main.disk.read_blocks.iter().sum();
    vec![
        ("setup_s", setup_s),
        ("write_MBps", mbps(run, cfg, Kind::Write)),
        ("read_MBps", mbps(run, cfg, Kind::Read)),
        ("degraded_read_MBps", mbps(run, cfg, Kind::Degraded)),
        ("write_p50_ms", p50_ms(run, Kind::Write)),
        ("read_p50_ms", p50_ms(run, Kind::Read)),
        (
            "read_p95_ms",
            tail_ms(main, 0.95, |op| op.kind == Kind::Read),
        ),
        ("ops_per_s", ops_per_s(main)),
        ("stored_per_user_byte", run.stored_per_user_byte),
        (
            "read_io_overhead",
            serviced as f64 / (reads.k + degraded.k) as f64,
        ),
    ]
}

/// Sample counts behind the percentiles, for the human-readable report.
pub fn sample_counts(run: &Run) -> String {
    let count =
        |phase: &Phase, kind: Kind| phase.tally.log.iter().filter(|op| op.kind == kind).count();
    let mut s = format!(
        "samples main: write {} read {} degraded {} delete {}",
        count(&run.main, Kind::Write),
        count(&run.main, Kind::Read),
        count(&run.main, Kind::Degraded),
        count(&run.main, Kind::Delete)
    );
    if let Some(c) = &run.complement {
        s.push_str(&format!(
            "; complement: write {} degraded {}",
            count(c, Kind::Write),
            count(c, Kind::Degraded)
        ));
    }
    let skipped = run.main.tally.degraded_skipped
        + run
            .complement
            .as_ref()
            .map_or(0, |c| c.tally.degraded_skipped);
    s.push_str(&format!(
        "; degraded reads skipped as undecodable: {skipped} ({:.4} of those wanted)",
        run.degraded_skipped_share
    ));
    let late = &run.main.tally.late_us;
    if !late.is_empty() {
        s.push_str(&format!(
            "; handed over late: {} of {} accesses, worst {:.0} us",
            late.iter().filter(|&&us| us > 0.0).count(),
            late.len(),
            late.iter().fold(0.0f64, |a, &b| a.max(b))
        ));
    }
    s
}
