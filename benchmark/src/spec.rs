//! The benchmark's contract: workloads, metric names, units, bounds.
//!
//! `../BENCHMARK.json` is generated from these tables (`rbench
//! --emit-spec`) and a self-test compares the committed file with them
//! byte for byte, so the names the harness prints and the names the
//! driver expects cannot drift apart.

/// How long one run measures, seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 28;

/// `(name, why)` per workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "bulk-cpu",
        "16 MiB objects on zero-delay disks: coding, checksums, buffer pool and the client pipeline do the work",
    ),
    (
        "disk-bound",
        "a writer beside a reader on 1 ms + 1 ms/block disks: ring batching, queueing and cancellation decide; CPU is idle",
    ),
    (
        "straggler-read",
        "open-loop Poisson reads with one hidden 8x-slow disk: wave policy and telemetry set the tail",
    ),
    (
        "small-files",
        "32 KiB objects, two threads, mixed ops: metadata commits, locks and planning dominate; bytes are negligible",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The metrics a user of the store would see. Every workload reports
/// every one (see `README.md` for which phase of a workload feeds which).
/// Every timing has the widest bound the contract allows: a bound is to
/// be three times the ten-run quartile spread, and on the shared 2-core
/// host that spread reaches 8–17 % on some workload for every one of them
/// (README, calibration; `out/spread-baseline.txt`).
pub const END_TO_END: [EndToEnd; 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("write_MBps", "MB/s", "higher", 0.25),
    ("read_MBps", "MB/s", "higher", 0.25),
    ("degraded_read_MBps", "MB/s", "higher", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p95_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("stored_per_user_byte", "ratio", "lower", 0.01),
    ("read_io_overhead", "ratio", "lower", 0.05),
];

/// One per-layer metric: `(name, unit, better)`. The prefix is the module.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: [PerLayer; 49] = [
    ("erasure.lt_plan_us", "us", "lower"),
    ("erasure.lt_encode_MBps", "MB/s", "higher"),
    ("erasure.lt_decode_MBps", "MB/s", "higher"),
    ("erasure.degraded_decode_MBps", "MB/s", "higher"),
    ("erasure.reception_overhead", "ratio", "lower"),
    ("erasure.pool_reuse_ratio", "ratio", "higher"),
    ("erasure.pool_fresh_MBps", "MB/s", "lower"),
    ("integrity.crc32c_GBps", "GB/s", "higher"),
    ("planner.plan_us", "us", "lower"),
    ("client.open_close_us", "us", "lower"),
    ("client.open_close_scaling.t2", "ratio", "higher"),
    ("adaptive.schedule_us", "us", "lower"),
    ("metastore.commit_us_p50", "us", "lower"),
    ("metastore.remove_us_p50", "us", "lower"),
    ("metastore.stat_ns", "ns", "lower"),
    ("metastore.wal_bytes_per_commit", "B", "lower"),
    ("metastore.recover_files_per_s", "1/s", "higher"),
    ("sharded.write_block_us", "us", "lower"),
    ("sharded.read_block_into_us", "us", "lower"),
    ("sharded.commit_batch_us_per_block", "us", "lower"),
    ("ring.roundtrip_us_p50", "us", "lower"),
    ("ring.write_blocks_per_s", "1/s", "higher"),
    ("ring.read_blocks_per_s", "1/s", "higher"),
    ("ring.group_commit_batch_mean", "count", "higher"),
    ("ring.disk_busy_share", "ratio", "higher"),
    ("ring.queue_wait_ms_p50", "ms", "lower"),
    ("ring.read_useful_ratio", "ratio", "higher"),
    ("ring.cancelled_share", "ratio", "higher"),
    ("ring.straggler_read_share", "ratio", "lower"),
    ("client.write_ms_p50", "ms", "lower"),
    ("client.read_ms_p50", "ms", "lower"),
    ("client.delete_us_p50", "us", "lower"),
    ("client.op_p99_ms", "ms", "lower"),
    ("client.write_vs_layers", "ratio", "lower"),
    ("client.read_vs_layers", "ratio", "lower"),
    ("client.write_vs_disk", "ratio", "lower"),
    ("client.read_waves_mean", "count", "lower"),
    ("client.read_deferred_mean", "count", "higher"),
    ("client.read_p99_ms.r75", "ms", "lower"),
    ("client.read_p99_ms.r225", "ms", "lower"),
    ("client.backlog_growth.r225", "ratio", "lower"),
    ("client.reactor_batch_scaling", "ratio", "lower"),
    ("repair.scrub_MBps", "MB/s", "higher"),
    ("repair.blocks_repaired_per_missing", "count", "lower"),
    ("harness.gen_late_p99_us", "us", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.trace_coverage", "ratio", "higher"),
    ("harness.failed_ratio", "ratio", "lower"),
    ("harness.degraded_skipped_share", "ratio", "lower"),
];

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
