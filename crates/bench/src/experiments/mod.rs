//! The experiment implementations, grouped by the evaluation section they
//! reproduce.

pub mod ablation;
pub mod cache;
pub mod coding;
pub mod competitive;
pub mod disk;
pub mod faults;
pub mod layoutvar;
pub mod metadata;
pub mod multiuser;
pub mod repair;
pub mod scrub;

use robustore_schemes::{run_trials, AccessConfig, TrialStats};
use robustore_simkit::report::Table;

use crate::MASTER_SEED;

/// Standard columns for a scheme-comparison sweep: the three §6.2.3
/// metrics plus mean latency for context.
pub fn metric_header(sweep: &str) -> Vec<&str> {
    // Leaked once per table construction; tables are few and small.
    vec![
        Box::leak(sweep.to_string().into_boxed_str()),
        "scheme",
        "bw (MB/s)",
        "lat (s)",
        "lat stdev (s)",
        "I/O overhead",
    ]
}

/// Append one (sweep-point, scheme) row.
pub fn metric_row(table: &mut Table, point: String, scheme: &str, s: &TrialStats) {
    table.row(vec![
        point,
        scheme.to_string(),
        format!("{:.1}", s.mean_bandwidth_mbps()),
        format!("{:.2}", s.mean_latency_secs()),
        format!("{:.3}", s.latency_stdev_secs()),
        format!("{:.0}%", s.mean_io_overhead() * 100.0),
    ]);
}

/// Run `cfg` for `trials` with a seed derived from the experiment id and
/// sweep position, so experiments are independent and reproducible.
pub fn trials_for(cfg: &AccessConfig, trials: u64, id: &str, point: u64) -> TrialStats {
    let seed = id
        .bytes()
        .fold(MASTER_SEED, |h, b| {
            h.wrapping_mul(31).wrapping_add(b as u64)
        })
        .wrapping_add(point.wrapping_mul(0x9E37_79B9));
    run_trials(cfg, trials, seed)
}
