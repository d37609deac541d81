//! The RobuSTore benchmark harness (see `README.md` and `../BENCHMARK.json`).
//!
//! One process drives `robustore_core`'s `System`/`Client` with four
//! workloads, reports the end-to-end metrics a user of the store would
//! see and — in a separate traced run — per-layer metrics measured by
//! timing calls into each layer's public functions from outside.

pub mod gen;
pub mod metrics;
pub mod probes;
pub mod service_disk;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
