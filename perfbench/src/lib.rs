//! Whole-co-simulation benchmark for the DiffTest-H reproduction.
//!
//! One command runs a named workload for a time budget and prints, as
//! its last line, one JSON object with the end-to-end metrics (tracing
//! off) or the per-layer metrics (a separate traced run whose layer
//! timings come from this crate's own hand-driven loop). See
//! `README.md` in this directory for the workloads and the layer →
//! metric → workload table.

pub mod host;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workload;

use run::Options;
use workload::SPECS;

/// Program length divisor of the smoke mode.
pub const SMOKE_SCALE: u32 = 60;

/// Runs every workload once at a tiny budget, untraced and traced, and
/// checks every output. Returns `(workload, attempted, failed)` per run;
/// at smoke length `lossy_boot` may or may not hit the retention defect
/// described in `README.md`, and the counts report what happened.
///
/// # Errors
///
/// Fails when a serve daemon cannot be started or reached.
pub fn smoke(seed: u64) -> std::io::Result<Vec<(&'static str, u64, u64)>> {
    let mut out = Vec::new();
    for spec in &SPECS {
        for trace in [false, true] {
            let o = run::run(&Options {
                spec,
                seed,
                seconds: 0.0,
                trace,
                scale: SMOKE_SCALE,
            })?;
            println!("{}", o.json());
            out.push((spec.name, o.attempted, o.failed));
        }
    }
    Ok(out)
}
