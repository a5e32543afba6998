//! The APF benchmark: four workloads run against the program's public API,
//! with output checks, end-to-end metrics (tracing off), and a per-layer
//! ledger from a separate traced run. See `README.md` in this directory.

pub mod goodput;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::RunResult;
use workloads::Ctx;

/// Runs workload `name`.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = match name {
        "tiles-unique" => workloads::tiles_unique::run(ctx),
        "tiles-hot-wire" => workloads::hot_wire::run(ctx),
        "slide-4k" => workloads::slide::run(ctx),
        "train-apf" => workloads::train::run(ctx),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            workloads::WORKLOADS
        )),
    }?;
    result.complete(ctx.traced);
    Ok(result)
}
