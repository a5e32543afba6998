//! `cargo run --release --manifest-path apfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>`, from the repository
//! root. Tables go to standard error; the last line of standard output is
//! the JSON result.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use apf_perfbench::report::{apf_environment, append_record, RunInfo};
use apf_perfbench::run_workload;
use apf_perfbench::workloads::Ctx;

/// Where runs keep scratch files and the appended run records.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = apf_environment();
    if !env.is_empty() {
        eprintln!(
            "apfbench: the benchmark measures the program's defaults; unset {:?}",
            env.keys()
        );
        return ExitCode::from(2);
    }
    let root = PathBuf::from(".");
    let work = root
        .join(WORK_ROOT)
        .join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        work: work.clone(),
    };
    let outcome = run_workload(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("apfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for t in &result.tables {
        eprintln!("{t}");
    }
    for p in result.counted.iter().chain(&result.probes) {
        eprintln!(
            "phase {:<28} sent {:>6} ok {:>6} failed {:>4} {:?}",
            p.name,
            p.sent,
            p.succeeded,
            p.failed(),
            p.failures
        );
    }
    for m in &result.metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &result.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let info = RunInfo {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    if let Err(e) = append_record(
        &Path::new(WORK_ROOT).join("runs.jsonl"),
        &root,
        &info,
        &result,
    ) {
        eprintln!("apfbench: could not append the run record: {e}");
    }
    println!("{}", result.result_line());
    ExitCode::SUCCESS
}
