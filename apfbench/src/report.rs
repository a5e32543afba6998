//! Metric names, the result line, and the appended run record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::stats::Summary;

/// End-to-end metrics every workload reports with tracing off, with units.
/// `latency_*` and `throughput_per_s` mean the workload's own operation:
/// a tile request, a slide request, or a training step.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with tracing on, with units.
/// A layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.blur_ms", "ms"),
    ("core.canny_ms", "ms"),
    ("core.quadtree_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.raw_tokens", "count"),
    ("core.dropped_share", "share"),
    ("serve.content_key_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.linger_ms", "ms"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.cache_hit_share", "share"),
    ("serve.full_tier_share", "share"),
    ("serve.patchify_ms", "ms"),
    ("serve.forward_ms_per_req", "ms"),
    ("wire.frame_encode_ms", "ms"),
    ("wire.frame_decode_ms", "ms"),
    ("wire.bytes_per_call", "bytes"),
    ("wire.overhead_ms", "ms"),
    ("models.vit_forward_ms", "ms"),
    ("models.vit_forward_batched_ms_per_req", "ms"),
    ("tensor.tape_nodes", "count"),
    ("tensor.tape_bytes", "bytes"),
    ("tensor.conv2d_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optimizer_ms", "ms"),
    ("train.eval_loss_ms", "ms"),
    ("gigapixel.tile_read_ms", "ms"),
    ("gigapixel.window_p50_ms", "ms"),
    ("gigapixel.window_max_ms", "ms"),
    ("gigapixel.cache_hit_share", "share"),
    ("gigapixel.peak_resident_bytes", "bytes"),
    ("distsim.busy_spread_ms", "ms"),
    ("telemetry.overhead_share", "share"),
    ("bench.gen_lag_tail_ms", "ms"),
    ("trace.unexplained_share", "share"),
];

/// Requests of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase label.
    pub name: String,
    /// Operations sent.
    pub sent: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Failures by outcome kind.
    pub failures: BTreeMap<String, u64>,
}

impl Phase {
    /// An empty phase.
    pub fn new(name: impl Into<String>) -> Self {
        Phase {
            name: name.into(),
            ..Phase::default()
        }
    }

    /// Records one operation: `Ok` or the failure kind.
    pub fn record(&mut self, outcome: Result<(), &str>) {
        self.sent += 1;
        match outcome {
            Ok(()) => self.succeeded += 1,
            Err(kind) => *self.failures.entry(kind.to_string()).or_default() += 1,
        }
    }

    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name (from [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The in-run sample behind the value, when there is one.
    pub summary: Option<Summary>,
}

/// Everything a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Phases whose operations count as attempted (and failed).
    pub counted: Vec<Phase>,
    /// Phases reported but not counted (deliberate overload probes).
    pub probes: Vec<Phase>,
    /// Failed output checks; empty means correct.
    pub problems: Vec<String>,
    /// Human-readable tables for standard error.
    pub tables: Vec<String>,
    /// Figures recorded in the run record besides the metrics.
    pub extra: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Sets metric `name` (which must be a declared name) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64, summary: Option<Summary>) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.summary = summary;
            }
            None => self.metrics.push(Metric {
                name,
                value,
                unit,
                summary,
            }),
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Operations attempted in the counted phases.
    pub fn attempted(&self) -> u64 {
        self.counted.iter().map(|p| p.sent).sum()
    }

    /// Operations failed in the counted phases.
    pub fn failed(&self) -> u64 {
        self.counted.iter().map(Phase::failed).sum()
    }

    /// Fills every declared metric of the chosen set that is still missing
    /// with 0, and drops anything outside the set.
    pub fn complete(&mut self, traced: bool) {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in names {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.set(name, 0.0, None);
            }
        }
        self.metrics
            .retain(|m| names.iter().any(|(n, _)| *n == m.name));
        self.metrics
            .sort_by_key(|m| names.iter().position(|(n, _)| *n == m.name));
    }

    /// Whether every check passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.attempted() > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed`, and `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted().max(1),
            self.failed()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                v,
                json_str(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Environment variables whose name starts with `APF_`. The benchmark
/// measures the program's defaults, so this must be empty.
pub fn apf_environment() -> BTreeMap<String, String> {
    std::env::vars()
        .filter(|(k, _)| k.starts_with("APF_"))
        .collect()
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(r)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Identity of one run, for the record.
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether tracing was on.
    pub traced: bool,
}

/// Appends one JSON line describing the run to `path` (created if absent;
/// earlier lines are never rewritten).
pub fn append_record(
    path: &Path,
    root: &Path,
    info: &RunInfo,
    result: &RunResult,
) -> std::io::Result<()> {
    let mut s = String::new();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let backend = apf_tensor::kernels::backend::kernel_backend()
        .map_or_else(|e| format!("error: {e}"), |k| k.name().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = write!(
        s,
        "{{\"unix_time\": {unix}, \"git_sha\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"backend\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"apf_env\": {{",
        json_str(&git_sha(root)),
        json_str(&cpu_model()),
        json_str(&backend),
        json_str(info.workload),
        info.seed,
        info.seconds,
        info.traced,
    );
    for (i, (k, v)) in apf_environment().iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {}",
            if i > 0 { ", " } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    let _ = write!(
        s,
        "}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [",
        result.correct(),
        result.attempted(),
        result.failed()
    );
    for (i, p) in result.problems.iter().enumerate() {
        let _ = write!(s, "{}{}", if i > 0 { ", " } else { "" }, json_str(p));
    }
    s.push_str("], \"phases\": [");
    for (i, p) in result.counted.iter().chain(&result.probes).enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": {}, \"counted\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {{",
            if i > 0 { ", " } else { "" },
            json_str(&p.name),
            i < result.counted.len(),
            p.sent,
            p.succeeded
        );
        for (j, (k, v)) in p.failures.iter().enumerate() {
            let _ = write!(s, "{}{}: {v}", if j > 0 { ", " } else { "" }, json_str(k));
        }
        s.push_str("}}");
    }
    s.push_str("], \"extra\": {");
    for (i, (k, v)) in result.extra.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(s, "{}{}: {v}", if i > 0 { ", " } else { "" }, json_str(k));
    }
    s.push_str("}, \"metrics\": {");
    for (i, m) in result.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {{\"value\": {}, \"unit\": {}",
            if i > 0 { ", " } else { "" },
            json_str(m.name),
            if m.value.is_finite() { m.value } else { 0.0 },
            json_str(m.unit)
        );
        if let Some(sm) = &m.summary {
            let _ = write!(
                s,
                ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"p90\": {}, \"tail_pct\": {}, \"tail\": {}",
                sm.n, sm.q1, sm.p50, sm.q3, sm.p90, sm.tail_pct, sm.tail
            );
        }
        s.push('}');
    }
    s.push_str("}}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(s.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_contract_keys() {
        let mut r = RunResult::default();
        let mut p = Phase::new("main");
        p.record(Ok(()));
        p.record(Err("rejected"));
        r.counted.push(p);
        r.set("latency_p50_ms", 1.25, None);
        r.set("core.blur_ms", 3.0, None);
        r.complete(false);
        assert_eq!(
            r.metrics.len(),
            END_TO_END.len(),
            "per-layer names dropped, rest filled"
        );
        let line = r.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {")
        );
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(apf_telemetry::validate_json(&line).is_ok(), "{line}");
        r.problem("mismatch");
        assert!(!r.correct());
    }

    #[test]
    fn declared_names_follow_the_naming_rule() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
