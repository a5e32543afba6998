//! `BENCHMARK.json` at the repository root declares what this package
//! reports; the two must not drift apart.

use apf_perfbench::report::{END_TO_END, PER_LAYER};
use apf_perfbench::workloads::tiles_unique::LADDER;
use apf_perfbench::workloads::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Every `"name": "..."` in file order, with the `"unit"` that follows it
/// inside the same object (None for workloads).
fn declared(json: &str) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\": \"") {
        rest = &rest[at + 9..];
        let end = rest.find('"').expect("closed name");
        let name = rest[..end].to_string();
        let object_end = rest.find('}').unwrap_or(rest.len());
        let unit = rest[..object_end].find("\"unit\": \"").map(|u| {
            let v = &rest[u + 9..];
            v[..v.find('"').expect("closed unit")].to_string()
        });
        out.push((name, unit));
    }
    out
}

#[test]
fn names_and_units_match_the_code() {
    let json = benchmark_json();
    assert!(
        apf_telemetry::validate_json(&json).is_ok(),
        "BENCHMARK.json is valid JSON"
    );
    let d = declared(&json);
    let expect: Vec<(String, Option<String>)> = WORKLOADS
        .iter()
        .map(|w| (w.to_string(), None))
        .chain(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .map(|(n, u)| (n.to_string(), Some(u.to_string()))),
        )
        .collect();
    assert_eq!(d, expect);
}

#[test]
fn the_ladder_in_the_workload_description_is_the_one_run() {
    let ladder: Vec<String> = LADDER.iter().map(|r| format!("{r:.0}")).collect();
    let json = benchmark_json();
    assert!(
        json.contains(&format!("ladder {}/s", ladder.join(","))),
        "tiles-unique why must state {ladder:?}"
    );
}
