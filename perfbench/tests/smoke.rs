//! Smoke tests: every workload, plain and traced, at toy size through the
//! same code path as the benchmark, and `BENCHMARK.json` in step with the
//! metrics the runner reports.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run, Config, END_TO_END, PER_LAYER, WORKLOADS};

fn toy(workload: &str, trace: bool) {
    let out = run(&Config { workload: workload.into(), seed: 7, seconds: 0.0, trace, toy: true });
    assert!(out.correct, "{workload} (trace {trace}) failed its checks:\n{}", out.lines.join("\n"));
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = out.metrics.0.iter().map(|m| m.name).collect();
    let want: Vec<&str> = expected.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, want);
    assert!(out.result.starts_with("{\"correct\": true, \"attempted\": "), "{}", out.result);
    if !trace {
        for m in &out.metrics.0 {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn register_storm_runs_at_toy_size() {
    toy("register_storm_10k", false);
    toy("register_storm_10k", true);
}

#[test]
fn roam_traffic_runs_at_toy_size() {
    toy("roam_traffic_1k", false);
    toy("roam_traffic_1k", true);
}

#[test]
fn live_loopback_runs_at_toy_size() {
    toy("live_loopback", false);
    toy("live_loopback", true);
}

/// Every quoted value following `key` in `text`, in order.
fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    names.extend(END_TO_END.iter().map(|&(n, _)| n));
    names.extend(PER_LAYER.iter().map(|&(n, _)| n));
    assert_eq!(values(&text, "name"), names);
    let units: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|&(_, u)| u).collect();
    assert_eq!(values(&text, "unit"), units);
}
