//! A layered benchmark of the MHRP reproduction.
//!
//! Three workloads drive the workspace crates through their public APIs
//! (see `README.md` in this directory for why each was chosen and which
//! layer metric should move which end-to-end metric):
//!
//! * `register_storm_10k` — 10,000 mobiles cold-start and register;
//! * `roam_traffic_1k` — 1,000 roaming mobiles under 256 flows;
//! * `live_loopback` — Figure 1 over real UDP sockets.
//!
//! A plain run repeats its workload while another iteration fits in the
//! time budget and reports medians of the host-time metrics;
//! deterministic metrics must agree across the repeats. Host times of
//! simulator work are scaled to the nominal speed of a reference kernel
//! timed in the same run ([`calib`]). A traced run reports the
//! per-layer metrics; the storm's also runs the two-shard engine.

#![deny(missing_docs)]

pub mod calib;
pub mod codecs;
pub mod loopback;
pub mod report;
pub mod roam;
pub mod sim;
pub mod storm;

use std::time::Instant;

use report::{aggregate, median, peak_rss_mb, result_json, Iteration, Metrics};

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
    ("overhead_bytes_per_pkt", "B"),
    ("control_msgs_per_mobile", "count"),
    ("live_latency_p50_us", "us"),
    ("live_latency_p99_us", "us"),
];

/// Per-layer metrics of traced runs, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("scenarios.build_s", "s"),
    ("scenarios.warmup_s", "s"),
    ("netsim.step_ns_p50", "ns"),
    ("netsim.step_ns_p99", "ns"),
    ("netsim.events", "count"),
    ("netsim.frames_delivered", "count"),
    ("netsim.timers_cancelled", "count"),
    ("mhrp.mobile_host.self_s", "s"),
    ("mhrp.foreign_agent.self_s", "s"),
    ("mhrp.home_agent.self_s", "s"),
    ("mhrp.correspondent.self_s", "s"),
    ("mhrp.unattributed_s", "s"),
    ("mhrp.role_coverage", "ratio"),
    ("mhrp.ha_registrations", "count"),
    ("mhrp.updates_sent", "count"),
    ("mhrp.updates_rate_limited", "count"),
    ("mhrp.cache.evictions", "count"),
    ("mhrp.sender_tunnel_ratio", "ratio"),
    ("ip.decode_ns", "ns"),
    ("mhrp.header_decode_ns", "ns"),
    ("mhrp.control_decode_ns", "ns"),
    ("codec.frames", "count"),
    ("codec.ip_frames", "count"),
    ("codec.tunneled_frames", "count"),
    ("codec.control_frames", "count"),
    ("workload.transmit_s", "s"),
    ("workload.poll_s", "s"),
    ("workload.run_until_s", "s"),
    ("shard.windows", "count"),
    ("shard.imbalance", "ratio"),
    ("shard.mailbox_frames", "count"),
    ("shard.serial_run_s", "s"),
    ("shard.speedup", "ratio"),
    ("shard.tax", "ratio"),
    ("live.sim_leg_s", "s"),
    ("live.overrun_ms", "ms"),
    ("live.journey_mismatches", "count"),
    ("live.wire_codec_ns", "ns"),
    ("trace.run_s", "s"),
    ("telemetry.trace_overhead", "ratio"),
];

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["register_storm_10k", "roam_traffic_1k", "live_loopback"];

/// Host-time metrics reported at the reference kernel's nominal speed:
/// `(name, raw name, power)`. The raw median is multiplied by the run's
/// scale raised to `power`. Set-up is simulator work on every workload
/// (the live workload runs its simulated reference leg there); the
/// other metrics are scaled on the simulated workloads only.
const SCALED: [(&str, &str, i32); 5] = [
    ("setup_s", "raw.setup_s", 1),
    ("run_s", "raw.run_s", 1),
    ("events_per_s", "raw.events_per_s", -1),
    ("live_latency_p50_us", "raw.live_latency_p50_us", 1),
    ("live_latency_p99_us", "raw.live_latency_p99_us", 1),
];

/// How one benchmark run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget: iterations repeat while another one fits in it
    /// (at least one runs).
    pub seconds: f64,
    /// Traced run: report [`PER_LAYER`] instead of [`END_TO_END`].
    pub trace: bool,
    /// Smoke-test sizes instead of the benchmark sizes.
    pub toy: bool,
}

/// What a run printed and concluded.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable lines (every metric by name and unit, failed
    /// checks); the result line is not among them.
    pub lines: Vec<String>,
    /// The contract's result line.
    pub result: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Reported metric values by name.
    pub metrics: Metrics,
}

/// Iterations never repeat past this many seconds, so a run exits
/// within its time limit whatever `--seconds` says.
const HARD_LIMIT_S: f64 = 120.0;

fn one_iteration(cfg: &Config) -> Iteration {
    let (toy, seed) = (cfg.toy, cfg.seed);
    match cfg.workload.as_str() {
        "register_storm_10k" => {
            storm::iteration(if toy { &storm::TOY } else { &storm::FULL }, seed)
        }
        "roam_traffic_1k" => roam::iteration(if toy { &roam::TOY } else { &roam::FULL }, seed),
        "live_loopback" => {
            loopback::iteration(if toy { &loopback::TOY } else { &loopback::FULL }, seed)
        }
        other => panic!("unknown workload {other}"),
    }
}

fn traced(cfg: &Config) -> (Metrics, Iteration) {
    let (toy, seed) = (cfg.toy, cfg.seed);
    match cfg.workload.as_str() {
        "register_storm_10k" => storm::trace(if toy { &storm::TOY } else { &storm::FULL }, seed),
        "roam_traffic_1k" => roam::trace(if toy { &roam::TOY } else { &roam::FULL }, seed),
        "live_loopback" => {
            loopback::trace(if toy { &loopback::TOY } else { &loopback::FULL }, seed)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Whether the workload runs on the simulator alone. The live
/// workload's measured window follows its wall-clock timetable, so its
/// window metrics are reported raw.
fn simulated(workload: &str) -> bool {
    workload != "live_loopback"
}

/// Reports the [`SCALED`] metrics at the reference kernel's nominal
/// speed (all of them when `simulated`, else `setup_s` alone), keeping
/// the raw medians under their raw names.
fn scale_host_times(all: &mut Metrics, reference_s: f64, simulated: bool) {
    let scale = calib::NOMINAL_S / reference_s;
    for (name, raw, power) in SCALED {
        if !simulated && name != "setup_s" {
            continue;
        }
        if let Some(m) = all.0.iter_mut().find(|m| m.name == name) {
            let (value, unit) = (m.value, m.unit);
            m.value = value * scale.powi(power);
            all.host(raw, unit, value);
        }
    }
    all.host("calib.reference_s", "s", reference_s);
    all.host("calib.scale", "ratio", scale);
}

fn metric_lines(lines: &mut Vec<String>, metrics: &Metrics) {
    for m in &metrics.0 {
        lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }
}

/// Picks `names` out of `all` in order. A metric the workload does not
/// exercise reads 0 (listed in `README.md` per workload).
fn select(all: &Metrics, names: &[(&'static str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in names {
        let value = all.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        out.host(name, unit, value);
    }
    out
}

/// Runs the configured workload and builds the report.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(cfg: &Config) -> Outcome {
    let mut lines = vec![format!(
        "config workload={} seed={} seconds={} trace={} toy={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.toy
    )];
    let (all, attempted, failed, errors) = if cfg.trace {
        let (mut layers, it) = traced(cfg);
        lines.push("end-to-end metrics of the untraced baseline:".into());
        metric_lines(&mut lines, &it.metrics);
        layers.host("peak_rss_mb", "MiB", peak_rss_mb());
        (layers, it.attempted, it.failed, it.errors)
    } else {
        let start = Instant::now();
        let mut iters: Vec<Iteration> = Vec::new();
        let mut reference_s = Vec::new();
        let mut first_peak = None;
        loop {
            let t0 = Instant::now();
            iters.push(one_iteration(cfg));
            // Later iterations only add what the allocator keeps from
            // earlier ones, so the workload's peak is the first one's.
            // It is read before the reference kernel first runs.
            first_peak.get_or_insert_with(peak_rss_mb);
            reference_s.push(calib::reference_s(cfg.seed));
            // Stop when another iteration as long as this one would
            // overrun the budget.
            let next_end = start.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64();
            if next_end > cfg.seconds.min(HARD_LIMIT_S) {
                break;
            }
        }
        let mut errors: Vec<String> = iters.iter().flat_map(|it| it.errors.clone()).collect();
        let mut all = aggregate(&iters, &mut errors);
        all.host("peak_rss_mb", "MiB", first_peak.unwrap_or(f64::NAN));
        scale_host_times(&mut all, median(&reference_s), simulated(&cfg.workload));
        lines.push(format!("iterations {}", iters.len()));
        let mut per_iteration = |name: &str, v: Vec<f64>| {
            let v: Vec<String> = v.iter().map(|v| format!("{v:.4}")).collect();
            lines.push(format!("per-iteration {name}: {}", v.join(" ")));
        };
        for name in ["run_s", "setup_s"] {
            per_iteration(name, iters.iter().filter_map(|it| it.metrics.get(name)).collect());
        }
        per_iteration("reference_s", reference_s);
        let attempted = iters.iter().map(|it| it.attempted).sum();
        let failed = iters.iter().map(|it| it.failed).sum();
        (all, attempted, failed, errors)
    };
    metric_lines(&mut lines, &all);
    for e in &errors {
        lines.push(format!("CHECK FAILED: {e}"));
    }
    let correct = errors.is_empty();
    let metrics = select(&all, if cfg.trace { &PER_LAYER } else { &END_TO_END });
    let result = result_json(correct, attempted.max(1), failed, &metrics);
    Outcome { lines, result, correct, metrics }
}
