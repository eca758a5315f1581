//! Metric records, aggregation over repeated iterations, quantiles and
//! process memory.

use std::fmt::Write as _;

/// How a metric may vary between iterations of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host-time or host-dependent: reported as the median over the
    /// run's iterations.
    Host,
    /// Deterministic for a seed (simulated time, counts): every
    /// iteration must produce the identical value.
    Exact,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Aggregation rule.
    pub kind: Kind,
}

/// Builder-style list of metrics from one iteration or one traced run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a host-time metric.
    pub fn host(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value, kind: Kind::Host });
    }

    /// Adds a deterministic metric.
    pub fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value, kind: Kind::Exact });
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one iteration of a workload produced.
#[derive(Debug, Default, Clone)]
pub struct Iteration {
    /// End-to-end metrics of this iteration.
    pub metrics: Metrics,
    /// Operations attempted (registrations or probes).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks, one message each.
    pub errors: Vec<String>,
    /// Host-time latency of every operation in a fixed order, µs (`NaN`
    /// for a lost one); see [`per_op_lower_quartiles`].
    pub host_latency_us: Vec<f64>,
}

impl Iteration {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }
}

/// Folds iterations into one metric list: medians for [`Kind::Host`],
/// and for [`Kind::Exact`] the common value — a disagreement between
/// iterations of one seed is an error. See [`per_op_lower_quartiles`] for the
/// host-latency quantiles.
pub fn aggregate(iters: &[Iteration], errors: &mut Vec<String>) -> Metrics {
    let mut out = Metrics::default();
    let mut ops = per_op_lower_quartiles(iters);
    if !ops.is_empty() {
        out.host("live_latency_p50_us", "us", quantile(&mut ops, 0.50));
        out.host("live_latency_p99_us", "us", quantile(&mut ops, 0.99));
    }
    let Some(first) = iters.first() else { return out };
    for m in &first.metrics.0 {
        let values: Vec<f64> =
            iters.iter().map(|it| it.metrics.get(m.name).unwrap_or(f64::NAN)).collect();
        let value = match m.kind {
            Kind::Host => median(&values),
            Kind::Exact => {
                if values.iter().any(|v| v.to_bits() != m.value.to_bits()) {
                    errors.push(format!(
                        "{} differs across iterations of one seed: {values:?}",
                        m.name
                    ));
                }
                m.value
            }
        };
        out.0.push(Metric { value, ..m.clone() });
    }
    out
}

/// Each operation's host latency as its lower quartile over the
/// iterations (nearest rank: the 2nd smallest of 5 to 8 values);
/// operations line up across iterations of one seed, and lost ones are
/// `NaN` and skipped. A host stall delays the operations in flight in
/// the iterations it hits. On a shared virtual machine, stalls came
/// often enough in slow phases to hit one operation in half of a run's
/// iterations, so per-operation medians still carried them; the lower
/// quartile is what the operation costs when the host does not stall it,
/// and it still moves with any cost the program pays in every
/// iteration. Iterations that do not line up are pooled instead.
pub fn per_op_lower_quartiles(iters: &[Iteration]) -> Vec<f64> {
    let n = iters.first().map_or(0, |it| it.host_latency_us.len());
    if iters.iter().any(|it| it.host_latency_us.len() != n) {
        return iters.iter().flat_map(|it| it.host_latency_us.iter().copied()).collect();
    }
    let mut column = Vec::with_capacity(iters.len());
    (0..n)
        .filter_map(|i| {
            column.clear();
            column.extend(iters.iter().map(|it| it.host_latency_us[i]).filter(|v| !v.is_nan()));
            column.sort_unstable_by(f64::total_cmp);
            column.get((column.len().max(1) - 1) / 4).copied()
        })
        .collect()
}

/// One message per deterministic metric of `untraced` whose value
/// `traced` does not reproduce bit for bit.
pub fn exact_mismatches(untraced: &Metrics, traced: &Metrics) -> Vec<String> {
    untraced
        .0
        .iter()
        .filter(|m| m.kind == Kind::Exact)
        .filter_map(|m| {
            let t = traced.get(m.name);
            (t.map(f64::to_bits) != Some(m.value.to_bits()))
                .then(|| format!("traced {} = {t:?}, untraced {}", m.name, m.value))
        })
        .collect()
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` (0..=1) of `v`, which is sorted in place.
/// `NaN` for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each
/// benchmark run is its own process, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Formats the result line the benchmark contract asks for.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number; a non-finite value becomes `null`, so the line stays
/// parseable and the metric reads as missing.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn exact_metrics_must_agree() {
        let it = |v: f64| {
            let mut m = Metrics::default();
            m.exact("x", "count", v);
            m.host("t", "s", v);
            Iteration { metrics: m, ..Iteration::default() }
        };
        let mut errors = Vec::new();
        let agg = aggregate(&[it(1.0), it(1.0), it(1.0)], &mut errors);
        assert!(errors.is_empty());
        assert_eq!(agg.get("t"), Some(1.0));
        aggregate(&[it(1.0), it(2.0)], &mut errors);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn host_latency_is_a_per_operation_lower_quartile() {
        let it = |v: Vec<f64>| Iteration { host_latency_us: v, ..Iteration::default() };
        let iters =
            [it(vec![1.0, 10.0, f64::NAN]), it(vec![3.0, 90.0, 5.0]), it(vec![2.0, 20.0, 7.0])];
        assert_eq!(per_op_lower_quartiles(&iters), vec![1.0, 10.0, 5.0]);
        let five: Vec<Iteration> = [9.0, 1.0, 7.0, 3.0, 5.0].map(|v| it(vec![v])).into();
        assert_eq!(per_op_lower_quartiles(&five), vec![3.0]);
        let ragged = [it(vec![1.0]), it(vec![2.0, 3.0])];
        assert_eq!(per_op_lower_quartiles(&ragged), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.host("run_s", "s", 1.25);
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
