//! Per-probe results, SLO evaluation and the sim-vs-live
//! cross-validation check.

use std::collections::HashMap;

use netsim::time::SimTime;
use workload::{evaluate, SloMeasurements, SloReport, SloThresholds};

use crate::scenario::LoopbackScenario;

/// What happened to one probe in one runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Flow id (mobile index + 1).
    pub flow: u32,
    /// Sequence number within the flow.
    pub seq: u32,
    /// Whether it reached the mobile host.
    pub delivered: bool,
    /// Node ids of every frame delivery along its journey, in order
    /// (e.g. `[R1, R2, R3, R4, M]` for the home-routed first packet).
    pub hops: Vec<u32>,
    /// One-way send-to-delivery latency in microseconds (0 if lost).
    pub latency_us: u64,
}

/// One runtime's complete result: per-probe outcomes plus the SLO
/// report computed from them.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which runtime produced this (`"sim"` or `"live"`).
    pub label: String,
    /// Outcomes in probe send order.
    pub probes: Vec<ProbeOutcome>,
    /// The machine-checkable SLO evaluation.
    pub report: SloReport,
}

/// A delivery observed at a mobile host, before matching to the probe
/// timetable.
#[derive(Debug, Clone)]
pub(crate) struct RawDelivery {
    pub flow: u32,
    pub seq: u32,
    pub at: SimTime,
    pub hops: Vec<u32>,
}

/// Matches raw deliveries to the scenario's probe timetable and
/// evaluates the SLOs. `send_times` maps `(flow, seq)` to the actual
/// transmission time in the producing runtime's clock; `sim_seconds`,
/// `overhead_bytes` and `updates_sent` feed the rate/overhead SLOs.
/// The first send and the first delivery of a `(flow, seq)` count; a
/// delivery without a recorded send counts as undelivered.
pub(crate) fn assemble(
    label: &str,
    sc: &LoopbackScenario,
    deliveries: Vec<RawDelivery>,
    send_times: &[(u32, u32, SimTime)],
    sim_seconds: f64,
    overhead_bytes: u64,
    updates_sent: u64,
) -> RunOutcome {
    let mut sent_at: HashMap<(u32, u32), SimTime> = HashMap::with_capacity(send_times.len());
    for &(flow, seq, at) in send_times {
        sent_at.entry((flow, seq)).or_insert(at);
    }
    let mut hits: HashMap<(u32, u32), &RawDelivery> = HashMap::with_capacity(deliveries.len());
    for d in &deliveries {
        hits.entry((d.flow, d.seq)).or_insert(d);
    }
    let mut probes = Vec::with_capacity(sc.probes.len());
    let mut latencies = Vec::new();
    for p in &sc.probes {
        let key = (p.flow, p.seq);
        let outcome = match (hits.get(&key), sent_at.get(&key)) {
            (Some(d), Some(&sent)) => {
                let latency_us = if d.at >= sent { d.at.since(sent).as_micros() } else { 0 };
                latencies.push(latency_us);
                ProbeOutcome {
                    flow: p.flow,
                    seq: p.seq,
                    delivered: true,
                    hops: d.hops.clone(),
                    latency_us,
                }
            }
            _ => ProbeOutcome {
                flow: p.flow,
                seq: p.seq,
                delivered: false,
                hops: Vec::new(),
                latency_us: 0,
            },
        };
        probes.push(outcome);
    }
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() - 1) * p / 100]
        }
    };
    let delivered = probes.iter().filter(|p| p.delivered).count() as u64;
    let m = SloMeasurements {
        sim_seconds,
        handoffs: sc.moves.handoffs(),
        sent: sc.probes.len() as u64,
        delivered,
        latency_p50_us: pct(50),
        latency_p99_us: pct(99),
        latency_max_us: latencies.last().copied().unwrap_or(0),
        overhead_bytes,
        updates_sent,
        ..SloMeasurements::default()
    };
    let report = evaluate(format!("loopback-{}m", sc.mobiles), label, m, &SloThresholds::default());
    RunOutcome { label: label.to_string(), probes, report }
}

/// The result of comparing a simulated and a live run of the same
/// scenario.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// Probes compared.
    pub compared: usize,
    /// Human-readable description of every disagreement.
    pub mismatches: Vec<String>,
}

impl CrossValidation {
    /// True when every probe took the identical hop sequence in both
    /// runtimes (and both delivered the same set).
    pub fn pass(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl std::fmt::Display for CrossValidation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pass() {
            write!(f, "cross-validation PASS: {} probes, identical journeys", self.compared)
        } else {
            writeln!(f, "cross-validation FAIL ({} mismatches):", self.mismatches.len())?;
            for m in &self.mismatches {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}

/// Compares per-probe delivery and hop sequences between two runs of
/// the same scenario. Latencies are *not* compared — wall time and
/// simulated time measure different things — but both reports' SLO
/// verdicts are.
pub fn cross_validate(sim: &RunOutcome, live: &RunOutcome) -> CrossValidation {
    let mut mismatches = Vec::new();
    if sim.probes.len() != live.probes.len() {
        mismatches.push(format!(
            "probe count differs: {} in {}, {} in {}",
            sim.probes.len(),
            sim.label,
            live.probes.len(),
            live.label
        ));
    }
    for (a, b) in sim.probes.iter().zip(&live.probes) {
        if (a.flow, a.seq) != (b.flow, b.seq) {
            mismatches.push(format!(
                "probe order differs: ({},{}) vs ({},{})",
                a.flow, a.seq, b.flow, b.seq
            ));
            continue;
        }
        if a.delivered != b.delivered {
            mismatches.push(format!(
                "flow {} seq {}: delivered={} in {}, delivered={} in {}",
                a.flow, a.seq, a.delivered, sim.label, b.delivered, live.label
            ));
        } else if a.hops != b.hops {
            mismatches.push(format!(
                "flow {} seq {}: hops {:?} in {} vs {:?} in {}",
                a.flow, a.seq, a.hops, sim.label, b.hops, live.label
            ));
        }
    }
    for (outcome, label) in [(sim, &sim.label), (live, &live.label)] {
        if !outcome.report.pass {
            mismatches.push(format!("SLO report of {label} failed"));
        }
    }
    CrossValidation { compared: sim.probes.len().min(live.probes.len()), mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery(flow: u32, seq: u32, at_us: u64, hops: &[u32]) -> RawDelivery {
        RawDelivery { flow, seq, at: SimTime::from_micros(at_us), hops: hops.to_vec() }
    }

    #[test]
    fn assemble_keeps_the_first_delivery_and_needs_a_send() {
        let sc = LoopbackScenario::canonical(1);
        let (a, b) = (&sc.probes[0], &sc.probes[1]);
        let deliveries = vec![
            delivery(a.flow, a.seq, 1_500, &[0, 1, 6]),
            delivery(a.flow, a.seq, 1_900, &[0, 6]),
            delivery(b.flow, b.seq, 2_000, &[0, 6]),
        ];
        // Probe `b` was delivered but never recorded as sent.
        let sends = [(a.flow, a.seq, SimTime::from_micros(1_000))];
        let out = assemble("t", &sc, deliveries, &sends, 1.0, 0, 0);

        assert_eq!(out.probes.len(), sc.probes.len());
        let first = &out.probes[0];
        assert!(first.delivered);
        assert_eq!((first.hops.as_slice(), first.latency_us), ([0, 1, 6].as_slice(), 500));
        let unsent = &out.probes[1];
        assert_eq!((unsent.delivered, unsent.hops.len(), unsent.latency_us), (false, 0, 0));
        assert!(out.probes[2..].iter().all(|p| !p.delivered));
    }
}
