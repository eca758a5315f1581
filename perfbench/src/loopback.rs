//! Workload `live_loopback`: the Figure 1 internetwork run as real UDP
//! agents on 127.0.0.1 (`live::run_live` on the single-thread runtime),
//! cross-validated hop for hop against the simulator (`live::run_sim`).

use std::sync::Mutex;
use std::time::Instant;

use live::{cross_validate, run_live, run_sim, LiveDatagram, LoopbackScenario, ProbePoint};
use netsim::time::{SimDuration, SimTime};
use netsim::MacAddr;
use workload::{MoveOp, MovePlan};

use crate::codecs;
use crate::report::{quantile, Iteration, Metrics};

/// Shape of the loopback workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveSize {
    /// Mobile hosts, each moving D → E → home, staggered as in the
    /// canonical scenario.
    pub mobiles: usize,
    /// Open-loop train probes per mobile inside each dwell (after the
    /// dwell's first probe).
    pub probes_per_dwell: u32,
    /// Spacing of one mobile's probes.
    pub spacing: SimDuration,
}

/// The benchmark size: 8 mobiles, one probe every 2 ms per mobile
/// inside each dwell, 140 probes per dwell and 3,360 in all.
pub const FULL: LiveSize =
    LiveSize { mobiles: 8, probes_per_dwell: 139, spacing: SimDuration::from_millis(2) };

/// Smoke-test size: one mobile.
pub const TOY: LiveSize =
    LiveSize { mobiles: 1, probes_per_dwell: 20, spacing: SimDuration::from_millis(2) };

/// When a dwell's first probe is sent, after the move (as in the
/// canonical scenario); it is routed the old way and triggers the
/// location update.
const FIRST_PROBE: SimDuration = SimDuration::from_millis(300);
/// When the open-loop train starts: 50 ms after the first probe, the
/// canonical scenario's spacing, so every cache on the path has
/// converged in both runtimes and journeys are comparable hop for hop.
const TRAIN_START: SimDuration = SimDuration::from_millis(350);
/// The last probe of a dwell leaves at least this long before the
/// mobile's next move, as in the canonical scenario. A host stall can
/// make the live generator send late, and the live switchboard applies
/// a move at once, so a probe sent close to a move could cross it in
/// the live run but not in the simulated one.
const MOVE_MARGIN: SimDuration = SimDuration::from_millis(200);
/// Time between a mobile's moves: long enough for a 2 ms train of 139
/// probes after [`TRAIN_START`] and [`MOVE_MARGIN`] (the canonical
/// scenario dwells 600 ms).
const DWELL: SimDuration = SimDuration::from_millis(850);
/// Time from the last move to the end of the experiment, as the
/// canonical scenario leaves it.
const TAIL: SimDuration = SimDuration::from_millis(720);

/// The canonical scenario's cells, stagger and timers with longer
/// dwells, and its nine probes per mobile replaced by one probe 300 ms
/// after each move and then an open-loop train that stops
/// [`MOVE_MARGIN`] before the next move.
///
/// # Panics
///
/// Panics if the train does not fit in a dwell.
pub fn scenario(size: &LiveSize, seed: u64) -> LoopbackScenario {
    let train = size.spacing.as_nanos() * u64::from(size.probes_per_dwell.saturating_sub(1));
    assert!(
        (TRAIN_START + SimDuration::from_nanos(train) + MOVE_MARGIN) <= DWELL,
        "a dwell cannot hold {} probes",
        size.probes_per_dwell
    );
    let mut sc = LoopbackScenario::canonical(size.mobiles);
    sc.seed = seed;
    sc.probes.clear();
    sc.moves = MovePlan::new();
    let mut last_move = SimTime::ZERO;
    for m in 0..size.mobiles {
        for (phase, cell) in [(0u32, 0usize), (1, 1), (2, 2)] {
            let move_at = SimTime::from_millis(300 + 20 * m as u64)
                + SimDuration::from_nanos(DWELL.as_nanos() * u64::from(phase));
            sc.moves = std::mem::take(&mut sc.moves).op(move_at, MoveOp::Attach { host: m, cell });
            last_move = last_move.max(move_at);
            let per_dwell = size.probes_per_dwell + 1;
            for k in 0..per_dwell {
                let offset = if k == 0 {
                    FIRST_PROBE
                } else {
                    TRAIN_START
                        + SimDuration::from_nanos(size.spacing.as_nanos() * u64::from(k - 1))
                };
                sc.probes.push(ProbePoint {
                    at: move_at + offset,
                    mobile: m,
                    flow: m as u32 + 1,
                    seq: phase * per_dwell + k,
                });
            }
        }
    }
    sc.probes.sort_by_key(|p| p.at);
    sc.end = last_move + TAIL;
    sc
}

/// Simulated reference legs the control-message count averages over.
const CONTROL_SEEDS: u64 = 16;

/// Location updates per mobile in the simulated reference leg (the
/// control counter the live crate reports), averaged over
/// [`CONTROL_SEEDS`] seeds derived from `seed`: one seed's count over
/// eight mobiles moves in steps of 0.25 per mobile. Computed once per
/// process.
fn control_msgs_per_mobile(size: &LiveSize, seed: u64) -> f64 {
    static CACHE: Mutex<Vec<(usize, u64, f64)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().expect("no thread panicked while holding the cache");
    if let Some(&(_, _, v)) = cache.iter().find(|&&(m, s, _)| (m, s) == (size.mobiles, seed)) {
        return v;
    }
    let updates: u64 = (0..CONTROL_SEEDS)
        .map(|k| {
            let sc = scenario(size, seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            run_sim(&sc).report.measurements.updates_sent
        })
        .sum();
    let v = updates as f64 / (CONTROL_SEEDS * size.mobiles as u64) as f64;
    cache.push((size.mobiles, seed, v));
    v
}

/// One iteration: the simulated reference leg (part of set-up), then
/// the live fleet (the measured window), then cross-validation.
pub fn iteration(size: &LiveSize, seed: u64) -> Iteration {
    let t0 = Instant::now();
    let sc = scenario(size, seed);
    let build_s = t0.elapsed().as_secs_f64();
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let t_sim = Instant::now();
    let sim = run_sim(&sc);
    let sim_leg_s = t_sim.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let outcome = rt.block_on(run_live(&sc));
    let run_s = t1.elapsed().as_secs_f64();

    let mut it = Iteration { attempted: sc.probes.len() as u64, ..Iteration::default() };
    let live = match outcome {
        Ok(live) => live,
        Err(e) => {
            it.failed = it.attempted;
            it.errors.push(format!("live run failed: {e}"));
            return it;
        }
    };
    let xv = cross_validate(&sim, &live);
    it.check(xv.pass(), || format!("{xv}"));
    it.failed = sim
        .probes
        .iter()
        .zip(&live.probes)
        .filter(|(s, l)| !l.delivered || s.delivered != l.delivered || s.hops != l.hops)
        .count() as u64;
    it.check(sim.probes.iter().all(|p| p.delivered), || "the simulated leg lost probes".into());

    let delivered: Vec<_> = live.probes.iter().filter(|p| p.delivered).collect();
    let hops: usize = delivered.iter().map(|p| p.hops.len()).sum();
    let live_us: Vec<f64> = live
        .probes
        .iter()
        .map(|p| if p.delivered { p.latency_us as f64 } else { f64::NAN })
        .collect();
    let mut sim_us: Vec<f64> =
        sim.probes.iter().filter(|p| p.delivered).map(|p| p.latency_us as f64).collect();
    let lm = &live.report.measurements;
    let m = &mut it.metrics;
    m.host("setup_s", "s", setup_s);
    m.host("run_s", "s", run_s);
    m.host("events_per_s", "1/s", hops as f64 / run_s);
    m.exact("sim_latency_p50_us", "us", quantile(&mut sim_us, 0.50));
    m.exact("sim_latency_p99_us", "us", quantile(&mut sim_us, 0.99));
    m.host("overhead_bytes_per_pkt", "B", lm.overhead_bytes as f64 / delivered.len().max(1) as f64);
    m.exact("control_msgs_per_mobile", "count", control_msgs_per_mobile(size, seed));
    m.host("scenarios.build_s", "s", build_s);
    m.host("live.sim_leg_s", "s", sim_leg_s);
    m.host("live.overrun_ms", "ms", (run_s - sc.end.as_secs_f64()) * 1e3);
    m.host("live.journey_mismatches", "count", xv.mismatches.len() as f64);
    m.host("live.wire_codec_ns", "ns", codecs::wire_codec_ns(&probe_datagrams(&sc)));
    it.host_latency_us = live_us;
    it
}

/// One datagram per scheduled probe, sized like a tunneled probe on the
/// wire (IPv4 20 B + MHRP 12 B + UDP 8 B + payload).
fn probe_datagrams(sc: &LoopbackScenario) -> Vec<LiveDatagram> {
    sc.probes
        .iter()
        .map(|p| {
            let mut payload = vec![0u8; 20 + 12 + 8];
            payload.extend(workload::encode_probe(p.flow, p.seq, live::PROBE_LEN));
            LiveDatagram {
                segment: 4,
                journey: Some(telemetry::JourneyId(u64::from(p.seq))),
                src: MacAddr::from_index(1),
                dst: MacAddr::from_index(6 + p.mobile as u64),
                ethertype: 0x0800,
                payload,
            }
        })
        .collect()
}

/// Per-layer measurements: two iterations; the second's live-layer
/// timings are reported and the ratio of their windows is the tracing
/// overhead (the live agents keep telemetry on in both, so it measures
/// run-to-run noise).
pub fn trace(size: &LiveSize, seed: u64) -> (Metrics, Iteration) {
    let baseline = iteration(size, seed);
    let traced = iteration(size, seed);
    let mut l = Metrics::default();
    for name in [
        "scenarios.build_s",
        "live.sim_leg_s",
        "live.overrun_ms",
        "live.journey_mismatches",
        "live.wire_codec_ns",
    ] {
        if let Some(m) = traced.metrics.0.iter().find(|m| m.name == name) {
            l.0.push(m.clone());
        }
    }
    if let (Some(a), Some(b)) = (traced.metrics.get("run_s"), baseline.metrics.get("run_s")) {
        l.host("trace.run_s", "s", a);
        l.host("telemetry.trace_overhead", "ratio", a / b);
    }
    let mut baseline = baseline;
    baseline.errors.extend(traced.errors);
    (l, baseline)
}
