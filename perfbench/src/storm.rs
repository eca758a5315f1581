//! Workload `register_storm_10k`: a flat hierarchy cold-starts away
//! from home and every mobile host registers through its cell's foreign
//! agent with its regional home agent. The measured window is the
//! registration storm itself; a reachability sweep (one probe from the
//! correspondent to every mobile) follows it and checks that the
//! registrations took effect. The traced run also runs the storm on the
//! two-shard engine for the `shard` layer.

use std::net::Ipv4Addr;
use std::time::Instant;

use mhrp::{Attachment, MobileHostNode};
use netsim::time::SimDuration;
use netsim::{NodeId, SimWorld};
use scenarios::hierarchy::{Hierarchy, HierarchyParams, ShardedHierarchy};

use crate::codecs;
use crate::report::{exact_mismatches, quantile, Iteration, Metrics};
use crate::sim::{
    host_equivalent_us, reach_sweep, role_table, Profile, Stepped, ROLE_NAMES, SWEEP_DRAIN,
    SWEEP_TICK,
};

/// Shape of a storm world.
#[derive(Debug, Clone, Copy)]
pub struct StormSize {
    /// Regions (one regional router / home agent each).
    pub regions: usize,
    /// Foreign agents (cells) per region.
    pub fas: usize,
    /// Mobile hosts per region.
    pub mobiles: usize,
    /// Simulated length of the measured window from cold start.
    pub window: SimDuration,
    /// Events the classic world must process at seed 1994, when pinned.
    pub events_at_1994: Option<u64>,
}

/// The benchmark size: 4 regions × 50 cells × 2,500 mobiles.
pub const FULL: StormSize = StormSize {
    regions: 4,
    fas: 50,
    mobiles: 2_500,
    window: SimDuration::from_secs(6),
    events_at_1994: Some(2_733_492),
};

/// Smoke-test size: 2 regions × 4 cells × 40 mobiles.
pub const TOY: StormSize = StormSize {
    regions: 2,
    fas: 4,
    mobiles: 40,
    window: SimDuration::from_secs(6),
    events_at_1994: None,
};

/// Frames the traced storm captures for the codec replay.
const CAPTURE_FRAMES: usize = 100_000;

/// Shards of the sharded storm in the traced run.
pub const SHARDS: usize = 2;

/// Shortest acceptable registered fraction.
const MIN_REGISTERED: f64 = 0.99;

/// Share of the simulator's traced host time the role self times may
/// leave unaccounted.
const ROLE_SUM_TOLERANCE: f64 = 0.05;
/// Traced windows shorter than this (smoke-test sizes) skip the role
/// sum check: fixed costs such as opening a capture dominate them.
const MIN_CHECKED_TRACE_S: f64 = 0.5;

fn params(size: &StormSize, seed: u64) -> HierarchyParams {
    HierarchyParams {
        regions: size.regions,
        fas_per_region: size.fas,
        mobiles_per_region: size.mobiles,
        correspondent: true,
        seed,
        ..HierarchyParams::default()
    }
}

/// Handles into a built hierarchy, independent of the engine.
pub struct Handles {
    /// Mobile hosts.
    pub mobiles: Vec<NodeId>,
    /// Their home addresses.
    pub addrs: Vec<Ipv4Addr>,
    /// The backbone correspondent.
    pub correspondent: NodeId,
    /// Role of every node.
    pub roles: Vec<u8>,
    /// Mobile hosts per region.
    pub per_region: usize,
    /// Host seconds `build` took.
    pub build_s: f64,
}

fn handles(
    mobiles: Vec<NodeId>,
    addrs: Vec<Ipv4Addr>,
    fas: &[NodeId],
    routers: &[NodeId],
    correspondent: Option<NodeId>,
    per_region: usize,
    build_s: f64,
) -> Handles {
    let correspondent = correspondent.expect("hierarchy built with a correspondent");
    let nodes = mobiles.iter().chain(fas).chain(routers).map(|n| n.0 + 1).max().unwrap_or(0);
    let roles = role_table(nodes.max(correspondent.0 + 1), &mobiles, fas, routers, correspondent);
    Handles { mobiles, addrs, correspondent, roles, per_region, build_s }
}

/// Builds the classic single-world hierarchy.
pub fn build_classic(size: &StormSize, seed: u64) -> (Hierarchy, Handles) {
    let t0 = Instant::now();
    let h = Hierarchy::build(params(size, seed));
    let build_s = t0.elapsed().as_secs_f64();
    let addrs = (0..h.mobiles.len()).map(|i| h.mobile_addr(i)).collect();
    let hs = handles(
        h.mobiles.clone(),
        addrs,
        &h.fas,
        &h.routers,
        h.correspondent,
        h.mobiles_per_region,
        build_s,
    );
    (h, hs)
}

/// Builds the region-sharded hierarchy.
pub fn build_sharded(size: &StormSize, seed: u64, shards: usize) -> (ShardedHierarchy, Handles) {
    let t0 = Instant::now();
    let h = ShardedHierarchy::build(params(size, seed), shards);
    let build_s = t0.elapsed().as_secs_f64();
    let addrs = (0..h.mobiles.len()).map(|i| h.mobile_addr(i)).collect();
    let hs = handles(
        h.mobiles.clone(),
        addrs,
        &h.fas,
        &h.routers,
        h.correspondent,
        h.mobiles_per_region,
        build_s,
    );
    (h, hs)
}

/// Everything measured after a storm window has run: the end-to-end
/// metrics (except `setup_s`, `run_s` and memory, which the caller
/// owns), the output checks, and the sweep's driver timings.
fn outputs<W: SimWorld>(
    world: &mut W,
    h: &Handles,
    run_s: f64,
    events: u64,
    window: SimDuration,
) -> (Iteration, crate::sim::ProbeLog) {
    let n = h.mobiles.len();
    let mut it = Iteration { attempted: n as u64, ..Iteration::default() };
    let mut reg_latency_us = Vec::with_capacity(n);
    let mut is_attached = Vec::with_capacity(n);
    for &m in &h.mobiles {
        let core = &world.node::<MobileHostNode>(m).core;
        let up = matches!(core.state, Attachment::Foreign(_));
        let s = core.stats;
        if s.registration_latency_count > 0 {
            reg_latency_us
                .push(s.registration_latency_us_sum as f64 / s.registration_latency_count as f64);
        }
        is_attached.push(up && s.ha_registrations_acked > 0);
    }
    let registered = is_attached.iter().filter(|&&a| a).count();
    it.failed = (n - registered) as u64;
    it.check(registered as f64 >= n as f64 * MIN_REGISTERED, || {
        format!("only {registered}/{n} mobile hosts registered")
    });
    let control = world.counter("mhrp.registration_msgs_sent") + world.counter("mhrp.updates_sent");

    // The correspondent has resolved no next hop yet, and its ARP queue
    // holds 16 packets per next hop: probe one mobile per region first,
    // then everyone else.
    let (first, rest): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % h.per_region == 0);
    let mut got = vec![false; n];
    let mut overhead = 0;
    let mut log = crate::sim::ProbeLog::default();
    for stage in [first, rest] {
        let targets = stage.iter().map(|&i| (h.mobiles[i], h.addrs[i])).collect();
        let sweep = reach_sweep(world, h.correspondent, targets);
        for (&i, d) in stage.iter().zip(sweep.delivered) {
            got[i] = d;
        }
        overhead += sweep.overhead_bytes;
        log.absorb(sweep.log);
    }
    let unreachable = is_attached.iter().zip(&got).filter(|&(&up, &got)| up && !got).count();
    it.check(unreachable == 0, || {
        format!("{unreachable} registered mobile hosts missed their reachability probe")
    });
    let delivered = got.iter().filter(|&&d| d).count();

    let (p50, p99) = (quantile(&mut reg_latency_us, 0.50), quantile(&mut reg_latency_us, 0.99));
    let m = &mut it.metrics;
    m.host("run_s", "s", run_s);
    m.host("events_per_s", "1/s", events as f64 / run_s);
    m.exact("sim_latency_p50_us", "us", p50);
    m.exact("sim_latency_p99_us", "us", p99);
    m.host("live_latency_p50_us", "us", host_equivalent_us(p50, run_s, window));
    m.host("live_latency_p99_us", "us", host_equivalent_us(p99, run_s, window));
    m.exact("overhead_bytes_per_pkt", "B", overhead as f64 / delivered.max(1) as f64);
    m.exact("control_msgs_per_mobile", "count", control as f64 / n as f64);
    m.exact("events", "count", events as f64);
    m.exact("registered", "count", registered as f64);
    m.exact("sweep_delivered", "count", delivered as f64);
    m.exact("sweep_sim_latency_p50_us", "us", quantile(&mut log.sim_latency_us, 0.50));
    (it, log)
}

/// Runs the window of a freshly built world and measures it.
fn iterate<W: SimWorld>(world: &mut W, h: &Handles, size: &StormSize) -> Iteration {
    let end = world.now() + size.window;
    let t0 = Instant::now();
    world.run_until(end);
    let run_s = t0.elapsed().as_secs_f64();
    let events = world.events_processed();
    let (mut it, _) = outputs(world, h, run_s, events, size.window);
    it.metrics.host("setup_s", "s", h.build_s);
    it
}

/// One untraced iteration on the classic world.
pub fn iteration(size: &StormSize, seed: u64) -> Iteration {
    let (mut h, hs) = build_classic(size, seed);
    let mut it = iterate(&mut h.world, &hs, size);
    if let (Some(want), 1994) = (size.events_at_1994, seed) {
        let events = it.metrics.get("events").unwrap_or(f64::NAN);
        it.check(events == want as f64, || {
            format!("seed 1994 must process {want} events, got {events}")
        });
    }
    it
}

/// Per-layer measurements of the classic storm: an untraced baseline
/// (whose warm-up to 99% attached is timed on its own, and whose sweep's
/// `SoakIo` call times give the `workload.*` metrics), then a traced
/// rerun of the same world through the step loop, with two capture
/// windows (storm traffic, then the sweep) for the codec replay.
pub struct ClassicTrace {
    /// The per-layer metrics.
    pub layers: Metrics,
    /// The untraced baseline's iteration (ops and checks).
    pub baseline: Iteration,
    /// Host seconds of the untraced window.
    pub run_s: f64,
}

/// Runs [`ClassicTrace`].
pub fn trace_classic(size: &StormSize, seed: u64) -> ClassicTrace {
    // Untraced baseline.
    let (mut h, hs) = build_classic(size, seed);
    let end = h.world.now() + size.window;
    let t0 = Instant::now();
    h.run_until_attached(MIN_REGISTERED, size.window);
    let warmup_s = t0.elapsed().as_secs_f64();
    h.world.run_until(end);
    let run_s = t0.elapsed().as_secs_f64();
    let events = h.world.events_processed();
    let frames = h.world.stats().counter("link.frames_delivered");
    let cancelled = h.world.stats().counter("sim.timers_cancelled");
    let (mut baseline, log) = outputs(&mut h.world, &hs, run_s, events, size.window);
    baseline.metrics.host("setup_s", "s", hs.build_s);
    drop(h);

    // Traced rerun.
    let (mut h2, hs2) = build_classic(size, seed);
    let mut st = Stepped::new(&mut h2.world, &hs2.roles);
    // Mobiles start searching once the home watchdog (3 s) gives up;
    // from 4 s the storm is a dense burst of solicitations and
    // advertisements, and from 4.1 s registrations and their ARP
    // exchanges dominate: capture those, up to CAPTURE_FRAMES.
    let from = st.world.now() + SimDuration::from_millis(4_100);
    st.prof.capture = Some((from, end));
    st.prof.capture_limit = CAPTURE_FRAMES;
    let t0 = Instant::now();
    SimWorld::run_until(&mut st, end);
    let traced_s = t0.elapsed().as_secs_f64();
    let traced_events = st.world.events_processed() - st.prof.sentinels;
    // The window's profile; the sweep below gets a fresh one, of which
    // only the capture is kept.
    let mut prof = std::mem::take(&mut st.prof);
    // Capture the first tick of the sweep's second stage, when the
    // probes and the updates they trigger are in flight.
    let stage2 = st.world.now() + SWEEP_TICK + SWEEP_DRAIN;
    st.prof.capture = Some((stage2, stage2 + SWEEP_TICK));
    let (traced, _) = outputs(&mut st, &hs2, traced_s, traced_events, size.window);
    st.close_capture();
    prof.pcaps.append(&mut st.prof.pcaps);
    let counters = |name: &str| h2.world.stats().counter(name) as f64;

    let mut errors = std::mem::take(&mut baseline.errors);
    if traced_events != events {
        errors.push(format!("traced run processed {traced_events} events, untraced {events}"));
    }
    errors.extend(exact_mismatches(&baseline.metrics, &traced.metrics));
    check_role_sum(&prof, traced_s, &mut errors);
    baseline.errors = errors;

    let mut l = Metrics::default();
    l.host("scenarios.build_s", "s", hs2.build_s);
    l.host("scenarios.warmup_s", "s", warmup_s);
    layer_common(&mut l, &prof, traced_s, run_s, events, frames, cancelled);
    for name in [
        "mhrp.ha_registrations",
        "mhrp.updates_sent",
        "mhrp.updates_rate_limited",
        "mhrp.cache.evictions",
    ] {
        l.exact(name, "count", counters(name));
    }
    l.exact("mhrp.sender_tunnel_ratio", "ratio", sender_tunnel_ratio(counters));
    l.0.extend(codecs::replay(&prof.pcaps).0);
    l.host("workload.transmit_s", "s", log.transmit_s);
    l.host("workload.poll_s", "s", log.poll_s);
    l.host("workload.run_until_s", "s", log.run_until_s);
    ClassicTrace { layers: l, baseline, run_s }
}

/// `tunneled_by_sender` over every encapsulation counter.
pub fn sender_tunnel_ratio(counter: impl Fn(&str) -> f64) -> f64 {
    let by_sender = counter("mhrp.tunneled_by_sender");
    let all = by_sender
        + counter("mhrp.tunneled_by_router_ca")
        + counter("mhrp.ha_tunneled")
        + counter("mhrp.fa_tunneled_home")
        + counter("mhrp.reg_retunneled");
    if all > 0.0 {
        by_sender / all
    } else {
        0.0
    }
}

/// Step-loop metrics shared by the traced simulated workloads.
pub fn layer_common(
    l: &mut Metrics,
    prof: &Profile,
    traced_s: f64,
    run_s: f64,
    events: u64,
    frames: u64,
    cancelled: u64,
) {
    l.host("netsim.step_ns_p50", "ns", prof.step_ns_quantile(0.50));
    l.host("netsim.step_ns_p99", "ns", prof.step_ns_quantile(0.99));
    l.exact("netsim.events", "count", events as f64);
    l.exact("netsim.frames_delivered", "count", frames as f64);
    l.exact("netsim.timers_cancelled", "count", cancelled as f64);
    for (name, s) in ROLE_NAMES.iter().zip(prof.role_s) {
        l.host(name, "s", s);
    }
    l.host("mhrp.unattributed_s", "s", prof.unattributed_s);
    l.host("mhrp.role_coverage", "ratio", prof.role_sum() / traced_s);
    l.host("trace.run_s", "s", traced_s);
    l.host("telemetry.trace_overhead", "ratio", traced_s / run_s);
}

/// The role self times must account for `window_s`, the host time the
/// simulator spent in the traced window, to within [`ROLE_SUM_TOLERANCE`]
/// (windows of at least [`MIN_CHECKED_TRACE_S`]). The remainder is
/// sentinel steps and steps that left no node record.
pub fn check_role_sum(prof: &Profile, window_s: f64, errors: &mut Vec<String>) {
    let gap = (window_s - prof.role_sum()) / window_s;
    if window_s >= MIN_CHECKED_TRACE_S && !(0.0..=ROLE_SUM_TOLERANCE).contains(&gap) {
        errors.push(format!(
            "role self times sum to {:.4} s of {window_s:.4} s ({:.1}% unaccounted, tolerance {:.0}%)",
            prof.role_sum(),
            gap * 100.0,
            ROLE_SUM_TOLERANCE * 100.0
        ));
    }
}

/// Per-layer measurements of the storm: the classic trace, then the same
/// hierarchy on the two-shard engine with threads on and off for the
/// `shard` metrics (the sharded engine has no step API, so the role
/// times and codecs come from the classic engine).
pub fn trace(size: &StormSize, seed: u64) -> (Metrics, Iteration) {
    let ClassicTrace { layers: mut l, mut baseline, run_s: classic_s } = trace_classic(size, seed);
    let mut errors = std::mem::take(&mut baseline.errors);

    let (mut h, hs) = build_sharded(size, seed, SHARDS);
    let end = h.world.now() + size.window;
    let t0 = Instant::now();
    h.world.run_until(end);
    let run_s = t0.elapsed().as_secs_f64();
    let world = &mut h.world;
    let events = world.events_processed();
    let windows = world.windows_run();
    let shard_events: Vec<f64> =
        (0..world.shard_count()).map(|s| world.shard(s).events_processed() as f64).collect();
    let mailbox = world.counter("shard.ingress_frames") + world.counter("shard.egress_frames");
    let (mut it, _) = outputs(world, &hs, run_s, events, size.window);
    drop(h);

    let (mut serial, _) = build_sharded(size, seed, SHARDS);
    serial.world.set_parallel(false);
    let t0 = Instant::now();
    serial.world.run_until(end);
    let serial_s = t0.elapsed().as_secs_f64();
    let serial_events = serial.world.events_processed();
    if serial_events != events {
        errors.push(format!(
            "serial sharded run processed {serial_events} events, threaded {events}"
        ));
    }
    drop(serial);

    let mean = shard_events.iter().sum::<f64>() / shard_events.len() as f64;
    let max = shard_events.iter().copied().fold(0.0, f64::max);
    l.exact("shard.windows", "count", windows as f64);
    l.exact("shard.imbalance", "ratio", max / mean);
    l.exact("shard.mailbox_frames", "count", mailbox as f64);
    l.host("shard.serial_run_s", "s", serial_s);
    l.host("shard.speedup", "ratio", serial_s / run_s);
    l.host("shard.tax", "ratio", serial_s / classic_s);
    // The classic baseline's operations and end-to-end metrics; the
    // sharded run adds its checks.
    errors.append(&mut it.errors);
    baseline.errors = errors;
    (l, baseline)
}
