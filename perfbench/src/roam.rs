//! Workload `roam_traffic_1k`: a registered 1k-mobile hierarchy where
//! every mobile roams (random waypoint) while the correspondent runs
//! open-loop Poisson and closed-loop windowed flows at a subset of them
//! through the `workload` soak driver.

use std::net::Ipv4Addr;
use std::time::Instant;

use mhrp::MhrpHostNode;
use netsim::time::{SimDuration, SimTime};
use netsim::{IfaceId, NodeId, SimWorld, World};
use scenarios::hierarchy::{Hierarchy, HierarchyParams};
use scenarios::soak::MhrpIo;
use workload::{
    run_soak, Flow, FlowCfg, Layout, MobilityModel, MoveOp, MovePlan, Pattern, RandomWaypoint,
    SoakParams,
};

use crate::codecs;
use crate::report::{exact_mismatches, quantile, Iteration, Metrics};
use crate::sim::{host_equivalent_us, role_table, ProbeLog, Stepped, TimingIo, CORRESPONDENT};
use crate::storm::{check_role_sum, layer_common, sender_tunnel_ratio};

/// Shape of the roaming workload.
#[derive(Debug, Clone, Copy)]
pub struct RoamSize {
    /// Regions.
    pub regions: usize,
    /// Cells per region.
    pub fas: usize,
    /// Mobile hosts per region.
    pub mobiles: usize,
    /// Flows from the correspondent (each to a distinct mobile).
    pub flows: usize,
    /// Of those, closed-loop flows (window 4); the rest are Poisson.
    pub closed: usize,
    /// Poisson rate per open-loop flow, packets per second.
    pub rate: f64,
    /// Simulated length of the measured soak (a 2 s drain follows).
    pub duration: SimDuration,
}

/// The benchmark size: 2 × 10 × 500, 256 flows (192 Poisson at
/// 50 pkt/s, 64 closed-loop), 20 s simulated. A 20 s soak (about five
/// handoffs per mobile) fits 11–15 iterations into a 40 s run, where a
/// 60 s soak fits three into a 30 s run, and host-time medians over
/// three iterations spread too widely on a shared machine.
pub const FULL: RoamSize = RoamSize {
    regions: 2,
    fas: 10,
    mobiles: 500,
    flows: 256,
    closed: 64,
    rate: 50.0,
    duration: SimDuration::from_secs(20),
};

/// Smoke-test size: 2 × 4 × 40, 16 flows, 10 s simulated.
pub const TOY: RoamSize = RoamSize {
    regions: 2,
    fas: 4,
    mobiles: 40,
    flows: 16,
    closed: 4,
    rate: 50.0,
    duration: SimDuration::from_secs(10),
};

const PAYLOAD: usize = 64;
/// UDP port of the warm-up packets (nothing listens on it).
const WARM_PORT: u16 = 4099;
const TICK: SimDuration = SimDuration::from_millis(50);
const DRAIN: SimDuration = SimDuration::from_secs(2);
/// Lowest acceptable delivered fraction of the probes sent (the soak
/// SLO's default).
const MIN_DELIVERY: f64 = 0.95;
/// A handoff's registration outage bound, as the soak CI gate sets it:
/// probes sent up to this long after their target moved may be lost.
const HANDOFF_OUTAGE: SimDuration = SimDuration::from_millis(350);
/// Probes sent up to one driver tick before a move may be in flight
/// when the mobile leaves the cell.
const IN_FLIGHT: SimDuration = TICK;

/// A built, registered world with its mobility plan installed and its
/// flows ready.
struct Setup {
    correspondent: NodeId,
    roles: Vec<u8>,
    bindings: Vec<(NodeId, Ipv4Addr)>,
    handoffs: Vec<u64>,
    /// Move times of each flow's target, ascending.
    moves: Vec<Vec<SimTime>>,
    flows: Vec<Flow>,
    mobiles: usize,
    build_s: f64,
    warmup_s: f64,
    warmed_up: bool,
}

fn setup(size: &RoamSize, seed: u64) -> (World, Setup) {
    let t0 = Instant::now();
    let mut h = Hierarchy::build(HierarchyParams {
        regions: size.regions,
        fas_per_region: size.fas,
        mobiles_per_region: size.mobiles,
        correspondent: true,
        seed,
        ..HierarchyParams::default()
    });
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warmed_up = h.run_until_attached(1.0, SimDuration::from_secs(30));

    // Every mobile wanders over every cell, whether or not it carries a
    // flow (the same plan as scenarios::soak's random-waypoint soak).
    let n = h.mobiles.len();
    let start_cells =
        (0..n).map(|i| (i / size.mobiles) * size.fas + (i % size.mobiles) % size.fas).collect();
    let layout = Layout { cells: h.cells.len(), start_cells };
    let model = RandomWaypoint {
        seed,
        dwell_min: SimDuration::from_secs(2),
        dwell_max: SimDuration::from_secs(6),
    };
    // Cold next-hop caches drop packets (ARP queues hold 16 per next
    // hop), so before the measured window the correspondent sends one
    // packet to a mobile of each region, then one to every flow target.
    let targets: Vec<usize> = (0..size.flows).map(|i| i * n / size.flows).collect();
    let c = h.correspondent.expect("hierarchy built with a correspondent");
    let first: Vec<usize> = (0..size.regions).map(|r| r * size.mobiles).collect();
    for stage in [&first, &targets] {
        for &i in stage {
            let dst = h.mobile_addr(i);
            h.world.with_node::<MhrpHostNode, _>(c, |host, ctx| {
                host.send_udp(ctx, dst, WARM_PORT, WARM_PORT, vec![0; PAYLOAD]);
            });
        }
        h.world.run_for(SimDuration::from_millis(200));
    }
    let from = h.world.now();
    let plan: MovePlan = model.compile(&layout, from, from + size.duration);
    let hosts: Vec<(NodeId, IfaceId)> = h.mobiles.iter().map(|&m| (m, IfaceId(0))).collect();
    plan.install(&mut h.world, &hosts, &h.cells);
    let warmup_s = t1.elapsed().as_secs_f64();

    let flows = (0..size.flows)
        .map(|i| {
            let pattern = if i < size.closed {
                Pattern::ClosedLoop {
                    window: 4,
                    deadline: SimDuration::from_millis(250),
                    retries: 2,
                }
            } else {
                Pattern::Poisson { per_sec: size.rate }
            };
            let flow_seed =
                seed ^ (0x9e37_79b9_7f4a_7c15 ^ i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
            Flow::new(i as u32, FlowCfg { pattern, bytes: PAYLOAD, seed: flow_seed, limit: None })
        })
        .collect();
    let correspondent = h.correspondent.expect("hierarchy built with a correspondent");
    let s = Setup {
        roles: role_table(h.world.node_count(), &h.mobiles, &h.fas, &h.routers, correspondent),
        bindings: targets.iter().map(|&i| (h.mobiles[i], h.mobile_addr(i))).collect(),
        handoffs: targets.iter().map(|&i| plan.handoffs_for(i)).collect(),
        moves: targets
            .iter()
            .map(|&i| {
                let ops = plan.ops().iter();
                ops.filter(|(_, op)| matches!(op, MoveOp::Attach { host, .. } if *host == i))
                    .map(|&(at, _)| at)
                    .collect()
            })
            .collect(),
        correspondent,
        flows,
        mobiles: n,
        build_s,
        warmup_s,
        warmed_up,
    };
    (h.world, s)
}

/// Runs the soak window on `world` (a plain world or the step-loop
/// wrapper) and returns the probe log.
fn soak<W: SimWorld>(world: &mut W, s: &mut Setup, duration: SimDuration) -> ProbeLog {
    let n = s.flows.len();
    let mut io = TimingIo::new(MhrpIo::new(world, s.correspondent, s.bindings.clone()), n);
    run_soak(&mut io, &mut s.flows, &SoakParams { duration, tick: TICK, drain: DRAIN });
    io.finish()
}

/// Counters at the start of the soak window.
struct Before {
    at: SimTime,
    events: u64,
    overhead: u64,
    control: u64,
}

fn before<W: SimWorld>(w: &W) -> Before {
    Before {
        at: w.now(),
        events: w.events_processed(),
        overhead: w.counter("mhrp.overhead_bytes"),
        control: w.counter("mhrp.registration_msgs_sent") + w.counter("mhrp.updates_sent"),
    }
}

/// The end-to-end metrics and checks of one soak window.
fn outputs<W: SimWorld>(
    w: &W,
    s: &Setup,
    b: &Before,
    events: u64,
    run_s: f64,
    mut log: ProbeLog,
) -> Iteration {
    let sent: u64 = s.flows.iter().map(|f| f.stats.sent).sum();
    let delivered: u64 = s.flows.iter().map(|f| f.stats.delivered).sum();
    // A probe lost in its target's handoff outage is the physical cost of
    // moving; any other loss is a failure.
    let failed = log
        .lost
        .iter()
        .filter(|&&(f, at)| {
            !s.moves[f].iter().any(|&m| at + IN_FLIGHT >= m && at < m + HANDOFF_OUTAGE)
        })
        .count() as u64;
    let mut it = Iteration { attempted: sent, failed, ..Iteration::default() };
    it.check(s.warmed_up, || "registration warm-up stalled".into());
    it.check(sent > 0 && delivered as f64 >= sent as f64 * MIN_DELIVERY, || {
        format!("only {delivered}/{sent} probes delivered")
    });
    it.check(failed == 0, || format!("{failed} probes lost outside any handoff outage"));
    it.check(log.sim_latency_us.len() as u64 == delivered, || {
        format!("{} probe arrivals matched, flows counted {delivered}", log.sim_latency_us.len())
    });
    let completed: u64 = s.flows.iter().map(|f| f.stats.completed).sum();
    it.check(s.flows.iter().all(|f| !f.cfg.pattern.is_closed_loop()) || completed > 0, || {
        "no closed-loop request completed".into()
    });

    let control = w.counter("mhrp.registration_msgs_sent") + w.counter("mhrp.updates_sent");
    let (p50, p99) =
        (quantile(&mut log.sim_latency_us, 0.50), quantile(&mut log.sim_latency_us, 0.99));
    let window = w.now().since(b.at);
    let m = &mut it.metrics;
    m.host("setup_s", "s", s.build_s + s.warmup_s);
    m.host("run_s", "s", run_s);
    m.host("events_per_s", "1/s", events as f64 / run_s);
    m.exact("sim_latency_p50_us", "us", p50);
    m.exact("sim_latency_p99_us", "us", p99);
    m.host("live_latency_p50_us", "us", host_equivalent_us(p50, run_s, window));
    m.host("live_latency_p99_us", "us", host_equivalent_us(p99, run_s, window));
    m.exact(
        "overhead_bytes_per_pkt",
        "B",
        (w.counter("mhrp.overhead_bytes") - b.overhead) as f64 / delivered.max(1) as f64,
    );
    m.exact("control_msgs_per_mobile", "count", (control - b.control) as f64 / s.mobiles as f64);
    m.exact("events", "count", events as f64);
    m.exact("probes_delivered", "count", delivered as f64);
    m.exact("probes_lost", "count", (sent - delivered.min(sent)) as f64);
    m.exact("handoffs", "count", s.handoffs.iter().sum::<u64>() as f64);
    m.exact("closed_loop_completed", "count", completed as f64);
    it
}

/// One untraced iteration.
pub fn iteration(size: &RoamSize, seed: u64) -> Iteration {
    let (mut world, mut s) = setup(size, seed);
    let b = before(&world);
    let t0 = Instant::now();
    let log = soak(&mut world, &mut s, size.duration);
    let run_s = t0.elapsed().as_secs_f64();
    let events = world.events_processed() - b.events;
    outputs(&world, &s, &b, events, run_s, log)
}

/// Per-layer measurements: an untraced baseline (whose `SoakIo` call
/// times give the `workload.*` metrics), then a step-loop pass with
/// telemetry on and a half-second pcap window ten seconds into the soak.
pub fn trace(size: &RoamSize, seed: u64) -> (Metrics, Iteration) {
    let (mut world, mut s) = setup(size, seed);
    let b = before(&world);
    let stats0 = world.stats().clone();
    let t0 = Instant::now();
    let log = soak(&mut world, &mut s, size.duration);
    let run_s = t0.elapsed().as_secs_f64();
    let events = world.events_processed() - b.events;
    let soak_io = [
        ("workload.transmit_s", log.transmit_s),
        ("workload.poll_s", log.poll_s),
        ("workload.run_until_s", log.run_until_s),
    ];
    // Counts over the soak window only, not the registration warm-up.
    let counter = |name: &str| (world.stats().counter(name) - stats0.counter(name)) as f64;
    let frames = counter("link.frames_delivered") as u64;
    let cancelled = counter("sim.timers_cancelled") as u64;
    let mut l = Metrics::default();
    for name in [
        "mhrp.ha_registrations",
        "mhrp.updates_sent",
        "mhrp.updates_rate_limited",
        "mhrp.cache.evictions",
    ] {
        l.exact(name, "count", counter(name));
    }
    l.exact("mhrp.sender_tunnel_ratio", "ratio", sender_tunnel_ratio(counter));
    let mut baseline = outputs(&world, &s, &b, events, run_s, log);
    drop((world, s));

    // Step loop.
    let (mut world, mut s) = setup(size, seed);
    l.host("scenarios.build_s", "s", s.build_s);
    l.host("scenarios.warmup_s", "s", s.warmup_s);
    let roles = std::mem::take(&mut s.roles);
    let mut st = Stepped::new(&mut world, &roles);
    let b2 = before(&st);
    let from = st.world.now()
        + SimDuration::from_secs(10).min(SimDuration::from_nanos(size.duration.as_nanos() / 2));
    st.prof.capture = Some((from, from + SimDuration::from_millis(500)));
    let t0 = Instant::now();
    let log = soak(&mut st, &mut s, size.duration);
    let traced_s = t0.elapsed().as_secs_f64();
    let mut prof = st.prof;
    // Sends the driver makes through the correspondent are its work;
    // the driver's polls and flow bookkeeping belong to no node.
    prof.role_s[usize::from(CORRESPONDENT)] += log.transmit_s;
    let driver_s = (traced_s - log.run_until_s - log.transmit_s).max(0.0);
    prof.unattributed_s += driver_s;
    let traced_events = world.events_processed() - b2.events - prof.sentinels;
    let traced = outputs(&world, &s, &b2, traced_events, traced_s, log);

    let errors = &mut baseline.errors;
    if traced_events != events {
        errors.push(format!("traced run processed {traced_events} events, untraced {events}"));
    }
    errors.extend(exact_mismatches(&baseline.metrics, &traced.metrics));
    check_role_sum(&prof, traced_s - driver_s, errors);

    layer_common(&mut l, &prof, traced_s, run_s, events, frames, cancelled);
    l.0.extend(codecs::replay(&prof.pcaps).0);
    for (name, v) in soak_io {
        l.host(name, "s", v);
    }
    (l, baseline)
}
