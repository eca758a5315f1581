//! Pieces shared by the simulated workloads: the node-role table, the
//! step-loop profiler that stands in for `run_until` in traced runs, the
//! timing [`SoakIo`] wrapper that records every probe, and the
//! reachability sweep that closes each registration storm.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::time::{SimDuration, SimTime};
use netsim::{AdminOp, Ctx, NodeId, SimWorld, World};
use scenarios::soak::MhrpIo;
use workload::{run_soak, Flow, FlowCfg, Pattern, SoakIo, SoakParams, Transmit};

use crate::report::quantile;

/// Node roles the traced run attributes step time to, indexed like
/// [`ROLE_NAMES`].
pub const MOBILE_HOST: u8 = 0;
/// Cell foreign agent.
pub const FOREIGN_AGENT: u8 = 1;
/// Regional router hosting the home agent.
pub const HOME_AGENT: u8 = 2;
/// The backbone correspondent that sends every probe.
pub const CORRESPONDENT: u8 = 3;
/// Any other node (none in the hierarchy worlds).
pub const OTHER: u8 = 4;

/// Per-layer metric names of the role self times.
pub const ROLE_NAMES: [&str; 4] = [
    "mhrp.mobile_host.self_s",
    "mhrp.foreign_agent.self_s",
    "mhrp.home_agent.self_s",
    "mhrp.correspondent.self_s",
];

/// Role of every node, indexed by `NodeId.0`.
pub fn role_table(
    nodes: usize,
    mobiles: &[NodeId],
    fas: &[NodeId],
    routers: &[NodeId],
    correspondent: NodeId,
) -> Vec<u8> {
    let mut roles = vec![OTHER; nodes];
    for (ids, role) in [(mobiles, MOBILE_HOST), (fas, FOREIGN_AGENT), (routers, HOME_AGENT)] {
        for id in ids {
            roles[id.0] = role;
        }
    }
    roles[correspondent.0] = CORRESPONDENT;
    roles
}

/// What the step loop measured.
#[derive(Debug, Default)]
pub struct Profile {
    /// Host seconds per role ([`ROLE_NAMES`] order).
    pub role_s: [f64; 4],
    /// Host seconds of steps with no node record (sentinels, admin ops)
    /// plus soak-driver polling.
    pub unattributed_s: f64,
    /// Host nanoseconds of every real step.
    pub step_ns: Vec<u32>,
    /// Sentinel events the loop scheduled (each counts as one
    /// processed event).
    pub sentinels: u64,
    /// Simulated window whose delivered frames are captured.
    pub capture: Option<(SimTime, SimTime)>,
    /// The capture also closes once it holds this many frames (0: no
    /// limit).
    pub capture_limit: usize,
    /// Finished pcap-ng captures, one per closed window.
    pub pcaps: Vec<Vec<u8>>,
}

impl Profile {
    /// Step-time quantile in nanoseconds.
    pub fn step_ns_quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.step_ns.iter().map(|&n| f64::from(n)).collect();
        quantile(&mut v, q)
    }

    /// Sum of the role self times.
    pub fn role_sum(&self) -> f64 {
        self.role_s.iter().sum()
    }
}

/// A classic [`World`] whose `run_until` is replaced by a timed
/// `World::step` loop. Telemetry is on with a one-record ring, so the
/// newest record names the node each step dispatched to.
///
/// The loop stops without stepping past the window: a no-op sentinel
/// call is scheduled one nanosecond before the target, the loop steps
/// until it fires, and `World::run_until` finishes the events at the
/// target instant itself. The sentinel only takes a slot in the total
/// event order, so every real event runs in the same order as in an
/// untraced run; the traced event count is the untraced one plus
/// [`Profile::sentinels`].
///
/// When no event is due at the target, the closing `run_until` mostly
/// advances the scheduler to the next event, work a plain `step` does
/// for the event it pops. Its host time is therefore charged to the
/// next real step.
pub struct Stepped<'a> {
    /// The world being driven.
    pub world: &'a mut World,
    roles: &'a [u8],
    /// Measurements so far.
    pub prof: Profile,
    capturing: bool,
    /// Host time of the last closing `run_until`, not yet charged.
    carried: Duration,
}

impl<'a> Stepped<'a> {
    /// Wraps `world` (turning telemetry on) with role table `roles`.
    pub fn new(world: &'a mut World, roles: &'a [u8]) -> Stepped<'a> {
        world.set_telemetry_capacity(1);
        world.set_telemetry(true);
        Stepped {
            world,
            roles,
            prof: Profile::default(),
            capturing: false,
            carried: Duration::ZERO,
        }
    }

    fn records(&self) -> u64 {
        let log = self.world.telemetry();
        log.len() as u64 + log.overwritten()
    }

    fn step_to(&mut self, t: SimTime) {
        let now = self.world.now();
        if t.as_nanos() <= now.as_nanos() + 1 {
            self.close_at(t);
            return;
        }
        let hit = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&hit);
        self.world.schedule_call(SimTime::from_nanos(t.as_nanos() - 1), move |_| {
            flag.store(true, Ordering::Relaxed)
        });
        self.prof.sentinels += 1;
        let mut seen = self.records();
        let mut last = Instant::now();
        while self.world.step() {
            let now = Instant::now();
            let mut dt = now.duration_since(last);
            last = now;
            if hit.load(Ordering::Relaxed) {
                self.prof.unattributed_s += dt.as_secs_f64();
                break;
            }
            if self.capturing
                && self.prof.capture_limit > 0
                && self.world.pcap_frame_count() >= self.prof.capture_limit
            {
                self.close_capture();
            }
            dt += std::mem::take(&mut self.carried);
            self.prof.step_ns.push(u32::try_from(dt.as_nanos()).unwrap_or(u32::MAX));
            let records = self.records();
            let role = if records == seen {
                None
            } else {
                seen = records;
                self.world.telemetry().events().next().and_then(|e| e.node)
            }
            .map_or(OTHER, |n| self.roles.get(n as usize).copied().unwrap_or(OTHER));
            match self.prof.role_s.get_mut(usize::from(role)) {
                Some(s) => *s += dt.as_secs_f64(),
                None => self.prof.unattributed_s += dt.as_secs_f64(),
            }
        }
        self.close_at(t);
    }

    /// Runs the events at `t` itself and carries the host time forward.
    fn close_at(&mut self, t: SimTime) {
        let i0 = Instant::now();
        self.world.run_until(t);
        self.carried += i0.elapsed();
    }

    /// Like [`SimWorld::run_until`], but also opens and closes the pcap
    /// capture at the edges of [`Profile::capture`].
    fn run_to(&mut self, t: SimTime) {
        if let Some((from, to)) = self.prof.capture {
            if !self.capturing && from <= t && self.world.now() < to {
                self.step_to(from.max(self.world.now()));
                self.world.start_pcap_capture();
                self.capturing = true;
            }
            if self.capturing && to <= t {
                self.step_to(to);
                self.close_capture();
            }
        }
        self.step_to(t);
    }

    /// Closes the capture window if it is open (the caller's run may end
    /// inside it).
    pub fn close_capture(&mut self) {
        if self.capturing {
            self.prof.pcaps.extend(self.world.take_pcap());
            self.prof.capture = None;
            self.capturing = false;
        }
    }
}

impl SimWorld for Stepped<'_> {
    fn now(&self) -> SimTime {
        self.world.now()
    }
    fn run_until(&mut self, t: SimTime) {
        self.run_to(t);
    }
    fn node<T: 'static>(&self, id: NodeId) -> &T {
        self.world.node(id)
    }
    fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        self.world.with_node(id, f)
    }
    fn schedule_admin(&mut self, at: SimTime, op: AdminOp) {
        self.world.schedule_admin(at, op);
    }
    fn counter(&self, name: &str) -> u64 {
        self.world.stats().counter(name)
    }
    fn events_processed(&self) -> u64 {
        self.world.events_processed()
    }
}

/// Everything a [`TimingIo`] recorded.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Exact one-way simulated latency of every delivered probe, µs.
    pub sim_latency_us: Vec<f64>,
    /// Host seconds inside `SoakIo::transmit`.
    pub transmit_s: f64,
    /// Host seconds inside the two poll calls.
    pub poll_s: f64,
    /// Host seconds inside `SoakIo::run_until`.
    pub run_until_s: f64,
    /// `(flow, send time)` of every probe that never arrived.
    pub lost: Vec<(usize, SimTime)>,
}

impl ProbeLog {
    /// Appends `other`'s samples and times to this log.
    pub fn absorb(&mut self, mut other: ProbeLog) {
        self.sim_latency_us.append(&mut other.sim_latency_us);
        self.transmit_s += other.transmit_s;
        self.poll_s += other.poll_s;
        self.run_until_s += other.run_until_s;
        self.lost.append(&mut other.lost);
    }
}

/// Host time the simulator takes to cover `sim_us` of simulated time,
/// in µs, at the rate of a window that simulated `window` in `run_s`
/// host seconds. The simulated workloads report their exact simulated
/// latency quantiles scaled this way as `live_latency_*`.
pub fn host_equivalent_us(sim_us: f64, run_s: f64, window: SimDuration) -> f64 {
    sim_us * run_s / (window.as_nanos() as f64 / 1e9)
}

/// A [`SoakIo`] wrapper that records every probe's send time and
/// matches arrivals to them exactly, so latency quantiles come from
/// per-probe values rather than histogram bucket edges. It also
/// accumulates the host time of each call into the wrapped binding.
pub struct TimingIo<I> {
    inner: I,
    sent: Vec<Vec<Option<SimTime>>>,
    /// The measurements.
    pub log: ProbeLog,
}

impl<I: SoakIo> TimingIo<I> {
    /// Wraps `inner`, which carries `flows` flows.
    pub fn new(inner: I, flows: usize) -> TimingIo<I> {
        TimingIo { inner, sent: vec![Vec::new(); flows], log: ProbeLog::default() }
    }
}

impl<I> TimingIo<I> {
    /// The log, with every probe still unmatched recorded as lost.
    pub fn finish(mut self) -> ProbeLog {
        for (flow, seqs) in self.sent.iter().enumerate() {
            self.log.lost.extend(seqs.iter().flatten().map(|&at| (flow, at)));
        }
        self.log
    }
}

impl<I: SoakIo> SoakIo for TimingIo<I> {
    fn run_until(&mut self, t: SimTime) {
        let i0 = Instant::now();
        self.inner.run_until(t);
        self.log.run_until_s += i0.elapsed().as_secs_f64();
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn transmit(&mut self, t: &Transmit) {
        let sim = self.inner.now();
        let i0 = Instant::now();
        self.inner.transmit(t);
        self.log.transmit_s += i0.elapsed().as_secs_f64();
        let seqs = &mut self.sent[t.flow];
        let seq = t.seq as usize;
        if seqs.len() <= seq {
            seqs.resize(seq + 1, None);
        }
        seqs[seq].get_or_insert(sim);
    }

    fn poll_deliveries(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        let i0 = Instant::now();
        let from = out.len();
        self.inner.poll_deliveries(flow, out);
        for &(seq, at) in &out[from..] {
            // `take` counts a duplicate arrival only once.
            if let Some(sent) = self.sent[flow].get_mut(seq as usize).and_then(Option::take) {
                self.log.sim_latency_us.push(at.since(sent).as_nanos() as f64 / 1e3);
            }
        }
        self.log.poll_s += i0.elapsed().as_secs_f64();
    }

    fn poll_responses(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        let i0 = Instant::now();
        self.inner.poll_responses(flow, out);
        self.log.poll_s += i0.elapsed().as_secs_f64();
    }
}

/// Result of a reachability sweep.
#[derive(Debug)]
pub struct Sweep {
    /// Whether each target received its probe.
    pub delivered: Vec<bool>,
    /// MHRP header bytes added while the sweep ran.
    pub overhead_bytes: u64,
    /// Per-probe measurements.
    pub log: ProbeLog,
}

/// The reachability sweep's driver tick: every probe leaves in the
/// first one.
pub const SWEEP_TICK: SimDuration = SimDuration::from_millis(50);
/// How long a sweep keeps polling after its probes left: probes arrive
/// within a few milliseconds, next-hop resolution within one.
pub const SWEEP_DRAIN: SimDuration = SimDuration::from_millis(200);

/// Sends one 64-byte probe from `client` to every target through the
/// soak driver, then drains for [`SWEEP_DRAIN`].
pub fn reach_sweep<W: SimWorld>(
    world: &mut W,
    client: NodeId,
    targets: Vec<(NodeId, Ipv4Addr)>,
) -> Sweep {
    let n = targets.len();
    let mut flows: Vec<Flow> = (0..n)
        .map(|i| {
            let cfg = FlowCfg {
                pattern: Pattern::Cbr { interval: SimDuration::from_secs(1) },
                bytes: 64,
                seed: i as u64,
                limit: Some(1),
            };
            Flow::new(i as u32, cfg)
        })
        .collect();
    let overhead0 = world.counter("mhrp.overhead_bytes");
    let params = SoakParams { duration: SWEEP_TICK, tick: SWEEP_TICK, drain: SWEEP_DRAIN };
    let log = {
        let mut io = TimingIo::new(MhrpIo::new(world, client, targets), n);
        run_soak(&mut io, &mut flows, &params);
        io.finish()
    };
    Sweep {
        delivered: flows.iter().map(|f| f.stats.delivered > 0).collect(),
        overhead_bytes: world.counter("mhrp.overhead_bytes") - overhead0,
        log,
    }
}
