//! The live leg: runs one UDP agent per node on 127.0.0.1, replays the
//! scenario's probe and mobility timetable in wall time, and
//! reconstructs per-probe journeys from the agents' telemetry.
//!
//! The fleet is plain OS threads inside one [`std::thread::scope`]: one
//! agent thread per node, blocked on its mailbox until a message or its
//! next timer deadline; one reader thread per interface socket, blocked
//! in `recv_from`; and the coordinator on the calling thread, asleep
//! until the next timetable entry. Nothing polls. Shutdown stops and
//! joins the agents, which drops their mailboxes, then sends one empty
//! datagram to every socket: each reader wakes, fails to forward it and
//! returns, and the scope joins it.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{channel, Sender};
use std::thread;
use std::time::Duration;

use mhrp::MobileHostNode;
use netsim::time::SimTime;
use netsim::{Clock, IfaceId, LinkEvent, MacAddr, NodeHarness, NodeId};
use telemetry::{EventKind, JourneyId};
use workload::{decode_probe, MoveOp};

use crate::agent::{Agent, AgentReport, Cmd, LiveIo, Role};
use crate::clock::WallClock;
use crate::outcome::{assemble, RawDelivery, RunOutcome};
use crate::scenario::{BuiltNode, LoopbackScenario, CELLS, PROBE_PORT};
use crate::switchboard::{Port, Switchboard};

/// Extra wall time after the last scheduled event before agents are
/// stopped, so in-flight registrations and updates drain.
const SETTLE: Duration = Duration::from_millis(300);

/// Per-agent journey-id namespace: agent `n` mints ids starting at
/// `(n + 1) << 40`, so ids stay globally unique across the fleet and a
/// journey's fragments can be merged by id alone.
fn journey_base(node: NodeId) -> u64 {
    ((node.0 as u64) + 1) << 40
}

/// Blocks the calling thread until `at` on `clock` (returns at once if
/// `at` has passed).
fn sleep_until(clock: WallClock, at: SimTime) {
    let now = clock.now();
    if at > now {
        thread::sleep(Duration::from_nanos(at.since(now).as_nanos()));
    }
}

/// One interface's reader: forwards every datagram the socket receives
/// to the agent's mailbox, and returns once that mailbox is gone.
fn read_loop(sock: UdpSocket, iface: IfaceId, tx: Sender<Cmd>) {
    let mut buf = vec![0u8; 4096];
    while let Ok((len, _)) = sock.recv_from(&mut buf) {
        if tx.send(Cmd::Datagram { iface, bytes: buf[..len].to_vec() }).is_err() {
            break;
        }
    }
}

/// Runs the scenario over real UDP sockets on the loopback interface,
/// returning the per-probe outcome.
///
/// The body is fully synchronous: it runs the fleet on OS threads and
/// returns once every one of them has been joined, so the future
/// completes on its first poll. It stays `async` so that callers
/// driving it with `tokio::runtime::Runtime::block_on` keep working.
///
/// Wall time maps 1:1 onto the scenario's timeline: `canonical(1)`
/// takes about 2.5 s of real time.
pub async fn run_live(sc: &LoopbackScenario) -> std::io::Result<RunOutcome> {
    let clock = WallClock::new();
    let switchboard = Switchboard::new();
    let plan = sc.iface_plan();

    // Build harnesses (same construction path as the sim leg), bind and
    // register every interface's socket, and wire up mailboxes: each
    // reader owns its interface's socket, and its agent sends on a
    // clone. No agent starts before the scope below, so the fleet's
    // membership view is complete from t = 0 (the simulator's world is
    // fully built before `start`, likewise).
    let mut txs: Vec<Sender<Cmd>> = Vec::with_capacity(plan.len());
    let mut agents = Vec::with_capacity(plan.len());
    let mut readers = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut mac_index = 0u64;
    for (i, ifaces) in plan.iter().enumerate() {
        let node_id = NodeId(i);
        let (role, mut harness) = match sc.build_node(i) {
            BuiltNode::Router(r) => {
                (Role::Router, NodeHarness::new(node_id, r, sc.seed ^ i as u64))
            }
            BuiltNode::Host(h) => (Role::HostS, NodeHarness::new(node_id, h, sc.seed ^ i as u64)),
            BuiltNode::Mobile(m) => {
                (Role::Mobile(i - 6), NodeHarness::new(node_id, m, sc.seed ^ i as u64))
            }
        };
        let (tx, rx) = channel();
        let mut senders = Vec::with_capacity(ifaces.len());
        for (k, &seg) in ifaces.iter().enumerate() {
            let mac = MacAddr::from_index(mac_index);
            mac_index += 1;
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            let addr = sock.local_addr()?;
            switchboard.register(Port {
                node: node_id,
                iface: IfaceId(k),
                mac,
                addr,
                segment: Some(seg),
            });
            harness.add_iface(mac, true);
            addrs.push(addr);
            senders.push(sock.try_clone()?);
            readers.push((sock, IfaceId(k), tx.clone()));
        }
        harness.set_telemetry(true);
        harness.telemetry_mut().set_journey_base(journey_base(node_id));
        agents.push(Agent {
            harness,
            role,
            io: LiveIo::new(switchboard.clone(), senders),
            clock,
            rx,
            switchboard: switchboard.clone(),
        });
        txs.push(tx);
    }
    let waker = UdpSocket::bind("127.0.0.1:0")?;

    // The coordinator's timetable: moves and probes on the shared clock.
    enum Step {
        Move(MoveOp),
        Probe { mobile: usize, flow: u32, seq: u32 },
    }
    let mut timetable: Vec<(SimTime, Step)> = Vec::new();
    for &(at, op) in sc.moves.ops() {
        timetable.push((at, Step::Move(op)));
    }
    for p in &sc.probes {
        timetable.push((p.at, Step::Probe { mobile: p.mobile, flow: p.flow, seq: p.seq }));
    }
    timetable.sort_by_key(|(at, _)| *at);

    let reports = thread::scope(|s| {
        for (sock, iface, tx) in readers {
            s.spawn(move || read_loop(sock, iface, tx));
        }
        let handles: Vec<_> = agents.into_iter().map(|a| s.spawn(move || a.run())).collect();

        for (at, step) in timetable {
            sleep_until(clock, at);
            match step {
                Step::Move(op) => {
                    let (host, segment) = match op {
                        MoveOp::Attach { host, cell } => (host, Some(CELLS[cell])),
                        MoveOp::Detach { host } => (host, None),
                    };
                    let node = NodeId(sc.mobile_index(host));
                    let tx = &txs[node.0];
                    // Mirror `World::move_iface`: one membership change,
                    // then a detach from the old cell (if attached) and
                    // an attach to the new one (if any).
                    let old = switchboard.move_iface(node, IfaceId(0), segment);
                    if old != segment {
                        if old.is_some() {
                            let _ = tx
                                .send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Detached });
                        }
                        if segment.is_some() {
                            let _ = tx
                                .send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Attached });
                        }
                    }
                }
                Step::Probe { mobile, flow, seq } => {
                    let dst = sc.mobile_addr(mobile);
                    let _ = txs[sc.s_index()].send(Cmd::Probe { dst, flow, seq });
                }
            }
        }
        sleep_until(clock, sc.end);
        thread::sleep(SETTLE);

        for tx in &txs {
            let _ = tx.send(Cmd::Stop);
        }
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // Every mailbox is gone now, a panicked agent's too: an empty
        // datagram wakes each blocked reader, which fails to forward it
        // and returns. A loopback send to a bound port does not fail;
        // should the socket buffer be full, the reader is awake anyway.
        for addr in &addrs {
            let _ = waker.send_to(&[], addr);
        }
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect::<Vec<AgentReport>>()
    });
    Ok(collect(sc, &reports))
}

/// Matches mobile-side deliveries to the probe timetable, with each
/// delivered probe's hops taken from the agents' telemetry.
fn collect(sc: &LoopbackScenario, reports: &[AgentReport]) -> RunOutcome {
    let mut received = Vec::new();
    let mut journeys: HashMap<JourneyId, Vec<(u64, u32)>> = HashMap::new();
    let mobiles = reports.iter().filter(|r| matches!(r.role, Role::Mobile(_)));
    for rec in mobiles.flat_map(|r| &r.harness.node::<MobileHostNode>().log().udp_rx) {
        if rec.dst_port != PROBE_PORT {
            continue;
        }
        let Some((flow, seq)) = decode_probe(&rec.payload) else { continue };
        if let Some(j) = rec.journey {
            journeys.insert(j, Vec::new());
        }
        received.push((flow, seq, rec.at, rec.journey));
    }

    // One shared wall clock means per-node timestamps form one global
    // timeline; a journey's frame deliveries are strictly ordered by
    // real propagation, so sorting them by time reconstructs the hop
    // order (the stable sort breaks ties by node, then log order).
    let mut overhead_bytes = 0;
    let mut updates_sent = 0;
    let mut send_times: Vec<(u32, u32, SimTime)> = Vec::new();
    for r in reports {
        overhead_bytes += r.harness.stats().counter("mhrp.overhead_bytes");
        updates_sent += r.harness.stats().counter("mhrp.updates_sent");
        send_times.extend_from_slice(&r.probe_sends);
        for e in r.harness.telemetry().events() {
            if !matches!(e.kind, EventKind::FrameRx { .. }) {
                continue;
            }
            if let (Some(hops), Some(node)) = (e.journey.and_then(|j| journeys.get_mut(&j)), e.node)
            {
                hops.push((e.at_nanos, node));
            }
        }
    }
    for hops in journeys.values_mut() {
        hops.sort_by_key(|&(at, _)| at);
    }

    let deliveries = received
        .into_iter()
        .map(|(flow, seq, at, journey)| {
            let hops = journey
                .and_then(|j| journeys.get(&j))
                .map(|h| h.iter().map(|&(_, node)| node).collect())
                .unwrap_or_default();
            RawDelivery { flow, seq, at, hops }
        })
        .collect();

    let wall_seconds = sc.end.as_secs_f64();
    assemble("live", sc, deliveries, &send_times, wall_seconds, overhead_bytes, updates_sent)
}
