//! One live agent: a [`NodeHarness`]-driven protocol core behind real
//! UDP sockets.
//!
//! Each agent runs on an OS thread of its own and owns one node's
//! harness and a command mailbox. One reader thread per interface
//! socket (started in `run.rs`) blocks in `recv_from` and forwards each
//! datagram into the mailbox; the coordinator injects link events,
//! probe requests and shutdown the same way. The agent's loop is the
//! live counterpart of the simulator's event loop for one node: block
//! until the next timer deadline or the next message, whichever comes
//! first, then dispatch through the harness — which reproduces the
//! simulator's pipeline (telemetry, counters, drop rules) exactly.

use std::net::Ipv4Addr;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use mhrp::MhrpHostNode;
use netsim::time::SimTime;
use netsim::{Clock, Frame, IfaceId, LinkEvent, NodeHarness, NodeId, NodeIo};
use workload::encode_probe;

use crate::clock::WallClock;
use crate::scenario::{LoopbackScenario, PROBE_LEN, PROBE_PORT};
use crate::switchboard::Switchboard;
use crate::wire::LiveDatagram;

/// A message into an agent's mailbox.
#[derive(Debug)]
pub enum Cmd {
    /// A datagram arrived on interface `iface`.
    Datagram {
        /// Receiving interface.
        iface: IfaceId,
        /// Raw datagram bytes.
        bytes: Vec<u8>,
    },
    /// The node's interface attached or detached (mobility).
    Link {
        /// Affected interface.
        iface: IfaceId,
        /// What happened.
        event: LinkEvent,
    },
    /// Originate one probe to `dst` (only sent to S's agent).
    Probe {
        /// Destination (a mobile's home address).
        dst: Ipv4Addr,
        /// Flow id for the probe payload.
        flow: u32,
        /// Sequence number for the probe payload.
        seq: u32,
    },
    /// Finish up and report.
    Stop,
}

/// What kind of protocol core an agent runs (decides what is read
/// from its report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// One of R1–R5.
    Router,
    /// The correspondent host S.
    HostS,
    /// A mobile host (scenario index).
    Mobile(usize),
}

/// The [`NodeIo`] implementation for live mode: frames become
/// datagrams fanned out per the switchboard's segment membership.
///
/// Sends go out on clones of the interface sockets (the reader threads
/// own the originals) straight from inside dispatch — a loopback
/// `send_to` does not block in practice.
pub struct LiveIo {
    switchboard: Switchboard,
    senders: Vec<std::net::UdpSocket>,
    /// Datagrams successfully handed to the kernel.
    pub datagrams_sent: u64,
    /// Datagrams the kernel refused (counted, not retried: the
    /// simulator's lossy-segment analogue).
    pub send_errors: u64,
}

impl LiveIo {
    /// Creates the I/O backend from per-interface sender sockets (index
    /// = interface id).
    pub fn new(switchboard: Switchboard, senders: Vec<std::net::UdpSocket>) -> LiveIo {
        LiveIo { switchboard, senders, datagrams_sent: 0, send_errors: 0 }
    }
}

impl NodeIo for LiveIo {
    fn transmit(&mut self, node: NodeId, iface: IfaceId, frame: Frame) {
        let (seg, dests) = self.switchboard.destinations(node, iface, frame.dst);
        let Some(seg) = seg else { return };
        let bytes = LiveDatagram::from_frame(seg as u16, &frame).encode();
        for dest in dests {
            match self.senders[iface.0].send_to(&bytes, dest) {
                Ok(_) => self.datagrams_sent += 1,
                Err(_) => self.send_errors += 1,
            }
        }
    }
}

/// Everything an agent hands back when stopped.
pub struct AgentReport {
    /// The agent's harness at shutdown: its protocol core (a mobile
    /// host's application deliveries), its full structured telemetry
    /// (journey fragments included) and its counters.
    pub harness: NodeHarness,
    /// What the core is.
    pub role: Role,
    /// Actual probe transmission times (S only): `(flow, seq, at)`.
    pub probe_sends: Vec<(u32, u32, SimTime)>,
    /// Datagrams sent on the wire.
    pub datagrams_sent: u64,
    /// Datagrams dropped because their segment tag did not match the
    /// interface's current cell (in flight across a handoff).
    pub stale_segment_drops: u64,
    /// Datagrams that failed to parse.
    pub malformed: u64,
}

/// One live agent, ready to [`run`](Agent::run).
pub struct Agent {
    /// The sans-io dispatch engine around the protocol core.
    pub harness: NodeHarness,
    /// What the core is (handed back in the report).
    pub role: Role,
    /// Frame egress.
    pub io: LiveIo,
    /// Shared wall clock.
    pub clock: WallClock,
    /// Command mailbox (readers and the coordinator hold senders).
    pub rx: Receiver<Cmd>,
    /// Shared segment membership (for stale-datagram filtering).
    pub switchboard: Switchboard,
}

impl Agent {
    /// Runs the agent on the calling thread until [`Cmd::Stop`] (or
    /// every sender hangs up), then hands back the harness in its
    /// report. Between messages the thread blocks until the harness's
    /// next timer deadline, or indefinitely when no timer is armed.
    pub fn run(mut self) -> AgentReport {
        let clock = self.clock;
        self.harness.start(clock.now(), &mut self.io);
        let mut probe_sends = Vec::new();
        let mut stale_segment_drops = 0u64;
        let mut malformed = 0u64;
        loop {
            self.harness.tick(clock.now(), &mut self.io);
            let cmd = match self.harness.next_deadline() {
                Some(d) => {
                    let now = clock.now();
                    let wait = if d <= now { 0 } else { d.since(now).as_nanos() };
                    self.rx.recv_timeout(Duration::from_nanos(wait))
                }
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match cmd {
                Err(RecvTimeoutError::Timeout) => continue, // deadline reached: tick at loop top
                Err(RecvTimeoutError::Disconnected) | Ok(Cmd::Stop) => break,
                Ok(Cmd::Datagram { iface, bytes }) => {
                    let datagram = match LiveDatagram::decode(&bytes) {
                        Ok(d) => d,
                        Err(_) => {
                            malformed += 1;
                            continue;
                        }
                    };
                    // A datagram tagged with another segment was in
                    // flight while this interface changed cells: the
                    // radio-range drop, made explicit.
                    let here = self.switchboard.segment_of(self.harness.node_id(), iface);
                    if here != Some(datagram.segment as usize) {
                        stale_segment_drops += 1;
                        continue;
                    }
                    let frame = datagram.into_frame();
                    self.harness.on_frame(clock.now(), &mut self.io, iface, &frame);
                }
                Ok(Cmd::Link { iface, event }) => {
                    self.harness.on_link(clock.now(), &mut self.io, iface, event);
                }
                Ok(Cmd::Probe { dst, flow, seq }) => {
                    let at = clock.now();
                    let payload = encode_probe(flow, seq, PROBE_LEN);
                    self.harness.with_node::<MhrpHostNode, _>(at, &mut self.io, |h, ctx| {
                        h.send_udp(ctx, dst, LoopbackScenario::src_port(flow), PROBE_PORT, payload);
                    });
                    probe_sends.push((flow, seq, at));
                }
            }
        }
        self.harness.tick(clock.now(), &mut self.io);

        AgentReport {
            harness: self.harness,
            role: self.role,
            probe_sends,
            datagrams_sent: self.io.datagrams_sent,
            stale_segment_drops,
            malformed,
        }
    }
}
