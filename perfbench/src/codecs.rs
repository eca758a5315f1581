//! Wire-codec timing: frames captured from a traced simulation window
//! are replayed through the `ip` and `mhrp` decoders and the live-mode
//! datagram codec.

use std::hint::black_box;
use std::time::Instant;

use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use live::LiveDatagram;
use mhrp::{ControlMessage, MHRP_PORT};
use netsim::MacAddr;

use crate::report::Metrics;

const ETHERTYPE_IPV4: u16 = 0x0800;
/// Minimum host time spent replaying each decoder, so the per-call
/// figure averages over many passes.
const MIN_REPLAY_S: f64 = 0.02;

/// Host nanoseconds per call of `f` over `items`, repeated until
/// [`MIN_REPLAY_S`] has passed (at least three passes). `NaN` when there
/// is nothing to replay.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return f64::NAN;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        let elapsed = start.elapsed().as_secs_f64();
        if calls >= 3 * items.len() as u64 && elapsed >= MIN_REPLAY_S {
            return elapsed * 1e9 / calls as f64;
        }
    }
}

/// Host nanoseconds per `LiveDatagram` encode + decode round trip.
pub fn wire_codec_ns(datagrams: &[LiveDatagram]) -> f64 {
    ns_per_call(datagrams, |d| {
        let bytes = d.encode();
        black_box(LiveDatagram::decode(black_box(&bytes)).is_ok());
    })
}

/// Replays pcap-ng captures through every decoder and returns the
/// codec metrics plus the captures' frame mix.
pub fn replay(pcaps: &[Vec<u8>]) -> Metrics {
    let frames: Vec<telemetry::pcapng::PcapFrame> =
        pcaps.iter().flat_map(|p| telemetry::pcapng::read(p).unwrap_or_default()).collect();
    let mut ip_bytes: Vec<&[u8]> = Vec::new();
    let mut tunneled: Vec<Ipv4Packet> = Vec::new();
    let mut control: Vec<Vec<u8>> = Vec::new();
    let mut datagrams: Vec<LiveDatagram> = Vec::with_capacity(frames.len());
    for f in &frames {
        let b = &f.bytes;
        if b.len() < 14 {
            continue;
        }
        let ethertype = u16::from_be_bytes([b[12], b[13]]);
        datagrams.push(LiveDatagram {
            segment: 0,
            journey: None,
            src: MacAddr(b[6..12].try_into().expect("6-byte MAC")),
            dst: MacAddr(b[..6].try_into().expect("6-byte MAC")),
            ethertype,
            payload: b[14..].to_vec(),
        });
        if ethertype != ETHERTYPE_IPV4 {
            continue;
        }
        ip_bytes.push(&b[14..]);
        let Ok(pkt) = Ipv4Packet::decode(&b[14..]) else { continue };
        if pkt.protocol == ip::proto::MHRP {
            tunneled.push(pkt);
        } else if pkt.protocol == ip::proto::UDP {
            if let Ok(udp) = UdpDatagram::decode(&pkt.payload) {
                if udp.dst_port == MHRP_PORT {
                    control.push(udp.payload);
                }
            }
        }
    }

    let mut m = Metrics::default();
    m.host(
        "ip.decode_ns",
        "ns",
        ns_per_call(&ip_bytes, |b| {
            black_box(Ipv4Packet::decode(black_box(b)).is_ok());
        }),
    );
    m.host(
        "mhrp.header_decode_ns",
        "ns",
        ns_per_call(&tunneled, |p| {
            black_box(mhrp::tunnel::parse(black_box(p)).is_ok());
        }),
    );
    m.host(
        "mhrp.control_decode_ns",
        "ns",
        ns_per_call(&control, |c| {
            black_box(ControlMessage::decode(black_box(c)).is_ok());
        }),
    );
    m.host("live.wire_codec_ns", "ns", wire_codec_ns(&datagrams));
    m.exact("codec.frames", "count", frames.len() as f64);
    m.exact("codec.ip_frames", "count", ip_bytes.len() as f64);
    m.exact("codec.tunneled_frames", "count", tunneled.len() as f64);
    m.exact("codec.control_frames", "count", control.len() as f64);
    m
}
