//! The live analogue of the simulator's broadcast segments: a shared
//! map from `(node, iface)` to a UDP socket address and the segment the
//! interface is currently attached to.
//!
//! A sender asks for the destinations of a frame; the switchboard
//! applies exactly the segment delivery rule the simulator uses (every
//! *other* attachment on the same segment whose MAC matches, or all of
//! them for broadcast) and returns socket addresses instead of
//! scheduling deliveries. Mobility is a segment reassignment here plus a
//! [`netsim::LinkEvent`] delivered to the moving agent — mirroring
//! `World::move_iface`.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use netsim::{IfaceId, MacAddr, NodeId};

/// One registered interface: where it is and how to reach it.
#[derive(Debug, Clone)]
pub struct Port {
    /// Owning node (global numbering shared with the simulated world).
    pub node: NodeId,
    /// Node-local interface id.
    pub iface: IfaceId,
    /// Link-layer address (same global assignment order as the world).
    pub mac: MacAddr,
    /// The UDP socket this interface receives on.
    pub addr: SocketAddr,
    /// The segment index the interface is attached to (`None` =
    /// detached, out of every cell's range).
    pub segment: Option<usize>,
}

/// Shared, cloneable segment-membership table.
#[derive(Debug, Clone, Default)]
pub struct Switchboard {
    inner: Arc<Mutex<Vec<Port>>>,
}

impl Switchboard {
    /// An empty switchboard.
    pub fn new() -> Switchboard {
        Switchboard::default()
    }

    /// Registers an interface (call once per interface before agents
    /// start).
    pub fn register(&self, port: Port) {
        self.inner.lock().unwrap().push(port);
    }

    /// Re-attaches `(node, iface)` to `segment` (or detaches it) under
    /// one lock, so no sender sees the interface half-moved, and returns
    /// the segment it was attached to before.
    pub fn move_iface(
        &self,
        node: NodeId,
        iface: IfaceId,
        segment: Option<usize>,
    ) -> Option<usize> {
        let mut ports = self.inner.lock().unwrap();
        let port = ports
            .iter_mut()
            .find(|p| p.node == node && p.iface == iface)
            .expect("move_iface on an unregistered interface");
        std::mem::replace(&mut port.segment, segment)
    }

    /// The segment `(node, iface)` is currently attached to.
    pub fn segment_of(&self, node: NodeId, iface: IfaceId) -> Option<usize> {
        let ports = self.inner.lock().unwrap();
        ports.iter().find(|p| p.node == node && p.iface == iface).and_then(|p| p.segment)
    }

    /// Applies the segment delivery rule for a frame sent by
    /// `(node, iface)` to link-layer destination `dst`: returns the
    /// sender's segment (for tagging the datagram) and the socket
    /// addresses of every other attachment that should receive a copy.
    /// A detached sender reaches nobody (the harness normally suppresses
    /// that transmit before it gets here).
    pub fn destinations(
        &self,
        node: NodeId,
        iface: IfaceId,
        dst: MacAddr,
    ) -> (Option<usize>, Vec<SocketAddr>) {
        let ports = self.inner.lock().unwrap();
        let Some(seg) =
            ports.iter().find(|p| p.node == node && p.iface == iface).and_then(|p| p.segment)
        else {
            return (None, Vec::new());
        };
        let broadcast = dst.is_broadcast();
        let dests = ports
            .iter()
            .filter(|p| {
                p.segment == Some(seg)
                    && !(p.node == node && p.iface == iface)
                    && (broadcast || p.mac == dst)
            })
            .map(|p| p.addr)
            .collect();
        (Some(seg), dests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn board() -> Switchboard {
        let sb = Switchboard::new();
        for (i, seg) in [(0, Some(0)), (1, Some(0)), (2, Some(1))] {
            sb.register(Port {
                node: NodeId(i),
                iface: IfaceId(0),
                mac: MacAddr::from_index(i as u64),
                addr: addr(9000 + i as u16),
                segment: seg,
            });
        }
        sb
    }

    #[test]
    fn unicast_reaches_only_the_matching_mac_on_the_same_segment() {
        let sb = board();
        let (seg, dests) = sb.destinations(NodeId(0), IfaceId(0), MacAddr::from_index(1));
        assert_eq!(seg, Some(0));
        assert_eq!(dests, vec![addr(9001)]);
        // Node 2 is on another segment: unreachable even by broadcast.
        let (_, dests) = sb.destinations(NodeId(0), IfaceId(0), MacAddr([0xff; 6]));
        assert_eq!(dests, vec![addr(9001)]);
    }

    #[test]
    fn moving_changes_reachability_and_detached_sends_nowhere() {
        let sb = board();
        assert_eq!(sb.move_iface(NodeId(2), IfaceId(0), Some(0)), Some(1));
        let (_, dests) = sb.destinations(NodeId(0), IfaceId(0), MacAddr([0xff; 6]));
        assert_eq!(dests.len(), 2);
        assert_eq!(sb.move_iface(NodeId(0), IfaceId(0), None), Some(0));
        let (seg, dests) = sb.destinations(NodeId(0), IfaceId(0), MacAddr([0xff; 6]));
        assert_eq!((seg, dests.len()), (None, 0));
    }

    #[test]
    fn move_iface_returns_the_old_segment_and_applies_the_new_one() {
        let sb = board();
        assert_eq!(sb.move_iface(NodeId(1), IfaceId(0), Some(1)), Some(0));
        assert_eq!(sb.segment_of(NodeId(1), IfaceId(0)), Some(1));
        assert_eq!(sb.move_iface(NodeId(1), IfaceId(0), None), Some(1));
        assert_eq!(sb.segment_of(NodeId(1), IfaceId(0)), None);
        assert_eq!(sb.move_iface(NodeId(1), IfaceId(0), None), None);
        assert_eq!(sb.move_iface(NodeId(1), IfaceId(0), Some(0)), None);
        // Back on segment 0, node 1 is reachable from node 0 again.
        let (_, dests) = sb.destinations(NodeId(0), IfaceId(0), MacAddr::from_index(1));
        assert_eq!(dests, vec![addr(9001)]);
    }
}
