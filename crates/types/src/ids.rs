//! Identifier newtypes for replicas, clients, views and sequence numbers.
//!
//! All identifiers are small `Copy` newtypes so that they can be passed by
//! value everywhere, used as map keys, and serialized cheaply.

use std::fmt;

/// Identifier of a replica (a consensus participant).
///
/// Replicas are numbered `0..n` within a deployment. Replica `v mod n` is the
/// primary of view `v`, mirroring the PBFT-style rotation used by every
/// protocol in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the numeric index of this replica.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a client of the replicated service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A node is either a replica or a client; used for network addressing in the
/// simulator and the threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A consensus replica.
    Replica(ReplicaId),
    /// A client of the replicated service.
    Client(ClientId),
}

impl From<ReplicaId> for NodeId {
    fn from(r: ReplicaId) -> Self {
        NodeId::Replica(r)
    }
}

impl From<ClientId> for NodeId {
    fn from(c: ClientId) -> Self {
        NodeId::Client(c)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Replica(r) => write!(f, "{r}"),
            NodeId::Client(c) => write!(f, "{c}"),
        }
    }
}

/// A view number: the epoch during which a specific replica acts as primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(pub u64);

impl View {
    /// The initial view of the system.
    pub const ZERO: View = View(0);

    /// Returns the next view (used when a view change is triggered).
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// Returns the primary replica for this view in a system of `n` replicas.
    pub fn primary(self, n: usize) -> ReplicaId {
        ReplicaId((self.0 % n as u64) as u32)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A consensus sequence number (slot); transactions are executed in sequence
/// number order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// Returns the next sequence number.
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Identifier of a client request: unique per client, monotonically
/// increasing. Together with [`ClientId`] it uniquely identifies a
/// transaction and allows replicas to de-duplicate retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl RequestId {
    /// Returns the next request id for the issuing client.
    pub fn next(self) -> RequestId {
        RequestId(self.0 + 1)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_primary_rotates_over_all_replicas() {
        let n = 4;
        let primaries: Vec<ReplicaId> = (0..8u64).map(|v| View(v).primary(n)).collect();
        assert_eq!(
            primaries,
            vec![
                ReplicaId(0),
                ReplicaId(1),
                ReplicaId(2),
                ReplicaId(3),
                ReplicaId(0),
                ReplicaId(1),
                ReplicaId(2),
                ReplicaId(3),
            ]
        );
    }

    #[test]
    fn seqnum_next_is_the_successor() {
        assert_eq!(SeqNum(41).next(), SeqNum(42));
    }

    #[test]
    fn node_id_conversions() {
        let r: NodeId = ReplicaId(3).into();
        let c: NodeId = ClientId(7).into();
        assert_eq!(r, NodeId::Replica(ReplicaId(3)));
        assert_eq!(c, NodeId::Client(ClientId(7)));
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(ReplicaId(2).to_string(), "r2");
        assert_eq!(ClientId(9).to_string(), "c9");
        assert_eq!(View(4).to_string(), "v4");
        assert_eq!(SeqNum(10).to_string(), "k10");
        assert_eq!(NodeId::Replica(ReplicaId(1)).to_string(), "r1");
    }

    #[test]
    fn view_next_increments() {
        assert_eq!(View::ZERO.next(), View(1));
        assert_eq!(View(9).next(), View(10));
    }

    #[test]
    fn request_id_orders() {
        assert!(RequestId(1) < RequestId(2));
        assert_eq!(RequestId(1).next(), RequestId(2));
    }
}
