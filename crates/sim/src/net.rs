//! Network latency and bandwidth model.
//!
//! This is the **stateless** half of the network model: per-link latency
//! (LAN, WAN matrix entry, or the loopback cost for self-delivery), the
//! transmission time of a message's wire bytes through the link's
//! configured bandwidth ([`BandwidthConfig`]), and the link-class
//! classification consumed by the serialising queues. Link *occupancy* —
//! concurrent transfers on one sender NIC queueing behind each other — is
//! the runner-owned [`crate::link::LinkQueues`]; delivery time of a message
//! is `queue wait + size / bandwidth + latency`. The seed model was
//! latency-only; unlimited bandwidth (the default) reproduces it exactly.

use crate::link::LinkClass;
use flexitrust_types::{BandwidthConfig, RegionMap, ReplicaId, WanMatrix};

/// One-way latencies and per-link bandwidth between replicas and between
/// clients and replicas.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    regions: RegionMap,
    wan: WanMatrix,
    /// One-way latency between co-located nodes (same region / same rack).
    local_one_way_us: u64,
    /// One-way latency between a client and its nearest replica.
    client_one_way_us: u64,
    /// Latency a replica pays to deliver a message to itself (kernel
    /// loopback, not the NIC); kept explicit so the cost model accounts for
    /// self-delivery consistently instead of hard-coding it at call sites.
    loopback_us: u64,
    /// Per-link-class bandwidth; `None` entries model infinitely fast links.
    bandwidth: BandwidthConfig,
}

impl NetworkModel {
    /// A single-datacenter (LAN) deployment of `n` replicas, matching the
    /// paper's default setup: ~250 µs one-way within the region.
    pub fn lan(n: usize) -> Self {
        NetworkModel {
            regions: RegionMap::single_region(n),
            wan: WanMatrix::uniform(250),
            local_one_way_us: 250,
            client_one_way_us: 250,
            loopback_us: 1,
            bandwidth: BandwidthConfig::unlimited(),
        }
    }

    /// The paper's WAN deployment: `n` replicas spread round-robin over the
    /// first `region_count` of the six Oracle Cloud regions (§9.7). Clients
    /// are co-located with the primary's region.
    pub fn wan(n: usize, region_count: usize) -> Self {
        NetworkModel {
            regions: RegionMap::round_robin(n, region_count),
            wan: WanMatrix::oracle_cloud(),
            local_one_way_us: 250,
            client_one_way_us: 250,
            loopback_us: 1,
            bandwidth: BandwidthConfig::unlimited(),
        }
    }

    /// Sets the per-link bandwidth configuration.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthConfig) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// The region map in use.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// The per-link bandwidth configuration in use.
    pub fn bandwidth(&self) -> &BandwidthConfig {
        &self.bandwidth
    }

    /// One-way latency between two replicas, in microseconds.
    pub(crate) fn replica_latency_us(&self, from: ReplicaId, to: ReplicaId) -> u64 {
        if from == to {
            return self.loopback_us;
        }
        let a = self.regions.region_of(from);
        let b = self.regions.region_of(to);
        if a == b {
            self.local_one_way_us
        } else {
            self.wan.latency_us(a, b)
        }
    }

    /// The bandwidth class of the replica link `from → to`: local within a
    /// region, WAN across regions. Also the lane transfers serialise on in
    /// [`crate::link::LinkQueues`].
    pub fn replica_link_class(&self, from: ReplicaId, to: ReplicaId) -> LinkClass {
        if self.regions.region_of(from) == self.regions.region_of(to) {
            LinkClass::Local
        } else {
            LinkClass::Wan
        }
    }

    /// Transmission time (nanoseconds) of `bytes` over the replica link
    /// `from → to`: zero for self-delivery (no NIC involved), the local link
    /// bandwidth within a region, the WAN bandwidth across regions.
    pub fn replica_transmit_ns(&self, from: ReplicaId, to: ReplicaId, bytes: usize) -> u64 {
        if from == to {
            return 0;
        }
        let mbps = if self.replica_link_class(from, to) == LinkClass::Local {
            self.bandwidth.local_mbps
        } else {
            self.bandwidth.wan_mbps
        };
        BandwidthConfig::transmit_time_ns(mbps, bytes)
    }

    /// Transmission time (nanoseconds) of `bytes` over a client link.
    pub(crate) fn client_transmit_ns(&self, bytes: usize) -> u64 {
        BandwidthConfig::transmit_time_ns(self.bandwidth.client_mbps, bytes)
    }

    /// Ingest (receive-side) time of `bytes` at a replica NIC: zero for
    /// self-delivery (no NIC involved) or when no ingress bandwidth is
    /// configured — receivers then ingest for free, the sender-side-only
    /// model.
    pub(crate) fn replica_ingress_ns(&self, from: ReplicaId, to: ReplicaId, bytes: usize) -> u64 {
        if from == to {
            return 0;
        }
        BandwidthConfig::transmit_time_ns(self.bandwidth.ingress_mbps, bytes)
    }

    /// Ingest (receive-side) time of `bytes` at a replica's client-facing
    /// lane (request uploads landing at the primary). Replies to the
    /// aggregate client pool pay no ingress — the pool stands for many
    /// independent client NICs, not one ingest pipe.
    pub(crate) fn client_ingress_ns(&self, bytes: usize) -> u64 {
        BandwidthConfig::transmit_time_ns(self.bandwidth.ingress_mbps, bytes)
    }

    /// The MTU-style chunk size transfers are split into on the serialising
    /// link queues, if configured. A hand-built `Some(0)` is clamped to one
    /// byte so chunked transfers always make progress.
    pub fn chunk_bytes(&self) -> Option<usize> {
        self.bandwidth.chunk_bytes.map(|c| c.max(1))
    }

    /// One-way latency between a client and a replica, in microseconds.
    ///
    /// Clients are modelled as co-located with the first region (where the
    /// initial primary lives), as in the paper's WAN experiment.
    pub(crate) fn client_latency_us(&self, replica: ReplicaId) -> u64 {
        let client_region = self.regions.region_of(ReplicaId(0));
        let replica_region = self.regions.region_of(replica);
        if client_region == replica_region {
            self.client_one_way_us
        } else {
            self.wan.latency_us(client_region, replica_region)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_latencies_are_flat() {
        let net = NetworkModel::lan(4);
        assert_eq!(net.replica_latency_us(ReplicaId(0), ReplicaId(3)), 250);
        assert_eq!(net.replica_latency_us(ReplicaId(1), ReplicaId(1)), 1);
        assert_eq!(net.client_latency_us(ReplicaId(2)), 250);
    }

    #[test]
    fn wan_latencies_depend_on_regions() {
        let net = NetworkModel::wan(12, 6);
        // Replica 0 (San Jose) to replica 1 (Ashburn) crosses the continent.
        let cross = net.replica_latency_us(ReplicaId(0), ReplicaId(1));
        assert!(cross >= 30_000, "got {cross}");
        // Replica 0 to replica 6 (both San Jose) stays local.
        assert_eq!(net.replica_latency_us(ReplicaId(0), ReplicaId(6)), 250);
    }

    #[test]
    fn clients_are_near_the_first_region() {
        let net = NetworkModel::wan(12, 6);
        assert_eq!(net.client_latency_us(ReplicaId(0)), 250);
        assert!(net.client_latency_us(ReplicaId(2)) > 10_000);
    }

    #[test]
    fn self_delivery_routes_through_the_loopback_field() {
        let mut net = NetworkModel::lan(4);
        net.loopback_us = 7;
        assert_eq!(net.replica_latency_us(ReplicaId(2), ReplicaId(2)), 7);
        // Loopback pays no transmission time even under tight bandwidth.
        let tight = NetworkModel::lan(4).with_bandwidth(BandwidthConfig::uniform(1));
        assert_eq!(
            tight.replica_transmit_ns(ReplicaId(1), ReplicaId(1), 1 << 20),
            0
        );
    }

    #[test]
    fn unlimited_bandwidth_reproduces_the_pure_latency_model() {
        let net = NetworkModel::wan(12, 6);
        assert_eq!(
            net.replica_transmit_ns(ReplicaId(0), ReplicaId(1), 1 << 20),
            0
        );
        assert_eq!(net.client_transmit_ns(1 << 20), 0);
    }

    #[test]
    fn ingress_time_applies_to_remote_deliveries_only() {
        // No ingress bandwidth: receivers ingest for free.
        let free = NetworkModel::wan(12, 6);
        assert_eq!(
            free.replica_ingress_ns(ReplicaId(0), ReplicaId(1), 1 << 20),
            0
        );
        assert_eq!(free.client_ingress_ns(1 << 20), 0);
        // 100 Mbps ingest: 100 kB takes 8 ms to ingest, on replica and
        // client lanes alike — but self-delivery never touches the NIC.
        let rx = NetworkModel::wan(12, 6)
            .with_bandwidth(BandwidthConfig::unlimited().with_ingress_mbps(100));
        assert_eq!(
            rx.replica_ingress_ns(ReplicaId(0), ReplicaId(1), 100_000),
            8_000_000
        );
        assert_eq!(rx.client_ingress_ns(100_000), 8_000_000);
        assert_eq!(
            rx.replica_ingress_ns(ReplicaId(2), ReplicaId(2), 100_000),
            0
        );
    }

    #[test]
    fn chunk_bytes_passes_through_and_clamps_zero() {
        assert_eq!(NetworkModel::lan(4).chunk_bytes(), None);
        let chunked = NetworkModel::lan(4)
            .with_bandwidth(BandwidthConfig::uniform(100).with_chunk_bytes(1_500));
        assert_eq!(chunked.chunk_bytes(), Some(1_500));
        // A hand-built zero chunk is clamped so chunked transfers always
        // make progress.
        let zero = NetworkModel::lan(4).with_bandwidth(BandwidthConfig {
            chunk_bytes: Some(0),
            ..BandwidthConfig::uniform(100)
        });
        assert_eq!(zero.chunk_bytes(), Some(1));
    }

    #[test]
    fn transmit_time_scales_with_wire_size_and_picks_the_link_class() {
        let net = NetworkModel::wan(12, 6).with_bandwidth(BandwidthConfig {
            local_mbps: Some(10_000),
            wan_mbps: Some(100),
            client_mbps: None,
            ..BandwidthConfig::default()
        });
        // Replicas 0 and 6 share San Jose: the fast local link applies.
        let local = net.replica_transmit_ns(ReplicaId(0), ReplicaId(6), 100_000);
        // Replicas 0 and 1 are in different regions: the slow WAN link.
        let wan = net.replica_transmit_ns(ReplicaId(0), ReplicaId(1), 100_000);
        assert_eq!(local, 80_000); // 800 kbit at 10 Gbps = 80 µs
        assert_eq!(wan, 8_000_000); // 800 kbit at 100 Mbps = 8 ms
                                    // Ten times the bytes, ten times the time.
        assert_eq!(
            net.replica_transmit_ns(ReplicaId(0), ReplicaId(1), 1_000_000),
            10 * wan
        );
    }
}
