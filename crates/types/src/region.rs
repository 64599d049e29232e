//! Geographic regions and wide-area latency matrices.
//!
//! The paper's WAN experiment (Figure 6(vi)/(vii)) distributes replicas over
//! six Oracle Cloud regions: San Jose, Ashburn, Sydney, São Paulo, Montreal
//! and Marseille, assigned round-robin in that order. [`WanMatrix`] captures
//! representative one-way latencies between those regions; [`RegionMap`]
//! assigns replicas to regions the same way the paper does.

use crate::ids::ReplicaId;
use std::fmt;

/// The six deployment regions used in the paper's WAN experiment, in the
/// order the paper adds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Oracle Cloud us-sanjose-1.
    SanJose,
    /// Oracle Cloud us-ashburn-1.
    Ashburn,
    /// Oracle Cloud ap-sydney-1.
    Sydney,
    /// Oracle Cloud sa-saopaulo-1.
    SaoPaulo,
    /// Oracle Cloud ca-montreal-1.
    Montreal,
    /// Oracle Cloud eu-marseille-1.
    Marseille,
}

impl Region {
    /// All regions, in the order the paper enables them (1 region → 6).
    pub const ALL: [Region; 6] = [
        Region::SanJose,
        Region::Ashburn,
        Region::Sydney,
        Region::SaoPaulo,
        Region::Montreal,
        Region::Marseille,
    ];

    /// Index of this region in [`Region::ALL`].
    pub fn index(self) -> usize {
        Region::ALL
            .iter()
            .position(|r| *r == self)
            .expect("region is a member of ALL")
    }

    /// Returns `true` for the North-American regions; the paper observes that
    /// quorums are satisfied by the NA replicas alone, which is why WAN
    /// throughput stays roughly flat.
    pub fn is_north_america(self) -> bool {
        matches!(self, Region::SanJose | Region::Ashburn | Region::Montreal)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Region::SanJose => "San Jose",
            Region::Ashburn => "Ashburn",
            Region::Sydney => "Sydney",
            Region::SaoPaulo => "Sao Paulo",
            Region::Montreal => "Montreal",
            Region::Marseille => "Marseille",
        };
        f.write_str(name)
    }
}

/// One-way latencies (in microseconds) between deployment regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WanMatrix {
    /// `latency_us[a][b]` is the one-way latency from region `a` to `b`,
    /// indexed by [`Region::index`].
    latency_us: [[u64; 6]; 6],
}

impl WanMatrix {
    /// Representative one-way latencies between the six Oracle Cloud regions,
    /// derived from public inter-region RTT measurements (half the RTT).
    ///
    /// Values are in microseconds.
    pub fn oracle_cloud() -> Self {
        // Rows/columns: SanJose, Ashburn, Sydney, SaoPaulo, Montreal, Marseille.
        let ms = |v: f64| (v * 1000.0) as u64;
        let latency_us = [
            // San Jose
            [ms(0.25), ms(31.0), ms(74.0), ms(97.0), ms(37.0), ms(74.0)],
            // Ashburn
            [ms(31.0), ms(0.25), ms(102.0), ms(59.0), ms(8.0), ms(41.0)],
            // Sydney
            [
                ms(74.0),
                ms(102.0),
                ms(0.25),
                ms(158.0),
                ms(104.0),
                ms(140.0),
            ],
            // Sao Paulo
            [ms(97.0), ms(59.0), ms(158.0), ms(0.25), ms(65.0), ms(101.0)],
            // Montreal
            [ms(37.0), ms(8.0), ms(104.0), ms(65.0), ms(0.25), ms(45.0)],
            // Marseille
            [ms(74.0), ms(41.0), ms(140.0), ms(101.0), ms(45.0), ms(0.25)],
        ];
        WanMatrix { latency_us }
    }

    /// A uniform single-datacenter matrix with the given one-way latency.
    pub fn uniform(latency_us: u64) -> Self {
        WanMatrix {
            latency_us: [[latency_us; 6]; 6],
        }
    }

    /// One-way latency in microseconds from `a` to `b`.
    pub fn latency_us(&self, a: Region, b: Region) -> u64 {
        self.latency_us[a.index()][b.index()]
    }
}

/// Per-link bandwidth configuration, in megabits per second.
///
/// The simulator's delivery time for a message is `latency + size /
/// bandwidth`; a link class set to `None` is treated as infinitely fast
/// (pure-latency model, the seed behaviour). Splitting local and wide-area
/// links mirrors real deployments, where intra-datacenter links are one to
/// two orders of magnitude faster than inter-region ones — the regime the
/// paper's Figure 6(vi) WAN experiment probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandwidthConfig {
    /// Bandwidth of intra-region (same datacenter) replica links.
    pub local_mbps: Option<u64>,
    /// Bandwidth of inter-region (wide-area) replica links.
    pub wan_mbps: Option<u64>,
    /// Bandwidth of client↔replica links: charged on request uploads
    /// (client → primary arrival) and on reply downloads (replica → client).
    pub client_mbps: Option<u64>,
    /// Receive-side (ingest) bandwidth of a replica NIC's per-link-class
    /// ingress lanes. `None` (the default) means receivers ingest for free
    /// — the sender-side-only model. When set, every delivery to a replica
    /// additionally serialises on the receiver's ingress lane of its link
    /// class for its wire time, so a leader collecting n − 1 simultaneous
    /// same-class votes pays for them one after another (vote implosion).
    /// Like the egress side, lanes of different classes on one NIC are
    /// independent (same-region and cross-region ingest do not share a
    /// rate yet). Replies to the aggregate client pool pay no ingress: the
    /// pool stands for many independent client NICs, not one ingest pipe.
    pub ingress_mbps: Option<u64>,
    /// MTU-style transfer chunking. `None` (the default) reserves a link
    /// atomically for a transfer's whole wire time — a megabyte batch holds
    /// its lane until the last byte, head-of-line blocking every small
    /// control message queued behind it. `Some(bytes)` splits transfers
    /// into chunks reserved independently, so later broadcast copies and
    /// small votes interleave with a large batch; delivery still completes
    /// when the final chunk lands (cut-through: latency is paid once) and
    /// the chunk wire times sum exactly to the atomic transfer time.
    /// Chunking applies to egress and (when `ingress_mbps` is set) ingress
    /// lanes alike, so an elephant neither holds a sender's wire nor a
    /// receiver's ingest lane against small control messages.
    pub chunk_bytes: Option<usize>,
}

impl BandwidthConfig {
    /// The pure-latency model: every link is infinitely fast.
    pub fn unlimited() -> Self {
        BandwidthConfig::default()
    }

    /// The same bandwidth on every link class.
    ///
    /// Panics on 0 Mbps: a zero-bandwidth link never delivers anything, so a
    /// sweep reaching 0 would otherwise silently report unlimited-bandwidth
    /// numbers (`transmit_time_ns` treats a missing constraint as free).
    pub fn uniform(mbps: u64) -> Self {
        assert!(
            mbps > 0,
            "bandwidth must be positive (0 Mbps never delivers)"
        );
        BandwidthConfig {
            local_mbps: Some(mbps),
            wan_mbps: Some(mbps),
            client_mbps: Some(mbps),
            ..BandwidthConfig::default()
        }
    }

    /// Fast local links, constrained wide-area links — the shape of the
    /// paper's multi-region deployments.
    ///
    /// Panics on 0 Mbps, like [`BandwidthConfig::uniform`].
    pub fn wan_constrained(wan_mbps: u64) -> Self {
        assert!(
            wan_mbps > 0,
            "bandwidth must be positive (0 Mbps never delivers)"
        );
        BandwidthConfig {
            local_mbps: Some(10_000),
            wan_mbps: Some(wan_mbps),
            client_mbps: None,
            ..BandwidthConfig::default()
        }
    }

    /// Sets the MTU-style chunk size transfers are split into on the link
    /// queues. Panics on 0 bytes: a zero-byte chunk never makes progress.
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        self.chunk_bytes = Some(chunk_bytes);
        self
    }

    /// Sets the receive-side (ingest) bandwidth of every NIC.
    /// Panics on 0 Mbps, like [`BandwidthConfig::uniform`].
    pub fn with_ingress_mbps(mut self, mbps: u64) -> Self {
        assert!(
            mbps > 0,
            "bandwidth must be positive (0 Mbps never delivers)"
        );
        self.ingress_mbps = Some(mbps);
        self
    }

    /// Nanoseconds needed to push `bytes` through a link of `mbps` megabits
    /// per second. `None` means an infinitely fast link. `Some(0)` — which
    /// the preset constructors reject — saturates to an unusably slow link
    /// (`u64::MAX` ns): a zero-bandwidth link never delivers, and treating it
    /// as *infinitely fast* (as it once was) would make a sweep that reaches
    /// 0 silently report unlimited-bandwidth numbers. Callers adding the
    /// result to a clock must use saturating arithmetic.
    ///
    /// 1 Mbps moves one bit per microsecond, so the transmission time in
    /// nanoseconds is `bits * 1000 / mbps`, rounded **up**: a transfer holds
    /// the link for every partial nanosecond it needs, so small messages on
    /// fast links are never free.
    pub fn transmit_time_ns(mbps: Option<u64>, bytes: usize) -> u64 {
        match mbps {
            None => 0,
            Some(0) => u64::MAX,
            Some(mbps) => (bytes as u64).saturating_mul(8_000).div_ceil(mbps),
        }
    }
}

/// Assignment of replicas to regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    regions: Vec<Region>,
    assignment: Vec<Region>,
}

impl RegionMap {
    /// Places all `n` replicas in a single region (LAN deployment).
    pub fn single_region(n: usize) -> Self {
        RegionMap {
            regions: vec![Region::SanJose],
            assignment: vec![Region::SanJose; n],
        }
    }

    /// Distributes `n` replicas round-robin over the first `region_count`
    /// regions in paper order, exactly as §9.7 does.
    pub fn round_robin(n: usize, region_count: usize) -> Self {
        let count = region_count.clamp(1, Region::ALL.len());
        #[expect(
            clippy::disallowed_methods,
            reason = "Region is a small Copy config struct from a static table; \
                      this is setup-time plumbing, not payload bytes"
        )]
        let regions: Vec<Region> = Region::ALL[..count].to_vec();
        let assignment = (0..n).map(|i| regions[i % count]).collect();
        RegionMap {
            regions,
            assignment,
        }
    }

    /// Region hosting the given replica.
    pub fn region_of(&self, replica: ReplicaId) -> Region {
        self.assignment
            .get(replica.as_usize())
            .copied()
            .unwrap_or(Region::SanJose)
    }

    /// The distinct regions in use.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of replicas assigned to `region`.
    pub fn count_in(&self, region: Region) -> usize {
        self.assignment.iter().filter(|r| **r == region).count()
    }

    /// Total number of replicas covered by the map.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` when the map covers no replicas.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_indices_are_consistent() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn north_america_classification() {
        assert!(Region::SanJose.is_north_america());
        assert!(Region::Ashburn.is_north_america());
        assert!(Region::Montreal.is_north_america());
        assert!(!Region::Sydney.is_north_america());
        assert!(!Region::SaoPaulo.is_north_america());
        assert!(!Region::Marseille.is_north_america());
    }

    #[test]
    fn wan_matrix_is_symmetric_and_local_is_fast() {
        let m = WanMatrix::oracle_cloud();
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(m.latency_us(a, b), m.latency_us(b, a));
            }
            assert!(m.latency_us(a, a) < 1000);
        }
        // Sydney <-> Sao Paulo should be the slowest pair.
        assert!(
            m.latency_us(Region::Sydney, Region::SaoPaulo)
                > m.latency_us(Region::SanJose, Region::Ashburn)
        );
    }

    #[test]
    fn uniform_matrix_is_flat() {
        let m = WanMatrix::uniform(150);
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(m.latency_us(a, b), 150);
            }
        }
    }

    #[test]
    fn round_robin_assignment_matches_paper_layout() {
        // 61 replicas over 6 regions => regions get ceil/floor(61/6) replicas.
        let map = RegionMap::round_robin(61, 6);
        assert_eq!(map.len(), 61);
        let total: usize = Region::ALL.iter().map(|r| map.count_in(*r)).sum();
        assert_eq!(total, 61);
        assert_eq!(map.count_in(Region::SanJose), 11);
        assert_eq!(map.count_in(Region::Marseille), 10);
        assert_eq!(map.region_of(ReplicaId(0)), Region::SanJose);
        assert_eq!(map.region_of(ReplicaId(1)), Region::Ashburn);
        assert_eq!(map.region_of(ReplicaId(6)), Region::SanJose);
    }

    #[test]
    fn single_region_puts_everyone_in_san_jose() {
        let map = RegionMap::single_region(5);
        assert_eq!(map.regions(), &[Region::SanJose]);
        assert_eq!(map.count_in(Region::SanJose), 5);
        assert!(!map.is_empty());
    }

    #[test]
    fn transmit_time_scales_with_size_and_bandwidth() {
        // 1 Gbps moves 1 bit/ns: 1000 bytes = 8000 bits = 8 µs.
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(1_000), 1_000), 8_000);
        // Half the bandwidth, twice the time.
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(500), 1_000), 16_000);
        // Ten times the payload, ten times the time.
        assert_eq!(
            BandwidthConfig::transmit_time_ns(Some(1_000), 10_000),
            80_000
        );
        // Unlimited links are free.
        assert_eq!(BandwidthConfig::transmit_time_ns(None, 1_000_000), 0);
    }

    #[test]
    fn zero_bandwidth_saturates_to_an_unusably_slow_link() {
        // 0 Mbps never delivers: the old model treated it as infinitely
        // *fast*, silently disabling the constraint.
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(0), 1_000), u64::MAX);
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(0), 1), u64::MAX);
    }

    #[test]
    fn transmit_time_rounds_partial_nanoseconds_up() {
        // 1 byte at 10 Gbps is 0.8 ns of wire time: charged as 1 ns, not 0.
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(10_000), 1), 1);
        // 3 bytes at 7 Mbps = 24 000 / 7 = 3428.57… ns, rounded up.
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(7), 3), 3_429);
        // Exact divisions are unchanged.
        assert_eq!(BandwidthConfig::transmit_time_ns(Some(1_000), 1_000), 8_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_preset_is_rejected() {
        let _ = BandwidthConfig::wan_constrained(0);
    }

    #[test]
    fn bandwidth_presets_have_expected_shape() {
        let unlimited = BandwidthConfig::unlimited();
        assert_eq!(unlimited.local_mbps, None);
        assert_eq!(unlimited.wan_mbps, None);
        let wan = BandwidthConfig::wan_constrained(100);
        assert_eq!(wan.wan_mbps, Some(100));
        assert!(wan.local_mbps.unwrap() > 100);
        let uniform = BandwidthConfig::uniform(250);
        assert_eq!(uniform.client_mbps, Some(250));
    }

    #[test]
    fn chunking_and_ingress_default_to_the_sender_side_atomic_model() {
        // Every preset leaves transfers atomic and receivers free: the
        // bit-exact PR 2 configuration.
        for bw in [
            BandwidthConfig::unlimited(),
            BandwidthConfig::uniform(100),
            BandwidthConfig::wan_constrained(20),
        ] {
            assert_eq!(bw.chunk_bytes, None);
            assert_eq!(bw.ingress_mbps, None);
        }
        let tuned = BandwidthConfig::wan_constrained(100)
            .with_chunk_bytes(1_500)
            .with_ingress_mbps(200);
        assert_eq!(tuned.chunk_bytes, Some(1_500));
        assert_eq!(tuned.ingress_mbps, Some(200));
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_is_rejected() {
        let _ = BandwidthConfig::unlimited().with_chunk_bytes(0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_ingress_bandwidth_is_rejected() {
        let _ = BandwidthConfig::unlimited().with_ingress_mbps(0);
    }

    #[test]
    fn round_robin_clamps_region_count() {
        let map = RegionMap::round_robin(10, 0);
        assert_eq!(map.regions().len(), 1);
        let map = RegionMap::round_robin(10, 99);
        assert_eq!(map.regions().len(), 6);
    }
}
