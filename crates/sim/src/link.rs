//! Serialising FIFO link queues: the stateful half of the bandwidth model.
//!
//! [`crate::net::NetworkModel`] answers the stateless questions — what is
//! the latency of a link, how long do `bytes` take to cross it — but a real
//! NIC is a serial resource: two transfers leaving the same sender at the
//! same time do not each get the full link, the second waits for the first.
//! [`LinkQueues`] adds that state. Every outbound link is identified by its
//! sender-side [`Nic`] and a [`LinkClass`] (which bandwidth knob governs
//! it), and tracks the time until which it is busy. Reserving a transfer
//! returns when its last byte leaves the wire:
//!
//! ```text
//! start  = max(ready, busy_until)      // FIFO behind earlier transfers
//! done   = start + transmit            // then the wire time itself
//! ```
//!
//! so a broadcast's k-th copy queues behind the k − 1 copies enqueued before
//! it — the sender-NIC contention that throttles broadcast-heavy leaders at
//! geo-scale, which an infinite-capacity pipe model cannot show.
//!
//! Links have **two ends**: every lane is additionally keyed by a
//! [`Direction`]. Egress lanes serialise what a NIC sends; ingress lanes
//! serialise what it receives, so a leader collecting n − 1 simultaneous
//! votes pays for ingesting them one after another (the vote implosion that
//! pins leader-based protocols at scale) instead of absorbing the whole fan-
//! in for free. As on the egress side, each link class is its own lane:
//! a NIC's local, WAN and client traffic do not (yet) share one ingest
//! rate — cross-class contention on a physical NIC is future work.
//!
//! An ingress reservation is made with `ready` set to *arrival minus the
//! ingest wire time*: the bits streamed into the NIC while they crossed the
//! wire, so an uncontended message finishes ingesting exactly at its arrival
//! instant (transmit time is paid once, cut-through), and only contention
//! adds delay.
//!
//! Zero-length transfers (an unlimited link class) bypass the queue
//! entirely and never touch its state, so `BandwidthConfig::unlimited()`
//! reproduces the pure-latency schedule bit-exactly.
//!
//! The queues live with the [`crate::runner::Simulation`] rather than the
//! (cloned, shared) `NetworkModel`, and double as the accounting point for
//! per-link utilisation and queueing delay reported in
//! [`crate::metrics::SimReport`].
//!
//! The lanes are one dense array: six per replica (three classes, two
//! directions), indexed by replica id, after the client pool's six. A
//! reservation is an index computation, not a map lookup. The array grows
//! to the highest replica id reserved, and a lane nothing has crossed is
//! left out of the reports.

use flexitrust_types::ReplicaId;

/// Simulated time in nanoseconds.
type Ns = u64;

/// Which bandwidth knob of `BandwidthConfig` governs a link.
///
/// Each class is a separate lane of the sender's NIC: a replica pushing a
/// WAN broadcast does not stall its intra-region traffic in this model,
/// matching the per-link-class bandwidth configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkClass {
    /// Intra-region replica-to-replica links (`local_mbps`).
    Local,
    /// Inter-region replica-to-replica links (`wan_mbps`).
    Wan,
    /// Client↔replica links (`client_mbps`): request uploads and reply
    /// downloads.
    Client,
}

impl LinkClass {
    /// Short label for tables and summaries.
    pub fn name(self) -> &'static str {
        match self {
            LinkClass::Local => "local",
            LinkClass::Wan => "wan",
            LinkClass::Client => "client",
        }
    }
}

/// The sender-side network interface a transfer leaves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Nic {
    /// A replica's NIC.
    Replica(ReplicaId),
    /// The aggregate client population's uplink (clients are modelled in
    /// aggregate, so their uploads share one serialising pipe).
    ClientPool,
}

impl std::fmt::Display for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Nic::Replica(id) => write!(f, "replica {}", id.0),
            Nic::ClientPool => f.write_str("clients"),
        }
    }
}

/// Which end of a link a reservation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The sending side: transfers leaving the NIC.
    Egress,
    /// The receiving side: transfers being ingested by the NIC.
    Ingress,
}

impl Direction {
    /// Short label for tables and summaries.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Egress => "tx",
            Direction::Ingress => "rx",
        }
    }
}

/// Per-link occupancy and accounting. A lane with `busy_ns == 0` was never
/// reserved: every reservation that reaches the state adds a non-zero
/// transmit time.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// The link transmits earlier reservations until this instant.
    busy_until: Ns,
    /// Total nanoseconds spent transmitting (wire occupancy).
    busy_ns: u64,
    /// Total nanoseconds transfers waited behind earlier ones.
    queue_delay_ns: u64,
    /// Number of transfers that crossed the link.
    messages: u64,
}

/// Usage of one link lane over a run, as reported in `SimReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkUsage {
    /// The NIC the lane belongs to.
    pub nic: Nic,
    /// The link class on that NIC.
    pub class: LinkClass,
    /// Which end of the NIC the lane occupies (egress = sending,
    /// ingress = receiving).
    pub direction: Direction,
    /// Total transmission (wire-occupancy) time, nanoseconds.
    pub busy_ns: u64,
    /// Total time transfers queued behind earlier ones, nanoseconds.
    pub queue_delay_ns: u64,
    /// Transfers that crossed the link.
    pub messages: u64,
}

impl LinkUsage {
    /// Offered wire time relative to `duration_ns`: the total transmission
    /// time reserved on the link divided by the window. Values above 1.0
    /// mean the link was oversubscribed — more wire time was demanded than
    /// the window could carry, so a backlog (queueing delay) built up.
    pub fn utilization(&self, duration_ns: u64) -> f64 {
        if duration_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / duration_ns as f64
        }
    }
}

/// Every link class, in its discriminant (and `Ord`) order.
const CLASSES: [LinkClass; 3] = [LinkClass::Local, LinkClass::Wan, LinkClass::Client];
/// Both directions, in their discriminant (and `Ord`) order.
const DIRECTIONS: [Direction; 2] = [Direction::Egress, Direction::Ingress];
/// Lanes per NIC: one per (link class, direction).
const LANES_PER_NIC: usize = CLASSES.len() * DIRECTIONS.len();

/// The index of the `(nic, class, direction)` lane in [`LinkQueues`]'
/// array: the client pool's lanes first, then each replica's, in
/// `(class, direction)` order.
fn lane_index(nic: Nic, class: LinkClass, direction: Direction) -> usize {
    let base = match nic {
        Nic::ClientPool => 0,
        Nic::Replica(id) => (id.as_usize() + 1) * LANES_PER_NIC,
    };
    base + class as usize * DIRECTIONS.len() + direction as usize
}

/// The lane at `index` of [`LinkQueues`]' array: the inverse of
/// [`lane_index`].
fn lane_key(index: usize) -> (Nic, LinkClass, Direction) {
    let nic = match index / LANES_PER_NIC {
        0 => Nic::ClientPool,
        n => Nic::Replica(ReplicaId((n - 1) as u32)),
    };
    let lane = index % LANES_PER_NIC;
    let class = CLASSES[lane / DIRECTIONS.len()];
    (nic, class, DIRECTIONS[lane % DIRECTIONS.len()])
}

/// FIFO occupancy state for every (NIC, link class, direction) lane.
///
/// Owned by the simulation runner; the network model itself stays stateless
/// and shareable.
#[derive(Debug, Clone, Default)]
pub struct LinkQueues {
    /// Every lane's state, by [`lane_index`].
    lanes: Vec<LinkState>,
}

impl LinkQueues {
    /// An empty set of idle links.
    pub fn new() -> Self {
        LinkQueues::default()
    }

    /// Reserves the `(nic, class, direction)` lane for a transfer of
    /// `transmit_ns` that becomes ready at `ready`, and returns the instant
    /// its last byte clears the lane. Transfers are served FIFO in
    /// reservation order: the transfer starts at `max(ready, busy_until)`.
    ///
    /// A `transmit_ns` of 0 (unlimited link class, self-delivery) returns
    /// `ready` without touching any state, so purely latency-modelled
    /// traffic neither queues nor accrues accounting.
    pub fn reserve(
        &mut self,
        nic: Nic,
        class: LinkClass,
        direction: Direction,
        ready: Ns,
        transmit_ns: u64,
    ) -> Ns {
        self.reserve_span(nic, class, direction, ready, transmit_ns, true)
    }

    /// Like [`Self::reserve`], for a later chunk of a transfer whose first
    /// chunk was already reserved: occupies the wire and accrues busy and
    /// queueing time identically, but does not count another message —
    /// `LinkUsage::messages` counts transfers, not chunks.
    pub fn reserve_continuation(
        &mut self,
        nic: Nic,
        class: LinkClass,
        direction: Direction,
        ready: Ns,
        transmit_ns: u64,
    ) -> Ns {
        self.reserve_span(nic, class, direction, ready, transmit_ns, false)
    }

    fn reserve_span(
        &mut self,
        nic: Nic,
        class: LinkClass,
        direction: Direction,
        ready: Ns,
        transmit_ns: u64,
        count_message: bool,
    ) -> Ns {
        if transmit_ns == 0 {
            return ready;
        }
        let index = lane_index(nic, class, direction);
        if index >= self.lanes.len() {
            let nics = index / LANES_PER_NIC + 1;
            self.lanes
                .resize(nics * LANES_PER_NIC, LinkState::default());
        }
        let link = &mut self.lanes[index];
        let start = ready.max(link.busy_until);
        let done = start.saturating_add(transmit_ns);
        link.busy_until = done;
        link.busy_ns = link.busy_ns.saturating_add(transmit_ns);
        link.queue_delay_ns = link.queue_delay_ns.saturating_add(start - ready);
        if count_message {
            link.messages += 1;
        }
        done
    }

    /// Usage of every lane a transfer crossed, in (NIC, class, direction)
    /// order — replicas by id, then the client pool — for deterministic
    /// reporting.
    pub fn usage(&self) -> Vec<LinkUsage> {
        let pool = 0..LANES_PER_NIC.min(self.lanes.len());
        (LANES_PER_NIC..self.lanes.len())
            .chain(pool)
            .filter_map(|index| {
                let s = &self.lanes[index];
                let (nic, class, direction) = lane_key(index);
                (s.busy_ns > 0).then_some(LinkUsage {
                    nic,
                    class,
                    direction,
                    busy_ns: s.busy_ns,
                    queue_delay_ns: s.queue_delay_ns,
                    messages: s.messages,
                })
            })
            .collect()
    }

    /// Total wire-occupancy time across every link, nanoseconds.
    pub fn total_busy_ns(&self) -> u64 {
        self.lanes
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.busy_ns))
    }

    /// Total queueing delay across every link, nanoseconds.
    pub fn total_queue_delay_ns(&self) -> u64 {
        self.lanes
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.queue_delay_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NIC: Nic = Nic::Replica(ReplicaId(0));
    const TX: Direction = Direction::Egress;
    const RX: Direction = Direction::Ingress;

    #[test]
    fn an_idle_link_adds_only_transmit_time() {
        let mut q = LinkQueues::new();
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 1_000, 50), 1_050);
    }

    #[test]
    fn broadcast_copies_serialise_on_the_sender_nic() {
        // The acceptance criterion: the k-th copy of a broadcast completes
        // k transmit times after departure — fan-out costs wire time.
        let mut q = LinkQueues::new();
        let transmit = 400;
        for k in 1..=24u64 {
            let done = q.reserve(NIC, LinkClass::Wan, TX, 10_000, transmit);
            assert_eq!(done, 10_000 + k * transmit, "copy {k}");
        }
        let usage = q.usage();
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].messages, 24);
        assert_eq!(usage[0].busy_ns, 24 * transmit);
        // Copies 2..=24 each waited behind the earlier ones.
        assert_eq!(usage[0].queue_delay_ns, (0..24).sum::<u64>() * transmit);
    }

    #[test]
    fn link_classes_are_independent_lanes() {
        let mut q = LinkQueues::new();
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 0, 1_000), 1_000);
        // Local traffic from the same NIC does not queue behind WAN traffic.
        assert_eq!(q.reserve(NIC, LinkClass::Local, TX, 0, 10), 10);
        // Nor do different senders share a queue.
        assert_eq!(
            q.reserve(Nic::Replica(ReplicaId(1)), LinkClass::Wan, TX, 0, 10),
            10
        );
        // But the same lane is still busy.
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 0, 1_000), 2_000);
    }

    #[test]
    fn directions_are_independent_lanes() {
        let mut q = LinkQueues::new();
        // Saturate the egress lane…
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 0, 10_000), 10_000);
        // …receiving on the same (NIC, class) is unaffected…
        assert_eq!(q.reserve(NIC, LinkClass::Wan, RX, 0, 500), 500);
        // …and both lanes report their own accounting rows.
        let usage = q.usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].direction, TX);
        assert_eq!(usage[1].direction, RX);
        assert_eq!(usage[1].busy_ns, 500);
    }

    #[test]
    fn simultaneous_arrivals_serialise_on_the_ingress_lane() {
        // A vote implosion: n − 1 equal-size votes all arriving at the same
        // instant. With ready = arrival − rx wire time, the first ingests
        // for free (its bits streamed in while crossing the wire) and the
        // k-th completes k − 1 ingest times later.
        let mut q = LinkQueues::new();
        let rx = 700u64;
        let arrival = 50_000u64;
        for k in 0..16u64 {
            let done = q.reserve(NIC, LinkClass::Wan, RX, arrival - rx, rx);
            assert_eq!(done, arrival + k * rx, "vote {k}");
        }
    }

    #[test]
    fn an_idle_gap_drains_the_queue() {
        let mut q = LinkQueues::new();
        q.reserve(NIC, LinkClass::Wan, TX, 0, 100);
        // Ready long after the link went idle: no queueing delay.
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 5_000, 100), 5_100);
        assert_eq!(q.usage()[0].queue_delay_ns, 0);
    }

    #[test]
    fn zero_transmit_bypasses_the_queue() {
        let mut q = LinkQueues::new();
        q.reserve(NIC, LinkClass::Wan, TX, 0, 10_000);
        // Unlimited-bandwidth traffic is not delayed by a busy link…
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 5, 0), 5);
        // …and leaves no trace in the accounting.
        assert_eq!(q.usage()[0].messages, 1);
        assert_eq!(q.total_busy_ns(), 10_000);
        assert_eq!(q.total_queue_delay_ns(), 0);
    }

    #[test]
    fn saturating_transmit_never_overflows_the_clock() {
        let mut q = LinkQueues::new();
        // A 0-Mbps link saturates to u64::MAX transmit time.
        let done = q.reserve(NIC, LinkClass::Wan, TX, 1_000, u64::MAX);
        assert_eq!(done, u64::MAX);
        // The next reservation on the dead link also saturates.
        assert_eq!(q.reserve(NIC, LinkClass::Wan, TX, 2_000, 1), u64::MAX);
    }

    /// The lanes as a map keyed by `(nic, class, direction)`: what the
    /// dense array must report.
    #[derive(Default)]
    struct MapModel {
        links: std::collections::BTreeMap<(Nic, LinkClass, Direction), LinkState>,
    }

    impl MapModel {
        fn reserve(
            &mut self,
            lane: (Nic, LinkClass, Direction),
            ready: Ns,
            transmit_ns: u64,
            count: bool,
        ) -> Ns {
            if transmit_ns == 0 {
                return ready;
            }
            let link = self.links.entry(lane).or_default();
            let start = ready.max(link.busy_until);
            let done = start.saturating_add(transmit_ns);
            link.busy_until = done;
            link.busy_ns = link.busy_ns.saturating_add(transmit_ns);
            link.queue_delay_ns = link.queue_delay_ns.saturating_add(start - ready);
            link.messages += u64::from(count);
            done
        }

        fn usage(&self) -> Vec<LinkUsage> {
            let lanes = self.links.iter();
            lanes
                .map(|(&(nic, class, direction), s)| LinkUsage {
                    nic,
                    class,
                    direction,
                    busy_ns: s.busy_ns,
                    queue_delay_ns: s.queue_delay_ns,
                    messages: s.messages,
                })
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Reservations on sparse replica ids and the client pool, every
        /// class and direction, zero and saturating transmit times: the
        /// dense lanes answer and report like the map.
        #[test]
        fn dense_lanes_report_like_a_map(
            ops in proptest::collection::vec(proptest::any::<u64>(), 0..300),
        ) {
            const NICS: [Nic; 5] = [
                Nic::Replica(ReplicaId(0)),
                Nic::Replica(ReplicaId(3)),
                Nic::Replica(ReplicaId(17)),
                Nic::Replica(ReplicaId(200)),
                Nic::ClientPool,
            ];
            let mut q = LinkQueues::new();
            let mut model = MapModel::default();
            for op in ops {
                let lane = (
                    NICS[(op % 5) as usize],
                    CLASSES[(op / 5 % 3) as usize],
                    DIRECTIONS[(op / 15 % 2) as usize],
                );
                let ready = (op >> 32) % 100_000;
                let transmit_ns = match op / 30 % 8 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => (op >> 16) % 5_000,
                };
                let count = op / 240 % 2 == 0;
                let done = if count {
                    q.reserve(lane.0, lane.1, lane.2, ready, transmit_ns)
                } else {
                    q.reserve_continuation(lane.0, lane.1, lane.2, ready, transmit_ns)
                };
                proptest::prop_assert_eq!(done, model.reserve(lane, ready, transmit_ns, count));
            }
            proptest::prop_assert_eq!(q.usage(), model.usage());
            let busy = model.links.values().fold(0u64, |a, s| a.saturating_add(s.busy_ns));
            let queued = model.links.values().fold(0u64, |a, s| a.saturating_add(s.queue_delay_ns));
            proptest::prop_assert_eq!(q.total_busy_ns(), busy);
            proptest::prop_assert_eq!(q.total_queue_delay_ns(), queued);
        }
    }

    #[test]
    fn lane_key_inverts_lane_index() {
        for nic in [
            Nic::ClientPool,
            Nic::Replica(ReplicaId(0)),
            Nic::Replica(ReplicaId(96)),
        ] {
            for class in CLASSES {
                for direction in DIRECTIONS {
                    let index = lane_index(nic, class, direction);
                    assert_eq!(lane_key(index), (nic, class, direction));
                }
            }
        }
    }

    #[test]
    fn utilization_is_busy_over_duration() {
        let mut q = LinkQueues::new();
        q.reserve(NIC, LinkClass::Client, TX, 0, 250);
        q.reserve(NIC, LinkClass::Client, TX, 0, 250);
        let usage = q.usage();
        assert!((usage[0].utilization(1_000) - 0.5).abs() < 1e-12);
        assert_eq!(usage[0].utilization(0), 0.0);
    }
}
