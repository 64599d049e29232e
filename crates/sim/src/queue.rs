//! The simulator's pending events: a calendar queue (R. Brown, "Calendar
//! queues", CACM 31(10), 1988) that pops in exact `(at, seq)` order.
//!
//! [`EventQueue`] stamps every push with a sequence number, so two events
//! due at the same instant pop in push order. Payloads sit in a slab and
//! never move; the ordering structures hold only 24-byte keys
//! `(at, seq, slot)`. The slab grows by chunks of `CHUNK` slots, so its
//! size follows the most events ever pending rather than the next power of
//! two, and growing it copies nothing. A free slot's link chains it to the
//! next free one.
//!
//! * **The calendar**: a ring of `BUCKETS` buckets, each `BUCKET_NS` of
//!   simulated time wide, covering the horizon after the *cursor* bucket.
//!   A future bucket is an unsorted list threaded through one link array
//!   parallel to the slab, so a push is O(1).
//! * **The cursor's deque**: when the cursor reaches a bucket, its list is
//!   sorted once into a `VecDeque`, which pops from the front. A push into
//!   the cursor's own bucket is inserted straight into the deque, in order.
//! * **The far heap**: a push past the horizon waits in a binary heap and
//!   moves into the ring once the cursor comes within a horizon of it. When
//!   the ring is empty, the cursor jumps straight to the heap's earliest
//!   bucket.
//! * **The behind heap**: a push into a bucket the cursor has already left
//!   (the simulator backdates an ingress transfer's first chunk) waits in a
//!   second binary heap, which pops before everything else: each of its
//!   keys is earlier than any key in the cursor's bucket.
//!
//! Pop order is exactly a binary heap's over `(at, seq)`; only the cost
//! differs. The bucket width and count are fixed. On the broadcast-heavy
//! benchmark run a push lands a median 83 µs (20 buckets) ahead of the
//! clock, and the horizon holds all but 0.1 % of pushes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated time in nanoseconds.
type Ns = u64;

/// `log2` of a bucket's width: 4 096 ns.
const BUCKET_SHIFT: u32 = 12;
/// Buckets in the ring; a power of two. With 4.096 µs buckets the horizon
/// is 8.4 ms.
const BUCKETS: u64 = 2_048;
/// The end of a bucket list, and a slot with no successor.
const NIL: u32 = u32::MAX;
/// Slots per slab chunk.
const CHUNK: usize = 64;

/// One pending event's place in the order: its due time, its push stamp
/// and where its payload lives. Ordered by `(at, seq)`; `seq` is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Ns,
    seq: u64,
    slot: u32,
}

/// A slot of the payload slab: `None` while free.
pub(crate) type Slot<T> = Option<T>;

/// A slot's link, parallel to the slab: while the slot's event waits in a
/// future bucket, its key and the next slot in that bucket; while the slot
/// is free, the next free slot.
#[derive(Debug, Clone, Copy)]
struct Link {
    at: Ns,
    seq: u64,
    next: u32,
}

/// A priority queue of simulator events, popped in `(at, seq)` order.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// Payloads, `CHUNK` slots a chunk: slot `i` is `slab[i / CHUNK][i % CHUNK]`.
    slab: Vec<Box<[Slot<T>]>>,
    /// Each slot's link, chunked like `slab`.
    links: Vec<Box<[Link]>>,
    /// The first free slot, `NIL` when every slot is taken.
    free: u32,
    /// Number of pending events.
    len: usize,
    /// The first slot of each future bucket's list, `NIL` when empty.
    /// Allocated on the first push, so an unused queue costs nothing.
    heads: Vec<u32>,
    /// Events in the ring's future buckets (not in `current`).
    ring_len: usize,
    /// The absolute bucket number (`at >> BUCKET_SHIFT`) of the cursor.
    cursor: u64,
    /// The cursor bucket's events, sorted.
    current: VecDeque<Key>,
    /// Events at or past `cursor + BUCKETS`.
    far: BinaryHeap<Reverse<Key>>,
    /// Events in buckets before the cursor.
    behind: BinaryHeap<Reverse<Key>>,
    /// The stamp of the latest push.
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            links: Vec::new(),
            free: NIL,
            len: 0,
            heads: Vec::new(),
            ring_len: 0,
            cursor: 0,
            current: VecDeque::new(),
            far: BinaryHeap::new(),
            behind: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue. Allocates nothing until the first push.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` at `at`, after every event already pushed for
    /// the same instant.
    pub(crate) fn push(&mut self, at: Ns, payload: T) {
        self.seq += 1;
        let seq = self.seq;
        if self.free == NIL {
            self.grow();
        }
        let slot = self.free;
        self.free = self.link(slot).next;
        *self.slot(slot) = Some(payload);
        self.len += 1;
        if self.heads.is_empty() {
            self.heads = vec![NIL; BUCKETS as usize];
        }
        self.insert(Key { at, seq, slot });
    }

    /// Removes the earliest event: `(at, seq, payload)`.
    pub(crate) fn pop(&mut self) -> Option<(Ns, u64, T)> {
        let key = match self.behind.pop() {
            Some(Reverse(key)) => key,
            None => match self.current.pop_front() {
                Some(key) => key,
                None => {
                    if !self.advance() {
                        return None;
                    }
                    self.current.pop_front()?
                }
            },
        };
        let payload = self.slot(key.slot).take();
        let payload = payload.expect("a queued key names a full slot");
        self.link(key.slot).next = self.free;
        self.free = key.slot;
        self.len -= 1;
        Some((key.at, key.seq, payload))
    }

    fn slot(&mut self, slot: u32) -> &mut Slot<T> {
        &mut self.slab[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    fn link(&mut self, slot: u32) -> &mut Link {
        &mut self.links[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    /// Adds a chunk of free slots, chained in slot order. Called with no
    /// slot free.
    fn grow(&mut self) {
        let end = (self.slab.len() + 1) * CHUNK;
        let end = u32::try_from(end).expect("fewer than 2^32 pending events");
        let first = end - CHUNK as u32;
        let free = |slot| Link {
            at: 0,
            seq: 0,
            next: if slot + 1 < end { slot + 1 } else { NIL },
        };
        self.slab.push((0..CHUNK).map(|_| None).collect());
        self.links.push((first..end).map(free).collect());
        self.free = first;
    }

    /// Files `key` by its bucket relative to the cursor.
    fn insert(&mut self, key: Key) {
        let bucket = key.at >> BUCKET_SHIFT;
        if bucket < self.cursor {
            self.behind.push(Reverse(key));
        } else if bucket == self.cursor {
            // `seq` is the newest stamp: the key goes after every key due
            // no later.
            let at = key.at;
            let index = self.current.partition_point(|k| k.at <= at);
            self.current.insert(index, key);
        } else if bucket - self.cursor < BUCKETS {
            self.file(bucket, key);
        } else {
            self.far.push(Reverse(key));
        }
    }

    /// Threads `key` onto the list of future `bucket`.
    fn file(&mut self, bucket: u64, key: Key) {
        let head = &mut self.heads[(bucket % BUCKETS) as usize];
        let next = std::mem::replace(head, key.slot);
        *self.link(key.slot) = Link {
            at: key.at,
            seq: key.seq,
            next,
        };
        self.ring_len += 1;
    }

    /// Moves the cursor to the next bucket holding an event and sorts that
    /// bucket into `current`; `false` when nothing is pending there or
    /// beyond. Called with `current` empty.
    fn advance(&mut self) -> bool {
        loop {
            if self.ring_len == 0 {
                let Some(Reverse(first)) = self.far.peek() else {
                    return false;
                };
                self.cursor = first.at >> BUCKET_SHIFT;
            } else {
                self.cursor += 1;
            }
            // The horizon moved: every far event now inside it joins the
            // ring, so the ring again holds everything before the far heap.
            while let Some(Reverse(key)) = self.far.peek().copied() {
                let bucket = key.at >> BUCKET_SHIFT;
                if bucket - self.cursor >= BUCKETS {
                    break;
                }
                self.far.pop();
                self.file(bucket, key);
            }
            let head = &mut self.heads[(self.cursor % BUCKETS) as usize];
            if *head != NIL {
                let mut slot = std::mem::replace(head, NIL);
                while slot != NIL {
                    let link = *self.link(slot);
                    self.current.push_back(Key {
                        at: link.at,
                        seq: link.seq,
                        slot,
                    });
                    slot = link.next;
                    self.ring_len -= 1;
                }
                self.current
                    .make_contiguous()
                    .sort_unstable_by_key(|k| (k.at, k.seq));
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUCKET_NS: Ns = 1 << BUCKET_SHIFT;
    const HORIZON: Ns = BUCKETS * BUCKET_NS;

    #[test]
    fn a_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    #[test]
    fn same_instant_pops_in_push_order() {
        let mut q = EventQueue::new();
        for payload in 0..5 {
            q.push(7, payload);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            (0..5).map(|p| (7, p as u64 + 1, p)).collect::<Vec<_>>()
        );
        assert!(q.is_empty());
    }

    #[test]
    fn a_push_behind_the_cursor_pops_first() {
        let mut q = EventQueue::new();
        q.push(3 * HORIZON, 'a');
        q.push(10_000, 'b');
        assert_eq!(q.pop(), Some((10_000, 2, 'b')));
        // The cursor sits at 10 000's bucket: 5 is behind it.
        q.push(5, 'c');
        q.push(10_000, 'd');
        assert_eq!(q.pop(), Some((5, 3, 'c')));
        assert_eq!(q.pop(), Some((10_000, 4, 'd')));
        // The ring is empty: the cursor jumps to the far heap.
        assert_eq!(q.pop(), Some((3 * HORIZON, 1, 'a')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn popped_slots_are_reused_and_the_slab_grows_by_a_chunk() {
        let mut q = EventQueue::new();
        for at in 0..10_000 {
            q.push(at, at);
            q.push(at, at);
            q.pop();
            q.pop();
        }
        assert_eq!(q.slab.len(), 1);
        for at in 0..=CHUNK as u64 {
            q.push(at, at);
        }
        assert_eq!((q.slab.len(), q.len()), (2, CHUNK + 1));
    }

    #[test]
    fn an_unused_queue_allocates_no_calendar() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(q.heads.is_empty() && q.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random interleavings of pushes and pops against a binary heap:
        /// ties at one instant, pushes at and behind the last popped
        /// instant, within and past the horizon, and long idle gaps that
        /// empty the ring while the far heap holds events. The payload is
        /// the push stamp, so a pop names which event came out.
        #[test]
        fn pops_in_the_order_of_a_binary_heap(
            ops in proptest::collection::vec(proptest::any::<u64>(), 1..600),
        ) {
            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<(Ns, u64)>> = BinaryHeap::new();
            let mut seq = 0;
            let mut now: Ns = 0;
            for op in ops {
                let r = op >> 8;
                let at = match op % 8 {
                    0 => now,
                    1 => now + r % BUCKET_NS,
                    2 => now + r % (HORIZON / 8),
                    3 => now + HORIZON - BUCKET_NS + r % (3 * BUCKET_NS),
                    4 => now + r % (5 * HORIZON),
                    5 => now.saturating_sub(r % (4 * BUCKET_NS)),
                    _ => {
                        let want = model.pop().map(|Reverse((at, s))| (at, s, s));
                        proptest::prop_assert_eq!(q.pop(), want);
                        if let Some((at, _, _)) = want {
                            now = at;
                        }
                        continue;
                    }
                };
                seq += 1;
                q.push(at, seq);
                model.push(Reverse((at, seq)));
                proptest::prop_assert_eq!(q.len(), model.len());
            }
            while let Some(Reverse((at, s))) = model.pop() {
                proptest::prop_assert_eq!(q.pop(), Some((at, s, s)));
            }
            proptest::prop_assert_eq!(q.pop(), None);
        }
    }
}
