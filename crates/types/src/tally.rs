//! Counters that many threads bump and few threads read.
//!
//! One `AtomicU64` that every thread `fetch_add`s is one cache line every
//! core takes in turn: on the threaded hosts each replica decodes values
//! and each socket thread counts frames, and moving that line between cores
//! costs more than the work it counts. [`Striped`] gives every live thread
//! a cell of its own, on a cache line no other live thread writes, and
//! readers sum the cells. A cell is never reset: when its thread exits, the
//! next thread to claim the stripe adds on top, so a sum stays exact and
//! monotone and still includes what exited threads counted.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// How many cells a [`Striped`] holds: up to this many live threads write
/// lines of their own. Past that, threads share stripes, which is slower
/// but still exact.
const STRIPES: usize = 64;

/// One cell, alone on its cache line. 128 bytes, not 64: x86 prefetches
/// lines in adjacent pairs, so a 64-byte neighbour still bounces.
#[repr(align(128))]
#[derive(Default)]
struct CacheLine<T>(T);

/// One `T` per stripe. [`local`](Striped::local) is the calling thread's
/// cell; [`cells`](Striped::cells) is every cell, for summing.
pub struct Striped<T> {
    cells: [CacheLine<T>; STRIPES],
}

impl<T> Striped<T> {
    /// The calling thread's cell. While at most `STRIPES` threads that use
    /// striped cells are alive, no other live thread writes it.
    pub fn local(&self) -> &T {
        &self.cells[stripe() % STRIPES].0
    }

    /// Every cell, the ones of exited threads included.
    pub fn cells(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().map(|cell| &cell.0)
    }
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped {
            cells: std::array::from_fn(|_| CacheLine::default()),
        }
    }
}

/// A monotone event count on [`Striped`] cells: [`add`](Tally::add) touches
/// only the calling thread's line, [`sum`](Tally::sum) reads them all.
pub struct Tally(Striped<AtomicU64>);

impl Tally {
    /// A count of zero, usable in a `static`.
    pub const fn new() -> Self {
        Tally(Striped {
            cells: [const { CacheLine(AtomicU64::new(0)) }; STRIPES],
        })
    }

    /// Counts `n` more events.
    pub fn add(&self, n: u64) {
        self.0.local().fetch_add(n, Ordering::Relaxed);
    }

    /// Every event counted so far, by every thread that ever counted.
    pub fn sum(&self) -> u64 {
        self.0.cells().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Tally {
    fn default() -> Self {
        Tally::new()
    }
}

/// Which stripes a live thread holds.
static CLAIMED: [AtomicBool; STRIPES] = [const { AtomicBool::new(false) }; STRIPES];

/// A thread's stripe, claimed the first time the thread counts and given
/// back when it exits. Cells are bumped with `fetch_add` either way, so a
/// stripe shared after all are claimed loses nothing, and a claim publishes
/// no data: `Relaxed` suffices.
struct Claim {
    stripe: usize,
    owned: bool,
}

impl Claim {
    fn take() -> Self {
        for (stripe, claimed) in CLAIMED.iter().enumerate() {
            if !claimed.swap(true, Ordering::Relaxed) {
                return Claim {
                    stripe,
                    owned: true,
                };
            }
        }
        static SHARED: AtomicUsize = AtomicUsize::new(0);
        Claim {
            stripe: SHARED.fetch_add(1, Ordering::Relaxed) % STRIPES,
            owned: false,
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.owned {
            CLAIMED[self.stripe].store(false, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static CLAIM: Claim = Claim::take();
}

/// The calling thread's stripe. A thread that counts while its
/// thread-locals are being torn down uses stripe 0.
fn stripe() -> usize {
    CLAIM.try_with(|claim| claim.stripe).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_threads_write_cells_of_their_own_and_sums_outlive_them() {
        let tally = Tally::new();
        let stripes = std::sync::Mutex::new(Vec::new());
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    tally.add(5);
                    stripes.lock().unwrap().push(stripe());
                    // All eight are alive together.
                    barrier.wait();
                });
            }
        });
        let mut stripes = stripes.into_inner().unwrap();
        stripes.sort_unstable();
        stripes.dedup();
        assert_eq!(stripes.len(), 8, "one stripe per live thread");
        assert_eq!(tally.sum(), 40);
        assert_eq!(std::mem::align_of::<CacheLine<AtomicU64>>(), 128);
    }
}
