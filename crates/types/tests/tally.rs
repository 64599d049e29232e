//! The payload-allocation counters stay exact across threads: every
//! allocation a thread makes is in the sums after the thread has exited,
//! whether it counted on a stripe of its own or, with more threads alive
//! than there are stripes, on a shared one. The only test in its binary, so
//! no other test's allocations land between the two readings.

use flexitrust_types::{
    batch_payload_allocations, value_payload_allocations, Batch, Digest, Transaction, ValueBytes,
};
use std::sync::{Arc, Barrier};

#[test]
fn allocations_of_exited_threads_are_counted_exactly() {
    // More threads alive at once than there are stripes.
    const THREADS: u64 = 80;
    const EACH: u64 = 500;
    let values = value_payload_allocations();
    let batches = batch_payload_allocations();
    let together = Arc::new(Barrier::new(THREADS as usize));
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let together = Arc::clone(&together);
            std::thread::spawn(move || {
                together.wait();
                for i in 0..EACH {
                    let value = ValueBytes::from([t as u8; 16]);
                    let batch = Batch::new(vec![Transaction::noop()], Digest::from_u64_tag(i));
                    assert_eq!((value.len(), batch.len()), (16, 1));
                }
                together.wait();
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("the thread exits cleanly");
    }
    assert_eq!(value_payload_allocations() - values, THREADS * EACH);
    assert_eq!(batch_payload_allocations() - batches, THREADS * EACH);
}
