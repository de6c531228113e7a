//! A bounded lock-free single-producer/single-consumer ring.
//!
//! Vendored for the decoupled slipstream machine (the workspace is
//! deliberately free of external registry dependencies): the A-stream
//! thread publishes per-cycle delay-buffer batches through this ring and
//! the R-stream thread consumes them, so the queue is the only hot-path
//! synchronization between the two cores.
//!
//! This is the classic Lamport queue: a fixed slot array indexed by two
//! monotonically increasing counters, `head` (consumer) and `tail`
//! (producer). The producer only writes `tail` and reads `head`; the
//! consumer only writes `head` and reads `tail` — each counter has exactly
//! one writer, so a store-release/load-acquire pair per side is the entire
//! protocol. No CAS, no locks, no allocation after construction.
//!
//! Disconnect handling: dropping either endpoint sets a shared `closed`
//! flag, so the peer's blocking operations return instead of spinning
//! forever — essential when one simulator thread panics.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The queue's shared state. Slots are `UnsafeCell<MaybeUninit<T>>`;
/// a slot is owned by the producer while `head <= i < tail` is false and
/// by the consumer otherwise, with the acquire/release pair on the
/// counters transferring ownership (and making the written value visible).
struct Ring<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read (monotonic, wraps via modulo).
    head: AtomicUsize,
    /// Next slot the producer will write (monotonic, wraps via modulo).
    tail: AtomicUsize,
    /// Set when either endpoint is dropped.
    closed: AtomicBool,
}

// SAFETY: the ring is shared between exactly two threads (enforced by the
// unique `Producer`/`Consumer` endpoints, which are `!Clone`). A slot is
// accessed by at most one side at a time: the producer writes slot
// `tail % cap` only while the queue is not full, the consumer reads slot
// `head % cap` only while it is not empty, and the release store of the
// advanced counter publishes the slot to the other side before it can
// touch it. `T: Send` is required because values cross threads.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Only reachable once both endpoints are gone; drain what's left.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.slots[i % self.slots.len()];
            // SAFETY: slots in [head, tail) hold initialized values that
            // were never consumed, and we have exclusive access in drop.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The sending half: owned by exactly one thread.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of `head` — refreshed only when the ring looks full,
    /// so the fast path touches a single shared cache line.
    cached_head: usize,
    tail: usize,
}

/// The receiving half: owned by exactly one thread.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of `tail` — refreshed only when the ring looks empty.
    cached_tail: usize,
    head: usize,
}

/// Why a blocking operation gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// Creates a bounded SPSC ring with room for `capacity` values (min 1).
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1);
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            cached_head: 0,
            tail: 0,
        },
        Consumer {
            ring,
            cached_tail: 0,
            head: 0,
        },
    )
}

/// Spin briefly, then yield to the scheduler — the two simulator threads
/// advance in near-lockstep windows, so waits are almost always short.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl<T> Producer<T> {
    /// Attempts to enqueue without blocking; returns the value back when
    /// the ring is full.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let cap = self.ring.slots.len();
        if self.tail - self.cached_head == cap {
            self.cached_head = self.ring.head.load(Ordering::Acquire);
            if self.tail - self.cached_head == cap {
                return Err(value);
            }
        }
        let slot = &self.ring.slots[self.tail % cap];
        // SAFETY: `tail - head < cap` so this slot is unobservable by the
        // consumer until the release store below publishes it.
        unsafe { (*slot.get()).write(value) };
        self.tail += 1;
        self.ring.tail.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Enqueues, spinning (then yielding) while the ring is full. Fails
    /// only if the consumer is gone.
    pub fn push(&mut self, mut value: T) -> Result<(), Disconnected> {
        let mut spins = 0;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(v) => {
                    if self.ring.closed.load(Ordering::Acquire) {
                        return Err(Disconnected);
                    }
                    value = v;
                    backoff(&mut spins);
                }
            }
        }
    }
}

impl<T> Consumer<T> {
    /// Attempts to dequeue without blocking; `None` when the ring is
    /// currently empty (the producer may still be alive).
    pub fn try_pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        let cap = self.ring.slots.len();
        let slot = &self.ring.slots[self.head % cap];
        // SAFETY: `head < tail` so the producer published this slot with
        // a release store; it will not touch it again until `head`
        // advances past it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head += 1;
        self.ring.head.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Dequeues, spinning (then yielding) while the ring is empty. Fails
    /// only once the producer is gone *and* the ring is drained.
    pub fn pop(&mut self) -> Result<T, Disconnected> {
        let mut spins = 0;
        loop {
            if let Some(v) = self.try_pop() {
                return Ok(v);
            }
            if self.ring.closed.load(Ordering::Acquire) {
                // The producer can't add more; drain-check once more to
                // close the race between its last push and its drop.
                return self.try_pop().ok_or(Disconnected);
            }
            backoff(&mut spins);
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (mut tx, mut rx) = ring::<u64>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99), "full ring rejects");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn occupancy_tracks_buffered_count() {
        // The full check counts exactly the values buffered: each pop
        // frees one slot, however stale the producer's cached `head` is.
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(4), Err(4));
        assert_eq!(rx.try_pop(), Some(0));
        tx.try_push(4).unwrap();
        assert_eq!(tx.try_push(5), Err(5));
        for i in 1..5 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut tx, mut rx) = ring::<usize>(3);
        for i in 0..1000 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Ok(i));
        }
    }

    #[test]
    fn blocking_pop_sees_producer_disconnect() {
        let (tx, mut rx) = ring::<u32>(2);
        drop(tx);
        assert_eq!(rx.pop(), Err(Disconnected));
    }

    #[test]
    fn disconnect_still_drains_buffered_values() {
        let (mut tx, mut rx) = ring::<u32>(2);
        tx.try_push(7).unwrap();
        drop(tx);
        assert_eq!(rx.pop(), Ok(7), "buffered value survives disconnect");
        assert_eq!(rx.pop(), Err(Disconnected));
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        let (mut tx, mut rx) = ring::<u64>(8);
        const N: u64 = 100_000;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    tx.push(i).unwrap();
                }
            });
            for i in 0..N {
                assert_eq!(rx.pop(), Ok(i));
            }
        });
    }

    #[test]
    fn drop_releases_unconsumed_heap_values() {
        // Would leak (and Miri/asan would flag) if Ring::drop didn't drain.
        let (mut tx, rx) = ring::<Vec<u64>>(4);
        tx.try_push(vec![1, 2, 3]).unwrap();
        tx.try_push(vec![4]).unwrap();
        drop(tx);
        drop(rx);
    }
}
