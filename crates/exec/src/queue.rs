//! The bounded job queue shared by pool stages.
//!
//! Every place [`ShardPool::scoped_workers`](crate::ShardPool) workers
//! pull jobs from a producer follows the same discipline: any worker can
//! claim the next job, the lock is held only for the claim itself
//! (claiming serializes, compute parallelizes), and the owner can
//! *close* the queue — unblocking a producer parked on a full queue —
//! even while workers still hold claims. The streaming pipeline's job,
//! event, merge-round and spill queues all speak this protocol; this
//! module is the one implementation of it.
//!
//! The queue is a `Mutex`-guarded ring buffer with two `Condvar`s, sized
//! once at construction to its capacity. Neither sending nor claiming
//! allocates, and a thread that blocks on it parks on a futex, not on
//! per-thread waker state: the number of heap allocations a pipeline
//! run makes does not depend on which of its threads happened to block.
//! (The std `mpsc` channels this replaces allocate a thread-local
//! context and grow a waker list the first time a thread blocks, which
//! made warm-run allocation counts vary with scheduling.)

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Creates a queue holding at most `capacity` items, returning its
/// producer handle and its shared claim side.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn bounded<T>(capacity: usize) -> (QueueSender<T>, SharedQueue<T>) {
    assert!(capacity > 0, "a queue needs room for at least one item");
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            items: VecDeque::with_capacity(capacity),
            senders: 1,
            closed: false,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        QueueSender {
            inner: Arc::clone(&inner),
        },
        SharedQueue { inner },
    )
}

#[derive(Debug)]
struct Inner<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    /// Live [`QueueSender`] handles; at zero, claims drain then end.
    senders: usize,
    /// Set by [`SharedQueue::close`] or by dropping the claim side.
    closed: bool,
}

impl<T> Inner<T> {
    /// Locks the state. A panic in another holder cannot leave the ring
    /// inconsistent (every critical section is a single push, pop or
    /// flag update), so a poisoned lock proceeds on the inner value.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The producer side of a [`bounded`] queue. Clone it for each producer;
/// once every clone is dropped, claimants drain what is queued and then
/// see the end of the queue.
#[derive(Debug)]
pub struct QueueSender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> QueueSender<T> {
    /// Appends `item`, blocking while the queue is full. Returns the item
    /// back if the queue is closed (before or while waiting).
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.inner.capacity {
                state.items.push_back(item);
                drop(state);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .inner
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        QueueSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.lock();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.inner.not_empty.notify_all();
        }
    }
}

/// The claim side of a [`bounded`] queue.
///
/// Cheap to share by reference into scoped worker closures. [`claim`]
/// blocks until a job arrives and returns `None` once the queue is
/// over — every sender is gone and the queue is drained, or [`close`]
/// was called. Dropping the claim side closes the queue.
///
/// [`claim`]: SharedQueue::claim
/// [`close`]: SharedQueue::close
#[derive(Debug)]
pub struct SharedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> SharedQueue<T> {
    /// Claims the next job, blocking while the queue is open but empty.
    /// Returns `None` when no job can ever arrive: every sender is gone
    /// and the queue is drained, or the queue was closed.
    pub fn claim(&self) -> Option<T> {
        let mut state = self.inner.lock();
        loop {
            if let Some(item) = self.pop(&mut state) {
                return Some(item);
            }
            if state.closed || state.senders == 0 {
                return None;
            }
            state = self
                .inner
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Claims the next job if one is queued, without blocking.
    pub fn try_claim(&self) -> Option<T> {
        let mut state = self.inner.lock();
        self.pop(&mut state)
    }

    /// Pops the oldest job (a closed queue is empty: `close` drains it
    /// and sends fail) and frees its slot for a waiting producer.
    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let item = state.items.pop_front()?;
        self.inner.not_full.notify_one();
        Some(item)
    }

    /// Closes the queue: drops every queued job, makes each producer
    /// mid-send (and every later send) fail with its item, and makes
    /// every subsequent claim return `None`. Idempotent. Claimants parked
    /// in [`claim`](SharedQueue::claim) wake and return `None`.
    pub fn close(&self) {
        let drained = {
            let mut state = self.inner.lock();
            state.closed = true;
            std::mem::take(&mut state.items)
        };
        self.inner.not_full.notify_all();
        self.inner.not_empty.notify_all();
        // Queued jobs are dropped outside the lock.
        drop(drained);
    }
}

impl<T> Drop for SharedQueue<T> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardPool;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn workers_drain_the_queue_exactly_once_each() {
        let (tx, queue) = bounded(100);
        for n in 0..100u64 {
            tx.send(n).unwrap();
        }
        drop(tx);
        let sum = AtomicU64::new(0);
        let claims = AtomicU64::new(0);
        ShardPool::new(4).scoped_workers(|_| {
            while let Some(n) = queue.claim() {
                sum.fetch_add(n, Ordering::Relaxed);
                claims.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(claims.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn a_full_queue_blocks_the_producer_until_a_claim() {
        let (tx, queue) = bounded(2);
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                for n in 0..10u64 {
                    tx.send(n).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Some(n) = queue.claim() {
                got.push(n);
            }
            producer.join().unwrap();
            assert_eq!(got, (0..10).collect::<Vec<_>>(), "FIFO order");
        });
    }

    #[test]
    fn close_unblocks_a_blocked_producer() {
        let (tx, queue) = bounded::<u64>(1);
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                tx.send(1).unwrap(); // fills the bound
                tx.send(2) // blocks until the close fails it
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            queue.close();
            assert_eq!(
                producer.join().unwrap(),
                Err(2),
                "close must fail a producer parked mid-send"
            );
        });
        // After close, claims return None forever.
        assert_eq!(queue.claim(), None);
        assert_eq!(queue.try_claim(), None);
        queue.close(); // idempotent
    }

    #[test]
    fn close_wakes_a_parked_claimant() {
        let (tx, queue) = bounded::<u64>(1);
        std::thread::scope(|scope| {
            let claimant = scope.spawn(|| queue.claim());
            std::thread::sleep(std::time::Duration::from_millis(20));
            queue.close();
            assert_eq!(claimant.join().unwrap(), None);
        });
        assert_eq!(tx.send(3), Err(3));
    }

    #[test]
    fn claimants_drain_then_observe_sender_hangup() {
        let (tx, queue) = bounded::<u64>(4);
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(queue.try_claim(), Some(7));
        assert_eq!(queue.try_claim(), None);
        tx2.send(8).unwrap();
        drop(tx2);
        assert_eq!(queue.claim(), Some(8));
        assert_eq!(queue.claim(), None);
    }

    #[test]
    fn dropping_the_claim_side_fails_sends() {
        let (tx, queue) = bounded::<u64>(4);
        drop(queue);
        assert_eq!(tx.send(1), Err(1));
    }
}
