//! Size- and deadline-bounded request coalescing.
//!
//! Per-entity prediction requests arrive one at a time; scoring them one
//! at a time wastes the batch inference path's neighborhood deduplication.
//! [`MicroBatcher`] sits on an mpsc channel and groups requests into fused
//! batches: a batch closes when it reaches `max_batch` items or when
//! `deadline` has elapsed since its first item arrived — so a lone request
//! waits at most one deadline, and a burst fills batches back to back.
//!
//! A **zero** deadline selects greedy draining: the batch takes whatever
//! is already queued (up to `max_batch`) and closes without waiting at
//! all. This batcher is the front door for the CLI's stdin request
//! stream; each drained batch is scored with one `predict_batch_*` call
//! on the sharded tier.
//!
//! Saturation is observable: every batch that closes *full* with work
//! still queued bumps `serve.batcher.full_drains`, so sustained queue
//! pressure shows up in run reports.

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use relgraph_obs as obs;

/// Coalesces items from a channel into bounded batches.
pub struct MicroBatcher<T> {
    rx: Receiver<T>,
    max_batch: usize,
    deadline: Duration,
}

impl<T> MicroBatcher<T> {
    /// Batch up to `max_batch` items (≥ 1), waiting at most `deadline`
    /// after the first item of each batch.
    pub fn new(rx: Receiver<T>, max_batch: usize, deadline: Duration) -> Self {
        MicroBatcher {
            rx,
            max_batch: max_batch.max(1),
            deadline,
        }
    }

    /// Block for the next batch. Returns `None` once the sending side has
    /// disconnected and everything queued has been drained. A non-`None`
    /// batch always holds at least one item, and every sent item appears
    /// in exactly one batch, in send order.
    pub fn next_batch(&self) -> Option<Vec<T>> {
        let first = self.rx.recv().ok()?;
        let mut batch = vec![first];
        if self.deadline.is_zero() {
            // Greedy drain: take the backlog, never wait for stragglers.
            while batch.len() < self.max_batch {
                match self.rx.try_recv() {
                    Ok(item) => batch.push(item),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                }
            }
            self.note_saturation(&batch);
            return Some(batch);
        }
        let close_at = Instant::now() + self.deadline;
        while batch.len() < self.max_batch {
            let now = Instant::now();
            if now >= close_at {
                break;
            }
            match self.rx.recv_timeout(close_at - now) {
                Ok(item) => batch.push(item),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.note_saturation(&batch);
        Some(batch)
    }

    /// A batch that closed by the *size* bound (not the deadline or a
    /// disconnect) means the queue is producing faster than one batch
    /// can absorb — the saturation signal behind
    /// `serve.batcher.full_drains`.
    fn note_saturation(&self, batch: &[T]) {
        if batch.len() == self.max_batch && self.max_batch > 1 && obs::enabled() {
            obs::add("serve.batcher.full_drains", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn queued_burst_fills_batches_to_the_size_bound() {
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let b = MicroBatcher::new(rx, 4, Duration::from_millis(50));
        assert_eq!(b.next_batch(), Some(vec![0, 1, 2, 3]));
        assert_eq!(b.next_batch(), Some(vec![4, 5, 6, 7]));
        assert_eq!(b.next_batch(), Some(vec![8, 9]));
        assert_eq!(b.next_batch(), None);
    }

    #[test]
    fn deadline_closes_a_partial_batch() {
        let (tx, rx) = mpsc::channel();
        let b = MicroBatcher::new(rx, 100, Duration::from_millis(10));
        let sender = std::thread::spawn(move || {
            tx.send(1).unwrap();
            // Arrives after the deadline: must land in the *next* batch.
            std::thread::sleep(Duration::from_millis(40));
            tx.send(2).unwrap();
        });
        let first = b.next_batch().unwrap();
        assert_eq!(first, vec![1], "deadline should close the batch early");
        let second = b.next_batch().unwrap();
        assert_eq!(second, vec![2]);
        sender.join().unwrap();
        assert_eq!(b.next_batch(), None);
    }

    #[test]
    fn zero_sized_bound_is_clamped_to_one() {
        let (tx, rx) = mpsc::channel();
        tx.send(7).unwrap();
        drop(tx);
        let b = MicroBatcher::new(rx, 0, Duration::from_millis(1));
        assert_eq!(b.next_batch(), Some(vec![7]));
    }

    #[test]
    fn zero_deadline_drains_backlog_without_waiting() {
        let (tx, rx) = mpsc::channel();
        for i in 0..6 {
            tx.send(i).unwrap();
        }
        let b = MicroBatcher::new(rx, 4, Duration::ZERO);
        let t0 = std::time::Instant::now();
        assert_eq!(b.next_batch(), Some(vec![0, 1, 2, 3]));
        assert_eq!(b.next_batch(), Some(vec![4, 5]));
        // The sender is still connected and the queue is empty: a
        // deadline-based batcher would block here; greedy must not have.
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "greedy drain must not wait on an open channel"
        );
        drop(tx);
        assert_eq!(b.next_batch(), None);
    }

    #[test]
    fn max_batch_one_delivers_every_item_exactly_once() {
        let (tx, rx) = mpsc::channel();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let b = MicroBatcher::new(rx, 1, Duration::from_millis(5));
        for i in 0..5 {
            assert_eq!(b.next_batch(), Some(vec![i]));
        }
        assert_eq!(b.next_batch(), None);
    }

    #[test]
    fn sender_dropped_mid_batch_loses_nothing() {
        let (tx, rx) = mpsc::channel();
        let b = MicroBatcher::new(rx, 8, Duration::from_millis(200));
        let sender = std::thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            tx.send(3).unwrap();
            // Dropped here, while the batcher is mid-deadline on a
            // partial batch.
        });
        // Disconnect closes the partial batch early: everything sent
        // arrives, once, and the stream then ends.
        assert_eq!(b.next_batch(), Some(vec![1, 2, 3]));
        assert_eq!(b.next_batch(), None);
        sender.join().unwrap();
    }

    #[test]
    fn burst_then_idle_preserves_every_item_exactly_once() {
        let (tx, rx) = mpsc::channel();
        let b = MicroBatcher::new(rx, 3, Duration::from_millis(2));
        let sender = std::thread::spawn(move || {
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            // Idle gap long enough that the consumer drains fully and
            // blocks in `recv` before the second burst.
            std::thread::sleep(Duration::from_millis(60));
            for i in 10..17 {
                tx.send(i).unwrap();
            }
        });
        let mut seen = Vec::new();
        while let Some(batch) = b.next_batch() {
            assert!(!batch.is_empty() && batch.len() <= 3);
            seen.extend(batch);
        }
        sender.join().unwrap();
        assert_eq!(seen, (0..17).collect::<Vec<_>>(), "no loss, no duplication");
    }
}
