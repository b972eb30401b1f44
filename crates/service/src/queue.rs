//! The bounded job queue: ready work and deferred retries.
//!
//! *Ready* entries drain in arrival order, where arrival is the most
//! recent queuing (first admission, retry, or shed re-admission), so a
//! shed job goes to the back rather than starving newcomers. *Deferred*
//! entries are retries waiting out a backoff delay; [`JobQueue::promote`]
//! moves them to the back of the ready queue once the service clock passes
//! their wake time, earliest wake time first and equal ones in enqueue
//! order.
//!
//! Capacity is enforced by the service (admission control), not here — the
//! queue just reports its total occupancy. The drain order is a pure
//! function of the (enqueue order, wake time) history: no wall-clock, no
//! randomness.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use evotc_bits::Trit;
use evotc_evo::EaCheckpoint;

use crate::job::{JobId, JobSpec};

/// One admitted job's queue state, threaded through retries and shed
/// cycles (the spec itself is shared, never copied per attempt).
#[derive(Debug)]
pub(crate) struct JobEntry {
    /// The job's identity.
    pub id: JobId,
    /// The submitting spec.
    pub spec: Arc<JobSpec>,
    /// The spec's result-cache content key, computed once at admission.
    pub key: u64,
    /// Retryable failures consumed so far.
    pub failures: u32,
    /// Shed-preemption cycles survived so far.
    pub shed_cycles: u32,
    /// Checkpoint-sink failures accumulated over attempts.
    pub checkpoint_failures: u64,
    /// The checkpoint to resume from (set by a shed preemption; dropped on
    /// a rejected resume so the retry restarts from scratch).
    pub resume: Option<EaCheckpoint<Trit>>,
    /// Service-clock admission time.
    pub submitted_at: Duration,
}

struct DeferredItem {
    ready_at: Duration,
    seq: u64,
    entry: JobEntry,
}

impl PartialEq for DeferredItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for DeferredItem {}
impl PartialOrd for DeferredItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeferredItem {
    /// Max-heap inverted into a min-heap: the earliest wake time (then the
    /// earliest enqueue) surfaces first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .ready_at
            .cmp(&self.ready_at)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The ready queue and the deferred heap (see the [module docs](self)).
#[derive(Default)]
pub(crate) struct JobQueue {
    ready: VecDeque<JobEntry>,
    deferred: BinaryHeap<DeferredItem>,
    /// Deferred enqueues so far: equal wake times wake in enqueue order.
    next_seq: u64,
}

impl JobQueue {
    /// Enqueues `entry` as immediately runnable, behind every ready entry.
    pub fn push_ready(&mut self, entry: JobEntry) {
        self.ready.push_back(entry);
    }

    /// Parks `entry` until the service clock reaches `ready_at`.
    pub fn push_deferred(&mut self, entry: JobEntry, ready_at: Duration) {
        let item = DeferredItem {
            ready_at,
            seq: self.next_seq,
            entry,
        };
        self.next_seq += 1;
        self.deferred.push(item);
    }

    /// Moves every deferred entry whose wake time has passed to the ready
    /// queue; returns how many were promoted.
    pub fn promote(&mut self, now: Duration) -> usize {
        let mut promoted = 0;
        while let Some(item) = self.deferred.peek() {
            if item.ready_at > now {
                break;
            }
            let item = self.deferred.pop().expect("peeked entry exists");
            self.push_ready(item.entry);
            promoted += 1;
        }
        promoted
    }

    /// Takes the longest-waiting ready entry.
    pub fn pop_ready(&mut self) -> Option<JobEntry> {
        self.ready.pop_front()
    }

    /// The earliest wake time among deferred entries — what a virtual
    /// clock must advance to when nothing is ready and nothing is running.
    pub fn next_deferred_at(&self) -> Option<Duration> {
        self.deferred.peek().map(|item| item.ready_at)
    }

    /// Total occupancy (ready + deferred) — what admission's capacity
    /// check counts.
    pub fn len(&self) -> usize {
        self.ready.len() + self.deferred.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;
    use evotc_bits::TestSet;

    fn entry(id: u64) -> JobEntry {
        let patterns = TestSet::parse(&["10"]).unwrap();
        JobEntry {
            id: JobId(id),
            spec: Arc::new(JobSpec::new(TenantId(0), patterns, 2, 1, 0)),
            key: 0,
            failures: 0,
            shed_cycles: 0,
            checkpoint_failures: 0,
            resume: None,
            submitted_at: Duration::ZERO,
        }
    }

    fn drain_ids(queue: &mut JobQueue) -> Vec<u64> {
        std::iter::from_fn(|| queue.pop_ready().map(|e| e.id.0)).collect()
    }

    #[test]
    fn drains_in_arrival_order() {
        let mut queue = JobQueue::default();
        for id in [3, 1, 4, 2] {
            queue.push_ready(entry(id));
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(drain_ids(&mut queue), [3, 1, 4, 2]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn promote_wakes_exactly_the_due_entries_in_order() {
        let mut queue = JobQueue::default();
        queue.push_deferred(entry(1), Duration::from_millis(30));
        queue.push_deferred(entry(2), Duration::from_millis(10));
        queue.push_deferred(entry(3), Duration::from_millis(50));
        queue.push_deferred(entry(4), Duration::from_millis(10));
        assert_eq!(queue.next_deferred_at(), Some(Duration::from_millis(10)));
        assert_eq!(queue.promote(Duration::from_millis(30)), 3);
        assert_eq!(queue.ready.len(), 3);
        assert_eq!(queue.len(), 4, "one still parked");
        assert_eq!(
            drain_ids(&mut queue),
            [2, 4, 1],
            "woken in wake-time order, ties in enqueue order"
        );
        assert_eq!(queue.next_deferred_at(), Some(Duration::from_millis(50)));
        assert_eq!(queue.promote(Duration::from_millis(9)), 0);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn requeued_entries_go_to_the_back() {
        let mut queue = JobQueue::default();
        queue.push_ready(entry(1));
        queue.push_ready(entry(2));
        let first = queue.pop_ready().unwrap();
        assert_eq!(first.id.0, 1);
        queue.push_ready(entry(3));
        // A shed re-admission, then a promoted retry, each queue behind
        // every entry already ready.
        queue.push_ready(first);
        queue.push_deferred(entry(4), Duration::ZERO);
        assert_eq!(queue.promote(Duration::ZERO), 1);
        assert_eq!(drain_ids(&mut queue), [2, 3, 1, 4]);
    }
}
