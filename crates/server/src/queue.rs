//! Priority-lane admission with explicit overload shedding.
//!
//! The service's backpressure policy is *reject, don't buffer*: every
//! lane has the same hard capacity, and a push against a full lane fails
//! immediately so the transport can answer `Overloaded` while the
//! client's timeout budget is still intact. Unbounded buffering would
//! instead convert overload into unbounded latency (and eventually
//! memory exhaustion) — the failure mode the BI throughput test is
//! designed to expose.
//!
//! PR 7 splits the single FIFO into three lanes ([`Lane::Short`] for
//! IS/IC reads, [`Lane::Heavy`] for BI analytics, [`Lane::Write`] for
//! durable batches) precisely because one FIFO has head-of-line
//! blocking: a burst of multi-millisecond BI jobs queued ahead of a
//! microsecond point lookup makes the lookup pay the burst's full
//! drain time. With lanes, short reads never sit behind heavy ones —
//! [`LaneQueues::pop_read`] drains the two read lanes under a weighted
//! scheduler (`SHORT_WEIGHT` short pops for every heavy pop when both
//! are non-empty, work-conserving when either is empty), and write
//! batches get their own consumer via [`LaneQueues::pop_write`] so a
//! WAL fsync never stalls a read worker.
//!
//! A full lane refuses the newcomer and leaves queued work untouched,
//! which keeps the outcome predictable for a retrying client.
//!
//! Shutdown semantics implement the drain phase of graceful shutdown:
//! [`LaneQueues::close`] refuses new work but lets consumers pop
//! everything already admitted; the pops return `None` only once the
//! queues are both closed and empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::proto::Lane;

/// Short pops per heavy pop when both read lanes hold work: short reads
/// never wait behind more than one heavy dispatch, and heavies still get
/// every fifth pop.
const SHORT_WEIGHT: u64 = 4;

/// Why a push was refused, carrying the rejected item back to the
/// caller so it can respond to the client.
#[derive(Debug)]
pub enum PushError<T> {
    /// The lane was at capacity — the request is shed.
    Full(T),
    /// The queues were closed for shutdown — no new work is admitted.
    Closed(T),
}

struct LanesState<T> {
    lanes: [VecDeque<T>; 3],
    closed: bool,
    /// Monotone pop counter driving the weighted read scheduler.
    tick: u64,
}

/// Three bounded MPMC lanes behind one lock: transports push, read
/// workers drain short+heavy under the weighted scheduler, the write
/// thread drains the write lane.
pub struct LaneQueues<T> {
    state: Mutex<LanesState<T>>,
    /// Wakes read workers (short or heavy arrivals).
    read_ready: Condvar,
    /// Wakes the write thread (write arrivals).
    write_ready: Condvar,
    /// Capacity of each lane.
    capacity: usize,
}

impl<T> LaneQueues<T> {
    /// Queues holding up to `capacity` items per lane (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LaneQueues {
            state: Mutex::new(LanesState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
                tick: 0,
            }),
            read_ready: Condvar::new(),
            write_ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission capacity of each lane.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued across all lanes.
    pub fn len(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.lanes.iter().map(VecDeque::len).sum()
    }

    /// Whether every lane is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-lane queue depths, indexed by [`Lane::index`] — one lock
    /// acquisition, so the three values are a consistent snapshot (the
    /// property shed `detail` strings rely on).
    pub fn depths(&self) -> [usize; 3] {
        let st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        [st.lanes[0].len(), st.lanes[1].len(), st.lanes[2].len()]
    }

    /// Attempts to admit an item to its lane without blocking.
    pub fn try_push(&self, lane: Lane, item: T) -> Result<(), PushError<T>> {
        let i = lane.index();
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.lanes[i].len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.lanes[i].push_back(item);
        drop(st);
        match lane {
            Lane::Short | Lane::Heavy => self.read_ready.notify_one(),
            Lane::Write => self.write_ready.notify_one(),
        }
        Ok(())
    }

    /// Blocks until a read-lane item is available or the queues are
    /// closed and the read lanes drained; `None` means "no more read
    /// work will ever arrive". When both read lanes hold work the
    /// weighted scheduler takes `SHORT_WEIGHT` short items per heavy
    /// item; when only one lane holds work it is drained directly
    /// (work-conserving — the ratio shapes contention, it never idles
    /// a worker).
    pub fn pop_read(&self) -> Option<(Lane, T)> {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            let short_empty = st.lanes[Lane::Short.index()].is_empty();
            let heavy_empty = st.lanes[Lane::Heavy.index()].is_empty();
            let lane = match (short_empty, heavy_empty) {
                (false, true) => Some(Lane::Short),
                (true, false) => Some(Lane::Heavy),
                (false, false) => {
                    // Of every SHORT_WEIGHT + 1 contended pops,
                    // SHORT_WEIGHT go to the short lane.
                    if st.tick % (SHORT_WEIGHT + 1) < SHORT_WEIGHT {
                        Some(Lane::Short)
                    } else {
                        Some(Lane::Heavy)
                    }
                }
                (true, true) => None,
            };
            if let Some(lane) = lane {
                st.tick += 1;
                let item = st.lanes[lane.index()].pop_front().expect("checked non-empty");
                return Some((lane, item));
            }
            if st.closed {
                return None;
            }
            st = self.read_ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until a write-lane item is available or the queues are
    /// closed and the write lane drained; `None` means "no more write
    /// work will ever arrive".
    pub fn pop_write(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(item) = st.lanes[Lane::Write.index()].pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.write_ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes every lane: subsequent pushes fail with
    /// [`PushError::Closed`]; pops drain the remaining items and then
    /// return `None`. Wakes every blocked consumer.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.read_ready.notify_all();
        self.write_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_exactly_past_capacity() {
        let q = LaneQueues::new(3);
        for v in 1..=3 {
            assert!(q.try_push(Lane::Heavy, v).is_ok());
        }
        match q.try_push(Lane::Heavy, 4) {
            Err(PushError::Full(v)) => assert_eq!(v, 4),
            other => panic!("expected Full, got {other:?}"),
        }
        // Lane capacities are independent: heavy full, short still open.
        assert!(q.try_push(Lane::Short, 99).is_ok());
        assert_eq!(q.depths(), [1, 3, 0]);
        // A pop frees one slot exactly.
        assert_eq!(q.pop_read().map(|(l, v)| (l.name(), v)), Some(("short", 99)));
        assert_eq!(q.pop_read().map(|(l, v)| (l.name(), v)), Some(("heavy", 1)));
        assert!(q.try_push(Lane::Heavy, 5).is_ok());
        assert!(matches!(q.try_push(Lane::Heavy, 6), Err(PushError::Full(_))));
    }

    #[test]
    fn weighted_pop_interleaves_but_never_starves_heavy() {
        // 10 in each read lane, weight 4: the contended drain order must
        // give heavy one pop per 4 short pops, then drain the remainder.
        let q = LaneQueues::new(64);
        for v in 0..10 {
            q.try_push(Lane::Short, v).unwrap();
            q.try_push(Lane::Heavy, 100 + v).unwrap();
        }
        let mut order = Vec::new();
        while let Some((lane, _)) = {
            if q.is_empty() {
                None
            } else {
                q.pop_read()
            }
        } {
            order.push(lane);
        }
        assert_eq!(order.len(), 20);
        // First 12 pops: ticks 0..12 → pattern SSSSH SSSSH SS (heavy at
        // ticks 4 and 9). Short drains at tick 12; the rest is heavy.
        let heavy_in_first_12 = order[..12].iter().filter(|l| **l == Lane::Heavy).count();
        assert_eq!(heavy_in_first_12, 2, "order: {order:?}");
        assert!(order[12..].iter().all(|l| *l == Lane::Heavy), "order: {order:?}");
    }

    #[test]
    fn pop_read_is_work_conserving_when_one_lane_empty() {
        let q = LaneQueues::new(8);
        for v in 0..5 {
            q.try_push(Lane::Heavy, v).unwrap();
        }
        // No short work: every pop must yield heavy without waiting.
        for v in 0..5 {
            assert_eq!(q.pop_read(), Some((Lane::Heavy, v)));
        }
    }

    #[test]
    fn close_drains_all_lanes_then_ends() {
        let q = LaneQueues::new(8);
        q.try_push(Lane::Short, 1).unwrap();
        q.try_push(Lane::Heavy, 2).unwrap();
        q.try_push(Lane::Write, 3).unwrap();
        q.close();
        match q.try_push(Lane::Short, 4) {
            Err(PushError::Closed(v)) => assert_eq!(v, 4),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop_read(), Some((Lane::Short, 1)));
        assert_eq!(q.pop_read(), Some((Lane::Heavy, 2)));
        assert_eq!(q.pop_read(), None);
        assert_eq!(q.pop_write(), Some(3));
        assert_eq!(q.pop_write(), None);
        assert_eq!(q.pop_read(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers_on_both_paths() {
        let q = Arc::new(LaneQueues::<u32>::new(1));
        let qr = Arc::clone(&q);
        let qw = Arc::clone(&q);
        let hr = std::thread::spawn(move || qr.pop_read());
        let hw = std::thread::spawn(move || qw.pop_write());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(hr.join().unwrap(), None);
        assert_eq!(hw.join().unwrap(), None);
    }

    #[test]
    fn mpmc_under_contention_loses_nothing() {
        let q = Arc::new(LaneQueues::new(32));
        let total = 4_000u32;
        let readers: Vec<std::thread::JoinHandle<u64>> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some((_, v)) = q.pop_read() {
                        sum += v as u64;
                    }
                    sum
                })
            })
            .collect();
        let writer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                while let Some(v) = q.pop_write() {
                    sum += v as u64;
                }
                sum
            })
        };
        let mut pushed_sum = 0u64;
        for i in 0..total {
            let lane = match i % 3 {
                0 => Lane::Short,
                1 => Lane::Heavy,
                _ => Lane::Write,
            };
            loop {
                match q.try_push(lane, i) {
                    Ok(()) => {
                        pushed_sum += i as u64;
                        break;
                    }
                    Err(PushError::Full(_)) => std::thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!(),
                }
            }
        }
        q.close();
        let got: u64 =
            readers.into_iter().map(|h| h.join().unwrap()).sum::<u64>() + writer.join().unwrap();
        assert_eq!(got, pushed_sum);
    }
}
