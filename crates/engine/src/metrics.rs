//! Per-query operator metrics — the repo's observability seam.
//!
//! The BI paper's evaluation is a per-query runtime table; a credible
//! reproduction must also report *what the engine actually did* per
//! query: rows scanned, date-index hits, top-k pruning effectiveness,
//! traversal work, and worker balance. Two latent bugs (BI 2's
//! day-delta age bucketing and a stale date index that sent window
//! reads to a full scan) went unnoticed exactly because none of this
//! was visible; [`QueryMetrics`] closes that gap.
//!
//! Design constraints (and how they are met):
//!
//! * **Near-zero overhead when profiling is off** — every counter is a
//!   plain relaxed [`AtomicU64`]; operators record once per *batch*
//!   (one `fetch_add` per parallel-primitive call, index probe, or
//!   traversal), never per row. The only timed instrumentation
//!   (per-worker busy time) is gated behind the context's profiling
//!   flag.
//! * **Determinism where the results are deterministic** — morsel,
//!   row-scan and index-path counters are pure functions of the input
//!   size and morsel size, so they are identical for every thread
//!   count. Top-k offer/prune counters are a pure function of the
//!   static round-robin morsel assignment, so they are bit-identical
//!   run-to-run at a fixed thread count (and thread-count-invariant
//!   wherever a query does not gate work behind `would_accept`).
//!   Worker busy times are wall-clock measurements and are the only
//!   nondeterministic fields.
//!
//! A [`QueryMetrics`] lives inside every
//! [`QueryContext`](crate::QueryContext) (clones share it, matching
//! the one-context-per-stream driver design). The driver resets it
//! per query and snapshots it into a [`QueryProfile`] attached to the
//! query's stats — the record `bi_runtimes` prints in its tables and
//! renders in `--profile` mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::topk::TopK;

/// Shared counter set recording the operator work of the queries run
/// on one execution context since the last [`QueryMetrics::reset`].
///
/// All counters are relaxed atomics: they never order or observe other
/// memory, and per-query totals are read only after the query's last
/// parallel call has joined (the pool's completion handshake is the
/// synchronisation point).
#[derive(Debug, Default)]
pub struct QueryMetrics {
    /// Parallel-primitive invocations (`par_scan` / `par_map_reduce` /
    /// `par_topk`).
    par_calls: AtomicU64,
    /// Morsel-sized work units the scanned inputs divided into
    /// (`ceil(n / morsel_size)` per call — the dispatch granularity,
    /// independent of how many workers actually ran).
    morsels: AtomicU64,
    /// Elements covered by parallel-primitive scans.
    rows_scanned: AtomicU64,
    /// Date-permutation-index probes answered from the index.
    index_hits: AtomicU64,
    /// Rows served from binary-searched index windows.
    index_rows: AtomicU64,
    /// Candidates offered to top-k collectors.
    topk_offered: AtomicU64,
    /// Candidates rejected by the CP-1.3 `would_accept` pruning hook
    /// before any row payload was built.
    topk_pruned: AtomicU64,
    /// CSR edges walked by the traversal primitives (k-hop, shortest
    /// path, trails).
    edges_traversed: AtomicU64,
    /// Per-worker busy nanoseconds (only written when the owning
    /// context has profiling enabled).
    worker_busy_ns: Vec<AtomicU64>,
}

impl QueryMetrics {
    /// A counter set for a context with `workers` workers.
    pub fn new(workers: usize) -> Self {
        QueryMetrics {
            worker_busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            ..QueryMetrics::default()
        }
    }

    /// A process-wide scratch instance for instrumented code paths that
    /// run without an execution context (the naive reference engine,
    /// standalone tests). Recording into it is cheap and nobody reads
    /// it back.
    pub fn sink() -> &'static QueryMetrics {
        static SINK: OnceLock<QueryMetrics> = OnceLock::new();
        SINK.get_or_init(|| QueryMetrics::new(1))
    }

    /// Records one parallel-primitive call over `rows` elements split
    /// into `morsels` work units.
    pub fn note_par_call(&self, morsels: u64, rows: u64) {
        self.par_calls.fetch_add(1, Ordering::Relaxed);
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Records a date-window probe served from the permutation index
    /// (`rows` = window length).
    pub fn note_index_hit(&self, rows: u64) {
        self.index_hits.fetch_add(1, Ordering::Relaxed);
        self.index_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Folds a finished top-k collector's offer/prune counters in.
    /// Queries call this once on their final collector, after partials
    /// have been merged (merging carries partial counters along).
    pub fn note_topk<K: Ord + Clone, T>(&self, tk: &TopK<K, T>) {
        self.topk_offered.fetch_add(tk.offered(), Ordering::Relaxed);
        self.topk_pruned.fetch_add(tk.pruned(), Ordering::Relaxed);
    }

    /// Records `edges` CSR edges walked by a traversal.
    pub fn note_edges(&self, edges: u64) {
        self.edges_traversed.fetch_add(edges, Ordering::Relaxed);
    }

    /// Adds busy time to worker `w` (profiling-gated call sites only).
    pub fn add_worker_busy(&self, w: usize, busy: Duration) {
        if let Some(slot) = self.worker_busy_ns.get(w) {
            slot.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Zeroes every counter (the driver calls this between queries).
    pub fn reset(&self) {
        for c in [
            &self.par_calls,
            &self.morsels,
            &self.rows_scanned,
            &self.index_hits,
            &self.index_rows,
            &self.topk_offered,
            &self.topk_pruned,
            &self.edges_traversed,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        for w in &self.worker_busy_ns {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Copies the current counter values into a plain [`QueryProfile`].
    pub fn snapshot(&self) -> QueryProfile {
        QueryProfile {
            par_calls: self.par_calls.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_rows: self.index_rows.load(Ordering::Relaxed),
            index_fallbacks: 0,
            fallback_rows: 0,
            topk_offered: self.topk_offered.load(Ordering::Relaxed),
            topk_pruned: self.topk_pruned.load(Ordering::Relaxed),
            edges_traversed: self.edges_traversed.load(Ordering::Relaxed),
            worker_busy_ns: self.worker_busy_ns.iter().map(|w| w.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of [`QueryMetrics`] — the per-query operator
/// record the driver attaches to every power/throughput execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Parallel-primitive invocations.
    pub par_calls: u64,
    /// Morsel-sized work units dispatched.
    pub morsels: u64,
    /// Elements covered by parallel scans.
    pub rows_scanned: u64,
    /// Date-index probes answered from the index.
    pub index_hits: u64,
    /// Rows served from index windows.
    pub index_rows: u64,
    /// Always 0: the date index is never stale, so no window read falls
    /// back to a scan. Kept because the response wire format carries it
    /// and the benchmark package reports it.
    pub index_fallbacks: u64,
    /// Always 0, like `index_fallbacks`, and kept for the wire format.
    pub fallback_rows: u64,
    /// Candidates offered to top-k collectors.
    pub topk_offered: u64,
    /// Candidates pruned via `would_accept`.
    pub topk_pruned: u64,
    /// CSR edges walked by traversals.
    pub edges_traversed: u64,
    /// Per-worker busy nanoseconds (all zero unless profiling was on).
    pub worker_busy_ns: Vec<u64>,
}

impl QueryProfile {
    /// Fraction of top-k candidates eliminated by the `would_accept`
    /// pruning hook before any row payload was built (`0.0` when the
    /// query offered nothing).
    pub fn prune_rate(&self) -> f64 {
        let seen = self.topk_offered + self.topk_pruned;
        if seen == 0 {
            0.0
        } else {
            self.topk_pruned as f64 / seen as f64
        }
    }

    /// Worker skew: busiest worker's time over the mean busy time of
    /// the workers that did any work (`1.0` = perfectly balanced; also
    /// `1.0` when no busy time was recorded).
    pub fn worker_skew(&self) -> f64 {
        let busy: Vec<u64> = self.worker_busy_ns.iter().copied().filter(|&b| b > 0).collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().expect("non-empty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Accumulates another profile into this one (counter sums;
    /// per-worker busy times add element-wise). Used to aggregate the
    /// per-stream profiles of a throughput run.
    pub fn merge(&mut self, other: &QueryProfile) {
        self.par_calls += other.par_calls;
        self.morsels += other.morsels;
        self.rows_scanned += other.rows_scanned;
        self.index_hits += other.index_hits;
        self.index_rows += other.index_rows;
        self.index_fallbacks += other.index_fallbacks;
        self.fallback_rows += other.fallback_rows;
        self.topk_offered += other.topk_offered;
        self.topk_pruned += other.topk_pruned;
        self.edges_traversed += other.edges_traversed;
        if self.worker_busy_ns.len() < other.worker_busy_ns.len() {
            self.worker_busy_ns.resize(other.worker_busy_ns.len(), 0);
        }
        for (into, &from) in self.worker_busy_ns.iter_mut().zip(&other.worker_busy_ns) {
            *into += from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = QueryMetrics::new(2);
        m.note_par_call(3, 100);
        m.note_par_call(1, 28);
        m.note_index_hit(100);
        m.note_edges(7);
        m.add_worker_busy(1, Duration::from_nanos(250));
        let p = m.snapshot();
        assert_eq!(p.par_calls, 2);
        assert_eq!(p.morsels, 4);
        assert_eq!(p.rows_scanned, 128);
        assert_eq!(p.index_hits, 1);
        assert_eq!(p.index_rows, 100);
        assert_eq!((p.index_fallbacks, p.fallback_rows), (0, 0));
        assert_eq!(p.edges_traversed, 7);
        assert_eq!(p.worker_busy_ns, vec![0, 250]);
        m.reset();
        assert_eq!(m.snapshot(), QueryProfile { worker_busy_ns: vec![0, 0], ..Default::default() });
    }

    #[test]
    fn prune_rate_and_skew_derivations() {
        let p = QueryProfile {
            topk_offered: 25,
            topk_pruned: 75,
            worker_busy_ns: vec![100, 300, 0, 200],
            ..Default::default()
        };
        assert!((p.prune_rate() - 0.75).abs() < 1e-12);
        assert!((p.worker_skew() - 1.5).abs() < 1e-12); // 300 / mean(100,300,200)
        assert_eq!(QueryProfile::default().prune_rate(), 0.0);
        assert_eq!(QueryProfile::default().worker_skew(), 1.0);
    }

    #[test]
    fn merge_sums_counters_and_busy_times() {
        let mut a = QueryProfile {
            par_calls: 1,
            rows_scanned: 10,
            worker_busy_ns: vec![5],
            ..Default::default()
        };
        let b = QueryProfile {
            par_calls: 2,
            rows_scanned: 30,
            index_fallbacks: 1,
            worker_busy_ns: vec![1, 2],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.par_calls, 3);
        assert_eq!(a.rows_scanned, 40);
        assert_eq!(a.index_fallbacks, 1);
        assert_eq!(a.worker_busy_ns, vec![6, 2]);
    }

    #[test]
    fn sink_is_shared_and_usable() {
        QueryMetrics::sink().note_edges(1);
        assert!(QueryMetrics::sink().snapshot().edges_traversed >= 1);
    }
}
