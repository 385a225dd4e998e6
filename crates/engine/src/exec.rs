//! Morsel-driven intra-query parallelism (choke points CP-1.x/CP-3.x).
//!
//! The BI workload is scan- and aggregation-bound; the scalable way to
//! run it is to split every large scan into fixed-size **morsels** and
//! fan them out over a worker set, as the SNB papers assume any serious
//! SUT does. [`QueryContext`] is the execution seam: one per query
//! stream, carrying the worker-count knob (`SNB_THREADS` or driver
//! config) and the morsel size. Workers are a **persistent pool** of
//! `std::thread` threads owned by the context (no external runtime):
//! they park on a condvar between queries, so a parallel call costs a
//! wake-up rather than a thread spawn — essential at BI's microsecond
//! query latencies. Every primitive is built so the result is
//! **bit-identical for any thread count**:
//!
//! * [`QueryContext::par_scan`] — order-preserving chunked collection:
//!   each morsel's output is stitched back in morsel order, so the
//!   output equals the sequential scan exactly;
//! * [`QueryContext::par_map_reduce`] — per-worker accumulators (the
//!   reusable scratch arena: one `FxHashMap` or counter set per worker,
//!   alive across all of that worker's morsels) merged on the calling
//!   thread in ascending worker order. Deterministic whenever the merge
//!   is associative and commutative in exact arithmetic (integer sums,
//!   max/min, set union) — which is what every BI aggregation uses;
//!   floating-point finalisation happens after the merge;
//! * [`QueryContext::par_topk`] — per-worker bounded [`TopK`] heaps
//!   merged in worker order. Deterministic whenever the sort key is
//!   total (the spec's composite keys all end in a unique id or name
//!   tie-breaker).
//!
//! Morsels are **contiguous**: `0..n` is cut into morsels
//! ([`chunk_ranges`]), and worker `w` takes the contiguous morsel run
//! `[w·M/T, (w+1)·M/T)`, so a worker touches one dense locality region
//! instead of striding the whole column. The assignment — and
//! therefore each worker's partial — is a pure function of `(n,
//! threads, morsel)`, never of thread timing, and each worker's
//! elements form one ascending contiguous range, so `par_scan`'s
//! stitch is plain concatenation in worker order.

use crate::metrics::QueryMetrics;
use crate::topk::TopK;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Default morsel size: big enough to amortise dispatch, small enough
/// to balance skew (64k messages split into ~16 morsels per worker at
/// SF 0.01 already).
pub const DEFAULT_MORSEL: usize = 4096;

/// Environment variable overriding the worker count (`0` = all cores).
pub const THREADS_ENV: &str = "SNB_THREADS";

/// Per-stream execution context: worker count + morsel size + the
/// persistent worker pool.
///
/// Construction spawns `threads - 1` pool workers (the calling thread
/// is always worker 0); the driver builds one per query stream and
/// reuses it for every query of that stream, so the pool is paid for
/// once per stream, not per query. Clones share the pool.
#[derive(Clone)]
pub struct QueryContext {
    threads: usize,
    morsel: usize,
    profiling: bool,
    pool: Option<Arc<Pool>>,
    metrics: Arc<QueryMetrics>,
    /// The published store version this context is bound to, if any —
    /// set per request by the service tier so the whole query runs
    /// against one immutable snapshot (see `snb_store::snapshot`).
    snapshot: Option<snb_store::StoreSnapshot>,
}

impl std::fmt::Debug for QueryContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryContext")
            .field("threads", &self.threads)
            .field("morsel", &self.morsel)
            .field("profiling", &self.profiling)
            .finish()
    }
}

impl QueryContext {
    /// Context with an explicit worker count (`0` = all cores).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { available_cores() } else { threads };
        let pool = (threads > 1).then(|| Arc::new(Pool::start(threads - 1)));
        QueryContext {
            threads,
            morsel: DEFAULT_MORSEL,
            profiling: false,
            pool,
            metrics: Arc::new(QueryMetrics::new(threads)),
            snapshot: None,
        }
    }

    /// Context that always runs inline on the calling thread.
    pub fn single_threaded() -> Self {
        QueryContext {
            threads: 1,
            morsel: DEFAULT_MORSEL,
            profiling: false,
            pool: None,
            metrics: Arc::new(QueryMetrics::new(1)),
            snapshot: None,
        }
    }

    /// Context configured from `SNB_THREADS` (unset/`0` = all cores).
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        QueryContext::new(threads)
    }

    /// The process-wide default context (first `from_env` wins), used by
    /// query entry points not handed an explicit context.
    pub fn global() -> &'static QueryContext {
        static GLOBAL: OnceLock<QueryContext> = OnceLock::new();
        GLOBAL.get_or_init(QueryContext::from_env)
    }

    /// Overrides the morsel size (mainly for tests and benchmarks).
    pub fn with_morsel(mut self, morsel: usize) -> Self {
        self.morsel = morsel.max(1);
        self
    }

    /// Enables profiling: per-worker busy times are measured around
    /// every dispatched worker share. The always-on operator counters
    /// are unaffected — this gates only the timed instrumentation, so
    /// benchmark runs with profiling off pay no `Instant` reads.
    pub fn with_profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }

    /// Whether profiling (timed instrumentation) is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Binds this context to one published store version: queries run
    /// through the bound context (`snb_bi::run_bound` and friends) read
    /// that immutable snapshot, never a live store reference. Binding
    /// is per clone — the pool and metrics stay shared.
    pub fn with_snapshot(mut self, snapshot: snb_store::StoreSnapshot) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// The bound store snapshot, if any.
    pub fn snapshot(&self) -> Option<&snb_store::StoreSnapshot> {
        self.snapshot.as_ref()
    }

    /// The bound snapshot's published version counter, if bound —
    /// stamped into access-log records by the service tier.
    pub fn store_version(&self) -> Option<u64> {
        self.snapshot.as_ref().map(|s| s.version())
    }

    /// The operator-metrics counter set shared by every clone of this
    /// context (one per driver stream).
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }

    /// Worker count this context fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Morsel size in elements.
    pub fn morsel(&self) -> usize {
        self.morsel
    }

    /// The morsel ranges a scan over `n` elements is split into,
    /// ascending and contiguous: [`chunk_ranges`]`(n, morsel)`.
    pub fn morsels(&self, n: usize) -> impl Iterator<Item = Range<usize>> {
        chunk_ranges(n, self.morsel)
    }

    /// Number of workers actually used for a plan of `m` morsels
    /// (never more than one worker per morsel).
    fn workers_for(&self, m: usize) -> usize {
        self.threads.min(m).max(1)
    }

    /// Morsel-parallel fold + deterministic merge.
    ///
    /// Each worker folds its contiguous run of morsels into its own
    /// accumulator (created by `identity`, reused across the worker's
    /// morsels — the per-worker scratch arena); the calling thread then
    /// merges the partials in ascending worker order. The result is
    /// identical for every thread count iff `merge` is associative and
    /// commutative in exact arithmetic — keep floats out of the
    /// accumulator and finalise after the call.
    pub fn par_map_reduce<A, I, F, M>(&self, n: usize, identity: I, fold: F, merge: M) -> A
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, Range<usize>) + Sync,
        M: Fn(&mut A, A),
    {
        let plan: Vec<_> = self.morsels(n).collect();
        let workers = self.workers_for(plan.len());
        self.metrics.note_par_call(plan.len() as u64, n as u64);
        if workers == 1 {
            let mut acc = identity();
            if n > 0 {
                let started = self.profiling.then(Instant::now);
                fold(&mut acc, 0..n);
                if let Some(t0) = started {
                    self.metrics.add_worker_busy(0, t0.elapsed());
                }
            }
            return acc;
        }
        let partials = self.run_partials(&plan, workers, &identity, &fold);
        let mut partials = partials.into_iter();
        let mut acc = partials.next().expect("at least one worker");
        for p in partials {
            merge(&mut acc, p);
        }
        acc
    }

    /// Order-preserving parallel scan: `emit` pushes the rows a morsel
    /// produces; each worker's morsel run is contiguous and ascending,
    /// so its output Vec is already in scan order and the stitch is
    /// plain concatenation in worker order. The result equals the
    /// sequential scan **exactly**, for any thread count — no
    /// merge-semantics caveat.
    pub fn par_scan<T, F>(&self, n: usize, emit: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Vec<T>, Range<usize>) + Sync,
    {
        let plan: Vec<_> = self.morsels(n).collect();
        let workers = self.workers_for(plan.len());
        self.metrics.note_par_call(plan.len() as u64, n as u64);
        if workers == 1 {
            let mut out = Vec::new();
            if n > 0 {
                let started = self.profiling.then(Instant::now);
                emit(&mut out, 0..n);
                if let Some(t0) = started {
                    self.metrics.add_worker_busy(0, t0.elapsed());
                }
            }
            return out;
        }
        let per_worker = self.run_partials(&plan, workers, &Vec::<T>::new, &emit);
        let mut out = Vec::with_capacity(per_worker.iter().map(Vec::len).sum());
        for part in per_worker {
            out.extend(part);
        }
        out
    }

    /// Morsel-parallel top-k: each worker fills a bounded heap over its
    /// morsels; partial heaps merge in worker order. Deterministic for
    /// any thread count iff the key is total (ends in a unique
    /// tie-breaker), which the spec's composite sort keys guarantee.
    pub fn par_topk<K, T, F>(&self, n: usize, k: usize, fill: F) -> TopK<K, T>
    where
        K: Ord + Clone + Send,
        T: Send,
        F: Fn(&mut TopK<K, T>, Range<usize>) + Sync,
    {
        self.par_map_reduce(
            n,
            || TopK::new(k),
            |tk, range| fill(tk, range),
            |acc, partial| acc.merge_from(partial),
        )
    }

    /// Fans the morsel plan out over the pool in contiguous per-worker
    /// runs — worker `w` folds morsels `[w·M/T, (w+1)·M/T)`, one dense
    /// locality region per worker (the calling thread takes worker 0's
    /// run); returns the private accumulators in worker order.
    fn run_partials<A, I, F>(
        &self,
        plan: &[Range<usize>],
        workers: usize,
        identity: &I,
        fold: &F,
    ) -> Vec<A>
    where
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, Range<usize>) + Sync,
    {
        let m = plan.len();
        let profiling = self.profiling;
        let metrics = &self.metrics;
        let partials: Vec<Mutex<Option<A>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        let task = |w: usize| {
            let started = profiling.then(Instant::now);
            let mut acc = identity();
            for morsel in &plan[w * m / workers..(w + 1) * m / workers] {
                fold(&mut acc, morsel.clone());
            }
            *partials[w].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(acc);
            if let Some(t0) = started {
                metrics.add_worker_busy(w, t0.elapsed());
            }
        };
        match &self.pool {
            Some(pool) if workers > 1 => pool.dispatch(workers, &task),
            _ => task(0),
        }
        partials
            .into_iter()
            .map(|p| {
                p.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("worker completed")
            })
            .collect()
    }
}

/// A raw fat pointer to a borrowed job closure, made `Send` so pool
/// workers can pick it up. Safety rests on [`Pool::dispatch`]: it does
/// not return (or unwind) until every participating worker has finished
/// calling the closure, so the borrow outlives all uses.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so calling it from another thread is
// sound, and `Pool::dispatch` keeps it alive until every worker that
// received the pointer has finished with it.
unsafe impl Send for TaskPtr {}

struct Job {
    task: TaskPtr,
    /// Workers participating in this job; pool worker `w` runs the task
    /// iff `w < participants` (worker 0 is the dispatching thread).
    participants: usize,
}

struct PoolState {
    job: Option<Job>,
    /// Panic payload carried from a worker back to the dispatcher.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    /// Bumped once per dispatch (inside the `state` lock, so parked
    /// workers cannot miss it); workers detect new jobs by comparing
    /// against the last epoch they observed.
    epoch: AtomicU64,
    /// Pool workers still running the current job.
    remaining: AtomicUsize,
    shutdown: AtomicBool,
    state: Mutex<PoolState>,
    /// Workers park here between jobs (after the spin phase).
    work_cv: Condvar,
    /// The dispatcher parks here until `remaining` hits zero.
    done_cv: Condvar,
}

/// Iterations of the spin phase before parking on the condvar. Back-to-
/// back queries in a stream hand jobs to still-spinning workers in
/// nanoseconds instead of paying a futex wake per parallel call; the
/// periodic `yield_now` keeps the spin harmless when workers outnumber
/// free cores.
const SPIN_ROUNDS: u32 = 1 << 16;

/// One spin iteration: mostly `spin_loop` hints, with a scheduler yield
/// every 64th round so a spinner never starves the thread doing work.
fn spin_once(i: u32) {
    if i.is_multiple_of(64) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Persistent worker pool: `size` parked threads with fixed worker
/// indices `1..=size`. One job runs at a time (`dispatch` serialises
/// callers), matching the one-context-per-stream driver design.
struct Pool {
    shared: Arc<PoolShared>,
    /// Serialises dispatches so a context shared across threads (e.g.
    /// the global one) stays safe: the single-job state never sees two
    /// concurrent jobs.
    dispatch_lock: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn start(size: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            state: Mutex::new(PoolState { job: None, panic: None }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..=size)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Pool::worker_loop(&shared, me))
            })
            .collect();
        Pool { shared, dispatch_lock: Mutex::new(()), handles }
    }

    fn worker_loop(shared: &PoolShared, me: usize) {
        let mut last_seen = 0u64;
        loop {
            // Spin phase: catch the next job without a futex round-trip.
            let mut spins = 0u32;
            while shared.epoch.load(Ordering::Acquire) == last_seen
                && !shared.shutdown.load(Ordering::Relaxed)
                && spins < SPIN_ROUNDS
            {
                spin_once(spins);
                spins += 1;
            }
            // Park phase. The epoch is only bumped inside the `state`
            // lock, so re-checking it under the lock cannot miss a wake.
            if shared.epoch.load(Ordering::Acquire) == last_seen {
                let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                while shared.epoch.load(Ordering::Acquire) == last_seen
                    && !shared.shutdown.load(Ordering::Relaxed)
                {
                    st = shared.work_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let (ptr, participants) = {
                let st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                last_seen = shared.epoch.load(Ordering::Acquire);
                // A job can only be absent here if it completed without
                // this worker (it was not a participant); just move on.
                match st.job.as_ref() {
                    Some(job) => (job.task, job.participants),
                    None => continue,
                }
            };
            if me >= participants {
                continue;
            }
            // SAFETY: `dispatch` holds the borrow alive until
            // `remaining` reaches zero, which happens strictly after
            // this call returns.
            let task = unsafe { &*ptr.0 };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(me)));
            if let Err(payload) = result {
                shared
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .panic
                    .get_or_insert(payload);
            }
            if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Empty critical section pairs with the dispatcher's
                // park: it either sees zero before sleeping or is
                // already inside `wait` when this notify fires.
                drop(shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
                shared.done_cv.notify_all();
            }
        }
    }

    /// Runs `task(0)` on the calling thread and `task(1..participants)`
    /// on pool workers; returns only after every participant finished.
    fn dispatch(&self, participants: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!(participants >= 2 && participants <= self.handles.len() + 1);
        let _serial = self.dispatch_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // SAFETY: the transmute erases only the lifetime; the wait
            // below keeps the referent alive past every use.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    task,
                )
            };
            st.job = Some(Job { task: TaskPtr(erased as *const _), participants });
            self.shared.remaining.store(participants - 1, Ordering::Release);
            self.shared.epoch.fetch_add(1, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        // The dispatcher is worker 0. Catch a panic so we still wait for
        // the pool workers before unwinding — they borrow `task`.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(0)));
        // Spin for stragglers first (they typically finish within the
        // dispatcher's own share), then park on the condvar.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) > 0 && spins < SPIN_ROUNDS {
            spin_once(spins);
            spins += 1;
        }
        if self.shared.remaining.load(Ordering::Acquire) > 0 {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            while self.shared.remaining.load(Ordering::Acquire) > 0 {
                st =
                    self.shared.done_cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        let mut st = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Lock-paired notify so a worker between its epoch check and
            // its `wait` cannot miss the shutdown signal.
            drop(self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Default for QueryContext {
    fn default() -> Self {
        QueryContext::from_env()
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Splits `0..n` into chunks of at most `size` elements.
pub fn chunk_ranges(n: usize, size: usize) -> impl Iterator<Item = Range<usize>> {
    let size = size.max(1);
    (0..n.div_ceil(size)).map(move |c| c * size..((c + 1) * size).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: usize) -> QueryContext {
        QueryContext::new(threads).with_morsel(7)
    }

    #[test]
    fn par_scan_equals_sequential_for_any_thread_count() {
        let n = 1000usize;
        let seq: Vec<usize> = (0..n).filter(|x| x % 3 == 0).collect();
        for threads in [1, 2, 3, 4, 8] {
            let got = ctx(threads).par_scan(n, |out, range| {
                out.extend(range.filter(|x| x % 3 == 0));
            });
            assert_eq!(got, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_reduce_equals_sequential_fold() {
        let n = 12_345usize;
        let expect: u64 = (0..n as u64).map(|x| x * x % 97).sum();
        for threads in [1, 2, 4, 5] {
            let got = ctx(threads).par_map_reduce(
                n,
                || 0u64,
                |acc, range| *acc += range.map(|x| (x as u64) * (x as u64) % 97).sum::<u64>(),
                |acc, p| *acc += p,
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_topk_matches_sequential_topk() {
        let keys: Vec<(u64, usize)> = (0..500usize).map(|i| ((i as u64 * 7919) % 101, i)).collect();
        let mut seq = TopK::new(10);
        for &(k, i) in &keys {
            seq.push((k, i), i);
        }
        let expect = seq.into_sorted();
        for threads in [1, 2, 4] {
            let got = ctx(threads)
                .par_topk(keys.len(), 10, |tk, range| {
                    for i in range {
                        let (k, v) = keys[i];
                        tk.push((k, v), v);
                    }
                })
                .into_sorted();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_identity() {
        let c = ctx(4);
        assert_eq!(c.par_scan(0, |out: &mut Vec<u32>, _| out.push(1)), Vec::<u32>::new());
        assert_eq!(c.par_map_reduce(0, || 7u64, |_, _| unreachable!(), |_, _| ()), 7);
    }

    #[test]
    fn thread_knob_and_morsels() {
        assert_eq!(QueryContext::new(3).threads(), 3);
        assert!(QueryContext::new(0).threads() >= 1);
        assert_eq!(QueryContext::single_threaded().threads(), 1);
        let c = QueryContext::new(2).with_morsel(10);
        let ms: Vec<_> = c.morsels(25).collect();
        assert_eq!(ms, vec![0..10, 10..20, 20..25]);
        assert_eq!(chunk_ranges(0, 5).count(), 0);
    }

    #[test]
    fn thread_matrix_is_deterministic() {
        // Every thread count in {1,2,4} must yield results identical to
        // sequential.
        let n = 1003usize;
        let seq_scan: Vec<usize> = (0..n).filter(|x| x % 5 == 0).collect();
        let seq_sum: u64 = (0..n as u64).map(|x| x * x % 251).sum();
        for threads in [1, 2, 4] {
            let c = ctx(threads);
            let scanned = c.par_scan(n, |out, range| {
                out.extend(range.filter(|x| x % 5 == 0));
            });
            assert_eq!(scanned, seq_scan, "scan threads={threads}");
            let summed = c.par_map_reduce(
                n,
                || 0u64,
                |acc, range| *acc += range.map(|x| (x as u64) * (x as u64) % 251).sum::<u64>(),
                |acc, p| *acc += p,
            );
            assert_eq!(summed, seq_sum, "sum threads={threads}");
        }
    }

    #[test]
    fn pool_is_reused_across_many_calls() {
        // Thousands of dispatches through one context: exercises the
        // spin → park → re-wake cycle without respawning threads.
        let c = QueryContext::new(4).with_morsel(16);
        for round in 0..2_000usize {
            let n = 64 + round % 128;
            let got = c.par_map_reduce(
                n,
                || 0usize,
                |acc, range| *acc += range.len(),
                |acc, p| *acc += p,
            );
            assert_eq!(got, n);
        }
    }

    #[test]
    fn shared_context_serialises_concurrent_dispatches() {
        // Several threads hammer one shared context (the `global()`
        // usage pattern); the dispatch lock must keep results exact.
        let c = std::sync::Arc::new(QueryContext::new(3).with_morsel(8));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let n = 100 + t;
                        let got = c.par_map_reduce(
                            n,
                            || 0usize,
                            |acc, range| *acc += range.len(),
                            |acc, p| *acc += p,
                        );
                        assert_eq!(got, n);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher() {
        let c = QueryContext::new(4).with_morsel(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.par_map_reduce(
                64,
                || 0usize,
                |_, range| {
                    if range.start == 63 {
                        panic!("boom in morsel");
                    }
                },
                |_, _| (),
            )
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool must still be usable afterwards.
        let ok = c.par_map_reduce(64, || 0usize, |acc, r| *acc += r.len(), |acc, p| *acc += p);
        assert_eq!(ok, 64);
    }

    #[test]
    fn workers_never_exceed_morsel_count() {
        // 1 morsel → 1 worker even with 8 threads: no empty partials.
        let c = QueryContext::new(8).with_morsel(1000);
        let got = c.par_map_reduce(5, || 1u32, |acc, r| *acc += r.len() as u32, |acc, p| *acc += p);
        assert_eq!(got, 6); // identity(1) + 5, merged once
    }
}
