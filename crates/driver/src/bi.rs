//! The BI-workload driver: power and throughput tests.
//!
//! * **Power test** — every query runs sequentially over its curated
//!   parameter bindings; per-query latency statistics are reported (the
//!   shape of the BI paper's per-query runtime tables).
//! * **Throughput test** — `n` client threads concurrently drain a
//!   shared queue of (query, binding) work items against the read-only
//!   store; reports aggregate queries/second.
//! * **Validation mode** (spec §6.2) — every binding executed through
//!   both engines, failing on the first mismatch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use snb_bi::BiParams;
use snb_core::SnbResult;
use snb_engine::{QueryContext, QueryProfile};
use snb_params::ParamGen;
use snb_store::Store;

/// Timed iterations per binding discarded before measurement starts —
/// they warm caches and the allocator so µs-scale medians are not
/// dominated by first-touch noise.
pub const WARMUP_RUNS: usize = 2;

/// Which engine a run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// CSR + hash aggregation + top-k pruning.
    Optimized,
    /// Full-materialisation reference plans.
    Naive,
}

/// Per-query power-test statistics.
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// BI query number.
    pub query: u8,
    /// Number of bindings executed.
    pub executions: usize,
    /// Mean latency.
    pub mean: Duration,
    /// Minimum latency — the most noise-resistant point statistic for
    /// µs-scale queries.
    pub min: Duration,
    /// Median latency.
    pub p50: Duration,
    /// Maximum latency.
    pub max: Duration,
    /// Coefficient of variation of the latencies (stddev / mean) — the
    /// parameter-curation quality metric of experiment E4.
    pub cv: f64,
    /// Total rows returned.
    pub total_rows: usize,
    /// Operator counters accumulated over the measured executions
    /// (warmup iterations excluded).
    pub profile: QueryProfile,
}

/// Computes the per-query statistics from measured latencies; exposed
/// for the bench binaries that roll their own measurement loops.
pub fn stats_for(query: u8, lats: &[Duration], rows: usize, profile: QueryProfile) -> QueryStats {
    let mut sorted: Vec<Duration> = lats.to_vec();
    sorted.sort_unstable();
    let n = sorted.len().max(1);
    let total: Duration = sorted.iter().sum();
    let mean = total / n as u32;
    let mean_s = mean.as_secs_f64();
    let var = sorted
        .iter()
        .map(|d| {
            let x = d.as_secs_f64() - mean_s;
            x * x
        })
        .sum::<f64>()
        / n as f64;
    QueryStats {
        query,
        executions: sorted.len(),
        mean,
        min: sorted.first().copied().unwrap_or_default(),
        p50: sorted.get(n / 2).copied().unwrap_or_default(),
        max: sorted.last().copied().unwrap_or_default(),
        cv: if mean_s > 0.0 { var.sqrt() / mean_s } else { 0.0 },
        total_rows: rows,
        profile,
    }
}

/// Runs the power test over queries `queries` with `bindings_per_query`
/// curated bindings each, on a context sized from `SNB_THREADS`.
pub fn power_test(
    store: &Store,
    queries: &[u8],
    bindings_per_query: usize,
    engine: Engine,
    seed: u64,
) -> Vec<QueryStats> {
    power_test_ctx(store, &QueryContext::from_env(), queries, bindings_per_query, engine, seed)
}

/// Runs the power test on an explicit execution context: the power
/// stream is sequential, so one context serves every query in it.
pub fn power_test_ctx(
    store: &Store,
    ctx: &QueryContext,
    queries: &[u8],
    bindings_per_query: usize,
    engine: Engine,
    seed: u64,
) -> Vec<QueryStats> {
    let gen = ParamGen::new(store, seed);
    let mut out = Vec::new();
    for &q in queries {
        let bindings = gen.bi_params(q, bindings_per_query);
        // Discarded warmup: first-touch cache and allocator effects
        // land here, not in the measured latencies.
        if let Some(first) = bindings.first() {
            for _ in 0..WARMUP_RUNS {
                let _ = match engine {
                    Engine::Optimized => snb_bi::run_with(store, ctx, first),
                    Engine::Naive => snb_bi::run_naive(store, first),
                };
            }
        }
        // Counters restart after warmup so the profile covers exactly
        // the measured executions.
        ctx.metrics().reset();
        let mut lats = Vec::with_capacity(bindings.len());
        let mut rows = 0usize;
        for b in &bindings {
            let started = Instant::now();
            let summary = match engine {
                Engine::Optimized => snb_bi::run_with(store, ctx, b),
                Engine::Naive => snb_bi::run_naive(store, b),
            };
            lats.push(started.elapsed());
            rows += summary.rows;
        }
        out.push(stats_for(q, &lats, rows, ctx.metrics().snapshot()));
    }
    out
}

/// Runs `bindings` (pre-generated) and returns their latencies — used
/// by experiment E4 to compare curated against random bindings.
pub fn run_bindings(store: &Store, bindings: &[BiParams]) -> Vec<Duration> {
    let ctx = QueryContext::from_env();
    bindings
        .iter()
        .map(|b| {
            let started = Instant::now();
            let _ = snb_bi::run_with(store, &ctx, b);
            started.elapsed()
        })
        .collect()
}

/// Throughput-test report.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total queries executed.
    pub queries_executed: usize,
    /// Wall-clock duration of the drain.
    pub wall: Duration,
    /// Queries per second.
    pub qps: f64,
    /// Sum of per-query queue waits (the whole batch is enqueued at
    /// test start, so an item's wait runs from start to its dequeue).
    pub total_queue_wait: Duration,
    /// Sum of pure per-query execution times (dequeue to completion).
    pub total_exec: Duration,
    /// Mean queue wait per executed query.
    pub mean_queue_wait: Duration,
    /// Mean execution time per executed query.
    pub mean_exec: Duration,
}

/// Runs the throughput test: `threads` workers drain a shared queue of
/// (query, binding) items against the shared read-only store.
pub fn throughput_test(
    store: &Store,
    queries: &[u8],
    bindings_per_query: usize,
    threads: usize,
    seed: u64,
) -> ThroughputReport {
    let gen = ParamGen::new(store, seed);
    let mut work: Vec<BiParams> = Vec::new();
    for &q in queries {
        work.extend(gen.bi_params(q, bindings_per_query));
    }
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let executed = AtomicUsize::new(0);
    let queue_wait_ns = AtomicU64::new(0);
    let exec_ns = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                // One context per stream: the streams already saturate
                // the cores, so each query runs single-threaded inside
                // its stream (no oversubscription).
                let ctx = QueryContext::single_threaded();
                let mut wait = 0u64;
                let mut exec = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= work.len() {
                        break;
                    }
                    let dequeued = Instant::now();
                    wait += dequeued.duration_since(started).as_nanos() as u64;
                    let _ = snb_bi::run_with(store, &ctx, &work[i]);
                    exec += dequeued.elapsed().as_nanos() as u64;
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                queue_wait_ns.fetch_add(wait, Ordering::Relaxed);
                exec_ns.fetch_add(exec, Ordering::Relaxed);
            });
        }
    });
    let wall = started.elapsed();
    let queries_executed = executed.load(Ordering::Relaxed);
    let total_queue_wait = Duration::from_nanos(queue_wait_ns.load(Ordering::Relaxed));
    let total_exec = Duration::from_nanos(exec_ns.load(Ordering::Relaxed));
    let per_query = |d: Duration| d / queries_executed.max(1) as u32;
    ThroughputReport {
        threads,
        queries_executed,
        wall,
        qps: queries_executed as f64 / wall.as_secs_f64().max(1e-9),
        mean_queue_wait: per_query(total_queue_wait),
        mean_exec: per_query(total_exec),
        total_queue_wait,
        total_exec,
    }
}

/// Validation mode: run every binding through both engines (spec §6.2's
/// "driver in validation mode"); errors on the first mismatch.
pub fn validate_all(
    store: &Store,
    queries: &[u8],
    bindings_per_query: usize,
    seed: u64,
) -> SnbResult<usize> {
    let gen = ParamGen::new(store, seed);
    let ctx = QueryContext::from_env();
    let mut validated = 0;
    for &q in queries {
        for b in gen.bi_params(q, bindings_per_query) {
            snb_bi::validate_with(store, &ctx, &b)?;
            validated += 1;
        }
    }
    Ok(validated)
}

/// All 25 BI query numbers.
pub const ALL_BI_QUERIES: [u8; 25] =
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25];

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::GeneratorConfig;
    use snb_store::store_for_config;
    use std::sync::OnceLock;

    fn store() -> &'static Store {
        static S: OnceLock<Store> = OnceLock::new();
        S.get_or_init(|| {
            let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
            c.persons = 120;
            store_for_config(&c)
        })
    }

    #[test]
    fn power_test_covers_requested_queries() {
        let stats = power_test(store(), &[1, 12, 17], 3, Engine::Optimized, 7);
        assert_eq!(stats.len(), 3);
        for s in &stats {
            assert!(s.executions > 0);
            assert!(s.max >= s.p50);
        }
    }

    #[test]
    fn validation_passes_on_all_queries() {
        let validated = validate_all(store(), &ALL_BI_QUERIES, 2, 7).unwrap();
        assert!(validated >= 25, "validated only {validated}");
    }

    #[test]
    fn throughput_scales_worker_count() {
        let r1 = throughput_test(store(), &[1, 3, 12], 4, 1, 7);
        let r4 = throughput_test(store(), &[1, 3, 12], 4, 4, 7);
        assert_eq!(r1.queries_executed, r4.queries_executed);
        assert!(r1.qps > 0.0 && r4.qps > 0.0);
    }

    #[test]
    fn throughput_splits_queue_wait_from_exec() {
        let r = throughput_test(store(), &[1, 3, 12], 4, 2, 7);
        assert!(r.queries_executed > 0);
        // Execution happened, and the decomposition is internally
        // consistent: totals are the per-query means times the count,
        // and a single stream's busy time never exceeds the wall clock
        // times the stream count.
        assert!(r.total_exec > Duration::ZERO);
        assert_eq!(r.mean_exec, r.total_exec / r.queries_executed as u32);
        assert_eq!(r.mean_queue_wait, r.total_queue_wait / r.queries_executed as u32);
        assert!(r.total_exec <= r.wall * r.threads as u32);
    }

    #[test]
    fn stats_math() {
        let lats =
            [Duration::from_micros(100), Duration::from_micros(200), Duration::from_micros(300)];
        let s = stats_for(9, &lats, 5, QueryProfile::default());
        assert_eq!(s.mean, Duration::from_micros(200));
        assert_eq!(s.min, Duration::from_micros(100));
        assert_eq!(s.p50, Duration::from_micros(200));
        assert_eq!(s.max, Duration::from_micros(300));
        assert!(s.cv > 0.0);
        assert_eq!(s.total_rows, 5);
        assert_eq!(s.profile, QueryProfile::default());
    }

    #[test]
    fn power_run_records_date_index_hits() {
        // The window-driven queries read the date index, and the
        // profile the driver attaches to each query says so.
        let ctx = QueryContext::new(1);
        let stats = power_test_ctx(store(), &ctx, &ALL_BI_QUERIES, 2, Engine::Optimized, 7);
        assert_eq!(stats.len(), 25);
        let hits: u64 = stats.iter().map(|s| s.profile.index_hits).sum();
        assert!(hits > 0, "no query recorded a date-index hit");
    }

    #[test]
    fn profiles_record_operator_work() {
        let ctx = QueryContext::new(1);
        let stats = power_test_ctx(store(), &ctx, &[2, 4, 13], 2, Engine::Optimized, 7);
        for s in &stats {
            assert!(s.profile.par_calls > 0, "BI {} recorded no parallel calls", s.query);
            assert!(s.profile.rows_scanned > 0, "BI {} scanned no rows", s.query);
            assert!(s.profile.topk_offered > 0, "BI {} offered nothing to top-k", s.query);
        }
    }

    #[test]
    fn neighborhood_queries_record_edge_work() {
        // BI 15 and 17 are pure `knows`-neighbourhood scans; their
        // profiles must carry the traversed-edge counts (the two
        // queries the per-query instrumentation initially skipped).
        let ctx = QueryContext::new(1);
        let stats = power_test_ctx(store(), &ctx, &[15, 17], 2, Engine::Optimized, 7);
        for s in &stats {
            assert!(
                s.profile.edges_traversed > 0,
                "BI {} traversed no edges: {:?}",
                s.query,
                s.profile
            );
        }
    }

    #[test]
    fn thread_matrix_matches_naive_oracle() {
        // The determinism contract: every thread count in {1,2,4}
        // agrees byte-for-byte (rows + fingerprint) with the naive
        // single-threaded oracle.
        let s = store();
        let gen = ParamGen::new(s, 7);
        let bindings: Vec<BiParams> =
            ALL_BI_QUERIES.iter().flat_map(|&q| gen.bi_params(q, 2)).collect();
        let oracle: Vec<_> = bindings.iter().map(|b| snb_bi::run_naive(s, b)).collect();
        let ic_bindings: Vec<snb_interactive::IcParams> =
            (1..=14u8).flat_map(|q| gen.ic_params(q, 2)).collect();
        let ic_oracle: Vec<usize> = ic_bindings
            .iter()
            .map(|b| snb_interactive::validate_complex(s, b).expect("IC engines agree"))
            .collect();
        for threads in [1usize, 2, 4] {
            let ctx = QueryContext::new(threads);
            for (b, want) in bindings.iter().zip(&oracle) {
                let got = snb_bi::run_with(s, &ctx, b);
                assert_eq!(
                    (got.rows, got.fingerprint),
                    (want.rows, want.fingerprint),
                    "{b:?} diverged at threads={threads}"
                );
            }
            for (b, &want) in ic_bindings.iter().zip(&ic_oracle) {
                let got = snb_interactive::run_complex_with(s, &ctx, b);
                assert_eq!(got, want, "IC {} diverged at threads={threads}", b.query());
            }
        }
    }

    #[test]
    fn profile_counters_deterministic_across_repeats() {
        // Morsel/row/index counters are pure functions of the data and
        // morsel size; two identical power runs must agree exactly.
        let ctx = QueryContext::new(1);
        let a = power_test_ctx(store(), &ctx, &[1, 2, 15, 16, 17], 2, Engine::Optimized, 7);
        let b = power_test_ctx(store(), &ctx, &[1, 2, 15, 16, 17], 2, Engine::Optimized, 7);
        for (x, y) in a.iter().zip(&b) {
            let mut xp = x.profile.clone();
            let mut yp = y.profile.clone();
            // Busy times are wall-clock, not logical; compare the rest.
            xp.worker_busy_ns = Vec::new();
            yp.worker_busy_ns = Vec::new();
            assert_eq!(xp, yp, "BI {} profile diverged between runs", x.query);
        }
    }
}
