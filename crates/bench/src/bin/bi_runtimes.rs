//! Experiment E5 — per-query BI runtimes (the shape of the BI paper's
//! per-query runtime tables): min / mean / median / max latency and row
//! volume for all 25 BI queries over curated parameter bindings, swept
//! over the intra-query thread count, plus the inter-query throughput
//! sweep.
//!
//! Pass `--profile` for the EXPLAIN-ANALYZE-shaped per-query operator
//! breakdown (morsels, index hits vs. fallbacks, top-k prune rate, CSR
//! edges, worker skew); profiling also enables per-worker busy timing.

use snb_driver::{power_test_ctx, Engine, QueryStats, ALL_BI_QUERIES};
use snb_engine::QueryContext;

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
const BINDINGS_PER_QUERY: usize = 8;

fn main() {
    let profile_mode = snb_bench::cli_flag("--profile");
    let config = snb_bench::cli_config();
    let store = snb_bench::build_store_verbose(&config);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("# {cores} hardware core(s) available to this process");
    if cores < *THREAD_SWEEP.last().unwrap() {
        println!(
            "# WARNING: fewer cores than the widest sweep point — speedups \
             are bounded by the hardware, not the engine"
        );
    }

    // Intra-query thread sweep: one context per thread count, all 25
    // queries through it. Results are bit-identical across the sweep
    // (the determinism contract); only the latencies move.
    let mut sweep: Vec<(usize, Vec<QueryStats>)> = Vec::new();
    for threads in THREAD_SWEEP {
        let ctx = QueryContext::new(threads).with_profiling(profile_mode);
        let stats = power_test_ctx(
            &store,
            &ctx,
            &ALL_BI_QUERIES,
            BINDINGS_PER_QUERY,
            Engine::Optimized,
            config.seed,
        );
        sweep.push((threads, stats));
    }

    let base = &sweep[0].1;
    let peak = &sweep.last().unwrap().1;
    let rows: Vec<Vec<String>> = base
        .iter()
        .zip(peak)
        .map(|(s1, sn)| {
            let speedup = s1.mean.as_secs_f64() / sn.mean.as_secs_f64().max(1e-9);
            vec![
                format!("BI {}", s1.query),
                s1.executions.to_string(),
                snb_bench::fmt_duration(s1.min),
                snb_bench::fmt_duration(s1.mean),
                snb_bench::fmt_duration(sn.mean),
                format!("{speedup:.2}x"),
                format!("{:.2}", s1.cv),
                s1.total_rows.to_string(),
            ]
        })
        .collect();
    let peak_threads = THREAD_SWEEP[THREAD_SWEEP.len() - 1];
    snb_bench::print_table(
        &format!(
            "E5: BI power test (optimized engine, {} persons, {peak_threads}-thread sweep)",
            config.persons
        ),
        &[
            "query",
            "runs",
            "min@1t",
            "mean@1t",
            &format!("mean@{peak_threads}t"),
            "speedup",
            "cv",
            "rows",
        ],
        &rows,
    );

    if profile_mode {
        print_profile_breakdown(base, peak, peak_threads);
    }

    let total_1: std::time::Duration = base.iter().map(|s| s.mean * s.executions as u32).sum();
    let total_n: std::time::Duration = peak.iter().map(|s| s.mean * s.executions as u32).sum();
    println!(
        "\ntotal power-test work: {} @1t, {} @{peak_threads}t ({:.2}x aggregate)",
        snb_bench::fmt_duration(total_1),
        snb_bench::fmt_duration(total_n),
        total_1.as_secs_f64() / total_n.as_secs_f64().max(1e-9),
    );

    // Inter-query throughput sweep (streams, one single-threaded
    // context each).
    let t_rows: Vec<Vec<String>> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let r = snb_driver::throughput_test(&store, &ALL_BI_QUERIES, 4, threads, config.seed);
            vec![
                threads.to_string(),
                r.queries_executed.to_string(),
                snb_bench::fmt_duration(r.wall),
                format!("{:.1}", r.qps),
                snb_bench::fmt_duration(r.mean_queue_wait),
                snb_bench::fmt_duration(r.mean_exec),
            ]
        })
        .collect();
    snb_bench::print_table(
        "E5: BI throughput test (stream sweep)",
        &["threads", "queries", "wall", "qps", "mean wait", "mean exec"],
        &t_rows,
    );
}

/// The `--profile` operator breakdown — one row per query, counters
/// accumulated over the measured executions of the 1-thread run plus
/// the worker skew observed at the widest sweep point.
fn print_profile_breakdown(base: &[QueryStats], peak: &[QueryStats], peak_threads: usize) {
    let rows: Vec<Vec<String>> = base
        .iter()
        .zip(peak)
        .map(|(s1, sn)| {
            let p = &s1.profile;
            vec![
                format!("BI {}", s1.query),
                p.par_calls.to_string(),
                p.morsels.to_string(),
                p.rows_scanned.to_string(),
                p.index_hits.to_string(),
                p.index_rows.to_string(),
                p.topk_offered.to_string(),
                format!("{:.1}%", p.prune_rate() * 100.0),
                p.edges_traversed.to_string(),
                format!("{:.2}", sn.profile.worker_skew()),
            ]
        })
        .collect();
    snb_bench::print_table(
        &format!("E5: operator breakdown (counters @1t, skew @{peak_threads}t)"),
        &[
            "query",
            "par calls",
            "morsels",
            "rows scanned",
            "idx hits",
            "idx rows",
            "topk offers",
            "pruned",
            "edges",
            "skew",
        ],
        &rows,
    );
}
