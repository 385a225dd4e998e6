//! `--wal-bench`: write-batch ack latency through the durable write
//! path, with and without fsync batching.
//!
//! Three in-process durable servers are stood up over fresh WAL
//! directories: one with `fsync_every = 1` (every ack waits for the
//! disk), one with `fsync_every = 64` (the flush is amortised; the
//! record is still `write(2)`-complete before the ack), and one in
//! group-commit mode (concurrent clients, acks released only after the
//! covering flush, many acks sharing one `fsync(2)`). The same
//! deterministic batch schedule is replayed through all three; the
//! table compares their ack latency distributions, fsync counts and
//! throughput. Every run must apply the whole schedule.

use std::time::{Duration, Instant};

use snb_server::{Server, ServerConfig, ServiceParams, WalOptions, WriteBatch, WriteOps};

use crate::node::percentile;
use crate::Args;

/// Clients driving the group-commit run concurrently. Each owns the
/// sequence numbers `i % GROUP_CLIENTS == t` and retries on the
/// server's typed `sequence gap` rejection until its predecessor
/// lands, so the global sequence stays contiguous without a
/// coordinator.
const GROUP_CLIENTS: usize = 4;

struct BenchRun {
    latencies_us: Vec<u64>,
    applied: u64,
    wall_us: u64,
    fsyncs: u64,
}

fn bench_one(args: &Args, fsync_every: u64) -> BenchRun {
    let dir =
        std::env::temp_dir().join(format!("snb_walbench_{}_{}", fsync_every, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = WalOptions { fsync_every, snapshot_every: 0, ..WalOptions::default() };
    let recovered = snb_server::recover(&dir, &args.config, &args.scale, options)
        .expect("wal-bench recovery on a fresh directory");
    let (store, durability, _) = recovered.into_durability();
    let server = Server::start_durable(store, ServerConfig::default(), durability);
    let client = server.client();

    let batches = crate::chaos::carve_batches(&args.config, 64);
    let mut latencies_us = Vec::with_capacity(batches.len());
    let started = Instant::now();
    for (i, ops) in batches.into_iter().enumerate() {
        let t0 = Instant::now();
        let resp = client.call(ServiceParams::Write(WriteBatch { seq: i as u64 + 1, ops }), 0);
        latencies_us.push(t0.elapsed().as_micros() as u64);
        assert!(
            resp.body.is_ok(),
            "wal-bench batch {} rejected: {:?}",
            i + 1,
            resp.body.err().map(|e| e.detail)
        );
    }
    let wall_us = started.elapsed().as_micros() as u64;
    let fsyncs = server.wal_syncs();
    let report = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    latencies_us.sort_unstable();
    BenchRun { latencies_us, applied: report.batches_applied, wall_us, fsyncs }
}

/// Group-commit run: the same schedule, pushed by [`GROUP_CLIENTS`]
/// concurrent clients through a two-segment WAL. Acks block on the
/// covering flush (flusher election inside the server), so one fsync
/// releases every waiter it covers — the fsync count, not the ack
/// count, is what the disk sees.
fn bench_group(args: &Args) -> BenchRun {
    let dir = std::env::temp_dir().join(format!("snb_walbench_group_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options =
        WalOptions { fsync_every: 32, snapshot_every: 0, partitions: 2, group_commit: true };
    let recovered = snb_server::recover(&dir, &args.config, &args.scale, options)
        .expect("wal-bench group-commit recovery on a fresh directory");
    let (store, durability, _) = recovered.into_durability();
    let server_config = ServerConfig { partitions: 2, ..ServerConfig::default() };
    let server = Server::start_durable(store, server_config, durability);

    let batches = crate::chaos::carve_batches(&args.config, 64);
    let started = Instant::now();
    let mut latencies_us: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..GROUP_CLIENTS {
            let mine: Vec<(u64, WriteOps)> = batches
                .iter()
                .enumerate()
                .filter(|(i, _)| i % GROUP_CLIENTS == t)
                .map(|(i, ops)| (i as u64 + 1, ops.clone()))
                .collect();
            let client = server.client();
            handles.push(scope.spawn(move || {
                let mut lat = Vec::with_capacity(mine.len());
                for (seq, ops) in mine {
                    let t0 = Instant::now();
                    loop {
                        let resp = client
                            .call(ServiceParams::Write(WriteBatch { seq, ops: ops.clone() }), 0);
                        match resp.body {
                            Ok(_) => break,
                            Err(e) if e.detail.contains("sequence gap") => {
                                std::thread::yield_now();
                            }
                            Err(e) => {
                                panic!("wal-bench group batch {seq} rejected: {}", e.detail)
                            }
                        }
                    }
                    lat.push(t0.elapsed().as_micros() as u64);
                }
                lat
            }));
        }
        handles.into_iter().flat_map(|h| h.join().expect("group-commit client")).collect()
    });
    let wall_us = started.elapsed().as_micros() as u64;
    let fsyncs = server.wal_syncs();
    let report = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    latencies_us.sort_unstable();
    BenchRun { latencies_us, applied: report.batches_applied, wall_us, fsyncs }
}

/// Runs all three configurations and prints their table.
pub fn run(args: &Args) {
    eprintln!("# measuring WAL ack latency ...");
    let every_ack = bench_one(args, 1);
    let batched = bench_one(args, 64);
    let group = bench_group(args);
    assert_eq!(every_ack.applied, batched.applied, "both runs must apply the same schedule");
    assert_eq!(every_ack.applied, group.applied, "group-commit run must apply the same schedule");
    let qps = |r: &BenchRun| r.applied as f64 / (r.wall_us.max(1) as f64 / 1e6);
    let us = |v: u64| snb_bench::fmt_duration(Duration::from_micros(v));
    let group_name = format!("group commit x{GROUP_CLIENTS}");
    let rows: Vec<Vec<String>> = [
        ("fsync_every 1", &every_ack),
        ("fsync_every 64", &batched),
        (group_name.as_str(), &group),
    ]
    .into_iter()
    .map(|(name, r)| {
        let lat = &r.latencies_us;
        let mean = if lat.is_empty() { 0 } else { lat.iter().sum::<u64>() / lat.len() as u64 };
        vec![
            name.to_string(),
            r.applied.to_string(),
            us(mean),
            us(percentile(lat, 0.50)),
            us(percentile(lat, 0.99)),
            us(lat.last().copied().unwrap_or(0)),
            r.fsyncs.to_string(),
            format!("{:.0}", qps(r)),
        ]
    })
    .collect();
    snb_bench::print_table(
        "E13/E14: write-ack latency through the WAL",
        &["config", "batches", "mean", "p50", "p99", "max", "fsyncs", "batches/s"],
        &rows,
    );
    println!(
        "group commit: {:.2} acks per fsync, {:.2}x the throughput of fsync_every 1",
        group.applied as f64 / group.fsyncs.max(1) as f64,
        qps(&group) / qps(&every_ack).max(1e-9),
    );
}
