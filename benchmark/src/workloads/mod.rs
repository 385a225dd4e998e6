//! The four workloads. Each stresses layers the others skip; the
//! README says which metric of which workload a layer should move.

use snb_server::{Server, ServerConfig};

use crate::metrics::Layers;

pub mod bi_power;
pub mod bi_refresh;
pub mod load_recover;
pub mod svc_short;

/// One read worker, one write worker, single-threaded query contexts:
/// parallel speed-up is not what these workloads measure.
fn server_config() -> ServerConfig {
    ServerConfig { workers: 1, write_workers: 1, threads_per_worker: 1, ..ServerConfig::default() }
}

/// The server-side view of the traced requests and of the run: mean
/// lane wait and execution time (the server stamps whole microseconds,
/// so a median would read 0 or 1), and the `ServiceReport` counts.
fn server_layers(server: &Server, server_side: &[(u64, u64)], layers: &mut Layers) {
    let n = server_side.len().max(1) as f64;
    layers.set("server.lane_wait_us", server_side.iter().map(|s| s.0 as f64).sum::<f64>() / n);
    layers.set("server.exec_us", server_side.iter().map(|s| s.1 as f64).sum::<f64>() / n);
    let report = server.report_now();
    layers.set("server.versions_published", report.versions_published as f64);
    layers.set("server.peak_live_snapshots", report.peak_live_snapshots as f64);
    layers.set("server.reader_retries", report.reader_retries as f64);
    layers.set("server.reader_blocked", report.reader_blocked as f64);
    layers.set("server.shed", report.shed as f64);
}
