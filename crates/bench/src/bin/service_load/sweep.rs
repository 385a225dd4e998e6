//! Experiment E16 — connection-count sweep over the reactor transport.
//!
//! The pre-reactor service spent one OS thread per TCP connection, so
//! "how many connections can the tier hold" was really "how many
//! threads can the box tolerate". This experiment measures the fixed
//! answer: a ladder of connection counts (default 1 → 1024), every
//! connection concurrently open with one outstanding request, against
//! a server whose thread count never changes (one reactor thread plus
//! the configured workers).
//!
//! The request mix is 80% short reads (IS 1–7, the latency-critical
//! lane) and 20% heavy BI reads, issued closed-loop per connection:
//! `min(level, 32)` driver threads each own a slice of connections and
//! run write-all / read-all rounds, so the number of in-flight
//! requests equals the connection count. Each ladder level reports
//! achieved QPS, p50/p99 (overall, and p99 of the short reads), the
//! server's per-lane shed deltas and errors.
//!
//! After the ladder, a BI-flood phase pipelines a deep heavy backlog
//! on dedicated connections and probes with short reads: the weighted
//! lane scheduler must answer every probe and shed none of them.
//!
//! The run fails (exit 1) when any ladder level answers an error, when
//! the reactor never held the widest level's connections at once, on any
//! protocol error, or when the flood gate is violated.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use snb_bi::BiParams;
use snb_interactive::IsParams;
use snb_params::ParamGen;
use snb_server::proto::{self, Request};
use snb_server::{Server, ServerConfig, ServiceParams};

use crate::node::{call, percentile};
use crate::Args;

/// Heavy-lane queries for the mix: mid-weight BI reads (not the
/// heaviest tail, which would collapse a 1-core ladder to a handful of
/// requests per level).
const HEAVY_QUERIES: [u8; 3] = [2, 5, 13];
/// Curated bindings per heavy query.
const HEAVY_BINDINGS: usize = 4;
/// One request in `MIX_PERIOD` is heavy; the rest are short reads.
const MIX_PERIOD: u64 = 5;
/// Heavy requests pipelined by the flood phase.
const FLOOD: usize = 256;
/// Short-read probes issued while the flood is queued.
const PROBES: usize = 50;
/// Driver threads are capped: beyond this, connections share a driver
/// (the server side is what the ladder scales, not the client).
const MAX_DRIVERS: usize = 32;

struct Pools {
    heavy: Vec<BiParams>,
    short_keys: Vec<u64>,
}

fn short_params(pools: &Pools, n: u64) -> ServiceParams {
    let key = pools.short_keys[(n as usize) % pools.short_keys.len()];
    let query = 1 + (n % 7) as u8;
    ServiceParams::Is(IsParams::from_parts(query, key).expect("IS query in 1..=7"))
}

fn heavy_params(pools: &Pools, n: u64) -> ServiceParams {
    ServiceParams::Bi(pools.heavy[(n as usize) % pools.heavy.len()].clone())
}

#[derive(Default)]
struct LevelStats {
    issued: u64,
    ok: u64,
    errors: u64,
    short_lat: Vec<u64>,
    heavy_lat: Vec<u64>,
    protocol_errors: u64,
}

impl LevelStats {
    fn absorb(&mut self, other: LevelStats) {
        self.issued += other.issued;
        self.ok += other.ok;
        self.errors += other.errors;
        self.short_lat.extend(other.short_lat);
        self.heavy_lat.extend(other.heavy_lat);
        self.protocol_errors += other.protocol_errors;
    }

    fn all_sorted(&mut self) -> Vec<u64> {
        let mut all: Vec<u64> = self.short_lat.iter().chain(&self.heavy_lat).copied().collect();
        all.sort_unstable();
        self.short_lat.sort_unstable();
        self.heavy_lat.sort_unstable();
        all
    }
}

/// One ladder level: `level` concurrent connections, closed-loop
/// rounds until the window ends.
fn run_level(
    addr: std::net::SocketAddr,
    pools: &std::sync::Arc<Pools>,
    level: usize,
    duration: Duration,
) -> LevelStats {
    let drivers = level.min(MAX_DRIVERS);
    // Open every connection up front so the full level is concurrently
    // alive before the window starts.
    let mut conns: Vec<TcpStream> = (0..level)
        .map(|i| {
            let c = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("sweep level {level}: connect #{i}: {e}"));
            let _ = c.set_nodelay(true);
            c
        })
        .collect();
    let mut slices: Vec<Vec<TcpStream>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, conn) in conns.drain(..).enumerate() {
        slices[i % drivers].push(conn);
    }
    let end = Instant::now() + duration;
    let handles: Vec<std::thread::JoinHandle<LevelStats>> = slices
        .into_iter()
        .enumerate()
        .map(|(driver, mut slice)| {
            let pools = std::sync::Arc::clone(pools);
            std::thread::spawn(move || {
                let mut stats = LevelStats::default();
                let mut n: u64 = (driver as u64) << 40;
                let mut starts: Vec<(Instant, bool)> = Vec::with_capacity(slice.len());
                while Instant::now() < end {
                    // Write one request on every owned connection, then
                    // read every response: in-flight == slice length.
                    starts.clear();
                    for conn in slice.iter_mut() {
                        n += 1;
                        let heavy = n.is_multiple_of(MIX_PERIOD);
                        let params =
                            if heavy { heavy_params(&pools, n) } else { short_params(&pools, n) };
                        let req = Request { id: n, deadline_us: 0, min_seq: 0, params };
                        if proto::write_frame(conn, &proto::encode_request(&req)).is_err() {
                            stats.protocol_errors += 1;
                        }
                        starts.push((Instant::now(), heavy));
                        stats.issued += 1;
                    }
                    for (conn, (t0, heavy)) in slice.iter_mut().zip(&starts) {
                        let resp = proto::read_frame(conn)
                            .map_err(|e| format!("read: {e}"))
                            .and_then(|p| {
                                proto::decode_response(&p)
                                    .map_err(|e| format!("decode: {}", e.detail))
                            });
                        match resp {
                            Ok(resp) => {
                                let latency = t0.elapsed().as_micros() as u64;
                                if resp.body.is_ok() {
                                    stats.ok += 1;
                                    if *heavy {
                                        stats.heavy_lat.push(latency);
                                    } else {
                                        stats.short_lat.push(latency);
                                    }
                                } else {
                                    stats.errors += 1;
                                }
                            }
                            Err(_) => stats.protocol_errors += 1,
                        }
                    }
                }
                stats
            })
        })
        .collect();
    let mut total = LevelStats::default();
    for h in handles {
        total.absorb(h.join().expect("sweep driver thread"));
    }
    total
}

/// What the BI-flood phase observed.
struct Flood {
    heavy_ok: u64,
    short_ok: u64,
    short_shed: u64,
    short_p99: u64,
}

/// The BI-flood starvation gate: pipeline a deep heavy backlog, probe
/// with short reads, count the probes answered and the short-lane sheds.
fn run_flood(addr: std::net::SocketAddr, pools: &Pools, server: &Server) -> Flood {
    let before = server.report_now();
    let mut flood_conn = TcpStream::connect(addr).expect("flood connect");
    let _ = flood_conn.set_nodelay(true);
    for i in 0..FLOOD as u64 {
        let req = Request { id: i + 1, deadline_us: 0, min_seq: 0, params: heavy_params(pools, i) };
        proto::write_frame(&mut flood_conn, &proto::encode_request(&req)).expect("flood write");
    }
    // Probe only once a real heavy backlog is admitted.
    let armed = Instant::now() + Duration::from_secs(10);
    while server.queued() < 32 && Instant::now() < armed {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut probe_conn = TcpStream::connect(addr).expect("probe connect");
    let _ = probe_conn.set_nodelay(true);
    let mut short_lat: Vec<u64> = Vec::with_capacity(PROBES);
    for i in 0..PROBES as u64 {
        let t0 = Instant::now();
        if let Ok(resp) = call(&mut probe_conn, i + 1, 0, short_params(pools, i)) {
            if resp.body.is_ok() {
                short_lat.push(t0.elapsed().as_micros() as u64);
            }
        }
    }
    let mut heavy_ok = 0u64;
    for _ in 0..FLOOD {
        let payload = proto::read_frame(&mut flood_conn).expect("flood read");
        let resp = proto::decode_response(&payload).expect("flood decode");
        if resp.body.is_ok() {
            heavy_ok += 1;
        }
    }
    short_lat.sort_unstable();
    Flood {
        heavy_ok,
        short_ok: short_lat.len() as u64,
        short_shed: server.report_now().shed_by_lane[0] - before.shed_by_lane[0],
        short_p99: percentile(&short_lat, 0.99),
    }
}

pub fn run(args: &Args) {
    eprintln!("# building store: {} persons (seed {}) ...", args.config.persons, args.config.seed);
    let store = snb_store::store_for_config(&args.config);
    let pools = {
        let gen = ParamGen::new(&store, args.config.seed);
        let heavy: Vec<BiParams> =
            HEAVY_QUERIES.iter().flat_map(|&q| gen.bi_params(q, HEAVY_BINDINGS)).collect();
        let short_keys: Vec<u64> =
            gen.person_pairs(64).into_iter().flat_map(|(a, b)| [a, b]).collect();
        assert!(!heavy.is_empty() && !short_keys.is_empty(), "sweep pools empty");
        std::sync::Arc::new(Pools { heavy, short_keys })
    };

    let config = ServerConfig::default();
    eprintln!(
        "# sweeping {:?} connections ({:?} per level, {} read workers, heavy cap {}) ...",
        args.sweep_levels, args.sweep_duration, config.workers, config.queue_capacity,
    );
    let mut server = Server::start(store, config);
    let addr = server.listen("127.0.0.1:0").expect("bind loopback");
    let max_level = args.sweep_levels.iter().copied().max().unwrap_or(1);

    let mut failures: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut protocol_errors = 0u64;
    for &level in &args.sweep_levels {
        let before = server.report_now();
        let t0 = Instant::now();
        let mut stats = run_level(addr, &pools, level, args.sweep_duration);
        let wall = t0.elapsed();
        let after = server.report_now();
        protocol_errors += stats.protocol_errors;
        if stats.errors > 0 {
            failures.push(format!("{level} connections: {} errors", stats.errors));
        }

        let all = stats.all_sorted();
        let qps = stats.ok as f64 / wall.as_secs_f64();
        rows.push(vec![
            level.to_string(),
            stats.issued.to_string(),
            format!("{qps:.0}"),
            snb_bench::fmt_duration(Duration::from_micros(percentile(&all, 0.50))),
            snb_bench::fmt_duration(Duration::from_micros(percentile(&all, 0.99))),
            snb_bench::fmt_duration(Duration::from_micros(percentile(&stats.short_lat, 0.99))),
            (after.shed_by_lane[0] - before.shed_by_lane[0]).to_string(),
            (after.shed_by_lane[1] - before.shed_by_lane[1]).to_string(),
            stats.errors.to_string(),
        ]);
    }
    snb_bench::print_table(
        "E16: connection sweep (80/20 short/heavy)",
        &[
            "conns",
            "issued",
            "qps",
            "p50",
            "p99",
            "short p99",
            "short shed",
            "heavy shed",
            "errors",
        ],
        &rows,
    );

    let flood = run_flood(addr, &pools, &server);
    snb_bench::print_table(
        "E16: BI-flood starvation gate",
        &["heavy pipelined", "heavy ok", "probes", "probes ok", "short shed", "short p99"],
        &[vec![
            FLOOD.to_string(),
            flood.heavy_ok.to_string(),
            PROBES.to_string(),
            flood.short_ok.to_string(),
            flood.short_shed.to_string(),
            snb_bench::fmt_duration(Duration::from_micros(flood.short_p99)),
        ]],
    );
    if flood.short_ok < PROBES as u64 || flood.short_shed > 0 {
        failures.push(format!(
            "flood gate: {}/{PROBES} probes answered, {} short reads shed",
            flood.short_ok, flood.short_shed
        ));
    }

    let report = server.shutdown();
    println!("conn_peak {}, protocol errors {protocol_errors}", report.conn_peak);
    if report.conn_peak < max_level as u64 {
        failures.push(format!("peak {} connections, ladder reached {max_level}", report.conn_peak));
    }
    if protocol_errors > 0 {
        failures.push(format!("{protocol_errors} protocol errors"));
    }
    if !failures.is_empty() {
        eprintln!("service_load --sweep: FAILED ({})", failures.join("; "));
        std::process::exit(1);
    }
}
