//! `snb-server` — serve the SNB BI + interactive read workloads over
//! the length-prefixed binary protocol on localhost TCP.
//!
//! ```text
//! snb-server [SF] [SEED] [--port N] [--workers N] [--write-workers N]
//!            [--queue-cap N] [--profile]
//!            [--wal-dir PATH] [--fsync-every N] [--snapshot-every N]
//!            [--conn-timeout-ms N] [--group-commit]
//!            [--repl-port N] [--follower] [--replicate-from ADDR]
//! snb-server --promote REPL_ADDR [--announce-repl ADDR]
//!            [--announce-client ADDR] [--siblings A,B,..] [--epoch-floor N]
//! ```
//!
//! Admission is split into three priority lanes — IS/IC short reads,
//! heavy BI reads, and writes — each bounded by `--queue-cap`; the
//! scheduler pops four short reads per heavy one while both wait. A full
//! lane refuses the newcomer `overloaded`. A request's only deadline is
//! the one it carries.
//!
//! Positional arguments mirror the bench binaries: scale-factor name
//! (default `0.01`) and datagen seed. `--port 0` (the default) binds an
//! ephemeral port; the bound address is printed as
//! `listening on 127.0.0.1:PORT` so harnesses can scrape it. SIGTERM or
//! SIGINT triggers graceful drain-then-shutdown: in-flight requests
//! finish, new ones are rejected `shutting_down`, the access log's
//! ring — the most recent `LOG_CAPACITY` requests — is flushed (to
//! `$SNB_ACCESS_LOG` when set), and the process exits 0.
//!
//! `--wal-dir` enables the write workload: the directory is recovered
//! (store image if present, else the bulk store; then the WAL tail,
//! torn records truncated) before the listener opens, and every
//! acknowledged batch is WAL-appended first. The recovery summary is
//! printed as `recovered seq=N wal_entries=N truncated_bytes=N
//! recovery_ms=N epoch=N image_seq=N image_ms=N tail_replayed=N` on
//! stdout so chaos harnesses can assert on it. `--snapshot-every N`
//! sets the compaction point: once the log holds N records the server
//! writes a checksummed store image (`store.img`) and truncates the
//! log behind it, bounding recovery by the image plus the WAL tail
//! instead of the full history (0 = never compact). Fault injection
//! arms from `$SNB_FAULTS` / `$SNB_FAULT_SEED` (see `snb_fault`).
//!
//! Replication (requires `--wal-dir`): `--repl-port N` opens the
//! log-shipping listener, announced as `replication on 127.0.0.1:PORT`
//! on stdout *before* the `listening on` line. `--follower` starts the
//! node read-only (client writes answer `not_primary` until a
//! `Promote` frame arrives on the replication port), and
//! `--replicate-from ADDR` subscribes to a primary's replication
//! listener and applies its shipped records through the local durable
//! write path.
//!
//! `--promote REPL_ADDR` is an operator *client* mode: send one
//! `Promote` frame to a follower's replication port and exit. The
//! follower durably bumps its fencing epoch before going writable;
//! pass `--announce-repl` / `--announce-client` (the promoted node's
//! own endpoints) and `--siblings` (comma-separated replication
//! addresses of the rest of the cluster, including the old primary) so
//! the new primary announces itself — surviving followers re-subscribe
//! automatically and a partitioned ex-primary fences itself once
//! reachable. `--epoch-floor` forces a minimum epoch (0 = the
//! follower's own term + 1).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use snb_datagen::GeneratorConfig;
use snb_server::{Server, ServerConfig, WalOptions};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    config: GeneratorConfig,
    scale: String,
    port: u16,
    server: ServerConfig,
    wal_dir: Option<std::path::PathBuf>,
    wal: WalOptions,
    repl_port: Option<u16>,
    replicate_from: Option<String>,
    promote: Option<String>,
    announce_repl: String,
    announce_client: String,
    siblings: Vec<String>,
    epoch_floor: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut port = 0u16;
    let mut server = ServerConfig::default();
    let mut wal_dir = None;
    let mut wal = WalOptions::default();
    let mut repl_port = None;
    let mut replicate_from = None;
    let mut promote = None;
    let mut announce_repl = String::new();
    let mut announce_client = String::new();
    let mut siblings = Vec::new();
    let mut epoch_floor = 0u64;
    let mut argv = std::env::args().skip(1);
    let parse = |name: &str, v: Option<String>| -> Result<u64, String> {
        v.ok_or_else(|| format!("{name} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--port" => port = parse("--port", argv.next())? as u16,
            "--workers" => server.workers = parse("--workers", argv.next())?.max(1) as usize,
            "--write-workers" => {
                server.write_workers = parse("--write-workers", argv.next())?.max(1) as usize;
            }
            "--queue-cap" => {
                server.queue_capacity = parse("--queue-cap", argv.next())? as usize;
            }
            "--conn-timeout-ms" => {
                let ms = parse("--conn-timeout-ms", argv.next())?;
                server.conn_read_timeout =
                    if ms == 0 { None } else { Some(Duration::from_millis(ms)) };
            }
            "--wal-dir" => {
                wal_dir =
                    Some(std::path::PathBuf::from(argv.next().ok_or("--wal-dir needs a value")?));
            }
            "--fsync-every" => wal.fsync_every = parse("--fsync-every", argv.next())?.max(1),
            "--snapshot-every" => wal.snapshot_every = parse("--snapshot-every", argv.next())?,
            "--group-commit" => wal.group_commit = true,
            "--repl-port" => repl_port = Some(parse("--repl-port", argv.next())? as u16),
            "--follower" => server.read_only = true,
            "--replicate-from" => {
                replicate_from = Some(argv.next().ok_or("--replicate-from needs a value")?);
            }
            "--promote" => {
                promote = Some(argv.next().ok_or("--promote needs the follower's repl addr")?);
            }
            "--announce-repl" => {
                announce_repl = argv.next().ok_or("--announce-repl needs a value")?;
            }
            "--announce-client" => {
                announce_client = argv.next().ok_or("--announce-client needs a value")?;
            }
            "--siblings" => {
                siblings = argv
                    .next()
                    .ok_or("--siblings needs a comma-separated list")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--epoch-floor" => epoch_floor = parse("--epoch-floor", argv.next())?,
            "--profile" => server.profiling = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positionals.push(other.to_string()),
        }
    }
    let sf = positionals.first().map(String::as_str).unwrap_or("0.01");
    let mut config = GeneratorConfig::for_scale_name(sf)
        .ok_or_else(|| format!("unknown scale factor {sf:?}; try 0.001/0.003/0.01/0.03/0.1"))?;
    if let Some(seed) = positionals.get(1) {
        config.seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
    }
    if (repl_port.is_some() || replicate_from.is_some()) && wal_dir.is_none() {
        return Err("replication needs a WAL: pass --wal-dir".into());
    }
    Ok(Args {
        config,
        scale: sf.to_string(),
        port,
        server,
        wal_dir,
        wal,
        repl_port,
        replicate_from,
        promote,
        announce_repl,
        announce_client,
        siblings,
        epoch_floor,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snb-server: {e}");
            std::process::exit(2);
        }
    };
    install_signal_handlers();

    // Operator client mode: one Promote frame, print the outcome, exit.
    if let Some(target) = &args.promote {
        match snb_server::replication::promote_with(
            target,
            args.epoch_floor,
            &args.announce_repl,
            &args.announce_client,
            &args.siblings,
        ) {
            Ok(p) => {
                println!("promoted writable_from={} epoch={}", p.writable_from, p.epoch);
                if !args.siblings.is_empty() {
                    // The announce fan-out runs on the *promoted node*,
                    // not in this client; nothing to wait for here.
                    eprintln!(
                        "# announce to {} sibling(s) delegated to the new primary",
                        args.siblings.len()
                    );
                }
                return;
            }
            Err(e) => {
                eprintln!("snb-server: promote {target}: {e}");
                std::process::exit(1);
            }
        }
    }

    match snb_fault::arm_from_env() {
        Ok(0) => {}
        Ok(n) => eprintln!("# fault injection: {n} point(s) armed from $SNB_FAULTS"),
        Err(e) => {
            eprintln!("snb-server: bad $SNB_FAULTS: {e}");
            std::process::exit(2);
        }
    }

    eprintln!("# building store: {} persons (seed {}) ...", args.config.persons, args.config.seed);
    let started = std::time::Instant::now();
    let mut server = if let Some(dir) = &args.wal_dir {
        let recovered = match snb_server::recover(dir, &args.config, &args.scale, args.wal) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("snb-server: recovery failed: {e}");
                std::process::exit(2);
            }
        };
        let (store, durability, report) = recovered.into_durability();
        eprintln!("# store ready in {:.2?}", started.elapsed());
        // Harness contract: one recovery summary line on stdout.
        println!(
            "recovered seq={} wal_entries={} truncated_bytes={} recovery_ms={} epoch={} \
             image_seq={} image_ms={} tail_replayed={}",
            report.last_seq,
            report.wal_entries,
            report.truncated_bytes,
            report.recovery_us / 1000,
            report.epoch,
            report.image_seq,
            report.image_us / 1000,
            report.tail_replayed,
        );
        Server::start_durable(store, args.server.clone(), durability)
    } else {
        let store = snb_store::store_for_config(&args.config);
        eprintln!("# store ready in {:.2?}", started.elapsed());
        Server::start(store, args.server.clone())
    };
    let repl_config = args.wal_dir.as_ref().map(|dir| snb_server::ReplicationConfig {
        wal_dir: dir.clone(),
        scale: args.scale.clone(),
        seed: args.config.seed,
    });
    // Announced before `listening on` so harnesses can scrape both in
    // order.
    if let Some(repl_port) = args.repl_port {
        let config = repl_config.clone().expect("parse_args enforces --wal-dir");
        match server.listen_replication(&format!("127.0.0.1:{repl_port}"), config) {
            Ok(repl_addr) => println!("replication on {repl_addr}"),
            Err(e) => {
                eprintln!("snb-server: replication bind failed: {e}");
                std::process::exit(2);
            }
        }
    }
    let follower = args.replicate_from.as_ref().map(|primary| {
        let config = repl_config.clone().expect("parse_args enforces --wal-dir");
        eprintln!("# following {primary}");
        server.replicate_from(primary, config)
    });
    let addr = match server.listen(&format!("127.0.0.1:{}", args.port)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snb-server: bind failed: {e}");
            std::process::exit(2);
        }
    };
    // The harness contract: exactly this line, on stdout, flushed.
    println!("listening on {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    eprintln!(
        "# serving with {} workers, queue capacity {}, profiling {}",
        args.server.workers, args.server.queue_capacity, args.server.profiling
    );

    let mut was_read_only = server.is_read_only();
    let mut was_fenced = server.is_fenced();
    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
        // Promotion arrives on the replication port; announce the flip
        // on stdout so failover harnesses can scrape it.
        if was_read_only && !server.is_read_only() {
            was_read_only = false;
            // Ignore stdout errors: a harness that scraped the startup
            // lines and closed the pipe must not crash a freshly
            // promoted primary with EPIPE.
            let mut out = std::io::stdout();
            let _ = writeln!(
                out,
                "promoted writable_from={} epoch={}",
                server.last_applied_seq(),
                server.epoch()
            );
            let _ = out.flush();
        }
        // Zombie detection: a higher epoch reached this ex-primary over
        // the repl channel and client writes now refuse `fenced`.
        if !was_fenced && server.is_fenced() {
            was_fenced = true;
            let mut out = std::io::stdout();
            let _ = writeln!(out, "fenced epoch={}", server.epoch());
            let _ = out.flush();
        }
        if was_fenced && !server.is_fenced() {
            // Re-promoted into a newer term.
            was_fenced = false;
        }
    }
    eprintln!("# signal received, draining ...");
    if let Some(follower) = follower {
        let st = follower.status();
        eprintln!(
            "# follower: applied {} deduped {} errors {} caught_up {} catch_up_ms {} lag {} \
             heartbeat_timeouts {} resubscribed {}",
            st.records_applied,
            st.records_deduped,
            st.apply_errors,
            st.caught_up,
            st.catch_up_ms,
            st.lag(),
            st.heartbeat_timeouts,
            st.resubscribed,
        );
        follower.stop();
    }
    let log = server.log_handle();
    let report = server.shutdown();
    if let Ok(path) = std::env::var("SNB_ACCESS_LOG") {
        match log.flush_to(&path) {
            Ok(()) => eprintln!("# access log flushed to {path}"),
            Err(e) => eprintln!("# access log flush to {path} failed: {e}"),
        }
    }
    eprintln!(
        "# lanes: served short={} heavy={} write={}, shed short={} heavy={} write={}, \
         deadline_overrun {}, conn_accepted {}, conn_peak {}",
        report.served_by_lane[0],
        report.served_by_lane[1],
        report.served_by_lane[2],
        report.shed_by_lane[0],
        report.shed_by_lane[1],
        report.shed_by_lane[2],
        report.deadline_overrun,
        report.conn_accepted,
        report.conn_peak,
    );
    eprintln!(
        "# shutdown complete: served {}, shed {}, deadline_missed {}, \
         rejected_shutdown {}, bad_requests {}, internal_errors {}, log_records {}, \
         batches_applied {}, batches_deduped {}, poisoned_rejects {}, conn_stalled {}",
        report.served,
        report.shed,
        report.deadline_missed,
        report.rejected_shutdown,
        report.bad_requests,
        report.internal_errors,
        report.log_records,
        report.batches_applied,
        report.batches_deduped,
        report.poisoned_rejects,
        report.conn_stalled,
    );
    std::process::exit(0);
}
