//! `snb-server` — serve the SNB BI + interactive read workloads over
//! the length-prefixed binary protocol on localhost TCP.
//!
//! ```text
//! snb-server [SF] [SEED] [--port N] [--workers N] [--queue-cap N] [--profile]
//!            [--wal-dir PATH] [--snapshot-every N] [--conn-timeout-ms N]
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
//! batch is WAL-appended and fsynced before it is published and
//! acknowledged; TCP write batches apply one at a time, in arrival
//! order. The recovery summary is
//! printed as `recovered seq=N wal_entries=N truncated_bytes=N
//! recovery_ms=N image_seq=N image_ms=N tail_replayed=N` on
//! stdout so chaos harnesses can assert on it. `--snapshot-every N`
//! sets the compaction point: once the log holds N records the server
//! writes a checksummed store image (`store.img`) and truncates the
//! log behind it, bounding recovery by the image plus the WAL tail
//! instead of the full history (0 = never compact). Fault injection
//! arms from `$SNB_FAULTS` / `$SNB_FAULT_SEED` (see `snb_fault`).

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
    // SAFETY: `signal` installs a handler that only stores to an atomic,
    // which is async-signal-safe; the handler is a plain `extern "C"` fn
    // that lives for the whole process.
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
}

fn parse_args() -> Result<Args, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut port = 0u16;
    let mut server = ServerConfig::default();
    let mut wal_dir = None;
    let mut wal = WalOptions::default();
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
            "--snapshot-every" => wal.snapshot_every = parse("--snapshot-every", argv.next())?,
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
    Ok(Args { config, scale: sf.to_string(), port, server, wal_dir, wal })
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
            "recovered seq={} wal_entries={} truncated_bytes={} recovery_ms={} image_seq={} \
             image_ms={} tail_replayed={}",
            report.last_seq,
            report.wal_entries,
            report.truncated_bytes,
            report.recovery_us / 1000,
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

    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("# signal received, draining ...");
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
