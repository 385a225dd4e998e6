//! The service's pass/fail gates (experiments E13, E16–E18).
//!
//! ```text
//! service_load [SF] [SEED] (--wal-bench | --chaos | --replication | --split-brain | --sweep)
//!              [--followers N] [--sweep-levels 1,2,...,1024] [--sweep-duration 2s]
//!              [--server-bin PATH]
//! ```
//!
//! Each mode runs one experiment, prints its table, and exits non-zero
//! when one of its checks fails:
//!
//! - `--wal-bench` replays one write schedule through three in-process
//!   durable servers — `fsync_every` 1, `fsync_every` 64 and group
//!   commit — and compares their ack latency and fsync counts (see
//!   `wal_bench.rs`).
//! - `--chaos` SIGKILLs a real `snb-server` at four injected fault
//!   points, restarts it, resubmits every unacked batch, and proves the
//!   recovered store answers all 25 BI queries like an oracle that
//!   applied the acknowledged batches once each (see `chaos.rs`).
//! - `--replication` runs a primary plus `--followers N` follower
//!   processes through cold catch-up, live log shipping, a read ladder
//!   and a SIGKILL failover, then checks the promoted node against the
//!   every-batch oracle (see `replication.rs`).
//! - `--split-brain` partitions the primary, promotes a follower at a
//!   higher fencing epoch, and proves the zombie acks nothing, no acked
//!   write is lost, and both survivors answer like the oracle (see
//!   `split_brain.rs`).
//! - `--sweep` ladders 1 → 1024 concurrent TCP connections against the
//!   reactor, then floods the heavy lane and probes the short one (see
//!   `sweep.rs`).
//!
//! The three multi-process modes spawn `snb-server` (`--server-bin`,
//! default: next to this binary) through `node.rs`. Throughput and
//! latency of the service are measured by the repo benchmark
//! (`benchmark/`), not here.

use std::time::Duration;

use snb_datagen::GeneratorConfig;

mod chaos;
mod node;
mod replication;
mod split_brain;
mod sweep;
mod wal_bench;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    WalBench,
    Chaos,
    Replication,
    SplitBrain,
    Sweep,
}

struct Args {
    config: GeneratorConfig,
    scale: String,
    mode: Mode,
    followers: usize,
    sweep_levels: Vec<usize>,
    sweep_duration: Duration,
    server_bin: String,
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let t = s.trim();
    if let Some(ms) = t.strip_suffix("ms") {
        return ms.parse::<u64>().map(Duration::from_millis).map_err(|e| e.to_string());
    }
    let secs = t.strip_suffix('s').unwrap_or(t);
    secs.parse::<f64>().map(Duration::from_secs_f64).map_err(|e| e.to_string())
}

fn parse_args() -> Result<Args, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut mode = None;
    let mut followers = 2;
    let mut sweep_levels = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let mut sweep_duration = Duration::from_secs(2);
    let mut server_bin = None;
    let mut argv = std::env::args().skip(1);
    let need = |name: &str, v: Option<String>| v.ok_or_else(|| format!("{name} needs a value"));
    while let Some(arg) = argv.next() {
        let picked = match arg.as_str() {
            "--wal-bench" => Some(Mode::WalBench),
            "--chaos" => Some(Mode::Chaos),
            "--replication" => Some(Mode::Replication),
            "--split-brain" => Some(Mode::SplitBrain),
            "--sweep" => Some(Mode::Sweep),
            "--followers" => {
                followers =
                    need("--followers", argv.next())?.parse().map_err(|e| format!("{e}"))?;
                if followers == 0 {
                    return Err("--followers needs at least one follower".into());
                }
                None
            }
            "--sweep-levels" => {
                sweep_levels = need("--sweep-levels", argv.next())?
                    .split(',')
                    .map(|l| l.trim().parse::<usize>().map_err(|e| format!("--sweep-levels: {e}")))
                    .collect::<Result<_, _>>()?;
                if sweep_levels.is_empty() || sweep_levels.contains(&0) {
                    return Err("--sweep-levels needs positive connection counts".into());
                }
                None
            }
            "--sweep-duration" => {
                sweep_duration = parse_duration(&need("--sweep-duration", argv.next())?)?;
                None
            }
            "--server-bin" => {
                server_bin = Some(need("--server-bin", argv.next())?);
                None
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => {
                positionals.push(other.to_string());
                None
            }
        };
        if let Some(m) = picked {
            if mode.replace(m).is_some_and(|old| old != m) {
                return Err("pick one mode".into());
            }
        }
    }
    let mode =
        mode.ok_or("pick a mode: --wal-bench, --chaos, --replication, --split-brain or --sweep")?;
    let scale = positionals.first().cloned().unwrap_or_else(|| "0.01".into());
    let mut config = GeneratorConfig::for_scale_name(&scale)
        .ok_or_else(|| format!("unknown scale factor {scale:?}"))?;
    if let Some(seed) = positionals.get(1) {
        config.seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
    }
    let server_bin = server_bin.unwrap_or_else(|| {
        let exe = std::env::current_exe().expect("current_exe");
        exe.parent().expect("target dir").join("snb-server").display().to_string()
    });
    Ok(Args { config, scale, mode, followers, sweep_levels, sweep_duration, server_bin })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("service_load: {e}");
        std::process::exit(2);
    });
    match args.mode {
        Mode::WalBench => wal_bench::run(&args),
        Mode::Chaos => chaos::run(&args),
        Mode::Replication => replication::run(&args),
        Mode::SplitBrain => split_brain::run(&args),
        Mode::Sweep => sweep::run(&args),
    }
}
