//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! snb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! snb-benchmark                   # all four, one fresh process each
//! snb-benchmark --calibrate [N]   # N rounds, spreads and proposed bounds
//! snb-benchmark --smoke           # all four at SF 0.003, end-to-end and traced
//! ```

mod calibrate;
mod dataset;
mod harness;
mod host;
mod json;
mod metrics;
mod oplist;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{drive, Plan};
use json::Json;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["bi_power", "bi_refresh", "svc_short", "load_recover"];

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 12;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    calibrate: Option<usize>,
    scratch: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        calibrate: None,
        scratch: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scratch" => args.scratch = Some(PathBuf::from(value("--scratch")?)),
            "--smoke" => args.smoke = true,
            "--calibrate" => {
                let rounds = match argv.peek().and_then(|v| v.parse().ok()) {
                    Some(n) => {
                        argv.next();
                        n
                    }
                    None => 10,
                };
                args.calibrate = Some(rounds);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Where durable directories and output files go: `--scratch`, else
/// the cargo target directory the benchmark was built into, else
/// `.bench_build` — inside the checkout in every case the driver runs.
fn out_dir(args: &Args) -> PathBuf {
    args.scratch.clone().unwrap_or_else(|| {
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or(".bench_build".into(), PathBuf::from);
        target.join("snb-benchmark-out")
    })
}

fn run_one(name: &str, args: &Args) -> Result<Json, String> {
    let out_dir = out_dir(args);
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: out_dir.join(format!("{name}-{}", std::process::id())),
        out_dir,
    };
    Ok(match name {
        "bi_power" => drive::<workloads::bi_power::BiPower>(&plan),
        "bi_refresh" => drive::<workloads::bi_refresh::BiRefresh>(&plan),
        "svc_short" => drive::<workloads::svc_short::SvcShort>(&plan),
        "load_recover" => drive::<workloads::load_recover::LoadRecover>(&plan),
        other => return Err(format!("unknown workload {other}; known: {}", WORKLOADS.join(", "))),
    })
}

/// Runs one workload in a fresh process of this executable, so its
/// peak RSS is its own, and returns its result line.
pub fn run_child(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or(format!("{name}: no result line"))?;
    let result = json::parse(line).map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{name}: exit {} with result {result}", out.status));
    }
    Ok(result)
}

/// All four workloads, each in its own process; prints every metric by
/// name with its unit, then one summary object.
fn run_all(args: &Args) -> Result<(), String> {
    let mut results = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            // A full run prints the end-to-end metrics; the traced pass
            // rides along only in the smoke check.
            if trace && !args.smoke {
                continue;
            }
            let result = run_child(name, args.seed, args.seconds, trace, args.smoke)?;
            println!("== {name}{}", if trace { " (traced)" } else { "" });
            for (metric, v) in result.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{metric:<34} {value:>16.4} {unit}");
            }
            if !trace {
                results.push((name, result));
            }
        }
    }
    // This benchmark defines the yardstick; it claims no gain.
    println!("{}", Json::obj([("claim", Json::Null), ("workloads", Json::obj(results))]));
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some(rounds) = args.calibrate {
            return calibrate::run(rounds, args.seed, args.seconds);
        }
        match &args.workload {
            None => run_all(&args),
            Some(name) => {
                let result = run_one(name, &args)?;
                println!("{result}");
                match result.get("correct") {
                    Some(Json::Bool(true)) => Ok(()),
                    _ => Err(format!("{name}: outputs are not correct")),
                }
            }
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("snb-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
