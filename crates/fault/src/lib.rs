//! Deterministic fault injection for crash-safety testing.
//!
//! Production code is instrumented with *named fault points* — e.g.
//! `wal.append.short_write`, `writer.apply.panic`, `conn.read.stall` —
//! by calling [`check`] at the spot where a fault could strike. When
//! nothing is armed the call is a single relaxed atomic load returning
//! `None`, so instrumented hot paths cost nothing in normal operation.
//!
//! Faults are armed either programmatically ([`arm`], for unit tests)
//! or from the `SNB_FAULTS` environment variable ([`arm_from_env`], for
//! chaos harnesses driving a separate server process). A fault fires
//! either on an exact hit count (`@h3` = the third time the point is
//! reached, exactly once) or per-hit with a seeded probability (`@p0.5`
//! with `SNB_FAULT_SEED`), so every run of a chaos scenario kills the
//! process at the same byte of the same record.
//!
//! What a firing fault *does* is described by [`Fault`]: tear a write
//! short, panic, stall, abort the process (the in-process equivalent of
//! a SIGKILL — no destructors, no flushes), or surface an injected I/O
//! error. Effects compose (`short:12,stall` = write 12 bytes then hang
//! until the harness delivers the real SIGKILL).
//!
//! ```text
//! SNB_FAULTS="wal.append.short_write=short:12,stall@h3;writer.apply.panic=panic@h5"
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The composite effect of a firing fault point, in application order:
/// short-write, then stall, then kill / panic / error.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fault {
    /// Truncate the instrumented write to this many bytes.
    pub short_write: Option<usize>,
    /// Sleep this long at the fault point (a stalled thread for the
    /// harness to SIGKILL, or a slowloris-style hang).
    pub stall_ms: u64,
    /// Abort the process without running destructors (`process::abort`)
    /// — durability-wise identical to a SIGKILL at this instruction.
    pub kill: bool,
    /// Panic at the fault point (exercises catch-unwind paths).
    pub panic: bool,
    /// Surface an injected error from the fault point.
    pub error: bool,
}

impl Fault {
    /// Parses an effect list such as `short:12,stall:500,err` or
    /// `panic` or `kill`.
    fn parse(spec: &str) -> Result<Fault, String> {
        let mut f = Fault::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, value) = match part.split_once(':') {
                Some((n, v)) => (n, Some(v)),
                None => (part, None),
            };
            let num = |v: Option<&str>, default: u64| -> Result<u64, String> {
                match v {
                    None => Ok(default),
                    Some(v) => v.parse().map_err(|e| format!("{part:?}: {e}")),
                }
            };
            match name {
                "short" => f.short_write = Some(num(value, 0)? as usize),
                "stall" => f.stall_ms = num(value, 60_000)?,
                "kill" => f.kill = true,
                "panic" => f.panic = true,
                "err" => f.error = true,
                other => return Err(format!("unknown fault effect {other:?}")),
            }
        }
        Ok(f)
    }

    /// Executes the stall / kill / panic leg of the effect and reports
    /// whether the caller should surface an injected error. The
    /// short-write leg is the caller's job (only it holds the buffer).
    pub fn trip(&self, point: &str) -> bool {
        if self.stall_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.stall_ms));
        }
        if self.kill {
            std::process::abort();
        }
        if self.panic {
            panic!("injected fault at {point}");
        }
        self.error
    }
}

/// When a fault point fires.
#[derive(Clone, Copy, Debug)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th hit (1-based).
    OnHit(u64),
    /// Fire independently per hit with probability `p`, driven by a
    /// seeded splitmix64 stream (deterministic per arm call).
    Probability(f64),
}

struct Armed {
    fault: Fault,
    trigger: Trigger,
    hits: u64,
    fired: u64,
    rng: u64,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, Armed>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arms `point` with `fault` under `trigger`; `seed` drives the
/// probabilistic trigger's RNG stream (ignored for [`Trigger::OnHit`]).
pub fn arm(point: &str, fault: Fault, trigger: Trigger, seed: u64) {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.points.insert(point.to_string(), Armed { fault, trigger, hits: 0, fired: 0, rng: seed });
    ENABLED.store(true, Ordering::Release);
}

/// Disarms every fault point and resets hit counters; [`check`] returns
/// to its no-op fast path.
pub fn disarm_all() {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.points.clear();
    ENABLED.store(false, Ordering::Release);
}

/// The instrumentation call: returns the armed [`Fault`] when `point`
/// fires on this hit, `None` otherwise. With nothing armed anywhere
/// this is one relaxed atomic load — safe to leave in hot paths.
#[inline]
pub fn check(point: &str) -> Option<Fault> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    check_slow(point)
}

#[cold]
fn check_slow(point: &str) -> Option<Fault> {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let armed = reg.points.get_mut(point)?;
    armed.hits += 1;
    let fires = match armed.trigger {
        Trigger::OnHit(n) => armed.fired == 0 && armed.hits == n,
        Trigger::Probability(p) => (splitmix64(&mut armed.rng) as f64 / u64::MAX as f64) < p,
    };
    if fires {
        armed.fired += 1;
        Some(armed.fault.clone())
    } else {
        None
    }
}

/// How many times `point` has been reached since it was armed (0 when
/// not armed) — observability for tests and the chaos harness.
pub fn hits(point: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.points.get(point).map(|a| a.hits).unwrap_or(0)
}

/// How many times `point` has fired since it was armed.
pub fn fired(point: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.points.get(point).map(|a| a.fired).unwrap_or(0)
}

/// Parses one `point=effects@trigger` clause.
fn parse_clause(clause: &str) -> Result<(String, Fault, Trigger), String> {
    let (point, rest) =
        clause.split_once('=').ok_or_else(|| format!("missing '=' in {clause:?}"))?;
    let (effects, trigger) = match rest.rsplit_once('@') {
        Some((e, t)) => (e, t),
        None => (rest, "h1"),
    };
    let fault = Fault::parse(effects)?;
    let trigger = if let Some(n) = trigger.strip_prefix('h') {
        Trigger::OnHit(n.parse().map_err(|e| format!("trigger {trigger:?}: {e}"))?)
    } else if let Some(p) = trigger.strip_prefix('p') {
        Trigger::Probability(p.parse().map_err(|e| format!("trigger {trigger:?}: {e}"))?)
    } else {
        return Err(format!("trigger {trigger:?} must start with 'h' or 'p'"));
    };
    Ok((point.to_string(), fault, trigger))
}

/// Arms fault points from a spec string: `;`-separated clauses of the
/// form `point=effects[@trigger]`, e.g.
/// `wal.append.short_write=short:12,stall@h3;conn.read.stall=stall:200@p0.25`.
pub fn arm_from_spec(spec: &str, seed: u64) -> Result<usize, String> {
    let mut n = 0;
    for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let (point, fault, trigger) = parse_clause(clause)?;
        arm(&point, fault, trigger, seed.wrapping_add(n as u64));
        n += 1;
    }
    Ok(n)
}

/// Arms fault points from `SNB_FAULTS` (seeded by `SNB_FAULT_SEED`,
/// default 42). Returns the number of points armed; unset env is 0.
pub fn arm_from_env() -> Result<usize, String> {
    let Ok(spec) = std::env::var("SNB_FAULTS") else {
        return Ok(0);
    };
    let seed = std::env::var("SNB_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42);
    arm_from_spec(&spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global; tests touching it serialize.
    fn lock() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_points_are_silent() {
        let _g = lock();
        disarm_all();
        for _ in 0..1000 {
            assert!(check("wal.append.short_write").is_none());
        }
        assert_eq!(hits("wal.append.short_write"), 0);
    }

    #[test]
    fn on_hit_trigger_fires_exactly_once_at_n() {
        let _g = lock();
        disarm_all();
        arm("p.x", Fault { error: true, ..Fault::default() }, Trigger::OnHit(3), 0);
        assert!(check("p.x").is_none());
        assert!(check("p.x").is_none());
        let f = check("p.x").expect("third hit fires");
        assert!(f.error);
        for _ in 0..10 {
            assert!(check("p.x").is_none(), "OnHit fires once");
        }
        assert_eq!(hits("p.x"), 13);
        assert_eq!(fired("p.x"), 1);
        disarm_all();
    }

    #[test]
    fn probability_trigger_is_deterministic_per_seed() {
        let _g = lock();
        disarm_all();
        let run = |seed: u64| -> Vec<bool> {
            arm(
                "p.prob",
                Fault { panic: true, ..Fault::default() },
                Trigger::Probability(0.5),
                seed,
            );
            let fires = (0..64).map(|_| check("p.prob").is_some()).collect();
            disarm_all();
            fires
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same firing pattern");
        assert_ne!(a, c, "different seed diverges");
        assert!(a.iter().filter(|&&f| f).count() > 10, "p=0.5 fires often");
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _g = lock();
        disarm_all();
        let n = arm_from_spec(
            "wal.append.short_write=short:12,stall:1@h2; writer.apply.panic=panic@h1",
            1,
        )
        .unwrap();
        assert_eq!(n, 2);
        let f = check("writer.apply.panic").expect("h1 fires on first hit");
        assert!(f.panic && !f.kill && f.short_write.is_none());
        assert!(check("wal.append.short_write").is_none());
        let f = check("wal.append.short_write").expect("h2 fires on second hit");
        assert_eq!(f.short_write, Some(12));
        assert_eq!(f.stall_ms, 1);
        disarm_all();

        assert!(arm_from_spec("nope", 0).is_err(), "missing '='");
        assert!(arm_from_spec("a=warp@h1", 0).is_err(), "unknown effect");
        assert!(arm_from_spec("a=err@x1", 0).is_err(), "unknown trigger");
        assert!(arm_from_spec("net.partition=partition:4000@h40", 0).is_err(), "removed effect");
        disarm_all();
    }

    #[test]
    fn trip_surfaces_error_leg() {
        let f = Fault { error: true, stall_ms: 1, ..Fault::default() };
        assert!(f.trip("unit.test"));
        let f = Fault::default();
        assert!(!f.trip("unit.test"));
    }

    #[test]
    #[should_panic(expected = "injected fault at unit.panic")]
    fn trip_panics_when_asked() {
        Fault { panic: true, ..Fault::default() }.trip("unit.panic");
    }
}
