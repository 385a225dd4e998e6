//! The Interactive-workload driver (spec §3.4 / §6.2).
//!
//! Replays the update streams against a bulk-loaded store while
//! interleaving complex reads at the per-SF frequencies and chaining
//! short-read sequences after every complex read (person-centric or
//! message-centric, with a decaying continuation probability, spec
//! §3.4). Two pacing modes:
//!
//! * [`Pacing::FullSpeed`] — execute back-to-back (latency-focused
//!   runs, tests);
//! * [`Pacing::Timed`] — map simulation time to wall-clock via the Time
//!   Compression Ratio and sleep until each operation's schedule (audit
//!   runs; enables the 95%-on-time check).

use std::time::{Duration, Instant};

use snb_core::rng::Rng;
use snb_core::SnbResult;
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::stream::TimedEvent;
use snb_interactive::short;
use snb_interactive::IcParams;
use snb_params::ParamGen;
use snb_store::Store;

use crate::log::{LogRecord, ResultsLog};
use crate::schedule::{build_schedule, OpKind};

/// Wall-clock pacing of the schedule.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Run operations back-to-back.
    FullSpeed,
    /// One simulated millisecond takes `1 / speedup` wall milliseconds;
    /// the Time Compression Ratio of §3.4 (larger = faster).
    Timed {
        /// Simulated-to-wall speedup factor.
        speedup: f64,
    },
}

/// Configuration of an interactive run.
#[derive(Clone, Debug)]
pub struct InteractiveConfig {
    /// Scale-factor name, selects the frequency column (Table B.1).
    pub sf_name: String,
    /// Pacing mode.
    pub pacing: Pacing,
    /// Short-read sequence continuation probability.
    pub short_read_continuation: f64,
    /// Driver seed (short-read choices).
    pub seed: u64,
    /// Complex-read parameter bindings per query type (cycled).
    pub bindings_per_query: usize,
}

impl Default for InteractiveConfig {
    fn default() -> Self {
        InteractiveConfig {
            sf_name: "1".into(),
            pacing: Pacing::FullSpeed,
            short_read_continuation: 0.6,
            seed: 42,
            bindings_per_query: 8,
        }
    }
}

/// The outcome of an interactive run.
pub struct InteractiveReport {
    /// Full results log.
    pub log: ResultsLog,
    /// Updates applied.
    pub updates_applied: usize,
    /// Complex reads executed.
    pub complex_reads: usize,
    /// Short reads executed.
    pub short_reads: usize,
}

/// Runs the interactive workload: replays `events` against `store`
/// (which must be the bulk load of the same dataset) with interleaved
/// reads.
pub fn run_interactive(
    store: &mut Store,
    world: &StaticWorld,
    events: &[TimedEvent],
    config: &InteractiveConfig,
) -> SnbResult<InteractiveReport> {
    let frequencies = crate::schedule::frequencies_for(&config.sf_name);
    let update_times: Vec<_> = events.iter().map(|e| e.timestamp).collect();
    let schedule = build_schedule(&update_times, &frequencies);

    // Pre-generate complex-read bindings from the *bulk* store.
    let bindings: Vec<Vec<IcParams>> = {
        let gen = ParamGen::new(store, config.seed);
        (1..=14u8).map(|q| gen.ic_params(q, config.bindings_per_query)).collect()
    };

    let sim_start = schedule.first().map(|o| o.sim_time.0).unwrap_or(0);
    let wall_start = Instant::now();
    let sim_to_wall = |sim: i64| -> Duration {
        match config.pacing {
            Pacing::FullSpeed => Duration::ZERO,
            Pacing::Timed { speedup } => {
                Duration::from_secs_f64(((sim - sim_start).max(0) as f64 / 1000.0) / speedup)
            }
        }
    };

    let mut rng = Rng::derive(config.seed, 0, 555);
    let mut log = ResultsLog::default();
    let mut updates_applied = 0;
    let mut complex_reads = 0;
    let mut short_reads = 0;
    // Pools feeding short-read parameters (person-centric and
    // message-centric), seeded by complex-read results like the real
    // driver's dynamic substitution.
    let mut person_pool: Vec<u64> = store.persons.id.iter().take(32).copied().collect();
    let mut message_pool: Vec<u64> = store.messages.id.iter().take(32).copied().collect();

    for op in &schedule {
        let scheduled = sim_to_wall(op.sim_time.0);
        if let Pacing::Timed { .. } = config.pacing {
            let target = wall_start + scheduled;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let actual = wall_start.elapsed();
        match op.kind {
            OpKind::Update(i) => {
                let started = Instant::now();
                store.apply_event(&events[i], world)?;
                updates_applied += 1;
                log.push(LogRecord {
                    operation: format!("IU {}", events[i].event.operation_id()),
                    scheduled_start: scheduled,
                    actual_start: actual,
                    latency: started.elapsed(),
                    result_count: 0,
                });
            }
            OpKind::Complex(q, binding_ix) => {
                let set = &bindings[q as usize - 1];
                if set.is_empty() {
                    continue;
                }
                let params = &set[binding_ix % set.len()];
                let started = Instant::now();
                let rows = snb_interactive::run_complex(store, params);
                complex_reads += 1;
                log.push(LogRecord {
                    operation: format!("IC {q}"),
                    scheduled_start: scheduled,
                    actual_start: actual,
                    latency: started.elapsed(),
                    result_count: rows,
                });
                // Feed the short-read pools from the binding.
                if let IcParams::Q2(p) = params {
                    person_pool.push(p.person_id);
                }
                // Chain short-read sequences (§3.4: person-centric or
                // message-centric, repeating with decaying probability).
                let person_centric = q % 2 == 0;
                let mut chain = 1usize;
                loop {
                    short_reads += run_short_sequence(
                        store,
                        person_centric,
                        &mut person_pool,
                        &mut message_pool,
                        &mut rng,
                        wall_start,
                        scheduled,
                        &mut log,
                    );
                    let p = config.short_read_continuation.powi(chain as i32);
                    if !rng.chance(p) {
                        break;
                    }
                    chain += 1;
                }
            }
        }
    }
    Ok(InteractiveReport { log, updates_applied, complex_reads, short_reads })
}

#[allow(clippy::too_many_arguments)]
fn run_short_sequence(
    store: &Store,
    person_centric: bool,
    person_pool: &mut Vec<u64>,
    message_pool: &mut Vec<u64>,
    rng: &mut Rng,
    wall_start: Instant,
    scheduled: Duration,
    log: &mut ResultsLog,
) -> usize {
    let mut executed = 0;
    let mut log_one = |name: &str, started: Instant, rows: usize, actual: Duration| {
        log.push(LogRecord {
            operation: name.to_string(),
            scheduled_start: scheduled,
            actual_start: actual,
            latency: started.elapsed(),
            result_count: rows,
        });
    };
    if person_centric {
        if person_pool.is_empty() {
            return 0;
        }
        let pid = person_pool[rng.index(person_pool.len())];
        for (name, runner) in [("IS 1", 1u8), ("IS 2", 2), ("IS 3", 3)] {
            let actual = wall_start.elapsed();
            let started = Instant::now();
            let rows = match runner {
                1 => short::is1::run(store, &short::is1::Params { person_id: pid }).len(),
                2 => {
                    let rows = short::is2::run(store, &short::is2::Params { person_id: pid });
                    // Feed message pool from results (dynamic params).
                    message_pool.extend(rows.iter().take(2).map(|r| r.message_id));
                    rows.len()
                }
                _ => {
                    let rows = short::is3::run(store, &short::is3::Params { person_id: pid });
                    person_pool.extend(rows.iter().take(2).map(|r| r.person_id));
                    rows.len()
                }
            };
            log_one(name, started, rows, actual);
            executed += 1;
        }
    } else {
        if message_pool.is_empty() {
            return 0;
        }
        let mid = message_pool[rng.index(message_pool.len())];
        for runner in 4u8..=7 {
            let actual = wall_start.elapsed();
            let started = Instant::now();
            let rows = match runner {
                4 => short::is4::run(store, &short::is4::Params { message_id: mid }).len(),
                5 => {
                    let rows = short::is5::run(store, &short::is5::Params { message_id: mid });
                    person_pool.extend(rows.iter().map(|r| r.person_id));
                    rows.len()
                }
                6 => short::is6::run(store, &short::is6::Params { message_id: mid }).len(),
                _ => {
                    let rows = short::is7::run(store, &short::is7::Params { message_id: mid });
                    message_pool.extend(rows.iter().take(2).map(|r| r.comment_id));
                    rows.len()
                }
            };
            log_one(&format!("IS {runner}"), started, rows, actual);
            executed += 1;
        }
    }
    // Bound the pools so long runs don't grow memory unboundedly.
    if person_pool.len() > 4096 {
        person_pool.drain(0..2048);
    }
    if message_pool.len() > 4096 {
        message_pool.drain(0..2048);
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::GeneratorConfig;
    use snb_store::bulk_store_and_stream;

    fn setup() -> (Store, StaticWorld, Vec<TimedEvent>) {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 100;
        let (store, events) = bulk_store_and_stream(&c);
        let world = StaticWorld::build(c.seed);
        (store, world, events)
    }

    #[test]
    fn full_speed_run_executes_everything() {
        let (mut store, world, events) = setup();
        let report =
            run_interactive(&mut store, &world, &events, &InteractiveConfig::default()).unwrap();
        assert_eq!(report.updates_applied, events.len());
        assert!(report.complex_reads > 0, "no complex reads scheduled");
        assert!(report.short_reads > 0, "no short reads chained");
        // Log covers all three classes.
        let labels: std::collections::HashSet<&str> =
            report.log.records.iter().map(|r| r.operation.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("IU")));
        assert!(labels.iter().any(|l| l.starts_with("IC")));
        assert!(labels.iter().any(|l| l.starts_with("IS")));
        store.validate_invariants().unwrap();
    }

    #[test]
    fn timed_run_passes_audit_at_high_speedup() {
        let (mut store, world, events) = setup();
        // Take a slice of events so the timed run is short.
        let slice: Vec<TimedEvent> = events.into_iter().take(300).collect();
        let sim_span =
            (slice.last().unwrap().timestamp.0 - slice[0].timestamp.0).max(1) as f64 / 1000.0;
        let config = InteractiveConfig {
            pacing: Pacing::Timed { speedup: sim_span / 0.5 }, // ~0.5 s wall
            ..InteractiveConfig::default()
        };
        let report = run_interactive(&mut store, &world, &slice, &config).unwrap();
        assert!(report.log.passes_audit(), "run missed its schedule");
        assert!(report.log.on_schedule_fraction(std::time::Duration::from_secs(1)) > 0.99);
    }

    #[test]
    fn deterministic_operation_sequence() {
        let (mut s1, w1, e1) = setup();
        let (mut s2, w2, e2) = setup();
        let r1 = run_interactive(&mut s1, &w1, &e1, &InteractiveConfig::default()).unwrap();
        let r2 = run_interactive(&mut s2, &w2, &e2, &InteractiveConfig::default()).unwrap();
        let ops1: Vec<&str> = r1.log.records.iter().map(|r| r.operation.as_str()).collect();
        let ops2: Vec<&str> = r2.log.records.iter().map(|r| r.operation.as_str()).collect();
        assert_eq!(ops1, ops2);
        let rows1: Vec<usize> = r1.log.records.iter().map(|r| r.result_count).collect();
        let rows2: Vec<usize> = r2.log.records.iter().map(|r| r.result_count).collect();
        assert_eq!(rows1, rows2);
    }
}
