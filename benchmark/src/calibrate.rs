//! `--calibrate N`: runs the whole benchmark N times, each round with
//! another seed and alternating workload order, and reports how far the
//! end-to-end metrics move between runs of the same code.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::{metrics, run_child, stats, WORKLOADS};

/// The driver rejects a bound above this share.
const MAX_BOUND: f64 = 0.25;

pub fn run(rounds: usize, base_seed: u64, seconds: u64) -> Result<(), String> {
    if rounds < 2 {
        return Err("--calibrate needs at least 2 rounds".into());
    }
    // values[(workload, metric)] in round order.
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for round in 0..rounds {
        let mut order = WORKLOADS;
        if round % 2 == 1 {
            order.reverse();
        }
        for name in order {
            eprintln!("# calibrate round {}/{rounds}: {name}", round + 1);
            let result = run_child(name, base_seed + round as u64, seconds, false, false)?;
            for (metric, v) in result.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
                let value =
                    v.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
                values.entry((name, metric.clone())).or_default().push(value);
            }
        }
    }

    println!(
        "| workload | metric | median | q1 | q3 | min | max | IQR/median | range/median | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut proposed: BTreeMap<String, f64> = BTreeMap::new();
    let mut disagreements = Vec::new();
    for name in WORKLOADS {
        for (def, floor) in metrics::end_to_end() {
            let v = &values[&(name, def.name.clone())];
            let [q1, q2, q3] = stats::quartiles(v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let range = (max - min) / q2;
            let bound = floor.max(2.0 * range).min(MAX_BOUND);
            let slot = proposed.entry(def.name.clone()).or_insert(floor);
            *slot = slot.max(bound);
            println!(
                "| {name} | {} ({}) | {q2:.4} | {q1:.4} | {q3:.4} | {min:.4} | {max:.4} | {:.1} % | {:.1} % | {:.0} % |",
                def.name,
                def.unit,
                stats::iqr_share(v) * 100.0,
                range * 100.0,
                bound * 100.0,
            );
            // Self-agreement: the odd and the even rounds are two sets
            // of runs of the same code; their medians must agree
            // within the bound, in the metric's worse direction.
            let odd: Vec<f64> = v.iter().copied().step_by(2).collect();
            let even: Vec<f64> = v.iter().copied().skip(1).step_by(2).collect();
            let (a, b) = (stats::median(&odd), stats::median(&even));
            let worse = if def.better == "lower" { b / a - 1.0 } else { a / b - 1.0 };
            if worse.abs() > bound {
                disagreements.push(format!(
                    "{name} {}: odd rounds {a:.4}, even rounds {b:.4}, {:.1} % apart (bound {:.0} %)",
                    def.name,
                    worse.abs() * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    println!();
    println!("Proposed bounds (widest over the workloads, never below the floor):");
    for (def, _) in metrics::end_to_end() {
        println!("  {:<16} {:.2}", def.name, proposed[&def.name]);
    }
    if disagreements.is_empty() {
        println!("Self-agreement: odd and even rounds agree within the bounds on every metric.");
        Ok(())
    } else {
        Err(format!("odd and even rounds disagree:\n  {}", disagreements.join("\n  ")))
    }
}
