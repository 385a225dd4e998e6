#![warn(missing_docs)]

//! # snb-bench
//!
//! The experiment harness: report binaries regenerating the tables of
//! the reproduced evaluation (experiment ids E1–E10, see `DESIGN.md`
//! §4), the thread / stream / partition sweep, and the service's
//! pass/fail gates (`service_load`). Performance numbers come from the
//! repo benchmark (`benchmark/`).
//!
//! Every binary takes an optional scale-factor name argument (default
//! `0.003`) and an optional seed, e.g.
//!
//! ```text
//! cargo run --release -p snb-bench --bin bi_runtimes -- 0.01
//! ```

use snb_datagen::GeneratorConfig;
use snb_store::{store_for_config, Store};

/// Parses `[sf-name] [seed]` from argv with defaults. `--`-prefixed
/// flags (see [`cli_flag`]) are skipped, so positionals and flags can
/// mix in any order.
pub fn cli_config() -> GeneratorConfig {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    let sf = args.first().map(String::as_str).unwrap_or("0.003");
    let mut config = GeneratorConfig::for_scale_name(sf)
        .unwrap_or_else(|| panic!("unknown scale factor {sf:?}; try 0.001/0.003/0.01/0.03/0.1"));
    if let Some(seed) = args.get(1) {
        config.seed = seed.parse().expect("seed must be an integer");
    }
    config
}

/// Whether boolean flag `name` (e.g. `"--profile"`) appears in argv.
pub fn cli_flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

/// Builds the store for a config, printing progress.
pub fn build_store_verbose(config: &GeneratorConfig) -> Store {
    eprintln!(
        "# generating SF with {} persons (seed {}), loading store ...",
        config.persons, config.seed
    );
    let started = std::time::Instant::now();
    let store = store_for_config(config);
    let stats = store.stats();
    eprintln!(
        "# loaded in {:.2?}: {} nodes, {} edges, {} persons, {} messages",
        started.elapsed(),
        stats.nodes,
        stats.edges,
        stats.persons,
        stats.posts + stats.comments
    );
    store
}

/// Prints a pipe-separated table with a header and aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let parts: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        parts.join(" | ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a `Duration` in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12us");
        assert_eq!(fmt_duration(Duration::from_micros(1_500)), "1.5ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_500)), "2.50s");
    }
}
