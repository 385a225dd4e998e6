//! Answer pins: every BI and IC query's results on 8 curated bindings
//! at SF 0.003 (seed 42), hashed and compared with the committed tables
//! in `tests/answer_pins.txt` (BI) and `tests/ic_answer_pins.txt` (IC). A plan rewrite that keeps every answer
//! leaves the table as it is; a change that moves an answer rewrites
//! the table (a failure prints the whole current table) and says why.
//!
//! Each table line is `qNN bB rows=R hash=H`, where `H` is
//! `fnv64` over the binding's rows, each row's `Debug` text followed by
//! a newline.

use std::fmt::{Debug, Write};
use std::sync::OnceLock;

use ldbc_snb::bi::{self, BiParams};
use ldbc_snb::core::bytes::fnv64;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::interactive::{self as ic, IcParams};
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{store_for_config, Store};

const SEED: u64 = 42;

const BINDINGS: usize = 8;

const TABLE: &str = include_str!("answer_pins.txt");

const IC_TABLE: &str = include_str!("ic_answer_pins.txt");

fn pin<R: Debug>(rows: &[R]) -> (usize, u64) {
    let mut text = String::new();
    for r in rows {
        writeln!(text, "{r:?}").expect("writing to a String");
    }
    (rows.len(), fnv64(text.as_bytes()))
}

/// Runs `params` on the optimized engine and pins its typed rows.
fn answer(s: &Store, params: &BiParams) -> (usize, u64) {
    macro_rules! pin_each {
        ($($n:literal => $variant:ident($module:ident),)*) => {
            match params {
                $(BiParams::$variant(p) => pin(&bi::$module::run(s, p)),)*
            }
        };
    }
    bi::bi_queries!(pin_each)
}

/// Runs `params` on the optimized engine and pins its typed rows.
fn ic_answer(s: &Store, params: &IcParams) -> (usize, u64) {
    macro_rules! pin_each {
        ($($n:literal => $variant:ident($module:ident $(, $ctx:ident)?),)*) => {
            match params {
                $(IcParams::$variant(p) => pin(&ic::$module::run(s, p)),)*
            }
        };
    }
    ic::ic_queries!(pin_each)
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| {
        store_for_config(&GeneratorConfig::for_scale_name("0.003").unwrap().with_seed(SEED))
    })
}

#[test]
fn every_bi_answer_matches_its_pin() {
    let s = store();
    let gen = ParamGen::new(s, SEED);
    let mut table = String::new();
    for q in 1..=25u8 {
        let bindings = gen.bi_params(q, BINDINGS);
        assert_eq!(bindings.len(), BINDINGS, "BI {q} curates {BINDINGS} bindings");
        for (b, params) in bindings.iter().enumerate() {
            let (rows, hash) = answer(s, params);
            writeln!(table, "q{q:02} b{b} rows={rows} hash={hash:016x}").unwrap();
        }
    }
    assert_table(&table, TABLE);
}

#[test]
fn every_ic_answer_matches_its_pin() {
    let s = store();
    let gen = ParamGen::new(s, SEED);
    let mut table = String::new();
    for q in 1..=14u8 {
        let bindings = gen.ic_params(q, BINDINGS);
        assert_eq!(bindings.len(), BINDINGS, "IC {q} curates {BINDINGS} bindings");
        for (b, params) in bindings.iter().enumerate() {
            let (rows, hash) = ic_answer(s, params);
            writeln!(table, "q{q:02} b{b} rows={rows} hash={hash:016x}").unwrap();
        }
    }
    assert_table(&table, IC_TABLE);
}

fn assert_table(table: &str, pinned: &str) {
    if table != pinned {
        let moved: Vec<_> =
            table.lines().zip(pinned.lines()).filter(|(got, want)| got != want).collect();
        panic!(
            "{} of {} pins moved (got, pinned): {moved:#?}\ncurrent table:\n{table}",
            moved.len() + table.lines().count().abs_diff(pinned.lines().count()),
            pinned.lines().count(),
        );
    }
}
