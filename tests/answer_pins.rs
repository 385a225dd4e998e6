//! Answer pins: every BI query's results on 8 curated bindings at
//! SF 0.003 (seed 42), hashed and compared with the committed table in
//! `tests/answer_pins.txt`. A plan rewrite that keeps every answer
//! leaves the table as it is; a change that moves an answer rewrites
//! the table (a failure prints the whole current table) and says why.
//!
//! Each table line is `qNN bB rows=R hash=H`, where `H` is
//! `fnv64` over the binding's rows, each row's `Debug` text followed by
//! a newline.

use std::fmt::{Debug, Write};

use ldbc_snb::bi::{self, BiParams};
use ldbc_snb::core::bytes::fnv64;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{store_for_config, Store};

const SEED: u64 = 42;

const BINDINGS: usize = 8;

const TABLE: &str = include_str!("answer_pins.txt");

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
        ($($variant:ident => $module:ident),* $(,)?) => {
            match params {
                $(BiParams::$variant(p) => pin(&bi::$module::run(s, p)),)*
            }
        };
    }
    pin_each!(
        Q1 => bi01, Q2 => bi02, Q3 => bi03, Q4 => bi04, Q5 => bi05,
        Q6 => bi06, Q7 => bi07, Q8 => bi08, Q9 => bi09, Q10 => bi10,
        Q11 => bi11, Q12 => bi12, Q13 => bi13, Q14 => bi14, Q15 => bi15,
        Q16 => bi16, Q17 => bi17, Q18 => bi18, Q19 => bi19, Q20 => bi20,
        Q21 => bi21, Q22 => bi22, Q23 => bi23, Q24 => bi24, Q25 => bi25,
    )
}

#[test]
fn every_bi_answer_matches_its_pin() {
    let config = GeneratorConfig::for_scale_name("0.003").unwrap().with_seed(SEED);
    let s = store_for_config(&config);
    let gen = ParamGen::new(&s, SEED);
    let mut table = String::new();
    for q in 1..=25u8 {
        let bindings = gen.bi_params(q, BINDINGS);
        assert_eq!(bindings.len(), BINDINGS, "BI {q} curates {BINDINGS} bindings");
        for (b, params) in bindings.iter().enumerate() {
            let (rows, hash) = answer(&s, params);
            writeln!(table, "q{q:02} b{b} rows={rows} hash={hash:016x}").unwrap();
        }
    }
    if table != TABLE {
        let moved: Vec<_> =
            table.lines().zip(TABLE.lines()).filter(|(got, want)| got != want).collect();
        panic!(
            "{} of {} pins moved (got, pinned): {moved:#?}\ncurrent table:\n{table}",
            moved.len() + table.lines().count().abs_diff(TABLE.lines().count()),
            TABLE.lines().count(),
        );
    }
}
