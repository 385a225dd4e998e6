//! Binding pins: every curated SF 0.003 (seed 42) binding of the 25 BI
//! and 14 IC queries, 8 per query, in both of its serial forms.
//!
//! * Wire: each binding's `encode_request` payload decodes back to the
//!   same binding, and each query's payloads, concatenated, hash to the
//!   pin in `tests/wire_pins.txt` (`qNN n=N fnv64=H` lines, `bi`/`ic`).
//! * Substitution files: `write_substitution_files` hashes to the pins in
//!   `tests/param_file_pins.txt`, one `fnv64` per file, and every line
//!   reads back to the binding it was written from.
//!
//! A failure prints the whole current table.

use std::fmt::Write;
use std::path::PathBuf;
use std::sync::OnceLock;

use ldbc_snb::bi::{bi02, BiParams};
use ldbc_snb::core::bytes::fnv64;
use ldbc_snb::core::Date;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::params::{read_bi_params, read_ic_params, write_substitution_files, ParamGen};
use ldbc_snb::server::proto::{decode_request, encode_request, Request, ServiceParams};
use ldbc_snb::store::{store_for_config, Store};

const SEED: u64 = 42;

const BINDINGS: usize = 8;

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| {
        store_for_config(&GeneratorConfig::for_scale_name("0.003").unwrap().with_seed(SEED))
    })
}

/// Every curated binding, grouped by query: `("bi01", [..])` … `("ic14", [..])`.
fn curated() -> Vec<(String, Vec<ServiceParams>)> {
    let gen = ParamGen::new(store(), SEED);
    let bi = (1..=25u8).map(|q| {
        let bindings = gen.bi_params(q, BINDINGS);
        (format!("bi{q:02}"), bindings.into_iter().map(ServiceParams::Bi).collect())
    });
    let ic = (1..=14u8).map(|q| {
        let bindings = gen.ic_params(q, BINDINGS);
        (format!("ic{q:02}"), bindings.into_iter().map(ServiceParams::Ic).collect())
    });
    bi.chain(ic).collect()
}

fn assert_table(table: &str, pinned: &str, what: &str) {
    if table != pinned {
        let moved: Vec<_> =
            table.lines().zip(pinned.lines()).filter(|(got, want)| got != want).collect();
        panic!("{what}: pins moved (got, pinned): {moved:#?}\ncurrent table:\n{table}");
    }
}

#[test]
fn every_binding_round_trips_the_wire_and_matches_its_pin() {
    let mut table = String::new();
    for (name, bindings) in curated() {
        let mut frames = Vec::new();
        for (b, params) in bindings.iter().enumerate() {
            let req = Request { id: b as u64, deadline_us: 0, min_seq: 0, params: params.clone() };
            let payload = encode_request(&req);
            let back = decode_request(&payload).expect("a curated binding decodes");
            assert_eq!(format!("{:?}", back.params), format!("{params:?}"), "{name} b{b}");
            frames.extend_from_slice(&payload);
        }
        writeln!(table, "{name} n={} fnv64={:016x}", bindings.len(), fnv64(&frames)).unwrap();
    }
    assert_table(&table, include_str!("wire_pins.txt"), "wire bytes");
}

/// A fresh directory for one test's substitution files.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snb_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_substitution_file_matches_its_pin() {
    let gen = ParamGen::new(store(), SEED);
    let dir = scratch("file_pins");
    let files = write_substitution_files(&gen, BINDINGS, &dir).unwrap();
    let mut table = String::new();
    for name in &files {
        let bytes = std::fs::read(dir.join("substitution_parameters").join(name)).unwrap();
        writeln!(table, "{name} fnv64={:016x}", fnv64(&bytes)).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_table(&table, include_str!("param_file_pins.txt"), "substitution files");
}

#[test]
fn every_binding_round_trips_its_substitution_file() {
    let gen = ParamGen::new(store(), SEED);
    let dir = scratch("file_round_trip");
    write_substitution_files(&gen, BINDINGS, &dir).unwrap();
    for q in 1..=25u8 {
        let read = read_bi_params(&dir, q).unwrap();
        assert_eq!(format!("{read:?}"), format!("{:?}", gen.bi_params(q, BINDINGS)), "BI {q}");
    }
    for q in 1..=14u8 {
        let read = read_ic_params(&dir, q).unwrap();
        assert_eq!(format!("{read:?}"), format!("{:?}", gen.ic_params(q, BINDINGS)), "IC {q}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The JSON reader's hostile cases are `snb_core::binding`'s unit tests;
/// here BI 2's `minCount`, which the parent's writer left out, and an
/// unknown query number.
#[test]
fn bi2_min_count_has_its_key_and_unknown_queries_are_refused() {
    let p = BiParams::Q2(bi02::Params {
        start_date: Date::from_ymd(2010, 1, 1),
        end_date: Date::from_ymd(2010, 2, 1),
        country1: "Chile".into(),
        country2: "Peru".into(),
        min_count: 100,
    });
    let line = p.to_json();
    assert_eq!(
        line,
        r#"{"startDate": "2010-01-01", "endDate": "2010-02-01", "country1": "Chile", "country2": "Peru", "minCount": 100}"#
    );
    assert_eq!(format!("{:?}", BiParams::from_json(2, &line).unwrap()), format!("{p:?}"));
    let err = BiParams::from_json(2, &line.replace(r#", "minCount": 100"#, "")).unwrap_err();
    assert_eq!(err.0, r#"missing key "minCount""#);
    let err = BiParams::from_json(26, &line).unwrap_err();
    assert_eq!(err.0, "unknown BI query 26");
}
