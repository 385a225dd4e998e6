//! End-to-end integration: generate → bulk-load → replay update
//! streams → run both workloads, with full optimized-vs-naive
//! cross-validation of the BI workload (the benchmark's validation
//! mode, spec §6.2).

use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{bulk_store_and_stream, store_for_config};

fn config(persons: u64, seed: u64) -> GeneratorConfig {
    let mut c = GeneratorConfig::for_scale_name("0.001").expect("scale exists");
    c.persons = persons;
    c.seed = seed;
    c
}

#[test]
fn validate_all_bi_queries_on_two_seeds() {
    for seed in [531_389u64, 20_220_701] {
        let c = config(130, seed);
        let store = store_for_config(&c);
        let validated =
            ldbc_snb::driver::validate_all(&store, &ldbc_snb::driver::ALL_BI_QUERIES, 3, seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(validated >= 50, "seed {seed}: only {validated} bindings validated");
    }
}

#[test]
fn all_ic_queries_run_on_curated_bindings() {
    let c = config(130, 99);
    let store = store_for_config(&c);
    let gen = ParamGen::new(&store, c.seed);
    let mut nonzero = 0;
    for q in 1..=14u8 {
        for b in gen.ic_params(q, 3) {
            if ldbc_snb::interactive::run_complex(&store, &b) > 0 {
                nonzero += 1;
            }
        }
    }
    // Most curated bindings should produce results on a connected hub.
    assert!(nonzero >= 14, "only {nonzero} bindings returned rows");
}

#[test]
fn bi_results_identical_on_bulk_plus_replay_vs_full_load() {
    // Loading everything at once and loading the bulk part + replaying
    // the stream must be indistinguishable to every BI query.
    let c = config(110, 7);
    let full = store_for_config(&c);
    let (mut replayed, events) = bulk_store_and_stream(&c);
    let world = StaticWorld::build(c.seed);
    for e in &events {
        replayed.apply_event(e, &world).expect("replay applies");
    }
    let gen = ParamGen::new(&full, c.seed);
    for q in ldbc_snb::driver::ALL_BI_QUERIES {
        for b in gen.bi_params(q, 2) {
            let a = ldbc_snb::bi::run(&full, &b);
            let r = ldbc_snb::bi::run(&replayed, &b);
            assert_eq!(a, r, "BI {q} differs between full load and replay");
        }
    }
    // And folding the overflow must not change results either.
    replayed.fold_overflow();
    for q in [2u8, 12, 14, 21, 25] {
        for b in gen.bi_params(q, 2) {
            assert_eq!(
                ldbc_snb::bi::run(&full, &b),
                ldbc_snb::bi::run(&replayed, &b),
                "BI {q} differs after compaction"
            );
        }
    }
}

#[test]
fn interactive_driver_full_run_is_consistent() {
    let c = config(100, 3);
    let (mut store, events) = bulk_store_and_stream(&c);
    let world = StaticWorld::build(c.seed);
    let report = ldbc_snb::driver::run_interactive(
        &mut store,
        &world,
        &events,
        &ldbc_snb::driver::InteractiveConfig::default(),
    )
    .expect("driver run succeeds");
    assert_eq!(report.updates_applied, events.len());
    assert!(report.complex_reads > 0);
    store.validate_invariants().expect("consistent after driven run");
    // The frequency mix: IC 1 (freq 26) should have ~updates/26
    // instances.
    let ic1 = report.log.records.iter().filter(|r| r.operation == "IC 1").count();
    let expected = events.len() / 26;
    assert!(ic1.abs_diff(expected) <= 1, "IC 1 instances {ic1} vs expected {expected}");
}

#[test]
fn generation_scales_monotonically() {
    let small = store_for_config(&config(60, 1)).stats();
    let large = store_for_config(&config(180, 1)).stats();
    assert!(large.nodes > small.nodes);
    assert!(large.edges > small.edges);
    assert!(large.posts > small.posts);
    // Per-person density should be roughly stable (within 3x).
    let d_small = small.edges as f64 / small.persons as f64;
    let d_large = large.edges as f64 / large.persons as f64;
    assert!(d_large < d_small * 3.0 && d_large > d_small / 3.0);
}

#[test]
fn validate_all_ic_queries_dual_engine() {
    // Both interactive engines (optimized and naive) must agree on
    // every curated binding — the IC analogue of the BI validation.
    let c = config(120, 17);
    let store = store_for_config(&c);
    let gen = ParamGen::new(&store, c.seed);
    let mut validated = 0;
    for q in 1..=14u8 {
        for b in gen.ic_params(q, 3) {
            ldbc_snb::interactive::validate_complex(&store, &b).unwrap_or_else(|e| panic!("{e}"));
            validated += 1;
        }
    }
    assert!(validated >= 28, "only {validated} IC bindings validated");
}
