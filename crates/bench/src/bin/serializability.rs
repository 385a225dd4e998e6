//! Experiment E11 — concurrent mixed read/write execution and the
//! spec §6.4 serializability check, on the snapshot-published store.
//!
//! The system under test is `snb_driver::run_concurrent`: a writer
//! publishes immutable store versions batch by batch while reader
//! threads pin snapshots lock-free and a checker validates invariants
//! on pinned versions; the final published state must equal a serial
//! replay.

use snb_datagen::dictionaries::StaticWorld;
use snb_driver::run_concurrent;
use snb_interactive::IcParams;
use snb_params::ParamGen;
use snb_store::bulk_store_and_stream;

fn main() {
    let config = snb_bench::cli_config();
    let world = StaticWorld::build(config.seed);
    let mut rows = Vec::new();
    for readers in [1usize, 2, 4] {
        let bindings: Vec<IcParams> = {
            let (store, _) = bulk_store_and_stream(&config);
            let gen = ParamGen::new(&store, config.seed);
            (1..=14u8).flat_map(|q| gen.ic_params(q, 2)).collect()
        };

        let (store, events) = bulk_store_and_stream(&config);
        let (final_store, report) =
            run_concurrent(store, &world, &events, &bindings, readers).expect("run succeeds");
        final_store.validate_invariants().expect("final state consistent");
        rows.push(vec![
            "snapshot".to_string(),
            readers.to_string(),
            report.updates_applied.to_string(),
            report.reads_executed.to_string(),
            report.versions_published.to_string(),
            report.readers_blocked.to_string(),
            snb_bench::fmt_duration(report.wall),
            format!("{:.0}", report.updates_applied as f64 / report.wall.as_secs_f64()),
        ]);
    }
    snb_bench::print_table(
        "E11: concurrent updates + reads (snapshot SUT, §6.4)",
        &["sut", "readers", "updates", "reads", "versions", "blocked", "wall", "updates/s"],
        &rows,
    );

    // Serial-equivalence proof for the snapshot SUT.
    let (store, events) = bulk_store_and_stream(&config);
    let (concurrent, _) = run_concurrent(store, &world, &events, &[], 2).expect("run succeeds");
    let (mut serial, events2) = bulk_store_and_stream(&config);
    for e in &events2 {
        serial.apply_event(e, &world).expect("serial replay");
    }
    assert_eq!(concurrent.persons.len(), serial.persons.len());
    assert_eq!(concurrent.messages.len(), serial.messages.len());
    assert_eq!(concurrent.knows.edge_count(), serial.knows.edge_count());
    println!("\nserial-equivalence check: concurrent final state == serial replay ✓");
}
