//! Robustness sweep: every query must handle degenerate worlds without
//! panicking — a near-empty network, persons with no friends, forums
//! with no posts. (Failure-injection layer of the test plan.)

use ldbc_snb::bi::*;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::interactive::{ic13, short};
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::store_for_config;
use snb_core::Date;

fn tiny(persons: u64) -> ldbc_snb::store::Store {
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = persons;
    store_for_config(&c)
}

#[test]
fn all_bi_queries_survive_a_three_person_world() {
    let s = tiny(3);
    let gen = ParamGen::new(&s, 1);
    for q in ldbc_snb::driver::ALL_BI_QUERIES {
        // Curated bindings may be empty at this scale; direct bindings
        // must still not panic.
        for b in gen.bi_params(q, 2) {
            let _ = ldbc_snb::bi::run(&s, &b);
            let _ = ldbc_snb::bi::run_naive(&s, &b);
        }
    }
    // Hand-rolled bindings with parameters that match nothing.
    let _ = bi01::run(&s, &bi01::Params { date: Date::from_ymd(2005, 1, 1) });
    let _ = bi05::run(&s, &bi05::Params { country: "New_Zealand".into() });
    let _ = bi13::run(&s, &bi13::Params { country: "Sweden".into() });
    let _ = bi17::run(&s, &bi17::Params { country: "Hungary".into() });
    let _ = bi20::run(&s, &bi20::Params { tag_classes: vec!["Thing".into()] });
}

#[test]
fn interactive_queries_survive_isolated_persons() {
    let s = tiny(5);
    for pid in s.persons.id.iter().copied() {
        let _ = short::is1::run(&s, &short::is1::Params { person_id: pid });
        let _ = short::is2::run(&s, &short::is2::Params { person_id: pid });
        let _ = short::is3::run(&s, &short::is3::Params { person_id: pid });
        let _ = ldbc_snb::interactive::ic07::run(
            &s,
            &ldbc_snb::interactive::ic07::Params { person_id: pid },
        );
        let _ = ldbc_snb::interactive::ic10::run(
            &s,
            &ldbc_snb::interactive::ic10::Params { person_id: pid, month: 6 },
        );
    }
    // Path queries between every pair.
    for &a in &s.persons.id {
        for &b in &s.persons.id {
            let rows = ic13::run(&s, &ic13::Params { person1_id: a, person2_id: b });
            assert_eq!(rows.len(), 1);
            if a == b {
                assert_eq!(rows[0].shortest_path_length, 0);
            }
        }
    }
}

#[test]
fn validation_holds_even_on_degenerate_worlds() {
    for n in [2u64, 5, 12] {
        let s = tiny(n);
        let gen = ParamGen::new(&s, n);
        for q in ldbc_snb::driver::ALL_BI_QUERIES {
            for b in gen.bi_params(q, 1) {
                ldbc_snb::bi::validate(&s, &b).unwrap_or_else(|e| panic!("n={n}: {e}"));
            }
        }
    }
}

#[test]
fn deleting_everything_leaves_a_queryable_store() {
    use ldbc_snb::store::DeleteOp;
    let mut s = tiny(6);
    let victims: Vec<DeleteOp> = s.persons.id.iter().copied().map(DeleteOp::Person).collect();
    s.apply_deletes(&victims).unwrap();
    assert_eq!(s.persons.len(), 0);
    assert_eq!(s.messages.len(), 0);
    assert_eq!(s.forums.len(), 0);
    s.validate_invariants().unwrap();
    // Queries on the empty world return empty results, not panics.
    assert!(bi01::run(&s, &bi01::Params { date: Date::from_ymd(2013, 1, 1) }).is_empty());
    assert!(bi12::run(&s, &bi12::Params { date: Date::from_ymd(2010, 1, 1), like_threshold: 0 })
        .is_empty());
    let t = bi17::run(&s, &bi17::Params { country: "China".into() });
    assert_eq!(t[0].count, 0);
}
