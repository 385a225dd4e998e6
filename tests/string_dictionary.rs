//! The string dictionary is append-only for the life of the process, so
//! nothing a client can send in a *query* may grow it (ROADMAP north
//! star 3: nothing grows without bound under sustained traffic).
//!
//! One test only: the interner is process-global and this file is its
//! own test binary, so `len()` is exact here and nowhere else.

use ldbc_snb::bi::bi18;
use ldbc_snb::core::Date;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::interactive::ic01;
use ldbc_snb::store::{interner, store_for_config};

#[test]
fn query_parameters_are_looked_up_never_interned() {
    let mut config = GeneratorConfig::for_scale_name("0.001").unwrap();
    config.persons = 100;
    let store = store_for_config(&config);
    let before = interner().len();

    // BI 18 with a language no row has: every person lands in the zero
    // bucket, from both engines.
    let params = bi18::Params {
        date: Date::from_ymd(2010, 6, 1),
        length_threshold: 150,
        languages: vec!["xx-unknown".into()],
    };
    let rows = bi18::run(&store, &params);
    assert_eq!(
        rows,
        vec![bi18::Row { message_count: 0, person_count: store.persons.len() as u64 }]
    );
    assert_eq!(rows, bi18::run_naive(&store, &params));

    // IC 1 with a first name nobody has.
    let params = ic01::Params { person_id: store.persons.id[0], first_name: "Zz-unknown".into() };
    assert!(ic01::run(&store, &params).is_empty());
    assert!(ic01::run_naive(&store, &params).is_empty());

    assert_eq!(interner().len(), before, "a query parameter grew the dictionary");
    assert_eq!(interner().lookup("xx-unknown"), None);
    assert_eq!(interner().lookup("Zz-unknown"), None);
}
