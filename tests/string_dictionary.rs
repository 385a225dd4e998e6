//! Each string column owns its dictionary, which lists exactly the
//! strings the column's rows use. Deleting rows therefore gives their
//! strings back, in the live store and in the image recovery reads, and
//! nothing a client sends in a *query* adds to a dictionary (ROADMAP
//! north star 3: nothing grows without bound under sustained traffic).

use ldbc_snb::bi::bi18;
use ldbc_snb::core::model::{Gender, PersonId, PlaceId};
use ldbc_snb::core::{Date, DateTime};
use ldbc_snb::datagen::graph::RawPerson;
use ldbc_snb::datagen::stream::{TimedEvent, UpdateEvent};
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::interactive::ic01;
use ldbc_snb::server::proto::{decode_request, encode_request};
use ldbc_snb::server::{
    recover, Request, Server, ServerConfig, ServiceParams, WalOptions, WriteBatch, WriteOps,
};
use ldbc_snb::store::{store_for_config, DeleteOp, Store, SymCol};

const SCALE: &str = "0.001";

/// Ids far above any generated person's.
const FIRST_ID: u64 = 1 << 40;

fn dictionary(col: &SymCol) -> Vec<String> {
    col.dictionary().map(str::to_string).collect()
}

/// The first- and last-name dictionaries of `store`.
fn name_dictionaries(store: &Store) -> [Vec<String>; 2] {
    [dictionary(&store.persons.first_name), dictionary(&store.persons.last_name)]
}

/// Asserts `now` equals `start` without printing thousands of names.
fn assert_same_names(now: &[Vec<String>; 2], start: &[Vec<String>; 2], when: &str) {
    for (col, (now, start)) in ["first_name", "last_name"].iter().zip(now.iter().zip(start)) {
        assert!(
            now == start,
            "{when}: the {col} dictionary has {} strings, {} at the start, or another order",
            now.len(),
            start.len()
        );
    }
}

/// Sends `ops` as batch `seq` through the wire codec: the request is
/// encoded and decoded, so the server applies what the event codec
/// decoded.
fn submit(server: &Server, seq: u64, ops: WriteOps) {
    let params = ServiceParams::Write(WriteBatch { seq, ops });
    let request = Request { id: seq, deadline_us: 0, min_seq: 0, params };
    let decoded = decode_request(&encode_request(&request)).expect("the request decodes");
    let response = server.client().call(decoded.params, 0);
    response.body.unwrap_or_else(|e| panic!("write batch {seq} refused: {e:?}"));
}

/// An IU 1 insert of a person whose names no other person has.
fn stranger(id: u64, city: u64) -> TimedEvent {
    let created = DateTime::from_parts(2013, 1, 1, 0, 0, 0, 0);
    let person = RawPerson {
        id: PersonId(id),
        first_name: format!("First{id}").into(),
        last_name: format!("Last{id}").into(),
        gender: Gender::Female,
        birthday: Date::from_ymd(1990, 1, 1),
        creation_date: created,
        location_ip: "10.0.0.1".into(),
        browser: 0,
        city: PlaceId(city),
        country: 0,
        languages: Vec::new(),
        emails: Vec::new(),
        interests: Vec::new(),
        study_at: None,
        work_at: Vec::new(),
    };
    TimedEvent { timestamp: created, dependent: created, event: UpdateEvent::AddPerson(person) }
}

/// Inserts `persons` persons with unique names through a durable server,
/// `batch` to a write batch, deletes them all with DEL 1, and checks the
/// name dictionaries against the starting ones: live after the deletes,
/// then in the store recovered from the image written after them.
fn deleted_names_leave_the_dictionaries(persons: usize, batch: usize) {
    let dir = std::env::temp_dir().join(format!("snb_strdict_{persons}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = GeneratorConfig::for_scale_name(SCALE).unwrap();
    let batches = persons.div_ceil(batch) as u64;
    // The image is written at the last delete batch.
    let options = WalOptions { snapshot_every: 2 * batches };
    let (store, durability, _) = recover(&dir, &config, SCALE, options)
        .expect("recovery of an empty directory")
        .into_durability();
    let start = name_dictionaries(&store);
    let city = store.places.id[store.persons.city[0] as usize];
    let workers = ServerConfig { workers: 1, threads_per_worker: 1, ..ServerConfig::default() };
    let server = Server::start_durable(store, workers, durability);

    let ids: Vec<u64> = (FIRST_ID..).take(persons).collect();
    let mut seq = 0;
    for chunk in ids.chunks(batch) {
        seq += 1;
        submit(
            &server,
            seq,
            WriteOps::Updates(chunk.iter().map(|&id| stranger(id, city)).collect()),
        );
    }
    let grown = name_dictionaries(&server.snapshot());
    assert_eq!(grown.map(|d| d.len()), start.clone().map(|d| d.len() + persons));
    for chunk in ids.chunks(batch) {
        seq += 1;
        submit(
            &server,
            seq,
            WriteOps::Deletes(chunk.iter().map(|&id| DeleteOp::Person(id)).collect()),
        );
    }
    assert_same_names(&name_dictionaries(&server.snapshot()), &start, "after DEL 1");
    server.shutdown();

    let recovered = recover(&dir, &config, SCALE, WalOptions::default()).expect("image recovery");
    assert_eq!(recovered.report.image_seq, seq, "the image covers the deletes");
    assert_eq!(recovered.report.tail_replayed, 0);
    assert_same_names(&name_dictionaries(&recovered.store), &start, "after image recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleted_persons_give_their_names_back() {
    deleted_names_leave_the_dictionaries(2_000, 100);
}

/// The release twin: `cargo test --release --test string_dictionary --
/// --ignored`.
#[test]
#[ignore]
fn deleted_persons_give_their_names_back_at_100k() {
    deleted_names_leave_the_dictionaries(100_000, 1_000);
}

#[test]
fn query_parameters_are_looked_up_never_interned() {
    let mut config = GeneratorConfig::for_scale_name(SCALE).unwrap();
    config.persons = 100;
    let store = store_for_config(&config);
    let languages = dictionary(&store.messages.language);
    let names = name_dictionaries(&store);

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

    assert_eq!(dictionary(&store.messages.language), languages, "BI 18 grew a dictionary");
    assert_same_names(&name_dictionaries(&store), &names, "after IC 1");
    assert_eq!(store.messages.language.lookup("xx-unknown"), None);
    assert_eq!(store.persons.first_name.lookup("Zz-unknown"), None);
}
