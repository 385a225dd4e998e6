//! Recovery semantics (spec §6.3): after a crash, the system must come
//! back with every committed update present. The in-memory store's
//! durability story is "bulk dataset + update-stream replay": recovery
//! = reload the bulk CSVs and re-apply the stream up to the last
//! committed operation. These tests simulate the §6.3 procedure —
//! interrupt a run at an arbitrary point, recover, and verify the last
//! committed update (and everything before it) is present and nothing
//! after it leaked in.

use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::stream::UpdateEvent;
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::store::{bulk_store, bulk_store_and_stream};

fn config() -> GeneratorConfig {
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 90;
    c
}

/// A coarse state fingerprint: entity and edge counts.
fn fingerprint(s: &ldbc_snb::store::Store) -> (usize, usize, usize, usize, usize, usize) {
    (
        s.persons.len(),
        s.forums.len(),
        s.messages.len(),
        s.knows.edge_count(),
        s.person_likes.edge_count(),
        s.forum_member.edge_count(),
    )
}

#[test]
fn recovery_replays_to_the_crash_point() {
    let c = config();
    let world = StaticWorld::build(c.seed);
    // "Measured run": apply a prefix of the stream, then crash.
    let (mut live, events) = bulk_store_and_stream(&c);
    let crash_at = events.len() * 2 / 3;
    for e in &events[..crash_at] {
        live.apply_event(e, &world).unwrap();
    }
    let committed = fingerprint(&live);
    drop(live); // the crash

    // Recovery: reload the bulk dataset and replay the same prefix.
    let (mut recovered, events2) = bulk_store_and_stream(&c);
    assert_eq!(events.len(), events2.len(), "deterministic stream");
    for e in &events2[..crash_at] {
        recovered.apply_event(e, &world).unwrap();
    }
    assert_eq!(fingerprint(&recovered), committed);
    recovered.validate_invariants().unwrap();

    // The last committed update is actually in the database (§6.3's
    // check), and the first uncommitted one is not.
    let check_present = |s: &ldbc_snb::store::Store, e: &UpdateEvent, expect: bool| match e {
        UpdateEvent::AddPerson(p) => assert_eq!(s.person_ix.contains_key(&p.id.0), expect),
        UpdateEvent::AddForum(f) => assert_eq!(s.forum_ix.contains_key(&f.id.0), expect),
        UpdateEvent::AddPost(m) | UpdateEvent::AddComment(m) => {
            assert_eq!(s.message_ix.contains_key(&m.id.0), expect)
        }
        UpdateEvent::AddKnows(k) => {
            let (a, b) = (s.person_ix.get(&k.a.0), s.person_ix.get(&k.b.0));
            if let (Some(&a), Some(&b)) = (a, b) {
                assert_eq!(s.knows.contains(a, b), expect);
            } else {
                assert!(!expect, "endpoints missing for a committed edge");
            }
        }
        // Likes/memberships can coincide with pre-existing edges; count
        // checks above already cover them.
        _ => {}
    };
    check_present(&recovered, &events2[crash_at - 1].event, true);
    check_present(&recovered, &events2[crash_at].event, false);
}

#[test]
fn recovery_through_csv_reload_matches_in_memory_path() {
    // Full §6.1.3 + §6.3 loop: serialize the bulk dataset to CSV, load
    // it back (a cold restart from disk), replay the stream, and
    // compare against the in-memory bulk + replay.
    use ldbc_snb::datagen::serializer::{serialize, CsvVariant};
    use ldbc_snb::store::{encode_store, load_csv_basic};

    let c = config();
    let world = StaticWorld::build(c.seed);
    let graph = ldbc_snb::datagen::generate(&c);
    let cut = c.stream_cut();
    let events = ldbc_snb::datagen::stream::build_update_streams(&graph, cut);

    let dir = std::env::temp_dir().join(format!("snb_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    serialize(&graph, &world, CsvVariant::Basic, cut, &dir).unwrap();
    let mut from_disk = load_csv_basic(&dir, &world).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let mut in_memory = bulk_store(&c);
    for e in &events {
        from_disk.apply_event(e, &world).unwrap();
        in_memory.apply_event(e, &world).unwrap();
    }
    assert!(
        encode_store(&from_disk) == encode_store(&in_memory),
        "reloaded from CSV and replayed, the store encodes unlike the in-memory one"
    );
    from_disk.validate_invariants().unwrap();

    // Workload-level equivalence after recovery.
    let gen = ldbc_snb::params::ParamGen::new(&in_memory, c.seed);
    for q in [1u8, 6, 12, 14, 20, 21] {
        for b in gen.bi_params(q, 2) {
            assert_eq!(
                ldbc_snb::bi::run(&from_disk, &b),
                ldbc_snb::bi::run(&in_memory, &b),
                "BI {q} differs after disk recovery"
            );
        }
    }
}
