//! Metamorphic checks of the refresh delete path: a delete batch that
//! removes exactly what an insert batch created restores every BI
//! result, a delete batch split in two answers like the whole, and the
//! `bi_refresh` microbatch (an insert batch, then the delete of its post
//! likes) encodes to the same store image, byte for byte, as the batch
//! inserted without those likes and compacted. The delete path rewrites
//! only the components and sources its victims touch, so these
//! relations are what proves it missed none; the byte-level one also
//! pins per-source edge order and payloads, which no BI result checks.
//! Every store is also run through `validate_invariants` and must carry
//! no insert overflow.
//!
//! The `#[ignore]`d byte-level variant runs at SF 0.03:
//! `cargo test --release --test refresh_deletes -- --ignored`.

use proptest::prelude::*;

use ldbc_snb::bi::{BiParams, QuerySummary};
use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::stream::{TimedEvent, UpdateEvent};
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{bulk_store_and_stream, encode_store, DeleteOp, Ix, Store};

fn config(seed: u64) -> GeneratorConfig {
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 80;
    c.seed = seed;
    c
}

/// The bulk store with the first `prefix` stream events applied, so the
/// batches under test land on a store that already carries overflow.
fn store_after(c: &GeneratorConfig, prefix: usize) -> (Store, Vec<TimedEvent>, StaticWorld) {
    let world = StaticWorld::build(c.seed);
    let (mut store, stream) = bulk_store_and_stream(c);
    let prefix = prefix.min(stream.len());
    for e in &stream[..prefix] {
        store.apply_event(e, &world).unwrap();
    }
    (store, stream[prefix..].to_vec(), world)
}

/// Two bindings of each of the 25 BI queries.
fn bindings(store: &Store, seed: u64) -> Vec<BiParams> {
    let gen = ParamGen::new(store, seed);
    (1..=25u8).flat_map(|q| gen.bi_params(q, 2)).collect()
}

fn results(store: &Store, pool: &[BiParams]) -> Vec<QuerySummary> {
    pool.iter().map(|p| ldbc_snb::bi::run(store, p)).collect()
}

/// What every delete batch must leave behind.
fn check_clean(store: &Store) {
    store.validate_invariants().unwrap();
    // Folding a copy finds nothing left to fold.
    assert_eq!(store.clone().fold_overflow(), Vec::<&str>::new());
    assert!(store.date_index_fresh());
}

/// The delete batch removing exactly what `events` created.
fn undo(events: &[TimedEvent]) -> Vec<DeleteOp> {
    events
        .iter()
        .map(|e| match &e.event {
            UpdateEvent::AddPerson(p) => DeleteOp::Person(p.id.0),
            UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => {
                DeleteOp::Like(l.person.0, l.message.0)
            }
            UpdateEvent::AddForum(f) => DeleteOp::Forum(f.id.0),
            UpdateEvent::AddMembership(m) => DeleteOp::Membership(m.person.0, m.forum.0),
            UpdateEvent::AddPost(m) | UpdateEvent::AddComment(m) => DeleteOp::Message(m.id.0),
            UpdateEvent::AddKnows(k) => DeleteOp::Knows(k.a.0, k.b.0),
        })
        .collect()
}

/// One `bi_refresh` microbatch at the byte level, on the store after
/// `prefix` stream events: store A applies the next `batch` events and
/// then deletes their `AddLikePost` likes; store B applies the same
/// events without those likes and compacts. Both encode to equal bytes.
fn like_delete_equals_never_inserting(c: &GeneratorConfig, prefix: usize, batch: usize) {
    let (base, stream, world) = store_after(c, prefix);
    assert!(!base.clone().fold_overflow().is_empty(), "the prefix must leave overflow");
    let window = &stream[..batch.min(stream.len())];
    let is_post_like = |e: &&TimedEvent| matches!(e.event, UpdateEvent::AddLikePost(_));
    let likes = undo(&window.iter().filter(is_post_like).cloned().collect::<Vec<_>>());
    assert!(!likes.is_empty(), "the batch must like a post");

    let mut a = base.clone();
    for e in window {
        a.apply_event(e, &world).unwrap();
    }
    let stats = a.apply_deletes(&likes).unwrap();
    assert_eq!(stats.likes, likes.len());
    check_clean(&a);

    let mut b = base;
    for e in window.iter().filter(|e| !is_post_like(e)) {
        b.apply_event(e, &world).unwrap();
    }
    b.compact();
    assert!(encode_store(&a) == encode_store(&b), "seed {} prefix {prefix}", c.seed);
}

#[test]
fn deleting_a_batchs_post_likes_equals_never_inserting_them() {
    for seed in [3, 17, 531] {
        like_delete_equals_never_inserting(&config(seed), 300, 400);
    }
}

#[test]
#[ignore = "SF 0.03; run with --release -- --ignored"]
fn deleting_a_batchs_post_likes_equals_never_inserting_them_at_sf_003() {
    let c = GeneratorConfig::for_scale_name("0.03").unwrap();
    like_delete_equals_never_inserting(&c, 2_000, 1_200);
}

/// Splitmix64 — picks the mixed batch's victims from the case seed.
fn next(state: &mut u64) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize
}

/// A delete batch mixing DEL 1–8, victims picked by `rng`: the edge
/// deletes first, so a split can leave an edge-only half.
fn mixed_batch(s: &Store, rng: &mut u64) -> Vec<DeleteOp> {
    let (np, nf, nm) = (s.persons.len(), s.forums.len(), s.messages.len());
    let pick = |rng: &mut u64, n: usize| (next(rng) % n) as Ix;
    let mut ops = Vec::new();
    for _ in 0..3 {
        // A like, a membership and a friendship of a random person.
        let p = pick(rng, np);
        let pid = s.persons.id[p as usize];
        if let Some((m, _)) = s.person_likes.neighbors(p).next() {
            ops.push(DeleteOp::Like(pid, s.messages.id[m as usize]));
        }
        if let Some((f, _)) = s.member_forum.neighbors(p).next() {
            ops.push(DeleteOp::Membership(pid, s.forums.id[f as usize]));
        }
        if let Some(q) = s.knows.targets_of(p).next() {
            ops.push(DeleteOp::Knows(pid, s.persons.id[q as usize]));
        }
    }
    ops.push(DeleteOp::Person(s.persons.id[pick(rng, np) as usize]));
    ops.push(DeleteOp::Forum(s.forums.id[pick(rng, nf) as usize]));
    let post = (0..nm as Ix).cycle().skip(pick(rng, nm) as usize).find(|&m| s.messages.is_post(m));
    let comment =
        (0..nm as Ix).cycle().skip(pick(rng, nm) as usize).find(|&m| !s.messages.is_post(m));
    for m in [post, comment].into_iter().flatten() {
        ops.push(DeleteOp::Message(s.messages.id[m as usize]));
    }
    ops
}

/// Whether every id `op` names still exists in `s`.
fn resolvable(s: &Store, op: &DeleteOp) -> bool {
    match *op {
        DeleteOp::Person(p) => s.person(p).is_ok(),
        DeleteOp::Like(p, m) => s.person(p).is_ok() && s.message(m).is_ok(),
        DeleteOp::Forum(f) => s.forum(f).is_ok(),
        DeleteOp::Membership(p, f) => s.person(p).is_ok() && s.forum(f).is_ok(),
        DeleteOp::Message(m) => s.message(m).is_ok(),
        DeleteOp::Knows(a, b) => s.person(a).is_ok() && s.person(b).is_ok(),
    }
}

proptest! {
    // Each case generates a world and runs 50 BI bindings per store.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn deleting_what_a_batch_inserted_restores_every_bi_result(
        seed in 0u64..1_000,
        prefix in 0usize..400,
        batch in 1usize..400,
        edges_only in 0u8..2,
    ) {
        let c = config(seed);
        let (mut base, stream, world) = store_after(&c, prefix);
        if !base.date_index_fresh() {
            base.rebuild_date_index();
        }
        let pool = bindings(&base, seed);
        let before = results(&base, &pool);

        // Either a stream window as is, or only its edges between
        // entities the store already holds — a batch whose undo
        // removes edges and no vertex.
        let window = &stream[..batch.min(stream.len())];
        let events: Vec<TimedEvent> = window
            .iter()
            .filter(|e| edges_only == 0 || match &e.event {
                UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => {
                    base.person(l.person.0).is_ok() && base.message(l.message.0).is_ok()
                }
                UpdateEvent::AddMembership(m) => {
                    base.person(m.person.0).is_ok() && base.forum(m.forum.0).is_ok()
                }
                UpdateEvent::AddKnows(k) => base.person(k.a.0).is_ok() && base.person(k.b.0).is_ok(),
                _ => false,
            })
            .cloned()
            .collect();
        let mut s = base.clone();
        for e in &events {
            s.apply_event(e, &world).unwrap();
        }
        s.apply_deletes(&undo(&events)).unwrap();
        check_clean(&s);
        prop_assert_eq!(s.persons.id, base.persons.id);
        prop_assert_eq!(s.messages.id, base.messages.id);
        prop_assert_eq!(s.forums.id, base.forums.id);
        prop_assert_eq!(s.person_likes.edge_count(), base.person_likes.edge_count());
        prop_assert_eq!(s.forum_member.edge_count(), base.forum_member.edge_count());
        prop_assert_eq!(s.knows.edge_count(), base.knows.edge_count());
        let after = results(&s, &pool);
        for (q, (got, want)) in after.iter().zip(&before).enumerate() {
            prop_assert_eq!(got, want, "binding {} ({:?})", q, pool[q].query());
        }
    }

    #[test]
    fn a_split_delete_batch_answers_like_the_whole(
        seed in 0u64..1_000,
        prefix in 0usize..400,
        split in 0usize..64,
    ) {
        let c = config(seed);
        let (base, _, _) = store_after(&c, prefix);
        let mut rng = seed;
        let ops = mixed_batch(&base, &mut rng);
        let mut whole = base.clone();
        whole.apply_deletes(&ops).unwrap();
        check_clean(&whole);
        let pool = bindings(&whole, seed);
        let want = results(&whole, &pool);

        // A random split, and the one after the last edge delete.
        let edges = ops.iter().take_while(|op| {
            matches!(op, DeleteOp::Like(..) | DeleteOp::Membership(..) | DeleteOp::Knows(..))
        });
        for at in [split % (ops.len() + 1), edges.count()] {
            let (first, second) = ops.split_at(at);
            let mut halves = base.clone();
            halves.apply_deletes(first).unwrap();
            check_clean(&halves);
            // An op whose entity the first half cascaded away has
            // nothing left to delete; the whole batch removed it too.
            let second: Vec<DeleteOp> =
                second.iter().filter(|op| resolvable(&halves, op)).copied().collect();
            halves.apply_deletes(&second).unwrap();
            check_clean(&halves);

            prop_assert_eq!(&halves.persons.id, &whole.persons.id);
            prop_assert_eq!(&halves.messages.id, &whole.messages.id);
            prop_assert_eq!(&halves.forums.id, &whole.forums.id);
            prop_assert_eq!(halves.person_likes.edge_count(), whole.person_likes.edge_count());
            prop_assert_eq!(halves.forum_member.edge_count(), whole.forum_member.edge_count());
            prop_assert_eq!(halves.knows.edge_count(), whole.knows.edge_count());
            let got = results(&halves, &pool);
            for (q, (got, want)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(got, want, "split at {}, binding {} ({:?})", at, q, pool[q].query());
            }
        }
    }
}
