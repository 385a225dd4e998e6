//! Oracle sweep of the BI kernels that read only what their answer
//! needs: BI 2 and 11 (the countries' residents), BI 9 (the classes'
//! tags), BI 12 and 18 (every message in row order), BI 19 (the
//! replier) and BI 20 (the classes' tags into a message bitmap). Every
//! optimized result must equal `run_naive`, row for row, for 16
//! curated bindings plus edge cases and fixtures; each naive result is
//! computed once per binding and compared under three execution
//! contexts, so morsel boundaries fall inside person, forum, tag and
//! message lists; on three store states: the bulk store, the store
//! after one stream insert batch and an out-of-order post with no fold
//! (insert overflow live, the post inserted into the date index ahead
//! of the batch), and the store after a delete batch.
//!
//! The `#[ignore]`d variant runs the same sweep at SF 0.03, where
//! person and message lists are close to the benchmark's sizes:
//! `cargo test --release --test kernel_oracles -- --ignored`.

use ldbc_snb::bi::{bi02, bi09, bi11, bi12, bi18, bi19, bi20, BiParams};
use ldbc_snb::core::model::{ForumId, MessageId, MessageKind, PersonId, PlaceId, TagId};
use ldbc_snb::core::Date;
use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::graph::RawMessage;
use ldbc_snb::datagen::stream::{TimedEvent, UpdateEvent};
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::engine::QueryContext;
use ldbc_snb::params::ParamGen;
use ldbc_snb::store::{bulk_store_and_stream, DeleteOp, Ix, Store};

/// Curated bindings per query and store state.
const BINDINGS: usize = 16;

/// Stream events in the insert batch.
const INSERT_BATCH: usize = 600;

fn contexts() -> [QueryContext; 3] {
    [
        QueryContext::single_threaded(),
        QueryContext::new(2).with_morsel(1),
        QueryContext::new(4).with_morsel(7),
    ]
}

/// Swept queries; every store state must answer each of them at least
/// once.
const QUERIES: [u8; 7] = [2, 9, 11, 12, 18, 19, 20];

/// Ids of the BI 11 fixture replies: a clean one, a blacklisted one and
/// one that shares its parent's tag.
const BI11_REPLIES: [u64; 3] = [u64::MAX / 2 + 1, u64::MAX / 2 + 2, u64::MAX / 2 + 3];

/// The bulk store (with the BI 11 fixture replies folded in), the bulk
/// store plus one unfolded insert batch, and the bulk store after a
/// delete batch.
fn store_states(c: &GeneratorConfig) -> Vec<(&'static str, Store)> {
    let world = StaticWorld::build(c.seed);
    let (mut bulk, stream) = bulk_store_and_stream(c);
    add_bi11_replies(&mut bulk, &world);
    bulk.fold_overflow();

    let mut inserted = bulk.clone();
    for e in &stream[..INSERT_BATCH.min(stream.len())] {
        inserted.apply_event(e, &world).unwrap();
    }
    // The stream arrives in date order, so its messages append to the
    // date index; one post dated like the oldest message (an
    // out-of-order insert) goes in near its front.
    let first = bulk.message_by_date[0];
    let author = bulk.messages.creator[first as usize];
    let early = RawMessage {
        id: MessageId(u64::MAX / 2),
        kind: MessageKind::Post,
        creation_date: bulk.messages.creation_date[first as usize],
        creator: PersonId(bulk.persons.id[author as usize]),
        country: PlaceId(bulk.places.id[bulk.person_country(author) as usize]),
        location_ip: "10.0.0.1".into(),
        browser: 0,
        content: "an early post".into(),
        length: 13,
        image_file: None,
        language: world.languages.iter().position(|&l| l == "en").map(|l| l as u8),
        forum: Some(ForumId(bulk.forums.id[bulk.thread_forum(first) as usize])),
        reply_of: None,
        root_post: MessageId(u64::MAX / 2),
        tags: bulk.tags.id.iter().take(2).map(|&t| TagId(t)).collect(),
    };
    let at = early.creation_date;
    let event = TimedEvent { timestamp: at, dependent: at, event: UpdateEvent::AddPost(early) };
    inserted.apply_event(&event, &world).unwrap();
    inserted.validate_invariants().unwrap();
    assert!(
        !inserted.clone().fold_overflow().is_empty(),
        "the insert batch must leave overflow live"
    );

    let mut deleted = bulk.clone();
    deleted.apply_deletes(&delete_batch(&deleted)).unwrap();
    deleted.validate_invariants().unwrap();
    vec![("bulk", bulk), ("after inserts", inserted), ("after deletes", deleted)]
}

/// A generated comment's first tag is copied from its parent, or it has
/// no tags, so BI 11 answers nothing on a generated store. Three
/// replies by one person to one post make rows: one with a tag the post
/// lacks, one with that tag and a blacklisted word, and one with the
/// post's own tag. Post and author are chosen so that [`delete_batch`]
/// keeps them: a post in the first half of the rows (the batch deletes
/// one from the second), outside the biggest forum, by someone other
/// than the busiest poster, answered by the least active person.
fn add_bi11_replies(s: &mut Store, world: &StaticWorld) {
    let np = s.persons.len() as Ix;
    let busiest = (0..np).max_by_key(|&p| s.person_messages.degree(p)).unwrap();
    let author = (0..np).min_by_key(|&p| s.person_messages.degree(p)).unwrap();
    let biggest = (0..s.forums.len() as Ix).max_by_key(|&f| s.forum_posts.degree(f)).unwrap();
    let nm = s.messages.len() as Ix;
    let parent = (0..nm / 2)
        .find(|&m| {
            s.messages.is_post(m)
                && s.message_tag.degree(m) > 0
                && s.thread_forum(m) != biggest
                && s.messages.creator[m as usize] != busiest
        })
        .expect("a tagged post the delete batch keeps");
    let own = s.message_tag.targets_of(parent).next().unwrap();
    let fresh = (0..s.tags.len() as Ix).find(|&t| !s.message_tag.contains(parent, t)).unwrap();
    let at = *s.messages.creation_date.iter().max().unwrap();
    let replies = [(fresh, "a fresh angle"), (fresh, "maybe not"), (own, "the same topic")];
    for (&id, (tag, text)) in BI11_REPLIES.iter().zip(replies) {
        let reply = RawMessage {
            id: MessageId(id),
            kind: MessageKind::Comment,
            creation_date: at,
            creator: PersonId(s.persons.id[author as usize]),
            country: PlaceId(s.places.id[s.person_country(author) as usize]),
            location_ip: "10.0.0.2".into(),
            browser: 0,
            content: text.into(),
            length: text.len() as u32,
            image_file: None,
            language: None,
            forum: None,
            reply_of: Some(MessageId(s.messages.id[parent as usize])),
            root_post: MessageId(s.messages.id[parent as usize]),
            tags: vec![TagId(s.tags.id[tag as usize])],
        };
        let event =
            TimedEvent { timestamp: at, dependent: at, event: UpdateEvent::AddComment(reply) };
        s.apply_event(&event, world).unwrap();
    }
}

/// The BI 11 binding that sees the fixture replies: their author's
/// country, with the curated blacklist.
fn bi11_fixture_binding(s: &Store) -> BiParams {
    let reply = s.message(BI11_REPLIES[0]).expect("every state keeps the fixture replies");
    let country = s.person_country(s.messages.creator[reply as usize]);
    BiParams::Q11(bi11::Params {
        country: s.places.name[country as usize].to_string(),
        blacklist: vec!["maybe".into(), "wonder".into()],
    })
}

/// A delete batch touching what the kernels read: friendships
/// (BI 19's friend test), memberships (its stranger candidates), a
/// person and a forum (cascading to their messages), and a post and a
/// comment.
fn delete_batch(s: &Store) -> Vec<DeleteOp> {
    let np = s.persons.len() as Ix;
    let mut ops = Vec::new();
    for p in (0..np).step_by(7) {
        let pid = s.persons.id[p as usize];
        if let Some(q) = s.knows.targets_of(p).next() {
            ops.push(DeleteOp::Knows(pid, s.persons.id[q as usize]));
        }
        if let Some(f) = s.member_forum.targets_of(p).next() {
            ops.push(DeleteOp::Membership(pid, s.forums.id[f as usize]));
        }
    }
    // The most active poster and the biggest forum.
    let person = (0..np).max_by_key(|&p| s.person_messages.degree(p)).unwrap();
    ops.push(DeleteOp::Person(s.persons.id[person as usize]));
    let forum = (0..s.forums.len() as Ix).max_by_key(|&f| s.forum_posts.degree(f)).unwrap();
    ops.push(DeleteOp::Forum(s.forums.id[forum as usize]));
    let nm = s.messages.len() as Ix;
    let survives = |m: Ix| s.messages.creator[m as usize] != person && s.thread_forum(m) != forum;
    let post = (nm / 2..nm).find(|&m| s.messages.is_post(m) && survives(m));
    let comment = (nm / 2..nm).find(|&m| !s.messages.is_post(m) && survives(m));
    for m in [post, comment].into_iter().flatten() {
        ops.push(DeleteOp::Message(s.messages.id[m as usize]));
    }
    ops
}

/// Curated bindings of every swept query, plus edge cases: BI 12 and
/// BI 18 with a narrow window, BI 9 with a member threshold above every
/// forum, BI 19 with a date after every birthday.
fn bindings(s: &Store) -> Vec<BiParams> {
    let gen = ParamGen::new(s, 7);
    let mut all: Vec<BiParams> =
        QUERIES.into_iter().flat_map(|q| gen.bi_params(q, BINDINGS)).collect();
    let template = |q: u8| gen.bi_params(q, 1).pop().expect("a binding");

    let BiParams::Q12(mut p12) = template(12) else { unreachable!() };
    p12.date = late_date(s);
    all.push(BiParams::Q12(p12));

    let BiParams::Q18(mut p18) = template(18) else { unreachable!() };
    p18.date = late_date(s);
    all.push(BiParams::Q18(p18));

    let BiParams::Q9(mut p9) = template(9) else { unreachable!() };
    p9.threshold =
        (0..s.forums.len() as Ix).map(|f| s.forum_member.degree(f) as u64).max().unwrap_or(0);
    all.push(BiParams::Q9(p9));

    let BiParams::Q19(mut p19) = template(19) else { unreachable!() };
    p19.date = *s.persons.birthday.iter().max().expect("persons exist");
    all.push(BiParams::Q19(p19));
    all
}

/// A date whose window holds about 5 % of the messages, so most rows of
/// BI 12's and BI 18's scans fail the date test.
fn late_date(s: &Store) -> Date {
    let mut dates = s.messages.creation_date.clone();
    dates.sort_unstable();
    dates[dates.len() - dates.len() / 20].date()
}

/// Runs `b` on every context and checks each result against one naive
/// run. Returns the row count and the CSR edges each context counted.
fn check(s: &Store, contexts: &[QueryContext], b: &BiParams, label: &str) -> (usize, Vec<u64>) {
    fn same<R: PartialEq + std::fmt::Debug>(
        want: Vec<R>,
        contexts: &[QueryContext],
        run: impl Fn(&QueryContext) -> Vec<R>,
        label: &str,
    ) -> (usize, Vec<u64>) {
        let edges = contexts
            .iter()
            .map(|ctx| {
                ctx.metrics().reset();
                let got = run(ctx);
                assert_eq!(
                    got,
                    want,
                    "{label}, {} threads, morsel {}",
                    ctx.threads(),
                    ctx.morsel()
                );
                ctx.metrics().snapshot().edges_traversed
            })
            .collect();
        (want.len(), edges)
    }
    match b {
        BiParams::Q2(p) => same(bi02::run_naive(s, p), contexts, |c| bi02::run_ctx(s, c, p), label),
        BiParams::Q9(p) => same(bi09::run_naive(s, p), contexts, |c| bi09::run_ctx(s, c, p), label),
        BiParams::Q11(p) => {
            same(bi11::run_naive(s, p), contexts, |c| bi11::run_ctx(s, c, p), label)
        }
        BiParams::Q12(p) => {
            same(bi12::run_naive(s, p), contexts, |c| bi12::run_ctx(s, c, p), label)
        }
        BiParams::Q18(p) => {
            same(bi18::run_naive(s, p), contexts, |c| bi18::run_ctx(s, c, p), label)
        }
        BiParams::Q19(p) => {
            same(bi19::run_naive(s, p), contexts, |c| bi19::run_ctx(s, c, p), label)
        }
        BiParams::Q20(p) => {
            same(bi20::run_naive(s, p), contexts, |c| bi20::run_ctx(s, c, p), label)
        }
        other => unreachable!("BI {} is not swept", other.query()),
    }
}

/// BI 9 counts a post once per class even when it carries two tags of
/// that class. The sweep can only see that if such a post exists and
/// its forum is in a result: find one and return the binding whose
/// result shows its forum's count.
fn bi09_double_tag_binding(s: &Store) -> BiParams {
    for m in (0..s.messages.len() as Ix).filter(|&m| s.messages.is_post(m)) {
        let classes: Vec<Ix> =
            s.message_tag.targets_of(m).map(|t| s.tags.class[t as usize]).collect();
        let Some(&class) =
            classes.iter().find(|&&c| classes.iter().filter(|&&d| d == c).count() > 1)
        else {
            continue;
        };
        let name = s.tag_classes.name[class as usize].to_string();
        let p = bi09::Params { tag_class1: name.clone(), tag_class2: name, threshold: 0 };
        let forum_id = s.forums.id[s.messages.forum[m as usize] as usize];
        if bi09::run_naive(s, &p).iter().any(|r| r.forum_id == forum_id) {
            return BiParams::Q9(p);
        }
    }
    panic!("no post with two tags of one class whose forum is in a BI 9 result");
}

/// BI 20 counts a message once per class even when two of its tags lie
/// in the class subtree and two workers mark them. Under
/// `new(4).with_morsel(1)` each tag of the kernel's list (the subtree's
/// classes in `tagclass_subtree` order, each class's tags in adjacency
/// order) is one morsel, and worker `w` takes morsels
/// `[w·m/4, (w+1)·m/4)`. Return the binding of the smallest subtree
/// holding a message whose tags fall to two workers.
fn bi20_split_tags_binding(s: &Store) -> BiParams {
    let mut best: Option<(usize, Ix)> = None;
    for class in 0..s.tag_classes.len() as Ix {
        let tags: Vec<Ix> = s
            .tagclass_subtree(class)
            .into_iter()
            .flat_map(|c| s.tagclass_tags.targets_of(c))
            .collect();
        let (m, workers) = (tags.len(), tags.len().min(4));
        let mut worker = vec![usize::MAX; s.tags.len()];
        for (i, &t) in tags.iter().enumerate() {
            worker[t as usize] = (0..workers).find(|&w| i < (w + 1) * m / workers).unwrap();
        }
        let split = (0..s.messages.len() as Ix).any(|msg| {
            let mut inside = s
                .message_tag
                .targets_of(msg)
                .map(|t| worker[t as usize])
                .filter(|&w| w != usize::MAX);
            inside.next().is_some_and(|first| inside.any(|w| w != first))
        });
        if split && best.is_none_or(|(n, _)| m < n) {
            best = Some((m, class));
        }
    }
    let (_, class) = best.expect("a message with two tags of one subtree on two workers");
    BiParams::Q20(bi20::Params {
        tag_classes: vec![s.tag_classes.name[class as usize].to_string()],
    })
}

fn sweep(c: &GeneratorConfig) {
    let contexts = contexts();
    let split = [QueryContext::new(4).with_morsel(1)];
    for (state, s) in store_states(c) {
        let split_tags = bi20_split_tags_binding(&s);
        check(&s, &split, &split_tags, &format!("{state}, BI 20 split tags: {split_tags:?}"));
        let mut pool = bindings(&s);
        pool.push(bi09_double_tag_binding(&s));
        pool.push(bi11_fixture_binding(&s));
        pool.push(split_tags);
        let mut answered = Vec::new();
        for (i, b) in pool.iter().enumerate() {
            let label = format!("{state}, BI {} binding {i}: {b:?}", b.query());
            let (rows, edges) = check(&s, &contexts, b, &label);
            if rows > 0 {
                answered.push(b.query());
            }
            // Edges are counted per morsel and summed, so the count is
            // the same however the scan is cut.
            assert!(edges.iter().all(|&e| e == edges[0]), "{state}, binding {i}: edges {edges:?}");
        }
        // An empty result equals an empty oracle whatever the plan; the
        // sweep must also compare rows.
        for q in QUERIES {
            assert!(answered.contains(&q), "{state}: every BI {q} binding came back empty");
        }
    }
}

#[test]
fn rewritten_kernels_equal_the_naive_oracles() {
    let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
    c.persons = 150;
    sweep(&c);
}

#[test]
#[ignore = "SF 0.03; run with --release -- --ignored"]
fn rewritten_kernels_equal_the_naive_oracles_at_sf_003() {
    sweep(&GeneratorConfig::for_scale_name("0.03").unwrap());
}
