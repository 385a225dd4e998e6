//! Exact-value tests on a hand-crafted subgraph: a controlled cast of
//! persons, posts, comments and likes inserted as update-stream events
//! (`Store::apply_event`, the one write record) on top of an *empty*
//! generated world, so query results are fully predictable (no
//! generated noise).

use std::sync::OnceLock;

use ldbc_snb::bi::{bi06, bi11, bi12, bi14};
use ldbc_snb::datagen::dictionaries::StaticWorld;
use ldbc_snb::datagen::graph::{RawForum, RawKnows, RawLike, RawMessage, RawPerson};
use ldbc_snb::datagen::stream::{TimedEvent, UpdateEvent};
use ldbc_snb::datagen::GeneratorConfig;
use ldbc_snb::engine::QueryContext;
use ldbc_snb::interactive::{ic07, ic08, short};
use ldbc_snb::store::{store_for_config, Store};
use snb_core::model::{
    ForumId, ForumKind, Gender, MessageId, MessageKind, PersonId, PlaceId, TagId,
};
use snb_core::{Date, DateTime};

fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name("0.001").unwrap()
}

/// The dictionaries `apply_event` resolves browser and language indices in.
fn world() -> &'static StaticWorld {
    static WORLD: OnceLock<StaticWorld> = OnceLock::new();
    WORLD.get_or_init(|| StaticWorld::build(config().seed))
}

/// An empty dynamic world: static entities only.
fn empty_world() -> Store {
    let mut c = config();
    c.persons = 0;
    store_for_config(&c)
}

fn apply(s: &mut Store, t: DateTime, event: UpdateEvent) {
    s.apply_event(&TimedEvent { timestamp: t, dependent: t, event }, world()).unwrap();
}

fn language(code: &str) -> u8 {
    world().languages.iter().position(|&l| l == code).expect("known language") as u8
}

/// Firefox, in the browser dictionary.
const FIREFOX: u8 = 0;

fn china(s: &Store) -> PlaceId {
    PlaceId(s.places.id[s.country_by_name("China").unwrap() as usize])
}

fn add_person(s: &mut Store, id: u64, name: &str, t: i64) {
    add_person_in(s, id, name, "Beijing", t);
}

fn add_person_in(s: &mut Store, id: u64, name: &str, city: &str, t: i64) {
    let city = s.places.id[s.place_by_name.get(city).map(|&c| c as usize).expect("city exists")];
    let person = RawPerson {
        id: PersonId(id),
        first_name: name.into(),
        last_name: "Fixture".into(),
        gender: Gender::Female,
        birthday: Date::from_ymd(1990, 3, 15),
        creation_date: DateTime(t),
        location_ip: "1.2.3.4".into(),
        browser: FIREFOX,
        city: PlaceId(city),
        country: 0,
        languages: vec![language("zh")],
        emails: vec![format!("{name}@example.com")],
        interests: vec![TagId(0)],
        study_at: None,
        work_at: vec![],
    };
    apply(s, DateTime(t), UpdateEvent::AddPerson(person));
}

fn add_wall(s: &mut Store, id: u64, moderator: u64, t: i64) {
    let forum = RawForum {
        id: ForumId(id),
        kind: ForumKind::Wall,
        title: format!("Wall {id}"),
        creation_date: DateTime(t),
        moderator: PersonId(moderator),
        tags: vec![TagId(0)],
    };
    apply(s, DateTime(t), UpdateEvent::AddForum(forum));
}

fn post(s: &Store, id: u64, author: u64, forum: u64, t: i64, tags: Vec<u64>) -> RawMessage {
    RawMessage {
        id: MessageId(id),
        kind: MessageKind::Post,
        creation_date: DateTime(t),
        creator: PersonId(author),
        country: china(s),
        location_ip: "1.2.3.4".into(),
        browser: FIREFOX,
        content: format!("post {id}"),
        length: 7,
        image_file: None,
        language: Some(language("zh")),
        forum: Some(ForumId(forum)),
        reply_of: None,
        root_post: MessageId(id),
        tags: tags.into_iter().map(TagId).collect(),
    }
}

fn add_post(s: &mut Store, id: u64, author: u64, forum: u64, t: i64, tags: Vec<u64>) {
    let post = post(s, id, author, forum, t, tags);
    apply(s, DateTime(t), UpdateEvent::AddPost(post));
}

/// An untagged comment replying to `parent` (a post or a comment).
fn add_comment(s: &mut Store, id: u64, author: u64, parent: u64, t: i64) {
    add_reply(s, id, author, parent, t, vec![], &format!("comment {id}"));
}

/// A comment replying to `parent` with the given tags and content; the
/// store takes the thread's root from the parent's row.
fn add_reply(s: &mut Store, id: u64, author: u64, parent: u64, t: i64, tags: Vec<u64>, text: &str) {
    let comment = RawMessage {
        id: MessageId(id),
        kind: MessageKind::Comment,
        creation_date: DateTime(t),
        creator: PersonId(author),
        country: china(s),
        location_ip: "1.2.3.4".into(),
        browser: FIREFOX,
        content: text.into(),
        length: text.len() as u32,
        image_file: None,
        language: None,
        forum: None,
        reply_of: Some(MessageId(parent)),
        root_post: MessageId(parent),
        tags: tags.into_iter().map(TagId).collect(),
    };
    apply(s, DateTime(t), UpdateEvent::AddComment(comment));
}

fn add_knows(s: &mut Store, a: u64, b: u64, t: i64) {
    let knows =
        RawKnows { a: PersonId(a), b: PersonId(b), creation_date: DateTime(t), dimension: 0 };
    apply(s, DateTime(t), UpdateEvent::AddKnows(knows));
}

fn add_like(s: &mut Store, person: u64, message: u64, t: i64) {
    let like = RawLike {
        person: PersonId(person),
        message: MessageId(message),
        creation_date: DateTime(t),
    };
    let event = match s.messages.kind[s.message(message).unwrap() as usize] {
        MessageKind::Post => UpdateEvent::AddLikePost(like),
        MessageKind::Comment => UpdateEvent::AddLikeComment(like),
    };
    apply(s, DateTime(t), event);
}

/// The shared cast: Alice (1), Bob (2), Carol (3); Alice's wall (10);
/// two posts by Alice (100 tagged #0, 101 tagged #1), one comment chain
/// under 100 (200 by Bob, 201 by Carol replying to 200), likes on 100
/// from Bob and Carol, like on 101 from Bob.
fn fixture() -> Store {
    let mut s = empty_world();
    add_person(&mut s, 1, "Alice", 1_000);
    add_person(&mut s, 2, "Bob", 1_000);
    add_person(&mut s, 3, "Carol", 1_000);
    add_knows(&mut s, 1, 2, 2_000);
    add_wall(&mut s, 10, 1, 2_000);
    add_post(&mut s, 100, 1, 10, 10_000, vec![0]);
    add_post(&mut s, 101, 1, 10, 20_000, vec![1]);
    add_comment(&mut s, 200, 2, 100, 11_000);
    add_comment(&mut s, 201, 3, 200, 12_000);
    add_like(&mut s, 2, 100, 13_000);
    add_like(&mut s, 3, 100, 14_000);
    add_like(&mut s, 2, 101, 21_000);
    s
}

#[test]
fn bi12_exact_rows() {
    let s = fixture();
    let rows = bi12::run(&s, &bi12::Params { date: Date::from_ymd(1970, 1, 1), like_threshold: 1 });
    // Only post 100 has > 1 like.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].message_id, 100);
    assert_eq!(rows[0].like_count, 2);
    assert_eq!(rows[0].first_name, "Alice");
    // Threshold 0: both posts and no comments (comments have 0 likes).
    let rows = bi12::run(&s, &bi12::Params { date: Date::from_ymd(1970, 1, 1), like_threshold: 0 });
    assert_eq!(
        rows.iter().map(|r| (r.message_id, r.like_count)).collect::<Vec<_>>(),
        vec![(100, 2), (101, 1)]
    );
}

/// BI 11's cast: the shared fixture plus Dave (4), who lives in
/// Mumbai, and five tagged replies. Post 100 carries tag 0, post 101
/// tag 1.
///
/// - 300 (Bob → 100, tag 2) has a tag its parent lacks: it counts;
/// - 301 (Carol → 100, tags 0 and 3) shares tag 0 with its parent;
/// - 302 (Carol → 101, tag 2) contains the word "maybe";
/// - 303 (Dave → 100, tag 2) counts for India, not for China;
/// - 304 (Bob → 101, tags 2 and 3) counts once under each tag.
///
/// Alice and Carol like 300, Alice likes 304.
fn bi11_fixture() -> Store {
    let mut s = fixture();
    add_person_in(&mut s, 4, "Dave", "Mumbai", 1_000);
    add_reply(&mut s, 300, 2, 100, 30_000, vec![2], "a fresh angle");
    add_reply(&mut s, 301, 3, 100, 31_000, vec![0, 3], "same topic");
    add_reply(&mut s, 302, 3, 101, 32_000, vec![2], "maybe later");
    add_reply(&mut s, 303, 4, 100, 33_000, vec![2], "from afar");
    add_reply(&mut s, 304, 2, 101, 34_000, vec![2, 3], "two more angles");
    add_like(&mut s, 1, 300, 35_000);
    add_like(&mut s, 3, 300, 36_000);
    add_like(&mut s, 1, 304, 37_000);
    s
}

#[test]
fn bi11_exact_rows() {
    let s = bi11_fixture();
    let row = |person_id, tag: usize, like_count, reply_count| {
        assert_eq!(s.tags.id[tag], tag as u64, "tag ids are row indices");
        bi11::Row { person_id, tag_name: s.tags.name[tag].to_string(), like_count, reply_count }
    };
    let params = |country: &str, blacklist: &[&str]| bi11::Params {
        country: country.into(),
        blacklist: blacklist.iter().map(|w| w.to_string()).collect(),
    };
    let cases = [
        // Bob's 300 (2 likes) and 304 (1 like) under tag 2, his 304
        // under tag 3; 301 shares a tag, 302 is blacklisted, 303 is
        // Dave's.
        (params("China", &["maybe"]), vec![row(2, 2, 3, 2), row(2, 3, 1, 1)]),
        // Without the blacklist Carol's 302 counts as well.
        (params("China", &[]), vec![row(2, 2, 3, 2), row(2, 3, 1, 1), row(3, 2, 0, 1)]),
        (params("India", &["maybe"]), vec![row(4, 2, 0, 1)]),
    ];
    let contexts = [
        QueryContext::single_threaded(),
        QueryContext::new(2).with_morsel(1),
        QueryContext::new(4).with_morsel(7),
    ];
    for (p, want) in &cases {
        assert_eq!(&bi11::run(&s, p), want, "run, {p:?}");
        for ctx in &contexts {
            assert_eq!(&bi11::run_ctx(&s, ctx, p), want, "{} threads, {p:?}", ctx.threads());
        }
        assert_eq!(&bi11::run_naive(&s, p), want, "run_naive, {p:?}");
    }
}

#[test]
fn bi06_exact_score() {
    let s = fixture();
    let tag0 = s.tags.name[0].to_string();
    let rows = bi06::run(&s, &bi06::Params { tag: tag0 });
    // Alice's post 100 carries tag 0: 1 message, 1 direct reply, 2 likes
    // → score 1 + 2*1 + 10*2 = 23.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].person_id, 1);
    assert_eq!(rows[0].message_count, 1);
    assert_eq!(rows[0].reply_count, 1);
    assert_eq!(rows[0].like_count, 2);
    assert_eq!(rows[0].score, 23);
}

#[test]
fn bi14_exact_thread_counts() {
    let s = fixture();
    let rows = bi14::run(
        &s,
        &bi14::Params { begin: Date::from_ymd(1970, 1, 1), end: Date::from_ymd(1970, 1, 2) },
    );
    // Alice initiated 2 threads; thread of 100 holds 3 messages, thread
    // of 101 holds 1 → 4 total.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].person_id, 1);
    assert_eq!(rows[0].thread_count, 2);
    assert_eq!(rows[0].message_count, 4);
}

#[test]
fn ic07_recent_likers_exact() {
    let s = fixture();
    let rows = ic07::run(&s, &ic07::Params { person_id: 1 });
    // Bob's latest like is on 101 at t=21000; Carol's on 100 at t=14000.
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].person_id, 2);
    assert_eq!(rows[0].message_id, 101);
    assert_eq!(rows[0].like_creation_date, DateTime(21_000));
    assert!(!rows[0].is_new, "Bob is Alice's friend");
    assert_eq!(rows[1].person_id, 3);
    assert_eq!(rows[1].message_id, 100);
    assert!(rows[1].is_new, "Carol is a stranger");
    // Latency: like at 21000 on message created 20000 → 0 minutes
    // (truncated), like at 14000 on 10000 → 0 minutes too; check the
    // field is non-negative and consistent.
    for r in &rows {
        assert!(r.minutes_latency >= 0);
    }
}

#[test]
fn ic08_recent_replies_exact() {
    let s = fixture();
    let rows = ic08::run(&s, &ic08::Params { person_id: 1 });
    // Only comment 200 replies directly to Alice's messages (201
    // replies to Bob's comment).
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].comment_id, 200);
    assert_eq!(rows[0].person_id, 2);
    let bob_rows = ic08::run(&s, &ic08::Params { person_id: 2 });
    assert_eq!(bob_rows.len(), 1);
    assert_eq!(bob_rows[0].comment_id, 201);
    assert_eq!(bob_rows[0].person_id, 3);
}

#[test]
fn is2_thread_resolution_exact() {
    let s = fixture();
    // Carol's only message is comment 201; its root is post 100 by
    // Alice.
    let rows = short::is2::run(&s, &short::is2::Params { person_id: 3 });
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].message_id, 201);
    assert_eq!(rows[0].original_post_id, 100);
    assert_eq!(rows[0].original_post_author_id, 1);
    assert_eq!(rows[0].original_post_author_first_name, "Alice");
}

#[test]
fn is7_knows_flag_exact() {
    let s = fixture();
    let rows = short::is7::run(&s, &short::is7::Params { message_id: 100 });
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].reply_author_id, 2);
    assert!(rows[0].reply_author_knows_original, "Bob knows Alice");
    let rows = short::is7::run(&s, &short::is7::Params { message_id: 200 });
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].reply_author_id, 3);
    assert!(!rows[0].reply_author_knows_original, "Carol does not know Bob");
}

#[test]
fn empty_generated_world_is_sound() {
    let s = empty_world();
    assert_eq!(s.persons.len(), 0);
    assert_eq!(s.messages.len(), 0);
    assert!(!s.places.is_empty(), "static world present");
    s.validate_invariants().unwrap();
}

/// A generated store of 60 persons.
fn generated() -> Store {
    let mut c = config();
    c.persons = 60;
    store_for_config(&c)
}

#[test]
fn friendship_update_visible_to_is3() {
    let mut s = generated();
    // Pick two persons that do not know each other.
    let (a, b) = {
        let mut found = None;
        'outer: for a in 0..s.persons.len() as u32 {
            for b in a + 1..s.persons.len() as u32 {
                if !s.knows.contains(a, b) {
                    found = Some((s.persons.id[a as usize], s.persons.id[b as usize]));
                    break 'outer;
                }
            }
        }
        found.expect("non-friends exist")
    };
    let before = short::is3::run(&s, &short::is3::Params { person_id: a });
    add_knows(&mut s, a, b, 1_000);
    let after = short::is3::run(&s, &short::is3::Params { person_id: a });
    assert_eq!(after.len(), before.len() + 1);
    assert!(after.iter().any(|r| r.person_id == b));
}

#[test]
fn post_then_like_then_is4() {
    let mut s = generated();
    let author = s.persons.id[0];
    let forum = s.forums.id[0];
    let mut fresh = post(&s, 7_000_000, author, forum, 5_000, vec![1]);
    fresh.content = "fresh post".into();
    fresh.length = 10;
    apply(&mut s, DateTime(5_000), UpdateEvent::AddPost(fresh));
    let rows = short::is4::run(&s, &short::is4::Params { message_id: 7_000_000 });
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].message_content, "fresh post");
    let liker = s.persons.id[1];
    add_like(&mut s, liker, 7_000_000, 6_000);
    let m = s.message(7_000_000).unwrap();
    assert_eq!(s.message_likes.degree(m), 1);
}
