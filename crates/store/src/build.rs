//! Bulk-loading a [`Store`]: one builder, [`StreamBuilder`], with three
//! feeders — the generator's two shapes and the CsvBasic files.
//!
//! * **Streamed** ([`store_for_config`], [`bulk_store_and_stream`]): the
//!   generator runs chunk-at-a-time and every record goes straight into
//!   columnar form. Only persons and `knows` edges stay resident — both
//!   O(persons), a sliver of the data — because the activity pass draws
//!   repliers and likers from the whole friendship graph. Every forum,
//!   membership, message and like flows from the [`ActivitySink`] into
//!   the columns and is dropped, so peak RSS is the store plus one chunk,
//!   not the store plus the raw graph (which message content dominates).
//!   With a stream cut, the driver also keeps what the update stream
//!   needs: the tail records (about a tenth of the data) and three dense
//!   creation-date ledgers (a few bytes per entity).
//! * **From vectors** ([`build_store`]): a materialised [`RawGraph`] —
//!   the serializers' input — fed through the same builder in vector
//!   order.
//! * **From disk** ([`load_csv_basic`], spec §6.1.3): the records
//!   [`read_basic`] reads back from a CsvBasic dataset, fed exactly as
//!   [`build_store`] feeds a graph.
//!
//! Records arrive in the generator's dependency order: persons, then
//! `knows`, then activity in which a post's forum and a comment's parent
//! are always emitted first. Ingestion is therefore single-pass, and the
//! per-relation edge lists come out in the same order every way, so the
//! three feeders build the same store: a loaded CsvBasic dataset encodes
//! byte for byte like the graph it was serialized from, built with the
//! same cut.

use std::path::Path;

use snb_core::datetime::DateTime;
use snb_core::model::MessageKind;
use snb_core::{SnbError, SnbResult};

use snb_datagen::dictionaries::{StaticWorld, TAGS, TAG_CLASSES};
use snb_datagen::graph::{
    RawForum, RawGraph, RawKnows, RawLike, RawMembership, RawMessage, RawPerson,
};
use snb_datagen::serializer::read_basic;
use snb_datagen::stream::TimedEvent;
use snb_datagen::{ActivitySink, GeneratorConfig};

use crate::adj::Adj;
use crate::columns::{Ix, NONE};
use crate::insert::ListEdges;
use crate::store::Store;

/// How many persons each generation chunk holds. Small enough that a
/// chunk is a rounding error next to the store, large enough that the
/// per-chunk overhead vanishes.
const PERSON_CHUNK: usize = 4096;

/// Builds a store from a generated graph, optionally excluding records
/// at/after `cut` (pass `None` to load everything, or
/// `Some(config.stream_cut())` to load only the bulk dataset and replay
/// the tail through [`Store::apply_event`]).
pub fn build_store(graph: &RawGraph, world: &StaticWorld, cut: Option<DateTime>) -> Store {
    unloadable(feed(StreamBuilder::new(world, cut), graph))
}

/// Loads the CsvBasic dataset under `root` written for `world` (spec
/// §6.1.3): [`read_basic`]'s records fed to the one builder in
/// [`build_store`]'s order. A file the serializer could not have written
/// (see [`read_basic`]) or a record the row writers refuse is a typed
/// error, never a panic. `knows`, membership and like rows with an absent
/// end, and a forum whose moderator is absent, are skipped: the skip rule
/// every feeder shares.
pub fn load_csv_basic(root: &Path, world: &StaticWorld) -> SnbResult<Store> {
    let graph = read_basic(root, world)?;
    feed(StreamBuilder::new(world, None), &graph)
        .map_err(|e| SnbError::parse(root.display().to_string(), e.to_string()))
}

/// Feeds a materialised graph through `b` in generator order.
fn feed(mut b: StreamBuilder<'_>, graph: &RawGraph) -> SnbResult<Store> {
    b.add_persons(&graph.persons)?;
    b.add_knows(&graph.knows);
    for f in &graph.forums {
        b.add_forum(f)?;
    }
    graph.memberships.iter().for_each(|m| b.add_membership(m));
    for m in &graph.messages {
        b.add_message(m)?;
    }
    graph.likes.iter().for_each(|l| b.add_like(l));
    Ok(b.finish())
}

/// The store a generator-fed build made. A row the builder refused
/// means the generator broke its own dependency order: a bug, not
/// input.
fn unloadable<T>(built: SnbResult<T>) -> T {
    built.unwrap_or_else(|e| panic!("bulk load: {e}"))
}

/// Incremental store builder: records in, columns and CSR adjacency out.
///
/// Records must arrive in the generator's dependency order: all persons,
/// then all `knows` edges, then activity (forums, memberships, messages
/// and likes, interleaved as emitted or one kind after another). Records
/// at/after the cut are skipped. Each row goes through the row writer
/// [`Store::apply_event`] uses; a row whose reference does not resolve
/// is a typed error, except a forum without its moderator, which is
/// skipped like an edge with a missing end.
pub struct StreamBuilder<'w> {
    world: &'w StaticWorld,
    cut: Option<DateTime>,
    s: Store,

    // Edge accumulators; the stable CSR counting sort in `finish` keeps
    // each source's neighbours in arrival order.
    lists: ListEdges,
    city_edges: Vec<(Ix, Ix, ())>,
    knows_edges: Vec<(Ix, Ix, DateTime)>,
    moderates: Vec<(Ix, Ix, ())>,
    member_edges: Vec<(Ix, Ix, DateTime)>,
    creator_edges: Vec<(Ix, Ix, ())>,
    forum_post_edges: Vec<(Ix, Ix, ())>,
    reply_edges: Vec<(Ix, Ix, ())>,
    like_edges: Vec<(Ix, Ix, DateTime)>,
}

impl<'w> StreamBuilder<'w> {
    /// A builder with the static world loaded. Pass `Some(cut)` to skip
    /// the stream tail (records at/after the cut).
    pub fn new(world: &'w StaticWorld, cut: Option<DateTime>) -> Self {
        let mut s = Store::default();
        load_static(&mut s, world);
        StreamBuilder {
            world,
            cut,
            s,
            lists: ListEdges::default(),
            city_edges: Vec::new(),
            knows_edges: Vec::new(),
            moderates: Vec::new(),
            member_edges: Vec::new(),
            creator_edges: Vec::new(),
            forum_post_edges: Vec::new(),
            reply_edges: Vec::new(),
            like_edges: Vec::new(),
        }
    }

    fn keep(&self, t: DateTime) -> bool {
        self.cut.is_none_or(|c| t < c)
    }

    /// Ingests persons (columns + static edges), in one or many chunks.
    pub fn add_persons(&mut self, chunk: &[RawPerson]) -> SnbResult<()> {
        for p in chunk {
            if !self.keep(p.creation_date) {
                continue;
            }
            let ix = self.s.push_person(p, self.world, &mut self.lists)?;
            self.city_edges.push((self.s.persons.city[ix as usize], ix, ()));
        }
        Ok(())
    }

    /// Ingests the `knows` edges (call after all persons); both
    /// directions are stored.
    pub fn add_knows(&mut self, knows: &[RawKnows]) {
        for k in knows {
            if !self.keep(k.creation_date) {
                continue;
            }
            let (Some(&a), Some(&b)) = (self.s.person_ix.get(&k.a.0), self.s.person_ix.get(&k.b.0))
            else {
                continue;
            };
            self.knows_edges.push((a, b, k.creation_date));
            self.knows_edges.push((b, a, k.creation_date));
        }
    }

    /// Ingests one forum; one whose moderator is not loaded is skipped.
    pub fn add_forum(&mut self, f: &RawForum) -> SnbResult<()> {
        if !self.keep(f.creation_date) {
            return Ok(());
        }
        match self.s.push_forum(f, &mut self.lists) {
            Ok(ix) => self.moderates.push((self.s.forums.moderator[ix as usize], ix, ())),
            Err(SnbError::UnknownId { entity: "Person", .. }) => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Ingests one forum membership.
    pub fn add_membership(&mut self, m: &RawMembership) {
        if !self.keep(m.join_date) {
            return;
        }
        let (Some(&f), Some(&p)) =
            (self.s.forum_ix.get(&m.forum.0), self.s.person_ix.get(&m.person.0))
        else {
            return;
        };
        self.member_edges.push((f, p, m.join_date));
    }

    /// Ingests one post or comment. Its forum, creator and parent must
    /// already be loaded (a parent always has a smaller id and is
    /// emitted first).
    pub fn add_message(&mut self, m: &RawMessage) -> SnbResult<()> {
        if !self.keep(m.creation_date) {
            return Ok(());
        }
        let ix = self.s.push_message(m, self.world, &mut self.lists)?;
        let (cols, i) = (&self.s.messages, ix as usize);
        self.creator_edges.push((cols.creator[i], ix, ()));
        match cols.reply_of[i] {
            NONE => self.forum_post_edges.push((cols.forum[i], ix, ())),
            parent => self.reply_edges.push((parent, ix, ())),
        }
        Ok(())
    }

    /// Ingests one like.
    pub fn add_like(&mut self, l: &RawLike) {
        if !self.keep(l.creation_date) {
            return;
        }
        let (Some(&p), Some(&m)) =
            (self.s.person_ix.get(&l.person.0), self.s.message_ix.get(&l.message.0))
        else {
            return;
        };
        self.like_edges.push((p, m, l.creation_date));
    }

    /// Assembles adjacency, rebuilds the date index and returns the store.
    pub fn finish(self) -> Store {
        let mut s = self.s;
        let np = s.persons.len();
        let nt = s.tags.len();
        let nf = s.forums.len();
        let nm = s.messages.len();

        let lists = &self.lists;
        let (pi, ip) = crate::adj::forward_reverse(np, nt, &lists.interest);
        *s.person_interest = pi;
        *s.interest_person = ip;
        *s.person_study = Adj::from_edges(np, &lists.study);
        *s.person_work = Adj::from_edges(np, &lists.work);
        *s.city_person = Adj::from_edges(s.places.len(), &self.city_edges);
        *s.knows = Adj::from_edges(np, &self.knows_edges);

        let (ft, tf) = crate::adj::forward_reverse(nf, nt, &lists.forum_tag);
        *s.forum_tag = ft;
        *s.tag_forum = tf;
        *s.person_moderates = Adj::from_edges(np, &self.moderates);
        *s.forum_member = Adj::from_edges(nf, &self.member_edges);
        let rev: Vec<(u32, u32, DateTime)> =
            self.member_edges.iter().map(|&(f, p, d)| (p, f, d)).collect();
        *s.member_forum = Adj::from_edges(np, &rev);

        let (mt, tm) = crate::adj::forward_reverse(nm, nt, &lists.message_tag);
        *s.message_tag = mt;
        *s.tag_message = tm;
        *s.person_messages = Adj::from_edges(np, &self.creator_edges);
        *s.forum_posts = Adj::from_edges(nf, &self.forum_post_edges);
        *s.message_replies = Adj::from_edges(nm, &self.reply_edges);

        *s.person_likes = Adj::from_edges(np, &self.like_edges);
        let rev: Vec<(u32, u32, DateTime)> =
            self.like_edges.iter().map(|&(p, m, d)| (m, p, d)).collect();
        *s.message_likes = Adj::from_edges(nm, &rev);

        s.rebuild_date_index();
        s.shrink_columns();
        s
    }
}

/// Loads the static part of the schema (places, tags, tag classes,
/// organisations) from the dictionary world.
pub(crate) fn load_static(s: &mut Store, world: &StaticWorld) {
    // Places.
    let mut child_edges = Vec::new();
    for (pid, name) in world.place_names.iter().enumerate() {
        let ix = pid as Ix;
        let (kind, parent) = world.place(pid);
        s.place_ix.insert(pid as u64, ix);
        s.places.id.push(pid as u64);
        s.places.name.push(name);
        s.places.kind.push(kind);
        s.places.part_of.push(parent.map_or(NONE, |p| p.0 as Ix));
        child_edges.extend(parent.map(|p| (p.0 as Ix, ix, ())));
    }
    *s.place_children = Adj::from_edges(s.places.len(), &child_edges);

    // Tag classes (class 0 is the root).
    let mut class_children = Vec::new();
    for (ci, &(name, parent)) in TAG_CLASSES.iter().enumerate() {
        let ix = ci as Ix;
        s.tag_class_ix.insert(ci as u64, ix);
        s.tag_classes.id.push(ci as u64);
        s.tag_classes.name.push(name);
        s.tag_classes.parent.push(if ci == 0 { NONE } else { parent as Ix });
        if ci != 0 {
            class_children.push((parent as Ix, ix, ()));
        }
    }
    *s.tagclass_children = Adj::from_edges(s.tag_classes.len(), &class_children);

    // Tags.
    let mut class_tag_edges = Vec::new();
    for (ti, &(name, class)) in TAGS.iter().enumerate() {
        let ix = ti as Ix;
        s.tag_ix.insert(ti as u64, ix);
        s.tags.id.push(ti as u64);
        s.tags.name.push(name);
        s.tags.class.push(class as Ix);
        class_tag_edges.push((class as Ix, ix, ()));
    }
    *s.tagclass_tags = Adj::from_edges(s.tag_classes.len(), &class_tag_edges);

    // Organisations, numbered as the serializer numbers them.
    for (id, (kind, name, place)) in world.organisations().enumerate() {
        s.org_ix.insert(id as u64, id as Ix);
        s.organisations.id.push(id as u64);
        s.organisations.name.push(name);
        s.organisations.kind.push(kind);
        s.organisations.place.push(place.0 as Ix);
    }
}

/// What the update stream needs from a streamed generation: the records
/// at/after the cut, and creation-date ledgers over every entity, indexed
/// by id (generator ids are sequential; a tail event may depend on a bulk
/// entity).
struct Tail {
    cut: DateTime,
    records: RawGraph,
    person_created: Vec<DateTime>,
    forum_created: Vec<DateTime>,
    message_created: Vec<(DateTime, MessageKind)>,
}

impl Tail {
    fn new(cut: DateTime) -> Self {
        Tail {
            cut,
            records: RawGraph::default(),
            person_created: Vec::new(),
            forum_created: Vec::new(),
            message_created: Vec::new(),
        }
    }

    fn events(self) -> Vec<TimedEvent> {
        snb_datagen::stream::build_update_streams_dense(
            &self.records,
            &self.person_created,
            &self.forum_created,
            &self.message_created,
            self.cut,
        )
    }
}

/// The streaming driver's activity sink: records before the cut go to
/// the builder by reference; with a cut, the tail is kept. After a row
/// the builder refuses, nothing more is fed.
struct Sink<'w> {
    builder: StreamBuilder<'w>,
    tail: Option<Tail>,
    fed: SnbResult<()>,
}

impl<'w> Sink<'w> {
    fn feed(&mut self, add: impl FnOnce(&mut StreamBuilder<'w>) -> SnbResult<()>) {
        if self.fed.is_ok() {
            self.fed = add(&mut self.builder);
        }
    }
}

impl ActivitySink for Sink<'_> {
    fn forum(&mut self, f: RawForum) {
        if let Some(t) = &mut self.tail {
            t.forum_created.push(f.creation_date);
            if f.creation_date >= t.cut {
                t.records.forums.push(f);
                return;
            }
        }
        self.feed(|b| b.add_forum(&f));
    }

    fn membership(&mut self, m: RawMembership) {
        if let Some(t) = self.tail.as_mut().filter(|t| m.join_date >= t.cut) {
            t.records.memberships.push(m);
            return;
        }
        self.builder.add_membership(&m);
    }

    fn message(&mut self, m: RawMessage) {
        if let Some(t) = &mut self.tail {
            t.message_created.push((m.creation_date, m.kind));
            if m.creation_date >= t.cut {
                t.records.messages.push(m);
                return;
            }
        }
        self.feed(|b| b.add_message(&m));
    }

    fn like(&mut self, l: RawLike) {
        if let Some(t) = self.tail.as_mut().filter(|t| l.creation_date >= t.cut) {
            t.records.likes.push(l);
            return;
        }
        self.builder.add_like(&l);
    }
}

/// Runs the generation pipeline `chunk` persons at a time, ingesting
/// records as they appear. Returns the store plus, when `cut` is set,
/// the update-event tail.
fn streaming_build(
    config: &GeneratorConfig,
    cut: Option<DateTime>,
    chunk: usize,
) -> (Store, Vec<TimedEvent>) {
    let world = StaticWorld::build(config.seed);
    let mut sink =
        Sink { builder: StreamBuilder::new(&world, cut), tail: cut.map(Tail::new), fed: Ok(()) };

    let mut persons: Vec<RawPerson> = Vec::with_capacity(config.persons as usize);
    for chunk in snb_datagen::person_chunks(config, &world, chunk) {
        if let Some(t) = &mut sink.tail {
            t.person_created.extend(chunk.iter().map(|p| p.creation_date));
            t.records.persons.extend(chunk.iter().filter(|p| p.creation_date >= t.cut).cloned());
        }
        sink.feed(|b| b.add_persons(&chunk));
        persons.extend(chunk);
    }
    let knows = snb_datagen::knows::generate_knows(config, &persons);
    if let Some(t) = &mut sink.tail {
        t.records.knows.extend(knows.iter().filter(|k| k.creation_date >= t.cut));
    }
    sink.builder.add_knows(&knows);
    snb_datagen::generate_activity_into(config, &world, &persons, &knows, &mut sink);

    unloadable(sink.fed);
    let store = sink.builder.finish();
    (store, sink.tail.map_or_else(Vec::new, Tail::events))
}

/// Generates a scale factor and loads everything (no bulk/stream split),
/// streaming. The workhorse constructor for tests, examples and
/// benchmarks.
pub fn store_for_config(config: &GeneratorConfig) -> Store {
    streaming_build(config, None, PERSON_CHUNK).0
}

/// Like [`store_for_config`] but split at the stream cut, returning the
/// bulk store together with the sorted update events for replay. Only
/// the tail records are ever materialised in raw form.
pub fn bulk_store_and_stream(config: &GeneratorConfig) -> (Store, Vec<TimedEvent>) {
    streaming_build(config, Some(config.stream_cut()), PERSON_CHUNK)
}

/// Summary counts used by experiment E1 (scale statistics).
pub struct StoreStats {
    /// Total nodes (all entity types).
    pub nodes: u64,
    /// Total edges (all relation instances).
    pub edges: u64,
    /// Persons.
    pub persons: u64,
    /// Forums.
    pub forums: u64,
    /// Posts.
    pub posts: u64,
    /// Comments.
    pub comments: u64,
    /// `knows` edges (undirected count).
    pub knows: u64,
    /// Likes.
    pub likes: u64,
}

impl Store {
    /// Computes summary statistics.
    pub fn stats(&self) -> StoreStats {
        let posts = self.messages.kind.iter().filter(|k| **k == MessageKind::Post).count() as u64;
        let nodes = (self.persons.len()
            + self.forums.len()
            + self.messages.len()
            + self.places.len()
            + self.tags.len()
            + self.tag_classes.len()
            + self.organisations.len()) as u64;
        let edges = (self.knows.edge_count() / 2
            + self.person_interest.edge_count()
            + self.person_study.edge_count()
            + self.person_work.edge_count()
            + self.persons.len() // person isLocatedIn
            + self.forum_member.edge_count()
            + self.forum_tag.edge_count()
            + self.forums.len() // hasModerator
            + self.message_tag.edge_count()
            + self.messages.len() * 2 // hasCreator + isLocatedIn
            + self.forum_posts.edge_count() // containerOf
            + self.message_replies.edge_count() // replyOf
            + self.person_likes.edge_count()
            + self.places.len() // isPartOf (continents contribute 0 but close enough: count non-NONE)
            + self.tags.len() // hasType
            + self.tag_classes.len().saturating_sub(1) // isSubclassOf
            + self.organisations.len()) as u64; // org isLocatedIn
        StoreStats {
            nodes,
            edges,
            persons: self.persons.len() as u64,
            forums: self.forums.len() as u64,
            posts,
            comments: self.messages.len() as u64 - posts,
            knows: (self.knows.edge_count() / 2) as u64,
            likes: self.person_likes.edge_count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::model::PlaceKind;
    use snb_core::scale::ScaleFactor;

    fn config(n: u64) -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = n;
        c
    }

    /// The generator's materialised graph fed through [`build_store`],
    /// with the update events from `build_update_streams`: the path the
    /// streaming pipeline must agree with.
    fn materialised(c: &GeneratorConfig, cut: Option<DateTime>) -> (Store, Vec<TimedEvent>) {
        let graph = snb_datagen::generate(c);
        let store = build_store(&graph, &StaticWorld::build(c.seed), cut);
        let events =
            cut.map_or_else(Vec::new, |cut| snb_datagen::stream::build_update_streams(&graph, cut));
        (store, events)
    }

    /// Both stores are valid and identical: every column group and
    /// adjacency (the image bytes) plus the date index.
    fn assert_same_store(a: &Store, b: &Store) {
        a.validate_invariants().unwrap();
        b.validate_invariants().unwrap();
        assert_eq!(*a.message_by_date, *b.message_by_date);
        assert!(crate::encode_store(a) == crate::encode_store(b), "store images differ");
    }

    fn assert_same_events(a: &[TimedEvent], b: &[TimedEvent]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn streaming_build_matches_bulk() {
        let c = config(150);
        assert_same_store(&materialised(&c, None).0, &store_for_config(&c));
    }

    #[test]
    fn streaming_split_matches_bulk_split() {
        let c = config(150);
        let (bulk, bulk_events) = materialised(&c, Some(c.stream_cut()));
        let (streamed, stream_events) = bulk_store_and_stream(&c);
        assert_same_store(&bulk, &streamed);
        assert!(!stream_events.is_empty());
        assert_same_events(&bulk_events, &stream_events);
    }

    #[test]
    fn streaming_chunk_boundary_has_no_effect() {
        // Chunked person generation is index-derived, so chunk size is
        // invisible; drive the pipeline with a tiny chunk.
        let c = config(90);
        let cut = Some(c.stream_cut());
        let (bulk, bulk_events) = materialised(&c, cut);
        let (streamed, stream_events) = streaming_build(&c, cut, 7);
        assert_same_store(&bulk, &streamed);
        assert_same_events(&bulk_events, &stream_events);
    }

    #[test]
    fn builds_and_validates() {
        let s = store_for_config(&config(80));
        s.validate_invariants().unwrap();
        assert_eq!(s.persons.len(), 80);
        assert!(s.messages.len() > 100);
        assert!(s.forums.len() >= 80); // at least one wall each
    }

    #[test]
    fn id_maps_round_trip() {
        let s = store_for_config(&config(60));
        for (ix, &id) in s.persons.id.iter().enumerate() {
            assert_eq!(s.person_ix[&id], ix as Ix);
        }
        for (ix, &id) in s.messages.id.iter().enumerate() {
            assert_eq!(s.message_ix[&id], ix as Ix);
        }
    }

    #[test]
    fn reply_edges_mirror_columns() {
        let s = store_for_config(&config(60));
        for m in 0..s.messages.len() as Ix {
            let parent = s.messages.reply_of[m as usize];
            if parent != NONE {
                assert!(s.message_replies.targets_of(parent).any(|r| r == m), "reply edge missing");
            }
        }
        for m in 0..s.messages.len() as Ix {
            for r in s.message_replies.targets_of(m) {
                assert_eq!(s.messages.reply_of[r as usize], m);
            }
        }
    }

    #[test]
    fn place_hierarchy_is_three_levels() {
        let s = store_for_config(&config(40));
        for p in 0..s.places.len() {
            match s.places.kind[p] {
                PlaceKind::Continent => assert_eq!(s.places.part_of[p], NONE),
                PlaceKind::Country => {
                    let parent = s.places.part_of[p] as usize;
                    assert_eq!(s.places.kind[parent], PlaceKind::Continent);
                }
                PlaceKind::City => {
                    let parent = s.places.part_of[p] as usize;
                    assert_eq!(s.places.kind[parent], PlaceKind::Country);
                }
            }
        }
    }

    #[test]
    fn tagclass_subtree_contains_descendants() {
        let s = store_for_config(&config(40));
        let person_class = s.tag_class_named("Person").unwrap();
        let subtree = s.tagclass_subtree(person_class);
        let artist = s.tag_class_named("Artist").unwrap();
        let musical = s.tag_class_named("MusicalArtist").unwrap();
        assert!(subtree.contains(&artist));
        assert!(subtree.contains(&musical));
        let work = s.tag_class_named("Work").unwrap();
        assert!(!subtree.contains(&work));
        // tag_in_class_subtree agrees with subtree membership.
        for t in 0..s.tags.len() as Ix {
            let by_walk = s.tag_in_class_subtree(t, person_class);
            let by_set = subtree.contains(&s.tags.class[t as usize]);
            assert_eq!(by_walk, by_set, "tag {t}");
        }
    }

    #[test]
    fn bulk_split_smaller_than_full() {
        let c = config(120);
        let full = store_for_config(&c);
        let (bulk, events) = bulk_store_and_stream(&c);
        assert!(bulk.messages.len() < full.messages.len());
        assert!(!events.is_empty());
        bulk.validate_invariants().unwrap();
    }

    #[test]
    fn persons_in_country_matches_columns() {
        let s = store_for_config(&config(150));
        let mut via_helper = 0usize;
        for country in
            (0..s.places.len() as Ix).filter(|&p| s.places.kind[p as usize] == PlaceKind::Country)
        {
            for p in s.persons_in_country(country) {
                assert_eq!(s.person_country(p), country);
                via_helper += 1;
            }
        }
        assert_eq!(via_helper, s.persons.len());
    }

    #[test]
    fn date_index_windows_match_scans() {
        let s = store_for_config(&config(80));
        // Probe a handful of cut points, including both extremes.
        let mut cuts = s.messages.creation_date.to_vec();
        cuts.sort_unstable();
        for &t in
            [cuts[0], cuts[cuts.len() / 3], cuts[cuts.len() / 2], *cuts.last().unwrap()].iter()
        {
            let before = s.messages_created_before(t);
            let scan_before: Vec<Ix> = (0..s.messages.len() as Ix)
                .filter(|&m| s.messages.creation_date[m as usize] < t)
                .collect();
            let mut sorted = before.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, scan_before);
        }
        let (lo, hi) = (cuts[cuts.len() / 3], cuts[cuts.len() / 2]);
        let mut window = s.messages_created_in(lo, hi).to_vec();
        window.sort_unstable();
        let dates = &s.messages.creation_date;
        let scan: Vec<Ix> = (0..s.messages.len() as Ix)
            .filter(|&m| (lo..hi).contains(&dates[m as usize]))
            .collect();
        assert_eq!(window, scan);
        assert!(s.messages_created_in(hi, lo).is_empty(), "a reversed window is empty");
    }

    #[test]
    fn thread_forum_resolves_for_comments() {
        let s = store_for_config(&config(80));
        for m in 0..s.messages.len() as Ix {
            let f = s.thread_forum(m);
            assert_ne!(f, NONE, "thread forum missing for message {m}");
            assert!((f as usize) < s.forums.len());
        }
    }
}
