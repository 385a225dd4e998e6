//! The write path: every insert reaches a [`Store`] as an update-stream
//! event — the generator's `Raw*` records — through
//! [`Store::apply_event`].
//!
//! One row writer per entity (person, forum, message) serves both this
//! path and the bulk builder ([`crate::StreamBuilder`]). A row writer
//! resolves every reference of its record — ids, dictionary indices, the
//! fields a post or a comment must (not) carry — to a typed
//! [`SnbError`] before it writes anything, then appends the id-map
//! entry and every column, and hands the record's list-valued edges back
//! in a [`ListEdges`]. The builder keeps those for its CSR sort;
//! `apply_event` appends them to the adjacency overflow (see
//! [`crate::adj::Adj::insert`]), so no CSR rebuild happens on the write
//! path, which keeps update latency flat — [`Store::compact`] can fold
//! the overflow back in between benchmark phases.
//!
//! No insert writes a row that already exists: every column change is
//! an append. The columns are [`AppendVec`](crate::append_vec::AppendVec)s,
//! so on a clone of a published version those appends go into the
//! buffers the version shares, and an insert batch copies what it
//! appends rather than the store.

use snb_core::model::{MessageKind, OrganisationKind, PlaceKind};
use snb_core::{SnbError, SnbResult};

use snb_datagen::dictionaries::{StaticWorld, BROWSERS};
use snb_datagen::graph::{RawForum, RawMessage, RawPerson};
use snb_datagen::stream::{TimedEvent, UpdateEvent};

use crate::columns::{IdMap, Ix, NONE};
use crate::store::{Entity, Store};

/// The list-valued edges of the rows the row writers append, each as
/// `(row, target, payload)`.
#[derive(Default)]
pub(crate) struct ListEdges {
    pub(crate) interest: Vec<(Ix, Ix, ())>,
    pub(crate) study: Vec<(Ix, Ix, i32)>,
    pub(crate) work: Vec<(Ix, Ix, i32)>,
    pub(crate) forum_tag: Vec<(Ix, Ix, ())>,
    pub(crate) message_tag: Vec<(Ix, Ix, ())>,
}

/// The dense index of `id` in `map`.
fn lookup(map: &IdMap, entity: &'static str, id: u64) -> SnbResult<Ix> {
    map.get(&id).copied().ok_or(SnbError::UnknownId { entity, id })
}

/// Dictionary entry `ix` of `what` on the record `owner` names.
fn entry<T: Copy>(entries: &[T], ix: u8, what: &str, owner: impl Fn() -> String) -> SnbResult<T> {
    entries.get(ix as usize).copied().ok_or_else(|| {
        SnbError::parse(owner(), format!("{what} index {ix} is past the dictionary's end"))
    })
}

/// An error if `map` holds `id`: an insert never rewrites a row.
fn fresh(map: &IdMap, entity: &str, id: u64) -> SnbResult<()> {
    if map.contains_key(&id) {
        return Err(SnbError::Config(format!("{entity} {id} already exists")));
    }
    Ok(())
}

impl Store {
    /// A place of the given kind.
    fn place_of_kind(&self, id: u64, kind: PlaceKind) -> SnbResult<Ix> {
        let ix = lookup(&self.place_ix, "Place", id)?;
        if self.places.kind[ix as usize] != kind {
            return Err(SnbError::parse(format!("Place {id}"), format!("is not a {kind:?}")));
        }
        Ok(ix)
    }

    /// The dense index of organisation `id`, which must be a `kind`.
    fn org_of_kind(&self, id: u64, kind: OrganisationKind) -> SnbResult<Ix> {
        let ix = lookup(&self.org_ix, "Organisation", id)?;
        if self.organisations.kind[ix as usize] != kind {
            return Err(SnbError::parse(
                format!("Organisation {id}"),
                format!("is not a {kind:?}"),
            ));
        }
        Ok(ix)
    }

    /// Appends a person row (id-map entry and every column); its
    /// interests, university and employers go to `edges`.
    pub(crate) fn push_person(
        &mut self,
        p: &RawPerson,
        world: &StaticWorld,
        edges: &mut ListEdges,
    ) -> SnbResult<Ix> {
        let owner = || format!("Person {}", p.id.0);
        let city = self.place_of_kind(p.city.0, PlaceKind::City)?;
        let browser = entry(BROWSERS, p.browser, "browser", owner)?.0;
        for &l in &p.languages {
            entry(&world.languages, l, "language", owner)?;
        }
        let ix = self.persons.len() as Ix;
        for t in &p.interests {
            edges.interest.push((ix, lookup(&self.tag_ix, "Tag", t.0)?, ()));
        }
        if let Some((org, year)) = p.study_at {
            edges.study.push((ix, self.org_of_kind(org.0, OrganisationKind::University)?, year));
        }
        for &(org, from) in &p.work_at {
            edges.work.push((ix, self.org_of_kind(org.0, OrganisationKind::Company)?, from));
        }
        self.person_ix.insert(p.id.0, ix);
        let cols = &mut *self.persons;
        cols.id.push(p.id.0);
        cols.first_name.push(&p.first_name);
        cols.last_name.push(&p.last_name);
        cols.gender.push(p.gender);
        cols.birthday.push(p.birthday);
        cols.creation_date.push(p.creation_date);
        cols.location_ip.push(&p.location_ip);
        cols.browser.push(browser);
        cols.city.push(city);
        cols.emails.push_row(&p.emails);
        cols.speaks.push_row(p.languages.iter().map(|&l| world.languages[l as usize]));
        Ok(ix)
    }

    /// Appends a forum row; its topic tags go to `edges`.
    pub(crate) fn push_forum(&mut self, f: &RawForum, edges: &mut ListEdges) -> SnbResult<Ix> {
        let moderator = self.person(f.moderator.0)?;
        let ix = self.forums.len() as Ix;
        for t in &f.tags {
            edges.forum_tag.push((ix, lookup(&self.tag_ix, "Tag", t.0)?, ()));
        }
        self.forum_ix.insert(f.id.0, ix);
        let cols = &mut *self.forums;
        cols.id.push(f.id.0);
        cols.title.push(&f.title);
        cols.creation_date.push(f.creation_date);
        cols.moderator.push(moderator);
        Ok(ix)
    }

    /// Appends a post or comment row; its tags go to `edges`. A post
    /// needs a forum and no parent, a comment a parent and no forum; a
    /// comment's root post is its parent's.
    pub(crate) fn push_message(
        &mut self,
        m: &RawMessage,
        world: &StaticWorld,
        edges: &mut ListEdges,
    ) -> SnbResult<Ix> {
        let owner = || format!("Message {}", m.id.0);
        let creator = self.person(m.creator.0)?;
        let country = self.place_of_kind(m.country.0, PlaceKind::Country)?;
        let browser = entry(BROWSERS, m.browser, "browser", owner)?.0;
        let language = match m.language {
            Some(l) => entry(&world.languages, l, "language", owner)?,
            None => "",
        };
        let ix = self.messages.len() as Ix;
        let (forum, reply_of, root_post) = match (m.kind, m.forum, m.reply_of) {
            (MessageKind::Post, Some(forum), None) => (self.forum(forum.0)?, NONE, ix),
            (MessageKind::Comment, None, Some(parent)) => {
                let parent = self.message(parent.0)?;
                (NONE, parent, self.messages.root_post[parent as usize])
            }
            (kind, ..) => {
                let want = match kind {
                    MessageKind::Post => "a forum and no parent",
                    MessageKind::Comment => "a parent and no forum",
                };
                return Err(SnbError::parse(owner(), format!("a {kind:?} needs {want}")));
            }
        };
        for t in &m.tags {
            edges.message_tag.push((ix, lookup(&self.tag_ix, "Tag", t.0)?, ()));
        }
        self.message_ix.insert(m.id.0, ix);
        let cols = &mut *self.messages;
        cols.id.push(m.id.0);
        cols.kind.push(m.kind);
        cols.creation_date.push(m.creation_date);
        cols.creator.push(creator);
        cols.country.push(country);
        cols.browser.push(browser);
        cols.location_ip.push(&m.location_ip);
        cols.content.push(&m.content);
        cols.length.push(m.length);
        cols.image_file.push(m.image_file.as_deref().unwrap_or_default());
        cols.language.push(language);
        cols.forum.push(forum);
        cols.reply_of.push(reply_of);
        cols.root_post.push(root_post);
        Ok(ix)
    }

    /// Applies one update-stream event (IU 1–8). Every reference must
    /// resolve and a new entity's id must be fresh; an event that fails
    /// either check returns a typed error and writes nothing.
    pub fn apply_event(&mut self, event: &TimedEvent, world: &StaticWorld) -> SnbResult<()> {
        let mut edges = ListEdges::default();
        match &event.event {
            UpdateEvent::AddPerson(p) => {
                fresh(&self.person_ix, "person", p.id.0)?;
                let ix = self.push_person(p, world, &mut edges)?;
                self.grow_sources(Entity::Person);
                self.city_person.insert(self.persons.city[ix as usize], ix, ());
                for &(_, tag, ()) in &edges.interest {
                    self.person_interest.insert(ix, tag, ());
                    self.interest_person.insert(tag, ix, ());
                }
                for &(_, org, year) in &edges.study {
                    self.person_study.insert(ix, org, year);
                }
                for &(_, org, from) in &edges.work {
                    self.person_work.insert(ix, org, from);
                }
            }
            UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => {
                let p = self.person(l.person.0)?;
                let m = self.message(l.message.0)?;
                self.person_likes.insert(p, m, l.creation_date);
                self.message_likes.insert(m, p, l.creation_date);
            }
            UpdateEvent::AddForum(f) => {
                fresh(&self.forum_ix, "forum", f.id.0)?;
                let ix = self.push_forum(f, &mut edges)?;
                self.grow_sources(Entity::Forum);
                self.person_moderates.insert(self.forums.moderator[ix as usize], ix, ());
                for &(_, tag, ()) in &edges.forum_tag {
                    self.forum_tag.insert(ix, tag, ());
                    self.tag_forum.insert(tag, ix, ());
                }
            }
            UpdateEvent::AddMembership(m) => {
                let p = self.person(m.person.0)?;
                let f = self.forum(m.forum.0)?;
                self.forum_member.insert(f, p, m.join_date);
                self.member_forum.insert(p, f, m.join_date);
            }
            UpdateEvent::AddPost(m) => self.add_message(m, MessageKind::Post, world)?,
            UpdateEvent::AddComment(m) => self.add_message(m, MessageKind::Comment, world)?,
            UpdateEvent::AddKnows(k) => {
                let a = self.person(k.a.0)?;
                let b = self.person(k.b.0)?;
                self.knows.insert(a, b, k.creation_date);
                self.knows.insert(b, a, k.creation_date);
            }
        }
        Ok(())
    }

    /// Inserts a message whose event says it is a `kind`: the row, then
    /// its adjacency sources, its edges and its place in the date index.
    fn add_message(
        &mut self,
        m: &RawMessage,
        kind: MessageKind,
        world: &StaticWorld,
    ) -> SnbResult<()> {
        if m.kind != kind {
            let detail = format!("a {:?} record in an add-{kind:?} event", m.kind);
            return Err(SnbError::parse(format!("Message {}", m.id.0), detail));
        }
        fresh(&self.message_ix, "message", m.id.0)?;
        let mut edges = ListEdges::default();
        let ix = self.push_message(m, world, &mut edges)?;
        self.grow_sources(Entity::Message);
        let m = ix as usize;
        self.person_messages.insert(self.messages.creator[m], ix, ());
        // Keep the date permutation index fresh when the insert arrives
        // in `(creation_date, ix)` order — true for the time-ordered
        // update stream — so steady-state reads never hit the O(n)
        // linear-scan fallback. Out-of-order inserts leave the index
        // stale for the driver's batch-boundary rebuild to repair.
        if self.message_by_date.len() == m {
            let date = self.messages.creation_date[m];
            let in_order = match self.message_by_date.last() {
                None => true,
                Some(&prev) => (self.messages.creation_date[prev as usize], prev) < (date, ix),
            };
            if in_order {
                self.message_by_date.push(ix);
            }
        }
        match self.messages.reply_of[m] {
            NONE => self.forum_posts.insert(self.messages.forum[m], ix, ()),
            parent => self.message_replies.insert(parent, ix, ()),
        }
        for &(_, tag, ()) in &edges.message_tag {
            self.message_tag.insert(ix, tag, ());
            self.tag_message.insert(tag, ix, ());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{bulk_store_and_stream, store_for_config};
    use crate::Adj;
    use snb_core::datetime::{Date, DateTime};
    use snb_core::model::{ForumId, Gender, MessageId, OrganisationId, PersonId, PlaceId, TagId};
    use snb_core::scale::ScaleFactor;
    use snb_datagen::graph::RawKnows;
    use snb_datagen::GeneratorConfig;

    fn config(n: u64) -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = n;
        c
    }

    fn world() -> StaticWorld {
        StaticWorld::build(config(0).seed)
    }

    /// The index of language `code` in the world's dictionary.
    fn language(world: &StaticWorld, code: &str) -> u8 {
        world.languages.iter().position(|&l| l == code).expect("known language") as u8
    }

    fn event(event: UpdateEvent) -> TimedEvent {
        TimedEvent { timestamp: DateTime(0), dependent: DateTime(0), event }
    }

    fn add_person(s: &mut Store, p: RawPerson, world: &StaticWorld) -> SnbResult<Ix> {
        let id = p.id.0;
        s.apply_event(&event(UpdateEvent::AddPerson(p)), world)?;
        s.person(id)
    }

    fn add_message(s: &mut Store, m: RawMessage, world: &StaticWorld) -> SnbResult<Ix> {
        let id = m.id.0;
        let e = match m.kind {
            MessageKind::Post => UpdateEvent::AddPost(m),
            MessageKind::Comment => UpdateEvent::AddComment(m),
        };
        s.apply_event(&event(e), world)?;
        s.message(id)
    }

    fn person(id: u64, city_id: u64, world: &StaticWorld) -> RawPerson {
        RawPerson {
            id: PersonId(id),
            first_name: "Ada".into(),
            last_name: "Lovelace".into(),
            gender: Gender::Female,
            birthday: Date::from_ymd(1990, 5, 5),
            creation_date: DateTime::from_parts(2013, 6, 1, 12, 0, 0, 0),
            location_ip: "1.2.3.4".into(),
            browser: 0,
            city: PlaceId(city_id),
            country: 0,
            languages: vec![language(world, "en")],
            emails: vec![format!("{id}@example.com")],
            interests: vec![TagId(0), TagId(1)],
            study_at: None,
            work_at: vec![],
        }
    }

    fn post(
        id: u64,
        author: u64,
        forum_id: u64,
        country_id: u64,
        world: &StaticWorld,
    ) -> RawMessage {
        RawMessage {
            id: MessageId(id),
            kind: MessageKind::Post,
            creation_date: DateTime::from_parts(2013, 6, 2, 12, 0, 0, 0),
            creator: PersonId(author),
            country: PlaceId(country_id),
            location_ip: "1.2.3.4".into(),
            browser: 0,
            content: format!("post {id}"),
            length: 9,
            image_file: None,
            language: Some(language(world, "en")),
            forum: Some(ForumId(forum_id)),
            reply_of: None,
            root_post: MessageId(id),
            tags: vec![TagId(2)],
        }
    }

    /// A comment replying to `parent`; the store takes its root post
    /// from the parent's row, not from the record's `root_post`.
    fn comment(id: u64, author: u64, parent: u64, country_id: u64, date: DateTime) -> RawMessage {
        RawMessage {
            id: MessageId(id),
            kind: MessageKind::Comment,
            creation_date: date,
            creator: PersonId(author),
            country: PlaceId(country_id),
            location_ip: "9.9.9.9".into(),
            browser: 4,
            content: "interesting".into(),
            length: 11,
            image_file: None,
            language: None,
            forum: None,
            reply_of: Some(MessageId(parent)),
            root_post: MessageId(parent),
            tags: vec![TagId(3)],
        }
    }

    #[test]
    fn insert_person_then_lookup() {
        let mut s = store_for_config(&config(40));
        let world = world();
        let city = s.places.id[s.persons.city[0] as usize];
        let mut p = person(999_999, city, &world);
        let company = (0..s.organisations.len())
            .find(|&o| s.organisations.kind[o] == OrganisationKind::Company)
            .unwrap();
        p.work_at = vec![(OrganisationId(s.organisations.id[company]), 2010)];
        let ix = add_person(&mut s, p, &world).unwrap();
        assert_eq!(s.person(999_999).unwrap(), ix);
        assert_eq!(s.person_interest.targets_of(ix).count(), 2);
        assert!(s.interest_person.targets_of(0).any(|p| p == ix));
        s.validate_invariants().unwrap();
    }

    #[test]
    fn duplicate_person_rejected() {
        let mut s = store_for_config(&config(40));
        let world = world();
        let existing = s.persons.id[0];
        let city = s.places.id[s.persons.city[0] as usize];
        let err = add_person(&mut s, person(existing, city, &world), &world);
        assert!(err.is_err());
    }

    #[test]
    fn insert_knows_is_symmetric() {
        let mut s = store_for_config(&config(40));
        let (a, b) = (s.persons.id[0], s.persons.id[1]);
        let before = s.knows.edge_count();
        let k =
            RawKnows { a: PersonId(a), b: PersonId(b), creation_date: DateTime(123), dimension: 0 };
        s.apply_event(&event(UpdateEvent::AddKnows(k)), &world()).unwrap();
        assert_eq!(s.knows.edge_count(), before + 2);
        let ai = s.person(a).unwrap();
        let bi = s.person(b).unwrap();
        assert!(s.knows.neighbors(ai).any(|(t, d)| t == bi && d == DateTime(123)));
        assert!(s.knows.neighbors(bi).any(|(t, d)| t == ai && d == DateTime(123)));
    }

    #[test]
    fn insert_comment_threads_correctly() {
        let mut s = store_for_config(&config(40));
        let world = world();
        // Find a post.
        let post = (0..s.messages.len() as Ix).find(|&m| s.messages.is_post(m)).unwrap();
        let post_id = s.messages.id[post as usize];
        let author = s.persons.id[0];
        let country = s.places.id[s.messages.country[post as usize] as usize];
        let date = DateTime(s.messages.creation_date[post as usize].0 + 1000);
        let cix = add_message(&mut s, comment(5_000_000, author, post_id, country, date), &world)
            .unwrap();
        assert_eq!(s.messages.reply_of[cix as usize], post);
        assert_eq!(s.messages.root_post[cix as usize], post);
        assert!(s.message_replies.targets_of(post).any(|r| r == cix));
        // Reply to the new comment: root must stay the post.
        let date = DateTime(s.messages.creation_date[cix as usize].0 + 1000);
        let mut reply = comment(5_000_001, author, 5_000_000, country, date);
        reply.tags.clear();
        let c2 = add_message(&mut s, reply, &world).unwrap();
        assert_eq!(s.messages.root_post[c2 as usize], post);
    }

    #[test]
    fn hostile_record_fields_are_typed_errors_that_write_nothing() {
        let s = store_for_config(&config(40));
        let world = world();
        let image = crate::encode_store(&s);
        let city = s.places.id[s.persons.city[0] as usize];
        let country = s.places.id[s.messages.country[0] as usize];
        let (author, forum) = (s.persons.id[0], s.forums.id[0]);
        let org = |kind| {
            let o = (0..s.organisations.len()).find(|&o| s.organisations.kind[o] == kind).unwrap();
            OrganisationId(s.organisations.id[o])
        };
        let (university, company) =
            (org(OrganisationKind::University), org(OrganisationKind::Company));
        let good_post = || post(7_000_000, author, forum, country, &world);
        let parent = s.messages.id[0];
        let good_comment = || comment(7_000_001, author, parent, country, DateTime(0));
        let with = |f: &dyn Fn(&mut RawPerson)| {
            let mut p = person(7_000_002, city, &world);
            f(&mut p);
            UpdateEvent::AddPerson(p)
        };
        let post_with = |f: &dyn Fn(&mut RawMessage)| {
            let mut m = good_post();
            f(&mut m);
            UpdateEvent::AddPost(m)
        };
        let cases = [
            ("person browser past the dictionary", with(&|p| p.browser = BROWSERS.len() as u8)),
            ("person browser 250", with(&|p| p.browser = 250)),
            ("person language out of range", with(&|p| p.languages.push(250))),
            ("person city is a country", with(&|p| p.city = PlaceId(country))),
            ("person interest unknown", with(&|p| p.interests.push(TagId(u64::MAX)))),
            ("person studies at a company", with(&|p| p.study_at = Some((company, 2010)))),
            ("person works at a university", with(&|p| p.work_at.push((university, 2010)))),
            ("post browser 250", post_with(&|m| m.browser = 250)),
            ("post language out of range", post_with(&|m| m.language = Some(250))),
            ("post without a forum", post_with(&|m| m.forum = None)),
            ("post with a parent", post_with(&|m| m.reply_of = Some(MessageId(parent)))),
            ("post carrying MessageKind::Comment", post_with(&|m| m.kind = MessageKind::Comment)),
            ("post in an unknown forum", post_with(&|m| m.forum = Some(ForumId(u64::MAX)))),
            ("post tag unknown", post_with(&|m| m.tags.push(TagId(u64::MAX)))),
            ("comment without a parent", {
                let mut c = good_comment();
                c.reply_of = None;
                UpdateEvent::AddComment(c)
            }),
            ("comment replying to an unknown message", {
                let mut c = good_comment();
                c.reply_of = Some(MessageId(u64::MAX));
                UpdateEvent::AddComment(c)
            }),
            ("comment carrying MessageKind::Post", UpdateEvent::AddComment(good_post())),
        ];
        for (what, e) in cases {
            let mut t = s.clone();
            assert!(t.apply_event(&event(e), &world).is_err(), "{what} must be refused");
            assert!(crate::encode_store(&t) == image, "{what} wrote to the store");
        }
        // The unmodified records apply.
        let mut t = s.clone();
        add_person(&mut t, person(7_000_002, city, &world), &world).unwrap();
        add_message(&mut t, good_post(), &world).unwrap();
        add_message(&mut t, good_comment(), &world).unwrap();
        t.validate_invariants().unwrap();
    }

    #[test]
    fn replaying_stream_reaches_full_counts() {
        let c = config(100);
        let full = store_for_config(&c);
        let (mut bulk, events) = bulk_store_and_stream(&c);
        let world = snb_datagen::dictionaries::StaticWorld::build(c.seed);
        for e in &events {
            bulk.apply_event(e, &world).unwrap();
        }
        assert_eq!(bulk.persons.len(), full.persons.len());
        assert_eq!(bulk.messages.len(), full.messages.len());
        assert_eq!(bulk.forums.len(), full.forums.len());
        assert_eq!(bulk.knows.edge_count(), full.knows.edge_count());
        assert_eq!(bulk.person_likes.edge_count(), full.person_likes.edge_count());
        assert_eq!(bulk.forum_member.edge_count(), full.forum_member.edge_count());
        bulk.validate_invariants().unwrap();
        // Compaction must not change any counts.
        bulk.compact();
        assert_eq!(bulk.knows.edge_count(), full.knows.edge_count());
        bulk.validate_invariants().unwrap();
    }

    /// `u`'s neighbours in `adj` as sorted `(raw id, payload)` pairs.
    fn neighbours<P: Copy + Ord>(adj: &Adj<P>, u: Ix, ids: &[u64]) -> Vec<(u64, P)> {
        let mut out: Vec<(u64, P)> = adj.neighbors(u).map(|(v, p)| (ids[v as usize], p)).collect();
        out.sort_unstable();
        out
    }

    /// The raw id at `ix`, `None` for an absent reference.
    fn raw(ids: &[u64], ix: Ix) -> Option<u64> {
        (ix != NONE).then(|| ids[ix as usize])
    }

    /// Every column and neighbour set of the person, forum and message
    /// with raw id `id`, each reference as a raw id, so that two stores
    /// that number their rows apart compare.
    fn rows(s: &Store, id: u64) -> [Option<String>; 3] {
        let (people, forums, messages) = (&s.persons.id, &s.forums.id, &s.messages.id);
        let (tags, orgs) = (&s.tags.id, &s.organisations.id);
        let person = s.person_ix.get(&id).map(|&p| {
            let (c, i) = (&s.persons, p as usize);
            format!(
                "{:?}",
                (
                    (&c.first_name[i], &c.last_name[i], c.gender[i], c.birthday[i]),
                    (
                        c.creation_date[i],
                        &c.location_ip[i],
                        &c.browser[i],
                        s.places.id[c.city[i] as usize]
                    ),
                    (c.emails.row_vec(i), c.speaks.row_vec(i)),
                    (neighbours(&s.knows, p, people), neighbours(&s.person_interest, p, tags)),
                    (neighbours(&s.person_study, p, orgs), neighbours(&s.person_work, p, orgs)),
                    (
                        neighbours(&s.member_forum, p, forums),
                        neighbours(&s.person_messages, p, messages)
                    ),
                    (
                        neighbours(&s.person_likes, p, messages),
                        neighbours(&s.person_moderates, p, forums)
                    ),
                )
            )
        });
        let forum = s.forum_ix.get(&id).map(|&f| {
            let (c, i) = (&s.forums, f as usize);
            format!(
                "{:?}",
                (
                    (&c.title[i], c.creation_date[i], people[c.moderator[i] as usize]),
                    (neighbours(&s.forum_member, f, people), neighbours(&s.forum_tag, f, tags)),
                    neighbours(&s.forum_posts, f, messages),
                )
            )
        });
        let message = s.message_ix.get(&id).map(|&m| {
            let (c, i) = (&s.messages, m as usize);
            format!(
                "{:?}",
                (
                    (c.kind[i], c.creation_date[i], people[c.creator[i] as usize]),
                    (s.places.id[c.country[i] as usize], &c.browser[i], &c.location_ip[i]),
                    (&c.content[i], c.length[i], &c.image_file[i], &c.language[i]),
                    (
                        raw(forums, c.forum[i]),
                        raw(messages, c.reply_of[i]),
                        messages[c.root_post[i] as usize]
                    ),
                    (
                        neighbours(&s.message_tag, m, tags),
                        neighbours(&s.message_replies, m, messages)
                    ),
                    neighbours(&s.message_likes, m, people),
                )
            )
        });
        [person, forum, message]
    }

    #[test]
    fn bulk_plus_replay_rows_equal_the_full_build() {
        let c = config(120);
        let full = store_for_config(&c);
        let (mut replayed, events) = bulk_store_and_stream(&c);
        let world = StaticWorld::build(c.seed);
        let bulk_messages = replayed.messages.len();
        for e in &events {
            replayed.apply_event(e, &world).unwrap();
        }
        assert!(replayed.messages.len() > bulk_messages + 100, "the tail must insert rows");
        let ids = full.persons.id.iter().chain(&full.forums.id[..]).chain(&full.messages.id[..]);
        for &id in ids {
            assert_eq!(rows(&replayed, id), rows(&full, id), "rows of raw id {id}");
        }
        // The static side's reverse relations hold the same neighbours.
        let reverse = |s: &Store, t: Ix| {
            (
                neighbours(&s.interest_person, t, &s.persons.id),
                neighbours(&s.tag_forum, t, &s.forums.id),
                neighbours(&s.tag_message, t, &s.messages.id),
            )
        };
        for t in 0..full.tags.len() as Ix {
            assert_eq!(reverse(&replayed, t), reverse(&full, t), "tag {t}");
        }
        for p in 0..full.places.len() as Ix {
            let city = |s: &Store| neighbours(&s.city_person, p, &s.persons.id);
            assert_eq!(city(&replayed), city(&full), "place {p}");
        }
    }

    #[test]
    fn time_ordered_stream_keeps_date_index_fresh() {
        // The update stream arrives in timestamp order, so the O(1)
        // incremental append in `index_message` (plus the rebuild in
        // the delete path) must keep the date permutation index fresh
        // after every single event — no read may ever pay the O(n)
        // linear-scan fallback during steady-state streaming.
        let c = config(100);
        let (mut bulk, events) = bulk_store_and_stream(&c);
        let world = snb_datagen::dictionaries::StaticWorld::build(c.seed);
        assert!(bulk.date_index_fresh());
        for (i, e) in events.iter().enumerate() {
            bulk.apply_event(e, &world).unwrap();
            assert!(bulk.date_index_fresh(), "index went stale after event {i}");
        }
        bulk.validate_invariants().unwrap();
    }

    /// A copy of `s` that shares no buffer with it.
    fn independent(s: &Store) -> Store {
        crate::decode_store(&crate::encode_store(s)).unwrap()
    }

    fn applied(s: &mut Store, events: &[TimedEvent], world: &StaticWorld) -> SnbResult<()> {
        events.iter().try_for_each(|e| s.apply_event(e, world))
    }

    fn assert_same(a: &Store, b: &Store) {
        a.validate_invariants().unwrap();
        assert!(crate::encode_store(a) == crate::encode_store(b), "store images differ");
        assert_eq!(*a.message_by_date, *b.message_by_date);
    }

    /// A bulk store with the first half of its update stream applied
    /// (so every column has appended once and has room to spare), and
    /// the rest of the stream.
    fn half_streamed() -> (Store, Vec<TimedEvent>, StaticWorld) {
        let c = config(120);
        let (mut s, events) = bulk_store_and_stream(&c);
        let world = StaticWorld::build(c.seed);
        let (first, rest) = events.split_at(events.len() / 2);
        applied(&mut s, first, &world).unwrap();
        (s, rest.to_vec(), world)
    }

    #[test]
    fn two_clones_of_one_store_append_apart() {
        let (base, _, world) = half_streamed();
        let base_image = crate::encode_store(&base);
        let forum = base.forums.id[0];
        let country = base.places.id[base.messages.country[0] as usize];
        let city = base.places.id[base.persons.city[0] as usize];
        let grow = |s: &mut Store, id: u64| {
            let mut p = person(id, city, &world);
            p.first_name = format!("clone-{id}").into();
            add_person(s, p, &world).unwrap();
            add_message(s, post(id, id, forum, country, &world), &world).unwrap();
        };
        let (mut a, mut b) = (base.clone(), base.clone());
        let (mut a_oracle, mut b_oracle) = (independent(&base), independent(&base));
        for id in [7_000_001, 7_000_002] {
            grow(&mut a, id);
            grow(&mut a_oracle, id);
        }
        for id in [8_000_001, 8_000_002, 8_000_003] {
            grow(&mut b, id);
            grow(&mut b_oracle, id);
        }
        assert_same(&a, &a_oracle);
        assert_same(&b, &b_oracle);
        assert!(a.person(8_000_001).is_err() && b.person(7_000_001).is_err());
        let n = base.persons.len();
        assert_eq!(&a.persons.first_name[n], "clone-7000001");
        assert_eq!(&b.persons.first_name[n], "clone-8000001");
        assert!(crate::encode_store(&base) == base_image, "the shared base must not change");
    }

    #[test]
    fn a_failed_or_panicked_batch_then_a_good_one_equals_direct_apply() {
        let (base, rest, world) = half_streamed();
        let batch = &rest[..rest.len().min(80)];
        let mut oracle = independent(&base);
        let h = crate::StoreHandle::new(base);
        let failed = h.publish_with(|next| {
            applied(next, &batch[..batch.len() / 2], &world)?;
            Err::<(), _>(SnbError::Config("abandoned mid-batch".into()))
        });
        assert!(failed.is_err());
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    h.publish_with(|next| -> SnbResult<()> {
                        applied(next, &batch[..batch.len() * 2 / 3], &world)?;
                        panic!("mid-batch")
                    })
                })
                .join()
        });
        assert!(panicked.is_err());
        h.publish_with(|next| applied(next, batch, &world)).unwrap();
        applied(&mut oracle, batch, &world).unwrap();
        assert_same(&h.snapshot(), &oracle);
    }

    #[test]
    fn an_insert_publish_shares_every_message_column_adjacency_and_id_map() {
        use crate::append_vec::AppendVec;
        use crate::columns::Group;

        let (base, rest, world) = half_streamed();
        let h = crate::StoreHandle::new(base);
        let pinned = h.snapshot();
        let batch = &rest[..24];
        h.publish_with(|next| applied(next, batch, &world)).unwrap();
        let after = h.snapshot();
        let (a, b): (&Store, &Store) = (&pinned, &after);
        assert!(b.messages.len() > a.messages.len(), "the batch must add messages");
        let mut copied = a.messages.unshared_columns(&b.messages);
        if !AppendVec::ptr_eq(&a.message_by_date, &b.message_by_date) {
            copied.push("message_by_date");
        }
        copied.extend(a.unshared_bases(b));
        assert!(copied.is_empty(), "an insert publish copied {copied:?}");
    }

    #[test]
    fn a_corrupted_root_post_fails_validation() {
        let s = store_for_config(&config(40));
        s.validate_invariants().unwrap();
        let comment = (0..s.messages.len()).find(|&m| !s.messages.is_post(m as Ix)).unwrap();
        let other_post = (0..s.messages.len() as Ix)
            .find(|&m| s.messages.is_post(m) && m != s.messages.root_post[comment])
            .unwrap();
        let mut bad = s.clone();
        bad.messages.root_post[comment] = other_post;
        assert!(bad.validate_invariants().is_err(), "a comment rooted at another thread");
        let mut bad = s.clone();
        bad.messages.root_post[comment] = comment as Ix;
        assert!(bad.validate_invariants().is_err(), "a comment rooted at itself");
        let post = s.messages.root_post[comment] as usize;
        let mut bad = s;
        bad.messages.root_post[post] = other_post;
        assert!(bad.validate_invariants().is_err(), "a post rooted elsewhere");
    }

    #[test]
    fn every_short_column_and_dangling_reference_fails_validation() {
        let s = store_for_config(&config(40));
        s.validate_invariants().unwrap();
        let n = s.messages.len();
        let mut short_language = s.clone();
        short_language.messages.language = s.messages.language.iter().take(n - 1).collect();
        let mut short_kind = s.clone();
        short_kind.messages.kind.pop();
        let mut org_place = s.clone();
        org_place.organisations.place[0] = s.places.len() as Ix;
        let city = (0..s.places.len()).find(|&p| s.places.kind[p] == PlaceKind::City).unwrap();
        let mut part_of = s.clone();
        part_of.places.part_of[city] = s.places.len() as Ix;
        for (what, bad) in [
            ("messages.language one short", short_language),
            ("messages.kind one short", short_kind),
            ("an organisation placed past the last place", org_place),
            ("a city part of a place past the last", part_of),
        ] {
            assert!(bad.validate_invariants().is_err(), "{what} must fail validation");
        }
    }

    #[test]
    fn out_of_order_insert_leaves_index_stale() {
        // An insert dated before the newest stored message cannot be
        // appended to the permutation in place; the index goes stale
        // and the driver's batch-boundary rebuild repairs it.
        let mut s = store_for_config(&config(40));
        let post = (0..s.messages.len() as Ix).find(|&m| s.messages.is_post(m)).unwrap();
        let post_id = s.messages.id[post as usize];
        let country = s.places.id[s.messages.country[post as usize] as usize];
        assert!(s.date_index_fresh());
        let mut late = comment(6_000_000, s.persons.id[0], post_id, country, DateTime(0));
        late.content = "late arrival".into();
        late.tags.clear();
        add_message(&mut s, late, &world()).unwrap();
        assert!(!s.date_index_fresh());
        s.rebuild_date_index();
        assert!(s.date_index_fresh());
        s.validate_invariants().unwrap();
    }
}
