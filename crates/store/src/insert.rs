//! Insert operations (Interactive updates IU 1–8).
//!
//! Inserts append to the entity columns and to the adjacency overflow
//! (see [`crate::adj::Adj::insert`]); no CSR rebuild happens on the
//! write path, which keeps update latency flat — [`Store::compact`]
//! can fold the overflow back in between benchmark phases.
//!
//! No insert writes a row that already exists: every column change is
//! an append. The columns are [`AppendVec`](crate::append_vec::AppendVec)s,
//! so on a clone of a published version those appends go into the
//! buffers the version shares, and an insert batch copies what it
//! appends rather than the store.

use snb_core::datetime::{Date, DateTime};
use snb_core::model::{Gender, MessageKind};
use snb_core::{SnbError, SnbResult};

use snb_datagen::dictionaries::{StaticWorld, BROWSERS};
use snb_datagen::stream::{TimedEvent, UpdateEvent};

use crate::columns::{Ix, NONE};
use crate::store::Store;

/// Parameters of IU 1 (add Person).
#[derive(Clone, Debug)]
pub struct PersonInsert {
    /// New person id (must be fresh).
    pub id: u64,
    /// First name.
    pub first_name: String,
    /// Surname.
    pub last_name: String,
    /// Gender.
    pub gender: Gender,
    /// Birthday.
    pub birthday: Date,
    /// Join timestamp.
    pub creation_date: DateTime,
    /// Registration IP.
    pub location_ip: String,
    /// Browser name.
    pub browser_used: String,
    /// Home city (raw place id).
    pub city_id: u64,
    /// Spoken languages.
    pub speaks: Vec<String>,
    /// Email addresses.
    pub emails: Vec<String>,
    /// Interest tag ids (raw).
    pub tag_ids: Vec<u64>,
    /// `(university id, classYear)` pairs.
    pub study_at: Vec<(u64, i32)>,
    /// `(company id, workFrom)` pairs.
    pub work_at: Vec<(u64, i32)>,
}

/// Parameters of IU 6 (add Post).
#[derive(Clone, Debug)]
pub struct PostInsert {
    /// New post id.
    pub id: u64,
    /// Image file (empty for text posts).
    pub image_file: String,
    /// Creation timestamp.
    pub creation_date: DateTime,
    /// Origin IP.
    pub location_ip: String,
    /// Browser name.
    pub browser_used: String,
    /// Language (empty if none).
    pub language: String,
    /// Content (empty for image posts).
    pub content: String,
    /// Content length.
    pub length: u32,
    /// Author (raw person id).
    pub author_person_id: u64,
    /// Containing forum (raw id).
    pub forum_id: u64,
    /// Country (raw place id).
    pub country_id: u64,
    /// Tags (raw ids).
    pub tag_ids: Vec<u64>,
}

/// Parameters of IU 7 (add Comment).
#[derive(Clone, Debug)]
pub struct CommentInsert {
    /// New comment id.
    pub id: u64,
    /// Creation timestamp.
    pub creation_date: DateTime,
    /// Origin IP.
    pub location_ip: String,
    /// Browser name.
    pub browser_used: String,
    /// Content.
    pub content: String,
    /// Content length.
    pub length: u32,
    /// Author (raw person id).
    pub author_person_id: u64,
    /// Country (raw place id).
    pub country_id: u64,
    /// Replied-to post id, or `-1` (spec encoding).
    pub reply_to_post_id: i64,
    /// Replied-to comment id, or `-1`.
    pub reply_to_comment_id: i64,
    /// Tags (raw ids).
    pub tag_ids: Vec<u64>,
}

/// Parameters of IU 4 (add Forum).
#[derive(Clone, Debug)]
pub struct ForumInsert {
    /// New forum id.
    pub id: u64,
    /// Title.
    pub title: String,
    /// Creation timestamp.
    pub creation_date: DateTime,
    /// Moderator (raw person id).
    pub moderator_person_id: u64,
    /// Topic tags (raw ids).
    pub tag_ids: Vec<u64>,
}

impl Store {
    /// IU 1 — inserts a Person node with its edges.
    pub fn insert_person(&mut self, p: PersonInsert) -> SnbResult<Ix> {
        if self.person_ix.contains_key(&p.id) {
            return Err(SnbError::Config(format!("person {} already exists", p.id)));
        }
        let city = *self
            .place_ix
            .get(&p.city_id)
            .ok_or(SnbError::UnknownId { entity: "Place", id: p.city_id })?;
        let ix = self.persons.len() as Ix;
        self.person_ix.insert(p.id, ix);
        self.persons.id.push(p.id);
        self.persons.first_name.push(p.first_name);
        self.persons.last_name.push(p.last_name);
        self.persons.gender.push(p.gender);
        self.persons.birthday.push(p.birthday);
        self.persons.creation_date.push(p.creation_date);
        self.persons.location_ip.push(p.location_ip);
        self.persons.browser.push(p.browser_used);
        self.persons.city.push(city);
        self.persons.emails.push_row(p.emails);
        self.persons.speaks.push_row(p.speaks);

        let n = self.persons.len();
        self.knows.grow_sources(n);
        self.person_interest.grow_sources(n);
        self.person_study.grow_sources(n);
        self.person_work.grow_sources(n);
        self.member_forum.grow_sources(n);
        self.person_messages.grow_sources(n);
        self.person_likes.grow_sources(n);
        self.person_moderates.grow_sources(n);
        self.city_person.insert(city, ix, ());
        for t in p.tag_ids {
            let tix = *self.tag_ix.get(&t).ok_or(SnbError::UnknownId { entity: "Tag", id: t })?;
            self.person_interest.insert(ix, tix, ());
            self.interest_person.insert(tix, ix, ());
        }
        for (org, year) in p.study_at {
            let o = *self
                .org_ix
                .get(&org)
                .ok_or(SnbError::UnknownId { entity: "Organisation", id: org })?;
            self.person_study.insert(ix, o, year);
        }
        for (org, from) in p.work_at {
            let o = *self
                .org_ix
                .get(&org)
                .ok_or(SnbError::UnknownId { entity: "Organisation", id: org })?;
            self.person_work.insert(ix, o, from);
        }
        Ok(ix)
    }

    /// IU 2 / IU 3 — inserts a like.
    pub fn insert_like(&mut self, person: u64, message: u64, date: DateTime) -> SnbResult<()> {
        let p = self.person(person)?;
        let m = self.message(message)?;
        self.person_likes.insert(p, m, date);
        self.message_likes.insert(m, p, date);
        Ok(())
    }

    /// IU 4 — inserts a Forum.
    pub fn insert_forum(&mut self, f: ForumInsert) -> SnbResult<Ix> {
        if self.forum_ix.contains_key(&f.id) {
            return Err(SnbError::Config(format!("forum {} already exists", f.id)));
        }
        let moderator = self.person(f.moderator_person_id)?;
        let ix = self.forums.len() as Ix;
        self.forum_ix.insert(f.id, ix);
        self.forums.id.push(f.id);
        self.forums.title.push(f.title);
        self.forums.creation_date.push(f.creation_date);
        self.forums.moderator.push(moderator);
        let n = self.forums.len();
        self.forum_member.grow_sources(n);
        self.forum_tag.grow_sources(n);
        self.forum_posts.grow_sources(n);
        self.person_moderates.insert(moderator, ix, ());
        for t in f.tag_ids {
            let tix = *self.tag_ix.get(&t).ok_or(SnbError::UnknownId { entity: "Tag", id: t })?;
            self.forum_tag.insert(ix, tix, ());
            self.tag_forum.insert(tix, ix, ());
        }
        Ok(ix)
    }

    /// IU 5 — inserts a forum membership.
    pub fn insert_membership(&mut self, person: u64, forum: u64, join: DateTime) -> SnbResult<()> {
        let p = self.person(person)?;
        let f = self.forum(forum)?;
        self.forum_member.insert(f, p, join);
        self.member_forum.insert(p, f, join);
        Ok(())
    }

    /// IU 6 — inserts a Post.
    pub fn insert_post(&mut self, post: PostInsert) -> SnbResult<Ix> {
        if self.message_ix.contains_key(&post.id) {
            return Err(SnbError::Config(format!("message {} already exists", post.id)));
        }
        let creator = self.person(post.author_person_id)?;
        let forum = self.forum(post.forum_id)?;
        let country = *self
            .place_ix
            .get(&post.country_id)
            .ok_or(SnbError::UnknownId { entity: "Place", id: post.country_id })?;
        let ix = self.push_message_row(
            post.id,
            MessageKind::Post,
            post.creation_date,
            creator,
            country,
            post.browser_used,
            post.location_ip,
            post.content,
            post.length,
            post.image_file,
            post.language,
            forum,
            NONE,
            None,
        );
        self.forum_posts.insert(forum, ix, ());
        for t in post.tag_ids {
            let tix = *self.tag_ix.get(&t).ok_or(SnbError::UnknownId { entity: "Tag", id: t })?;
            self.message_tag.insert(ix, tix, ());
            self.tag_message.insert(tix, ix, ());
        }
        Ok(ix)
    }

    /// IU 7 — inserts a Comment replying to a Post or Comment.
    pub fn insert_comment(&mut self, c: CommentInsert) -> SnbResult<Ix> {
        if self.message_ix.contains_key(&c.id) {
            return Err(SnbError::Config(format!("message {} already exists", c.id)));
        }
        let creator = self.person(c.author_person_id)?;
        let country = *self
            .place_ix
            .get(&c.country_id)
            .ok_or(SnbError::UnknownId { entity: "Place", id: c.country_id })?;
        let parent_id = if c.reply_to_post_id >= 0 {
            c.reply_to_post_id as u64
        } else {
            c.reply_to_comment_id as u64
        };
        let parent = self.message(parent_id)?;
        let root = self.messages.root_post[parent as usize];
        let ix = self.push_message_row(
            c.id,
            MessageKind::Comment,
            c.creation_date,
            creator,
            country,
            c.browser_used,
            c.location_ip,
            c.content,
            c.length,
            String::new(),
            String::new(),
            NONE,
            parent,
            Some(root),
        );
        self.message_replies.insert(parent, ix, ());
        for t in c.tag_ids {
            let tix = *self.tag_ix.get(&t).ok_or(SnbError::UnknownId { entity: "Tag", id: t })?;
            self.message_tag.insert(ix, tix, ());
            self.tag_message.insert(tix, ix, ());
        }
        Ok(ix)
    }

    /// IU 8 — inserts a friendship (both directions).
    pub fn insert_knows(&mut self, p1: u64, p2: u64, date: DateTime) -> SnbResult<()> {
        let a = self.person(p1)?;
        let b = self.person(p2)?;
        self.knows.insert(a, b, date);
        self.knows.insert(b, a, date);
        Ok(())
    }

    /// Appends one message row and its creator edge; `root_post` is
    /// the thread's root, `None` for a post (its own root).
    #[allow(clippy::too_many_arguments)]
    fn push_message_row(
        &mut self,
        id: u64,
        kind: MessageKind,
        creation_date: DateTime,
        creator: Ix,
        country: Ix,
        browser: String,
        location_ip: String,
        content: String,
        length: u32,
        image_file: String,
        language: String,
        forum: Ix,
        reply_of: Ix,
        root_post: Option<Ix>,
    ) -> Ix {
        let ix = self.messages.len() as Ix;
        self.message_ix.insert(id, ix);
        self.messages.id.push(id);
        self.messages.kind.push(kind);
        self.messages.creation_date.push(creation_date);
        self.messages.creator.push(creator);
        self.messages.country.push(country);
        self.messages.browser.push(browser);
        self.messages.location_ip.push(location_ip);
        self.messages.content.push(content);
        self.messages.length.push(length);
        self.messages.image_file.push(image_file);
        self.messages.language.push(language);
        self.messages.forum.push(forum);
        self.messages.reply_of.push(reply_of);
        self.messages.root_post.push(root_post.unwrap_or(ix));
        let n = self.messages.len();
        self.message_tag.grow_sources(n);
        self.message_replies.grow_sources(n);
        self.message_likes.grow_sources(n);
        self.person_messages.insert(creator, ix, ());
        // Keep the date permutation index fresh when the insert arrives
        // in `(creation_date, ix)` order — true for the time-ordered
        // update stream — so steady-state reads never hit the O(n)
        // linear-scan fallback. Out-of-order inserts leave the index
        // stale for the driver's batch-boundary rebuild to repair.
        if self.message_by_date.len() == ix as usize {
            let in_order = match self.message_by_date.last() {
                None => true,
                Some(&prev) => {
                    (self.messages.creation_date[prev as usize], prev) < (creation_date, ix)
                }
            };
            if in_order {
                self.message_by_date.push(ix);
            }
        }
        ix
    }

    /// Applies one datagen update-stream event (used by the driver to
    /// replay the withheld tail against the bulk-loaded store).
    pub fn apply_event(&mut self, event: &TimedEvent, world: &StaticWorld) -> SnbResult<()> {
        match &event.event {
            UpdateEvent::AddPerson(p) => {
                self.insert_person(PersonInsert {
                    id: p.id.0,
                    first_name: p.first_name.to_string(),
                    last_name: p.last_name.to_string(),
                    gender: p.gender,
                    birthday: p.birthday,
                    creation_date: p.creation_date,
                    location_ip: p.location_ip.clone(),
                    browser_used: BROWSERS[p.browser as usize].0.to_string(),
                    city_id: p.city.0,
                    speaks: p
                        .languages
                        .iter()
                        .map(|&l| world.languages[l as usize].to_string())
                        .collect(),
                    emails: p.emails.clone(),
                    tag_ids: p.interests.iter().map(|t| t.0).collect(),
                    study_at: p.study_at.map(|(o, y)| (o.0, y)).into_iter().collect(),
                    work_at: p.work_at.iter().map(|&(o, y)| (o.0, y)).collect(),
                })?;
            }
            UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => {
                self.insert_like(l.person.0, l.message.0, l.creation_date)?;
            }
            UpdateEvent::AddForum(f) => {
                self.insert_forum(ForumInsert {
                    id: f.id.0,
                    title: f.title.clone(),
                    creation_date: f.creation_date,
                    moderator_person_id: f.moderator.0,
                    tag_ids: f.tags.iter().map(|t| t.0).collect(),
                })?;
            }
            UpdateEvent::AddMembership(m) => {
                self.insert_membership(m.person.0, m.forum.0, m.join_date)?;
            }
            UpdateEvent::AddPost(p) => {
                self.insert_post(PostInsert {
                    id: p.id.0,
                    image_file: p.image_file.clone().unwrap_or_default(),
                    creation_date: p.creation_date,
                    location_ip: p.location_ip.clone(),
                    browser_used: BROWSERS[p.browser as usize].0.to_string(),
                    language: p
                        .language
                        .map(|l| world.languages[l as usize].to_string())
                        .unwrap_or_default(),
                    content: p.content.clone(),
                    length: p.length,
                    author_person_id: p.creator.0,
                    forum_id: p.forum.expect("post has forum").0,
                    country_id: p.country.0,
                    tag_ids: p.tags.iter().map(|t| t.0).collect(),
                })?;
            }
            UpdateEvent::AddComment(c) => {
                let parent = c.reply_of.expect("comment has parent").0;
                // The raw graph keeps posts and comments in one id space;
                // resolve which side the parent is on.
                let parent_ix = self.message(parent)?;
                let parent_is_post = self.messages.is_post(parent_ix);
                self.insert_comment(CommentInsert {
                    id: c.id.0,
                    creation_date: c.creation_date,
                    location_ip: c.location_ip.clone(),
                    browser_used: BROWSERS[c.browser as usize].0.to_string(),
                    content: c.content.clone(),
                    length: c.length,
                    author_person_id: c.creator.0,
                    country_id: c.country.0,
                    reply_to_post_id: if parent_is_post { parent as i64 } else { -1 },
                    reply_to_comment_id: if parent_is_post { -1 } else { parent as i64 },
                    tag_ids: c.tags.iter().map(|t| t.0).collect(),
                })?;
            }
            UpdateEvent::AddKnows(k) => {
                self.insert_knows(k.a.0, k.b.0, k.creation_date)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{bulk_store_and_stream, store_for_config};
    use crate::intern::{PackCol, SymCol};
    use snb_core::scale::ScaleFactor;
    use snb_datagen::GeneratorConfig;

    fn config(n: u64) -> GeneratorConfig {
        let mut c = GeneratorConfig::for_scale(ScaleFactor::by_name("0.001").unwrap());
        c.persons = n;
        c
    }

    #[test]
    fn insert_person_then_lookup() {
        let mut s = store_for_config(&config(40));
        let city = s.places.id[s.persons.city[0] as usize];
        let ix = s
            .insert_person(PersonInsert {
                id: 999_999,
                first_name: "Ada".into(),
                last_name: "Lovelace".into(),
                gender: Gender::Female,
                birthday: Date::from_ymd(1990, 5, 5),
                creation_date: DateTime::from_parts(2012, 6, 1, 12, 0, 0, 0),
                location_ip: "1.2.3.4".into(),
                browser_used: "Firefox".into(),
                city_id: city,
                speaks: vec!["en".into()],
                emails: vec!["ada@example.com".into()],
                tag_ids: vec![0, 1],
                study_at: vec![],
                work_at: vec![(s.organisations.id[0], 2010)],
            })
            .unwrap();
        assert_eq!(s.person(999_999).unwrap(), ix);
        assert_eq!(s.person_interest.targets_of(ix).count(), 2);
        assert!(s.interest_person.targets_of(0).any(|p| p == ix));
        s.validate_invariants().unwrap();
    }

    #[test]
    fn duplicate_person_rejected() {
        let mut s = store_for_config(&config(40));
        let existing = s.persons.id[0];
        let city = s.places.id[s.persons.city[0] as usize];
        let err = s.insert_person(PersonInsert {
            id: existing,
            first_name: "X".into(),
            last_name: "Y".into(),
            gender: Gender::Male,
            birthday: Date::from_ymd(1990, 1, 1),
            creation_date: DateTime(0),
            location_ip: String::new(),
            browser_used: String::new(),
            city_id: city,
            speaks: vec![],
            emails: vec![],
            tag_ids: vec![],
            study_at: vec![],
            work_at: vec![],
        });
        assert!(err.is_err());
    }

    #[test]
    fn insert_knows_is_symmetric() {
        let mut s = store_for_config(&config(40));
        let (a, b) = (s.persons.id[0], s.persons.id[1]);
        let before = s.knows.edge_count();
        s.insert_knows(a, b, DateTime(123)).unwrap();
        assert_eq!(s.knows.edge_count(), before + 2);
        let ai = s.person(a).unwrap();
        let bi = s.person(b).unwrap();
        assert!(s.knows.neighbors(ai).any(|(t, d)| t == bi && d == DateTime(123)));
        assert!(s.knows.neighbors(bi).any(|(t, d)| t == ai && d == DateTime(123)));
    }

    #[test]
    fn insert_comment_threads_correctly() {
        let mut s = store_for_config(&config(40));
        // Find a post.
        let post = (0..s.messages.len() as Ix).find(|&m| s.messages.is_post(m)).unwrap();
        let post_id = s.messages.id[post as usize];
        let author = s.persons.id[0];
        let country = s.places.id[s.messages.country[post as usize] as usize];
        let cix = s
            .insert_comment(CommentInsert {
                id: 5_000_000,
                creation_date: DateTime(s.messages.creation_date[post as usize].0 + 1000),
                location_ip: "9.9.9.9".into(),
                browser_used: "Opera".into(),
                content: "interesting".into(),
                length: 11,
                author_person_id: author,
                country_id: country,
                reply_to_post_id: post_id as i64,
                reply_to_comment_id: -1,
                tag_ids: vec![3],
            })
            .unwrap();
        assert_eq!(s.messages.reply_of[cix as usize], post);
        assert_eq!(s.messages.root_post[cix as usize], post);
        assert!(s.message_replies.targets_of(post).any(|r| r == cix));
        // Reply to the new comment: root must stay the post.
        let c2 = s
            .insert_comment(CommentInsert {
                id: 5_000_001,
                creation_date: DateTime(s.messages.creation_date[cix as usize].0 + 1000),
                location_ip: "9.9.9.9".into(),
                browser_used: "Opera".into(),
                content: "agree".into(),
                length: 5,
                author_person_id: author,
                country_id: country,
                reply_to_post_id: -1,
                reply_to_comment_id: 5_000_000,
                tag_ids: vec![],
            })
            .unwrap();
        assert_eq!(s.messages.root_post[c2 as usize], post);
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

    #[test]
    fn time_ordered_stream_keeps_date_index_fresh() {
        // The update stream arrives in timestamp order, so the O(1)
        // incremental append in `push_message_row` (plus the rebuild in
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
        let (base, _, _) = half_streamed();
        let base_image = crate::encode_store(&base);
        let forum = base.forums.id[0];
        let country = base.places.id[base.messages.country[0] as usize];
        let city = base.places.id[base.persons.city[0] as usize];
        let grow = |s: &mut Store, id: u64| {
            let mut p = person(id, city);
            p.first_name = format!("clone-{id}");
            s.insert_person(p).unwrap();
            s.insert_post(post(id, id, forum, country)).unwrap();
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
        use crate::columns::IdMap;
        use crate::Adj;

        let (base, rest, world) = half_streamed();
        let h = crate::StoreHandle::new(base);
        let pinned = h.snapshot();
        let batch = &rest[..24];
        h.publish_with(|next| applied(next, batch, &world)).unwrap();
        let after = h.snapshot();
        let (a, b): (&Store, &Store) = (&pinned, &after);
        assert!(b.messages.len() > a.messages.len(), "the batch must add messages");
        let mut copied = Vec::new();
        macro_rules! shared {
            ($same:expr, $($field:ident).+) => {
                if !$same(&a.$($field).+, &b.$($field).+) {
                    copied.push(stringify!($($field).+));
                }
            };
        }
        shared!(AppendVec::ptr_eq, messages.id);
        shared!(AppendVec::ptr_eq, messages.kind);
        shared!(AppendVec::ptr_eq, messages.creation_date);
        shared!(AppendVec::ptr_eq, messages.creator);
        shared!(AppendVec::ptr_eq, messages.country);
        shared!(SymCol::shares_buffer, messages.browser);
        shared!(PackCol::shares_buffers, messages.location_ip);
        shared!(PackCol::shares_buffers, messages.content);
        shared!(AppendVec::ptr_eq, messages.length);
        shared!(PackCol::shares_buffers, messages.image_file);
        shared!(SymCol::shares_buffer, messages.language);
        shared!(AppendVec::ptr_eq, messages.forum);
        shared!(AppendVec::ptr_eq, messages.reply_of);
        shared!(AppendVec::ptr_eq, messages.root_post);
        shared!(AppendVec::ptr_eq, message_by_date);
        for (name, x, y) in [
            ("person_ix", &a.person_ix, &b.person_ix),
            ("forum_ix", &a.forum_ix, &b.forum_ix),
            ("message_ix", &a.message_ix, &b.message_ix),
            ("place_ix", &a.place_ix, &b.place_ix),
            ("tag_ix", &a.tag_ix, &b.tag_ix),
            ("tag_class_ix", &a.tag_class_ix, &b.tag_class_ix),
            ("org_ix", &a.org_ix, &b.org_ix),
        ] {
            if !IdMap::shares_base(x, y) {
                copied.push(name);
            }
        }
        shared!(Adj::shares_base, knows);
        shared!(Adj::shares_base, person_interest);
        shared!(Adj::shares_base, interest_person);
        shared!(Adj::shares_base, person_study);
        shared!(Adj::shares_base, person_work);
        shared!(Adj::shares_base, forum_member);
        shared!(Adj::shares_base, member_forum);
        shared!(Adj::shares_base, forum_tag);
        shared!(Adj::shares_base, tag_forum);
        shared!(Adj::shares_base, message_tag);
        shared!(Adj::shares_base, tag_message);
        shared!(Adj::shares_base, person_messages);
        shared!(Adj::shares_base, forum_posts);
        shared!(Adj::shares_base, message_replies);
        shared!(Adj::shares_base, person_likes);
        shared!(Adj::shares_base, message_likes);
        shared!(Adj::shares_base, place_children);
        shared!(Adj::shares_base, city_person);
        shared!(Adj::shares_base, tagclass_children);
        shared!(Adj::shares_base, tagclass_tags);
        shared!(Adj::shares_base, person_moderates);
        assert!(copied.is_empty(), "an insert publish copied {copied:?}");
    }

    fn person(id: u64, city_id: u64) -> PersonInsert {
        PersonInsert {
            id,
            first_name: "Ada".into(),
            last_name: "Lovelace".into(),
            gender: Gender::Female,
            birthday: Date::from_ymd(1990, 5, 5),
            creation_date: DateTime::from_parts(2013, 6, 1, 12, 0, 0, 0),
            location_ip: "1.2.3.4".into(),
            browser_used: "Firefox".into(),
            city_id,
            speaks: vec!["en".into()],
            emails: vec![format!("{id}@example.com")],
            tag_ids: vec![0, 1],
            study_at: vec![],
            work_at: vec![],
        }
    }

    fn post(id: u64, author: u64, forum_id: u64, country_id: u64) -> PostInsert {
        PostInsert {
            id,
            image_file: String::new(),
            creation_date: DateTime::from_parts(2013, 6, 2, 12, 0, 0, 0),
            location_ip: "1.2.3.4".into(),
            browser_used: "Firefox".into(),
            language: "en".into(),
            content: format!("post {id}"),
            length: 9,
            author_person_id: author,
            forum_id,
            country_id,
            tag_ids: vec![2],
        }
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
    fn out_of_order_insert_leaves_index_stale() {
        // An insert dated before the newest stored message cannot be
        // appended to the permutation in place; the index goes stale
        // and the driver's batch-boundary rebuild repairs it.
        let mut s = store_for_config(&config(40));
        let post = (0..s.messages.len() as Ix).find(|&m| s.messages.is_post(m)).unwrap();
        let post_id = s.messages.id[post as usize];
        let country = s.places.id[s.messages.country[post as usize] as usize];
        assert!(s.date_index_fresh());
        s.insert_comment(CommentInsert {
            id: 6_000_000,
            creation_date: DateTime(0),
            location_ip: "9.9.9.9".into(),
            browser_used: "Opera".into(),
            content: "late arrival".into(),
            length: 12,
            author_person_id: s.persons.id[0],
            country_id: country,
            reply_to_post_id: post_id as i64,
            reply_to_comment_id: -1,
            tag_ids: vec![],
        })
        .unwrap();
        assert!(!s.date_index_fresh());
        s.rebuild_date_index();
        assert!(s.date_index_fresh());
        s.validate_invariants().unwrap();
    }
}
