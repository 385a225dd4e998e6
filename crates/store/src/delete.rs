//! Delete operations (DEL 1–8).
//!
//! The v0.3.x spec withholds deletes ("update streams … only contain
//! inserts. Delete operations are being designed and will be released
//! later", §2.3.4.3); the operation set below reproduces the eight
//! deletes the later official workload introduced, with full cascade
//! semantics:
//!
//! | op | deletes | cascades to |
//! |----|---------|-------------|
//! | DEL 1 | Person | their knows/likes/memberships/interests, messages they created (with reply subtrees), forums they moderate (with contents) |
//! | DEL 2 | like → Post | the edge only |
//! | DEL 3 | like → Comment | the edge only |
//! | DEL 4 | Forum | memberships, contained posts (with reply subtrees) |
//! | DEL 5 | membership | the edge only |
//! | DEL 6 | Post | its reply subtree, likes, tags |
//! | DEL 7 | Comment | its reply subtree, likes, tags |
//! | DEL 8 | friendship | the edge only |
//!
//! Deletes are **batch-applied**: tombstones are collected with their
//! transitive closure, then every component the victims touch is
//! rewritten without them, in one pass each, and nothing else is. The
//! cost is per touched component, not per store:
//!
//! * a column group and its id map are rewritten only if that class
//!   lost rows (or, for the columns, a class they point into did);
//! * an adjacency is rewritten only if its source or target class lost
//!   rows or it has edge victims — one filter-and-remap pass
//!   (`Adj::rewrite`; a surviving source's edges are copied as a slice
//!   unless a target may be renumbered or an edge is a victim) into a
//!   fresh `Adj` stored with [`CowBox::set`](crate::cow::CowBox::set),
//!   so a published version is never deep-copied just to be
//!   overwritten;
//! * the date index is remapped only if messages went.
//!
//! A like-only batch therefore writes `person_likes` + `message_likes`
//! and shares everything else with the previous version. The one extra:
//! a batch leaves no insert overflow behind — adjacencies still holding
//! some are folded ([`Store::compact`]'s merge), because the BI scans
//! run measurably slower on the overflow form. The CSR hot loops never
//! test tombstones, which suits the BI usage pattern (bulk refresh
//! between analytical sessions); the insert overflow path (IU 1–8)
//! remains the low-latency write mechanism.

use rustc_hash::{FxHashMap, FxHashSet};

use snb_core::SnbResult;

use crate::adj::{Adj, Rewrite};
use crate::columns::{Ix, NONE};
use crate::cow::CowBox;
use crate::store::Store;

/// One delete operation, addressed by raw ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeleteOp {
    /// DEL 1 — delete a Person and everything they own.
    Person(u64),
    /// DEL 2 / DEL 3 — delete a like edge `(person, message)`.
    Like(u64, u64),
    /// DEL 4 — delete a Forum and its contents.
    Forum(u64),
    /// DEL 5 — delete a membership edge `(person, forum)`.
    Membership(u64, u64),
    /// DEL 6 / DEL 7 — delete a Message and its reply subtree.
    Message(u64),
    /// DEL 8 — delete a friendship edge.
    Knows(u64, u64),
}

/// Counts of entities removed by a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeleteStats {
    /// Persons removed.
    pub persons: usize,
    /// Forums removed.
    pub forums: usize,
    /// Messages removed (including cascaded reply subtrees).
    pub messages: usize,
    /// Like edges removed (cascades included).
    pub likes: usize,
    /// Membership edges removed (cascades included).
    pub memberships: usize,
    /// Knows edges removed (cascades included; undirected count).
    pub knows: usize,
}

/// The tombstone sets a batch expands to.
#[derive(Default)]
struct Victims {
    persons: FxHashSet<Ix>,
    forums: FxHashSet<Ix>,
    messages: FxHashSet<Ix>,
    likes: FxHashSet<(Ix, Ix)>,
    memberships: FxHashSet<(Ix, Ix)>,
    knows: FxHashSet<(Ix, Ix)>, // normalised (min, max)
}

impl Store {
    /// Applies a batch of delete operations with full cascades,
    /// rewriting only the components the victims touch. Returns what was
    /// removed. Unknown ids error without mutating anything.
    pub fn apply_deletes(&mut self, ops: &[DeleteOp]) -> SnbResult<DeleteStats> {
        let mut v = Victims::default();
        // Seed the tombstones from the explicit operations.
        for op in ops {
            match *op {
                DeleteOp::Person(id) => {
                    v.persons.insert(self.person(id)?);
                }
                DeleteOp::Like(p, m) => {
                    v.likes.insert((self.person(p)?, self.message(m)?));
                }
                DeleteOp::Forum(id) => {
                    v.forums.insert(self.forum(id)?);
                }
                DeleteOp::Membership(p, f) => {
                    v.memberships.insert((self.person(p)?, self.forum(f)?));
                }
                DeleteOp::Message(id) => {
                    v.messages.insert(self.message(id)?);
                }
                DeleteOp::Knows(a, b) => {
                    let (a, b) = (self.person(a)?, self.person(b)?);
                    v.knows.insert((a.min(b), a.max(b)));
                }
            }
        }
        self.expand_cascades(&mut v);
        let stats = DeleteStats {
            persons: v.persons.len(),
            forums: v.forums.len(),
            messages: v.messages.len(),
            likes: v.likes.len(),
            memberships: v.memberships.len(),
            knows: v.knows.len(),
        };
        self.remove(&v);
        Ok(stats)
    }

    /// Expands seeds to their transitive closure.
    fn expand_cascades(&self, v: &mut Victims) {
        // Person → their moderated forums.
        for &p in v.persons.clone().iter() {
            for f in self.person_moderates.targets_of(p) {
                v.forums.insert(f);
            }
        }
        // Forum → contained posts.
        for &f in v.forums.clone().iter() {
            for post in self.forum_posts.targets_of(f) {
                v.messages.insert(post);
            }
        }
        // Person → created messages.
        for &p in v.persons.clone().iter() {
            for m in self.person_messages.targets_of(p) {
                v.messages.insert(m);
            }
        }
        // Message → reply subtree (iterate to fixpoint via DFS).
        let mut stack: Vec<Ix> = v.messages.iter().copied().collect();
        while let Some(m) = stack.pop() {
            for r in self.message_replies.targets_of(m) {
                if v.messages.insert(r) {
                    stack.push(r);
                }
            }
        }
        // Edges incident to deleted nodes.
        for &p in &v.persons {
            for (q, _) in self.knows.neighbors(p) {
                v.knows.insert((p.min(q), p.max(q)));
            }
            for (m, _) in self.person_likes.neighbors(p) {
                v.likes.insert((p, m));
            }
            for (f, _) in self.member_forum.neighbors(p) {
                v.memberships.insert((p, f));
            }
        }
        for &m in &v.messages {
            for (p, _) in self.message_likes.neighbors(m) {
                v.likes.insert((p, m));
            }
        }
        for &f in &v.forums {
            for (p, _) in self.forum_member.neighbors(f) {
                v.memberships.insert((p, f));
            }
        }
    }

    /// Rewrites every component the victims touch, and only those.
    fn remove(&mut self, v: &Victims) {
        let date_index_fresh = self.date_index_fresh();
        let persons = Remap::new(self.persons.len(), &v.persons);
        let forums = Remap::new(self.forums.len(), &v.forums);
        let messages = Remap::new(self.messages.len(), &v.messages);
        let kept = Remap::default();

        // --- columns and id maps ---
        if let Some(keep) = persons.keep() {
            let p = &mut *self.persons;
            filter_in_place(&mut p.id, keep);
            p.first_name.filter_in_place(keep);
            p.last_name.filter_in_place(keep);
            filter_in_place(&mut p.gender, keep);
            filter_in_place(&mut p.birthday, keep);
            filter_in_place(&mut p.creation_date, keep);
            p.location_ip.filter_in_place(keep);
            p.browser.filter_in_place(keep);
            filter_in_place(&mut p.city, keep);
            p.emails.filter_in_place(keep);
            p.speaks.filter_in_place(keep);
            self.person_ix.set(id_map(&self.persons.id));
        }
        if forums.touched() || persons.touched() {
            let f = &mut *self.forums;
            if let Some(keep) = forums.keep() {
                filter_in_place(&mut f.id, keep);
                f.title.filter_in_place(keep);
                filter_in_place(&mut f.creation_date, keep);
                filter_in_place(&mut f.moderator, keep);
            }
            persons.apply(&mut f.moderator);
            if forums.touched() {
                self.forum_ix.set(id_map(&self.forums.id));
            }
        }
        if messages.touched() || persons.touched() || forums.touched() {
            let m = &mut *self.messages;
            if let Some(keep) = messages.keep() {
                filter_in_place(&mut m.id, keep);
                filter_in_place(&mut m.kind, keep);
                filter_in_place(&mut m.creation_date, keep);
                filter_in_place(&mut m.creator, keep);
                filter_in_place(&mut m.country, keep);
                m.browser.filter_in_place(keep);
                m.location_ip.filter_in_place(keep);
                m.content.filter_in_place(keep);
                filter_in_place(&mut m.length, keep);
                m.image_file.filter_in_place(keep);
                m.language.filter_in_place(keep);
                filter_in_place(&mut m.forum, keep);
                filter_in_place(&mut m.reply_of, keep);
                filter_in_place(&mut m.root_post, keep);
            }
            persons.apply(&mut m.creator);
            forums.apply(&mut m.forum);
            messages.apply(&mut m.reply_of);
            messages.apply(&mut m.root_post);
            if messages.touched() {
                self.message_ix.set(id_map(&self.messages.id));
            }
        }

        // --- adjacencies: (source class, target class, edge victims) ---
        let none = |_: Ix, _: Ix| false;
        let knows = !v.knows.is_empty();
        rewrite(&mut self.knows, &persons, &persons, knows, |a, b| {
            v.knows.contains(&(a.min(b), a.max(b)))
        });
        let likes = !v.likes.is_empty();
        rewrite(&mut self.person_likes, &persons, &messages, likes, |p, m| {
            v.likes.contains(&(p, m))
        });
        rewrite(&mut self.message_likes, &messages, &persons, likes, |m, p| {
            v.likes.contains(&(p, m))
        });
        let members = !v.memberships.is_empty();
        rewrite(&mut self.forum_member, &forums, &persons, members, |f, p| {
            v.memberships.contains(&(p, f))
        });
        rewrite(&mut self.member_forum, &persons, &forums, members, |p, f| {
            v.memberships.contains(&(p, f))
        });
        rewrite(&mut self.person_interest, &persons, &kept, false, none);
        rewrite(&mut self.interest_person, &kept, &persons, false, none);
        rewrite(&mut self.person_study, &persons, &kept, false, none);
        rewrite(&mut self.person_work, &persons, &kept, false, none);
        rewrite(&mut self.message_tag, &messages, &kept, false, none);
        rewrite(&mut self.tag_message, &kept, &messages, false, none);
        rewrite(&mut self.forum_tag, &forums, &kept, false, none);
        rewrite(&mut self.tag_forum, &kept, &forums, false, none);
        rewrite(&mut self.person_messages, &persons, &messages, false, none);
        rewrite(&mut self.forum_posts, &forums, &messages, false, none);
        rewrite(&mut self.message_replies, &messages, &messages, false, none);
        rewrite(&mut self.person_moderates, &persons, &forums, false, none);
        rewrite(&mut self.city_person, &kept, &persons, false, none);
        self.fold_overflow();

        // --- date index: survivors keep their (date, ix) order ---
        if !date_index_fresh {
            self.rebuild_date_index();
        } else if messages.touched() {
            let remapped = self.message_by_date.iter().filter_map(|&m| messages.get(m)).collect();
            self.message_by_date.set(remapped);
        }
    }
}

/// Old → new dense index of one entity class; `None` (the default)
/// when the class lost no rows, i.e. the identity.
#[derive(Default)]
struct Remap(Option<Vec<Ix>>);

impl Remap {
    fn new(len: usize, victims: &FxHashSet<Ix>) -> Remap {
        if victims.is_empty() {
            return Remap(None);
        }
        let mut next = 0;
        let map = (0..len as Ix)
            .map(|i| {
                if victims.contains(&i) {
                    NONE
                } else {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        Remap(Some(map))
    }

    /// Whether the class lost rows (its indices shift).
    fn touched(&self) -> bool {
        self.0.is_some()
    }

    /// The new index of old row `i`, `None` if it was removed.
    fn get(&self, i: Ix) -> Option<Ix> {
        match &self.0 {
            None => Some(i),
            Some(map) => Some(map[i as usize]).filter(|&n| n != NONE),
        }
    }

    /// The row filter of a touched class.
    fn keep(&self) -> Option<impl Fn(usize) -> bool + Copy + '_> {
        self.0.as_ref().map(|map| move |i: usize| map[i] != NONE)
    }

    /// Remaps a reference column in place (`NONE` stays `NONE`); a
    /// no-op for an untouched class.
    fn apply(&self, col: &mut [Ix]) {
        if let Some(map) = &self.0 {
            for ix in col.iter_mut().filter(|ix| **ix != NONE) {
                *ix = map[*ix as usize];
            }
        }
    }
}

/// Rewrites one adjacency without removed sources, removed targets and
/// the edges `dropped` names, in one pass into a fresh `Adj` — if any
/// of those can exist; otherwise the adjacency stays shared.
fn rewrite<P: Copy>(
    adj: &mut CowBox<Adj<P>>,
    sources: &Remap,
    targets: &Remap,
    edge_victims: bool,
    dropped: impl Fn(Ix, Ix) -> bool,
) {
    if !(sources.touched() || targets.touched() || edge_victims) {
        return;
    }
    // Surviving sources copy their edges as they are unless a target may
    // be renumbered or removed, or an edge may be a victim.
    let filter = targets.touched() || edge_victims;
    let fresh = adj.rewrite(
        |u| match sources.get(u) {
            None => Rewrite::Drop,
            Some(_) if filter => Rewrite::Filter,
            Some(_) => Rewrite::Keep,
        },
        |u, t, _| if dropped(u, t) { None } else { targets.get(t) },
    );
    adj.set(fresh);
}

/// Raw id → dense index over an id column.
fn id_map(ids: &[u64]) -> FxHashMap<u64, Ix> {
    ids.iter().enumerate().map(|(i, &id)| (id, i as Ix)).collect()
}

/// Keeps only elements whose index passes `keep`.
fn filter_in_place<T>(items: &mut Vec<T>, keep: impl Fn(usize) -> bool) {
    let mut i = 0;
    items.retain(|_| {
        let k = keep(i);
        i += 1;
        k
    });
}

/// Convenience constructor validating that the ids exist is done inside
/// [`Store::apply_deletes`]; this free function only documents intent.
pub fn delete_person(id: u64) -> DeleteOp {
    DeleteOp::Person(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::store_for_config;
    use snb_datagen::GeneratorConfig;

    fn store() -> Store {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 100;
        store_for_config(&c)
    }

    #[test]
    fn delete_knows_edge_only() {
        let mut s = store();
        let a = (0..s.persons.len() as Ix).find(|&p| s.knows.degree(p) > 0).unwrap();
        let b = s.knows.targets_of(a).next().unwrap();
        let (aid, bid) = (s.persons.id[a as usize], s.persons.id[b as usize]);
        let persons_before = s.persons.len();
        let knows_before = s.knows.edge_count();
        let stats = s.apply_deletes(&[DeleteOp::Knows(aid, bid)]).unwrap();
        assert_eq!(stats.knows, 1);
        assert_eq!(stats.persons, 0);
        assert_eq!(s.persons.len(), persons_before);
        assert_eq!(s.knows.edge_count(), knows_before - 2);
        let (a2, b2) = (s.person(aid).unwrap(), s.person(bid).unwrap());
        assert!(!s.knows.contains(a2, b2));
        s.validate_invariants().unwrap();
    }

    #[test]
    fn delete_message_cascades_subtree_and_likes() {
        let mut s = store();
        // A post with replies.
        let post = (0..s.messages.len() as Ix)
            .filter(|&m| s.messages.is_post(m))
            .max_by_key(|&m| s.message_replies.degree(m))
            .unwrap();
        assert!(s.message_replies.degree(post) > 0, "need a replied post");
        let post_id = s.messages.id[post as usize];
        // Collect the reply subtree (inclusive).
        let subtree: Vec<Ix> = {
            let mut out = vec![post];
            let mut stack = vec![post];
            while let Some(m) = stack.pop() {
                for r in s.message_replies.targets_of(m) {
                    out.push(r);
                    stack.push(r);
                }
            }
            out
        };
        let messages_before = s.messages.len();
        let stats = s.apply_deletes(&[DeleteOp::Message(post_id)]).unwrap();
        assert_eq!(stats.messages, subtree.len());
        assert_eq!(s.messages.len(), messages_before - subtree.len());
        assert!(s.message(post_id).is_err());
        s.validate_invariants().unwrap();
        // No dangling reply_of / root_post.
        for m in 0..s.messages.len() {
            assert_ne!(s.messages.root_post[m], NONE);
            let r = s.messages.reply_of[m];
            if r != NONE {
                assert!((r as usize) < s.messages.len());
            }
        }
    }

    #[test]
    fn delete_person_cascades_everything_they_own() {
        let mut s = store();
        let p = (0..s.persons.len() as Ix).max_by_key(|&p| s.knows.degree(p)).unwrap();
        let pid = s.persons.id[p as usize];
        let stats = s.apply_deletes(&[DeleteOp::Person(pid)]).unwrap();
        assert_eq!(stats.persons, 1);
        assert!(stats.forums >= 1, "wall must cascade");
        assert!(s.person(pid).is_err());
        s.validate_invariants().unwrap();
        // Nothing in the store references the victim: creators, likers,
        // members, moderators are all remapped survivors.
        for m in 0..s.messages.len() {
            assert!((s.messages.creator[m] as usize) < s.persons.len());
        }
        for f in 0..s.forums.len() {
            assert!((s.forums.moderator[f] as usize) < s.persons.len());
        }
        // Reverse indexes agree with the rewritten columns.
        for p2 in 0..s.persons.len() as Ix {
            for m in s.person_messages.targets_of(p2) {
                assert_eq!(s.messages.creator[m as usize], p2);
            }
        }
    }

    #[test]
    fn delete_forum_cascades_posts() {
        let mut s = store();
        let f = (0..s.forums.len() as Ix).max_by_key(|&f| s.forum_posts.degree(f)).unwrap();
        let posts = s.forum_posts.degree(f);
        assert!(posts > 0);
        let fid = s.forums.id[f as usize];
        let stats = s.apply_deletes(&[DeleteOp::Forum(fid)]).unwrap();
        assert_eq!(stats.forums, 1);
        assert!(stats.messages >= posts, "posts (and replies) cascade");
        assert!(s.forum(fid).is_err());
        s.validate_invariants().unwrap();
    }

    #[test]
    fn delete_like_and_membership_edges() {
        let mut s = store();
        let (p, m) = {
            let p = (0..s.persons.len() as Ix).find(|&p| s.person_likes.degree(p) > 0).unwrap();
            let (m, _) = s.person_likes.neighbors(p).next().unwrap();
            (p, m)
        };
        let (pid, mid) = (s.persons.id[p as usize], s.messages.id[m as usize]);
        let likes_before = s.person_likes.edge_count();
        s.apply_deletes(&[DeleteOp::Like(pid, mid)]).unwrap();
        assert_eq!(s.person_likes.edge_count(), likes_before - 1);
        s.validate_invariants().unwrap();

        let (p, f) = {
            let p = (0..s.persons.len() as Ix).find(|&p| s.member_forum.degree(p) > 0).unwrap();
            let (f, _) = s.member_forum.neighbors(p).next().unwrap();
            (p, f)
        };
        let (pid, fid) = (s.persons.id[p as usize], s.forums.id[f as usize]);
        let members_before = s.forum_member.edge_count();
        s.apply_deletes(&[DeleteOp::Membership(pid, fid)]).unwrap();
        assert_eq!(s.forum_member.edge_count(), members_before - 1);
        s.validate_invariants().unwrap();
    }

    #[test]
    fn unknown_ids_error_without_mutation() {
        let mut s = store();
        let persons = s.persons.len();
        let messages = s.messages.len();
        assert!(s.apply_deletes(&[DeleteOp::Person(987_654_321)]).is_err());
        assert!(s.apply_deletes(&[DeleteOp::Message(987_654_321)]).is_err());
        assert_eq!(s.persons.len(), persons);
        assert_eq!(s.messages.len(), messages);
        s.validate_invariants().unwrap();
    }

    #[test]
    fn insert_after_delete_works() {
        let mut s = store();
        let victim = s.persons.id[10];
        s.apply_deletes(&[DeleteOp::Person(victim)]).unwrap();
        s.validate_invariants().unwrap();
        // Reuse the freed id: a fresh person may take it.
        let city = s.places.id[s.persons.city[0] as usize];
        s.insert_person(crate::insert::PersonInsert {
            id: victim,
            first_name: "Reborn".into(),
            last_name: "User".into(),
            gender: snb_core::model::Gender::Female,
            birthday: snb_core::Date::from_ymd(1991, 2, 3),
            creation_date: snb_core::DateTime(1_000_000),
            location_ip: "8.8.8.8".into(),
            browser_used: "Safari".into(),
            city_id: city,
            speaks: vec!["en".into()],
            emails: vec![],
            tag_ids: vec![0],
            study_at: vec![],
            work_at: vec![],
        })
        .unwrap();
        assert_eq!(&s.persons.first_name[s.person(victim).unwrap() as usize], "Reborn");
        s.validate_invariants().unwrap();
    }

    #[test]
    fn like_only_delete_shares_everything_but_the_likes() {
        let h = crate::StoreHandle::new(store());
        let before = h.snapshot();
        let p = (0..before.persons.len() as Ix).find(|&p| before.person_likes.degree(p) > 0);
        let p = p.expect("a person with a like");
        let (m, _) = before.person_likes.neighbors(p).next().unwrap();
        let op = DeleteOp::Like(before.persons.id[p as usize], before.messages.id[m as usize]);
        h.publish_with(|next| next.apply_deletes(&[op])).unwrap();
        let after = h.snapshot();
        after.validate_invariants().unwrap();
        let (a, b): (&Store, &Store) = (&before, &after);
        macro_rules! shared {
            ($($field:ident),*) => {$(
                assert!(CowBox::ptr_eq(&a.$field, &b.$field), "{} was copied", stringify!($field));
            )*};
        }
        shared!(persons, forums, messages, places, tags, tag_classes, organisations);
        shared!(person_ix, forum_ix, message_ix, place_ix, tag_ix, tag_class_ix, org_ix);
        shared!(knows, person_interest, interest_person, person_study, person_work);
        shared!(forum_member, member_forum, forum_tag, tag_forum, message_tag, tag_message);
        shared!(person_messages, forum_posts, message_replies, place_children, city_person);
        shared!(tagclass_children, tagclass_tags, person_moderates);
        shared!(message_by_date, place_by_name, tag_by_name, tag_class_by_name);
        assert!(!CowBox::ptr_eq(&a.person_likes, &b.person_likes));
        assert!(!CowBox::ptr_eq(&a.message_likes, &b.message_likes));
        assert_eq!(b.person_likes.edge_count(), a.person_likes.edge_count() - 1);
    }

    #[test]
    fn delete_batches_fold_all_insert_overflow() {
        let mut c = GeneratorConfig::for_scale_name("0.001").unwrap();
        c.persons = 100;
        let (mut s, events) = crate::bulk_store_and_stream(&c);
        let world = snb_datagen::dictionaries::StaticWorld::build(c.seed);
        let (half, rest) = events.split_at(events.len() / 2);
        for e in half {
            s.apply_event(e, &world).unwrap();
        }
        assert!(!s.clone().fold_overflow().is_empty(), "inserts must overflow");
        // An edge-only batch, then (after more inserts) an entity batch.
        let p = (0..s.persons.len() as Ix).find(|&p| s.knows.degree(p) > 0).unwrap();
        let q = s.knows.targets_of(p).next().unwrap();
        let op = DeleteOp::Knows(s.persons.id[p as usize], s.persons.id[q as usize]);
        s.apply_deletes(&[op]).unwrap();
        assert_eq!(s.clone().fold_overflow(), Vec::<&str>::new());
        s.validate_invariants().unwrap();
        for e in rest {
            s.apply_event(e, &world).unwrap();
        }
        let post = (0..s.messages.len() as Ix).rev().find(|&m| s.messages.is_post(m)).unwrap();
        s.apply_deletes(&[DeleteOp::Message(s.messages.id[post as usize])]).unwrap();
        assert_eq!(s.clone().fold_overflow(), Vec::<&str>::new());
        assert!(s.date_index_fresh());
        s.validate_invariants().unwrap();
    }
}
