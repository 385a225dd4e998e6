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
//! rewritten without them, in one pass each, and nothing else is. An
//! edge op naming an edge the store does not hold removes nothing and
//! touches nothing. The cost is per touched component, not per store:
//!
//! * a column group and its id map are rewritten only if that class
//!   lost rows (or, for the columns, a class they point into did), by
//!   `retain_group`, whose row filter and reference remaps come from the
//!   group's declaration;
//! * an adjacency is rewritten only if its source or target class lost
//!   rows or it has edge victims, by one `Adj::rewrite` walk into a
//!   fresh `Adj` stored with [`CowBox::set`](crate::cow::CowBox::set),
//!   so a published version is never deep-copied just to be
//!   overwritten. When the target class renumbers, the walk visits
//!   every source. Otherwise it visits only the removed sources and the
//!   sources that own a victim edge, tests only their edges, and copies
//!   each stretch of untouched sources as one slice: O(listed sources +
//!   overflow + one slice copy per stretch);
//! * the date index is remapped only if messages went.
//!
//! A like-only batch therefore writes `person_likes` + `message_likes`
//! and shares everything else with the previous version. The one extra:
//! a batch leaves no insert overflow behind — adjacencies still holding
//! some are folded ([`Store::fold_overflow`], the same walk listing no
//! source), because the BI scans run measurably slower on the overflow
//! form. The CSR hot loops never test tombstones, which suits the BI
//! usage pattern (bulk refresh between analytical sessions); the insert
//! overflow path (IU 1–8) remains the low-latency write mechanism.

use rustc_hash::FxHashSet;

use snb_core::SnbResult;

use crate::adj::{Adj, Rewrite};
use crate::append_vec::AppendVec;
use crate::columns::{Group, IdMap, Ix, NONE};
use crate::cow::CowBox;
use crate::store::{Entity, Store};

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
    /// Like edges removed (cascades included; an absent edge counts 0).
    pub likes: usize,
    /// Membership edges removed (cascades included; an absent edge
    /// counts 0).
    pub memberships: usize,
    /// Knows edges removed (cascades included; undirected count; an
    /// absent edge counts 0).
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
        // Seed the tombstones from the explicit operations; an edge the
        // store does not hold is no victim.
        for op in ops {
            match *op {
                DeleteOp::Person(id) => {
                    v.persons.insert(self.person(id)?);
                }
                DeleteOp::Like(p, m) => {
                    let (p, m) = (self.person(p)?, self.message(m)?);
                    if self.person_likes.contains(p, m) {
                        v.likes.insert((p, m));
                    }
                }
                DeleteOp::Forum(id) => {
                    v.forums.insert(self.forum(id)?);
                }
                DeleteOp::Membership(p, f) => {
                    let (p, f) = (self.person(p)?, self.forum(f)?);
                    if self.member_forum.contains(p, f) {
                        v.memberships.insert((p, f));
                    }
                }
                DeleteOp::Message(id) => {
                    v.messages.insert(self.message(id)?);
                }
                DeleteOp::Knows(a, b) => {
                    let (a, b) = (self.person(a)?, self.person(b)?);
                    if self.knows.contains(a, b) {
                        v.knows.insert((a.min(b), a.max(b)));
                    }
                }
            }
        }
        self.expand_cascades(&mut v);
        // The edge counts are what the rewrites dropped.
        let edges = |s: &Store| {
            (s.person_likes.edge_count(), s.forum_member.edge_count(), s.knows.edge_count())
        };
        let (likes, memberships, knows) = edges(self);
        self.remove(&v);
        let after = edges(self);
        Ok(DeleteStats {
            persons: v.persons.len(),
            forums: v.forums.len(),
            messages: v.messages.len(),
            likes: likes - after.0,
            memberships: memberships - after.1,
            knows: (knows - after.2) / 2,
        })
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
        let unchanged = FxHashSet::default();
        let remaps = Entity::ALL.map(|class| {
            let victims = match class {
                Entity::Person => &v.persons,
                Entity::Forum => &v.forums,
                Entity::Message => &v.messages,
                _ => &unchanged,
            };
            Remap::new(self.rows(class), victims)
        });
        self.retain_groups(&remaps);

        // --- the adjacencies owning edge victims: (source class, target
        // class, the sources owning a victim edge, the victim test) ---
        let [persons, forums, messages] =
            [Entity::Person, Entity::Forum, Entity::Message].map(|c| &remaps[c as usize]);
        let knows = v.knows.iter().flat_map(|&(a, b)| [a, b]).collect();
        rewrite(&mut self.knows, persons, persons, knows, |a, b| {
            v.knows.contains(&(a.min(b), a.max(b)))
        });
        let likers = v.likes.iter().map(|&(p, _)| p).collect();
        rewrite(&mut self.person_likes, persons, messages, likers, |p, m| {
            v.likes.contains(&(p, m))
        });
        let liked = v.likes.iter().map(|&(_, m)| m).collect();
        rewrite(&mut self.message_likes, messages, persons, liked, |m, p| {
            v.likes.contains(&(p, m))
        });
        let groups = v.memberships.iter().map(|&(_, f)| f).collect();
        rewrite(&mut self.forum_member, forums, persons, groups, |f, p| {
            v.memberships.contains(&(p, f))
        });
        let members = v.memberships.iter().map(|&(p, _)| p).collect();
        rewrite(&mut self.member_forum, persons, forums, members, |p, f| {
            v.memberships.contains(&(p, f))
        });
        self.rewrite_victim_free(&remaps, &EDGE_VICTIM_OWNERS);
        self.fold_overflow();

        // --- date index: survivors keep their (date, ix) order ---
        if messages.touched() {
            let remapped = self.message_by_date.iter().filter_map(|&m| messages.get(m)).collect();
            self.message_by_date.set(remapped);
        }
    }
}

/// The adjacencies `remove` rewrites with their edge victims; every
/// other one only loses removed sources and targets.
const EDGE_VICTIM_OWNERS: [&str; 5] =
    ["knows", "person_likes", "message_likes", "forum_member", "member_forum"];

/// Rewrites a column group, and its id map, for a delete batch: if
/// `class` lost rows its rows are filtered and its id map rebuilt, and
/// if it or a class its references point into lost rows those
/// references are renumbered. Otherwise the group stays shared.
pub(crate) fn retain_group<G: Group>(
    group: &mut CowBox<G>,
    ids: &mut CowBox<IdMap>,
    class: Entity,
    remaps: &[Remap],
) {
    let own = &remaps[class as usize];
    if !own.touched() && !G::TARGETS.iter().any(|&c| remaps[c as usize].touched()) {
        return;
    }
    let g = &mut **group;
    if let Some(keep) = own.keep() {
        g.filter_rows(keep);
    }
    g.remap_refs(|target, col| remaps[target as usize].apply(col));
    if own.touched() {
        ids.set(IdMap::of_column(g.ids()));
    }
}

/// Old → new dense index of one entity class; `map` is `None` (the
/// default) when the class lost no rows, i.e. the identity.
#[derive(Default)]
pub(crate) struct Remap {
    map: Option<Vec<Ix>>,
    /// The removed rows, ascending.
    removed: Vec<Ix>,
}

impl Remap {
    fn new(len: usize, victims: &FxHashSet<Ix>) -> Remap {
        if victims.is_empty() {
            return Remap::default();
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
        let mut removed: Vec<Ix> = victims.iter().copied().collect();
        removed.sort_unstable();
        Remap { map: Some(map), removed }
    }

    /// Whether the class lost rows (its indices shift).
    fn touched(&self) -> bool {
        self.map.is_some()
    }

    /// The new index of old row `i`, `None` if it was removed.
    fn get(&self, i: Ix) -> Option<Ix> {
        match &self.map {
            None => Some(i),
            Some(map) => Some(map[i as usize]).filter(|&n| n != NONE),
        }
    }

    /// The row filter of a touched class.
    fn keep(&self) -> Option<impl Fn(usize) -> bool + Copy + '_> {
        self.map.as_ref().map(|map| move |i: usize| map[i] != NONE)
    }

    /// Remaps a reference column in place (`NONE` stays `NONE`); a
    /// no-op for an untouched class, which leaves a shared column shared.
    fn apply(&self, col: &mut AppendVec<Ix>) {
        if let Some(map) = &self.map {
            for ix in col.iter_mut().filter(|ix| **ix != NONE) {
                *ix = map[*ix as usize];
            }
        }
    }
}

/// Rewrites one adjacency without removed sources, removed targets and
/// the edges `dropped` names, in one walk into a fresh `Adj` — if any of
/// those can exist; otherwise the adjacency stays shared. `owners` are
/// the sources of the victim edges, in any order. When the target class
/// renumbers, every source is filtered; otherwise the walk visits only
/// the removed sources and `owners`, and copies the rest as slices.
pub(crate) fn rewrite<P: Copy>(
    adj: &mut CowBox<Adj<P>>,
    sources: &Remap,
    targets: &Remap,
    mut owners: Vec<Ix>,
    dropped: impl Fn(Ix, Ix) -> bool,
) {
    if !(sources.touched() || targets.touched() || !owners.is_empty()) {
        return;
    }
    let source = |u| if sources.get(u).is_some() { Rewrite::Filter } else { Rewrite::Drop };
    let edge = |u, t, _| if dropped(u, t) { None } else { targets.get(t) };
    let fresh = if targets.touched() {
        adj.rewrite(0..adj.sources() as Ix, source, edge)
    } else {
        owners.extend_from_slice(&sources.removed);
        owners.sort_unstable();
        owners.dedup();
        adj.rewrite(owners, source, edge)
    };
    adj.set(fresh);
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
        let stats = s.apply_deletes(&[DeleteOp::Like(pid, mid)]).unwrap();
        assert_eq!(stats, DeleteStats { likes: 1, ..DeleteStats::default() });
        assert_eq!(s.person_likes.edge_count(), likes_before - 1);
        s.validate_invariants().unwrap();

        let (p, f) = {
            let p = (0..s.persons.len() as Ix).find(|&p| s.member_forum.degree(p) > 0).unwrap();
            let (f, _) = s.member_forum.neighbors(p).next().unwrap();
            (p, f)
        };
        let (pid, fid) = (s.persons.id[p as usize], s.forums.id[f as usize]);
        let members_before = s.forum_member.edge_count();
        let stats = s.apply_deletes(&[DeleteOp::Membership(pid, fid)]).unwrap();
        assert_eq!(stats, DeleteStats { memberships: 1, ..DeleteStats::default() });
        assert_eq!(s.forum_member.edge_count(), members_before - 1);
        s.validate_invariants().unwrap();
    }

    #[test]
    fn deleting_absent_edges_removes_and_rewrites_nothing() {
        let mut s = store();
        let p = (0..s.persons.len() as Ix).find(|&p| s.person_likes.degree(p) > 0).unwrap();
        let m = (0..s.messages.len() as Ix).find(|&m| !s.person_likes.contains(p, m)).unwrap();
        let f = (0..s.forums.len() as Ix).find(|&f| !s.member_forum.contains(p, f)).unwrap();
        let q = (0..s.persons.len() as Ix).find(|&q| q != p && !s.knows.contains(p, q)).unwrap();
        let pid = s.persons.id[p as usize];
        let ops = [
            DeleteOp::Like(pid, s.messages.id[m as usize]),
            DeleteOp::Membership(pid, s.forums.id[f as usize]),
            DeleteOp::Knows(pid, s.persons.id[q as usize]),
        ];
        let before = s.clone();
        let stats = s.apply_deletes(&ops).unwrap();
        assert_eq!(stats, DeleteStats::default());
        assert_eq!(s.person_likes.edge_count(), before.person_likes.edge_count());
        assert_eq!(s.forum_member.edge_count(), before.forum_member.edge_count());
        assert_eq!(s.knows.edge_count(), before.knows.edge_count());
        assert!(CowBox::ptr_eq(&before.person_likes, &s.person_likes));
        assert!(CowBox::ptr_eq(&before.message_likes, &s.message_likes));
        assert!(CowBox::ptr_eq(&before.forum_member, &s.forum_member));
        assert!(CowBox::ptr_eq(&before.knows, &s.knows));
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
        let seed = GeneratorConfig::for_scale_name("0.001").unwrap().seed;
        let world = snb_datagen::dictionaries::StaticWorld::build(seed);
        let reborn = snb_datagen::graph::RawPerson {
            id: snb_core::model::PersonId(victim),
            first_name: "Reborn".into(),
            last_name: "User".into(),
            gender: snb_core::model::Gender::Female,
            birthday: snb_core::Date::from_ymd(1991, 2, 3),
            creation_date: snb_core::DateTime(1_000_000),
            location_ip: "8.8.8.8".into(),
            browser: 3,
            city: snb_core::model::PlaceId(city),
            country: 0,
            languages: vec![world.languages.iter().position(|&l| l == "en").unwrap() as u8],
            emails: vec![],
            interests: vec![snb_core::model::TagId(0)],
            study_at: None,
            work_at: vec![],
        };
        let event = snb_datagen::stream::TimedEvent {
            timestamp: reborn.creation_date,
            dependent: reborn.creation_date,
            event: snb_datagen::stream::UpdateEvent::AddPerson(reborn),
        };
        s.apply_event(&event, &world).unwrap();
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
        assert_eq!(a.unshared_boxes(b), ["person_likes", "message_likes"]);
        assert!(
            CowBox::ptr_eq(&a.message_by_date, &b.message_by_date),
            "the date index was copied"
        );
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
        s.validate_invariants().unwrap();
    }
}
