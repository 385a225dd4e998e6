//! The columnar graph store: columns + CSR adjacency + id/name indexes.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use rustc_hash::{FxHashMap, FxHasher};
use snb_core::datetime::DateTime;
use snb_core::model::PlaceKind;
use snb_core::{SnbError, SnbResult};

use crate::adj::Adj;
use crate::append_vec::AppendVec;
use crate::columns::{
    ForumCols, IdMap, Ix, MessageCols, OrganisationCols, PersonCols, PlaceCols, TagClassCols,
    TagCols, NONE,
};
use crate::cow::CowBox;

/// The System Under Test: an in-memory columnar property graph holding
/// the full SNB schema with forward and reverse CSR adjacency for every
/// relation the workloads traverse.
#[derive(Clone, Default)]
pub struct Store {
    /// Person columns.
    pub persons: CowBox<PersonCols>,
    /// Forum columns.
    pub forums: CowBox<ForumCols>,
    /// Message columns (posts + comments).
    pub messages: CowBox<MessageCols>,
    /// Place columns.
    pub places: CowBox<PlaceCols>,
    /// Tag columns.
    pub tags: CowBox<TagCols>,
    /// TagClass columns.
    pub tag_classes: CowBox<TagClassCols>,
    /// Organisation columns.
    pub organisations: CowBox<OrganisationCols>,

    /// Raw person id → dense index.
    pub person_ix: CowBox<IdMap>,
    /// Raw forum id → dense index.
    pub forum_ix: CowBox<IdMap>,
    /// Raw message id → dense index.
    pub message_ix: CowBox<IdMap>,
    /// Raw place id → dense index.
    pub place_ix: CowBox<IdMap>,
    /// Raw tag id → dense index.
    pub tag_ix: CowBox<IdMap>,
    /// Raw tag-class id → dense index.
    pub tag_class_ix: CowBox<IdMap>,
    /// Raw organisation id → dense index.
    pub org_ix: CowBox<IdMap>,

    /// Symmetric `knows` adjacency with creation dates (each edge stored
    /// in both directions).
    pub knows: CowBox<Adj<DateTime>>,
    /// Person → interest tags.
    pub person_interest: CowBox<Adj>,
    /// Tag → interested persons.
    pub interest_person: CowBox<Adj>,
    /// Person → university with class year.
    pub person_study: CowBox<Adj<i32>>,
    /// Person → companies with work-from year.
    pub person_work: CowBox<Adj<i32>>,
    /// Forum → members with join date.
    pub forum_member: CowBox<Adj<DateTime>>,
    /// Person → forums joined with join date.
    pub member_forum: CowBox<Adj<DateTime>>,
    /// Forum → topic tags.
    pub forum_tag: CowBox<Adj>,
    /// Tag → forums carrying it.
    pub tag_forum: CowBox<Adj>,
    /// Message → tags.
    pub message_tag: CowBox<Adj>,
    /// Tag → messages carrying it.
    pub tag_message: CowBox<Adj>,
    /// Person → created messages.
    pub person_messages: CowBox<Adj>,
    /// Forum → contained posts.
    pub forum_posts: CowBox<Adj>,
    /// Message → direct reply comments.
    pub message_replies: CowBox<Adj>,
    /// Person → liked messages with like date.
    pub person_likes: CowBox<Adj<DateTime>>,
    /// Message → likers with like date.
    pub message_likes: CowBox<Adj<DateTime>>,
    /// Place → child places (continent → countries, country → cities).
    pub place_children: CowBox<Adj>,
    /// City → resident persons.
    pub city_person: CowBox<Adj>,
    /// TagClass → direct subclasses.
    pub tagclass_children: CowBox<Adj>,
    /// TagClass → tags of exactly that class.
    pub tagclass_tags: CowBox<Adj>,
    /// Person → moderated forums.
    pub person_moderates: CowBox<Adj>,

    /// Message indices permuted into ascending `(creation_date, ix)`
    /// order. Built by the bulk loader, rebuilt by [`Store::compact`]
    /// and left fresh by deletes; out-of-order inserts leave it stale
    /// (shorter than `messages`), in which case the windowed accessors
    /// return `None` and callers fall back to a full scan.
    pub message_by_date: CowBox<AppendVec<Ix>>,

    /// Place name → index.
    pub place_by_name: CowBox<FxHashMap<String, Ix>>,
    /// Tag name → index.
    pub tag_by_name: CowBox<FxHashMap<String, Ix>>,
    /// TagClass name → index.
    pub tag_class_by_name: CowBox<FxHashMap<String, Ix>>,
}

impl Store {
    /// Releases push-growth slack in the big column groups. Bulk loads
    /// are append-once, so capacity beyond `len` is pure waste; every
    /// build path (datagen, streaming, image decode) calls this before
    /// handing the store out. The first insert batch after it copies each
    /// column it appends to once, into a buffer twice the column's
    /// length; later batches append into that buffer in place, shared
    /// with the versions before them.
    pub fn shrink_columns(&mut self) {
        self.persons.shrink_to_fit();
        self.forums.shrink_to_fit();
        self.messages.shrink_to_fit();
    }

    /// Resolves a raw person id.
    pub fn person(&self, id: u64) -> SnbResult<Ix> {
        self.person_ix.get(&id).copied().ok_or(SnbError::UnknownId { entity: "Person", id })
    }

    /// Resolves a raw message id.
    pub fn message(&self, id: u64) -> SnbResult<Ix> {
        self.message_ix.get(&id).copied().ok_or(SnbError::UnknownId { entity: "Message", id })
    }

    /// Resolves a raw forum id.
    pub fn forum(&self, id: u64) -> SnbResult<Ix> {
        self.forum_ix.get(&id).copied().ok_or(SnbError::UnknownId { entity: "Forum", id })
    }

    /// Resolves a country by name.
    pub fn country_by_name(&self, name: &str) -> SnbResult<Ix> {
        self.place_by_name
            .get(name)
            .copied()
            .filter(|&p| self.places.kind[p as usize] == PlaceKind::Country)
            .ok_or_else(|| SnbError::Config(format!("unknown country {name:?}")))
    }

    /// Resolves a tag by name.
    pub fn tag_named(&self, name: &str) -> SnbResult<Ix> {
        self.tag_by_name
            .get(name)
            .copied()
            .ok_or_else(|| SnbError::Config(format!("unknown tag {name:?}")))
    }

    /// Resolves a tag class by name.
    pub fn tag_class_named(&self, name: &str) -> SnbResult<Ix> {
        self.tag_class_by_name
            .get(name)
            .copied()
            .ok_or_else(|| SnbError::Config(format!("unknown tag class {name:?}")))
    }

    /// The country of a person (home city's parent).
    pub fn person_country(&self, p: Ix) -> Ix {
        self.places.part_of[self.persons.city[p as usize] as usize]
    }

    /// The continent of a country.
    pub fn country_continent(&self, country: Ix) -> Ix {
        self.places.part_of[country as usize]
    }

    /// Iterates all persons located in `country` (via its cities).
    pub fn persons_in_country(&self, country: Ix) -> impl Iterator<Item = Ix> + '_ {
        self.place_children
            .targets_of(country)
            .flat_map(move |city| self.city_person.targets_of(city))
    }

    /// All tag classes in the subtree rooted at `class` (inclusive) —
    /// the transitive `isSubclassOf` closure needed by BI 12/16/20 etc.
    pub fn tagclass_subtree(&self, class: Ix) -> Vec<Ix> {
        let mut out = vec![class];
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            for child in self.tagclass_children.targets_of(c) {
                out.push(child);
                stack.push(child);
            }
        }
        out
    }

    /// Whether tag `t`'s class lies in the subtree rooted at `class`.
    pub fn tag_in_class_subtree(&self, t: Ix, class: Ix) -> bool {
        let mut c = self.tags.class[t as usize];
        loop {
            if c == class {
                return true;
            }
            let parent = self.tag_classes.parent[c as usize];
            if parent == NONE {
                return false;
            }
            c = parent;
        }
    }

    /// The forum a message's thread lives in (container of its root
    /// post).
    pub fn thread_forum(&self, m: Ix) -> Ix {
        let root = self.messages.root_post[m as usize];
        self.messages.forum[root as usize]
    }

    /// Rebuilds the `(creation_date, ix)` message permutation index.
    pub fn rebuild_date_index(&mut self) {
        let dates = &self.messages.creation_date;
        let mut perm: AppendVec<Ix> = (0..self.messages.len() as Ix).collect();
        perm.sort_unstable_by_key(|&m| (dates[m as usize], m));
        self.message_by_date.set(perm);
    }

    /// Whether the date permutation index covers every message (it goes
    /// stale when streamed inserts append messages without a rebuild).
    pub fn date_index_fresh(&self) -> bool {
        self.message_by_date.len() == self.messages.len()
    }

    /// Message indices created strictly before `t`, as a binary-searched
    /// prefix of the date permutation index (ascending `(creation_date,
    /// ix)` order). `None` when the index is stale.
    pub fn messages_created_before(&self, t: DateTime) -> Option<&[Ix]> {
        if !self.date_index_fresh() {
            return None;
        }
        let cut =
            self.message_by_date.partition_point(|&m| self.messages.creation_date[m as usize] < t);
        Some(&self.message_by_date[..cut])
    }

    /// Message indices created in the half-open timestamp window
    /// `[lo, hi)`, as a binary-searched contiguous run of the date
    /// permutation index. `None` when the index is stale.
    pub fn messages_created_in(&self, lo: DateTime, hi: DateTime) -> Option<&[Ix]> {
        if !self.date_index_fresh() {
            return None;
        }
        if hi <= lo {
            return Some(&self.message_by_date[0..0]);
        }
        let a =
            self.message_by_date.partition_point(|&m| self.messages.creation_date[m as usize] < lo);
        let b =
            self.message_by_date.partition_point(|&m| self.messages.creation_date[m as usize] < hi);
        Some(&self.message_by_date[a..b])
    }

    /// Message indices created strictly after `t`, as a binary-searched
    /// suffix of the date permutation index. `None` when the index is
    /// stale.
    pub fn messages_created_after(&self, t: DateTime) -> Option<&[Ix]> {
        if !self.date_index_fresh() {
            return None;
        }
        let cut =
            self.message_by_date.partition_point(|&m| self.messages.creation_date[m as usize] <= t);
        Some(&self.message_by_date[cut..])
    }

    /// Morsel ranges covering the message column block — the scan
    /// surface the parallel execution primitives consume.
    pub fn message_chunks(&self, morsel: usize) -> impl Iterator<Item = Range<usize>> {
        chunks(self.messages.len(), morsel)
    }

    /// Morsel ranges covering the person column block.
    pub fn vertex_chunks(&self, morsel: usize) -> impl Iterator<Item = Range<usize>> {
        chunks(self.persons.len(), morsel)
    }

    /// Folds every adjacency's insert overflow back into CSR form and
    /// rebuilds the date index (optional; queries work on the overflow
    /// form too).
    pub fn compact(&mut self) {
        self.rebuild_date_index();
        self.fold_overflow();
    }

    /// Folds the insert overflow of every adjacency that has any into a
    /// fresh CSR stored with [`CowBox::set`]: the old version keeps its
    /// arrays, and adjacencies without overflow stay shared. Returns the
    /// names of the adjacencies it folded — none after [`Store::compact`]
    /// or a delete batch.
    pub fn fold_overflow(&mut self) -> Vec<&'static str> {
        fn fold<P: Copy>(
            folded: &mut Vec<&'static str>,
            name: &'static str,
            adj: &mut CowBox<Adj<P>>,
        ) {
            if adj.has_overflow() {
                let merged = adj.compact();
                adj.set(merged);
                folded.push(name);
            }
        }
        let mut folded = Vec::new();
        let f = &mut folded;
        fold(f, "knows", &mut self.knows);
        fold(f, "person_interest", &mut self.person_interest);
        fold(f, "interest_person", &mut self.interest_person);
        fold(f, "person_study", &mut self.person_study);
        fold(f, "person_work", &mut self.person_work);
        fold(f, "forum_member", &mut self.forum_member);
        fold(f, "member_forum", &mut self.member_forum);
        fold(f, "forum_tag", &mut self.forum_tag);
        fold(f, "tag_forum", &mut self.tag_forum);
        fold(f, "message_tag", &mut self.message_tag);
        fold(f, "tag_message", &mut self.tag_message);
        fold(f, "person_messages", &mut self.person_messages);
        fold(f, "forum_posts", &mut self.forum_posts);
        fold(f, "message_replies", &mut self.message_replies);
        fold(f, "person_likes", &mut self.person_likes);
        fold(f, "message_likes", &mut self.message_likes);
        fold(f, "place_children", &mut self.place_children);
        fold(f, "city_person", &mut self.city_person);
        fold(f, "tagclass_children", &mut self.tagclass_children);
        fold(f, "tagclass_tags", &mut self.tagclass_tags);
        fold(f, "person_moderates", &mut self.person_moderates);
        folded
    }

    /// Consistency check used by tests after every write: column
    /// lengths agree, every id map inverts its id column, no dense index
    /// dangles, root posts close over the reply tree (a post is its own
    /// root, a comment shares its parent's), every forward/reverse
    /// adjacency pair holds the same edge
    /// multiset, every adjacency derived from a column agrees with it,
    /// and a fresh date index is the `(creation_date, ix)` permutation.
    pub fn validate_invariants(&self) -> SnbResult<()> {
        let bad = |what: String| Err(SnbError::Config(what));
        let (np, nf, nm) = (self.persons.len(), self.forums.len(), self.messages.len());
        let (nt, npl, ntc) = (self.tags.len(), self.places.len(), self.tag_classes.len());
        let cols = [
            self.persons.first_name.len(),
            self.persons.last_name.len(),
            self.persons.birthday.len(),
            self.persons.creation_date.len(),
            self.persons.city.len(),
            self.persons.emails.len(),
            self.persons.speaks.len(),
        ];
        if cols.iter().any(|&c| c != np) {
            return bad(format!("person column lengths differ: {cols:?}"));
        }
        if self.forums.moderator.len() != nf || self.forums.creation_date.len() != nf {
            return bad("forum column lengths differ".into());
        }
        if self.messages.creator.len() != nm
            || self.messages.reply_of.len() != nm
            || self.messages.root_post.len() != nm
            || self.messages.forum.len() != nm
        {
            return bad("message column lengths differ".into());
        }

        // Id maps invert their id columns.
        for (what, map, ids) in [
            ("person", &self.person_ix, &self.persons.id),
            ("forum", &self.forum_ix, &self.forums.id),
            ("message", &self.message_ix, &self.messages.id),
            ("place", &self.place_ix, &self.places.id),
            ("tag", &self.tag_ix, &self.tags.id),
            ("tag class", &self.tag_class_ix, &self.tag_classes.id),
            ("organisation", &self.org_ix, &self.organisations.id),
        ] {
            if map.len() != ids.len()
                || ids.iter().enumerate().any(|(i, id)| map.get(id) != Some(&(i as Ix)))
            {
                return bad(format!("{what} id map disagrees with its id column"));
            }
        }

        // No column reference dangles (NONE only where it means "none").
        let refs: [(&str, &[Ix], usize, bool); 9] = [
            ("person city", &self.persons.city, npl, false),
            ("forum moderator", &self.forums.moderator, np, false),
            ("message creator", &self.messages.creator, np, false),
            ("message country", &self.messages.country, npl, false),
            ("message forum", &self.messages.forum, nf, true),
            ("message reply_of", &self.messages.reply_of, nm, true),
            ("message root_post", &self.messages.root_post, nm, false),
            ("tag class", &self.tags.class, ntc, false),
            ("tag class parent", &self.tag_classes.parent, ntc, true),
        ];
        for (what, col, n, none_ok) in refs {
            if col.iter().any(|&ix| ix as usize >= n && !(none_ok && ix == NONE)) {
                return bad(format!("{what} dangles"));
            }
        }

        // Root posts close over the reply tree: a post is its own root, a
        // comment shares its parent's root, and every root is a post.
        let m = &self.messages;
        for i in 0..nm {
            let (root, parent) = (m.root_post[i], m.reply_of[i]);
            let closed = if m.is_post(i as Ix) {
                root == i as Ix
            } else {
                parent != NONE && root == m.root_post[parent as usize]
            };
            if !closed || !m.is_post(root) {
                return bad(format!("message {i} has root_post {root}, which breaks the closure"));
            }
        }

        // No adjacency source or target dangles; digests of each edge
        // multiset for the pair and column checks below.
        // `check_adj`'s digests are taken flipped for reverse relations.
        let (fwd, rev) = (false, true);
        let knows = check_adj("knows", &self.knows, np, np, fwd)?;
        let knows_flipped = check_adj("knows", &self.knows, np, np, rev)?;
        let person_interest = check_adj("person_interest", &self.person_interest, np, nt, fwd)?;
        let interest_person = check_adj("interest_person", &self.interest_person, nt, np, rev)?;
        let norg = self.organisations.len();
        check_adj("person_study", &self.person_study, np, norg, fwd)?;
        check_adj("person_work", &self.person_work, np, norg, fwd)?;
        let forum_member = check_adj("forum_member", &self.forum_member, nf, np, rev)?;
        let member_forum = check_adj("member_forum", &self.member_forum, np, nf, fwd)?;
        let forum_tag = check_adj("forum_tag", &self.forum_tag, nf, nt, fwd)?;
        let tag_forum = check_adj("tag_forum", &self.tag_forum, nt, nf, rev)?;
        let message_tag = check_adj("message_tag", &self.message_tag, nm, nt, fwd)?;
        let tag_message = check_adj("tag_message", &self.tag_message, nt, nm, rev)?;
        let person_messages = check_adj("person_messages", &self.person_messages, np, nm, fwd)?;
        let forum_posts = check_adj("forum_posts", &self.forum_posts, nf, nm, fwd)?;
        let message_replies = check_adj("message_replies", &self.message_replies, nm, nm, fwd)?;
        let person_likes = check_adj("person_likes", &self.person_likes, np, nm, fwd)?;
        let message_likes = check_adj("message_likes", &self.message_likes, nm, np, rev)?;
        check_adj("place_children", &self.place_children, npl, npl, fwd)?;
        let city_person = check_adj("city_person", &self.city_person, npl, np, fwd)?;
        check_adj("tagclass_children", &self.tagclass_children, ntc, ntc, fwd)?;
        check_adj("tagclass_tags", &self.tagclass_tags, ntc, nt, fwd)?;
        let person_moderates = check_adj("person_moderates", &self.person_moderates, np, nf, fwd)?;

        // Forward/reverse pairs hold the same edge multiset.
        let mirrored = [
            ("knows", knows == knows_flipped),
            ("likes", person_likes == message_likes),
            ("memberships", member_forum == forum_member),
            ("interests", person_interest == interest_person),
            ("message tags", message_tag == tag_message),
            ("forum tags", forum_tag == tag_forum),
        ];
        if let Some((what, _)) = mirrored.iter().find(|(_, same)| !same) {
            return bad(format!("{what} forward and reverse adjacencies differ"));
        }

        // Adjacencies derived from columns agree with them.
        let (m, f, p) = (&self.messages, &self.forums, &self.persons);
        let derived = [
            ("person_messages", person_messages, column_digest(nm, |i| Some(m.creator[i]))),
            (
                "forum_posts",
                forum_posts,
                column_digest(nm, |i| m.is_post(i as Ix).then(|| m.forum[i])),
            ),
            (
                "message_replies",
                message_replies,
                column_digest(nm, |i| Some(m.reply_of[i]).filter(|&r| r != NONE)),
            ),
            ("person_moderates", person_moderates, column_digest(nf, |i| Some(f.moderator[i]))),
            ("city_person", city_person, column_digest(np, |i| Some(p.city[i]))),
        ];
        if let Some((what, ..)) = derived.iter().find(|(_, adj, col)| adj != col) {
            return bad(format!("{what} disagrees with the columns it derives from"));
        }

        // Date permutation index: when fresh it must be a permutation in
        // ascending (creation_date, ix) order.
        if self.date_index_fresh() {
            for w in self.message_by_date.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                let ka = (self.messages.creation_date[a], w[0]);
                let kb = (self.messages.creation_date[b], w[1]);
                if ka >= kb {
                    return bad("date index out of order".into());
                }
            }
            let mut seen = vec![false; nm];
            for &ix in &self.message_by_date {
                seen[ix as usize] = true;
            }
            if seen.iter().any(|&s| !s) {
                return bad("date index is not a permutation".into());
            }
        }
        Ok(())
    }
}

/// Checks that `adj` has exactly `sources` source vertices and no target
/// at or past `targets`, and returns an order-free digest of its edge
/// multiset, as `(source, target)` pairs or, with `flip`, as `(target,
/// source)`. Equal digests mean equal multisets, short of a 64-bit
/// collision; one O(E) pass, so recovery can afford the check.
fn check_adj<P: Copy + Hash>(
    what: &str,
    adj: &Adj<P>,
    sources: usize,
    targets: usize,
    flip: bool,
) -> SnbResult<u64> {
    if adj.sources() != sources {
        return Err(SnbError::Config(format!(
            "{what} has {} sources for {sources} rows",
            adj.sources()
        )));
    }
    let mut digest = 0u64;
    for (s, t, p) in adj.edges() {
        if t as usize >= targets {
            return Err(SnbError::Config(format!("{what} has a dangling target")));
        }
        let (a, b) = if flip { (t, s) } else { (s, t) };
        digest = digest.wrapping_add(edge_digest(a, b, p));
    }
    Ok(digest)
}

/// The digest of the payload-free edges `(source(i), i)` a
/// column implies for rows `0..rows` (`None` = the row has no edge).
fn column_digest(rows: usize, source: impl Fn(usize) -> Option<Ix>) -> u64 {
    (0..rows)
        .filter_map(|i| source(i).map(|s| edge_digest(s, i as Ix, ())))
        .fold(0, u64::wrapping_add)
}

fn edge_digest(s: Ix, t: Ix, payload: impl Hash) -> u64 {
    let mut h = FxHasher::default();
    payload.hash(&mut h);
    mix(((s as u64) << 32 | t as u64) ^ mix(h.finish()))
}

/// splitmix64's step: a bijection, offset so that no common edge (such
/// as `(0, 0)` without payload) digests to the additive identity.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Morsel ranges `[0, n)` split into `size`-sized pieces (last one
/// short). Mirrors `snb_engine::exec::chunk_ranges`, re-implemented
/// here because the store sits below the engine in the crate graph.
fn chunks(n: usize, size: usize) -> impl Iterator<Item = Range<usize>> {
    let size = size.max(1);
    (0..n).step_by(size).map(move |lo| lo..(lo + size).min(n))
}
