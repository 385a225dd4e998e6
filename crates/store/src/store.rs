//! The columnar graph store: columns + CSR adjacency + id indexes.
//!
//! The store's schema is declared once, in the `schema!` invocation
//! below: the seven column groups (each group's fields are declared in
//! [`columns`](crate::columns)) with their classes and id maps, then the
//! 21 adjacencies in field order, each with its payload type, source
//! class and target class. The `Store` struct and every pass that walks
//! all groups or all adjacencies derive from it: the image sections
//! (groups at tags `1 + class`, adjacency `i` at `10 + i`), the id-map
//! rebuild, `shrink_columns`, `fold_overflow`, the vertex inserts'
//! `grow_sources`, the delete path's group filter and victim-free
//! adjacency rewrites, and the length, reference, id-map and adjacency
//! checks of [`Store::validate_invariants`]. Checks between relations
//! (mirrored pairs, adjacencies derived from columns, the reply tree)
//! stay hand-written below.

use std::hash::{Hash, Hasher};

use rustc_hash::FxHasher;
use snb_core::datetime::DateTime;
use snb_core::model::PlaceKind;
use snb_core::{SnbError, SnbResult};

use crate::adj::Adj;
use crate::append_vec::AppendVec;
use crate::columns::{
    ForumCols, Group, IdMap, Ix, MessageCols, OrganisationCols, PersonCols, PlaceCols,
    TagClassCols, TagCols, NONE,
};
use crate::cow::CowBox;
use crate::delete::{self, Remap};
use crate::image;
use crate::intern::SymCol;

/// Declares the store: its column groups (`field: Cols, Entity, id_map;`)
/// and adjacencies (`field: Payload, Source -> Target;`), followed by
/// the fields no pass walks. Generates `Entity`, `Store` and the passes
/// over every group and every adjacency.
macro_rules! schema {
    (
        $(#[$doc:meta])*
        pub struct Store {
            groups {
                $( $(#[$group_doc:meta])* $group:ident: $cols:ident, $class:ident, $ix:ident; )*
            }
            adjacencies {
                $( $(#[$adj_doc:meta])* $adj:ident: $payload:ty, $src:ident -> $dst:ident; )*
            }
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
        }
    ) => {
        /// The entity classes, one per column group, in image-section
        /// order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub(crate) enum Entity {
            $( $class, )*
        }

        impl Entity {
            /// Every class, in declaration order (`ALL[c as usize] == c`).
            pub(crate) const ALL: [Entity; [$(Entity::$class),*].len()] = [$(Entity::$class),*];
        }

        $(#[$doc])*
        #[derive(Clone, Default)]
        pub struct Store {
            $( $(#[$group_doc])* pub $group: CowBox<$cols>, )*
            $(
                #[doc = concat!("Raw id → dense index of `", stringify!($group), "`.")]
                pub $ix: CowBox<IdMap>,
            )*
            $( $(#[$adj_doc])* pub $adj: CowBox<Adj<$payload>>, )*
            $( $(#[$field_doc])* pub $field: $ty, )*
        }

        /// One edge-multiset digest per adjacency (see `check_adj`); the
        /// mirrored and column-derived ones are compared.
        #[allow(dead_code)]
        struct AdjDigests {
            $( $adj: u64, )*
        }

        impl Store {
            /// Rows of `class`'s column group.
            pub(crate) fn rows(&self, class: Entity) -> usize {
                match class {
                    $( Entity::$class => self.$group.len(), )*
                }
            }

            /// Releases push-growth slack in the dynamic column groups.
            /// Bulk loads are append-once, so capacity beyond `len` is
            /// pure waste; every build path (datagen, streaming, image
            /// decode) calls this before handing the store out. The
            /// first insert batch after it copies each column it appends
            /// to once, into a buffer twice the column's length; later
            /// batches append into that buffer in place, shared with the
            /// versions before them.
            pub fn shrink_columns(&mut self) {
                $( if Entity::$class.is_dynamic() { self.$group.shrink_to_fit(); } )*
            }

            /// Maps every id column afresh.
            pub(crate) fn rebuild_id_maps(&mut self) {
                $( self.$ix.set(IdMap::of_column(&self.$group.id)); )*
            }

            /// Ensures every adjacency sourced at `class` has a source
            /// per row (after a vertex insert).
            pub(crate) fn grow_sources(&mut self, class: Entity) {
                let n = self.rows(class);
                $( if Entity::$src == class { self.$adj.grow_sources(n); } )*
            }

            /// Folds the insert overflow of every adjacency that has any
            /// into a fresh CSR stored with [`CowBox::set`]: the old
            /// version keeps its arrays, and adjacencies without
            /// overflow stay shared. Returns the names of the
            /// adjacencies it folded — none after a delete batch.
            /// Optional: queries read the overflow form too.
            pub fn fold_overflow(&mut self) -> Vec<&'static str> {
                let mut folded = Vec::new();
                $( if fold(&mut self.$adj) { folded.push(stringify!($adj)); } )*
                folded
            }

            /// Writes every group's and adjacency's image section, in
            /// image order.
            pub(crate) fn put_sections(
                &self,
                w: &mut image::SectionWriter<'_, impl std::io::Write>,
            ) -> std::io::Result<()> {
                $( image::put_group(w, Entity::$class, &*self.$group)?; )*
                let mut tag = image::SECT_ADJ_BASE - 1;
                $( tag += 1; image::put_adj_section(w, tag, &self.$adj)?; )*
                Ok(())
            }

            /// Reads what [`Store::put_sections`] wrote into a store
            /// without id maps or derived indexes.
            pub(crate) fn get_sections(
                r: &mut image::SectionReader<impl std::io::Read>,
            ) -> SnbResult<Store> {
                let mut s = Store::default();
                $( s.$group.set(image::get_group(r, Entity::$class)?); )*
                let mut tag = image::SECT_ADJ_BASE - 1;
                $( tag += 1; s.$adj.set(image::get_adj_section(r, tag)?); )*
                Ok(s)
            }

            /// The delete path's group pass (`delete::retain_group`).
            pub(crate) fn retain_groups(&mut self, remaps: &[Remap]) {
                $( delete::retain_group(&mut self.$group, &mut self.$ix, Entity::$class, remaps); )*
            }

            /// The delete path's rewrite of every adjacency not in
            /// `owners` (which own edge victims and are rewritten apart):
            /// without the removed sources and targets.
            pub(crate) fn rewrite_victim_free(&mut self, remaps: &[Remap], owners: &[&str]) {
                $(
                    if !owners.contains(&stringify!($adj)) {
                        let (s, t) = (&remaps[Entity::$src as usize], &remaps[Entity::$dst as usize]);
                        delete::rewrite(&mut self.$adj, s, t, Vec::new(), |_, _| false);
                    }
                )*
            }

            /// Every group's column lengths and references, then every id
            /// map against its id column.
            fn check_groups(&self) -> SnbResult<()> {
                $(
                    self.$group.check(|class| self.rows(class)).map_err(|e| {
                        SnbError::Config(format!("{}.{e}", stringify!($group)))
                    })?;
                )*
                $( check_id_map(stringify!($ix), &self.$ix, &self.$group.id)?; )*
                Ok(())
            }

            /// Every adjacency's source and target counts against its
            /// classes, and its digest. An edge is digested with its end
            /// in the lower class first (its source first within one
            /// class), so both directions of a relation digest alike.
            fn adjacency_digests(&self) -> SnbResult<AdjDigests> {
                Ok(AdjDigests {
                    $(
                        $adj: check_adj(
                            stringify!($adj),
                            &self.$adj,
                            self.rows(Entity::$src),
                            self.rows(Entity::$dst),
                            Entity::$dst < Entity::$src,
                        )?,
                    )*
                })
            }

            /// The groups, id maps and adjacencies `other` holds in
            /// boxes of its own.
            #[cfg(test)]
            pub(crate) fn unshared_boxes(&self, other: &Store) -> Vec<&'static str> {
                let mut out = Vec::new();
                $( if !CowBox::ptr_eq(&self.$group, &other.$group) { out.push(stringify!($group)); } )*
                $( if !CowBox::ptr_eq(&self.$ix, &other.$ix) { out.push(stringify!($ix)); } )*
                $( if !CowBox::ptr_eq(&self.$adj, &other.$adj) { out.push(stringify!($adj)); } )*
                out
            }

            /// The id maps and adjacencies whose base buffers `other`
            /// does not share.
            #[cfg(test)]
            pub(crate) fn unshared_bases(&self, other: &Store) -> Vec<&'static str> {
                let mut out = Vec::new();
                $( if !IdMap::shares_base(&self.$ix, &other.$ix) { out.push(stringify!($ix)); } )*
                $( if !Adj::shares_base(&self.$adj, &other.$adj) { out.push(stringify!($adj)); } )*
                out
            }
        }
    };
}

schema! {
    /// The System Under Test: an in-memory columnar property graph holding
    /// the full SNB schema with forward and reverse CSR adjacency for every
    /// relation the workloads traverse.
    pub struct Store {
        groups {
            /// Person columns.
            persons: PersonCols, Person, person_ix;
            /// Forum columns.
            forums: ForumCols, Forum, forum_ix;
            /// Message columns (posts + comments).
            messages: MessageCols, Message, message_ix;
            /// Place columns.
            places: PlaceCols, Place, place_ix;
            /// Tag columns.
            tags: TagCols, Tag, tag_ix;
            /// TagClass columns.
            tag_classes: TagClassCols, TagClass, tag_class_ix;
            /// Organisation columns.
            organisations: OrganisationCols, Organisation, org_ix;
        }
        adjacencies {
            /// Symmetric `knows` adjacency with creation dates (each edge
            /// stored in both directions).
            knows: DateTime, Person -> Person;
            /// Person → interest tags.
            person_interest: (), Person -> Tag;
            /// Tag → interested persons.
            interest_person: (), Tag -> Person;
            /// Person → university with class year.
            person_study: i32, Person -> Organisation;
            /// Person → companies with work-from year.
            person_work: i32, Person -> Organisation;
            /// Forum → members with join date.
            forum_member: DateTime, Forum -> Person;
            /// Person → forums joined with join date.
            member_forum: DateTime, Person -> Forum;
            /// Forum → topic tags.
            forum_tag: (), Forum -> Tag;
            /// Tag → forums carrying it.
            tag_forum: (), Tag -> Forum;
            /// Message → tags.
            message_tag: (), Message -> Tag;
            /// Tag → messages carrying it.
            tag_message: (), Tag -> Message;
            /// Person → created messages.
            person_messages: (), Person -> Message;
            /// Forum → contained posts.
            forum_posts: (), Forum -> Message;
            /// Message → direct reply comments.
            message_replies: (), Message -> Message;
            /// Person → liked messages with like date.
            person_likes: DateTime, Person -> Message;
            /// Message → likers with like date.
            message_likes: DateTime, Message -> Person;
            /// Place → child places (continent → countries, country → cities).
            place_children: (), Place -> Place;
            /// City → resident persons.
            city_person: (), Place -> Person;
            /// TagClass → direct subclasses.
            tagclass_children: (), TagClass -> TagClass;
            /// TagClass → tags of exactly that class.
            tagclass_tags: (), TagClass -> Tag;
            /// Person → moderated forums.
            person_moderates: (), Person -> Forum;
        }

        /// Every message index, in ascending `(creation_date, ix)`
        /// order, always: the bulk builder and image decode sort it
        /// once, an insert appends (the update stream is in date
        /// order) or, out of order, goes in at its place, and a delete
        /// keeps the survivors' order.
        message_by_date: CowBox<AppendVec<Ix>>,
    }
}

impl Entity {
    /// Whether the class belongs to the schema's dynamic part: the
    /// generated activity, which bulk loads append to and refreshes
    /// insert into and delete from. The static part (places, tags, tag
    /// classes, organisations) is the dictionaries'.
    pub(crate) fn is_dynamic(self) -> bool {
        matches!(self, Entity::Person | Entity::Forum | Entity::Message)
    }
}

impl Store {
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
        row_named(&self.places.name, name)
            .filter(|&p| self.places.kind[p as usize] == PlaceKind::Country)
            .ok_or_else(|| SnbError::Config(format!("unknown country {name:?}")))
    }

    /// Resolves a tag by name.
    pub fn tag_named(&self, name: &str) -> SnbResult<Ix> {
        row_named(&self.tags.name, name)
            .ok_or_else(|| SnbError::Config(format!("unknown tag {name:?}")))
    }

    /// Resolves a tag class by name.
    pub fn tag_class_named(&self, name: &str) -> SnbResult<Ix> {
        row_named(&self.tag_classes.name, name)
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

    /// Sorts every message into the `(creation_date, ix)` index: the
    /// bulk builder's and image decode's one pass.
    pub fn rebuild_date_index(&mut self) {
        let dates = &self.messages.creation_date;
        let mut perm: AppendVec<Ix> = (0..self.messages.len() as Ix).collect();
        perm.sort_unstable_by_key(|&m| (dates[m as usize], m));
        self.message_by_date.set(perm);
    }

    /// Always true: no store the API hands out has a date index short
    /// of its messages. Kept for the benchmark package, which still
    /// asks.
    pub fn date_index_fresh(&self) -> bool {
        self.message_by_date.len() == self.messages.len()
    }

    /// Message indices created strictly before `t`: a binary-searched
    /// prefix of the date index, in `(creation_date, ix)` order.
    pub fn messages_created_before(&self, t: DateTime) -> &[Ix] {
        &self.message_by_date[..self.messages_dated_before(t)]
    }

    /// Message indices created in the half-open timestamp window
    /// `[lo, hi)`: a binary-searched run of the date index.
    pub fn messages_created_in(&self, lo: DateTime, hi: DateTime) -> &[Ix] {
        let a = self.messages_dated_before(lo);
        &self.message_by_date[a..self.messages_dated_before(hi).max(a)]
    }

    /// How many messages were created strictly before `t`.
    fn messages_dated_before(&self, t: DateTime) -> usize {
        self.message_by_date.partition_point(|&m| self.messages.creation_date[m as usize] < t)
    }

    /// Consistency check used by tests after every write: column
    /// lengths agree, every id map inverts its id column, no dense index
    /// dangles, root posts close over the reply tree (a post is its own
    /// root, a comment shares its parent's), every forward/reverse
    /// adjacency pair holds the same edge
    /// multiset, every adjacency derived from a column agrees with it,
    /// and the date index holds every message once, in `(creation_date,
    /// ix)` order.
    pub fn validate_invariants(&self) -> SnbResult<()> {
        let bad = |what: String| Err(SnbError::Config(what));
        self.check_groups()?;
        let (m, nm, np) = (&self.messages, self.messages.len(), self.persons.len());

        // Root posts close over the reply tree: a post is its own root, a
        // comment shares its parent's root, and every root is a post.
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
        let d = self.adjacency_digests()?;
        let knows_flipped = check_adj("knows", &self.knows, np, np, true)?;

        // Forward/reverse pairs hold the same edge multiset.
        let mirrored = [
            ("knows", d.knows == knows_flipped),
            ("likes", d.person_likes == d.message_likes),
            ("memberships", d.member_forum == d.forum_member),
            ("interests", d.person_interest == d.interest_person),
            ("message tags", d.message_tag == d.tag_message),
            ("forum tags", d.forum_tag == d.tag_forum),
        ];
        if let Some((what, _)) = mirrored.iter().find(|(_, same)| !same) {
            return bad(format!("{what} forward and reverse adjacencies differ"));
        }

        // Adjacencies derived from columns agree with them (each edge
        // digested as `adjacency_digests` takes it: person first for
        // `city_person`).
        let (f, p) = (&self.forums, &self.persons);
        let row = |i: usize| i as Ix;
        let derived = [
            (
                "person_messages",
                d.person_messages,
                column_digest(nm, |i| Some((m.creator[i], row(i)))),
            ),
            (
                "forum_posts",
                d.forum_posts,
                column_digest(nm, |i| m.is_post(row(i)).then(|| (m.forum[i], row(i)))),
            ),
            (
                "message_replies",
                d.message_replies,
                column_digest(nm, |i| (m.reply_of[i] != NONE).then(|| (m.reply_of[i], row(i)))),
            ),
            (
                "person_moderates",
                d.person_moderates,
                column_digest(f.len(), |i| Some((f.moderator[i], row(i)))),
            ),
            ("city_person", d.city_person, column_digest(np, |i| Some((row(i), p.city[i])))),
        ];
        if let Some((what, ..)) = derived.iter().find(|(_, adj, col)| adj != col) {
            return bad(format!("{what} disagrees with the columns it derives from"));
        }

        // The date index: `nm` entries in range, strictly ascending by
        // (creation_date, ix), so each message exactly once.
        let by_date = &self.message_by_date;
        if by_date.len() != nm || by_date.iter().any(|&ix| ix as usize >= nm) {
            return bad(format!("date index has {} entries for {nm} messages", by_date.len()));
        }
        let key = |ix: Ix| (m.creation_date[ix as usize], ix);
        if by_date.windows(2).any(|w| key(w[0]) >= key(w[1])) {
            return bad("date index out of order".into());
        }
        Ok(())
    }
}

/// An error unless `map` maps each `ids[i]` to `i` and holds nothing
/// else.
fn check_id_map(what: &str, map: &IdMap, ids: &[u64]) -> SnbResult<()> {
    if map.len() != ids.len()
        || ids.iter().enumerate().any(|(i, id)| map.get(id) != Some(&(i as Ix)))
    {
        return Err(SnbError::Config(format!("{what} disagrees with its id column")));
    }
    Ok(())
}

/// Folds `adj`'s insert overflow into a fresh CSR if it has any.
fn fold<P: Copy>(adj: &mut CowBox<Adj<P>>) -> bool {
    let overflow = adj.has_overflow();
    if overflow {
        let merged = adj.compact();
        adj.set(merged);
    }
    overflow
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

/// The digest of the payload-free edges a column implies for rows
/// `0..rows`, `edge(i)` giving row `i`'s as digested (`None` = the row
/// has no edge).
fn column_digest(rows: usize, edge: impl Fn(usize) -> Option<(Ix, Ix)>) -> u64 {
    (0..rows).filter_map(|i| edge(i).map(|(a, b)| edge_digest(a, b, ()))).fold(0, u64::wrapping_add)
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

/// The first row of `names` that holds `name`, found by symbol: one
/// dictionary search, then a scan of the (static, at most a few hundred
/// rows) column.
fn row_named(names: &SymCol, name: &str) -> Option<Ix> {
    let sym = names.lookup(name)?;
    names.syms().iter().position(|&s| s == sym).map(|row| row as Ix)
}
