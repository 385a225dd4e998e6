//! Struct-of-arrays column groups for every entity type.
//!
//! Entities are addressed by dense `u32` indices assigned at load time;
//! raw 64-bit ids are kept in an `id` column and an [`IdMap`] maps them
//! back (id→index lookups use `FxHashMap`, per the perf guidance for
//! integer keys). `NONE` marks absent optional references.
//!
//! Every column is an [`AppendVec`]: a store version and the writer's
//! next version share each column's buffer, and an insert batch appends
//! into it in place instead of copying the column.
//!
//! String-valued attributes no longer store `Vec<String>`: dictionary
//! values (names, browsers, languages) live in [`SymCol`] columns of
//! 4-byte symbols into the global [`interner`](crate::intern::interner),
//! and high-cardinality values (content, IPs, emails) live in
//! [`PackCol`]/[`PackListCol`] byte arenas. Both index as `&str`, so
//! `cols.first_name[i]` reads exactly as it did — only `.clone()`
//! became `.to_string()` at the call sites that need ownership.

use std::ops::Index;
use std::sync::Arc;

use rustc_hash::FxHashMap;
use snb_core::datetime::{Date, DateTime};
use snb_core::model::{Gender, MessageKind, OrganisationKind, PlaceKind};

use crate::append_vec::AppendVec;
use crate::intern::{PackCol, PackListCol, SymCol, SymListCol};

/// Dense entity index.
pub type Ix = u32;

/// Sentinel for absent optional references.
pub const NONE: Ix = u32::MAX;

/// An [`IdMap`] folds its delta into a fresh base once the delta holds
/// more than one entry per `FOLD_RATIO` base entries.
const FOLD_RATIO: usize = 8;

/// Raw id → dense index, as a shared base map plus a small owned delta.
///
/// A clone shares the base and copies the delta, so a write batch that
/// inserts a few ids into a big map copies a few entries, not the map.
/// A lookup probes the delta first, then the base. Once the delta
/// outgrows an eighth of the base it folds into a fresh base (in place
/// when nobody else holds the base), which keeps the delta — and so the
/// per-batch copy — small. A map nobody shares inserts straight into
/// its base.
#[derive(Clone, Debug, Default)]
pub struct IdMap {
    base: Arc<FxHashMap<u64, Ix>>,
    delta: FxHashMap<u64, Ix>,
}

impl IdMap {
    /// The map of an id column: `ids[i]` → `i`.
    pub fn of_column(ids: &[u64]) -> IdMap {
        ids.iter().enumerate().map(|(i, &id)| (id, i as Ix)).collect()
    }

    /// The dense index of `id`, if known.
    #[inline]
    pub fn get(&self, id: &u64) -> Option<&Ix> {
        if !self.delta.is_empty() {
            if let Some(ix) = self.delta.get(id) {
                return Some(ix);
            }
        }
        self.base.get(id)
    }

    /// Whether `id` is known.
    pub fn contains_key(&self, id: &u64) -> bool {
        self.get(id).is_some()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// True when no ids are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps `id` to `ix`, replacing an earlier mapping of `id`. An id
    /// the base already holds is replaced in the base (copying a shared
    /// base), so the delta never shadows the base and `len` stays exact.
    pub fn insert(&mut self, id: u64, ix: Ix) {
        let alone = self.delta.is_empty() && Arc::get_mut(&mut self.base).is_some();
        if alone || self.base.contains_key(&id) {
            Arc::make_mut(&mut self.base).insert(id, ix);
            return;
        }
        self.delta.insert(id, ix);
        if self.delta.len() * FOLD_RATIO > self.base.len() {
            let delta = std::mem::take(&mut self.delta);
            Arc::make_mut(&mut self.base).extend(delta);
        }
    }

    /// Whether two maps share one base — the observable property the
    /// sharing tests assert on.
    #[cfg(test)]
    pub(crate) fn shares_base(a: &IdMap, b: &IdMap) -> bool {
        Arc::ptr_eq(&a.base, &b.base)
    }
}

impl Index<&u64> for IdMap {
    type Output = Ix;
    fn index(&self, id: &u64) -> &Ix {
        self.get(id).expect("IdMap: unknown id")
    }
}

impl FromIterator<(u64, Ix)> for IdMap {
    fn from_iter<I: IntoIterator<Item = (u64, Ix)>>(iter: I) -> IdMap {
        IdMap { base: Arc::new(iter.into_iter().collect()), delta: FxHashMap::default() }
    }
}

/// Person columns (spec Table 2.5).
#[derive(Clone, Default)]
pub struct PersonCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// First names (interned — drawn from the name dictionaries).
    pub first_name: SymCol,
    /// Surnames (interned).
    pub last_name: SymCol,
    /// Genders.
    pub gender: AppendVec<Gender>,
    /// Birthdays.
    pub birthday: AppendVec<Date>,
    /// Join dates.
    pub creation_date: AppendVec<DateTime>,
    /// Registration IPs (packed — high cardinality).
    pub location_ip: PackCol,
    /// Browser names (interned — tiny dictionary).
    pub browser: SymCol,
    /// Home city (place index).
    pub city: AppendVec<Ix>,
    /// Email addresses (multi-valued, packed — unique per person).
    pub emails: PackListCol,
    /// Spoken languages (multi-valued, interned).
    pub speaks: SymListCol,
}

impl PersonCols {
    /// Number of persons.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no persons are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// `(packed, string_baseline)` heap bytes of the string columns.
    pub fn string_bytes(&self) -> (usize, usize) {
        (
            self.first_name.heap_bytes()
                + self.last_name.heap_bytes()
                + self.location_ip.heap_bytes()
                + self.browser.heap_bytes()
                + self.emails.heap_bytes()
                + self.speaks.heap_bytes(),
            self.first_name.string_baseline_bytes()
                + self.last_name.string_baseline_bytes()
                + self.location_ip.string_baseline_bytes()
                + self.browser.string_baseline_bytes()
                + self.emails.string_baseline_bytes()
                + self.speaks.string_baseline_bytes(),
        )
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.id.shrink_to_fit();
        self.first_name.shrink_to_fit();
        self.last_name.shrink_to_fit();
        self.gender.shrink_to_fit();
        self.birthday.shrink_to_fit();
        self.creation_date.shrink_to_fit();
        self.location_ip.shrink_to_fit();
        self.browser.shrink_to_fit();
        self.city.shrink_to_fit();
        self.emails.shrink_to_fit();
        self.speaks.shrink_to_fit();
    }
}

/// Forum columns (spec Table 2.2 + moderator).
#[derive(Clone, Default)]
pub struct ForumCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// Titles ("Wall of …" / "Album …" / "Group for …") — packed,
    /// unique per forum.
    pub title: PackCol,
    /// Creation timestamps.
    pub creation_date: AppendVec<DateTime>,
    /// Moderator (person index).
    pub moderator: AppendVec<Ix>,
}

impl ForumCols {
    /// Number of forums.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no forums are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// `(packed, string_baseline)` heap bytes of the string columns.
    pub fn string_bytes(&self) -> (usize, usize) {
        (self.title.heap_bytes(), self.title.string_baseline_bytes())
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.id.shrink_to_fit();
        self.title.shrink_to_fit();
        self.creation_date.shrink_to_fit();
        self.moderator.shrink_to_fit();
    }
}

/// Message columns (Posts and Comments share the table; `kind`
/// discriminates — spec Tables 2.3 / 2.7).
#[derive(Clone, Default)]
pub struct MessageCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// Post or Comment.
    pub kind: AppendVec<MessageKind>,
    /// Creation timestamps.
    pub creation_date: AppendVec<DateTime>,
    /// Author (person index).
    pub creator: AppendVec<Ix>,
    /// Country the message was issued from (place index).
    pub country: AppendVec<Ix>,
    /// Browser names (interned).
    pub browser: SymCol,
    /// Origin IPs (packed).
    pub location_ip: PackCol,
    /// Content (empty iff image post) — packed.
    pub content: PackCol,
    /// Content length.
    pub length: AppendVec<u32>,
    /// Image file name (empty string when absent) — packed.
    pub image_file: PackCol,
    /// Language (Posts; empty string when absent) — interned.
    pub language: SymCol,
    /// Containing forum (Posts; `NONE` for comments).
    pub forum: AppendVec<Ix>,
    /// Replied-to message (Comments; `NONE` for posts).
    pub reply_of: AppendVec<Ix>,
    /// Root post of the thread (self for posts).
    pub root_post: AppendVec<Ix>,
}

impl MessageCols {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no messages are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Whether message `m` is a Post.
    pub fn is_post(&self, m: Ix) -> bool {
        self.kind[m as usize] == MessageKind::Post
    }

    /// `(packed, string_baseline)` heap bytes of the string columns.
    pub fn string_bytes(&self) -> (usize, usize) {
        (
            self.browser.heap_bytes()
                + self.location_ip.heap_bytes()
                + self.content.heap_bytes()
                + self.image_file.heap_bytes()
                + self.language.heap_bytes(),
            self.browser.string_baseline_bytes()
                + self.location_ip.string_baseline_bytes()
                + self.content.string_baseline_bytes()
                + self.image_file.string_baseline_bytes()
                + self.language.string_baseline_bytes(),
        )
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.id.shrink_to_fit();
        self.kind.shrink_to_fit();
        self.creation_date.shrink_to_fit();
        self.creator.shrink_to_fit();
        self.country.shrink_to_fit();
        self.browser.shrink_to_fit();
        self.location_ip.shrink_to_fit();
        self.content.shrink_to_fit();
        self.length.shrink_to_fit();
        self.image_file.shrink_to_fit();
        self.language.shrink_to_fit();
        self.forum.shrink_to_fit();
        self.reply_of.shrink_to_fit();
        self.root_post.shrink_to_fit();
    }
}

/// Place columns.
#[derive(Clone, Default)]
pub struct PlaceCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// Names (interned).
    pub name: SymCol,
    /// City / country / continent.
    pub kind: AppendVec<PlaceKind>,
    /// `isPartOf` parent (`NONE` for continents).
    pub part_of: AppendVec<Ix>,
}

impl PlaceCols {
    /// Number of places.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no places are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }
}

/// Tag columns.
#[derive(Clone, Default)]
pub struct TagCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// Names (interned).
    pub name: SymCol,
    /// `hasType` tag class (index).
    pub class: AppendVec<Ix>,
}

impl TagCols {
    /// Number of tags.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no tags are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }
}

/// TagClass columns.
#[derive(Clone, Default)]
pub struct TagClassCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// Names (interned).
    pub name: SymCol,
    /// `isSubclassOf` parent (`NONE` for the root).
    pub parent: AppendVec<Ix>,
}

impl TagClassCols {
    /// Number of tag classes.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no tag classes are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }
}

/// Organisation columns.
#[derive(Clone, Default)]
pub struct OrganisationCols {
    /// Raw ids.
    pub id: AppendVec<u64>,
    /// Names (interned).
    pub name: SymCol,
    /// University or company.
    pub kind: AppendVec<OrganisationKind>,
    /// Location (city for universities, country for companies).
    pub place: AppendVec<Ix>,
}

impl OrganisationCols {
    /// Number of organisations.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when no organisations are loaded.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_sentinel_is_max() {
        assert_eq!(NONE, u32::MAX);
    }

    #[test]
    fn id_map_delta_folds_at_an_eighth_and_overwrites_like_a_hash_map() {
        let mut map = IdMap::of_column(&(0..64).collect::<Vec<u64>>());
        let pinned = map.clone();
        // Up to 64 / 8 ids stay in the delta, beside the shared base.
        for id in 100..108 {
            map.insert(id, id as Ix);
        }
        assert!(IdMap::shares_base(&map, &pinned));
        map.insert(108, 108);
        assert!(!IdMap::shares_base(&map, &pinned), "the ninth id folds the delta");
        map.insert(5, 500);
        map.insert(100, 1000);
        assert_eq!((map[&5], map[&100], map[&108]), (500, 1000, 108));
        assert_eq!((map.len(), pinned.len()), (73, 64));
        assert_eq!((pinned[&5], pinned.get(&100)), (5, None));
    }

    #[test]
    fn message_kind_helper() {
        let mut m = MessageCols::default();
        m.id.push(1);
        m.kind.push(MessageKind::Post);
        m.id.push(2);
        m.kind.push(MessageKind::Comment);
        assert!(m.is_post(0));
        assert!(!m.is_post(1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn string_columns_index_as_str() {
        let mut p = PersonCols::default();
        p.id.push(7);
        p.first_name.push("Ada");
        p.last_name.push("Lovelace");
        p.location_ip.push("10.0.0.1");
        p.browser.push("Firefox");
        p.emails.push_row(["ada@example.org"]);
        p.speaks.push_row(["en"]);
        assert_eq!(&p.first_name[0], "Ada");
        assert_eq!(&p.location_ip[0], "10.0.0.1");
        assert_eq!(p.emails.row_vec(0), vec!["ada@example.org"]);
        let (packed, baseline) = p.string_bytes();
        assert!(packed > 0 && baseline > packed);
    }

    #[test]
    fn packed_person_strings_at_datagen_scale() {
        let config = snb_datagen::GeneratorConfig::for_scale_name("0.001").unwrap();
        let streamed = crate::store_for_config(&config);
        let world = snb_datagen::dictionaries::StaticWorld::build(config.seed);
        let materialised = crate::build_store(&snb_datagen::generate(&config), &world, None);
        let (packed, baseline) = streamed.persons.string_bytes();
        assert_eq!(
            (packed, baseline),
            materialised.persons.string_bytes(),
            "the streamed and vector-fed stores must pack person strings alike"
        );
        assert!(
            packed * 2 <= baseline,
            "packed person strings are {packed} B, not half the String-per-row {baseline} B"
        );
        let persons = streamed.persons.len();
        assert!(
            packed <= 120 * persons,
            "{packed} B of person strings for {persons} persons (ceiling 120 B per person)"
        );
    }
}
