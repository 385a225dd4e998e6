//! Struct-of-arrays column groups for every entity type, each declared
//! once.
//!
//! Entities are addressed by dense `u32` indices assigned at load time;
//! raw 64-bit ids are kept in an `id` column and an [`IdMap`] maps them
//! back (id→index lookups use `FxHashMap`, per the perf guidance for
//! integer keys). `NONE` marks absent optional references.
//!
//! A group's field list is written once, in a `column_group!`
//! declaration below; a reference column also names the class it points
//! into and whether it may be `NONE`. From that list come the struct,
//! its heap-byte sums, and the `Group` passes the rest of the crate
//! runs over whole groups: `shrink_to_fit`, the delete path's row filter
//! and reference remaps, the image section encode and decode, and the
//! length and dangling-reference checks of
//! [`Store::validate_invariants`](crate::Store::validate_invariants).
//! Each pass works column by column through the `Column` trait, which
//! every column type implements. Reads stay plain field access
//! (`messages.creator[i]`), and the row writers in `insert.rs` push
//! each column by hand, because they resolve references. Every feeder
//! of the store (the update stream, the generator, the CsvBasic loader)
//! writes through them, so adding a column means one line here, one
//! push in its row writer, and nothing else.
//!
//! Every column is an [`AppendVec`] or a string column built on them: a
//! store version and the writer's next version share each column's
//! buffer, and an insert batch appends into it in place instead of
//! copying the column.
//!
//! String-valued attributes no longer store `Vec<String>`: dictionary
//! values (names, browsers, languages) live in [`SymCol`] columns of
//! 4-byte symbols into the column's own dictionary, and high-cardinality
//! values (content, IPs, emails) live in [`PackCol`]/[`PackListCol`]
//! byte arenas. Both index as `&str`, so
//! `cols.first_name[i]` reads exactly as it did — only `.clone()`
//! became `.to_string()` at the call sites that need ownership.

use std::ops::Index;
use std::sync::Arc;

use std::io::{self, Read, Write};

use rustc_hash::FxHashMap;
use snb_core::datetime::{Date, DateTime};
use snb_core::model::{Gender, MessageKind, OrganisationKind, PlaceKind};
use snb_core::SnbResult;

use crate::append_vec::AppendVec;
use crate::image::{Scalar, SectionReader, SectionWriter};
use crate::intern::{PackCol, PackListCol, SymCol, SymListCol};
use crate::store::Entity;

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

/// One column of a column group, whatever it stores: what every
/// whole-group pass (filter, shrink, string bytes, image section, checks)
/// needs of it. Reads stay the column's own `Index` and slice access.
pub(crate) trait Column: Default {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Keeps only the rows whose index passes `keep`, in order.
    fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool + Copy);

    /// Releases push-growth slack after an append-once bulk build.
    fn shrink_to_fit(&mut self);

    /// `(heap, String-per-row baseline)` bytes for a string column,
    /// `(0, 0)` for any other.
    fn string_bytes(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Writes the column's image frames (see [`crate::image`]).
    fn put(&self, w: &mut SectionWriter<'_, impl Write>) -> io::Result<()>;

    /// Reads what `Column::put` wrote.
    fn get(r: &mut SectionReader<impl Read>) -> SnbResult<Self>;

    /// Checks the column's own form (a dictionary-coded column's
    /// dictionary); nothing to check for any other.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Whether two columns share their buffers.
    #[cfg(test)]
    fn shares_buffers(&self, other: &Self) -> bool;
}

/// A column of plain values; the element type picks the image encoding
/// (`Scalar`).
impl<T: Scalar> Column for AppendVec<T> {
    fn len(&self) -> usize {
        AppendVec::len(self)
    }

    fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool + Copy) {
        AppendVec::filter_in_place(self, keep);
    }

    fn shrink_to_fit(&mut self) {
        AppendVec::shrink_to_fit(self);
    }

    fn put(&self, w: &mut SectionWriter<'_, impl Write>) -> io::Result<()> {
        w.frame(|out| crate::image::put_scalars(out, self))
    }

    fn get(r: &mut SectionReader<impl Read>) -> SnbResult<Self> {
        r.frame(crate::image::get_scalars)
    }

    #[cfg(test)]
    fn shares_buffers(&self, other: &Self) -> bool {
        AppendVec::ptr_eq(self, other)
    }
}

/// The string columns keep their own methods; their image forms are
/// `image.rs`'s `put_*` / `get_*` pairs, and a dictionary-coded column
/// names its form check.
macro_rules! string_column {
    ($($ty:ident: $put:ident, $get:ident $(, $check:ident)?;)*) => {$(
        impl Column for $ty {
            fn len(&self) -> usize {
                $ty::len(self)
            }

            fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool + Copy) {
                $ty::filter_in_place(self, keep);
            }

            fn shrink_to_fit(&mut self) {
                $ty::shrink_to_fit(self);
            }

            fn string_bytes(&self) -> (usize, usize) {
                (self.heap_bytes(), self.string_baseline_bytes())
            }

            fn put(&self, w: &mut SectionWriter<'_, impl Write>) -> io::Result<()> {
                crate::image::$put(w, self)
            }

            fn get(r: &mut SectionReader<impl Read>) -> SnbResult<Self> {
                crate::image::$get(r)
            }

            $(
                fn check(&self) -> Result<(), String> {
                    $ty::$check(self)
                }
            )?

            #[cfg(test)]
            fn shares_buffers(&self, other: &Self) -> bool {
                $ty::shares_buffers(self, other)
            }
        }
    )*};
}

string_column! {
    SymCol: put_symcol, get_symcol, check;
    PackCol: put_packcol, get_packcol;
    SymListCol: put_symlist, get_symlist, check;
    PackListCol: put_packlist, get_packlist;
}

/// What the passes over a store need of one column group; the
/// `column_group!` declaration implements it.
pub(crate) trait Group: Clone + Default {
    /// The classes the group's reference columns point into.
    const TARGETS: &'static [Entity];

    /// The raw-id column, which its id map inverts.
    fn ids(&self) -> &AppendVec<u64>;

    /// Every column's `Column::shrink_to_fit`.
    fn shrink_to_fit(&mut self);

    /// Keeps only the rows whose index passes `keep`, in every column.
    fn filter_rows(&mut self, keep: impl Fn(usize) -> bool + Copy);

    /// Hands each reference column to `remap` with the class it points
    /// into.
    fn remap_refs(&mut self, remap: impl FnMut(Entity, &mut AppendVec<Ix>));

    /// Writes every column's image frames, in declaration order.
    fn encode(&self, w: &mut SectionWriter<'_, impl Write>) -> io::Result<()>;

    /// Reads what `Group::encode` wrote.
    fn decode(r: &mut SectionReader<impl Read>) -> SnbResult<Self>;

    /// Every column has one row per id and passes its own form check,
    /// then no reference dangles: each points below `rows` of its class,
    /// or is `NONE` where the declaration allows it. The lengths come
    /// first so that the reference check never indexes past a short
    /// column.
    fn check(&self, rows: impl Fn(Entity) -> usize) -> Result<(), String>;

    /// The columns whose buffers `other`'s do not share.
    #[cfg(test)]
    fn unshared_columns(&self, other: &Self) -> Vec<&'static str>;
}

/// An error if a reference in `col` points at or past `rows` and is not
/// the `none` sentinel the declaration allows.
fn check_ref(what: &str, col: &[Ix], rows: usize, none: Option<Ix>) -> Result<(), String> {
    match col.iter().find(|&&ix| ix as usize >= rows && Some(ix) != none) {
        Some(ix) => Err(format!("{what} {ix} dangles ({rows} rows)")),
        None => Ok(()),
    }
}

/// Declares one column group: its struct, and the `Group` passes
/// derived from the field list. A reference column names the class it
/// points into (`creator: AppendVec<Ix> => Person`) and, when it may be
/// absent, the sentinel (`=> Message | NONE`). Every group has an `id`
/// column; columns are written to the image in the order declared.
macro_rules! column_group {
    (
        $(#[$doc:meta])*
        $name:ident {
            $(
                $(#[$field_doc:meta])*
                $field:ident: $ty:ty $(=> $target:ident $(| $none:ident)?)?,
            )*
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Default)]
        pub struct $name {
            $( $(#[$field_doc])* pub $field: $ty, )*
        }

        impl $name {
            /// Number of rows.
            pub fn len(&self) -> usize {
                self.id.len()
            }

            /// True when the group holds no rows.
            pub fn is_empty(&self) -> bool {
                self.id.is_empty()
            }

            /// `(packed, string_baseline)` heap bytes of the string columns.
            pub fn string_bytes(&self) -> (usize, usize) {
                [$(Column::string_bytes(&self.$field)),*]
                    .iter()
                    .fold((0, 0), |(h, b), &(ch, cb)| (h + ch, b + cb))
            }
        }

        impl Group for $name {
            const TARGETS: &'static [Entity] = &[$($(Entity::$target,)?)*];

            fn ids(&self) -> &AppendVec<u64> {
                &self.id
            }

            fn shrink_to_fit(&mut self) {
                $( Column::shrink_to_fit(&mut self.$field); )*
            }

            fn filter_rows(&mut self, keep: impl Fn(usize) -> bool + Copy) {
                $( Column::filter_in_place(&mut self.$field, keep); )*
            }

            fn remap_refs(&mut self, mut remap: impl FnMut(Entity, &mut AppendVec<Ix>)) {
                $($( remap(Entity::$target, &mut self.$field); )?)*
            }

            fn encode(&self, w: &mut SectionWriter<'_, impl Write>) -> io::Result<()> {
                $( Column::put(&self.$field, w)?; )*
                Ok(())
            }

            fn decode(r: &mut SectionReader<impl Read>) -> SnbResult<Self> {
                Ok($name { $( $field: Column::get(r)?, )* })
            }

            fn check(&self, rows: impl Fn(Entity) -> usize) -> Result<(), String> {
                let n = self.id.len();
                $(
                    let len = Column::len(&self.$field);
                    if len != n {
                        return Err(format!("{} has {len} rows for {n} ids", stringify!($field)));
                    }
                    Column::check(&self.$field)
                        .map_err(|e| format!("{}: {e}", stringify!($field)))?;
                )*
                $($(
                    let none: Option<Ix> = None $(.or(Some($none)))?;
                    check_ref(stringify!($field), &self.$field, rows(Entity::$target), none)?;
                )?)*
                Ok(())
            }

            #[cfg(test)]
            fn unshared_columns(&self, other: &Self) -> Vec<&'static str> {
                let mut out = Vec::new();
                $(
                    if !Column::shares_buffers(&self.$field, &other.$field) {
                        out.push(stringify!($field));
                    }
                )*
                out
            }
        }
    };
}

column_group! {
    /// Person columns (spec Table 2.5).
    PersonCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// First names (dictionary-coded — drawn from the name pools).
        first_name: SymCol,
        /// Surnames (dictionary-coded).
        last_name: SymCol,
        /// Genders.
        gender: AppendVec<Gender>,
        /// Birthdays.
        birthday: AppendVec<Date>,
        /// Join dates.
        creation_date: AppendVec<DateTime>,
        /// Registration IPs (packed — high cardinality).
        location_ip: PackCol,
        /// Browser names (dictionary-coded — tiny dictionary).
        browser: SymCol,
        /// Home city (place index).
        city: AppendVec<Ix> => Place,
        /// Email addresses (multi-valued, packed — unique per person).
        emails: PackListCol,
        /// Spoken languages (multi-valued, dictionary-coded).
        speaks: SymListCol,
    }
}

column_group! {
    /// Forum columns (spec Table 2.2 + moderator).
    ForumCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// Titles ("Wall of …" / "Album …" / "Group for …") — packed,
        /// unique per forum.
        title: PackCol,
        /// Creation timestamps.
        creation_date: AppendVec<DateTime>,
        /// Moderator (person index).
        moderator: AppendVec<Ix> => Person,
    }
}

column_group! {
    /// Message columns (Posts and Comments share the table; `kind`
    /// discriminates — spec Tables 2.3 / 2.7).
    MessageCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// Post or Comment.
        kind: AppendVec<MessageKind>,
        /// Creation timestamps.
        creation_date: AppendVec<DateTime>,
        /// Author (person index).
        creator: AppendVec<Ix> => Person,
        /// Country the message was issued from (place index).
        country: AppendVec<Ix> => Place,
        /// Browser names (dictionary-coded).
        browser: SymCol,
        /// Origin IPs (packed).
        location_ip: PackCol,
        /// Content (empty iff image post) — packed.
        content: PackCol,
        /// Content length.
        length: AppendVec<u32>,
        /// Image file name (empty string when absent) — packed.
        image_file: PackCol,
        /// Language (Posts; empty string when absent) — dictionary-coded.
        language: SymCol,
        /// Containing forum (Posts; `NONE` for comments).
        forum: AppendVec<Ix> => Forum | NONE,
        /// Replied-to message (Comments; `NONE` for posts).
        reply_of: AppendVec<Ix> => Message | NONE,
        /// Root post of the thread (self for posts).
        root_post: AppendVec<Ix> => Message,
    }
}

impl MessageCols {
    /// Whether message `m` is a Post.
    pub fn is_post(&self, m: Ix) -> bool {
        self.kind[m as usize] == MessageKind::Post
    }
}

column_group! {
    /// Place columns.
    PlaceCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// Names (dictionary-coded).
        name: SymCol,
        /// City / country / continent.
        kind: AppendVec<PlaceKind>,
        /// `isPartOf` parent (`NONE` for continents).
        part_of: AppendVec<Ix> => Place | NONE,
    }
}

column_group! {
    /// Tag columns.
    TagCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// Names (dictionary-coded).
        name: SymCol,
        /// `hasType` tag class (index).
        class: AppendVec<Ix> => TagClass,
    }
}

column_group! {
    /// TagClass columns.
    TagClassCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// Names (dictionary-coded).
        name: SymCol,
        /// `isSubclassOf` parent (`NONE` for the root).
        parent: AppendVec<Ix> => TagClass | NONE,
    }
}

column_group! {
    /// Organisation columns.
    OrganisationCols {
        /// Raw ids.
        id: AppendVec<u64>,
        /// Names (dictionary-coded).
        name: SymCol,
        /// University or company.
        kind: AppendVec<OrganisationKind>,
        /// Location (city for universities, country for companies).
        place: AppendVec<Ix> => Place,
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
