//! Dictionary-coded and packed string columns.
//!
//! At the scale factors the SNB spec targets (arXiv 2001.02299: SF1 is
//! ~10k persons and ~3.5M messages, the ladder goes up from there) the
//! store's ~16 `String`-typed columns dominate memory: every row pays a
//! 24-byte `String` header plus a separate heap allocation, even though
//! most values come from tiny dictionaries (names, browsers, languages)
//! or are immutable once loaded (IPs, content). This module replaces
//! them with two representations:
//!
//! * [`SymCol`] — a `u32` symbol per row plus the column's own
//!   dictionary, so a dictionary value costs 4 bytes per row no matter
//!   how often it repeats.
//! * [`PackCol`] — a byte arena plus `u32` offsets for high-cardinality
//!   columns (message content, IPs) where a dictionary would only grow:
//!   4 bytes per row of overhead instead of 24+.
//!
//! Both index as `&str` (`col[i]`), so cold callers compile against
//! them exactly as they did against `Vec<String>`. Multi-valued columns
//! keep all their values in one such column plus row offsets
//! ([`SymListCol`] / [`PackListCol`]). The buffers are [`AppendVec`]s,
//! so a store version and the writer's next version share them and an
//! insert batch appends in place.
//!
//! A dictionary lists exactly the strings its column's rows use, each
//! once, in the order of first use, which is also the store image's
//! form. `push` appends a string at its first use; `filter_in_place`,
//! the only path that removes rows, renumbers the survivors and drops
//! the strings no surviving row uses, so a delete gives its strings
//! back. Equal columns are therefore equal values. A store version and
//! the writer's clone share each dictionary, and a write batch copies it
//! only when it brings a string the column has not seen.
//!
//! Scans do not go through `&str` at all: a string predicate resolves
//! its parameter to a [`Sym`] once per query with [`SymCol::lookup`]
//! (which never inserts — an unknown string matches nothing) and
//! compares [`SymCol::sym`] values; emptiness and length of a packed row
//! come from the offsets ([`PackCol::row_is_empty`] /
//! [`PackCol::row_len`]) without touching the bytes. When a string is
//! needed, [`SymCol::get`] slices the dictionary: no lock, no UTF-8
//! check.
//!
//! A `PackCol` arena is capped at 4 GiB per column by its `u32` offsets
//! (one column of one entity type — far beyond what a single in-memory
//! store holds).

use std::ops::{Index, Range};
use std::sync::Arc;

use crate::append_vec::AppendVec;

/// A symbol: an index into its column's dictionary.
pub type Sym = u32;

/// The strings of one column, each once, in the order the rows first
/// use them: their bytes back to back in `text`, symbol `s` ending at
/// `ends[s]`, and `sorted` listing the symbols in string order for
/// lookups to binary-search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Dict {
    text: String,
    ends: Vec<u32>,
    sorted: Vec<Sym>,
}

/// What to reserve for `extra` more elements in a buffer holding `len`
/// of `cap`: exact at first, then doubling, so a dictionary of a few
/// short strings costs about what it holds.
fn room(len: usize, cap: usize, extra: usize) -> usize {
    if cap - len >= extra {
        0
    } else {
        len.max(extra)
    }
}

impl Dict {
    /// The byte range of `sym` in `text`.
    fn range(&self, sym: Sym) -> Range<usize> {
        let s = sym as usize;
        (if s == 0 { 0 } else { self.ends[s - 1] as usize })..self.ends[s] as usize
    }

    /// The string of `sym`.
    fn get(&self, sym: Sym) -> &str {
        &self.text[self.range(sym)]
    }

    /// `s`'s position in `sorted`, or where it would go. Strings order
    /// as their bytes do, so the search compares bytes and skips the
    /// char-boundary checks of slicing a `str`.
    fn find(&self, s: &str) -> Result<usize, usize> {
        let text = self.text.as_bytes();
        self.sorted.binary_search_by(|&sym| text[self.range(sym)].cmp(s.as_bytes()))
    }

    /// Appends `s` as the next symbol, leaving `sorted` to the caller.
    fn append(&mut self, s: &str) -> Sym {
        self.text.reserve_exact(room(self.text.len(), self.text.capacity(), s.len()));
        self.text.push_str(s);
        self.ends.reserve_exact(room(self.ends.len(), self.ends.capacity(), 1));
        self.ends.push(u32::try_from(self.text.len()).expect("dictionary overflow (4 GiB)"));
        (self.ends.len() - 1) as Sym
    }

    /// Appends `s`, whose place in `sorted` is `at`.
    fn insert(&mut self, s: &str, at: usize) -> Sym {
        let sym = self.append(s);
        self.sorted.reserve_exact(room(self.sorted.len(), self.sorted.capacity(), 1));
        self.sorted.insert(at, sym);
        sym
    }

    /// A dictionary of `strings` in the order given (a repeated string
    /// fails [`Dict::check`]).
    fn of_strings<'a>(strings: impl IntoIterator<Item = &'a str>) -> Dict {
        let mut dict = Dict::default();
        for s in strings {
            dict.append(s);
        }
        let mut sorted: Vec<Sym> = (0..dict.ends.len() as Sym).collect();
        sorted.sort_unstable_by(|&a, &b| dict.get(a).cmp(dict.get(b)));
        Dict { sorted, ..dict }
    }

    /// Checks the canonical form of a dictionary and the symbols `syms`
    /// using it: the strings are distinct, every symbol is in range,
    /// symbols appear in first-use order, and every string is used.
    fn check(&self, syms: &[Sym]) -> Result<(), String> {
        if let Some(w) = self.sorted.windows(2).find(|w| self.get(w[0]) >= self.get(w[1])) {
            return Err(format!("the dictionary repeats {:?}", self.get(w[1])));
        }
        let (len, mut used) = (self.ends.len(), 0);
        for &sym in syms {
            let sym = sym as usize;
            if sym >= len {
                return Err(format!("symbol {sym} is out of range ({len} strings)"));
            } else if sym > used {
                return Err(format!("symbol {sym} is out of first-use order ({used} used)"));
            }
            used += usize::from(sym == used);
        }
        match used < len {
            true => Err(format!("dictionary entry {used} of {len} is used by no row")),
            false => Ok(()),
        }
    }
}

/// Estimated heap footprint of a `Vec<String>` holding the same rows —
/// the String-column baseline the loading benchmark compares against:
/// 24 bytes of header per row (inline in the vec) plus each string's
/// own allocation.
fn string_baseline(rows: usize, content_bytes: usize) -> usize {
    rows * std::mem::size_of::<String>() + content_bytes
}

/// A dictionary-coded string column: one `u32` symbol per row into the
/// column's own dictionary, which a version shares with its clones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymCol {
    syms: AppendVec<Sym>,
    dict: Arc<Dict>,
}

impl SymCol {
    /// Appends a row, adding the value to the dictionary at its first
    /// use (copying a dictionary another version shares).
    pub fn push(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        let sym = match self.dict.find(s) {
            Ok(at) => self.dict.sorted[at],
            Err(at) => Arc::make_mut(&mut self.dict).insert(s, at),
        };
        self.syms.push(sym);
    }

    /// The column of an image: its dictionary and one symbol per row,
    /// refused unless they are in the canonical form.
    pub(crate) fn from_parts<'a>(
        strings: impl IntoIterator<Item = &'a str>,
        syms: AppendVec<Sym>,
    ) -> Result<SymCol, String> {
        let col = SymCol { syms, dict: Arc::new(Dict::of_strings(strings)) };
        col.check().map(|()| col)
    }

    /// The symbol at row `i` — what scan predicates compare.
    pub fn sym(&self, i: usize) -> Sym {
        self.syms[i]
    }

    /// The symbol of `s` in this column if some row holds it; never
    /// inserts. This is the entry point for client-supplied strings
    /// (query parameters): a string absent from the dictionary occurs in
    /// no row, and looking it up must not grow the dictionary.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.dict.find(s).ok().map(|at| self.dict.sorted[at])
    }

    /// The value at row `i`, borrowed from the column's dictionary.
    pub fn get(&self, i: usize) -> &str {
        self.dict.get(self.syms[i])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Iterates the values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.syms.iter().map(|&s| self.dict.get(s))
    }

    /// The dictionary: each string the rows use, once, in first-use
    /// order.
    pub fn dictionary(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.dict.ends.len() as Sym).map(|s| self.dict.get(s))
    }

    /// The raw symbol slice (image serialization).
    pub fn syms(&self) -> &[Sym] {
        &self.syms
    }

    /// Keeps only rows whose index passes `keep` (delete rebuilds), then
    /// renumbers the survivors in first-use order and drops the strings
    /// none of them uses.
    pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
        self.syms.filter_in_place(keep);
        let (old, mut dict) = (&self.dict, Dict::default());
        let mut renumber = vec![Sym::MAX; old.ends.len()];
        for sym in self.syms.iter_mut() {
            if renumber[*sym as usize] == Sym::MAX {
                renumber[*sym as usize] = dict.append(old.get(*sym));
            }
            *sym = renumber[*sym as usize];
        }
        let sorted = old.sorted.iter().map(|&s| renumber[s as usize]);
        dict.sorted = sorted.filter(|&s| s != Sym::MAX).collect();
        self.dict = Arc::new(dict);
    }

    /// Checks the dictionary's canonical form (see [`Dict::check`]).
    pub(crate) fn check(&self) -> Result<(), String> {
        self.dict.check(&self.syms)
    }

    /// Whether two columns share their symbol buffer and dictionary (see
    /// [`AppendVec::ptr_eq`]).
    #[cfg(test)]
    pub(crate) fn shares_buffers(&self, other: &SymCol) -> bool {
        AppendVec::ptr_eq(&self.syms, &other.syms) && Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.syms.shrink_to_fit();
        if let Some(dict) = Arc::get_mut(&mut self.dict) {
            dict.text.shrink_to_fit();
            dict.ends.shrink_to_fit();
            dict.sorted.shrink_to_fit();
        }
    }

    /// Heap bytes held by this column, its dictionary's three buffers
    /// included (as for every column, capacities; no header).
    pub fn heap_bytes(&self) -> usize {
        let (syms, dict) = (self.syms.capacity(), &self.dict);
        (syms + dict.ends.capacity() + dict.sorted.capacity()) * std::mem::size_of::<u32>()
            + dict.text.capacity()
    }

    /// Estimated heap bytes of the `Vec<String>` this column replaced.
    pub fn string_baseline_bytes(&self) -> usize {
        string_baseline(self.syms.len(), self.iter().map(str::len).sum())
    }
}

impl Index<usize> for SymCol {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl<S: AsRef<str>> FromIterator<S> for SymCol {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> SymCol {
        let mut col = SymCol::default();
        for s in iter {
            col.push(s);
        }
        col
    }
}

/// A packed string column: contiguous byte arena + `u32` end offsets.
/// For high-cardinality values (content, IPs) where a dictionary would
/// not deduplicate anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackCol {
    bytes: AppendVec<u8>,
    /// `ends[i]` is the exclusive end of row `i`; row `i` starts at
    /// `ends[i-1]` (0 for the first row).
    ends: AppendVec<u32>,
}

impl PackCol {
    /// Appends a row.
    pub fn push(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        self.bytes.extend_from_slice(s.as_bytes());
        self.ends.push(u32::try_from(self.bytes.len()).expect("PackCol arena overflow (4 GiB)"));
    }

    fn range(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (start, self.ends[i] as usize)
    }

    /// Byte length of row `i`, from the offsets alone.
    pub fn row_len(&self, i: usize) -> usize {
        let (start, end) = self.range(i);
        end - start
    }

    /// Whether row `i` is the empty string, from the offsets alone —
    /// the scan-path form of `col[i].is_empty()`, which would validate
    /// the row's UTF-8 first.
    pub fn row_is_empty(&self, i: usize) -> bool {
        self.row_len(i) == 0
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates the values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| &self[i])
    }

    /// Keeps only rows whose index passes `keep`, rebuilding the arena
    /// so deleted rows free their bytes. Surviving rows are copied as
    /// byte ranges; they were validated when pushed.
    pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
        let mut next = PackCol::default();
        for i in (0..self.len()).filter(|&i| keep(i)) {
            let (start, end) = self.range(i);
            next.bytes.extend_from_slice(&self.bytes[start..end]);
            next.ends.push(next.bytes.len() as u32);
        }
        *self = next;
    }

    /// Whether two columns share their buffers (see
    /// [`AppendVec::ptr_eq`]).
    #[cfg(test)]
    pub(crate) fn shares_buffers(&self, other: &PackCol) -> bool {
        AppendVec::ptr_eq(&self.bytes, &other.bytes) && AppendVec::ptr_eq(&self.ends, &other.ends)
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Heap bytes held by this column.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * std::mem::size_of::<u32>()
    }

    /// Estimated heap bytes of the `Vec<String>` this column replaced.
    pub fn string_baseline_bytes(&self) -> usize {
        string_baseline(self.ends.len(), self.bytes.len())
    }
}

impl Index<usize> for PackCol {
    type Output = str;
    fn index(&self, i: usize) -> &str {
        let (start, end) = self.range(i);
        // The arena only ever receives whole `&str` values, so the
        // slice is valid UTF-8 by construction; the checked conversion
        // keeps the module unsafe-free.
        std::str::from_utf8(&self.bytes[start..end]).expect("PackCol arena holds valid UTF-8")
    }
}

impl<S: AsRef<str>> FromIterator<S> for PackCol {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> PackCol {
        let mut col = PackCol::default();
        for s in iter {
            col.push(s);
        }
        col
    }
}

/// Declares a multi-valued column in CSR layout: every row's values, in
/// row order, in one `$values` column, plus a `u32` end offset per row.
/// That costs 4 bytes per row — no per-row `Vec` header (24 bytes) and
/// no per-row growth slack, which at SNB row counts is the difference
/// between beating the `String` baseline and losing to it.
macro_rules! list_column {
    ($(#[$doc:meta])* $name:ident($values:ident)) => {
        $(#[$doc])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            values: $values,
            /// `row_ends[i]` is the exclusive end of row `i` in `values`.
            row_ends: AppendVec<u32>,
        }

        impl $name {
            /// Appends a row with the given values.
            pub fn push_row<S: AsRef<str>>(&mut self, values: impl IntoIterator<Item = S>) {
                values.into_iter().for_each(|s| self.values.push(s));
                let end = u32::try_from(self.values.len()).expect("list column overflow (4 G)");
                self.row_ends.push(end);
            }

            fn range(&self, i: usize) -> Range<usize> {
                (if i == 0 { 0 } else { self.row_ends[i - 1] as usize })..self.row_ends[i] as usize
            }

            /// The values of row `i`.
            pub fn row(&self, i: usize) -> impl Iterator<Item = &str> + '_ {
                self.range(i).map(|v| &self.values[v])
            }

            /// The values of row `i` as owned strings (query results).
            pub fn row_vec(&self, i: usize) -> Vec<String> {
                self.row(i).map(str::to_string).collect()
            }

            /// Number of values in row `i`, from the offsets alone.
            pub fn row_len(&self, i: usize) -> usize {
                self.range(i).len()
            }

            /// Whether row `i` holds no values, from the offsets alone.
            pub fn row_is_empty(&self, i: usize) -> bool {
                self.row_len(i) == 0
            }

            /// Number of rows.
            pub fn len(&self) -> usize {
                self.row_ends.len()
            }

            /// True when the column has no rows.
            pub fn is_empty(&self) -> bool {
                self.row_ends.is_empty()
            }

            /// Keeps only rows whose index passes `keep`, and their values.
            pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
                let (mut kept, mut row_ends) = (vec![false; self.values.len()], AppendVec::default());
                for i in (0..self.len()).filter(|&i| keep(i)) {
                    let values = self.range(i);
                    kept[values.clone()].fill(true);
                    row_ends.push(row_ends.last().copied().unwrap_or(0) + values.len() as u32);
                }
                self.values.filter_in_place(|v| kept[v]);
                self.row_ends = row_ends;
            }

            /// Whether two columns share their buffers (see
            /// [`AppendVec::ptr_eq`]).
            #[cfg(test)]
            pub(crate) fn shares_buffers(&self, other: &$name) -> bool {
                self.values.shares_buffers(&other.values)
                    && AppendVec::ptr_eq(&self.row_ends, &other.row_ends)
            }

            /// Releases push-growth slack after an append-once bulk build.
            pub fn shrink_to_fit(&mut self) {
                self.values.shrink_to_fit();
                self.row_ends.shrink_to_fit();
            }

            /// Heap bytes held by this column.
            pub fn heap_bytes(&self) -> usize {
                self.values.heap_bytes() + self.row_ends.capacity() * std::mem::size_of::<u32>()
            }

            /// Estimated heap bytes of the `Vec<Vec<String>>` this replaced.
            pub fn string_baseline_bytes(&self) -> usize {
                self.len() * std::mem::size_of::<Vec<String>>() + self.values.string_baseline_bytes()
            }
        }
    };
}

list_column! {
    /// A multi-valued dictionary-coded column (e.g. spoken languages):
    /// one dictionary for all its values.
    SymListCol(SymCol)
}

list_column! {
    /// A multi-valued packed column (e.g. emails), for unique-per-row
    /// values where a dictionary would only grow.
    PackListCol(PackCol)
}

impl SymListCol {
    /// The dictionary: each value the rows use, once, in first-use
    /// order.
    pub fn dictionary(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.values.dictionary()
    }

    /// Checks the dictionary's canonical form (see [`SymCol::check`]).
    pub(crate) fn check(&self) -> Result<(), String> {
        self.values.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_is_identity_and_dedupes() {
        let mut col = SymCol::default();
        for s in ["Hermione", "Hermione", "Harry", ""] {
            col.push(s);
        }
        assert_eq!(col.sym(0), col.sym(1), "identical strings must share one symbol");
        assert_eq!(&col[1], "Hermione");
        assert_ne!(col.sym(2), col.sym(0));
        assert_eq!(col.dictionary().collect::<Vec<_>>(), ["Hermione", "Harry", ""]);
        assert_eq!(col.syms(), [0, 0, 1, 2], "symbols number the strings in first-use order");
    }

    #[test]
    fn sym_col_proptest_round_trip_and_canonical_filter() {
        // A minimal property test (the workspace's proptest stub has no
        // shrinking, so the loop is explicit): random strings from a
        // pseudo-random generator must round-trip push→get, and filtering
        // rows must leave exactly the column the survivors would build.
        let mut seed = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20 {
            let values: Vec<String> =
                (0..200).map(|i| format!("w{}-{}", next() % 31, i % (round + 2))).collect();
            let mut col: SymCol = values.iter().collect();
            for (i, s) in values.iter().enumerate() {
                assert_eq!(&col[i], s, "round-trip failed for {s:?}");
            }
            col.check().expect("a pushed column is canonical");
            let drop = next();
            let keep = |i: usize| (drop >> (i % 64)) & 1 == 1;
            let survivors: SymCol =
                values.iter().enumerate().filter(|&(i, _)| keep(i)).map(|(_, s)| s).collect();
            col.filter_in_place(keep);
            col.check().expect("a filtered column is canonical");
            assert_eq!(col, survivors, "round {round}");
        }
    }

    #[test]
    fn lookup_finds_interned_strings_and_never_inserts() {
        let col: SymCol = ["lookup-present", ""].into_iter().collect();
        assert_eq!(col.lookup("lookup-present"), Some(0));
        assert_eq!(col.lookup(""), Some(1));
        assert_eq!(col.lookup("lookup-absent"), None);
        assert_eq!(col.lookup("lookup-absent"), None, "a miss must not insert");
        assert_eq!(col.dictionary().len(), 2);
        let other: SymCol = ["elsewhere"].into_iter().collect();
        assert_eq!(other.lookup("lookup-present"), None, "each column has its own dictionary");
    }

    #[test]
    fn deleting_the_last_user_of_a_string_drops_it() {
        let mut col: SymCol = ["a", "b", "a", "c", "b"].into_iter().collect();
        col.filter_in_place(|i| i != 0 && i != 2);
        assert_eq!(col.dictionary().collect::<Vec<_>>(), ["b", "c"], "`a` has no row left");
        assert_eq!(col.syms(), [0, 1, 0]);
        let mut list = SymListCol::default();
        list.push_row(["en", "de"]);
        list.push_row(["fr", "en"]);
        list.filter_in_place(|i| i == 1);
        assert_eq!(list.dictionary().collect::<Vec<_>>(), ["fr", "en"]);
        list.check().expect("canonical after the filter");
    }

    #[test]
    fn clones_share_the_dictionary_until_a_new_string() {
        let base: SymCol = ["x", "y"].into_iter().collect();
        let mut next = base.clone();
        next.push("y");
        assert!(Arc::ptr_eq(&base.dict, &next.dict), "a known string copies no dictionary");
        next.push("z");
        assert!(!Arc::ptr_eq(&base.dict, &next.dict));
        assert_eq!(base.dictionary().len(), 2, "the shared version keeps its dictionary");
    }

    #[test]
    fn image_parts_out_of_form_are_refused() {
        let parts = |dict: &[&str], syms: &[Sym]| {
            SymCol::from_parts(dict.iter().copied(), syms.iter().copied().collect())
        };
        assert!(parts(&["a", "b"], &[0, 1, 0]).is_ok());
        for (what, dict, syms) in [
            ("a repeated string", &["a", "a"][..], &[0, 1][..]),
            ("an unused entry", &["a", "b"], &[0, 0]),
            ("out of first-use order", &["a", "b"], &[1, 0]),
            ("out of range", &["a"], &[0, 1]),
        ] {
            assert!(parts(dict, syms).is_err(), "{what} must be refused");
        }
    }

    #[test]
    fn store_validation_checks_each_dictionary() {
        let mut s = crate::Store::default();
        let classes = &mut *s.tag_classes;
        classes.id.push(1);
        classes.parent.push(crate::NONE);
        let dict = Arc::new(Dict::of_strings(["Thing"]));
        classes.name = SymCol { syms: [1].into_iter().collect(), dict };
        let err = s.validate_invariants().unwrap_err().to_string();
        assert!(err.contains("tag_classes.name: symbol 1 is out of range"), "{err}");
    }

    #[test]
    fn heap_bytes_count_the_dictionary() {
        let big = "x".repeat(4096);
        let col: SymCol = std::iter::repeat_n(&big, 10).collect();
        assert!(col.heap_bytes() >= 4096, "{} B for a 4 KiB string", col.heap_bytes());
        let mut list = SymListCol::default();
        for _ in 0..10 {
            list.push_row([&big]);
        }
        assert!(list.heap_bytes() >= 4096, "{} B for a 4 KiB string", list.heap_bytes());
    }

    #[test]
    fn row_len_and_emptiness_come_from_offsets() {
        let mut col = PackCol::default();
        for s in ["", "hello", "héllo", ""] {
            col.push(s);
        }
        for i in 0..col.len() {
            assert_eq!(col.row_len(i), col[i].len());
            assert_eq!(col.row_is_empty(i), col[i].is_empty());
        }
        let mut list = PackListCol::default();
        list.push_row(["a@x.org"]);
        list.push_row(Vec::<String>::new());
        assert!(!list.row_is_empty(0));
        assert!(list.row_is_empty(1));
    }

    #[test]
    fn sym_col_indexes_and_filters() {
        let mut col = SymCol::default();
        for s in ["alpha", "beta", "alpha", "gamma"] {
            col.push(s);
        }
        assert_eq!(col.len(), 4);
        assert_eq!(&col[0], "alpha");
        assert_eq!(col.sym(0), col.sym(2), "dedupe within a column");
        col.filter_in_place(|i| i != 1);
        assert_eq!(col.len(), 3);
        assert_eq!(&col[1], "alpha");
        assert_eq!(col.iter().collect::<Vec<_>>(), vec!["alpha", "alpha", "gamma"]);
    }

    #[test]
    fn pack_col_round_trips_including_empty_and_unicode() {
        let mut col = PackCol::default();
        for s in ["", "hello", "héllo wörld", "", "x"] {
            col.push(s);
        }
        assert_eq!(col.len(), 5);
        assert_eq!(&col[0], "");
        assert_eq!(&col[2], "héllo wörld");
        assert_eq!(&col[4], "x");
        col.filter_in_place(|i| i % 2 == 0);
        assert_eq!(col.iter().collect::<Vec<_>>(), vec!["", "héllo wörld", "x"]);
        assert!(col.heap_bytes() < col.string_baseline_bytes());
    }

    #[test]
    fn list_cols_round_trip_rows() {
        let mut sl = SymListCol::default();
        sl.push_row(["en", "de"]);
        sl.push_row(Vec::<String>::new());
        sl.push_row(["fr"]);
        assert_eq!(sl.row_vec(0), vec!["en", "de"]);
        assert_eq!(sl.row_len(1), 0);
        assert_eq!(sl.row_vec(2), vec!["fr"]);
        sl.filter_in_place(|i| i != 1);
        assert_eq!(sl.len(), 2);
        assert_eq!(sl.row_vec(0), vec!["en", "de"]);
        assert_eq!(sl.row_vec(1), vec!["fr"]);

        let mut pl = PackListCol::default();
        pl.push_row(["a@x.org", "b@y.org"]);
        pl.push_row(Vec::<String>::new());
        pl.push_row(["c@z.org"]);
        assert_eq!(pl.row_vec(0), vec!["a@x.org", "b@y.org"]);
        assert_eq!(pl.row_len(1), 0);
        assert_eq!(pl.row_vec(2), vec!["c@z.org"]);
        pl.filter_in_place(|i| i != 0);
        assert_eq!(pl.len(), 2);
        assert_eq!(pl.row_len(0), 0);
        assert_eq!(pl.row_vec(1), vec!["c@z.org"]);
        // Rows after a dropped one are rebased, not just copied.
        pl.push_row(["d@w.org", "é@v.org"]);
        pl.push_row(["f@u.org"]);
        pl.filter_in_place(|i| i >= 2);
        let mut expect = PackListCol::default();
        expect.push_row(["d@w.org", "é@v.org"]);
        expect.push_row(["f@u.org"]);
        assert_eq!(pl, expect);
    }

    #[test]
    fn list_cols_csr_beats_vec_per_row_baseline() {
        // The per-person gate depends on the CSR layout: a 24-byte
        // `Vec` header per row would already exceed the payload for
        // short lists. Two emails of ~15 bytes per row must cost less
        // than half the `Vec<Vec<String>>` equivalent.
        let mut pl = PackListCol::default();
        let mut sl = SymListCol::default();
        for i in 0..1_000 {
            pl.push_row([format!("u{i}@example.org"), format!("u{i}@mail.test")]);
            sl.push_row(["en", ["de", "fr", "zh"][i % 3]]);
        }
        pl.shrink_to_fit();
        sl.shrink_to_fit();
        assert!(
            pl.heap_bytes() * 2 <= pl.string_baseline_bytes(),
            "packed lists {} vs baseline {}",
            pl.heap_bytes(),
            pl.string_baseline_bytes()
        );
        assert!(
            sl.heap_bytes() * 2 <= sl.string_baseline_bytes(),
            "dictionary-coded lists {} vs baseline {}",
            sl.heap_bytes(),
            sl.string_baseline_bytes()
        );
    }

    #[test]
    fn packed_columns_beat_string_baseline_by_2x() {
        // The loading gate in miniature: a dictionary-valued column at
        // realistic cardinality must cost less than half its
        // `Vec<String>` equivalent.
        let names = ["Jan", "Maria", "Chen", "Otso", "Ayesha", "Bran"];
        let mut col = SymCol::default();
        for i in 0..10_000 {
            col.push(names[i % names.len()]);
        }
        assert!(
            col.heap_bytes() * 2 <= col.string_baseline_bytes(),
            "dictionary-coded {} vs baseline {}",
            col.heap_bytes(),
            col.string_baseline_bytes()
        );
    }
}
