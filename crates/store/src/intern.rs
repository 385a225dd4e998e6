//! String interning and packed string columns.
//!
//! At the scale factors the SNB spec targets (arXiv 2001.02299: SF1 is
//! ~10k persons and ~3.5M messages, the ladder goes up from there) the
//! store's ~16 `String`-typed columns dominate memory: every row pays a
//! 24-byte `String` header plus a separate heap allocation, even though
//! most values come from tiny dictionaries (names, browsers, languages)
//! or are immutable once loaded (IPs, content). This module replaces
//! them with two representations:
//!
//! * [`SymCol`] — a `Vec<u32>` of symbols into the process-global
//!   [`StrInterner`]. Identical strings share one symbol across every
//!   column and every store version, so a dictionary value costs 4 bytes
//!   per row no matter how often it repeats.
//! * [`PackCol`] — a byte arena plus `u32` offsets for high-cardinality
//!   columns (message content, IPs) where interning would only bloat
//!   the dictionary: 4 bytes per row of overhead instead of 24+.
//!
//! Both index as `&str` (`col[i]`), so cold callers compile against
//! them exactly as they did against `Vec<String>`. Multi-valued columns
//! get the same treatment via [`SymListCol`] / [`PackListCol`].
//!
//! Scans do not go through `&str` at all: a string predicate resolves
//! its parameter to a [`Sym`] once per query with
//! [`StrInterner::lookup`] (which never inserts — an unknown string
//! matches nothing) and compares [`SymCol::sym`] values; emptiness and
//! length of a packed row come from the offsets
//! ([`PackCol::row_is_empty`] / [`PackCol::row_len`]) without touching
//! the bytes. When a string is needed, [`StrInterner::resolve`] is two
//! acquire loads on an append-only table — no lock, so a write batch
//! interning new strings never stalls a reader.
//!
//! Trade-offs, stated honestly: the interner is append-only and leaks
//! its dictionary for the process lifetime (symbols must stay valid in
//! every published copy-on-write store version, and the SNB dictionary
//! space is bounded — only the build, insert and image-decode paths
//! intern; query parameters use `lookup`); a `PackCol` arena is capped
//! at 4 GiB per column by its `u32` offsets (one column of one entity
//! type — far beyond what a single in-memory store holds).

use std::ops::Index;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use rustc_hash::FxHashMap;

/// A symbol: an index into the global interner's dictionary.
pub type Sym = u32;

/// Symbols `[0, 2^FIRST_BUCKET_BITS)` live in bucket 0; every later
/// bucket doubles the table, so 23 buckets cover the whole `u32` range
/// and at most half of the allocated slots are ever unused.
const FIRST_BUCKET_BITS: u32 = 10;
const BUCKETS: usize = (32 - FIRST_BUCKET_BITS) as usize + 1;

/// One slot of the resolve table: written once by the interning
/// thread, read by anyone with an acquire load.
type Slot = OnceLock<&'static str>;

/// `(bucket, offset)` of a symbol in the resolve table.
fn locate(sym: Sym) -> (usize, usize) {
    let n = u64::from(sym) + (1 << FIRST_BUCKET_BITS);
    let top = 63 - n.leading_zeros();
    ((top - FIRST_BUCKET_BITS) as usize, (n - (1 << top)) as usize)
}

/// The process-global append-only string dictionary.
///
/// `intern` and `lookup` take the `map` mutex (write path and once per
/// query respectively). `resolve` takes no lock: the symbol → string
/// table is a fixed array of lazily allocated buckets whose slots are
/// each set exactly once, by the thread holding `map`, before the
/// symbol is handed out. A slot never moves, so a reader needs only the
/// two acquire loads `OnceLock::get` performs (bucket, then slot), and
/// the returned `&'static str` outlives every store version.
pub struct StrInterner {
    map: Mutex<FxHashMap<&'static str, Sym>>,
    table: [OnceLock<Box<[Slot]>>; BUCKETS],
    /// Symbols handed out so far; stored with `Release` after the slot
    /// is set, so `len()` never runs ahead of `resolve`.
    len: AtomicUsize,
}

impl StrInterner {
    fn new() -> StrInterner {
        let interner = StrInterner {
            map: Mutex::new(FxHashMap::default()),
            table: [const { OnceLock::new() }; BUCKETS],
            len: AtomicUsize::new(0),
        };
        // Symbol 0 is always the empty string: `Default`-constructed
        // rows and "absent" optional attributes resolve without ever
        // touching the map.
        assert_eq!(interner.intern(""), 0);
        interner
    }

    /// Interns `s`, returning its symbol. Identical strings — from any
    /// column, store version, or thread — always yield the same symbol.
    pub fn intern(&self, s: &str) -> Sym {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&sym) = map.get(s) {
            return sym;
        }
        // Only the holder of `map` appends, so `len` cannot change
        // under us and the slot below is still unset.
        let next = self.len.load(Ordering::Relaxed);
        let sym = u32::try_from(next).expect("interner dictionary overflow");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let (bucket, offset) = locate(sym);
        let slots = self.table[bucket].get_or_init(|| {
            (0..1usize << (bucket as u32 + FIRST_BUCKET_BITS)).map(|_| Slot::new()).collect()
        });
        slots[offset].set(leaked).expect("resolve-table slot written twice");
        self.len.store(next + 1, Ordering::Release);
        map.insert(leaked, sym);
        sym
    }

    /// The symbol of `s` if it was ever interned; never inserts. This
    /// is the entry point for client-supplied strings (query
    /// parameters): a string absent from the dictionary occurs in no
    /// column, and looking it up must not grow the dictionary.
    pub fn lookup(&self, s: &str) -> Option<Sym> {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).get(s).copied()
    }

    /// Resolves a symbol back to its string without taking a lock.
    /// Panics on a symbol that was never handed out (a corrupted
    /// column, not a user error).
    pub fn resolve(&self, sym: Sym) -> &'static str {
        let (bucket, offset) = locate(sym);
        self.table[bucket]
            .get()
            .and_then(|slots| slots[offset].get())
            .expect("symbol was never handed out by this interner")
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when only the empty string is interned.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Bytes held by the dictionary itself (leaked strings + resolve
    /// table; the lookup map is not counted).
    pub fn dictionary_bytes(&self) -> usize {
        let strings: usize = (0..self.len() as Sym).map(|sym| self.resolve(sym).len()).sum();
        let slots: usize = self.table.iter().filter_map(|b| b.get()).map(|b| b.len()).sum();
        strings + slots * std::mem::size_of::<Slot>()
    }
}

/// The global interner (one dictionary per process, shared by every
/// store version).
pub fn interner() -> &'static StrInterner {
    static INTERNER: OnceLock<StrInterner> = OnceLock::new();
    INTERNER.get_or_init(StrInterner::new)
}

/// Estimated heap footprint of a `Vec<String>` holding the same rows —
/// the String-column baseline the loading benchmark compares against:
/// 24 bytes of header per row (inline in the vec) plus each string's
/// own allocation.
fn string_baseline(rows: usize, content_bytes: usize) -> usize {
    rows * std::mem::size_of::<String>() + content_bytes
}

/// An interned string column: one `u32` symbol per row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymCol {
    syms: Vec<Sym>,
}

impl SymCol {
    /// Appends a row, interning the value.
    pub fn push(&mut self, s: impl AsRef<str>) {
        self.syms.push(interner().intern(s.as_ref()));
    }

    /// Appends an already-interned symbol (datagen hands these out so
    /// the hot path skips the dictionary lookup entirely).
    pub fn push_sym(&mut self, sym: Sym) {
        self.syms.push(sym);
    }

    /// The symbol at row `i` — what scan predicates compare.
    pub fn sym(&self, i: usize) -> Sym {
        self.syms[i]
    }

    /// The value at row `i`, borrowed from the dictionary rather than
    /// from the column: sort keys and group keys can hold it without
    /// allocating or pinning the store version.
    pub fn get(&self, i: usize) -> &'static str {
        interner().resolve(self.syms[i])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Iterates the resolved values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        let dict = interner();
        self.syms.iter().map(move |&s| dict.resolve(s))
    }

    /// The raw symbol slice (image serialization).
    pub fn syms(&self) -> &[Sym] {
        &self.syms
    }

    /// Keeps only rows whose index passes `keep` (delete rebuilds).
    pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
        let mut i = 0;
        self.syms.retain(|_| {
            let k = keep(i);
            i += 1;
            k
        });
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.syms.shrink_to_fit();
    }

    /// Heap bytes held by this column (the shared dictionary is global
    /// and counted once, not per column).
    pub fn heap_bytes(&self) -> usize {
        self.syms.capacity() * std::mem::size_of::<Sym>()
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
    bytes: Vec<u8>,
    /// `ends[i]` is the exclusive end of row `i`; row `i` starts at
    /// `ends[i-1]` (0 for the first row).
    ends: Vec<u32>,
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

/// A multi-valued interned column (e.g. spoken languages) in CSR
/// layout: one flat symbol vector plus a `u32` end offset per row.
/// Costs 4 bytes per value and 4 per row — no per-row `Vec` headers
/// (24 bytes each) and no per-row growth slack, which at SNB row
/// counts is the difference between beating the `String` baseline and
/// losing to it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SymListCol {
    syms: Vec<Sym>,
    /// `row_ends[i]` is the exclusive end of row `i` in `syms`.
    row_ends: Vec<u32>,
}

impl SymListCol {
    /// Appends a row with the given values.
    pub fn push_row<S: AsRef<str>>(&mut self, values: impl IntoIterator<Item = S>) {
        for s in values {
            self.syms.push(interner().intern(s.as_ref()));
        }
        self.row_ends
            .push(u32::try_from(self.syms.len()).expect("SymListCol overflow (4 G values)"));
    }

    fn range(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 { 0 } else { self.row_ends[i - 1] as usize };
        (start, self.row_ends[i] as usize)
    }

    /// The values of row `i`, resolved.
    pub fn row(&self, i: usize) -> impl Iterator<Item = &'static str> + '_ {
        let (start, end) = self.range(i);
        let dict = interner();
        self.syms[start..end].iter().map(move |&s| dict.resolve(s))
    }

    /// The values of row `i` as owned strings (query results).
    pub fn row_vec(&self, i: usize) -> Vec<String> {
        self.row(i).map(str::to_string).collect()
    }

    /// Number of values in row `i`.
    pub fn row_len(&self, i: usize) -> usize {
        let (start, end) = self.range(i);
        end - start
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.row_ends.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ends.is_empty()
    }

    /// Keeps only rows whose index passes `keep`, rebuilding the flat
    /// vectors so deleted rows free their values.
    pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
        let mut next = SymListCol::default();
        for i in 0..self.len() {
            if keep(i) {
                let (start, end) = self.range(i);
                next.syms.extend_from_slice(&self.syms[start..end]);
                next.row_ends.push(next.syms.len() as u32);
            }
        }
        *self = next;
    }

    /// Releases push-growth slack (bulk builds are append-once, so
    /// capacity beyond `len` is pure waste after load).
    pub fn shrink_to_fit(&mut self) {
        self.syms.shrink_to_fit();
        self.row_ends.shrink_to_fit();
    }

    /// Heap bytes held by this column.
    pub fn heap_bytes(&self) -> usize {
        self.syms.capacity() * std::mem::size_of::<Sym>()
            + self.row_ends.capacity() * std::mem::size_of::<u32>()
    }

    /// Estimated heap bytes of the `Vec<Vec<String>>` this replaced.
    pub fn string_baseline_bytes(&self) -> usize {
        let dict = interner();
        let content_bytes = self.syms.iter().map(|&s| dict.resolve(s).len()).sum();
        self.row_ends.len() * std::mem::size_of::<Vec<String>>()
            + string_baseline(self.syms.len(), content_bytes)
    }
}

/// A multi-valued packed column (e.g. emails) in CSR layout: all value
/// bytes in one shared arena, a `u32` end offset per value, and a
/// `u32` end offset per row — for unique-per-row values where
/// interning would only grow the global dictionary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackListCol {
    bytes: Vec<u8>,
    /// `val_ends[v]` is the exclusive byte end of value `v` in `bytes`.
    val_ends: Vec<u32>,
    /// `row_ends[i]` is the exclusive end of row `i` in `val_ends`.
    row_ends: Vec<u32>,
}

impl PackListCol {
    /// Appends a row with the given values.
    pub fn push_row<S: AsRef<str>>(&mut self, values: impl IntoIterator<Item = S>) {
        for v in values {
            self.bytes.extend_from_slice(v.as_ref().as_bytes());
            self.val_ends
                .push(u32::try_from(self.bytes.len()).expect("PackListCol arena overflow (4 GiB)"));
        }
        self.row_ends
            .push(u32::try_from(self.val_ends.len()).expect("PackListCol overflow (4 G values)"));
    }

    fn row_range(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 { 0 } else { self.row_ends[i - 1] as usize };
        (start, self.row_ends[i] as usize)
    }

    /// Byte offset where value `v` starts — the end of value `v - 1`,
    /// so `val_start(len)` is the end of the arena.
    fn val_start(&self, v: usize) -> usize {
        if v == 0 {
            0
        } else {
            self.val_ends[v - 1] as usize
        }
    }

    /// The values of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = &str> + '_ {
        let (start, end) = self.row_range(i);
        (start..end).map(move |v| {
            std::str::from_utf8(&self.bytes[self.val_start(v)..self.val_start(v + 1)])
                .expect("PackListCol arena holds valid UTF-8")
        })
    }

    /// The values of row `i` as owned strings (query results).
    pub fn row_vec(&self, i: usize) -> Vec<String> {
        self.row(i).map(str::to_string).collect()
    }

    /// Number of values in row `i`, from the offsets alone.
    pub fn row_len(&self, i: usize) -> usize {
        let (start, end) = self.row_range(i);
        end - start
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

    /// Keeps only rows whose index passes `keep`, rebuilding the arena.
    /// A surviving row's values are contiguous, so it moves as one byte
    /// range with its value offsets rebased.
    pub fn filter_in_place(&mut self, keep: impl Fn(usize) -> bool) {
        let mut next = PackListCol::default();
        for i in (0..self.len()).filter(|&i| keep(i)) {
            let (v0, v1) = self.row_range(i);
            let (b0, b1) = (self.val_start(v0), self.val_start(v1));
            let moved_to = next.bytes.len();
            next.bytes.extend_from_slice(&self.bytes[b0..b1]);
            next.val_ends
                .extend(self.val_ends[v0..v1].iter().map(|&e| (e as usize - b0 + moved_to) as u32));
            next.row_ends.push(next.val_ends.len() as u32);
        }
        *self = next;
    }

    /// Releases push-growth slack after an append-once bulk build.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.val_ends.shrink_to_fit();
        self.row_ends.shrink_to_fit();
    }

    /// Heap bytes held by this column.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.val_ends.capacity() * std::mem::size_of::<u32>()
            + self.row_ends.capacity() * std::mem::size_of::<u32>()
    }

    /// Estimated heap bytes of the `Vec<Vec<String>>` this replaced.
    pub fn string_baseline_bytes(&self) -> usize {
        self.row_ends.len() * std::mem::size_of::<Vec<String>>()
            + string_baseline(self.val_ends.len(), self.bytes.len())
    }
}

/// Zigzag-encodes a signed delta for varint packing.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint, advancing `pos`. `None` on truncation.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Delta+varint packs a sequence of `i64` values (sorted id and date
/// columns delta-encode to ~1–2 bytes per row; unsorted ones still
/// round-trip, just with larger deltas).
pub fn pack_deltas(values: impl IntoIterator<Item = i64>, out: &mut Vec<u8>) -> usize {
    let mut prev = 0i64;
    let mut n = 0usize;
    for v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev)));
        prev = v;
        n += 1;
    }
    n
}

/// Unpacks `n` delta+varint values. `None` on truncation.
pub fn unpack_deltas(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<i64>> {
    let mut out = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(get_varint(buf, pos)?));
        out.push(prev);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_is_identity_and_dedupes() {
        let it = interner();
        let a = it.intern("Hermione");
        let b = it.intern("Hermione");
        assert_eq!(a, b, "identical strings must share one symbol");
        assert_eq!(it.resolve(a), "Hermione");
        assert_ne!(it.intern("Harry"), a);
        assert_eq!(it.intern(""), 0, "symbol 0 is the empty string");
    }

    #[test]
    fn interner_proptest_round_trip_and_cross_column_dedupe() {
        // A minimal property test (the workspace's proptest stub has no
        // shrinking, so the loop is explicit): random strings from a
        // pseudo-random generator must round-trip intern→resolve, and
        // the same string interned via two independent columns must
        // share one symbol.
        let mut seed = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut cols = (SymCol::default(), SymCol::default());
        for i in 0..500 {
            let s = format!("w{}-{}", next() % 97, i % 13);
            let sym = interner().intern(&s);
            assert_eq!(interner().resolve(sym), s, "round-trip failed for {s:?}");
            cols.0.push(&s);
            cols.1.push(&s);
        }
        for i in 0..cols.0.len() {
            assert_eq!(
                cols.0.sym(i),
                cols.1.sym(i),
                "identical strings must share a symbol across columns"
            );
            assert_eq!(&cols.0[i], &cols.1[i]);
        }
    }

    #[test]
    fn lookup_finds_interned_strings_and_never_inserts() {
        let it = interner();
        let sym = it.intern("lookup-present");
        assert_eq!(it.lookup("lookup-present"), Some(sym));
        assert_eq!(it.lookup(""), Some(0));
        assert_eq!(it.lookup("lookup-absent"), None);
        assert_eq!(it.lookup("lookup-absent"), None, "a miss must not insert");
    }

    #[test]
    fn locate_tiles_the_symbol_space_without_gaps() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(u32::MAX), (BUCKETS - 1, 1023));
        let mut expect = (0usize, 0usize);
        for sym in 0..20_000u32 {
            assert_eq!(locate(sym), expect, "sym {sym}");
            expect.1 += 1;
            if expect.1 == 1 << (expect.0 as u32 + FIRST_BUCKET_BITS) {
                expect = (expect.0 + 1, 0);
            }
        }
    }

    #[test]
    fn readers_resolve_every_issued_symbol_while_a_writer_interns() {
        use std::sync::atomic::{AtomicBool, AtomicU32};
        use std::sync::Barrier;

        const FRESH: usize = 100_000;
        const READERS: usize = 3;
        const UNSET: u32 = u32::MAX;
        let it = interner();
        // issued[i] is the symbol the writer got for "conc-{i}".
        let issued: Vec<AtomicU32> = (0..FRESH).map(|_| AtomicU32::new(UNSET)).collect();
        let done = AtomicBool::new(false);
        // Two rendezvous force the interleaving: every reader completes
        // a sweep while the writer is in its first half, and all of them
        // keep sweeping while the second half grows the table through
        // further bucket allocations.
        let start = Barrier::new(READERS + 1);
        let halfway = Barrier::new(READERS + 1);
        let sweep = |last_len: &mut usize| {
            let len = it.len();
            assert!(len >= *last_len, "len() went back: {last_len} -> {len}");
            *last_len = len;
            assert_eq!(it.resolve(0), "", "symbol 0 must stay the empty string");
            // Every symbol below len() was handed out, so it resolves.
            for sym in 0..len as Sym {
                let s = it.resolve(sym);
                let Some(i) = s.strip_prefix("conc-").and_then(|i| i.parse::<usize>().ok()) else {
                    continue; // another test's string
                };
                let want = issued[i].load(Ordering::Acquire);
                assert!(want == UNSET || want == sym, "sym {sym} resolved to {s:?}, issued {want}");
            }
        };
        // The scope joins the readers and re-raises a reader's panic.
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    start.wait();
                    let mut last_len = 0usize;
                    sweep(&mut last_len);
                    halfway.wait();
                    while !done.load(Ordering::Acquire) {
                        sweep(&mut last_len);
                    }
                    sweep(&mut last_len);
                });
            }
            start.wait();
            for (i, slot) in issued.iter().enumerate() {
                if i == FRESH / 2 {
                    halfway.wait();
                }
                slot.store(it.intern(&format!("conc-{i}")), Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        // After the fact: every fresh string has its own symbol, and
        // both directions agree.
        let mut syms: Vec<Sym> = issued.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(it.resolve(sym), format!("conc-{i}"));
            assert_eq!(it.lookup(&format!("conc-{i}")), Some(sym));
        }
        syms.sort_unstable();
        syms.dedup();
        assert_eq!(syms.len(), FRESH);
        assert!(it.len() > FRESH);
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
            "interned lists {} vs baseline {}",
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
            "interned {} vs baseline {}",
            col.heap_bytes(),
            col.string_baseline_bytes()
        );
    }

    #[test]
    fn varint_and_delta_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // Sorted ids pack to ~1 byte per row; negatives round-trip too.
        let values: Vec<i64> = (0..1000).map(|i| 1_000_000 + i * 3).collect();
        let mut packed = Vec::new();
        let n = pack_deltas(values.iter().copied(), &mut packed);
        assert_eq!(n, values.len());
        assert!(packed.len() < values.len() * 2, "sorted deltas must pack tightly");
        let mut pos = 0;
        assert_eq!(unpack_deltas(&packed, &mut pos, n).unwrap(), values);
        let wild = vec![i64::MIN, i64::MAX, 0, -1, 42];
        packed.clear();
        pack_deltas(wild.iter().copied(), &mut packed);
        let mut pos = 0;
        assert_eq!(unpack_deltas(&packed, &mut pos, wild.len()).unwrap(), wild);
        // Truncation is detected, not misread.
        assert_eq!(unpack_deltas(&packed[..packed.len() - 1], &mut 0, wild.len()), None);
    }
}
