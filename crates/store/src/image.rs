//! Store-image codec: the full [`Store`] ⇄ a compact checksummed byte
//! image.
//!
//! This is the payload format of the on-disk store-image snapshot (the
//! file framing — magic, header, fsync/rename discipline — lives in the
//! server crate next to the WAL). The codec's job is to make recovery
//! cost proportional to *live data*, not to
//! history length: a recovered process decodes this image and replays
//! only the WAL tail written after it.
//!
//! Layout: a fixed sequence of tagged sections, each a tag byte and a
//! [`snb_core::bytes`] checked frame (`[u32 len][u64 fnv64(body)][body]`).
//! The sections follow the store's one schema declaration (`store.rs`):
//! the seven entity column groups at tags `1 + class` (1 = persons …
//! 7 = organisations), then the 21 adjacencies at `10 + position`. A
//! group section holds its columns in the order the group's declaration
//! (`columns.rs`) lists them, each written by its column type. Hash
//! indexes, the name→index maps, and the date permutation index are
//! *not* stored — they are deterministic functions of the columns and
//! are rebuilt at decode time (same insert order as the bulk loader, so
//! lookups behave identically).
//!
//! Within sections everything is varints, and a value column's element
//! type picks its encoding (`Scalar`): sorted id and timestamp columns
//! are zigzag-delta packed (~1–2 bytes/row), `Ix` references and other
//! `u32`s are plain varints, enums are one byte each, and a
//! dictionary-coded string column is written as it is held: its own
//! dictionary, then one symbol per row. Any length/checksum mismatch,
//! unknown tag, count too large for its section, dictionary out of its
//! canonical form (see [`crate::intern`]), or trailing bytes decodes to
//! a hard [`SnbError::Parse`] — a corrupt image is refused, never
//! half-loaded.
//!
//! [`SnbError::Parse`]: snb_core::SnbError::Parse

use rustc_hash::FxHashMap;
use snb_core::bytes::{
    put_checked, put_deltas, put_u8, put_varint, put_varint_str, Malformed, Reader,
};
use snb_core::datetime::{Date, DateTime};
use snb_core::model::{Gender, MessageKind, OrganisationKind, PlaceKind};
use snb_core::SnbResult;

use crate::adj::Adj;
use crate::append_vec::AppendVec;
use crate::columns::{Group, Ix};
use crate::intern::{PackCol, PackListCol, SymCol, SymListCol};
use crate::store::{Entity, Store};

/// The tag of the first adjacency section; the others follow in `Store`
/// field order.
pub(crate) const SECT_ADJ_BASE: u8 = 10;

// ---- value runs ------------------------------------------------------------

/// How a run of values of one element type is written: the element type
/// picks the encoding. The run's count is written apart — before a
/// column's run, and as its adjacency's edge count before a payload run.
pub(crate) trait Scalar: Copy {
    /// Writes `values`.
    fn put_run(out: &mut Vec<u8>, values: &[Self]);

    /// Reads a run of `n` values, `n` having passed the count rule.
    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<Self>, Malformed>;
}

/// A [`put_deltas`] run of `n` values, each mapped by `value`.
fn delta_run<T: Copy>(
    r: &mut Reader<'_>,
    n: usize,
    value: impl Fn(i64) -> Result<T, Malformed>,
) -> Result<AppendVec<T>, Malformed> {
    let mut out = AppendVec::with_capacity(n);
    r.each_delta(n, |v| {
        out.push(value(v)?);
        Ok(())
    })?;
    Ok(out)
}

/// Raw ids: zigzag deltas.
impl Scalar for u64 {
    fn put_run(out: &mut Vec<u8>, values: &[u64]) {
        put_deltas(out, values.iter().map(|&v| v as i64));
    }

    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<u64>, Malformed> {
        delta_run(r, n, |v| Ok(v as u64))
    }
}

/// Indices and lengths: varints.
impl Scalar for u32 {
    fn put_run(out: &mut Vec<u8>, values: &[u32]) {
        for &v in values {
            put_varint(out, u64::from(v));
        }
    }

    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<u32>, Malformed> {
        let mut out = AppendVec::with_capacity(n);
        for _ in 0..n {
            out.push(u32::try_from(r.varint()?).map_err(|_| Malformed("u32 overflow".into()))?);
        }
        Ok(out)
    }
}

/// Dates: zigzag deltas of the day number.
impl Scalar for Date {
    fn put_run(out: &mut Vec<u8>, values: &[Date]) {
        put_deltas(out, values.iter().map(|d| i64::from(d.0)));
    }

    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<Date>, Malformed> {
        delta_run(r, n, |v| {
            i32::try_from(v).map(Date).map_err(|_| Malformed("date out of range".into()))
        })
    }
}

/// Timestamps: zigzag deltas of the milliseconds.
impl Scalar for DateTime {
    fn put_run(out: &mut Vec<u8>, values: &[DateTime]) {
        put_deltas(out, values.iter().map(|d| d.0));
    }

    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<DateTime>, Malformed> {
        delta_run(r, n, |v| Ok(DateTime(v)))
    }
}

/// Years (study and work payloads): zigzag deltas.
impl Scalar for i32 {
    fn put_run(out: &mut Vec<u8>, values: &[i32]) {
        put_deltas(out, values.iter().map(|&v| i64::from(v)));
    }

    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<i32>, Malformed> {
        delta_run(r, n, |v| {
            i32::try_from(v).map_err(|_| Malformed("i32 payload out of range".into()))
        })
    }
}

/// No payload: no bytes.
impl Scalar for () {
    fn put_run(_: &mut Vec<u8>, _: &[()]) {}

    fn get_run(_: &mut Reader<'_>, n: usize) -> Result<AppendVec<()>, Malformed> {
        Ok(AppendVec::from_elem((), n))
    }
}

/// An enum written as one byte: its index in `ALL`.
pub(crate) trait ByteCode: Copy + PartialEq + 'static {
    /// Every variant, in byte order.
    const ALL: &'static [Self];
}

impl ByteCode for Gender {
    const ALL: &'static [Gender] = &[Gender::Male, Gender::Female];
}

impl ByteCode for MessageKind {
    const ALL: &'static [MessageKind] = &[MessageKind::Post, MessageKind::Comment];
}

impl ByteCode for PlaceKind {
    const ALL: &'static [PlaceKind] = &[PlaceKind::City, PlaceKind::Country, PlaceKind::Continent];
}

impl ByteCode for OrganisationKind {
    const ALL: &'static [OrganisationKind] =
        &[OrganisationKind::University, OrganisationKind::Company];
}

impl<E: ByteCode> Scalar for E {
    fn put_run(out: &mut Vec<u8>, values: &[E]) {
        let byte = |v: &E| E::ALL.iter().position(|e| e == v).expect("ALL lists every variant");
        out.extend(values.iter().map(|v| byte(v) as u8));
    }

    fn get_run(r: &mut Reader<'_>, n: usize) -> Result<AppendVec<E>, Malformed> {
        r.take(n)?
            .iter()
            .map(|&b| {
                let e = E::ALL.get(usize::from(b)).copied();
                e.ok_or_else(|| Malformed(format!("invalid enum byte {b}")))
            })
            .collect()
    }
}

/// A value column: its row count, then its run.
pub(crate) fn put_scalars<T: Scalar>(out: &mut Vec<u8>, values: &[T]) {
    put_varint(out, values.len() as u64);
    T::put_run(out, values);
}

/// Reads a [`put_scalars`] column.
pub(crate) fn get_scalars<T: Scalar>(r: &mut Reader<'_>) -> Result<AppendVec<T>, Malformed> {
    let n = r.varint_count(1)?;
    T::get_run(r, n)
}

// ---- string column helpers -------------------------------------------------

/// Writes a dictionary-coded column as it is held: `rows, dict_len,
/// dict strings..., per-row symbol`.
pub(crate) fn put_symcol(out: &mut Vec<u8>, col: &SymCol) {
    put_varint(out, col.len() as u64);
    put_varint(out, col.dictionary().len() as u64);
    for s in col.dictionary() {
        put_varint_str(out, s);
    }
    u32::put_run(out, col.syms());
}

/// Reads a [`put_symcol`] column, refusing a dictionary that is not in
/// the column's canonical form (a repeated or unused string, a symbol
/// out of range or out of first-use order).
pub(crate) fn get_symcol(r: &mut Reader<'_>) -> Result<SymCol, Malformed> {
    let rows = r.varint_count(1)?;
    let n = r.varint_count(1)?;
    let dict = r.many(n, 1, |r| r.varint_str())?;
    let syms = u32::get_run(r, rows)?;
    SymCol::from_parts(dict, syms).map_err(Malformed)
}

pub(crate) fn put_packcol(out: &mut Vec<u8>, col: &PackCol) {
    put_varint(out, col.len() as u64);
    for s in col.iter() {
        put_varint_str(out, s);
    }
}

pub(crate) fn get_packcol(r: &mut Reader<'_>) -> Result<PackCol, Malformed> {
    let rows = r.varint_count(1)?;
    let mut col = PackCol::default();
    for _ in 0..rows {
        col.push(r.varint_str()?);
    }
    Ok(col)
}

/// Writes a list column of `rows` rows: the row count, then each row's
/// value count and strings, as `row(i)` gives them.
fn put_rows<'s, R: Iterator<Item = &'s str>>(
    out: &mut Vec<u8>,
    rows: usize,
    row: impl Fn(usize) -> (usize, R),
) {
    put_varint(out, rows as u64);
    for i in 0..rows {
        let (n, values) = row(i);
        put_varint(out, n as u64);
        for s in values {
            put_varint_str(out, s);
        }
    }
}

/// Reads a [`put_rows`] list column, handing each row to `push_row`.
fn get_rows<'a>(r: &mut Reader<'a>, mut push_row: impl FnMut(&[&'a str])) -> Result<(), Malformed> {
    let rows = r.varint_count(1)?;
    let mut row = Vec::new();
    for _ in 0..rows {
        let k = r.varint_count(1)?;
        row.clear();
        for _ in 0..k {
            row.push(r.varint_str()?);
        }
        push_row(&row);
    }
    Ok(())
}

pub(crate) fn put_symlist(out: &mut Vec<u8>, col: &SymListCol) {
    put_rows(out, col.len(), |i| (col.row_len(i), col.row(i)));
}

pub(crate) fn get_symlist(r: &mut Reader<'_>) -> Result<SymListCol, Malformed> {
    let mut col = SymListCol::default();
    get_rows(r, |row| col.push_row(row))?;
    Ok(col)
}

pub(crate) fn put_packlist(out: &mut Vec<u8>, col: &PackListCol) {
    put_rows(out, col.len(), |i| (col.row_len(i), col.row(i)));
}

pub(crate) fn get_packlist(r: &mut Reader<'_>) -> Result<PackListCol, Malformed> {
    let mut col = PackListCol::default();
    get_rows(r, |row| col.push_row(row))?;
    Ok(col)
}

// ---- adjacency helpers -----------------------------------------------------

/// Writes one adjacency: source count, per-source degrees, targets, then
/// the payload run. Adjacencies with insert overflow are compacted into a
/// fresh copy first — the image always holds pure CSR.
fn put_adj<P: Scalar>(out: &mut Vec<u8>, adj: &Adj<P>) {
    let compacted;
    let adj = if adj.has_overflow() {
        compacted = adj.compact();
        &compacted
    } else {
        adj
    };
    let (offsets, targets, payloads) = adj.csr_parts();
    put_varint(out, (offsets.len() - 1) as u64);
    for w in offsets.windows(2) {
        put_varint(out, u64::from(w[1] - w[0]));
    }
    put_scalars(out, targets);
    P::put_run(out, payloads);
}

fn get_adj<P: Scalar>(r: &mut Reader<'_>) -> Result<Adj<P>, Malformed> {
    let sources = r.varint_count(1)?;
    let mut offsets = AppendVec::with_capacity(sources + 1);
    offsets.push(0);
    let mut total = 0u32;
    for _ in 0..sources {
        let degree = u32::try_from(r.varint()?).ok();
        total = degree
            .and_then(|d| total.checked_add(d))
            .ok_or_else(|| Malformed("adjacency edge count overflow".into()))?;
        offsets.push(total);
    }
    let edge_count = r.varint_count(1)?;
    if edge_count != total as usize {
        return Err(Malformed(format!("adjacency degrees sum {total} != edge count {edge_count}")));
    }
    let targets = u32::get_run(r, edge_count)?;
    let payloads = P::get_run(r, edge_count)?;
    Ok(Adj::from_csr_parts(offsets, targets, payloads))
}

// ---- sections --------------------------------------------------------------

/// Writes section `tag`, its body written by `write` into a buffer of
/// its own (freed before the next section, so a large section's buffer
/// does not outlive it).
fn put_section(out: &mut Vec<u8>, tag: u8, write: impl FnOnce(&mut Vec<u8>)) {
    let mut body = Vec::new();
    write(&mut body);
    put_u8(out, tag);
    put_checked(out, &body);
}

/// Writes `entity`'s column group section.
pub(crate) fn put_group<G: Group>(out: &mut Vec<u8>, entity: Entity, group: &G) {
    put_section(out, 1 + entity as u8, |b| group.encode(b));
}

/// Writes adjacency section `tag`.
pub(crate) fn put_adj_section<P: Scalar>(out: &mut Vec<u8>, tag: u8, adj: &Adj<P>) {
    put_section(out, tag, |b| put_adj(b, adj));
}

/// Reads the next section, which must carry `tag`, with `read`, which
/// must consume its body.
fn read_section<T>(
    r: &mut Reader<'_>,
    tag: u8,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, Malformed>,
) -> Result<T, Malformed> {
    let found = r.u8()?;
    if found != tag {
        return Err(Malformed(format!("expected section {tag}, found {found}")));
    }
    let mut body = r.checked().map_err(|e| Malformed(format!("section {tag}: {}", e.0)))?;
    let value = read(&mut body)?;
    body.finish()?;
    Ok(value)
}

/// Reads `entity`'s column group section.
pub(crate) fn get_group<G: Group>(r: &mut Reader<'_>, entity: Entity) -> Result<G, Malformed> {
    read_section(r, 1 + entity as u8, G::decode)
}

/// Reads adjacency section `tag`.
pub(crate) fn get_adj_section<P: Scalar>(r: &mut Reader<'_>, tag: u8) -> Result<Adj<P>, Malformed> {
    read_section(r, tag, get_adj)
}

// ---- top level -------------------------------------------------------------

/// Serialises the full store into the tagged-section image payload.
pub fn encode_store(s: &Store) -> Vec<u8> {
    let mut out = Vec::new();
    s.put_sections(&mut out);
    out
}

/// Decodes an image payload back into a full store, rebuilding the
/// derived structures (id hash indexes, name→index maps, date
/// permutation index) the image deliberately omits. Refuses — with a
/// hard error, never a partial store — any checksum mismatch,
/// truncation, count too large for its section, or layout violation.
pub fn decode_store(buf: &[u8]) -> SnbResult<Store> {
    read_store(buf).map_err(|e| e.at("store image"))
}

fn read_store(buf: &[u8]) -> Result<Store, Malformed> {
    let mut r = Reader::new(buf);
    let mut s = Store::get_sections(&mut r)?;
    r.finish()?;
    rebuild_derived(&mut s);
    Ok(s)
}

/// Rebuilds everything the image omits, in the same insert order as the
/// bulk loader so id/name lookups behave identically.
fn rebuild_derived(s: &mut Store) {
    s.rebuild_id_maps();

    fn by_name(names: &SymCol) -> FxHashMap<String, Ix> {
        names.iter().enumerate().map(|(i, n)| (n.to_string(), i as Ix)).collect()
    }
    s.place_by_name.set(by_name(&s.places.name));
    s.tag_by_name.set(by_name(&s.tags.name));
    s.tag_class_by_name.set(by_name(&s.tag_classes.name));

    s.rebuild_date_index();
    s.shrink_columns();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::store_for_config;
    use snb_datagen::GeneratorConfig;

    fn small_store() -> Store {
        let mut c = GeneratorConfig::for_scale_name("0.001").expect("scale");
        c.persons = 60;
        store_for_config(&c)
    }

    /// A bulk store after an entity-delete batch (DEL 1, 4 and 6), then
    /// its update stream, which leaves insert overflow.
    fn deleted_then_inserted_store() -> Store {
        let mut c = GeneratorConfig::for_scale_name("0.001").expect("scale");
        c.persons = 60;
        let (mut s, events) = crate::bulk_store_and_stream(&c);
        let world = snb_datagen::dictionaries::StaticWorld::build(c.seed);
        let post = (0..s.messages.len()).find(|&m| s.messages.is_post(m as Ix)).expect("a post");
        let ops = [
            crate::DeleteOp::Person(s.persons.id[5]),
            crate::DeleteOp::Forum(s.forums.id[3]),
            crate::DeleteOp::Message(s.messages.id[post]),
        ];
        s.apply_deletes(&ops).expect("delete batch");
        // An event naming a deleted entity is refused and writes nothing.
        let applied = events.iter().filter(|e| s.apply_event(e, &world).is_ok()).count();
        assert!(applied > 0 && !s.clone().fold_overflow().is_empty(), "inserts must overflow");
        s
    }

    #[test]
    fn image_round_trips_bit_identically() {
        for store in [small_store(), deleted_then_inserted_store()] {
            let image = encode_store(&store);
            let decoded = decode_store(&image).expect("decode");
            // Re-encoding the decoded store must reproduce the image byte
            // for byte — the strongest whole-store equality check available
            // without a field-by-field walk (the codec covers every column
            // and adjacency, so any drift shows up here).
            assert_eq!(encode_store(&decoded), image, "decode→encode must be the identity");
            decoded.validate_invariants().expect("decoded store invariants");
            assert!(decoded.date_index_fresh(), "date index must be rebuilt");
            // Derived indexes answer like the originals.
            let id = store.persons.id[3];
            assert_eq!(decoded.person(id).unwrap(), store.person(id).unwrap());
            let place = store.places.name.iter().next().unwrap();
            assert_eq!(
                decoded.place_by_name.get(place).copied(),
                store.place_by_name.get(place).copied()
            );
        }
    }

    #[test]
    fn image_round_trips_overflow_adjacencies() {
        let mut store = small_store();
        // Simulate streamed inserts: overflow edges must survive the
        // image (compacted into CSR form) even though the live store
        // has not compacted yet.
        store.knows.insert(0, 1, snb_core::datetime::DateTime(42));
        store.knows.insert(1, 0, snb_core::datetime::DateTime(42));
        let decoded = decode_store(&encode_store(&store)).expect("decode");
        assert_eq!(decoded.knows.edge_count(), store.knows.edge_count());
        assert!(decoded.knows.neighbors(0).any(|(t, d)| t == 1 && d.0 == 42));
    }

    #[test]
    fn every_corrupted_byte_is_refused() {
        let store = small_store();
        let image = encode_store(&store);
        // Flip one byte at a spread of positions (covering headers,
        // checksums, and bodies of several sections) — decode must
        // refuse every time, never yield a store.
        for pos in (0..image.len()).step_by(image.len() / 97 + 1) {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_store(&bad).is_err(),
                "flipped byte at {pos}/{} must be refused",
                image.len()
            );
        }
    }

    #[test]
    fn truncation_is_refused_at_every_section_boundary() {
        let image = encode_store(&small_store());
        for cut in [0, 1, 12, 13, image.len() / 2, image.len() - 1] {
            assert!(decode_store(&image[..cut]).is_err(), "truncation at {cut} must be refused");
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = Store::default();
        let decoded = decode_store(&encode_store(&store)).expect("decode empty");
        assert_eq!(decoded.persons.len(), 0);
        assert_eq!(decoded.messages.len(), 0);
        decoded.validate_invariants().expect("empty invariants");
    }
}
