//! Store-image codec: the full [`Store`] ⇄ a compact checksummed byte
//! image.
//!
//! This is the payload format of the on-disk store-image snapshot (the
//! file framing — magic, header, fsync/rename discipline — lives in the
//! server crate next to the WAL). The codec's job is to make recovery
//! and follower bootstrap cost proportional to *live data*, not to
//! history length: a recovered process decodes this image and replays
//! only the WAL tail written after it.
//!
//! Layout: a fixed sequence of tagged sections, each a tag byte and a
//! [`snb_core::bytes`] checked frame (`[u32 len][u64 fnv64(body)][body]`).
//! Sections cover the seven
//! entity column groups and all 21 adjacencies. Hash indexes, the
//! name→index maps, and the date permutation index are *not* stored —
//! they are deterministic functions of the columns and are rebuilt at
//! decode time (same insert order as the bulk loader, so lookups behave
//! identically).
//!
//! Within sections everything is varints: sorted id and timestamp
//! columns are zigzag-delta packed (~1–2 bytes/row), `Ix` references are
//! plain varints, interned string columns are written as a per-column
//! local dictionary plus per-row dictionary indices and re-interned into
//! the process-global dictionary at load (symbols are process-local and
//! must never cross a process boundary). Any length/checksum mismatch,
//! unknown tag, count too large for its section, or trailing bytes
//! decodes to a hard [`SnbError::Parse`] — a corrupt image is refused,
//! never half-loaded.
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
use crate::columns::{
    ForumCols, IdMap, Ix, MessageCols, OrganisationCols, PersonCols, PlaceCols, TagClassCols,
    TagCols,
};
use crate::intern::{interner, PackCol, PackListCol, SymCol, SymListCol};
use crate::store::Store;

// Section tags, in the exact order they appear in the image. Decode
// enforces this order: a permuted or truncated image is corrupt.
const SECT_PERSONS: u8 = 1;
const SECT_FORUMS: u8 = 2;
const SECT_MESSAGES: u8 = 3;
const SECT_PLACES: u8 = 4;
const SECT_TAGS: u8 = 5;
const SECT_TAG_CLASSES: u8 = 6;
const SECT_ORGANISATIONS: u8 = 7;
const SECT_ADJ_BASE: u8 = 10; // 10..=30: the 21 adjacencies in Store field order.
const ADJ_COUNT: u8 = 21;

fn ix(r: &mut Reader<'_>) -> Result<Ix, Malformed> {
    u32::try_from(r.varint()?).map_err(|_| Malformed("u32 overflow".into()))
}

// ---- scalar column helpers -------------------------------------------------

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    put_varint(out, values.len() as u64);
    put_deltas(out, values.iter().map(|&v| v as i64));
}

/// `n` values read by `read`, `n` having passed the count rule.
fn column<T: Copy>(
    r: &mut Reader<'_>,
    n: usize,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, Malformed>,
) -> Result<AppendVec<T>, Malformed> {
    let mut out = AppendVec::with_capacity(n);
    for _ in 0..n {
        out.push(read(r)?);
    }
    Ok(out)
}

/// A [`put_deltas`] run of `n` values (`n` having passed the count
/// rule), each mapped by `value`.
fn delta_column<T: Copy>(
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

fn get_u64s(r: &mut Reader<'_>) -> Result<AppendVec<u64>, Malformed> {
    let n = r.varint_count(1)?;
    delta_column(r, n, |v| Ok(v as u64))
}

fn put_ixs(out: &mut Vec<u8>, values: &[Ix]) {
    put_varint(out, values.len() as u64);
    for &v in values {
        put_varint(out, u64::from(v));
    }
}

fn get_ixs(r: &mut Reader<'_>) -> Result<AppendVec<Ix>, Malformed> {
    let n = r.varint_count(1)?;
    column(r, n, ix)
}

fn put_dates(out: &mut Vec<u8>, values: &[Date]) {
    put_varint(out, values.len() as u64);
    put_deltas(out, values.iter().map(|d| i64::from(d.0)));
}

fn get_dates(r: &mut Reader<'_>) -> Result<AppendVec<Date>, Malformed> {
    let n = r.varint_count(1)?;
    delta_column(r, n, |v| {
        i32::try_from(v).map(Date).map_err(|_| Malformed("date out of range".into()))
    })
}

fn put_datetimes(out: &mut Vec<u8>, values: &[DateTime]) {
    put_varint(out, values.len() as u64);
    put_deltas(out, values.iter().map(|d| d.0));
}

fn get_datetimes(r: &mut Reader<'_>) -> Result<AppendVec<DateTime>, Malformed> {
    let n = r.varint_count(1)?;
    delta_column(r, n, |v| Ok(DateTime(v)))
}

fn put_enums<T: Copy>(out: &mut Vec<u8>, values: &[T], enc: impl Fn(T) -> u8) {
    put_varint(out, values.len() as u64);
    out.extend(values.iter().map(|&v| enc(v)));
}

fn get_enums<T: Copy>(
    r: &mut Reader<'_>,
    dec: impl Fn(u8) -> Option<T>,
) -> Result<AppendVec<T>, Malformed> {
    let n = r.varint_count(1)?;
    let mut out = AppendVec::with_capacity(n);
    for &b in r.take(n)? {
        out.push(dec(b).ok_or_else(|| Malformed(format!("invalid enum byte {b}")))?);
    }
    Ok(out)
}

// ---- string column helpers -------------------------------------------------

/// Builds a local dictionary over an iterator of symbols and writes
/// `dict_len, dict strings..., rows..., per-row local index`.
fn put_symcol(out: &mut Vec<u8>, col: &SymCol) {
    let (dict, locals) = localize(col.syms().iter().copied());
    put_varint(out, col.len() as u64);
    put_dict(out, &dict);
    for local in locals {
        put_varint(out, u64::from(local));
    }
}

fn localize(syms: impl Iterator<Item = u32>) -> (Vec<&'static str>, Vec<u32>) {
    let mut map: FxHashMap<u32, u32> = FxHashMap::default();
    let mut dict = Vec::new();
    let mut locals = Vec::new();
    for sym in syms {
        let local = *map.entry(sym).or_insert_with(|| {
            dict.push(interner().resolve(sym));
            (dict.len() - 1) as u32
        });
        locals.push(local);
    }
    (dict, locals)
}

fn put_dict(out: &mut Vec<u8>, dict: &[&str]) {
    put_varint(out, dict.len() as u64);
    for s in dict {
        put_varint_str(out, s);
    }
}

fn get_dict(r: &mut Reader<'_>) -> Result<Vec<u32>, Malformed> {
    let n = r.varint_count(1)?;
    r.many(n, 1, |r| r.varint_str().map(|s| interner().intern(s)))
}

fn get_symcol(r: &mut Reader<'_>) -> Result<SymCol, Malformed> {
    let rows = r.varint_count(1)?;
    let dict = get_dict(r)?;
    let mut col = SymCol::default();
    for _ in 0..rows {
        let local = usize::try_from(r.varint()?).ok().and_then(|i| dict.get(i));
        col.push_sym(*local.ok_or_else(|| Malformed("dictionary index out of range".into()))?);
    }
    Ok(col)
}

fn put_packcol(out: &mut Vec<u8>, col: &PackCol) {
    put_varint(out, col.len() as u64);
    for s in col.iter() {
        put_varint_str(out, s);
    }
}

fn get_packcol(r: &mut Reader<'_>) -> Result<PackCol, Malformed> {
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

fn get_symlist(r: &mut Reader<'_>) -> Result<SymListCol, Malformed> {
    let mut col = SymListCol::default();
    get_rows(r, |row| col.push_row(row))?;
    Ok(col)
}

fn get_packlist(r: &mut Reader<'_>) -> Result<PackListCol, Malformed> {
    let mut col = PackListCol::default();
    get_rows(r, |row| col.push_row(row))?;
    Ok(col)
}

// ---- adjacency helpers -----------------------------------------------------

/// Writes one adjacency: source count, per-source degrees, targets, then
/// the payload run (payload encoding differs per type). Adjacencies with
/// insert overflow are compacted into a fresh copy first — the image always
/// holds pure CSR.
fn put_adj<P: Copy>(
    out: &mut Vec<u8>,
    adj: &Adj<P>,
    put_payloads: impl FnOnce(&mut Vec<u8>, &[P]),
) {
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
    put_varint(out, targets.len() as u64);
    for &t in targets {
        put_varint(out, u64::from(t));
    }
    put_payloads(out, payloads);
}

fn get_adj<P: Copy>(
    r: &mut Reader<'_>,
    get_payloads: impl FnOnce(&mut Reader<'_>, usize) -> Result<AppendVec<P>, Malformed>,
) -> Result<Adj<P>, Malformed> {
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
    let targets = column(r, edge_count, ix)?;
    let payloads = get_payloads(r, edge_count)?;
    if payloads.len() != edge_count {
        return Err(Malformed("adjacency payload count mismatch".into()));
    }
    Ok(Adj::from_csr_parts(offsets, targets, payloads))
}

fn put_adj_unit(out: &mut Vec<u8>, adj: &Adj<()>) {
    put_adj(out, adj, |_, _| {});
}

fn get_adj_unit(r: &mut Reader<'_>) -> Result<Adj<()>, Malformed> {
    get_adj(r, |_, n| Ok(AppendVec::from_elem((), n)))
}

fn put_adj_datetime(out: &mut Vec<u8>, adj: &Adj<DateTime>) {
    put_adj(out, adj, |out, p| put_deltas(out, p.iter().map(|d| d.0)));
}

fn get_adj_datetime(r: &mut Reader<'_>) -> Result<Adj<DateTime>, Malformed> {
    get_adj(r, |r, n| delta_column(r, n, |v| Ok(DateTime(v))))
}

fn put_adj_i32(out: &mut Vec<u8>, adj: &Adj<i32>) {
    put_adj(out, adj, |out, p| put_deltas(out, p.iter().map(|&v| i64::from(v))));
}

fn get_adj_i32(r: &mut Reader<'_>) -> Result<Adj<i32>, Malformed> {
    get_adj(r, |r, n| {
        delta_column(r, n, |v| {
            i32::try_from(v).map_err(|_| Malformed("i32 payload out of range".into()))
        })
    })
}

// ---- enum byte maps --------------------------------------------------------

fn gender_enc(g: Gender) -> u8 {
    match g {
        Gender::Male => 0,
        Gender::Female => 1,
    }
}

fn gender_dec(b: u8) -> Option<Gender> {
    match b {
        0 => Some(Gender::Male),
        1 => Some(Gender::Female),
        _ => None,
    }
}

fn msg_kind_enc(k: MessageKind) -> u8 {
    match k {
        MessageKind::Post => 0,
        MessageKind::Comment => 1,
    }
}

fn msg_kind_dec(b: u8) -> Option<MessageKind> {
    match b {
        0 => Some(MessageKind::Post),
        1 => Some(MessageKind::Comment),
        _ => None,
    }
}

fn place_kind_enc(k: PlaceKind) -> u8 {
    match k {
        PlaceKind::City => 0,
        PlaceKind::Country => 1,
        PlaceKind::Continent => 2,
    }
}

fn place_kind_dec(b: u8) -> Option<PlaceKind> {
    match b {
        0 => Some(PlaceKind::City),
        1 => Some(PlaceKind::Country),
        2 => Some(PlaceKind::Continent),
        _ => None,
    }
}

fn org_kind_enc(k: OrganisationKind) -> u8 {
    match k {
        OrganisationKind::University => 0,
        OrganisationKind::Company => 1,
    }
}

fn org_kind_dec(b: u8) -> Option<OrganisationKind> {
    match b {
        0 => Some(OrganisationKind::University),
        1 => Some(OrganisationKind::Company),
        _ => None,
    }
}

// ---- sections --------------------------------------------------------------

fn put_section(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    put_u8(out, tag);
    put_checked(out, body);
}

/// The body of the next section, which must carry `want`.
fn open_section<'a>(r: &mut Reader<'a>, want: u8) -> Result<Reader<'a>, Malformed> {
    let tag = r.u8()?;
    if tag != want {
        return Err(Malformed(format!("expected section {want}, found {tag}")));
    }
    r.checked().map_err(|e| Malformed(format!("section {tag}: {}", e.0)))
}

fn encode_persons(c: &PersonCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.first_name);
    put_symcol(&mut b, &c.last_name);
    put_enums(&mut b, &c.gender, gender_enc);
    put_dates(&mut b, &c.birthday);
    put_datetimes(&mut b, &c.creation_date);
    put_packcol(&mut b, &c.location_ip);
    put_symcol(&mut b, &c.browser);
    put_ixs(&mut b, &c.city);
    put_rows(&mut b, c.emails.len(), move |i| (c.emails.row_len(i), c.emails.row(i)));
    put_rows(&mut b, c.speaks.len(), move |i| (c.speaks.row_len(i), c.speaks.row(i)));
    b
}

fn decode_persons(r: &mut Reader<'_>) -> Result<PersonCols, Malformed> {
    let c = PersonCols {
        id: get_u64s(r)?,
        first_name: get_symcol(r)?,
        last_name: get_symcol(r)?,
        gender: get_enums(r, gender_dec)?,
        birthday: get_dates(r)?,
        creation_date: get_datetimes(r)?,
        location_ip: get_packcol(r)?,
        browser: get_symcol(r)?,
        city: get_ixs(r)?,
        emails: get_packlist(r)?,
        speaks: get_symlist(r)?,
    };
    r.finish()?;
    Ok(c)
}

fn encode_forums(c: &ForumCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_packcol(&mut b, &c.title);
    put_datetimes(&mut b, &c.creation_date);
    put_ixs(&mut b, &c.moderator);
    b
}

fn decode_forums(r: &mut Reader<'_>) -> Result<ForumCols, Malformed> {
    let c = ForumCols {
        id: get_u64s(r)?,
        title: get_packcol(r)?,
        creation_date: get_datetimes(r)?,
        moderator: get_ixs(r)?,
    };
    r.finish()?;
    Ok(c)
}

fn encode_messages(c: &MessageCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_enums(&mut b, &c.kind, msg_kind_enc);
    put_datetimes(&mut b, &c.creation_date);
    put_ixs(&mut b, &c.creator);
    put_ixs(&mut b, &c.country);
    put_symcol(&mut b, &c.browser);
    put_packcol(&mut b, &c.location_ip);
    put_packcol(&mut b, &c.content);
    put_ixs(&mut b, &c.length);
    put_packcol(&mut b, &c.image_file);
    put_symcol(&mut b, &c.language);
    put_ixs(&mut b, &c.forum);
    put_ixs(&mut b, &c.reply_of);
    put_ixs(&mut b, &c.root_post);
    b
}

fn decode_messages(r: &mut Reader<'_>) -> Result<MessageCols, Malformed> {
    let c = MessageCols {
        id: get_u64s(r)?,
        kind: get_enums(r, msg_kind_dec)?,
        creation_date: get_datetimes(r)?,
        creator: get_ixs(r)?,
        country: get_ixs(r)?,
        browser: get_symcol(r)?,
        location_ip: get_packcol(r)?,
        content: get_packcol(r)?,
        length: get_ixs(r)?,
        image_file: get_packcol(r)?,
        language: get_symcol(r)?,
        forum: get_ixs(r)?,
        reply_of: get_ixs(r)?,
        root_post: get_ixs(r)?,
    };
    r.finish()?;
    Ok(c)
}

fn encode_places(c: &PlaceCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_enums(&mut b, &c.kind, place_kind_enc);
    put_ixs(&mut b, &c.part_of);
    b
}

fn decode_places(r: &mut Reader<'_>) -> Result<PlaceCols, Malformed> {
    let c = PlaceCols {
        id: get_u64s(r)?,
        name: get_symcol(r)?,
        kind: get_enums(r, place_kind_dec)?,
        part_of: get_ixs(r)?,
    };
    r.finish()?;
    Ok(c)
}

fn encode_tags(c: &TagCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_ixs(&mut b, &c.class);
    b
}

fn decode_tags(r: &mut Reader<'_>) -> Result<TagCols, Malformed> {
    let c = TagCols { id: get_u64s(r)?, name: get_symcol(r)?, class: get_ixs(r)? };
    r.finish()?;
    Ok(c)
}

fn encode_tag_classes(c: &TagClassCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_ixs(&mut b, &c.parent);
    b
}

fn decode_tag_classes(r: &mut Reader<'_>) -> Result<TagClassCols, Malformed> {
    let c = TagClassCols { id: get_u64s(r)?, name: get_symcol(r)?, parent: get_ixs(r)? };
    r.finish()?;
    Ok(c)
}

fn encode_organisations(c: &OrganisationCols) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64s(&mut b, &c.id);
    put_symcol(&mut b, &c.name);
    put_enums(&mut b, &c.kind, org_kind_enc);
    put_ixs(&mut b, &c.place);
    b
}

fn decode_organisations(r: &mut Reader<'_>) -> Result<OrganisationCols, Malformed> {
    let c = OrganisationCols {
        id: get_u64s(r)?,
        name: get_symcol(r)?,
        kind: get_enums(r, org_kind_dec)?,
        place: get_ixs(r)?,
    };
    r.finish()?;
    Ok(c)
}

// ---- top level -------------------------------------------------------------

/// Serialises the full store into the tagged-section image payload.
pub fn encode_store(s: &Store) -> Vec<u8> {
    let mut out = Vec::new();
    put_section(&mut out, SECT_PERSONS, &encode_persons(&s.persons));
    put_section(&mut out, SECT_FORUMS, &encode_forums(&s.forums));
    put_section(&mut out, SECT_MESSAGES, &encode_messages(&s.messages));
    put_section(&mut out, SECT_PLACES, &encode_places(&s.places));
    put_section(&mut out, SECT_TAGS, &encode_tags(&s.tags));
    put_section(&mut out, SECT_TAG_CLASSES, &encode_tag_classes(&s.tag_classes));
    put_section(&mut out, SECT_ORGANISATIONS, &encode_organisations(&s.organisations));
    let mut body = Vec::new();
    let mut adj_section = |out: &mut Vec<u8>, i: u8, write: &mut dyn FnMut(&mut Vec<u8>)| {
        body.clear();
        write(&mut body);
        put_section(out, SECT_ADJ_BASE + i, &body);
    };
    adj_section(&mut out, 0, &mut |b| put_adj_datetime(b, &s.knows));
    adj_section(&mut out, 1, &mut |b| put_adj_unit(b, &s.person_interest));
    adj_section(&mut out, 2, &mut |b| put_adj_unit(b, &s.interest_person));
    adj_section(&mut out, 3, &mut |b| put_adj_i32(b, &s.person_study));
    adj_section(&mut out, 4, &mut |b| put_adj_i32(b, &s.person_work));
    adj_section(&mut out, 5, &mut |b| put_adj_datetime(b, &s.forum_member));
    adj_section(&mut out, 6, &mut |b| put_adj_datetime(b, &s.member_forum));
    adj_section(&mut out, 7, &mut |b| put_adj_unit(b, &s.forum_tag));
    adj_section(&mut out, 8, &mut |b| put_adj_unit(b, &s.tag_forum));
    adj_section(&mut out, 9, &mut |b| put_adj_unit(b, &s.message_tag));
    adj_section(&mut out, 10, &mut |b| put_adj_unit(b, &s.tag_message));
    adj_section(&mut out, 11, &mut |b| put_adj_unit(b, &s.person_messages));
    adj_section(&mut out, 12, &mut |b| put_adj_unit(b, &s.forum_posts));
    adj_section(&mut out, 13, &mut |b| put_adj_unit(b, &s.message_replies));
    adj_section(&mut out, 14, &mut |b| put_adj_datetime(b, &s.person_likes));
    adj_section(&mut out, 15, &mut |b| put_adj_datetime(b, &s.message_likes));
    adj_section(&mut out, 16, &mut |b| put_adj_unit(b, &s.place_children));
    adj_section(&mut out, 17, &mut |b| put_adj_unit(b, &s.city_person));
    adj_section(&mut out, 18, &mut |b| put_adj_unit(b, &s.tagclass_children));
    adj_section(&mut out, 19, &mut |b| put_adj_unit(b, &s.tagclass_tags));
    adj_section(&mut out, 20, &mut |b| put_adj_unit(b, &s.person_moderates));
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
    let mut s = Store::default();

    s.persons.set(decode_persons(&mut open_section(&mut r, SECT_PERSONS)?)?);
    s.forums.set(decode_forums(&mut open_section(&mut r, SECT_FORUMS)?)?);
    s.messages.set(decode_messages(&mut open_section(&mut r, SECT_MESSAGES)?)?);
    s.places.set(decode_places(&mut open_section(&mut r, SECT_PLACES)?)?);
    s.tags.set(decode_tags(&mut open_section(&mut r, SECT_TAGS)?)?);
    s.tag_classes.set(decode_tag_classes(&mut open_section(&mut r, SECT_TAG_CLASSES)?)?);
    s.organisations.set(decode_organisations(&mut open_section(&mut r, SECT_ORGANISATIONS)?)?);

    fn adj_sect<P: Copy>(
        r: &mut Reader<'_>,
        i: u8,
        get: impl FnOnce(&mut Reader<'_>) -> Result<Adj<P>, Malformed>,
    ) -> Result<Adj<P>, Malformed> {
        let mut body = open_section(r, SECT_ADJ_BASE + i)?;
        let adj = get(&mut body)?;
        body.finish()?;
        Ok(adj)
    }
    debug_assert_eq!(SECT_ADJ_BASE + ADJ_COUNT - 1, 30);
    s.knows.set(adj_sect(&mut r, 0, get_adj_datetime)?);
    s.person_interest.set(adj_sect(&mut r, 1, get_adj_unit)?);
    s.interest_person.set(adj_sect(&mut r, 2, get_adj_unit)?);
    s.person_study.set(adj_sect(&mut r, 3, get_adj_i32)?);
    s.person_work.set(adj_sect(&mut r, 4, get_adj_i32)?);
    s.forum_member.set(adj_sect(&mut r, 5, get_adj_datetime)?);
    s.member_forum.set(adj_sect(&mut r, 6, get_adj_datetime)?);
    s.forum_tag.set(adj_sect(&mut r, 7, get_adj_unit)?);
    s.tag_forum.set(adj_sect(&mut r, 8, get_adj_unit)?);
    s.message_tag.set(adj_sect(&mut r, 9, get_adj_unit)?);
    s.tag_message.set(adj_sect(&mut r, 10, get_adj_unit)?);
    s.person_messages.set(adj_sect(&mut r, 11, get_adj_unit)?);
    s.forum_posts.set(adj_sect(&mut r, 12, get_adj_unit)?);
    s.message_replies.set(adj_sect(&mut r, 13, get_adj_unit)?);
    s.person_likes.set(adj_sect(&mut r, 14, get_adj_datetime)?);
    s.message_likes.set(adj_sect(&mut r, 15, get_adj_datetime)?);
    s.place_children.set(adj_sect(&mut r, 16, get_adj_unit)?);
    s.city_person.set(adj_sect(&mut r, 17, get_adj_unit)?);
    s.tagclass_children.set(adj_sect(&mut r, 18, get_adj_unit)?);
    s.tagclass_tags.set(adj_sect(&mut r, 19, get_adj_unit)?);
    s.person_moderates.set(adj_sect(&mut r, 20, get_adj_unit)?);
    r.finish()?;

    rebuild_derived(&mut s);
    Ok(s)
}

/// Rebuilds everything the image omits, in the same insert order as the
/// bulk loader so id/name lookups behave identically.
fn rebuild_derived(s: &mut Store) {
    s.person_ix.set(IdMap::of_column(&s.persons.id));
    s.forum_ix.set(IdMap::of_column(&s.forums.id));
    s.message_ix.set(IdMap::of_column(&s.messages.id));
    s.place_ix.set(IdMap::of_column(&s.places.id));
    s.tag_ix.set(IdMap::of_column(&s.tags.id));
    s.tag_class_ix.set(IdMap::of_column(&s.tag_classes.id));
    s.org_ix.set(IdMap::of_column(&s.organisations.id));

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

    #[test]
    fn image_round_trips_bit_identically() {
        let store = small_store();
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
