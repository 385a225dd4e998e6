//! Binary codec for update-stream events and delete batches — the
//! payload format shared by the wire protocol's `Write` workload and the
//! write-ahead log.
//!
//! The encoding reuses the proto primitives (little-endian integers,
//! `u16`-length strings) and is an exact inverse pair: every field of
//! every `Raw*` record round-trips, which `events::tests` pins down over
//! a real generated stream. Exactness matters more than compactness here
//! — WAL replay must rebuild *the same* store the original apply
//! produced, byte for byte of query results.

use snb_core::datetime::DateTime;
use snb_core::model::{
    ForumId, ForumKind, Gender, MessageId, MessageKind, OrganisationId, PersonId, PlaceId, TagId,
};
use snb_datagen::graph::{RawForum, RawKnows, RawLike, RawMembership, RawMessage, RawPerson};
use snb_datagen::stream::{TimedEvent, UpdateEvent};
use snb_store::DeleteOp;

use crate::proto::{
    put_i32, put_i64, put_str, put_strs, put_u16, put_u32, put_u64, put_u8, DecodeError, Reader,
    WriteOps,
};

// ---------------------------------------------------------------------
// Small composite helpers.
// ---------------------------------------------------------------------

/// Interns `s` in the global store dictionary and returns the leaked
/// `&'static str` — decoded wire values whose domain is a bounded
/// dictionary (person names) borrow the interner's copy.
fn intern_static(s: &str) -> &'static str {
    let it = snb_store::interner();
    it.resolve(it.intern(s))
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
    }
}

fn opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.u64()?),
    })
}

fn put_opt_str(buf: &mut Vec<u8>, v: &Option<String>) {
    match v {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
    }
}

fn opt_str(r: &mut Reader<'_>) -> Result<Option<String>, DecodeError> {
    Ok(match r.u8()? {
        0 => None,
        _ => Some(r.string()?),
    })
}

fn put_tag_ids(buf: &mut Vec<u8>, tags: &[TagId]) {
    put_u16(buf, tags.len() as u16);
    for t in tags {
        put_u64(buf, t.0);
    }
}

fn tag_ids(r: &mut Reader<'_>) -> Result<Vec<TagId>, DecodeError> {
    let n = r.u16()? as usize;
    (0..n).map(|_| Ok(TagId(r.u64()?))).collect()
}

// ---------------------------------------------------------------------
// Per-record codecs.
// ---------------------------------------------------------------------

fn encode_person(buf: &mut Vec<u8>, p: &RawPerson) {
    put_u64(buf, p.id.0);
    put_str(buf, p.first_name);
    put_str(buf, p.last_name);
    put_u8(
        buf,
        match p.gender {
            Gender::Male => 0,
            Gender::Female => 1,
        },
    );
    put_i32(buf, p.birthday.0);
    put_i64(buf, p.creation_date.0);
    put_str(buf, &p.location_ip);
    put_u8(buf, p.browser);
    put_u64(buf, p.city.0);
    put_u64(buf, p.country as u64);
    put_u16(buf, p.languages.len() as u16);
    buf.extend_from_slice(&p.languages);
    put_strs(buf, &p.emails);
    put_tag_ids(buf, &p.interests);
    match p.study_at {
        None => put_u8(buf, 0),
        Some((org, year)) => {
            put_u8(buf, 1);
            put_u64(buf, org.0);
            put_i32(buf, year);
        }
    }
    put_u16(buf, p.work_at.len() as u16);
    for &(org, year) in &p.work_at {
        put_u64(buf, org.0);
        put_i32(buf, year);
    }
}

fn decode_person(r: &mut Reader<'_>) -> Result<RawPerson, DecodeError> {
    Ok(RawPerson {
        id: PersonId(r.u64()?),
        // Names come from the generator's static pools, so routing the
        // decode through the interner (whose dictionary they already
        // populate) hands back `&'static str` without a per-event leak.
        first_name: intern_static(&r.string()?),
        last_name: intern_static(&r.string()?),
        gender: match r.u8()? {
            0 => Gender::Male,
            1 => Gender::Female,
            other => return Err(r.err(format!("bad gender tag {other}"))),
        },
        birthday: snb_core::Date(r.i32()?),
        creation_date: DateTime(r.i64()?),
        location_ip: r.string()?,
        browser: r.u8()?,
        city: PlaceId(r.u64()?),
        country: r.u64()? as usize,
        languages: {
            let n = r.u16()? as usize;
            r.take(n)?.to_vec()
        },
        emails: r.strings()?,
        interests: tag_ids(r)?,
        study_at: match r.u8()? {
            0 => None,
            _ => Some((OrganisationId(r.u64()?), r.i32()?)),
        },
        work_at: {
            let n = r.u16()? as usize;
            (0..n).map(|_| Ok((OrganisationId(r.u64()?), r.i32()?))).collect::<Result<_, _>>()?
        },
    })
}

fn encode_knows(buf: &mut Vec<u8>, k: &RawKnows) {
    put_u64(buf, k.a.0);
    put_u64(buf, k.b.0);
    put_i64(buf, k.creation_date.0);
    put_u8(buf, k.dimension);
}

fn decode_knows(r: &mut Reader<'_>) -> Result<RawKnows, DecodeError> {
    Ok(RawKnows {
        a: PersonId(r.u64()?),
        b: PersonId(r.u64()?),
        creation_date: DateTime(r.i64()?),
        dimension: r.u8()?,
    })
}

fn encode_forum(buf: &mut Vec<u8>, f: &RawForum) {
    put_u64(buf, f.id.0);
    put_u8(
        buf,
        match f.kind {
            ForumKind::Wall => 0,
            ForumKind::Album => 1,
            ForumKind::Group => 2,
        },
    );
    put_str(buf, &f.title);
    put_i64(buf, f.creation_date.0);
    put_u64(buf, f.moderator.0);
    put_tag_ids(buf, &f.tags);
}

fn decode_forum(r: &mut Reader<'_>) -> Result<RawForum, DecodeError> {
    Ok(RawForum {
        id: ForumId(r.u64()?),
        kind: match r.u8()? {
            0 => ForumKind::Wall,
            1 => ForumKind::Album,
            2 => ForumKind::Group,
            other => return Err(r.err(format!("bad forum kind {other}"))),
        },
        title: r.string()?,
        creation_date: DateTime(r.i64()?),
        moderator: PersonId(r.u64()?),
        tags: tag_ids(r)?,
    })
}

fn encode_membership(buf: &mut Vec<u8>, m: &RawMembership) {
    put_u64(buf, m.forum.0);
    put_u64(buf, m.person.0);
    put_i64(buf, m.join_date.0);
}

fn decode_membership(r: &mut Reader<'_>) -> Result<RawMembership, DecodeError> {
    Ok(RawMembership {
        forum: ForumId(r.u64()?),
        person: PersonId(r.u64()?),
        join_date: DateTime(r.i64()?),
    })
}

fn encode_message(buf: &mut Vec<u8>, m: &RawMessage) {
    put_u64(buf, m.id.0);
    put_u8(
        buf,
        match m.kind {
            MessageKind::Post => 0,
            MessageKind::Comment => 1,
        },
    );
    put_i64(buf, m.creation_date.0);
    put_u64(buf, m.creator.0);
    put_u64(buf, m.country.0);
    put_str(buf, &m.location_ip);
    put_u8(buf, m.browser);
    put_str(buf, &m.content);
    put_u32(buf, m.length);
    put_opt_str(buf, &m.image_file);
    match m.language {
        None => put_u8(buf, 0),
        Some(l) => {
            put_u8(buf, 1);
            put_u8(buf, l);
        }
    }
    put_opt_u64(buf, m.forum.map(|f| f.0));
    put_opt_u64(buf, m.reply_of.map(|p| p.0));
    put_u64(buf, m.root_post.0);
    put_tag_ids(buf, &m.tags);
}

fn decode_message(r: &mut Reader<'_>) -> Result<RawMessage, DecodeError> {
    Ok(RawMessage {
        id: MessageId(r.u64()?),
        kind: match r.u8()? {
            0 => MessageKind::Post,
            1 => MessageKind::Comment,
            other => return Err(r.err(format!("bad message kind {other}"))),
        },
        creation_date: DateTime(r.i64()?),
        creator: PersonId(r.u64()?),
        country: PlaceId(r.u64()?),
        location_ip: r.string()?,
        browser: r.u8()?,
        content: r.string()?,
        length: r.u32()?,
        image_file: opt_str(r)?,
        language: match r.u8()? {
            0 => None,
            _ => Some(r.u8()?),
        },
        forum: opt_u64(r)?.map(ForumId),
        reply_of: opt_u64(r)?.map(MessageId),
        root_post: MessageId(r.u64()?),
        tags: tag_ids(r)?,
    })
}

fn encode_like(buf: &mut Vec<u8>, l: &RawLike) {
    put_u64(buf, l.person.0);
    put_u64(buf, l.message.0);
    put_i64(buf, l.creation_date.0);
}

fn decode_like(r: &mut Reader<'_>) -> Result<RawLike, DecodeError> {
    Ok(RawLike {
        person: PersonId(r.u64()?),
        message: MessageId(r.u64()?),
        creation_date: DateTime(r.i64()?),
    })
}

// ---------------------------------------------------------------------
// Event and delete-op codecs.
// ---------------------------------------------------------------------

/// Serialises one timed event: `t`, `t_d`, the spec operation id, and
/// the per-record payload.
pub fn encode_event(buf: &mut Vec<u8>, ev: &TimedEvent) {
    put_i64(buf, ev.timestamp.0);
    put_i64(buf, ev.dependent.0);
    put_u8(buf, ev.event.operation_id());
    match &ev.event {
        UpdateEvent::AddPerson(p) => encode_person(buf, p),
        UpdateEvent::AddLikePost(l) | UpdateEvent::AddLikeComment(l) => encode_like(buf, l),
        UpdateEvent::AddForum(f) => encode_forum(buf, f),
        UpdateEvent::AddMembership(m) => encode_membership(buf, m),
        UpdateEvent::AddPost(m) | UpdateEvent::AddComment(m) => encode_message(buf, m),
        UpdateEvent::AddKnows(k) => encode_knows(buf, k),
    }
}

/// Parses one timed event.
pub(crate) fn decode_event(r: &mut Reader<'_>) -> Result<TimedEvent, DecodeError> {
    let timestamp = DateTime(r.i64()?);
    let dependent = DateTime(r.i64()?);
    let event = match r.u8()? {
        1 => UpdateEvent::AddPerson(decode_person(r)?),
        2 => UpdateEvent::AddLikePost(decode_like(r)?),
        3 => UpdateEvent::AddLikeComment(decode_like(r)?),
        4 => UpdateEvent::AddForum(decode_forum(r)?),
        5 => UpdateEvent::AddMembership(decode_membership(r)?),
        6 => UpdateEvent::AddPost(decode_message(r)?),
        7 => UpdateEvent::AddComment(decode_message(r)?),
        8 => UpdateEvent::AddKnows(decode_knows(r)?),
        other => return Err(r.err(format!("unknown operation id {other}"))),
    };
    Ok(TimedEvent { timestamp, dependent, event })
}

/// Serialises one delete op (type tag + entity/edge keys).
pub fn encode_delete(buf: &mut Vec<u8>, op: &DeleteOp) {
    match *op {
        DeleteOp::Person(id) => {
            put_u8(buf, 1);
            put_u64(buf, id);
        }
        DeleteOp::Like(person, message) => {
            put_u8(buf, 2);
            put_u64(buf, person);
            put_u64(buf, message);
        }
        DeleteOp::Forum(id) => {
            put_u8(buf, 3);
            put_u64(buf, id);
        }
        DeleteOp::Membership(person, forum) => {
            put_u8(buf, 4);
            put_u64(buf, person);
            put_u64(buf, forum);
        }
        DeleteOp::Message(id) => {
            put_u8(buf, 5);
            put_u64(buf, id);
        }
        DeleteOp::Knows(a, b) => {
            put_u8(buf, 6);
            put_u64(buf, a);
            put_u64(buf, b);
        }
    }
}

/// Parses one delete op.
pub(crate) fn decode_delete(r: &mut Reader<'_>) -> Result<DeleteOp, DecodeError> {
    Ok(match r.u8()? {
        1 => DeleteOp::Person(r.u64()?),
        2 => DeleteOp::Like(r.u64()?, r.u64()?),
        3 => DeleteOp::Forum(r.u64()?),
        4 => DeleteOp::Membership(r.u64()?, r.u64()?),
        5 => DeleteOp::Message(r.u64()?),
        6 => DeleteOp::Knows(r.u64()?, r.u64()?),
        other => return Err(r.err(format!("unknown delete tag {other}"))),
    })
}

/// Serialises a write-batch payload (count + per-op records). The op
/// family is carried out-of-band (wire query tag / WAL record kind).
pub fn encode_write_ops(buf: &mut Vec<u8>, ops: &WriteOps) {
    match ops {
        WriteOps::Updates(events) => {
            put_u32(buf, events.len() as u32);
            for ev in events {
                encode_event(buf, ev);
            }
        }
        WriteOps::Deletes(dels) => {
            put_u32(buf, dels.len() as u32);
            for op in dels {
                encode_delete(buf, op);
            }
        }
    }
}

/// Parses a write-batch payload for the given family tag (1 = updates,
/// 2 = deletes).
pub(crate) fn decode_write_ops(r: &mut Reader<'_>, tag: u8) -> Result<WriteOps, DecodeError> {
    let n = r.u32()? as usize;
    match tag {
        1 => Ok(WriteOps::Updates((0..n).map(|_| decode_event(r)).collect::<Result<_, _>>()?)),
        2 => Ok(WriteOps::Deletes((0..n).map(|_| decode_delete(r)).collect::<Result<_, _>>()?)),
        other => Err(r.err(format!("unknown write family tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::GeneratorConfig;

    /// Round-trips every event of a real generated stream — all eight
    /// IU flavours with every optional field population the generator
    /// produces — through the codec and compares Debug forms (the raw
    /// records don't implement PartialEq).
    #[test]
    fn generated_stream_roundtrips_exactly() {
        let config = GeneratorConfig::for_scale_name("0.001").unwrap();
        let (_, stream) = snb_store::bulk_store_and_stream(&config);
        assert!(stream.len() > 100, "stream too short to cover the codec");
        let mut seen_ops = std::collections::HashSet::new();
        for ev in &stream {
            seen_ops.insert(ev.event.operation_id());
            let mut buf = Vec::new();
            encode_event(&mut buf, ev);
            let mut r = Reader::new(&buf);
            let back = decode_event(&mut r).expect("decode generated event");
            r.finish().expect("no trailing bytes");
            assert_eq!(format!("{back:?}"), format!("{ev:?}"));
        }
        assert!(seen_ops.len() >= 6, "stream covers too few IU ops: {seen_ops:?}");
    }

    #[test]
    fn delete_ops_roundtrip() {
        let ops = [
            DeleteOp::Person(7),
            DeleteOp::Like(1, 2),
            DeleteOp::Forum(3),
            DeleteOp::Membership(5, 6),
            DeleteOp::Message(8),
            DeleteOp::Knows(9, 10),
        ];
        let mut buf = Vec::new();
        encode_write_ops(&mut buf, &WriteOps::Deletes(ops.to_vec()));
        let mut r = Reader::new(&buf);
        let back = decode_write_ops(&mut r, 2).unwrap();
        r.finish().unwrap();
        match back {
            WriteOps::Deletes(d) => assert_eq!(d, ops),
            other => panic!("wrong family: {other:?}"),
        }
    }

    #[test]
    fn truncated_event_is_a_typed_error() {
        let config = GeneratorConfig::for_scale_name("0.001").unwrap();
        let (_, stream) = snb_store::bulk_store_and_stream(&config);
        let mut buf = Vec::new();
        encode_event(&mut buf, &stream[0]);
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            let mut r = Reader::new(&buf[..cut]);
            assert!(decode_event(&mut r).is_err(), "cut at {cut} must fail to decode");
        }
    }
}
