//! The wire protocol: length-prefixed binary frames over any byte
//! stream (TCP in production, `Vec<u8>` buffers in tests).
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload. Requests carry a client-chosen correlation id, an optional
//! relative deadline, and a fully self-describing parameter binding for
//! one of the 25 BI or 14 Interactive complex queries — the server
//! never needs out-of-band context to execute a request, so any client
//! that speaks the codec can drive it. Responses echo the correlation
//! id with either an execution summary (row count, result fingerprint,
//! queue wait, execution time, optional operator profile) or a typed
//! error from the service taxonomy ([`ErrorKind`]).
//!
//! Every integer, string and length goes through [`snb_core::bytes`]:
//! integers are little-endian, strings are a short length (`u16`, or
//! `0xFFFF` + `u32` from 65 535 bytes on) + UTF-8 bytes, string lists
//! are a short count + strings; nothing is cut. A BI or IC binding's fields
//! follow in the order its module's `query_params!` declaration lists
//! them (`BiParams::put` / `BiParams::get`, the same for `IcParams`).
//! [`encode_params`] and the binding half of [`decode_request`] are
//! exact inverses for every binding the parameter generator can
//! produce, which `tests/binding_pins.rs` checks for every curated
//! binding of every query, and pins byte for byte.

use snb_bi::BiParams;
use snb_core::bytes::{put_str, put_u32, put_u64, put_u8, Malformed, Reader};
use snb_engine::QueryProfile;
use snb_interactive::{IcParams, IsParams};

/// Protocol version byte leading every request and response payload.
pub const PROTO_VERSION: u8 = 1;

/// Upper bound on a sane frame payload; anything larger is treated as a
/// protocol error rather than an allocation request.
pub const MAX_FRAME: u32 = 1 << 20;

/// A parameter binding for either workload — the unit of work a client
/// submits.
#[derive(Clone, Debug)]
pub enum ServiceParams {
    /// A Business Intelligence query (BI 1–25).
    Bi(BiParams),
    /// An Interactive complex read (IC 1–14).
    Ic(IcParams),
    /// An Interactive short read (IS 1–7): single-entity lookups and
    /// one-hop expansions — the latency-critical traffic class.
    Is(IsParams),
    /// A sequenced update/delete batch for the write path.
    Write(WriteBatch),
}

/// The admission lane a request is classified into. Each lane has its
/// own bounded queue, every one `ServerConfig::queue_capacity` deep, and
/// a full lane answers `overloaded` (see [`crate::queue::LaneQueues`]);
/// the read lanes are drained by a weighted scheduler that guarantees
/// short-read progress while heavy analytical queries flood the service.
/// A request's only deadline is its own `deadline_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// IS/IC short reads: sublinear point lookups and bounded
    /// traversals that must stay fast under analytical load.
    Short,
    /// Heavy BI analytical reads (BI 1–25).
    Heavy,
    /// Sequenced durable write batches.
    Write,
}

impl Lane {
    /// Stable lower-case name used in logs, error details, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Short => "short",
            Lane::Heavy => "heavy",
            Lane::Write => "write",
        }
    }

    /// Lane index into per-lane arrays (`short = 0`, `heavy = 1`,
    /// `write = 2`).
    pub fn index(self) -> usize {
        match self {
            Lane::Short => 0,
            Lane::Heavy => 1,
            Lane::Write => 2,
        }
    }

    /// All lanes, in index order.
    pub const ALL: [Lane; 3] = [Lane::Short, Lane::Heavy, Lane::Write];
}

/// One sequenced write batch. Sequence numbers are assigned by the
/// client, start at 1, and must be contiguous: the server applies
/// `last_applied + 1`, acknowledges (without re-applying) anything at or
/// below `last_applied`, and rejects gaps — which makes blind
/// re-submission after a lost ack safe (exactly-once apply, at-least-once
/// delivery).
#[derive(Clone, Debug)]
pub struct WriteBatch {
    /// Client-assigned contiguous batch sequence number (1-based).
    pub seq: u64,
    /// The operations to apply atomically with respect to acks.
    pub ops: WriteOps,
}

/// The payload of a write batch.
#[derive(Clone, Debug)]
pub enum WriteOps {
    /// Insert events (IU 1–8) in stream order.
    Updates(Vec<snb_datagen::stream::TimedEvent>),
    /// A delete batch (DEL 1–8 flavours, cascades applied store-side).
    Deletes(Vec<snb_store::DeleteOp>),
}

impl WriteOps {
    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        match self {
            WriteOps::Updates(v) => v.len(),
            WriteOps::Deletes(v) => v.len(),
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wire tag occupying the query-number slot (1 = updates,
    /// 2 = deletes).
    pub(crate) fn query_tag(&self) -> u8 {
        match self {
            WriteOps::Updates(_) => 1,
            WriteOps::Deletes(_) => 2,
        }
    }
}

impl ServiceParams {
    /// Workload tag + query number, e.g. `("BI", 4)`. Write batches
    /// report the op-family in place of a query number (1 = updates,
    /// 2 = deletes).
    pub fn label(&self) -> (&'static str, u8) {
        match self {
            ServiceParams::Bi(p) => ("BI", p.query()),
            ServiceParams::Ic(p) => ("IC", p.query()),
            ServiceParams::Is(p) => ("IS", p.query()),
            ServiceParams::Write(b) => {
                ("WR", if matches!(b.ops, WriteOps::Updates(_)) { 1 } else { 2 })
            }
        }
    }

    /// The admission lane this binding is classified into: IS and IC
    /// reads ride the short lane, BI analytics the heavy lane, write
    /// batches the write lane. Classification is static — it depends
    /// only on the workload family, so a client can predict the lane
    /// from the request alone.
    pub fn lane(&self) -> Lane {
        match self {
            ServiceParams::Is(_) | ServiceParams::Ic(_) => Lane::Short,
            ServiceParams::Bi(_) => Lane::Heavy,
            ServiceParams::Write(_) => Lane::Write,
        }
    }
}

/// One client request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Relative deadline in microseconds from server admission; `0`
    /// means no deadline.
    pub deadline_us: u64,
    /// Bounded-staleness floor: the server must have applied at least
    /// this write sequence number before serving the read, else it
    /// answers [`ErrorKind::StaleRead`]. `0` means "any version" — every
    /// client that does not wait on its own writes.
    pub min_seq: u64,
    /// The query binding to execute.
    pub params: ServiceParams,
}

impl Request {
    /// The fixed-offset fields [`peek_header`] reads from this request's
    /// frame.
    pub fn header(&self) -> RequestHeader {
        RequestHeader {
            id: self.id,
            deadline_us: self.deadline_us,
            min_seq: self.min_seq,
            lane: self.params.lane(),
            workload: self.params.label().0,
        }
    }
}

/// The service error taxonomy — every non-OK outcome a request can
/// have, as a closed set so clients can switch on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The admission queue was full; the request was shed, not queued.
    Overloaded,
    /// The request's deadline passed before a worker picked it up; it
    /// was not executed.
    DeadlineExceeded,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The request frame failed to decode, or a write batch cannot be
    /// taken: out of sequence, or refused by the store (an unknown id, a
    /// hostile field) — a refused batch is never logged and leaves the
    /// store as it was.
    BadRequest,
    /// The query itself failed (store-level error).
    Internal,
    /// A write panicked after its batch reached the WAL, so the log may
    /// hold a batch the store does not; all requests are refused until
    /// the operator restarts the server, which recovers a consistent
    /// image from the WAL.
    StorePoisoned,
    /// The request started inside its budget but overran the deadline
    /// mid-execution: the work was done (and is reflected in exec
    /// time), but the result arrived too late to be useful. Terminal —
    /// retrying a spent deadline only burns more of the caller's
    /// budget.
    DeadlineOverrun,
    /// A read demanded `min_seq` freshness the server has not applied
    /// yet. Retryable: the same request sent once the write at
    /// `min_seq` is acknowledged succeeds.
    StaleRead,
}

impl ErrorKind {
    /// The wire code: 1–7 and 9. Codes 8 and 10 are unassigned (older
    /// builds' replica refusals) and decode as a typed error.
    pub(crate) fn code(self) -> u8 {
        match self {
            ErrorKind::Overloaded => 1,
            ErrorKind::DeadlineExceeded => 2,
            ErrorKind::ShuttingDown => 3,
            ErrorKind::BadRequest => 4,
            ErrorKind::Internal => 5,
            ErrorKind::StorePoisoned => 6,
            ErrorKind::DeadlineOverrun => 7,
            ErrorKind::StaleRead => 9,
        }
    }

    fn from_code(code: u8) -> Option<ErrorKind> {
        match code {
            1 => Some(ErrorKind::Overloaded),
            2 => Some(ErrorKind::DeadlineExceeded),
            3 => Some(ErrorKind::ShuttingDown),
            4 => Some(ErrorKind::BadRequest),
            5 => Some(ErrorKind::Internal),
            6 => Some(ErrorKind::StorePoisoned),
            7 => Some(ErrorKind::DeadlineOverrun),
            9 => Some(ErrorKind::StaleRead),
            _ => None,
        }
    }

    /// Stable lower-case name used in logs and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Internal => "internal",
            ErrorKind::StorePoisoned => "store_poisoned",
            ErrorKind::DeadlineOverrun => "deadline_overrun",
            ErrorKind::StaleRead => "stale_read",
        }
    }
}

/// A successful execution summary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OkBody {
    /// Result row count.
    pub rows: u64,
    /// Order-sensitive result fingerprint (0 for Interactive reads,
    /// which report row counts only).
    pub fingerprint: u64,
    /// Time the request spent queued before a worker picked it up.
    pub queue_us: u64,
    /// Pure execution time.
    pub exec_us: u64,
    /// The highest write sequence number applied to the store version
    /// this request observed — the bounded-staleness stamp. A client
    /// can demand freshness with [`Request::min_seq`].
    pub applied_seq: u64,
    /// Operator counters for this request (present when the server runs
    /// with per-request profiling enabled; boxed, since most responses
    /// carry none).
    pub profile: Option<Box<QueryProfile>>,
}

/// One server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Correlation id copied from the request.
    pub id: u64,
    /// Execution summary or typed error.
    pub body: Result<OkBody, ErrorBody>,
}

/// The error arm of a response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Which taxonomy entry this is.
    pub kind: ErrorKind,
    /// Queue wait observed before the outcome (meaningful for
    /// `DeadlineExceeded`; 0 for sheds, which are never queued).
    pub queue_us: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// A decode failure (malformed frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The correlation id, when enough of the frame was readable to
    /// recover it — lets the server send a typed `BadRequest` back.
    pub id: Option<u64>,
    /// What was wrong.
    pub detail: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.detail)
    }
}

impl From<Malformed> for DecodeError {
    fn from(e: Malformed) -> DecodeError {
        DecodeError { id: None, detail: e.0 }
    }
}

// ---------------------------------------------------------------------
// Binding codec.
// ---------------------------------------------------------------------

const WORKLOAD_BI: u8 = 0;
const WORKLOAD_IC: u8 = 1;
const WORKLOAD_WR: u8 = 2;
const WORKLOAD_IS: u8 = 3;

/// Serialises a binding (workload byte + query byte + fields).
pub fn encode_params(buf: &mut Vec<u8>, params: &ServiceParams) {
    match params {
        ServiceParams::Bi(p) => {
            put_u8(buf, WORKLOAD_BI);
            put_u8(buf, p.query());
            p.put(buf);
        }
        ServiceParams::Ic(p) => {
            put_u8(buf, WORKLOAD_IC);
            put_u8(buf, p.query());
            p.put(buf);
        }
        ServiceParams::Is(p) => {
            put_u8(buf, WORKLOAD_IS);
            put_u8(buf, p.query());
            put_u64(buf, p.key());
        }
        ServiceParams::Write(b) => {
            put_u8(buf, WORKLOAD_WR);
            put_u8(buf, b.ops.query_tag());
            put_u64(buf, b.seq);
            crate::events::encode_write_ops(buf, &b.ops);
        }
    }
}

// ---------------------------------------------------------------------
// Request / response payloads.
// ---------------------------------------------------------------------

/// Serialises a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u8(&mut buf, PROTO_VERSION);
    put_u64(&mut buf, req.id);
    put_u64(&mut buf, req.deadline_us);
    put_u64(&mut buf, req.min_seq);
    encode_params(&mut buf, &req.params);
    buf
}

/// Everything the reactor needs before it either runs a frame itself or
/// hands it to a lane worker: the correlation id (for typed error
/// replies), the header fields admission gates on, the lane (which
/// queue an undecoded frame goes to) and the workload tag (IS frames are
/// the ones the reactor decodes and runs). BI, IC and write bindings are
/// decoded on the worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestHeader {
    /// Client correlation id.
    pub id: u64,
    /// Relative deadline in microseconds (`0` = none).
    pub deadline_us: u64,
    /// Bounded-staleness floor (`0` = any version).
    pub min_seq: u64,
    /// Admission lane, derived from the workload tag byte.
    pub lane: Lane,
    /// The workload tag as [`ServiceParams::label`] names it: `"BI"`,
    /// `"IC"`, `"IS"` or `"WR"`.
    pub workload: &'static str,
}

/// Parses just the fixed-offset request header — version, id, deadline,
/// staleness floor, and the workload byte that determines the lane —
/// without touching the binding payload: a few bounds-checked reads, so
/// a peer sending parse-heavy bindings cannot stall transport reads for
/// everyone else. Only IS bindings (a query number and one id) are then
/// decoded on the reactor; the rest are decoded on a lane worker, which
/// still answers a typed `bad_request` on failure.
pub fn peek_header(payload: &[u8]) -> Result<RequestHeader, DecodeError> {
    with_id(payload, read_header(payload))
}

fn read_header(payload: &[u8]) -> Result<RequestHeader, DecodeError> {
    let mut r = Reader::new(payload);
    let (id, deadline_us, min_seq) = read_prefix(&mut r)?;
    let (lane, workload) = match r.u8()? {
        WORKLOAD_BI => (Lane::Heavy, "BI"),
        WORKLOAD_IC => (Lane::Short, "IC"),
        WORKLOAD_IS => (Lane::Short, "IS"),
        WORKLOAD_WR => (Lane::Write, "WR"),
        other => return Err(Malformed(format!("unknown workload tag {other}")).into()),
    };
    Ok(RequestHeader { id, deadline_us, min_seq, lane, workload })
}

/// Reads a request's id, deadline and staleness floor.
#[inline]
fn read_prefix(r: &mut Reader<'_>) -> Result<(u64, u64, u64), Malformed> {
    Ok((read_id(r)?, r.u64()?, r.u64()?))
}

/// Reads the version byte and the correlation id that lead every
/// request and response payload.
#[inline]
fn read_id(r: &mut Reader<'_>) -> Result<u64, Malformed> {
    let version = r.u8()?;
    if version != PROTO_VERSION {
        return Err(Malformed(format!("unsupported protocol version {version}")));
    }
    r.u64()
}

/// Gives a request or response decode failure the frame's correlation
/// id, when the version byte and the id are readable. A decoded value
/// is passed through in place, not converted.
#[inline]
fn with_id<T>(payload: &[u8], mut decoded: Result<T, DecodeError>) -> Result<T, DecodeError> {
    if let Err(e) = &mut decoded {
        e.id = read_id(&mut Reader::new(payload)).ok();
    }
    decoded
}

/// Parses a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    with_id(payload, read_request(payload))
}

fn read_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut r = Reader::new(payload);
    let (id, deadline_us, min_seq) = read_prefix(&mut r)?;
    let tag = r.u8()?;
    let query = r.u8()?;
    let params = match tag {
        WORKLOAD_BI => ServiceParams::Bi(BiParams::get(query, &mut r)?),
        WORKLOAD_IC => ServiceParams::Ic(IcParams::get(query, &mut r)?),
        WORKLOAD_IS => {
            let id = r.u64()?;
            ServiceParams::Is(
                IsParams::from_parts(query, id)
                    .ok_or_else(|| Malformed(format!("unknown IS query {query}")))?,
            )
        }
        WORKLOAD_WR => {
            let seq = r.u64()?;
            let ops = crate::events::decode_write_ops(&mut r, query)?;
            ServiceParams::Write(WriteBatch { seq, ops })
        }
        other => return Err(Malformed(format!("unknown workload tag {other}")).into()),
    };
    r.finish()?;
    Ok(Request { id, deadline_us, min_seq, params })
}

const STATUS_OK: u8 = 0;

fn encode_profile(buf: &mut Vec<u8>, profile: Option<&QueryProfile>) {
    match profile {
        None => put_u8(buf, 0),
        Some(p) => {
            put_u8(buf, 1);
            for v in [
                p.par_calls,
                p.morsels,
                p.rows_scanned,
                p.index_hits,
                p.index_rows,
                p.index_fallbacks,
                p.fallback_rows,
                p.topk_offered,
                p.topk_pruned,
                p.edges_traversed,
            ] {
                put_u64(buf, v);
            }
        }
    }
}

fn decode_profile(r: &mut Reader<'_>) -> Result<Option<Box<QueryProfile>>, Malformed> {
    if r.u8()? == 0 {
        return Ok(None);
    }
    Ok(Some(Box::new(QueryProfile {
        par_calls: r.u64()?,
        morsels: r.u64()?,
        rows_scanned: r.u64()?,
        index_hits: r.u64()?,
        index_rows: r.u64()?,
        index_fallbacks: r.u64()?,
        fallback_rows: r.u64()?,
        topk_offered: r.u64()?,
        topk_pruned: r.u64()?,
        edges_traversed: r.u64()?,
        worker_busy_ns: Vec::new(),
    })))
}

/// Serialises a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_response(&mut buf, resp);
    buf
}

/// Appends one whole response frame — length prefix and payload — to
/// `buf`: the server encodes straight into a connection's outbox, with
/// no per-response buffer.
pub fn append_response_frame(buf: &mut Vec<u8>, resp: &Response) {
    let start = buf.len();
    put_u32(buf, 0);
    put_response(buf, resp);
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_response(buf: &mut Vec<u8>, resp: &Response) {
    put_u8(buf, PROTO_VERSION);
    put_u64(buf, resp.id);
    match &resp.body {
        Ok(ok) => {
            put_u8(buf, STATUS_OK);
            put_u64(buf, ok.rows);
            put_u64(buf, ok.fingerprint);
            put_u64(buf, ok.queue_us);
            put_u64(buf, ok.exec_us);
            put_u64(buf, ok.applied_seq);
            encode_profile(buf, ok.profile.as_deref());
        }
        Err(e) => {
            put_u8(buf, e.kind.code());
            put_u64(buf, e.queue_us);
            put_str(buf, &e.detail);
        }
    }
}

/// Parses a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    with_id(payload, read_response(payload))
}

fn read_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut r = Reader::new(payload);
    let id = read_id(&mut r)?;
    let status = r.u8()?;
    let body = if status == STATUS_OK {
        Ok(OkBody {
            rows: r.u64()?,
            fingerprint: r.u64()?,
            queue_us: r.u64()?,
            exec_us: r.u64()?,
            applied_seq: r.u64()?,
            profile: decode_profile(&mut r)?,
        })
    } else {
        let kind = ErrorKind::from_code(status)
            .ok_or_else(|| Malformed(format!("unknown status code {status}")))?;
        Err(ErrorBody { kind, queue_us: r.u64()?, detail: r.string()? })
    };
    r.finish()?;
    Ok(Response { id, body })
}

// ---------------------------------------------------------------------
// Framing over byte streams.
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// A read cursor that cuts complete frames off the front of a receive
/// buffer without copying or moving them: each
/// [`next_frame`](Frames::next_frame) is a slice of the buffer, and the
/// owner drops [`consumed`](Frames::consumed) bytes once afterwards —
/// one compaction per read, where draining frame by frame moved
/// everything buffered behind each frame (quadratic in frames per read).
pub struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Frames { buf, pos: 0 }
    }

    /// The next complete frame's payload. `Ok(None)` when what is left
    /// is not yet a full frame; an error for an oversized length prefix
    /// (a protocol violation — the cursor does not move past it).
    pub fn next_frame(&mut self) -> Result<Option<&'a [u8]>, DecodeError> {
        // Sizes are checked before each read: an incomplete frame is the
        // common case here, not an error to build.
        let mut r = Reader::new(&self.buf[self.pos..]);
        if r.remaining() < 4 {
            return Ok(None);
        }
        let len = frame_len(r.u32()?)?;
        if r.remaining() < len {
            return Ok(None);
        }
        self.pos += 4 + len;
        Ok(Some(r.take(len)?))
    }

    /// Bytes of whole frames returned so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

/// A frame's length prefix, refused past [`MAX_FRAME`] before anything is
/// sized from it.
fn frame_len(len: u32) -> Result<usize, Malformed> {
    if len > MAX_FRAME {
        return Err(Malformed(format!("frame length {len} exceeds maximum {MAX_FRAME}")));
    }
    Ok(len as usize)
}

/// Reads one length-prefixed frame from a blocking reader.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = Reader::new(&prefix)
        .u32()
        .and_then(frame_len)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.0))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_bi::{bi02, bi11, bi16, bi18, bi20, bi25};
    use snb_core::Date;
    use snb_interactive::{ic03, ic11};

    fn sample_bindings() -> Vec<ServiceParams> {
        vec![
            ServiceParams::Bi(BiParams::Q2(bi02::Params {
                start_date: Date::from_ymd(2011, 3, 1),
                end_date: Date::from_ymd(2011, 5, 1),
                country1: "China".into(),
                country2: "India".into(),
                min_count: 100,
            })),
            ServiceParams::Bi(BiParams::Q11(bi11::Params {
                country: "Germany".into(),
                blacklist: vec!["also".into(), "belongs".into()],
            })),
            ServiceParams::Bi(BiParams::Q16(bi16::Params {
                person_id: 42,
                country: "Sweden".into(),
                tag_class: "MusicalArtist".into(),
                min_path_distance: 1,
                max_path_distance: 3,
            })),
            ServiceParams::Bi(BiParams::Q18(bi18::Params {
                date: Date::from_ymd(2012, 7, 1),
                length_threshold: 100,
                languages: vec!["en".into()],
            })),
            ServiceParams::Bi(BiParams::Q20(bi20::Params { tag_classes: vec![] })),
            ServiceParams::Bi(BiParams::Q25(bi25::Params {
                person1_id: 7,
                person2_id: 11,
                start_date: Date::from_ymd(2010, 1, 1),
                end_date: Date::from_ymd(2012, 12, 31),
            })),
            ServiceParams::Ic(IcParams::Q3(ic03::Params {
                person_id: 9,
                country_x: "Spain".into(),
                country_y: "France".into(),
                start_date: Date::from_ymd(2011, 6, 1),
                duration_days: 30,
            })),
            ServiceParams::Ic(IcParams::Q11(ic11::Params {
                person_id: 3,
                country: "Japan".into(),
                work_from_year: 2009,
            })),
            ServiceParams::Is(IsParams::from_parts(1, 42).unwrap()),
            ServiceParams::Is(IsParams::from_parts(7, 0xdead_beef).unwrap()),
        ]
    }

    #[test]
    fn request_roundtrip_preserves_bindings() {
        for (i, params) in sample_bindings().into_iter().enumerate() {
            let req =
                Request { id: i as u64 + 100, deadline_us: 5_000, min_seq: i as u64 * 3, params };
            let bytes = encode_request(&req);
            // The header peek and the full decode must agree on every
            // fixed-offset field — the reactor gates on the peek, the
            // worker on the decode.
            let head = peek_header(&bytes).unwrap();
            let back = decode_request(&bytes).unwrap();
            assert_eq!(back.id, req.id);
            assert_eq!(back.deadline_us, req.deadline_us);
            assert_eq!(back.min_seq, req.min_seq);
            assert_eq!(format!("{:?}", back.params), format!("{:?}", req.params));
            assert_eq!(
                head,
                RequestHeader {
                    id: req.id,
                    deadline_us: req.deadline_us,
                    min_seq: req.min_seq,
                    lane: req.params.lane(),
                    workload: req.params.label().0,
                }
            );
            assert_eq!(head, req.header());
        }
    }

    #[test]
    fn response_roundtrip_all_arms() {
        let cases = vec![
            Response {
                id: 1,
                body: Ok(OkBody {
                    rows: 20,
                    fingerprint: 0xdead_beef,
                    queue_us: 12,
                    exec_us: 345,
                    applied_seq: 9,
                    profile: None,
                }),
            },
            Response {
                id: 2,
                body: Ok(OkBody {
                    rows: 3,
                    fingerprint: 7,
                    queue_us: 1,
                    exec_us: 2,
                    applied_seq: 0,
                    profile: Some(Box::new(QueryProfile {
                        par_calls: 4,
                        morsels: 8,
                        rows_scanned: 100,
                        topk_offered: 10,
                        ..Default::default()
                    })),
                }),
            },
            Response {
                id: 3,
                body: Err(ErrorBody {
                    kind: ErrorKind::Overloaded,
                    queue_us: 0,
                    detail: "queue full (cap 4)".into(),
                }),
            },
            Response {
                id: 4,
                body: Err(ErrorBody {
                    kind: ErrorKind::DeadlineExceeded,
                    queue_us: 950,
                    detail: "deadline 500us, waited 950us".into(),
                }),
            },
            Response {
                id: 5,
                body: Err(ErrorBody {
                    kind: ErrorKind::DeadlineOverrun,
                    queue_us: 12,
                    detail: "deadline 500us, finished at 820us (exec 780us)".into(),
                }),
            },
            Response {
                id: 6,
                body: Err(ErrorBody {
                    kind: ErrorKind::StaleRead,
                    queue_us: 0,
                    detail: "min_seq 40, applied 37 (lag 3)".into(),
                }),
            },
        ];
        for resp in cases {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn bad_frames_are_typed_errors_not_panics() {
        // Truncated request still recovers the correlation id.
        let req = Request {
            id: 77,
            deadline_us: 0,
            min_seq: 0,
            params: ServiceParams::Bi(BiParams::Q5(snb_bi::bi05::Params {
                country: "China".into(),
            })),
        };
        let mut bytes = encode_request(&req);
        bytes.truncate(bytes.len() - 2);
        let err = decode_request(&bytes).unwrap_err();
        assert_eq!(err.id, Some(77));

        // Unknown query number.
        let mut buf = Vec::new();
        put_u8(&mut buf, PROTO_VERSION);
        put_u64(&mut buf, 5);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, WORKLOAD_BI);
        put_u8(&mut buf, 99);
        assert!(decode_request(&buf).is_err());
        // ... but the header peek succeeds: the lane is known from the
        // workload byte alone, and the bad query number surfaces as a
        // typed error on the worker.
        assert_eq!(peek_header(&buf).unwrap().lane, Lane::Heavy);

        // Bad version.
        let mut buf = encode_request(&req);
        buf[0] = 9;
        assert!(decode_request(&buf).is_err());

        // Trailing garbage.
        let mut buf = encode_request(&req);
        buf.push(0);
        assert!(decode_request(&buf).is_err());

        // A write-batch frame truncated at *every* byte boundary:
        // typed error each time, never a panic or an over-read.
        let write = Request {
            id: 13,
            deadline_us: 0,
            min_seq: 0,
            params: ServiceParams::Write(WriteBatch {
                seq: 4,
                ops: WriteOps::Deletes(vec![
                    snb_store::DeleteOp::Like(7, 9),
                    snb_store::DeleteOp::Forum(3),
                ]),
            }),
        };
        let bytes = encode_request(&write);
        assert!(decode_request(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut} must not decode");
        }

        // Frame layer: an oversized length prefix is refused before any
        // allocation, a zero-length frame yields an empty payload that
        // decodes to a typed error, and a mid-frame disconnect (length
        // promises more bytes than arrive) is an I/O error, not a hang.
        let mut oversized = Vec::new();
        put_u32(&mut oversized, MAX_FRAME + 1);
        let err = read_frame(&mut std::io::Cursor::new(&oversized)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let mut zero = Vec::new();
        put_u32(&mut zero, 0);
        let payload = read_frame(&mut std::io::Cursor::new(&zero)).expect("empty frame reads");
        assert!(payload.is_empty());
        assert!(decode_request(&payload).is_err(), "empty payload is a typed decode error");

        let mut torn = Vec::new();
        put_u32(&mut torn, 64);
        torn.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut std::io::Cursor::new(&torn)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // A write batch whose op count cannot fit in the frame is
        // refused by the count rule before any op is decoded.
        let mut batch = Vec::new();
        put_u8(&mut batch, PROTO_VERSION);
        put_u64(&mut batch, 18); // id
        put_u64(&mut batch, 0); // deadline
        put_u64(&mut batch, 0); // min_seq
        put_u8(&mut batch, WORKLOAD_WR);
        put_u8(&mut batch, 2); // deletes
        put_u64(&mut batch, 4); // batch seq
        put_u32(&mut batch, u32::MAX);
        put_u8(&mut batch, 5); // one message delete
        put_u64(&mut batch, 9);
        let err = decode_request(&batch).unwrap_err();
        assert!(err.detail.contains("count 4294967295"), "{err:?}");
        assert_eq!(err.id, Some(18));

        // Response codes 8 and 10 (an older build's replica refusals)
        // and every code past the taxonomy are typed errors that keep
        // the correlation id.
        for code in [8u8, 10, 11, 0xFF] {
            let mut resp = Vec::new();
            put_u8(&mut resp, PROTO_VERSION);
            put_u64(&mut resp, 21);
            put_u8(&mut resp, code);
            put_u64(&mut resp, 0);
            put_str(&mut resp, "read-only follower");
            let err = decode_response(&resp).unwrap_err();
            assert_eq!(err.id, Some(21));
            assert!(err.detail.contains(&format!("unknown status code {code}")), "{err:?}");
        }
    }

    #[test]
    fn frame_cursor_reassembles_split_streams() {
        // 2 000 frames of varying sizes (responses with and without a
        // detail string, requests with bindings, one empty payload).
        let bindings = sample_bindings();
        let payloads: Vec<Vec<u8>> = (0..2_000u64)
            .map(|i| match i % 4 {
                0 => encode_response(&Response { id: i, body: Ok(OkBody::default()) }),
                1 => encode_response(&Response {
                    id: i,
                    body: Err(ErrorBody {
                        kind: ErrorKind::ShuttingDown,
                        queue_us: i,
                        detail: "x".repeat(i as usize % 97),
                    }),
                }),
                2 => encode_request(&Request {
                    id: i,
                    deadline_us: 0,
                    min_seq: 0,
                    params: bindings[i as usize % bindings.len()].clone(),
                }),
                _ => Vec::new(),
            })
            .collect();
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        // The outbox encoder writes the same bytes as `write_frame`.
        let mut appended = Vec::new();
        append_response_frame(&mut appended, &Response { id: 0, body: Ok(OkBody::default()) });
        assert_eq!(appended[..], wire[..appended.len()]);

        // Fed one byte at a time the stream is split at every byte
        // boundary; larger feeds split it everywhere else that matters.
        for feed in [1usize, 3, 61, 4_096, wire.len()] {
            let mut buf = Vec::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in wire.chunks(feed) {
                buf.extend_from_slice(chunk);
                let mut frames = Frames::new(&buf);
                while let Some(frame) = frames.next_frame().unwrap() {
                    got.push(frame.to_vec());
                }
                let consumed = frames.consumed();
                buf.drain(..consumed);
            }
            assert!(buf.is_empty(), "feed {feed}: {} bytes left over", buf.len());
            assert_eq!(got, payloads, "feed {feed}: frames differ");
        }

        // An oversized length prefix is a typed protocol error, and the
        // cursor keeps the frames before it.
        let mut bad = wire[..appended.len()].to_vec();
        bad.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        bad.extend_from_slice(&[0; 8]);
        let mut frames = Frames::new(&bad);
        assert!(frames.next_frame().unwrap().is_some());
        let err = frames.next_frame().unwrap_err();
        assert!(err.detail.contains("exceeds maximum"), "{err}");
        assert_eq!(frames.consumed(), appended.len());
    }

    #[test]
    fn lane_classification_is_static_per_workload() {
        for params in sample_bindings() {
            let want = match params {
                ServiceParams::Bi(_) => Lane::Heavy,
                ServiceParams::Ic(_) | ServiceParams::Is(_) => Lane::Short,
                ServiceParams::Write(_) => Lane::Write,
            };
            assert_eq!(params.lane(), want, "lane for {:?}", params.label());
        }
        let write = ServiceParams::Write(WriteBatch {
            seq: 1,
            ops: WriteOps::Deletes(vec![snb_store::DeleteOp::Forum(3)]),
        });
        assert_eq!(write.lane(), Lane::Write);
        // Names and indices are stable — logs and JSON key on them.
        assert_eq!(Lane::ALL.map(Lane::name), ["short", "heavy", "write"]);
        for (i, lane) in Lane::ALL.iter().enumerate() {
            assert_eq!(lane.index(), i);
        }
    }
}
