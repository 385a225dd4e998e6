//! Byte-format pins and hostile-input refusals for what the server
//! reads: client frames, the WAL, `store.img` and the store-image codec
//! inside it.
//!
//! The hex strings and checksums are the bytes the encoders wrote
//! before every format moved onto `snb_core::bytes`; a layout that
//! drifts fails here. The FNV-1a and varint helpers are written out
//! again below so the pins do not trust the code they pin.

mod common;

use common::{tmp_dir, SCALE};
use snb_bi::{bi05, bi18, BiParams};
use snb_core::{Date, SnbError};
use snb_datagen::stream::UpdateEvent;
use snb_engine::QueryProfile;
use snb_interactive::IsParams;
use snb_server::image::IMAGE_MAGIC;
use snb_server::proto::{decode_request, encode_request, encode_response};
use snb_server::{
    recover, write_image, ErrorBody, ErrorKind, OkBody, Request, Response, SegmentedWal,
    ServiceParams, WalOptions, WriteBatch, WriteOps, IMAGE_FILE,
};
use snb_store::{DeleteOp, Store};

const SEED: u64 = 42;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The 60-person SF 0.001 store.
fn store60() -> Store {
    let mut config = common::config();
    config.persons = 60;
    snb_store::store_for_config(&config)
}

fn deletes() -> WriteOps {
    WriteOps::Deletes(vec![DeleteOp::Like(7, 9), DeleteOp::Forum(3), DeleteOp::Knows(1, 2)])
}

/// The first event of each insert operation in the SF 0.001 stream.
fn one_event_per_operation() -> WriteOps {
    let (_, stream) = snb_store::bulk_store_and_stream(&common::config());
    let mut seen = std::collections::BTreeSet::new();
    let events: Vec<_> =
        stream.into_iter().filter(|ev| seen.insert(ev.event.operation_id())).collect();
    assert_eq!(seen.len(), 8, "the stream carries every insert operation");
    WriteOps::Updates(events)
}

#[test]
fn wire_frames_keep_their_bytes() {
    let request = |id, params| Request { id, deadline_us: 5_000, min_seq: 3, params };
    let bi = request(
        0x0102_0304_0506_0708,
        ServiceParams::Bi(BiParams::Q18(bi18::Params {
            date: Date::from_ymd(2012, 7, 1),
            length_threshold: 100,
            languages: vec!["en".into(), "de".into()],
        })),
    );
    let is = request(9, ServiceParams::Is(IsParams::from_parts(4, 0xdead_beef).unwrap()));
    let write = request(10, ServiceParams::Write(WriteBatch { seq: 6, ops: deletes() }));
    let ok = Response {
        id: 11,
        body: Ok(OkBody {
            rows: 20,
            fingerprint: 0xfeed_f00d,
            queue_us: 12,
            exec_us: 345,
            applied_seq: 9,
            profile: Some(Box::new(QueryProfile {
                par_calls: 1,
                morsels: 2,
                rows_scanned: 3,
                index_hits: 4,
                index_rows: 5,
                index_fallbacks: 6,
                fallback_rows: 7,
                topk_offered: 8,
                topk_pruned: 9,
                edges_traversed: 10,
                worker_busy_ns: Vec::new(),
            })),
        }),
    };
    let err = Response {
        id: 12,
        body: Err(ErrorBody {
            kind: ErrorKind::StaleRead,
            queue_us: 7,
            detail: "min_seq 40, applied 37 (lag 3)".into(),
        }),
    };
    let pins = [
        ("BI request", hex(&encode_request(&bi)), PIN_BI_REQUEST),
        ("IS request", hex(&encode_request(&is)), PIN_IS_REQUEST),
        ("write request", hex(&encode_request(&write)), PIN_WRITE_REQUEST),
        ("ok response", hex(&encode_response(&ok)), PIN_OK_RESPONSE),
        ("error response", hex(&encode_response(&err)), PIN_ERROR_RESPONSE),
    ];
    for (what, got, want) in pins {
        assert_eq!(got, want, "{what} bytes moved");
    }

    // Every insert operation's event layout, through the write request
    // that carries it.
    let updates =
        request(13, ServiceParams::Write(WriteBatch { seq: 7, ops: one_event_per_operation() }));
    assert_eq!(fnv64(&encode_request(&updates)), PIN_UPDATES_REQUEST_FNV, "event bytes moved");
}

#[test]
fn wal_and_image_keep_their_bytes() {
    let dir = tmp_dir("pin_wal");
    let mut wal = SegmentedWal::open(&dir, SCALE, SEED, WalOptions::default(), 0, &[], 0).unwrap();
    wal.append(1, &deletes()).unwrap();
    drop(wal);
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(hex(&log), PIN_WAL, "WAL header or record bytes moved");

    let store = store60();
    let body = snb_store::encode_store(&store);
    assert_eq!(fnv64(&body), PIN_STORE60_FNV, "store image codec bytes moved");
    write_image(&dir, SCALE, SEED, 0, 11, 1, &store).unwrap();
    let image = std::fs::read(dir.join(IMAGE_FILE)).unwrap();
    let header_len = image.len() - body.len();
    assert_eq!(hex(&image[..header_len]), PIN_IMAGE_HEADER, "image header bytes moved");
    assert_eq!(image[header_len..], body[..]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The empty store's image sections before section `tag`, then section
/// `tag` holding `body` under a valid checksum.
fn image_with_section(tag: u8, body: &[u8]) -> Vec<u8> {
    let empty = snb_store::encode_store(&Store::default());
    let mut at = 0;
    while empty[at] != tag {
        let len = u32::from_le_bytes(empty[at + 1..at + 5].try_into().unwrap());
        at += 13 + len as usize;
    }
    let mut out = empty[..at].to_vec();
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// `body` behind a valid `store.img` header for (`SCALE`, `SEED`).
fn store_img(body: &[u8]) -> Vec<u8> {
    let mut img = IMAGE_MAGIC.to_vec();
    img.extend_from_slice(&(SCALE.len() as u16).to_le_bytes());
    img.extend_from_slice(SCALE.as_bytes());
    for v in [SEED, 1] {
        img.extend_from_slice(&v.to_le_bytes()); // seed, seq
    }
    img.extend_from_slice(&1u32.to_le_bytes());
    img.extend_from_slice(&(body.len() as u64).to_le_bytes());
    img.extend_from_slice(&fnv64(body).to_le_bytes());
    let sum = fnv64(&img);
    img.extend_from_slice(&sum.to_le_bytes());
    img.extend_from_slice(body);
    img
}

fn assert_parse_error<T>(what: &str, got: Result<T, SnbError>) {
    match got {
        Err(SnbError::Parse { .. }) => {}
        Err(other) => panic!("{what}: want a parse error, got {other:?}"),
        Ok(_) => panic!("{what}: want a parse error, got a value"),
    }
}

/// Section 1's first column is the person id count.
fn rows_2_61() -> Vec<u8> {
    image_with_section(1, &varint(1 << 61))
}

/// Section 10 is the `knows` adjacency; its first varint is the source
/// count.
fn sources_2_40() -> Vec<u8> {
    image_with_section(10, &varint(1 << 40))
}

#[test]
fn image_row_count_past_the_buffer_is_refused() {
    let image = rows_2_61();
    assert_eq!(image.len(), 22);
    assert_parse_error("row count 2^61", snb_store::decode_store(&image));
}

#[test]
fn image_adjacency_source_count_past_the_buffer_is_refused() {
    assert_parse_error("source count 2^40", snb_store::decode_store(&sources_2_40()));
}

#[test]
fn image_file_with_hostile_counts_is_refused_by_recovery() {
    for (what, body) in [("row count 2^61", rows_2_61()), ("source count 2^40", sources_2_40())] {
        let dir = tmp_dir("hostile_image");
        std::fs::create_dir_all(&dir).unwrap();
        let image = store_img(&body);
        std::fs::write(dir.join(IMAGE_FILE), &image).unwrap();
        assert_parse_error(what, recover(&dir, &common::config(), SCALE, WalOptions::default()));
        assert_eq!(std::fs::read(dir.join(IMAGE_FILE)).unwrap(), image, "{what}: image untouched");
        assert!(!dir.join("wal.log").exists(), "{what}: no log beside a refused image");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One text post of the stream with its content replaced by `content`,
/// and the events before it (the post's forum and creator).
fn events_up_to_a_post_with(content: &str) -> WriteOps {
    let (_, mut stream) = snb_store::bulk_store_and_stream(&common::config());
    let at = stream
        .iter()
        .position(|ev| matches!(&ev.event, UpdateEvent::AddPost(m) if !m.content.is_empty()))
        .expect("the stream inserts a text post");
    stream.truncate(at + 1);
    let UpdateEvent::AddPost(post) = &mut stream[at].event else { unreachable!() };
    post.content = content.to_string();
    post.length = content.chars().count() as u32;
    WriteOps::Updates(stream)
}

#[test]
fn strings_past_64_kib_survive_the_wire_and_the_log() {
    // A BI 5 binding's country, ASCII and two-byte UTF-8, past the
    // `u16` length a string once had: no byte may be cut.
    for country in ["x".repeat(70_000), "é".repeat(40_000)] {
        let request = Request {
            id: 1,
            deadline_us: 0,
            min_seq: 0,
            params: ServiceParams::Bi(BiParams::Q5(bi05::Params { country: country.clone() })),
        };
        let back = decode_request(&encode_request(&request)).expect("decodes");
        let ServiceParams::Bi(BiParams::Q5(p)) = back.params else { panic!("{back:?}") };
        assert!(p.country == country, "a {}-byte country came back cut", country.len());
    }

    // A post whose content is 80 000 bytes is acknowledged, logged
    // whole, and recovers to the store that acknowledged it.
    let dir = tmp_dir("long_post");
    let server = common::start(&dir, WalOptions::default());
    let ops = events_up_to_a_post_with(&"é".repeat(40_000));
    assert_eq!(common::submit(&server, 1, &ops).expect("acked").applied_seq, 1);
    let live = snb_store::encode_store(server.snapshot().store());
    server.shutdown();
    let recovered =
        recover(&dir, &common::config(), SCALE, WalOptions::default()).expect("recover");
    assert_eq!(recovered.report.last_seq, 1);
    assert!(snb_store::encode_store(&recovered.store) == live, "recovered store differs");
    let _ = std::fs::remove_dir_all(&dir);
}

const PIN_BI_REQUEST: &str =
    "010807060504030201881300000000000003000000000000000012a23c00006400000002000200656e02006465";
const PIN_IS_REQUEST: &str =
    "010900000000000000881300000000000003000000000000000304efbeadde00000000";
const PIN_WRITE_REQUEST: &str = "010a0000000000000088130000000000000300000000000000020206000000000000000300000002070000000000000009000000000000000303000000000000000601000000000000000200000000000000";
const PIN_OK_RESPONSE: &str = "010b000000000000000014000000000000000df0edfe000000000c0000000000000059010000000000000900000000000000010100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a00000000000000";
const PIN_ERROR_RESPONSE: &str = "010c000000000000000907000000000000001e006d696e5f7365712034302c206170706c69656420333720286c6167203329";
const PIN_UPDATES_REQUEST_FNV: u64 = 0x3f2a_f21c_2ee7_f57a;
const PIN_WAL: &str = "534e4257414c320a0500302e3030312a000000000000003800000078fd48b9929af1aa0100000000000000020300000002070000000000000009000000000000000303000000000000000601000000000000000200000000000000";
const PIN_STORE60_FNV: u64 = 0x2368_5693_71c1_e2a7;
const PIN_IMAGE_HEADER: &str = "534e42494d47320a0500302e3030312a000000000000000b00000000000000010000003c8c090000000000a7e2c17193566823bfe5d8f8b0281cab";
