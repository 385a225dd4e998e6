//! The TCP transport's output path: IS reads run on the reactor and
//! their responses leave through one outbox per connection, which the
//! reactor never blocks on. These tests pin what that must not break —
//! a peer that never reads is held back (its outbox stays bounded)
//! without slowing anyone else, a half-closed peer still gets every
//! answer, IS, IC and BI responses sharing one outbox never tear each
//! other's frames, and a pipelined burst past the admission queue is
//! shed, not buffered, with every request still answered once.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use snb_datagen::GeneratorConfig;
use snb_interactive::IsParams;
use snb_server::proto::{self, Request};
use snb_server::{ErrorKind, OkBody, Response, Server, ServerConfig, ServiceParams, OUTBOX_LIMIT};
use snb_store::{store_for_config, Ix};

fn start(workers: usize) -> (Server, SocketAddr, Vec<u64>) {
    let store = store_for_config(&GeneratorConfig::for_scale_name("0.001").unwrap());
    let persons: Vec<u64> = (0..store.persons.len() as Ix)
        .filter(|&p| store.knows.degree(p) > 0)
        .map(|p| store.persons.id[p as usize])
        .collect();
    let mut server = Server::start(
        store,
        ServerConfig { workers, queue_capacity: 1024, ..ServerConfig::default() },
    );
    let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");
    (server, addr, persons)
}

fn is_request(id: u64, persons: &[u64]) -> Request {
    let key = persons[id as usize % persons.len()];
    let params = IsParams::from_parts(1 + (id % 3) as u8, key).expect("IS 1-3");
    Request { id, deadline_us: 0, min_seq: 0, params: ServiceParams::Is(params) }
}

/// Every request frame of `requests`, back to back, as one buffer.
fn wire(requests: impl Iterator<Item = Request>) -> Vec<u8> {
    let mut out = Vec::new();
    for req in requests {
        proto::write_frame(&mut out, &proto::encode_request(&req)).unwrap();
    }
    out
}

/// Reads `n` responses and checks every id in `1..=n` is answered
/// exactly once.
fn answers(conn: &mut TcpStream, n: u64) -> HashMap<u64, Response> {
    let mut seen = HashMap::new();
    for _ in 0..n {
        let payload = proto::read_frame(conn).expect("read a response");
        let resp = proto::decode_response(&payload).expect("every frame decodes");
        assert!((1..=n).contains(&resp.id), "unknown id {}", resp.id);
        let id = resp.id;
        assert!(seen.insert(id, resp).is_none(), "id {id} answered twice");
    }
    seen
}

/// [`answers`], each of them ok.
fn expect_answers(conn: &mut TcpStream, n: u64) -> HashMap<u64, Response> {
    let seen = answers(conn, n);
    for resp in seen.values() {
        assert!(resp.body.is_ok(), "request {} failed: {resp:?}", resp.id);
    }
    seen
}

#[test]
fn a_peer_that_never_reads_is_held_back_not_buffered() {
    const PIPELINED: u64 = 20_000;
    let (server, addr, persons) = start(1);

    // The stuck peer pipelines 20 000 IS requests and reads nothing. Its
    // writes block once the server stops reading it, so they run on a
    // thread of their own.
    let mut stuck = TcpStream::connect(addr).unwrap();
    let mut stuck_writer = stuck.try_clone().unwrap();
    let bytes = wire((1..=PIPELINED).map(|id| is_request(id, &persons)));
    let writer = std::thread::spawn(move || stuck_writer.write_all(&bytes).unwrap());

    // Let the server run into the stuck peer: served stops moving.
    let mut served = u64::MAX;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = server.report_now().served_by_lane[0];
        if now == served || now == PIPELINED {
            break;
        }
        served = now;
    }

    // Another connection is served as if nothing were wrong.
    let mut other = TcpStream::connect(addr).unwrap();
    for id in 1..=50 {
        let started = Instant::now();
        proto::write_frame(&mut other, &proto::encode_request(&is_request(id, &persons))).unwrap();
        let resp = proto::decode_response(&proto::read_frame(&mut other).unwrap()).unwrap();
        assert_eq!(resp.id, id);
        assert!(resp.body.is_ok(), "{resp:?}");
        assert!(started.elapsed() < Duration::from_secs(1), "IS call took {:?}", started.elapsed());
    }

    // The stuck peer's outbox stayed within its bound: the reactor stops
    // taking its frames once the bound is passed, so one response at
    // most crosses it.
    let one_response = 4 + proto::encode_response(&Response {
        id: u64::MAX,
        body: Ok(OkBody { rows: u64::MAX, ..OkBody::default() }),
    })
    .len();
    let peak = server.report_now().outbox_peak;
    assert!(peak > 0, "the responses never waited in an outbox");
    assert!(
        peak as usize <= OUTBOX_LIMIT + one_response,
        "outbox peaked at {peak} B (bound {OUTBOX_LIMIT} B)"
    );

    // Once it reads, it gets every response.
    let answers = expect_answers(&mut stuck, PIPELINED);
    assert_eq!(answers.len() as u64, PIPELINED);
    writer.join().unwrap();
    let report = server.shutdown();
    assert_eq!(report.served_by_lane[0], PIPELINED + 50);
    eprintln!("stuck peer: outbox peak {peak} B, served before reading {served}");
}

#[test]
fn a_half_closed_peer_gets_every_answer_exactly_once() {
    const PIPELINED: u64 = 500;
    let (server, addr, persons) = start(1);
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&wire((1..=PIPELINED).map(|id| is_request(id, &persons)))).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();

    expect_answers(&mut conn, PIPELINED);
    // With its input finished and every answer out, the server closes.
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let eof = proto::read_frame(&mut conn).expect_err("nothing after the last answer");
    assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
    assert_eq!(server.shutdown().served_by_lane[0], PIPELINED);
}

#[test]
fn inline_and_worker_responses_share_one_connection_intact() {
    const PIPELINED: u64 = 600;
    let (server, addr, persons) = start(2);
    let snapshot = server.snapshot();
    let gen = snb_params::ParamGen::new(snapshot.store(), 7);
    let ic = gen.ic_params(2, 8);
    let bi = gen.bi_params(13, 4);
    assert!(!ic.is_empty() && !bi.is_empty());
    drop(snapshot);
    let request = |id: u64| match id % 3 {
        0 => is_request(id, &persons),
        1 => Request {
            id,
            deadline_us: 0,
            min_seq: 0,
            params: ServiceParams::Ic(ic[id as usize % ic.len()].clone()),
        },
        _ => Request {
            id,
            deadline_us: 0,
            min_seq: 0,
            params: ServiceParams::Bi(bi[id as usize % bi.len()].clone()),
        },
    };
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let bytes = wire((1..=PIPELINED).map(request));
    let sender = std::thread::spawn(move || writer.write_all(&bytes).unwrap());

    let answers = expect_answers(&mut conn, PIPELINED);
    sender.join().unwrap();
    let report = server.shutdown();
    assert_eq!(answers.len() as u64, PIPELINED);
    assert_eq!(report.served, PIPELINED);
    // IS and IC both count as short-lane reads; BI as heavy.
    assert_eq!(report.served_by_lane, [PIPELINED / 3 * 2, PIPELINED / 3, 0]);
}

#[test]
fn an_overload_burst_sheds_and_tiny_deadlines_miss() {
    let config = GeneratorConfig::for_scale_name("0.001").unwrap();
    let store = store_for_config(&config);
    let gen = snb_params::ParamGen::new(&store, config.seed);
    let bi: Vec<_> = (1..=25).flat_map(|q| gen.bi_params(q, 4)).collect();
    drop(gen);
    // One worker behind an eight-deep queue: a pipelined burst outruns
    // it at once.
    let mut server = Server::start(
        store,
        ServerConfig { workers: 1, queue_capacity: 8, ..ServerConfig::default() },
    );
    let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");

    // Pipelines `n` BI requests with `deadline_us` on a fresh connection
    // and counts the answers of each error kind in `kinds`.
    let burst = |n: u64, deadline_us: u64, kinds: &[ErrorKind]| -> usize {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let bytes = wire((1..=n).map(|id| Request {
            id,
            deadline_us,
            min_seq: 0,
            params: ServiceParams::Bi(bi[id as usize % bi.len()].clone()),
        }));
        let sender = std::thread::spawn(move || writer.write_all(&bytes).unwrap());
        let seen = answers(&mut conn, n);
        sender.join().unwrap();
        seen.values().filter(|r| matches!(&r.body, Err(e) if kinds.contains(&e.kind))).count()
    };

    let shed = burst(512, 0, &[ErrorKind::Overloaded]);
    assert!(shed >= 1, "512 pipelined BI requests past an 8-deep queue shed nothing");
    // A 1 µs deadline either expires in the queue or, if the job is
    // dequeued inside the window, at the completion-time check.
    let missed = burst(64, 1, &[ErrorKind::DeadlineExceeded, ErrorKind::DeadlineOverrun]);
    assert!(missed >= 1, "64 requests with a 1 µs deadline all met it");
    server.shutdown();
}
