//! IS reads execute on the thread that admitted them — the reactor for
//! TCP, the caller for the in-process client — but pass the same
//! admission gate as queued work. For each refusal the gate can give, a
//! request over either transport gets the typed error and leaves exactly
//! one access-log record on the `short` lane; only `ok` answers count as
//! short-lane service.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use snb_datagen::GeneratorConfig;
use snb_interactive::IsParams;
use snb_server::proto::{self, Request};
use snb_server::{AccessRecord, ErrorKind, Response, Server, ServerConfig, ServiceParams};
use snb_store::Ix;

fn config() -> GeneratorConfig {
    GeneratorConfig::for_scale_name("0.001").unwrap()
}

/// The person with the most messages: IS 2 on them does real work.
fn busiest_person(store: &snb_store::Store) -> u64 {
    let p = (0..store.persons.len() as Ix)
        .max_by_key(|&p| store.person_messages.degree(p))
        .expect("persons");
    store.persons.id[p as usize]
}

fn start(store: snb_store::Store, workers: usize) -> (Server, SocketAddr) {
    let mut server = Server::start(
        store,
        ServerConfig { workers, queue_capacity: 1024, ..ServerConfig::default() },
    );
    let addr = server.listen("127.0.0.1:0").expect("bind ephemeral port");
    (server, addr)
}

fn is2(person: u64) -> ServiceParams {
    ServiceParams::Is(IsParams::from_parts(2, person).expect("IS 2"))
}

fn tcp_call(conn: &mut TcpStream, req: &Request) -> Response {
    proto::write_frame(conn, &proto::encode_request(req)).unwrap();
    proto::decode_response(&proto::read_frame(conn).unwrap()).unwrap()
}

fn kind(resp: &Response) -> Option<ErrorKind> {
    resp.body.as_ref().err().map(|e| e.kind)
}

/// The IS records with `outcome`, all of which must be on the short lane.
fn is_records(log: &[AccessRecord], outcome: &str) -> usize {
    log.iter()
        .filter(|r| r.workload == "IS" && r.outcome == outcome)
        .inspect(|r| assert_eq!(r.lane, "short", "{r:?}"))
        .count()
}

#[test]
fn stale_reads_are_refused_inline() {
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let (server, addr) = start(store, 1);
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();

    let stale = client.call_min_seq(is2(person), 0, 5);
    assert_eq!(kind(&stale), Some(ErrorKind::StaleRead), "{stale:?}");
    let req = Request { id: 9, deadline_us: 0, min_seq: 5, params: is2(person) };
    let stale = tcp_call(&mut conn, &req);
    assert_eq!((stale.id, kind(&stale)), (9, Some(ErrorKind::StaleRead)), "{stale:?}");
    // Fresh enough reads pass the same gate and are served.
    assert!(client.call(is2(person), 0).body.is_ok());
    assert!(tcp_call(&mut conn, &Request { min_seq: 0, ..req }).body.is_ok());

    let log = server.access_log().snapshot();
    assert_eq!(log.len(), 4, "one record per request: {log:?}");
    assert_eq!(is_records(&log, "stale_read"), 2);
    assert_eq!(is_records(&log, "ok"), 2);
    let report = server.shutdown();
    assert_eq!(report.stale_read_rejects, 2);
    assert_eq!(report.served_by_lane, [2, 0, 0]);
}

#[test]
fn a_poisoned_store_refuses_inline_reads() {
    let config = config();
    let (store, stream) = snb_store::bulk_store_and_stream(&config);
    let world = snb_datagen::dictionaries::StaticWorld::build(config.seed);
    let person = busiest_person(&store);
    let (server, addr) = start(store, 1);
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();

    // Only this test in the binary touches the (process-global) fault
    // registry, and it disarms before anything else can write.
    snb_fault::arm_from_spec("writer.apply.panic=panic@h1", 7).unwrap();
    let applied = server.writer().apply_update(&stream[0], &world);
    snb_fault::disarm_all();
    assert!(applied.is_err() && server.is_degraded(), "the panic must poison the store");

    let poisoned = client.call(is2(person), 0);
    assert_eq!(kind(&poisoned), Some(ErrorKind::StorePoisoned), "{poisoned:?}");
    let req = Request { id: 3, deadline_us: 0, min_seq: 0, params: is2(person) };
    let poisoned = tcp_call(&mut conn, &req);
    assert_eq!((poisoned.id, kind(&poisoned)), (3, Some(ErrorKind::StorePoisoned)));

    let log = server.access_log().snapshot();
    assert_eq!(log.len(), 2, "one record per request: {log:?}");
    assert_eq!(is_records(&log, "store_poisoned"), 2);
    assert_eq!(server.shutdown().served_by_lane, [0, 0, 0]);
}

#[test]
fn a_spent_budget_is_never_answered_ok() {
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let (server, addr) = start(store, 1);
    let client = server.client();
    let mut conn = TcpStream::connect(addr).unwrap();
    let late = [ErrorKind::DeadlineExceeded, ErrorKind::DeadlineOverrun];

    let resp = client.call(is2(person), 1);
    assert!(kind(&resp).is_some_and(|k| late.contains(&k)), "{resp:?}");
    let resp =
        tcp_call(&mut conn, &Request { id: 4, deadline_us: 1, min_seq: 0, params: is2(person) });
    assert!(kind(&resp).is_some_and(|k| late.contains(&k)), "{resp:?}");

    let log = server.access_log().snapshot();
    assert_eq!(log.len(), 2, "one record per request: {log:?}");
    assert_eq!(is_records(&log, "deadline_exceeded") + is_records(&log, "deadline_overrun"), 2);
    let report = server.shutdown();
    assert_eq!(report.deadline_missed + report.deadline_overrun, 2);
    assert_eq!(report.served_by_lane, [0, 0, 0]);
}

#[test]
fn requests_while_shutdown_drains_are_refused_inline() {
    const BACKLOG: usize = 1000;
    let store = snb_store::store_for_config(&config());
    let person = busiest_person(&store);
    let heavy = snb_params::ParamGen::new(&store, 7).bi_params(2, 8);
    // No workers: the backlog waits in the heavy lane and `shutdown`
    // drains it inline, which keeps the drain window open while the
    // transport still answers.
    let (server, addr) = start(store, 0);
    let log = server.log_handle();
    let client = server.client();
    let mut probe = TcpStream::connect(addr).unwrap();
    let mut flood = TcpStream::connect(addr).unwrap();
    let mut backlog = Vec::new();
    for i in 0..BACKLOG {
        let params = ServiceParams::Bi(heavy[i % heavy.len()].clone());
        let req = Request { id: i as u64, deadline_us: 0, min_seq: 0, params };
        proto::write_frame(&mut backlog, &proto::encode_request(&req)).unwrap();
    }
    flood.write_all(&backlog).unwrap();
    while server.queued() < BACKLOG {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drain = std::thread::spawn(move || server.shutdown());

    // Once the in-process client sees the refusal, shutdown has begun.
    let mut served_before = 0;
    loop {
        let resp = client.call(is2(person), 0);
        match kind(&resp) {
            None => served_before += 1,
            Some(ErrorKind::ShuttingDown) => break,
            Some(other) => panic!("unexpected {other:?}"),
        }
    }
    let req = Request { id: 5, deadline_us: 0, min_seq: 0, params: is2(person) };
    let resp = tcp_call(&mut probe, &req);
    assert_eq!((resp.id, kind(&resp)), (5, Some(ErrorKind::ShuttingDown)), "{resp:?}");

    let report = drain.join().unwrap();
    // After shutdown returns, the in-process path still answers typed.
    assert_eq!(kind(&client.call(is2(person), 0)), Some(ErrorKind::ShuttingDown));
    let records = log.log().snapshot();
    assert_eq!(is_records(&records, "shutting_down"), 3);
    assert_eq!(is_records(&records, "ok"), served_before);
    assert_eq!(report.served_by_lane[0], served_before as u64);
    assert_eq!(report.served_by_lane[1], BACKLOG as u64, "the admitted backlog drains");
}
