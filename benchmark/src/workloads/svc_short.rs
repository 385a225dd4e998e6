//! `svc_short`: IS 1–7 point reads against a read-only server over one
//! loopback TCP connection. Execution is microseconds, so the round
//! trip is almost entirely proto decode → lane → snapshot pin → encode
//! → socket: the layer `bi_power` skips. A server-path gain, or the
//! overhead of something added to that path, shows here and only here.
//!
//! The one client keeps [`WINDOW`] requests in flight. With a single
//! request in flight every hop between the client, the reactor and the
//! worker thread wakes a sleeping thread, and on a virtual machine the
//! cost of that wake-up (12 to 90 µs per round trip on the calibration
//! host, switching between runs) buries the 10 µs the server path
//! itself takes. A full window keeps the threads awake, so throughput
//! is the path's cost per request and latency is that cost times the
//! window.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Instant;

use snb_interactive::IsParams;
use snb_server::proto::{self, Request};
use snb_server::{OkBody, Response, Server, ServiceParams};
use snb_store::Ix;

use crate::dataset;
use crate::harness::{Plan, Recorder, Workload};
use crate::metrics::Layers;
use crate::oplist::{self, ShortOp};
use crate::stats;
use crate::trace::Rollup;

/// Requests the client keeps in flight on its connection.
const WINDOW: usize = 32;

/// Requests per slice: about 0.19 s at 130 K requests per second.
const OPS_PER_SLICE: usize = 25_000;
const WARMUP_OPS: usize = 25_000;
const SLICE_S: f64 = 0.19;

/// Sequential calls the one-in-flight probes of a traced run make.
const PROBE_CALLS: usize = 3_000;

/// Distinct person ids and distinct message ids the requests draw on.
const KEYS: usize = 1024;

/// Share of requests that must find their entity.
const MIN_HIT_SHARE: f64 = 0.95;

pub struct SvcShort {
    server: Option<Server>,
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    /// Warm-up requests first, then the slices back to back.
    ops: Vec<ShortOp>,
    ops_per_slice: usize,
    warmup_ops: usize,
    /// Row count each measured request returned, in op order.
    rows: Vec<(ShortOp, u64)>,
    /// Server-side `(queue_us, exec_us)` of traced requests.
    server_side: Vec<(u64, u64)>,
    /// Requests sent and not yet answered: id, request, send time.
    inflight: VecDeque<(u64, ShortOp, Instant)>,
    next_id: u64,
}

fn params(op: ShortOp) -> IsParams {
    IsParams::from_parts(op.0, op.1).expect("IS 1-7")
}

impl SvcShort {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until the workload is dropped")
    }

    /// Encodes and sends one request.
    fn send(&mut self, op: ShortOp, op_id: u32, rec: &mut Recorder) {
        let id = self.next_id;
        self.next_id += 1;
        let request =
            Request { id, deadline_us: 0, min_seq: 0, params: ServiceParams::Is(params(op)) };
        let span = rec.tracer.begin("server.proto_encode_request", op_id);
        let payload = proto::encode_request(&request);
        rec.tracer.end(span);
        let span = rec.tracer.begin("server.socket_send", op_id);
        let sent = proto::write_frame(&mut self.writer, &payload);
        rec.tracer.end(span);
        if let Err(e) = sent {
            rec.fail(format!("IS {} send: {e}", op.0));
        }
        self.inflight.push_back((id, op, Instant::now()));
    }

    /// Receives and decodes one response and books the request it
    /// answers.
    fn receive(&mut self, op_id: u32, keep: bool, rec: &mut Recorder) {
        let span = rec.tracer.begin("server.socket_recv", op_id);
        let frame = proto::read_frame(&mut self.reader);
        rec.tracer.end(span);
        let span = rec.tracer.begin("server.proto_decode_response", op_id);
        let response = frame.map_err(|e| e.to_string()).and_then(|f| {
            proto::decode_response(&f).map_err(|e| format!("undecodable response: {}", e.detail))
        });
        rec.tracer.end(span);
        // One worker answers in order; a response that is not the
        // oldest request's still finds its request by id.
        let answered = response
            .as_ref()
            .ok()
            .and_then(|r| self.inflight.iter().position(|(id, _, _)| *id == r.id));
        let Some((_, op, sent_at)) = self.inflight.remove(answered.unwrap_or(0)) else {
            return rec.fail("a response arrived with no request in flight".into());
        };
        rec.sample(op.0 as usize - 1, sent_at.elapsed().as_nanos() as u64);
        match response {
            Ok(Response { body: Ok(ok), .. }) if answered.is_some() => {
                if keep {
                    self.rows.push((op, ok.rows));
                    if rec.tracing() {
                        self.server_side.push((ok.queue_us, ok.exec_us));
                    }
                }
            }
            Ok(Response { body: Err(e), .. }) => {
                rec.fail(format!("IS {} refused: {} {}", op.0, e.kind.name(), e.detail))
            }
            Ok(r) => rec.fail(format!("response id {} answers no request in flight", r.id)),
            Err(why) => rec.fail(format!("IS {}: {why}", op.0)),
        }
    }

    /// One request at a time over the socket: microseconds per call.
    fn sequential_tcp_us(&mut self, ops: &[ShortOp]) -> f64 {
        let calls: Vec<f64> = ops
            .iter()
            .map(|&op| {
                let request = Request {
                    id: 0,
                    deadline_us: 0,
                    min_seq: 0,
                    params: ServiceParams::Is(params(op)),
                };
                let started = Instant::now();
                let payload = proto::encode_request(&request);
                proto::write_frame(&mut self.writer, &payload).expect("probe send");
                let frame = proto::read_frame(&mut self.reader).expect("probe receive");
                std::hint::black_box(proto::decode_response(&frame).is_ok());
                started.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        stats::median(&calls)
    }
}

impl Drop for SvcShort {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Nanoseconds per call of `f`, timed in batches because one call is
/// shorter than two clock reads: median over `reps` batches of `iters`.
fn per_call_ns(reps: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            for i in 0..iters {
                f(i);
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(&batches)
}

impl Workload for SvcShort {
    const NAME: &'static str = "svc_short";
    const SCALE: &'static str = "0.3";

    fn op_types() -> Vec<String> {
        (1..=7).map(|q| format!("is{q}")).collect()
    }

    fn slices(plan: &Plan) -> usize {
        plan.slices(SLICE_S)
    }

    fn setup(plan: &Plan) -> Self {
        let (store, _stream) = dataset::load(plan.scale(Self::SCALE));
        let mut server = Server::start(store, super::server_config());
        let addr = server.listen("127.0.0.1:0").expect("bind a loopback port");
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone the socket"));
        let (ops_per_slice, warmup_ops) =
            if plan.smoke { (600, 200) } else { (OPS_PER_SLICE, WARMUP_OPS) };
        SvcShort {
            server: Some(server),
            writer: BufWriter::new(stream),
            reader,
            ops: Vec::new(),
            ops_per_slice,
            warmup_ops,
            rows: Vec::new(),
            server_side: Vec::new(),
            inflight: VecDeque::with_capacity(WINDOW),
            next_id: 1,
        }
    }

    fn prepare(&mut self, plan: &Plan) {
        let snapshot = self.server().snapshot();
        // Person ids for IS 1–3, message ids for IS 4–7: a person id
        // handed to a message query finds nothing and measures an
        // empty lookup. For the same reason the keys are entities with
        // something to return: persons who have a friend and a
        // message, messages that have a reply.
        let active_persons: Vec<u64> = (0..snapshot.persons.len() as Ix)
            .filter(|&p| snapshot.knows.degree(p) > 0 && snapshot.person_messages.degree(p) > 0)
            .map(|p| snapshot.persons.id[p as usize])
            .collect();
        let replied_messages: Vec<u64> = (0..snapshot.messages.len() as Ix)
            .filter(|&m| snapshot.message_replies.degree(m) > 0)
            .map(|m| snapshot.messages.id[m as usize])
            .collect();
        let persons = oplist::sample(plan.seed, 1, &active_persons, KEYS);
        let messages = oplist::sample(plan.seed, 2, &replied_messages, KEYS);
        let n = self.warmup_ops + Self::slices(plan) * self.ops_per_slice;
        self.ops = oplist::short_ops(plan.seed, &persons, &messages, n);
    }

    fn run_slice(&mut self, slice: Option<usize>, rec: &mut Recorder) {
        let range = match slice {
            None => 0..self.warmup_ops,
            Some(s) => {
                let start = self.warmup_ops + s * self.ops_per_slice;
                start..start + self.ops_per_slice
            }
        };
        // Each iteration is one top-level span: take a response off a
        // full window, then send the next request.
        for i in range {
            let op_id = rec.next_op_id();
            let span = rec.tracer.begin("op", op_id);
            if self.inflight.len() == WINDOW {
                self.receive(op_id, slice.is_some(), rec);
            }
            self.send(self.ops[i], op_id, rec);
            rec.tracer.end(span);
        }
        // A slice ends with nothing in flight, so its requests are its
        // own.
        while !self.inflight.is_empty() {
            let op_id = rec.next_op_id();
            let span = rec.tracer.begin("op", op_id);
            self.receive(op_id, slice.is_some(), rec);
            rec.tracer.end(span);
        }
    }

    fn layers(&mut self, spans: &Rollup, layers: &mut Layers) {
        layers
            .set("server.proto_encode_request_ns", spans.median_ns("server.proto_encode_request"));
        layers.set(
            "server.proto_decode_response_ns",
            spans.median_ns("server.proto_decode_response"),
        );
        super::server_layers(self.server(), &self.server_side, layers);

        // The server's half of the codec, called directly on the same
        // requests and on a real response.
        let sample: Vec<ShortOp> = self.ops.iter().copied().take(KEYS).collect();
        let payloads: Vec<Vec<u8>> = sample
            .iter()
            .map(|&op| {
                proto::encode_request(&Request {
                    id: 1,
                    deadline_us: 0,
                    min_seq: 0,
                    params: ServiceParams::Is(params(op)),
                })
            })
            .collect();
        layers.set(
            "server.proto_decode_request_ns",
            per_call_ns(31, payloads.len(), |i| {
                std::hint::black_box(proto::decode_request(&payloads[i]).is_ok());
            }),
        );
        let response =
            Response { id: 1, body: Ok(OkBody { rows: 3, applied_seq: 0, ..OkBody::default() }) };
        layers.set(
            "server.proto_encode_response_ns",
            per_call_ns(31, KEYS, |_| {
                std::hint::black_box(proto::encode_response(std::hint::black_box(&response)));
            }),
        );

        // One request in flight, with and without the socket; the
        // difference is what TCP and the reactor hop cost. Both include
        // thread wake-ups, so they move with the host's mood together.
        let probe: Vec<ShortOp> = self.ops.iter().copied().take(PROBE_CALLS).collect();
        let tcp_us = self.sequential_tcp_us(&probe);
        layers.set("server.tcp_call_us", tcp_us);
        let client = self.server().client();
        let inproc: Vec<f64> = probe
            .iter()
            .map(|&op| {
                let started = Instant::now();
                std::hint::black_box(client.call(ServiceParams::Is(params(op)), 0));
                started.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        let inproc_us = stats::median(&inproc);
        layers.set("server.inproc_call_us", inproc_us);
        layers.set("server.transport_us", tcp_us - inproc_us);

        let handle = self.server().store_handle();
        layers.set(
            "store.snapshot_pin_ns",
            per_call_ns(31, 10_000, |_| {
                std::hint::black_box(handle.snapshot());
            }),
        );

        // Direct execution, per query type, on the store the server
        // serves.
        let snapshot = self.server().snapshot();
        for q in 1..=7u8 {
            let of_type: Vec<IsParams> =
                self.ops.iter().filter(|op| op.0 == q).take(KEYS).map(|&op| params(op)).collect();
            let ns = per_call_ns(15, of_type.len(), |i| {
                std::hint::black_box(snb_interactive::run_short(&snapshot, &of_type[i]));
            });
            layers.set(&format!("interactive.is{q}_us"), ns / 1e3);
        }
    }

    fn verify(self, rec: &mut Recorder) {
        let snapshot = self.server().snapshot();
        let mut expected: BTreeMap<ShortOp, u64> = BTreeMap::new();
        let mut hits = 0usize;
        for &(op, rows) in &self.rows {
            let want = *expected
                .entry(op)
                .or_insert_with(|| snb_interactive::run_short(&snapshot, &params(op)) as u64);
            if rows != want {
                rec.fail(format!("IS {} key {}: server {rows} rows, direct {want}", op.0, op.1));
            }
            hits += usize::from(rows >= 1);
        }
        let hit_share = hits as f64 / self.rows.len().max(1) as f64;
        if hit_share < MIN_HIT_SHARE {
            rec.fail(format!("only {:.1} % of requests returned a row", hit_share * 100.0));
        }
    }
}
