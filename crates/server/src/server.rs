//! The query service: admission, execution, deadlines, shutdown.
//!
//! Life of a request:
//!
//! 1. a transport — the epoll reactor (`transport.rs`) cutting
//!    frames out of TCP connection buffers, or an in-process client —
//!    hands the request to the **one admission gate** (`admit`), which
//!    classifies it into a [`Lane`] (IS/IC short reads, heavy BI,
//!    writes), refuses it (`ShuttingDown` during drain,
//!    `StorePoisoned`, `StaleRead`; `BadRequest` for undecodable frames
//!    and, later, for a write batch the store refuses) or admits it
//!    with its deadline and the **store snapshot pinned at admission**;
//! 2. placement (`dispatch`): an IS read — microseconds of work — runs
//!    right away on the thread that admitted it (the reactor, or the
//!    in-process caller), as in-process write batches already did;
//!    IC and BI reads and TCP write batches queue on their lane's
//!    bounded queue (`Overloaded` when full; the shed detail names the
//!    lane and the observed depths);
//! 3. execution, inline or on a worker popping under the weighted lane
//!    scheduler ([`LaneQueues::pop_read`] — short reads cannot be
//!    starved by a BI flood), **checks the deadline first** (a request
//!    whose deadline passed while queued is answered
//!    `DeadlineExceeded` without touching the store), binds a
//!    [`QueryContext`] to the pinned snapshot, executes, and
//!    **re-checks the deadline at completion** (a job that starts
//!    inside its budget but overruns is answered — and counted —
//!    `deadline_overrun`, not `ok`); TCP write batches drain in
//!    arrival order on the one write thread, so a WAL fsync never stalls
//!    a read worker;
//! 4. every path ends in `ServerInner::finish`, which counts the
//!    outcome in the lane × outcome tally that [`ServiceReport`] reads
//!    and cuts exactly one access-log record (carrying the lane, the
//!    `store_version` read, and the snapshot's age at execution), and
//!    yields one [`Response`], which goes back through the connection's
//!    outbox or to the waiting caller.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting (new
//! requests on either transport are refused `shutting_down`), close
//! the queue, let workers drain the already-admitted jobs, then stop
//! the reactor, join every thread, and hand back the final
//! [`ServiceReport`] with the access log intact.
//!
//! **Concurrency model** — no read waits for a write batch. The store
//! lives behind a [`StoreHandle`]. After the bulk load every write is a
//! sequenced batch on the durable path (`submit_batch`: apply, WAL
//! append + fsync, publish, ack), which builds the next immutable store
//! version on a private copy-on-write clone and publishes it with one
//! pointer swap ([`StoreHandle::publish_with`]); reads pin the current
//! version at admission and run the whole query against it, unaffected
//! by concurrent publishes and holding none of them up. A batch the store refuses
//! discards the private clone before the append, so it is never logged
//! and is answered `bad_request`. A panic discards the clone too, so
//! mid-batch state is unpublishable; the server still degrades to
//! `store_poisoned` in that case because the WAL may hold a batch the
//! published store does not (restart + recovery re-converges them).

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use snb_datagen::dictionaries::StaticWorld;
use snb_engine::QueryContext;
use snb_store::{SnapshotStats, Store, StoreHandle, StoreSnapshot};

use crate::log::{AccessLog, AccessRecord};
use crate::proto::{
    self, ErrorBody, ErrorKind, Lane, OkBody, Request, Response, ServiceParams, WriteBatch,
    WriteOps,
};
use crate::queue::{LaneQueues, PushError};
use crate::transport::Outbox;
use crate::wal::SegmentedWal;

const POISONED_DETAIL: &str =
    "store poisoned by a mid-apply panic; restart to recover from the WAL";

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue. `0` means no
    /// background workers: queued jobs run inline during `shutdown`
    /// (deterministic unit-test mode).
    pub workers: usize,
    /// Capacity of each admission lane; pushes beyond it are shed.
    pub queue_capacity: usize,
    /// Attach a per-request operator profile to responses and log
    /// records (the `--profile` seam).
    pub profiling: bool,
    /// Intra-query parallelism per worker (`QueryContext` width).
    /// Defaults to 1: the workers themselves are the unit of
    /// concurrency, matching the throughput-test design.
    pub threads_per_worker: usize,
    /// Close a TCP connection that makes no read progress for this long
    /// (slowloris protection: a half-open or stalled client must not pin
    /// its fd and buffer forever). `None` disables the idle check.
    /// Stalled closes are logged with outcome `conn_stalled`.
    pub conn_read_timeout: Option<Duration>,
    /// Read nowhere: the write lane always has exactly one drain
    /// thread (none with `workers == 0`), so a connection's pipelined
    /// batches apply in arrival order. A shim kept only because the
    /// frozen `benchmark/` package sets it.
    pub write_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_capacity: 1024,
            profiling: false,
            threads_per_worker: 1,
            conn_read_timeout: Some(Duration::from_secs(30)),
            write_workers: 1,
        }
    }
}

/// Aggregate outcome counters, returned by [`Server::shutdown`]. The
/// request-outcome fields are read from the server's lane × outcome
/// tally, so they count every request the server ended — also those
/// the access log's ring no longer holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Requests executed to completion.
    pub served: u64,
    /// Requests shed by admission control (lane full).
    pub shed: u64,
    /// Requests whose deadline passed before execution.
    pub deadline_missed: u64,
    /// Requests that started inside their budget but finished past the
    /// deadline — executed, then answered `deadline_overrun` instead of
    /// `ok`.
    pub deadline_overrun: u64,
    /// Requests rejected because the server was draining.
    pub rejected_shutdown: u64,
    /// Frames that failed to decode, and client write batches refused
    /// `bad_request` (no WAL, sequence gap).
    pub bad_requests: u64,
    /// Requests that failed during execution, plus compactions whose
    /// store image could not be written.
    pub internal_errors: u64,
    /// Update events applied by write batches on the durable path.
    pub updates_applied: u64,
    /// Delete operations applied by write batches on the durable path.
    pub deletes_applied: u64,
    /// Sequenced write batches applied through the durable write path.
    pub batches_applied: u64,
    /// Write batches acknowledged without re-applying (sequence number
    /// at or below the last applied one — a client retry of a batch
    /// whose ack was lost).
    pub batches_deduped: u64,
    /// Requests refused because the store was poisoned by a mid-apply
    /// panic (recovery = restart and replay the WAL).
    pub poisoned_rejects: u64,
    /// TCP connections closed for making no read progress within the
    /// configured timeout.
    pub conn_stalled: u64,
    /// Requests the server ended, each of which cut one access-log
    /// record (the log itself keeps only the most recent
    /// [`crate::LOG_CAPACITY`]).
    pub log_records: u64,
    /// Store versions published over the server's lifetime (0 = the
    /// bulk-loaded base version was never superseded).
    pub versions_published: u64,
    /// High-water mark of store versions simultaneously alive (the
    /// current one, the one being published and reader-pinned ones).
    pub peak_live_snapshots: u64,
    /// Always 0: a snapshot pin does not retry. Kept only because the
    /// frozen `benchmark/` package still reads it.
    pub reader_retries: u64,
    /// Always 0: a snapshot pin does not retry. Kept only because the
    /// frozen `benchmark/` package still reads it.
    pub reader_blocked: u64,
    /// Requests served per lane, indexed by [`Lane::index`]
    /// (`[short, heavy, write]`; the write slot counts applied +
    /// deduped batches routed through the write lane or inline path).
    pub served_by_lane: [u64; 3],
    /// Requests shed (lane full) per lane, indexed by [`Lane::index`].
    pub shed_by_lane: [u64; 3],
    /// TCP connections accepted over the server's lifetime.
    pub conn_accepted: u64,
    /// High-water mark of simultaneously open TCP connections.
    pub conn_peak: u64,
    /// High-water mark of response bytes waiting in one connection's
    /// outbox. A connection is not read while its outbox holds more
    /// than [`crate::OUTBOX_LIMIT`], so this stays within
    /// that bound plus one event's last response and the replies of
    /// work already queued.
    pub outbox_peak: u64,
    /// Reads refused because the server had not yet applied the
    /// requested `min_seq` (`stale_read` — retryable).
    pub stale_read_rejects: u64,
}

/// How a request ended: an outcome slot of the tally, and the
/// `outcome` of its access-log record.
#[derive(Clone, Copy)]
enum Outcome {
    Ok,
    /// A write batch at or below the applied sequence, re-acknowledged
    /// without applying it again.
    Deduped,
    /// A TCP connection closed for making no read progress.
    ConnStalled,
    Err(ErrorKind),
}

impl Outcome {
    /// `ok`, `deduped`, `conn_stalled`, then one slot per error code
    /// up to the highest, 9.
    const SLOTS: usize = 12;

    fn slot(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::Deduped => 1,
            Outcome::ConnStalled => 2,
            Outcome::Err(kind) => 2 + kind.code() as usize,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Deduped => "deduped",
            Outcome::ConnStalled => "conn_stalled",
            Outcome::Err(kind) => kind.name(),
        }
    }
}

/// Requests ended, by lane slot — `short`, `heavy`, `write`, then
/// [`NO_LANE`] for undecodable frames and connection-level records —
/// and by [`Outcome`]. [`ServerInner::finish`] is its only writer.
#[derive(Default)]
struct Tally([[AtomicU64; Outcome::SLOTS]; 4]);

/// The tally's lane slot for requests that never reached a lane.
const NO_LANE: usize = 3;

impl Tally {
    fn get(&self, lane: usize, outcome: Outcome) -> u64 {
        self.0[lane][outcome.slot()].load(Ordering::Relaxed)
    }

    /// `outcome` on each of the three lanes.
    fn by_lane(&self, outcome: Outcome) -> [u64; 3] {
        [self.get(0, outcome), self.get(1, outcome), self.get(2, outcome)]
    }

    /// `outcome` over every lane slot.
    fn total(&self, outcome: Outcome) -> u64 {
        (0..=NO_LANE).map(|lane| self.get(lane, outcome)).sum()
    }

    /// Every request ended.
    fn all(&self) -> u64 {
        self.0.iter().flatten().map(|n| n.load(Ordering::Relaxed)).sum()
    }
}

/// Counts of store and connection state; request outcomes live in the
/// [`Tally`].
#[derive(Default)]
struct Counters {
    updates_applied: AtomicU64,
    deletes_applied: AtomicU64,
    batches_applied: AtomicU64,
    batches_deduped: AtomicU64,
    conn_accepted: AtomicU64,
    conn_peak: AtomicU64,
    outbox_peak: AtomicU64,
    /// Compactions whose store image could not be written.
    compactions_failed: AtomicU64,
}

/// Where a queued job's response goes.
enum Responder {
    /// The connection's outbox, shared with the reactor.
    Tcp(Arc<Outbox>),
    /// A waiting in-process caller.
    InProc(mpsc::SyncSender<Response>),
}

/// What a request carries through admission and the queue: decoded
/// (in-process calls, and IS frames, which the reactor decodes and runs
/// itself), or a BI, IC or write frame whose binding is decoded later on
/// the worker that pops it — so a peer flooding parse-heavy bindings
/// burns worker time, never reactor time. `B` holds the raw frame:
/// borrowed from the connection buffer at the gate, owned once queued.
enum Payload<B> {
    Decoded(Request),
    Raw { frame: B, header: proto::RequestHeader },
}

impl<B: AsRef<[u8]>> Payload<B> {
    fn header(&self) -> proto::RequestHeader {
        match self {
            Payload::Decoded(req) => req.header(),
            Payload::Raw { header, .. } => *header,
        }
    }

    /// `(workload, query)` for access-log records. Raw frames are
    /// unlabelled until decoded — refusal records for them carry empty
    /// labels, exactly like the garbage path.
    fn labels(&self) -> (&'static str, u8) {
        match self {
            Payload::Decoded(req) => req.params.label(),
            Payload::Raw { .. } => ("", 0),
        }
    }

    fn decode(self) -> Result<Request, proto::DecodeError> {
        match self {
            Payload::Decoded(req) => Ok(req),
            Payload::Raw { frame, .. } => proto::decode_request(frame.as_ref()),
        }
    }
}

impl Payload<&[u8]> {
    /// The queued form: a raw frame is copied out of the connection
    /// buffer here, once.
    fn into_owned(self) -> Payload<Vec<u8>> {
        match self {
            Payload::Decoded(req) => Payload::Decoded(req),
            Payload::Raw { frame, header } => Payload::Raw { frame: frame.to_vec(), header },
        }
    }
}

/// One admitted unit of work, carrying the store version pinned at
/// admission: whatever the writer publishes while this job is queued,
/// the job reads the version that was current when it was admitted.
struct Job {
    payload: Payload<Vec<u8>>,
    seq: u64,
    lane: Lane,
    admitted: Instant,
    deadline: Option<Instant>,
    /// Pinned for reads; writes build the next version instead.
    snapshot: Option<StoreSnapshot>,
    /// The node's applied write sequence loaded at admission — stamped
    /// into the response as the bounded-staleness contract: the pinned
    /// snapshot contains every write at or below it.
    applied_seq: u64,
}

/// The durable-write machinery a server starts with when it owns a WAL:
/// typically built from [`crate::wal::Recovered`] via
/// [`Recovered::into_durability`](crate::wal::Recovered).
pub struct Durability {
    /// Open append handle (post-recovery).
    pub wal: SegmentedWal,
    /// Seeded dictionaries needed by `apply_event`.
    pub world: StaticWorld,
    /// Highest batch sequence number already applied (recovered);
    /// deduplication resumes from here.
    pub last_seq: u64,
}

/// Serialized under one mutex so WAL append, store apply, and sequence
/// accounting are atomic with respect to other write batches.
struct DurableState {
    wal: SegmentedWal,
    world: StaticWorld,
}

pub(crate) struct ServerInner {
    store: Arc<StoreHandle>,
    queue: LaneQueues<(Job, Responder)>,
    log: AccessLog,
    accepting: AtomicBool,
    /// See [`ServerInner::transport_open`].
    transport_open: AtomicBool,
    config: ServerConfig,
    tally: Tally,
    counters: Counters,
    durable: Option<Mutex<DurableState>>,
    last_applied_seq: AtomicU64,
    /// Set when a write failed or panicked mid-apply. The *published*
    /// store is still consistent (the failed version was discarded
    /// unpublished), but the WAL and the store have diverged — an
    /// appended batch was never applied — so every request is refused
    /// with `store_poisoned` until restart-and-recovery re-converges
    /// them.
    degraded: AtomicBool,
}

impl ServerInner {
    /// Renders the consistent per-lane depth snapshot that admission
    /// refusals carry, so clients and the chaos harness can distinguish
    /// lane-full from global overload.
    fn depths_detail(&self) -> String {
        let d = self.queue.depths();
        format!("lanes short={} heavy={} write={}", d[0], d[1], d[2])
    }

    /// The one way a request ends: counts `outcome` on `lane` in the
    /// tally (`None` for undecodable frames and connection-level
    /// records, which never reach a lane) and cuts the request's one
    /// access-log record. The record starts with `seq`, the lane, the
    /// outcome and the store version current now; `fill` adds what the
    /// request did.
    fn finish(
        &self,
        seq: u64,
        lane: Option<Lane>,
        outcome: Outcome,
        fill: impl FnOnce(&mut AccessRecord),
    ) {
        let slot = lane.map_or(NO_LANE, Lane::index);
        self.tally.0[slot][outcome.slot()].fetch_add(1, Ordering::Relaxed);
        let mut record = AccessRecord {
            seq,
            lane: lane.map_or("", Lane::name),
            outcome: outcome.name(),
            store_version: self.store.version(),
            ..AccessRecord::default()
        };
        fill(&mut record);
        self.log.push(record);
    }

    /// The detail text of a refusal: the refusing lane and the live
    /// depths for `overloaded` and `shutting_down`, the lag against
    /// `min_seq` for `stale_read`.
    fn refusal_detail(&self, kind: ErrorKind, lane: Lane, min_seq: u64) -> String {
        match kind {
            ErrorKind::Overloaded => format!(
                "{} lane full (capacity {}; {})",
                lane.name(),
                self.queue.capacity(),
                self.depths_detail()
            ),
            ErrorKind::ShuttingDown => {
                format!("server is draining for shutdown ({})", self.depths_detail())
            }
            ErrorKind::StorePoisoned => POISONED_DETAIL.to_string(),
            ErrorKind::StaleRead => {
                let applied = self.last_applied_seq.load(Ordering::Acquire);
                format!(
                    "min_seq {min_seq}, applied {applied} (lag {})",
                    min_seq.saturating_sub(applied)
                )
            }
            other => other.name().to_string(),
        }
    }

    /// The single refusal path behind every admission rejection: one
    /// `finish` and the typed error response. `labels` is `(workload,
    /// query)` — empty for raw frames that were never decoded.
    fn refuse(
        &self,
        seq: u64,
        header: &proto::RequestHeader,
        labels: (&'static str, u8),
        kind: ErrorKind,
    ) -> Response {
        self.finish(seq, Some(header.lane), Outcome::Err(kind), |r| {
            (r.workload, r.query) = labels;
        });
        let detail = self.refusal_detail(kind, header.lane, header.min_seq);
        Response { id: header.id, body: Err(ErrorBody { kind, queue_us: 0, detail }) }
    }

    /// Refuses one job the lane would not keep (lane full, or closed
    /// for shutdown), whichever payload form it carries.
    fn refuse_job(&self, job: &Job, kind: ErrorKind) -> Response {
        self.refuse(job.seq, &job.payload.header(), job.payload.labels(), kind)
    }

    /// The one admission gate, for both transports and for queued and
    /// inline execution alike: `shutting_down`, `store_poisoned`, the
    /// `stale_read` floor, then
    /// the deadline and — for reads — the store version pinned at
    /// admission. Exactly one access-log sequence number is claimed; a
    /// refusal is logged and answered here.
    fn admit(&self, payload: Payload<&[u8]>) -> Result<Job, Response> {
        let header = payload.header();
        let lane = header.lane;
        let seq = self.log.next_seq();
        let refuse = |kind| Err(self.refuse(seq, &header, payload.labels(), kind));
        if !self.accepting.load(Ordering::Acquire) {
            return refuse(ErrorKind::ShuttingDown);
        }
        if self.degraded.load(Ordering::Acquire) {
            return refuse(ErrorKind::StorePoisoned);
        }
        // Bounded-staleness gate: load the applied high-water mark
        // *before* pinning the snapshot. `submit_batch` publishes the
        // store version before bumping `last_applied_seq`, so a
        // snapshot pinned after this load necessarily contains every
        // write at or below it.
        let applied_seq = self.last_applied_seq.load(Ordering::Acquire);
        if header.min_seq > applied_seq {
            return refuse(ErrorKind::StaleRead);
        }
        let admitted = Instant::now();
        let deadline =
            (header.deadline_us > 0).then(|| admitted + Duration::from_micros(header.deadline_us));
        // Pin the store version here, at admission: a read runs against
        // this version no matter how many publishes land while it queues.
        let snapshot = (lane != Lane::Write).then(|| self.store.snapshot());
        Ok(Job {
            payload: payload.into_owned(),
            seq,
            lane,
            admitted,
            deadline,
            snapshot,
            applied_seq,
        })
    }

    /// Runs an admitted job where it belongs: IS reads on the calling
    /// thread — the reactor that decoded the frame, or the in-process
    /// caller — and in-process write batches on the submitting thread
    /// (they serialize on the durability lock anyway). IC and BI reads,
    /// which can run for milliseconds, and TCP write batches, which wait
    /// on an fsync, queue on their lane with `to` as the responder.
    /// Returns the response when the job ran here.
    fn dispatch(
        &self,
        ctx: &QueryContext,
        job: Job,
        to: impl FnOnce() -> Responder,
    ) -> Option<Response> {
        match &job.payload {
            Payload::Decoded(Request { params: ServiceParams::Is(_), .. }) => {
                Some(self.execute(ctx, job))
            }
            Payload::Decoded(Request { params: ServiceParams::Write(_), .. }) => {
                Some(self.execute_write(job))
            }
            _ => {
                self.push_job(job, to());
                None
            }
        }
    }

    /// The TCP entry point for one frame cut from a connection buffer:
    /// only the fixed header is parsed before admission. IS frames are
    /// decoded in place and run on the reactor with its `ctx`; the rest
    /// are copied once and queued with the connection's outbox as
    /// responder. Returns the response when the frame was answered here.
    pub(crate) fn admit_frame(
        &self,
        ctx: &QueryContext,
        frame: &[u8],
        out: &Arc<Outbox>,
    ) -> Option<Response> {
        let payload = match proto::peek_header(frame) {
            Ok(header) if header.workload == "IS" => match proto::decode_request(frame) {
                Ok(request) => Payload::Decoded(request),
                Err(e) => return Some(self.bad_request(self.log.next_seq(), e)),
            },
            Ok(header) => Payload::Raw { frame, header },
            Err(e) => return Some(self.bad_request(self.log.next_seq(), e)),
        };
        match self.admit(payload) {
            Ok(job) => self.dispatch(ctx, job, || Responder::Tcp(Arc::clone(out))),
            Err(refusal) => Some(refusal),
        }
    }

    /// The in-process entry point: the TCP gate and placement rule, with
    /// the caller blocking for a queued job's response.
    fn call(&self, request: Request) -> Response {
        let id = request.id;
        let job = match self.admit(Payload::Decoded(request)) {
            Ok(job) => job,
            Err(refusal) => return refusal,
        };
        let mut waiting = None;
        let ran = self.dispatch(&self.context(1), job, || {
            let (tx, rx) = mpsc::sync_channel(1);
            waiting = Some(rx);
            Responder::InProc(tx)
        });
        ran.or_else(|| waiting?.recv().ok()).unwrap_or(Response {
            id,
            body: Err(ErrorBody {
                kind: ErrorKind::ShuttingDown,
                queue_us: 0,
                detail: "server terminated before responding".into(),
            }),
        })
    }

    fn push_job(&self, job: Job, to: Responder) {
        let lane = job.lane;
        match self.queue.try_push(lane, (job, to)) {
            Ok(()) => {}
            Err(PushError::Full((job, to))) => {
                self.respond(&to, self.refuse_job(&job, ErrorKind::Overloaded), false)
            }
            Err(PushError::Closed((job, to))) => {
                self.respond(&to, self.refuse_job(&job, ErrorKind::ShuttingDown), false)
            }
        }
    }

    /// Delivers a queued job's response. A lane worker (`may_wait`)
    /// gives a slow TCP peer up to the stall budget to take it;
    /// admission, which may run on the reactor, never waits — what the
    /// socket does not take stays in the outbox for the reactor.
    fn respond(&self, to: &Responder, resp: Response, may_wait: bool) {
        match to {
            Responder::Tcp(out) => self.note_outbox(out.deliver(&resp, may_wait)),
            Responder::InProc(tx) => {
                let _ = tx.send(resp);
            }
        }
    }

    /// Answers one undecodable frame, logged under `seq` on no lane. The
    /// rejection carries the lane depths so a flooding client can tell
    /// protocol failure apart from overload even on the garbage path.
    fn bad_request(&self, seq: u64, e: proto::DecodeError) -> Response {
        self.finish(seq, None, Outcome::Err(ErrorKind::BadRequest), |_| {});
        let detail = format!("{} ({})", e.detail, self.depths_detail());
        Response {
            id: e.id.unwrap_or(u64::MAX),
            body: Err(ErrorBody { kind: ErrorKind::BadRequest, queue_us: 0, detail }),
        }
    }

    /// Runs one admitted write batch — on the write thread, or inline
    /// for an in-process submitter — and answers it (ack ⇔ the batch is
    /// durable and applied, or was already applied and is being
    /// re-acknowledged). Raw TCP frames are decoded here: a decode
    /// failure still answers a typed `bad_request`, off the reactor.
    fn execute_write(&self, job: Job) -> Response {
        let queue_us = job.admitted.elapsed().as_micros() as u64;
        let request = match job.payload.decode() {
            Ok(req) => req,
            Err(e) => return self.bad_request(job.seq, e),
        };
        let (workload, query) = request.params.label();
        let ServiceParams::Write(batch) = &request.params else {
            unreachable!("the write lane only carries Write params");
        };
        let started = Instant::now();
        let result = self.submit_batch(batch);
        let exec_us = started.elapsed().as_micros() as u64;
        let (outcome, rows, fingerprint) = match &result {
            Ok((outcome, ok)) => (*outcome, ok.rows, ok.fingerprint),
            Err(e) => (Outcome::Err(e.kind), 0, 0),
        };
        self.finish(job.seq, Some(Lane::Write), outcome, |r| {
            (r.workload, r.query, r.queue_us, r.exec_us) = (workload, query, queue_us, exec_us);
            (r.rows, r.fingerprint) = (rows, fingerprint);
        });
        let body = match result {
            Ok((_, mut ok)) => {
                ok.queue_us = queue_us;
                ok.exec_us = exec_us;
                Ok(ok)
            }
            Err(mut e) => {
                e.queue_us = queue_us;
                Err(e)
            }
        };
        Response { id: request.id, body }
    }

    /// The durable write path: dedupe check → build the next store
    /// version → WAL append + fsync → publish it → bump the applied
    /// sequence → maybe compact → ack. Returns the outcome (`Ok`
    /// or `Deduped`) with the ack body. It counts no outcome itself:
    /// `execute_write` ends the request.
    ///
    /// The ack body encodes the contract: `fingerprint` is the highest
    /// applied sequence number after this call, and `rows` is the
    /// number of operations applied *by this call* — `0` for a dedupe
    /// re-ack, so a client can tell first-apply from replay.
    fn submit_batch(&self, batch: &WriteBatch) -> Result<(Outcome, OkBody), ErrorBody> {
        let err = |kind: ErrorKind, detail: String| ErrorBody { kind, queue_us: 0, detail };
        let refused = if self.degraded.load(Ordering::Acquire) {
            Some(ErrorKind::StorePoisoned)
        } else if !self.accepting.load(Ordering::Acquire) {
            Some(ErrorKind::ShuttingDown)
        } else {
            None
        };
        if let Some(kind) = refused {
            return Err(err(kind, self.refusal_detail(kind, Lane::Write, 0)));
        }
        let Some(durable) = &self.durable else {
            return Err(err(
                ErrorKind::BadRequest,
                "server has no write-ahead log (start with --wal-dir)".into(),
            ));
        };
        let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let last = self.last_applied_seq.load(Ordering::Acquire);
        if batch.seq <= last {
            // Already applied, so already durable; the ack was lost
            // somewhere.
            self.counters.batches_deduped.fetch_add(1, Ordering::Relaxed);
            return Ok((
                Outcome::Deduped,
                OkBody { rows: 0, fingerprint: last, applied_seq: last, ..OkBody::default() },
            ));
        }
        if batch.seq != last + 1 {
            return Err(err(
                ErrorKind::BadRequest,
                format!("sequence gap: got batch {}, expected {}", batch.seq, last + 1),
            ));
        }
        // Build the next store version on a private copy-on-write clone,
        // log and fsync the batch, then publish the clone atomically. A
        // batch the store refuses (an unknown id, a hostile field) is
        // discarded with the clone before it reaches the log, so it is a
        // bad request that uses up no sequence number. A failed append
        // discards the clone too: not durable ⇒ not applied, not
        // acknowledged. Readers never observe a batch half-applied.
        let mut logging = false;
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.store.publish_with(|next| {
                let counts = match &batch.ops {
                    WriteOps::Updates(events) => {
                        events.iter().try_for_each(|ev| next.apply_event(ev, &state.world))?;
                        (events.len() as u64, 0u64)
                    }
                    WriteOps::Deletes(dels) => {
                        next.apply_deletes(dels)?;
                        (0, dels.len() as u64)
                    }
                };
                logging = true;
                state.wal.append(batch.seq, &batch.ops)?;
                // The window a crash between the append and the publish
                // leaves: the log holds a batch the store does not.
                if let Some(fault) = snb_fault::check("writer.apply.panic") {
                    fault.trip("writer.apply.panic");
                }
                Ok(counts)
            })
        }));
        match applied {
            Ok(Ok((updates, deletes))) => {
                self.counters.updates_applied.fetch_add(updates, Ordering::Relaxed);
                self.counters.deletes_applied.fetch_add(deletes, Ordering::Relaxed);
                self.counters.batches_applied.fetch_add(1, Ordering::Relaxed);
                self.last_applied_seq.store(batch.seq, Ordering::Release);
                // The durability lock is held, so the published store is
                // exactly the state at `batch.seq`. A failed compaction
                // is not fatal: the log still holds every record and
                // the next append retries.
                if state.wal.compaction_due()
                    && state.wal.compact(self.store.snapshot().store()).is_err()
                {
                    self.counters.compactions_failed.fetch_add(1, Ordering::Relaxed);
                }
                Ok((
                    Outcome::Ok,
                    OkBody {
                        rows: batch.ops.len() as u64,
                        fingerprint: batch.seq,
                        applied_seq: batch.seq,
                        ..OkBody::default()
                    },
                ))
            }
            Ok(Err(refused)) if !logging => Err(err(
                ErrorKind::BadRequest,
                format!("batch {} refused, not logged: {refused}", batch.seq),
            )),
            // The store is still consistent; the client retries after
            // restart.
            Ok(Err(e)) => Err(err(ErrorKind::Internal, format!("WAL append failed: {e}"))),
            Err(_) => {
                // The log may hold a batch the published store does not,
                // so the server refuses further work until
                // restart-recovery re-converges them.
                self.degraded.store(true, Ordering::Release);
                Err(err(
                    ErrorKind::StorePoisoned,
                    format!("panic while applying batch {}; restart to recover", batch.seq),
                ))
            }
        }
    }

    /// Executes one admitted read job on `ctx` — on a lane worker, or
    /// inline on the thread that admitted it: deadline check before
    /// execution (don't execute work the client gave up on), execution
    /// against the admission-pinned snapshot, then a second deadline
    /// check at completion — a job that started inside its budget but
    /// overran mid-execution is answered `deadline_overrun`, not `ok`.
    /// Every outcome ends in one `finish`.
    fn execute(&self, ctx: &QueryContext, job: Job) -> Response {
        let Job { payload, seq, lane, admitted, deadline, snapshot, applied_seq } = job;
        let queue_us = admitted.elapsed().as_micros() as u64;
        // Raw frames decode here, on the worker: a parse-heavy binding
        // costs worker time, never reactor time, and a decode failure
        // still answers a typed `bad_request`.
        let request = match payload.decode() {
            Ok(req) => req,
            Err(e) => return self.bad_request(seq, e),
        };
        let snapshot = snapshot.expect("reads pin a snapshot at admission");
        let store_version = snapshot.version();
        let (workload, query) = request.params.label();
        let (mut exec_us, mut snapshot_age_us, mut rows, mut fingerprint) = (0, 0, 0, 0);
        let result = 'run: {
            // A poisoning write may have landed while this job was queued.
            if self.degraded.load(Ordering::Acquire) {
                break 'run Err((ErrorKind::StorePoisoned, POISONED_DETAIL.to_string()));
            }
            if deadline.is_some_and(|d| Instant::now() > d) {
                let detail = format!("deadline passed after {queue_us}us in queue; not executed");
                break 'run Err((ErrorKind::DeadlineExceeded, detail));
            }
            ctx.metrics().reset();
            let started = Instant::now();
            snapshot_age_us = snapshot.age().as_micros() as u64;
            // Bind the context to the version pinned at admission: the
            // query reads that immutable snapshot — no lock, no
            // interference from concurrent publishes.
            let bound = ctx.clone().with_snapshot(snapshot);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match &request.params {
                    ServiceParams::Bi(p) => {
                        let s = snb_bi::run_bound(&bound, p);
                        (s.rows as u64, s.fingerprint)
                    }
                    ServiceParams::Ic(p) => {
                        (snb_interactive::run_complex_bound(&bound, p) as u64, 0)
                    }
                    ServiceParams::Is(p) => (snb_interactive::run_short_bound(&bound, p) as u64, 0),
                    // Write batches never reach read execution; the unwind
                    // turns a slipped-through one into `internal`.
                    ServiceParams::Write(_) => unreachable!("write batches bypass the read lanes"),
                }
            }));
            exec_us = started.elapsed().as_micros() as u64;
            let Ok(ran) = ran else {
                let detail = format!("{workload} {query} panicked during execution");
                break 'run Err((ErrorKind::Internal, detail));
            };
            (rows, fingerprint) = ran;
            // Completion-time deadline check: the work is done (and its
            // cost is visible in exec_us), but the client's budget is
            // spent — report it as an overrun, never as a success.
            if deadline.is_some_and(|d| Instant::now() > d) {
                let detail = format!(
                    "started inside the budget but overran it: {queue_us}us queued + {exec_us}us \
                     executing"
                );
                break 'run Err((ErrorKind::DeadlineOverrun, detail));
            }
            Ok(self.config.profiling.then(|| Box::new(ctx.metrics().snapshot())))
        };
        let outcome = match &result {
            Ok(_) => Outcome::Ok,
            Err((kind, _)) => Outcome::Err(*kind),
        };
        self.finish(seq, Some(lane), outcome, |r| {
            (r.workload, r.query, r.queue_us, r.exec_us) = (workload, query, queue_us, exec_us);
            (r.rows, r.fingerprint) = (rows, fingerprint);
            (r.store_version, r.snapshot_age_us) = (store_version, snapshot_age_us);
            r.profile = result.as_ref().ok().cloned().flatten();
        });
        let body = match result {
            Ok(profile) => {
                Ok(OkBody { rows, fingerprint, queue_us, exec_us, applied_seq, profile })
            }
            Err((kind, detail)) => Err(ErrorBody { kind, queue_us, detail }),
        };
        Response { id: request.id, body }
    }

    /// A query context `threads` wide with the server's profiling
    /// setting: `threads_per_worker` for a lane worker, one for
    /// inline execution (the reactor's own, or an in-process caller's).
    pub(crate) fn context(&self, threads: usize) -> QueryContext {
        let ctx =
            if threads <= 1 { QueryContext::single_threaded() } else { QueryContext::new(threads) };
        ctx.with_profiling(self.config.profiling)
    }

    /// Server configuration (the transport reads its idle timeout).
    pub(crate) fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether the TCP reactor keeps running. It outlives `accepting` —
    /// frames arriving while shutdown drains are answered
    /// `shutting_down`, and queued responses still leave — until the
    /// admitted work has drained.
    pub(crate) fn transport_open(&self) -> bool {
        self.transport_open.load(Ordering::Acquire)
    }

    /// Counts one accepted connection; `open` is how many are open now.
    pub(crate) fn conn_opened(&self, open: usize) {
        self.counters.conn_accepted.fetch_add(1, Ordering::Relaxed);
        self.counters.conn_peak.fetch_max(open as u64, Ordering::Relaxed);
    }

    /// Logs a connection closed for making no progress within `limit`
    /// (outcome `conn_stalled`).
    pub(crate) fn conn_stalled(&self, limit: Duration) {
        self.finish(self.log.next_seq(), None, Outcome::ConnStalled, |r| {
            r.queue_us = limit.as_micros() as u64;
        });
    }

    /// Records how many bytes one connection's outbox held.
    pub(crate) fn note_outbox(&self, pending: usize) {
        self.counters.outbox_peak.fetch_max(pending as u64, Ordering::Relaxed);
    }

    fn report(&self) -> ServiceReport {
        let snap = self.store.stats();
        let (tally, counters) = (&self.tally, &self.counters);
        let refused = |kind| tally.total(Outcome::Err(kind));
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let [short, heavy, write] = tally.by_lane(Outcome::Ok);
        let served_by_lane =
            [short, heavy, write + tally.get(Lane::Write.index(), Outcome::Deduped)];
        let shed_by_lane = tally.by_lane(Outcome::Err(ErrorKind::Overloaded));
        ServiceReport {
            served: short + heavy,
            shed: shed_by_lane.iter().sum(),
            served_by_lane,
            shed_by_lane,
            deadline_missed: refused(ErrorKind::DeadlineExceeded),
            deadline_overrun: refused(ErrorKind::DeadlineOverrun),
            rejected_shutdown: refused(ErrorKind::ShuttingDown),
            bad_requests: refused(ErrorKind::BadRequest),
            internal_errors: refused(ErrorKind::Internal) + load(&counters.compactions_failed),
            poisoned_rejects: refused(ErrorKind::StorePoisoned),
            conn_stalled: tally.total(Outcome::ConnStalled),
            stale_read_rejects: refused(ErrorKind::StaleRead),
            log_records: tally.all(),
            updates_applied: load(&counters.updates_applied),
            deletes_applied: load(&counters.deletes_applied),
            batches_applied: load(&counters.batches_applied),
            batches_deduped: load(&counters.batches_deduped),
            conn_accepted: load(&counters.conn_accepted),
            conn_peak: load(&counters.conn_peak),
            outbox_peak: load(&counters.outbox_peak),
            versions_published: snap.version,
            peak_live_snapshots: snap.peak_live_versions,
            reader_retries: 0,
            reader_blocked: 0,
        }
    }
}

/// The running query service.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The one write-lane drain thread (`None` with `workers == 0`).
    writer: Option<std::thread::JoinHandle<()>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Server {
    /// Starts the service over an exclusively-owned store without a
    /// write-ahead log: write batches are refused `bad_request`, since
    /// nothing could make them durable.
    pub fn start(store: Store, config: ServerConfig) -> Server {
        Server::start_with(store, config, None)
    }

    /// Starts the service with a write-ahead log: sequenced write
    /// batches submitted through the protocol's `Write` workload are
    /// appended + fsynced before publish and ack, and deduplicated against
    /// `durability.last_seq` (the recovered high-water mark).
    pub fn start_durable(store: Store, config: ServerConfig, durability: Durability) -> Server {
        Server::start_with(store, config, Some(durability))
    }

    /// The one constructor behind [`Server::start`] and
    /// [`Server::start_durable`].
    fn start_with(store: Store, config: ServerConfig, durability: Option<Durability>) -> Server {
        let store = Arc::new(StoreHandle::new(store));
        let (durable, last_seq) = match durability {
            None => (None, 0),
            Some(d) => (Some(Mutex::new(DurableState { wal: d.wal, world: d.world })), d.last_seq),
        };
        let queue = LaneQueues::new(config.queue_capacity);
        let inner = Arc::new(ServerInner {
            store,
            queue,
            log: AccessLog::new(),
            accepting: AtomicBool::new(true),
            transport_open: AtomicBool::new(true),
            config,
            tally: Tally::default(),
            counters: Counters::default(),
            durable,
            last_applied_seq: AtomicU64::new(last_seq),
            degraded: AtomicBool::new(false),
        });
        let workers: Vec<_> = (0..inner.config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    let ctx = inner.context(inner.config.threads_per_worker);
                    while let Some((_lane, (job, to))) = inner.queue.pop_read() {
                        inner.respond(&to, inner.execute(&ctx, job), true);
                    }
                })
            })
            .collect();
        // The write lane gets one drain thread of its own, so a WAL
        // fsync never stalls read progress and a connection's pipelined
        // batches apply in the order they arrived; with `workers == 0`
        // (inline test mode) writes drain inline at shutdown too.
        let writer = (inner.config.workers > 0).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                while let Some((job, to)) = inner.queue.pop_write() {
                    inner.respond(&to, inner.execute_write(job), true);
                }
            })
        });
        Server { inner, workers, writer, acceptor: None, local_addr: None }
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections; returns the bound address.
    ///
    /// The transport is a readiness-driven reactor
    /// (`transport.rs`): a single thread `epoll_wait`s on the
    /// listener plus every connection, so an idle connection costs one
    /// registered fd and a buffer rather than an OS thread — the
    /// property that lets `service_load --sweep` hold a thousand
    /// connections open against a fixed thread count — and IS reads run
    /// on that thread. epoll is Linux-only: elsewhere this returns
    /// [`std::io::ErrorKind::Unsupported`] and the in-process transport
    /// ([`Server::client`]) is the way in.
    #[cfg(target_os = "linux")]
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.local_addr = Some(local);
        let inner = Arc::clone(&self.inner);
        let poller = crate::reactor::Poller::new()?;
        self.acceptor =
            Some(std::thread::spawn(move || crate::transport::run(&inner, listener, poller)));
        Ok(local)
    }

    /// See the Linux build's documentation: there is no TCP transport
    /// without epoll.
    #[cfg(not(target_os = "linux"))]
    pub fn listen(&mut self, _addr: &str) -> std::io::Result<SocketAddr> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the TCP transport needs epoll (Linux); use the in-process client",
        ))
    }

    /// The bound TCP address, when listening.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// An in-process client handle (deterministic test transport).
    pub fn client(&self) -> InProcClient {
        InProcClient { inner: Arc::clone(&self.inner), next_id: AtomicU64::new(1) }
    }

    /// The snapshot-publication handle (for oracles pinning versions).
    pub fn store_handle(&self) -> Arc<StoreHandle> {
        Arc::clone(&self.inner.store)
    }

    /// Pins the latest published store version.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.inner.store.snapshot()
    }

    /// Snapshot-publication counters (versions published, live/peak
    /// snapshot gauges).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.inner.store.stats()
    }

    /// `fsync(2)` calls issued by the WAL so far (0 without one): one
    /// per appended batch.
    pub fn wal_syncs(&self) -> u64 {
        let Some(durable) = &self.inner.durable else { return 0 };
        let state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.wal.syncs()
    }

    /// The access log: the most recent [`crate::LOG_CAPACITY`] records.
    pub fn access_log(&self) -> &AccessLog {
        &self.inner.log
    }

    /// A handle to the access log that stays valid after
    /// [`Server::shutdown`] consumes the server — the binary uses it to
    /// flush the final log (drained records included) to disk.
    pub fn log_handle(&self) -> LogHandle {
        LogHandle { inner: Arc::clone(&self.inner) }
    }

    /// Point-in-time counter snapshot (the final one comes from
    /// [`Server::shutdown`]).
    pub fn report_now(&self) -> ServiceReport {
        self.inner.report()
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.inner.queue.len()
    }

    /// Highest write-batch sequence number applied (0 when the server
    /// has no durable write path or nothing was submitted).
    pub fn last_applied_seq(&self) -> u64 {
        self.inner.last_applied_seq.load(Ordering::Acquire)
    }

    /// Whether a mid-apply panic has poisoned the store (every request
    /// is refused until restart-and-recovery).
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Graceful drain-then-shutdown: stop accepting, finish every
    /// admitted job, join all threads, return the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.inner.accepting.store(false, Ordering::Release);
        self.inner.queue.close();
        // No background workers (test mode): drain both read lanes and
        // the write lane inline so admitted jobs still complete before
        // the report is cut.
        let inner = &self.inner;
        if self.workers.is_empty() {
            let ctx = inner.context(inner.config.threads_per_worker);
            while let Some((_lane, (job, to))) = inner.queue.pop_read() {
                inner.respond(&to, inner.execute(&ctx, job), true);
            }
        }
        if self.writer.is_none() {
            while let Some((job, to)) = inner.queue.pop_write() {
                inner.respond(&to, inner.execute_write(job), true);
            }
        }
        for w in self.workers.drain(..).chain(self.writer.take()) {
            let _ = w.join();
        }
        // Everything admitted is answered: now the transport may go.
        inner.transport_open.store(false, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.inner.report()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt-and-braces for servers dropped without `shutdown()`:
        // unblock workers and the reactor so their threads exit instead
        // of leaking.
        self.inner.accepting.store(false, Ordering::Release);
        self.inner.transport_open.store(false, Ordering::Release);
        self.inner.queue.close();
    }
}

/// Owner-independent view of the server's access log (outlives
/// [`Server::shutdown`]).
pub struct LogHandle {
    inner: Arc<ServerInner>,
}

impl LogHandle {
    /// The underlying access log.
    pub fn log(&self) -> &AccessLog {
        &self.inner.log
    }

    /// Writes the log as JSON Lines to `path`.
    pub fn flush_to(&self, path: &str) -> std::io::Result<()> {
        self.inner.log.flush_to(path)
    }
}

/// Deterministic in-process transport: submits through the same
/// admission gate as TCP and follows the same placement rule — IS reads
/// (and write batches) run on the calling thread, IC and BI reads block
/// for a lane worker's response.
pub struct InProcClient {
    inner: Arc<ServerInner>,
    next_id: AtomicU64,
}

impl InProcClient {
    /// Executes one request; `deadline_us = 0` means no deadline.
    pub fn call(&self, params: ServiceParams, deadline_us: u64) -> Response {
        self.call_min_seq(params, deadline_us, 0)
    }

    /// Like [`InProcClient::call`] with a bounded-staleness floor: the
    /// request is refused with `stale_read` unless the server has
    /// applied at least write sequence `min_seq`.
    pub fn call_min_seq(&self, params: ServiceParams, deadline_us: u64, min_seq: u64) -> Response {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner.call(Request { id, deadline_us, min_seq, params })
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.inner.config.workers)
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .field("local_addr", &self.local_addr)
            .finish()
    }
}
