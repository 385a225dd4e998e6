//! The query service: admission, execution, deadlines, shutdown.
//!
//! Life of a request:
//!
//! 1. a transport — the epoll reactor (`transport.rs`) cutting
//!    frames out of TCP connection buffers, or an in-process client —
//!    hands the request to the **one admission gate** (`admit`), which
//!    classifies it into a [`Lane`] (IS/IC short reads, heavy BI,
//!    writes), refuses it (`ShuttingDown` during drain,
//!    `StorePoisoned`, `StaleRead`, `NotPrimary`/`Fenced` for writes;
//!    `BadRequest` for undecodable frames) or admits it with its
//!    deadline and the **store snapshot pinned at admission**;
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
//!    `deadline_overrun`, not `ok`); write batches drain on dedicated
//!    write workers so a WAL fsync never stalls a read worker;
//! 4. every path appends exactly one access-log record (carrying the
//!    lane, the `store_version` read, and the snapshot's age at
//!    execution) and yields one [`Response`], which goes back through
//!    the connection's outbox or to the waiting caller.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting (new
//! requests on either transport are refused `shutting_down`), close
//! the queue, let workers drain the already-admitted jobs, then stop
//! the reactor, join every thread, and hand back the final
//! [`ServiceReport`] with the access log intact.
//!
//! **Concurrency model** — there is no lock anywhere on the read path.
//! The store lives behind a [`StoreHandle`]. After the bulk load every
//! write is a sequenced batch on the durable path (`submit_batch`: WAL
//! append, then apply) or, on a bootstrapping follower, a shipped
//! image. Either builds the next immutable store version on a private
//! copy-on-write clone and publishes it with one atomic swap
//! ([`StoreHandle::publish_with`]); reads pin the current version at
//! admission and run the whole query against it, unaffected by — and
//! never blocking — concurrent publishes. A failed or panicking apply
//! discards the private clone, so mid-batch state is unpublishable;
//! the server still degrades to `store_poisoned` in that case because
//! the WAL holds a batch the published store does not (restart +
//! recovery re-converges them).

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, TryLockError};
use std::time::{Duration, Instant};

use snb_core::{SnbError, SnbResult};
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

/// Group-commit formation window: how long an ack-waiter parks before
/// volunteering as the flusher. Long enough for the successor batch
/// (whose client is typically already retrying a sequence-gap
/// rejection) to append and join the fsync; short enough to bound the
/// extra ack latency when the waiter turns out to be alone.
const GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(250);

const POISONED_DETAIL: &str =
    "store poisoned by a mid-apply panic; restart to recover from the WAL";

/// Per-lane admission settings. Zero / `None` fields inherit the
/// server-wide `queue_capacity` / `default_deadline`, so existing
/// callers that only set the global knobs keep their exact semantics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaneSettings {
    /// Lane queue capacity; `0` inherits [`ServerConfig::queue_capacity`].
    pub capacity: usize,
    /// Deadline for requests on this lane that carry none; `None`
    /// inherits [`ServerConfig::default_deadline`].
    pub deadline: Option<Duration>,
}

/// Admission-lane configuration: one [`LaneSettings`] per lane plus
/// the read-scheduler weight.
#[derive(Clone, Debug, Default)]
pub struct LanesConfig {
    /// IS/IC short reads.
    pub short: LaneSettings,
    /// Heavy BI analytics.
    pub heavy: LaneSettings,
    /// Sequenced write batches.
    pub write: LaneSettings,
    /// Short pops per heavy pop when both read lanes hold work; `0`
    /// means the default (4:1).
    pub short_weight: u64,
}

impl LanesConfig {
    /// The settings for one lane.
    pub fn lane(&self, lane: Lane) -> &LaneSettings {
        match lane {
            Lane::Short => &self.short,
            Lane::Heavy => &self.heavy,
            Lane::Write => &self.write,
        }
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue. `0` means no
    /// background workers: queued jobs run inline during `shutdown`
    /// (deterministic unit-test mode).
    pub workers: usize,
    /// Admission-queue capacity; pushes beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
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
    /// Per-lane capacities and deadlines (fields left at their defaults
    /// inherit `queue_capacity` / `default_deadline`).
    pub lanes: LanesConfig,
    /// Dedicated threads draining the write lane (TCP write batches),
    /// so a WAL fsync never stalls a read worker. Clamped to at least
    /// 1 when `workers > 0`; with `workers == 0` (deterministic test
    /// mode) no write workers spawn either and both drains happen
    /// inline at shutdown.
    pub write_workers: usize,
    /// Start in read-only (follower) mode: client write batches are
    /// refused with `not_primary` (terminal-with-redirect) while the
    /// replication applier keeps the store moving. Flipped off by
    /// [`Server::promote`].
    pub read_only: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_capacity: 1024,
            default_deadline: None,
            profiling: false,
            threads_per_worker: 1,
            conn_read_timeout: Some(Duration::from_secs(30)),
            lanes: LanesConfig::default(),
            write_workers: 2,
            read_only: false,
        }
    }
}

impl ServerConfig {
    /// The resolved capacity of one lane (its own, or the inherited
    /// `queue_capacity`).
    pub fn lane_capacity(&self, lane: Lane) -> usize {
        let own = self.lanes.lane(lane).capacity;
        if own > 0 {
            own
        } else {
            self.queue_capacity
        }
    }

    /// The resolved no-deadline default of one lane (its own, or the
    /// inherited `default_deadline`).
    pub fn lane_deadline(&self, lane: Lane) -> Option<Duration> {
        self.lanes.lane(lane).deadline.or(self.default_deadline)
    }

    /// The resolved short:heavy drain ratio.
    pub fn short_weight(&self) -> u64 {
        if self.lanes.short_weight > 0 {
            self.lanes.short_weight
        } else {
            4
        }
    }
}

/// Aggregate outcome counters, returned by [`Server::shutdown`].
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
    /// `ok` (the satellite bugfix: overruns used to be miscounted as
    /// served).
    pub deadline_overrun: u64,
    /// Requests rejected because the server was draining.
    pub rejected_shutdown: u64,
    /// Frames that failed to decode.
    pub bad_requests: u64,
    /// Requests that failed during execution.
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
    /// Total access-log records (one per request that reached the
    /// server).
    pub log_records: u64,
    /// Store versions published over the server's lifetime (0 = the
    /// bulk-loaded base version was never superseded).
    pub versions_published: u64,
    /// High-water mark of store versions simultaneously alive
    /// (publication ring + reader-pinned snapshots).
    pub peak_live_snapshots: u64,
    /// Snapshot-reader pin attempts that raced a publish and retried.
    pub reader_retries: u64,
    /// Snapshot-reader retry loops that hit the safety valve and
    /// yielded — must be zero under any sane publish rate (asserted by
    /// `crates/server/tests/concurrent_stress.rs`).
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
    /// Write batches refused because the node was a read-only follower
    /// (`not_primary` — the client must redirect to the primary).
    pub not_primary_rejects: u64,
    /// Reads refused because the node had not yet applied the
    /// requested `min_seq` (`stale_read` — retryable, lag drains).
    pub stale_read_rejects: u64,
    /// Write batches refused because the node was fenced — a higher
    /// fencing epoch was observed, so a newer primary exists and acking
    /// here would fork history (`fenced` — terminal with redirect).
    pub fenced_rejects: u64,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed: AtomicU64,
    deadline_missed: AtomicU64,
    deadline_overrun: AtomicU64,
    rejected_shutdown: AtomicU64,
    bad_requests: AtomicU64,
    internal_errors: AtomicU64,
    updates_applied: AtomicU64,
    deletes_applied: AtomicU64,
    batches_applied: AtomicU64,
    batches_deduped: AtomicU64,
    poisoned_rejects: AtomicU64,
    conn_stalled: AtomicU64,
    served_by_lane: [AtomicU64; 3],
    shed_by_lane: [AtomicU64; 3],
    conn_accepted: AtomicU64,
    conn_peak: AtomicU64,
    outbox_peak: AtomicU64,
    not_primary_rejects: AtomicU64,
    stale_read_rejects: AtomicU64,
    fenced_rejects: AtomicU64,
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

    /// `(workload, query, binding_hash)` for access-log records. Raw
    /// frames are unlabelled until decoded — refusal records for them
    /// carry empty labels, exactly like the garbage path.
    fn labels(&self) -> (&'static str, u8, u64) {
        match self {
            Payload::Decoded(req) => {
                let (w, q) = req.params.label();
                (w, q, req.params.binding_hash())
            }
            Payload::Raw { .. } => ("", 0, 0),
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
    /// Fencing epoch recovered from the WAL headers — the replication
    /// term the node serves at until promotion bumps it.
    pub epoch: u64,
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
    counters: Counters,
    durable: Option<Mutex<DurableState>>,
    last_applied_seq: AtomicU64,
    /// Group-commit ack gate: the highest sequence number covered by a
    /// completed flush. With `group_commit` on, a write's ack is held
    /// until this reaches its sequence number — many submitters then
    /// share one fsync without weakening "acknowledged ⇒ durable".
    flushed_seq: AtomicU64,
    /// Parking lot for ack-waiters ([`ServerInner::wait_for_flush`]).
    flush_mutex: Mutex<()>,
    flush_cv: Condvar,
    /// Set when a write failed or panicked mid-apply. The *published*
    /// store is still consistent (the failed version was discarded
    /// unpublished), but the WAL and the store have diverged — an
    /// appended batch was never applied — so every request is refused
    /// with `store_poisoned` until restart-and-recovery re-converges
    /// them.
    degraded: AtomicBool,
    /// Follower mode: client writes are refused with `not_primary`.
    /// The replication applier bypasses admission (it calls
    /// [`ServerInner::submit_batch`] directly), so shipped records
    /// apply regardless. Cleared by promotion.
    read_only: AtomicBool,
    /// The node's fencing epoch — the replication term it serves under.
    /// Durable in the WAL header; bumped (and fsynced) by promotion
    /// *before* `read_only` clears.
    epoch: AtomicU64,
    /// Set when the node observes a higher fencing epoch than its own
    /// while writable: a newer primary exists, so every client write is
    /// refused with `fenced` instead of acking into a forked history.
    /// Never cleared except by promotion (which bumps past the fencing
    /// term).
    fenced: AtomicBool,
    /// Client-facing address of the current primary, when known —
    /// carried in `not_primary`/`fenced` details as a redirect hint.
    primary_hint: Mutex<String>,
    /// Replication-listener address the follower loop should subscribe
    /// to. Updated by `Announce`/`Deny` handling; the follower loop
    /// re-reads it each reconnect, which is what makes re-subscription
    /// to a new primary automatic.
    repl_target: Mutex<String>,
}

impl ServerInner {
    /// Whether the server is still accepting work (replication ship
    /// loops exit when this clears).
    pub(crate) fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Highest applied write sequence (the follower's Hello cursor and
    /// the non-group-commit ship bound).
    pub(crate) fn applied_seq(&self) -> u64 {
        self.last_applied_seq.load(Ordering::Acquire)
    }

    /// The replication ship bound: the highest sequence whose ack has
    /// been released. Under group commit an applied-but-unflushed batch
    /// is not yet acked, so shipping stops at `flushed_seq`; otherwise
    /// apply and ack coincide at `last_applied_seq`. Followers must
    /// never see a record the primary could still disavow.
    pub(crate) fn acked_seq(&self, group_commit: bool) -> u64 {
        if group_commit {
            self.flushed_seq.load(Ordering::Acquire)
        } else {
            self.last_applied_seq.load(Ordering::Acquire)
        }
    }

    /// Whether the WAL runs group commit (`None` without a WAL) — read
    /// once per replication listener, not per poll.
    pub(crate) fn wal_group_commit(&self) -> Option<bool> {
        let durable = self.durable.as_ref()?;
        let state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(state.wal.options().group_commit)
    }

    /// Whether client writes are refused (follower mode).
    pub(crate) fn read_only_flag(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// The node's current fencing epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the node has been fenced by a higher epoch.
    pub(crate) fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    /// Fences the node at `epoch`: a newer primary exists, so client
    /// writes are refused with `fenced` from here on. `primary` (when
    /// non-empty) becomes the redirect hint. Raises the stored epoch so
    /// later frames at the same term aren't "higher" again.
    pub(crate) fn fence(&self, epoch: u64, primary: &str) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        self.fenced.store(true, Ordering::Release);
        if !primary.is_empty() {
            self.set_primary_hint(primary);
        }
    }

    /// Adopts a newer epoch observed on the wire *without* fencing —
    /// the follower path: a read-only node tracking its primary's term
    /// is not a zombie, it just learned the term changed.
    pub(crate) fn observe_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The current redirect hint (client-facing primary address), empty
    /// when unknown.
    pub(crate) fn primary_hint(&self) -> String {
        self.primary_hint.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    pub(crate) fn set_primary_hint(&self, addr: &str) {
        let mut hint = self.primary_hint.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *hint = addr.to_string();
    }

    /// The replication listener the follower loop should subscribe to
    /// (empty = stick with the address it was started with).
    pub(crate) fn repl_target(&self) -> String {
        self.repl_target.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    pub(crate) fn set_repl_target(&self, addr: &str) {
        let mut t = self.repl_target.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *t = addr.to_string();
    }

    /// Promotion: durably bumps the fencing epoch to at least
    /// `min_epoch` (and at least one past the node's own term), *then*
    /// clears follower mode — the order matters, because a crash
    /// between the two must leave a node that recovers fenced-forward,
    /// never a writable node at the old term. Returns the writable-from
    /// seq and the new epoch. Idempotent: re-promoting an
    /// already-writable node only reports its state.
    pub(crate) fn promote_inner(&self, min_epoch: u64) -> SnbResult<(u64, u64)> {
        if self.read_only.load(Ordering::Acquire) || self.is_fenced() {
            let new_epoch = min_epoch.max(self.epoch().saturating_add(1));
            if let Some(durable) = self.durable.as_ref() {
                let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                state.wal.bump_epoch(new_epoch)?;
            }
            self.epoch.fetch_max(new_epoch, Ordering::AcqRel);
            // A fenced ex-primary re-promoted into a newer term is a
            // primary again; its writes carry the new epoch.
            self.fenced.store(false, Ordering::Release);
            self.read_only.store(false, Ordering::Release);
        }
        Ok((self.last_applied_seq.load(Ordering::Acquire), self.epoch()))
    }

    /// Renders the consistent per-lane depth snapshot that admission
    /// refusals carry, so clients and the chaos harness can distinguish
    /// lane-full from global overload (the satellite bugfix for shed
    /// responses that used to report nothing but `queue_us: 0`).
    fn depths_detail(&self) -> String {
        let d = self.queue.depths();
        format!("lanes short={} heavy={} write={}", d[0], d[1], d[2])
    }

    /// The single refusal path behind every admission rejection:
    /// counters, one access-log record, and the typed error response.
    /// `labels` is `(workload, query, binding_hash)` — empty for raw
    /// frames that were never decoded; the header's `min_seq` feeds the
    /// `stale_read` detail so the client sees its lag.
    fn refuse(
        &self,
        seq: u64,
        header: &proto::RequestHeader,
        labels: (&'static str, u8, u64),
        kind: ErrorKind,
    ) -> Response {
        let (workload, query, binding_hash) = labels;
        let lane = header.lane;
        match kind {
            ErrorKind::Overloaded => {
                self.counters.shed_by_lane[lane.index()].fetch_add(1, Ordering::Relaxed);
                self.counters.shed.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::ShuttingDown => {
                self.counters.rejected_shutdown.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::StorePoisoned => {
                self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::NotPrimary => {
                self.counters.not_primary_rejects.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::StaleRead => {
                self.counters.stale_read_rejects.fetch_add(1, Ordering::Relaxed)
            }
            ErrorKind::Fenced => self.counters.fenced_rejects.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        self.log.push(AccessRecord {
            seq,
            workload,
            query,
            binding_hash,
            lane: lane.name(),
            queue_us: 0,
            exec_us: 0,
            outcome: kind.name(),
            rows: 0,
            fingerprint: 0,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
        });
        let detail = match kind {
            ErrorKind::Overloaded => {
                format!(
                    "{} lane full (capacity {}; {})",
                    lane.name(),
                    self.queue.capacity(lane),
                    self.depths_detail()
                )
            }
            ErrorKind::ShuttingDown => {
                format!("server is draining for shutdown ({})", self.depths_detail())
            }
            ErrorKind::StorePoisoned => POISONED_DETAIL.to_string(),
            ErrorKind::NotPrimary => {
                let hint = self.primary_hint();
                if hint.is_empty() {
                    "read-only follower; route writes to the primary".to_string()
                } else {
                    format!("read-only follower; route writes to the primary (primary={hint})")
                }
            }
            ErrorKind::Fenced => {
                let hint = self.primary_hint();
                let epoch = self.epoch();
                if hint.is_empty() {
                    format!("fenced: a newer primary exists at epoch {epoch}")
                } else {
                    format!("fenced: a newer primary exists at epoch {epoch} (primary={hint})")
                }
            }
            ErrorKind::StaleRead => {
                let applied = self.last_applied_seq.load(Ordering::Acquire);
                let min_seq = header.min_seq;
                format!(
                    "min_seq {min_seq}, applied {applied} (lag {})",
                    min_seq.saturating_sub(applied)
                )
            }
            other => other.name().to_string(),
        };
        Response { id: header.id, body: Err(ErrorBody { kind, queue_us: 0, detail }) }
    }

    /// Refuses one job the lane would not keep (lane full, or closed
    /// for shutdown), whichever payload form it carries.
    fn refuse_job(&self, job: &Job, kind: ErrorKind) -> Response {
        self.refuse(job.seq, &job.payload.header(), job.payload.labels(), kind)
    }

    /// The one admission gate, for both transports and for queued and
    /// inline execution alike: follower and fencing refusals for writes,
    /// `shutting_down`, `store_poisoned`, the `stale_read` floor, then
    /// the deadline and — for reads — the store version pinned at
    /// admission. Exactly one access-log sequence number is claimed; a
    /// refusal is logged and answered here.
    fn admit(&self, payload: Payload<&[u8]>) -> Result<Job, Response> {
        let header = payload.header();
        let lane = header.lane;
        let seq = self.log.next_seq();
        let refuse = |kind| Err(self.refuse(seq, &header, payload.labels(), kind));
        if lane == Lane::Write && self.read_only.load(Ordering::Acquire) {
            // Follower: client writes can never succeed here (the
            // replication applier is the only writer) — terminal with
            // redirect.
            return refuse(ErrorKind::NotPrimary);
        }
        if lane == Lane::Write && self.is_fenced() {
            // Zombie ex-primary: a newer term exists, so acking this
            // write would fork history — terminal with redirect.
            return refuse(ErrorKind::Fenced);
        }
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
        let deadline = if header.deadline_us > 0 {
            Some(admitted + Duration::from_micros(header.deadline_us))
        } else {
            self.config.lane_deadline(lane).map(|d| admitted + d)
        };
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
    /// (they serialize on the durability lock anyway, and the
    /// group-commit window wants concurrent submitters parked in
    /// `submit_batch`). IC and BI reads, which can run for milliseconds,
    /// and TCP write batches, which can wait on an fsync, queue on their
    /// lane with `to` as the responder. Returns the response when the
    /// job ran here.
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
                Err(e) => return Some(self.bad_request(e)),
            },
            Ok(header) => Payload::Raw { frame, header },
            Err(e) => return Some(self.bad_request(e)),
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

    /// Answers one undecodable frame. The rejection carries the lane
    /// depths so a flooding client can tell protocol failure apart from
    /// overload even on the garbage path.
    fn bad_request(&self, e: proto::DecodeError) -> Response {
        let seq = self.log.next_seq();
        self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        self.log.push(AccessRecord {
            seq,
            workload: "",
            query: 0,
            binding_hash: 0,
            lane: "",
            queue_us: 0,
            exec_us: 0,
            outcome: ErrorKind::BadRequest.name(),
            rows: 0,
            fingerprint: 0,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
        });
        let detail = format!("{} ({})", e.detail, self.depths_detail());
        Response {
            id: e.id.unwrap_or(u64::MAX),
            body: Err(ErrorBody { kind: ErrorKind::BadRequest, queue_us: 0, detail }),
        }
    }

    /// Runs one admitted write batch — on a write worker, or inline for
    /// an in-process submitter — and answers it (ack ⇔ the batch is
    /// durable and applied, or was already applied and is being
    /// re-acknowledged). Raw TCP frames are decoded here: a decode
    /// failure still answers a typed `bad_request`, off the reactor.
    fn execute_write(&self, job: Job) -> Response {
        let queue_us = job.admitted.elapsed().as_micros() as u64;
        let request = match job.payload.decode() {
            Ok(req) => req,
            Err(e) => return self.bad_request(e),
        };
        let (workload, query) = request.params.label();
        let binding_hash = request.params.binding_hash();
        let ServiceParams::Write(batch) = &request.params else {
            unreachable!("the write lane only carries Write params");
        };
        let started = Instant::now();
        let result = self.submit_batch(batch);
        let exec_us = started.elapsed().as_micros() as u64;
        let (outcome, rows, fingerprint) = match &result {
            Ok((outcome, ok)) => (*outcome, ok.rows, ok.fingerprint),
            Err(e) => (e.kind.name(), 0, 0),
        };
        if result.is_ok() {
            self.counters.served_by_lane[Lane::Write.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.log.push(AccessRecord {
            seq: job.seq,
            workload,
            query,
            binding_hash,
            lane: Lane::Write.name(),
            queue_us,
            exec_us,
            outcome,
            rows,
            fingerprint,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
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

    /// The durable write path: dedupe check → WAL append (flushed) →
    /// build + publish the next store version → bump the applied
    /// sequence → maybe rotate the snapshot. Returns the log outcome
    /// label with the ack body.
    ///
    /// The ack body encodes the contract: `fingerprint` is the highest
    /// applied sequence number after this call, and `rows` is the
    /// number of operations applied *by this call* — `0` for a dedupe
    /// re-ack, so a client can tell first-apply from replay.
    pub(crate) fn submit_batch(
        &self,
        batch: &WriteBatch,
    ) -> Result<(&'static str, OkBody), ErrorBody> {
        let err = |kind: ErrorKind, detail: String| ErrorBody { kind, queue_us: 0, detail };
        // The split-brain chaos point: firing it opens the process-wide
        // partition window (`partition:MS@hN` = at the N-th submitted
        // batch), under which the transport black-holes traffic without
        // closing sockets. Hit-counted here so the window opens at a
        // deterministic point in the write stream.
        if let Some(fault) = snb_fault::check("net.partition") {
            fault.trip("net.partition");
        }
        if self.is_fenced() {
            self.counters.fenced_rejects.fetch_add(1, Ordering::Relaxed);
            let hint = self.primary_hint();
            let detail = if hint.is_empty() {
                format!("fenced: a newer primary exists at epoch {}", self.epoch())
            } else {
                format!("fenced: a newer primary exists at epoch {} (primary={hint})", self.epoch())
            };
            return Err(err(ErrorKind::Fenced, detail));
        }
        if self.degraded.load(Ordering::Acquire) {
            self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(err(ErrorKind::StorePoisoned, POISONED_DETAIL.into()));
        }
        if !self.accepting.load(Ordering::Acquire) {
            self.counters.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            return Err(err(ErrorKind::ShuttingDown, "server is draining for shutdown".into()));
        }
        let Some(durable) = &self.durable else {
            self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Err(err(
                ErrorKind::BadRequest,
                "server has no write-ahead log (start with --wal-dir)".into(),
            ));
        };
        let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let group = state.wal.options().group_commit;
        let last = self.last_applied_seq.load(Ordering::Acquire);
        if batch.seq <= last {
            // Already applied; the ack was lost somewhere. With group
            // commit the covering flush may not have run yet — a re-ack
            // must not get ahead of the durability the original ack
            // would have waited for.
            if group && self.flushed_seq.load(Ordering::Acquire) < batch.seq {
                if let Err(e) = state.wal.sync_all() {
                    self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(err(ErrorKind::Internal, format!("WAL flush failed: {e}")));
                }
                self.note_flushed(state.wal.last_seq());
            }
            self.counters.batches_deduped.fetch_add(1, Ordering::Relaxed);
            return Ok((
                "deduped",
                OkBody { rows: 0, fingerprint: last, applied_seq: last, ..OkBody::default() },
            ));
        }
        if batch.seq != last + 1 {
            self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Err(err(
                ErrorKind::BadRequest,
                format!("sequence gap: got batch {}, expected {}", batch.seq, last + 1),
            ));
        }
        if let Err(e) = state.wal.append(batch.seq, &batch.ops) {
            // Not durable ⇒ not applied, not acknowledged. The store is
            // still consistent; the client retries after restart.
            self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
            return Err(err(ErrorKind::Internal, format!("WAL append failed: {e}")));
        }
        // Build the next store version on a private copy-on-write clone
        // and publish it atomically; an error or panic discards the
        // clone, so readers can never observe the batch half-applied.
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.store.publish_with(|next| {
                let r = match &batch.ops {
                    WriteOps::Updates(events) => {
                        let mut n = 0u64;
                        let mut result = Ok(());
                        for ev in events {
                            if let Some(fault) = snb_fault::check("writer.apply.panic") {
                                fault.trip("writer.apply.panic");
                            }
                            if let Err(e) = next.apply_event(ev, &state.world) {
                                result = Err(e);
                                break;
                            }
                            n += 1;
                        }
                        result.map(|()| (n, 0u64))
                    }
                    WriteOps::Deletes(dels) => {
                        if let Some(fault) = snb_fault::check("writer.apply.panic") {
                            fault.trip("writer.apply.panic");
                        }
                        next.apply_deletes(dels).map(|_| (0u64, dels.len() as u64))
                    }
                };
                if !next.date_index_fresh() {
                    next.rebuild_date_index();
                }
                r
            })
        }));
        match applied {
            Ok(Ok((updates, deletes))) => {
                self.counters.updates_applied.fetch_add(updates, Ordering::Relaxed);
                self.counters.deletes_applied.fetch_add(deletes, Ordering::Relaxed);
                self.counters.batches_applied.fetch_add(1, Ordering::Relaxed);
                self.last_applied_seq.store(batch.seq, Ordering::Release);
                // Group commit: flush inline once the backlog reaches
                // `fsync_every` (bounds how many unacked submitters can
                // pile up); otherwise leave the flush to whichever
                // waiter gets the lock first.
                if group && state.wal.unsynced() >= state.wal.options().fsync_every.max(1) {
                    if let Err(e) = state.wal.sync_all() {
                        self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(err(ErrorKind::Internal, format!("WAL flush failed: {e}")));
                    }
                    self.note_flushed(state.wal.last_seq());
                }
                // The durability lock is held, so the published store is
                // exactly the state at `batch.seq`. A failed compaction
                // is not fatal: the log still holds every record and
                // the next append retries.
                if state.wal.compaction_due() {
                    match state.wal.compact(self.store.snapshot().store()) {
                        // The image covers every append so far.
                        Ok(()) => self.note_flushed(batch.seq),
                        Err(_) => {
                            self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                drop(state);
                if group {
                    self.wait_for_flush(durable, batch.seq)?;
                }
                Ok((
                    "ok",
                    OkBody {
                        rows: batch.ops.len() as u64,
                        fingerprint: batch.seq,
                        applied_seq: batch.seq,
                        ..OkBody::default()
                    },
                ))
            }
            Ok(Err(apply_err)) => {
                // A semantic failure part-way through a batch (e.g. an
                // unknown id on the third event) discarded the private
                // clone — readers keep a consistent store — but the WAL
                // now holds a batch the published store does not, so the
                // server must refuse further work until restart-recovery
                // re-converges them.
                self.degraded.store(true, Ordering::Release);
                self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
                Err(err(
                    ErrorKind::StorePoisoned,
                    format!("apply failed mid-batch ({apply_err}); restart to recover"),
                ))
            }
            Err(_) => {
                self.degraded.store(true, Ordering::Release);
                self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
                Err(err(
                    ErrorKind::StorePoisoned,
                    format!("panic while applying batch {}; restart to recover", batch.seq),
                ))
            }
        }
    }

    /// Installs a shipped store image (follower bootstrap): lands the
    /// blob as the WAL directory's image, truncates the log behind it
    /// (every held record is at or below the image's sequence), and
    /// publishes the decoded store wholesale. After this the node
    /// resumes applying shipped records from `header.seq + 1`.
    pub(crate) fn install_image(&self, bytes: &[u8]) -> SnbResult<crate::image::ImageHeader> {
        let Some(durable) = &self.durable else {
            return Err(SnbError::Config(
                "image bootstrap requires a WAL directory (start with --wal-dir)".into(),
            ));
        };
        let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (store, header) = state.wal.install_image(bytes)?;
        self.store.publish_with(|next| {
            *next = store;
            Ok(())
        })?;
        self.last_applied_seq.store(header.seq, Ordering::Release);
        self.flushed_seq.fetch_max(header.seq, Ordering::AcqRel);
        self.observe_epoch(header.epoch);
        Ok(header)
    }

    /// Records a completed flush covering everything appended up to
    /// `seq` and wakes the ack-waiters.
    fn note_flushed(&self, seq: u64) {
        self.flushed_seq.fetch_max(seq, Ordering::AcqRel);
        let _parked = self.flush_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.flush_cv.notify_all();
    }

    /// Group-commit ack gate: blocks until a flush covers `my_seq`.
    /// Whichever waiter finds the durability lock free runs
    /// [`SegmentedWal::sync_all`] for everyone — one fsync releases
    /// every waiter whose append it covers; waiters that find the lock
    /// busy park briefly (an appender or flusher is making progress).
    fn wait_for_flush(&self, durable: &Mutex<DurableState>, my_seq: u64) -> Result<(), ErrorBody> {
        // Group-formation window (the commit-delay trade): park briefly
        // before volunteering to flush, so the successor batch — whose
        // client is usually already retrying its sequence-gap rejection
        // — can append first and share the fsync. A flush completing
        // during the window wakes every waiter early; checking
        // `flushed_seq` under `flush_mutex` pairs with `note_flushed`
        // taking it before notifying, so the wakeup cannot be missed.
        if self.flushed_seq.load(Ordering::Acquire) < my_seq {
            let parked = self.flush_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if self.flushed_seq.load(Ordering::Acquire) < my_seq {
                match self.flush_cv.wait_timeout(parked, GROUP_COMMIT_WINDOW) {
                    Ok((guard, _timed_out)) => drop(guard),
                    Err(poisoned) => drop(poisoned.into_inner()),
                }
            }
        }
        loop {
            if self.flushed_seq.load(Ordering::Acquire) >= my_seq {
                return Ok(());
            }
            match durable.try_lock() {
                Ok(mut state) => {
                    if self.flushed_seq.load(Ordering::Acquire) >= my_seq {
                        return Ok(());
                    }
                    if let Err(e) = state.wal.sync_all() {
                        self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(ErrorBody {
                            kind: ErrorKind::Internal,
                            queue_us: 0,
                            detail: format!("WAL flush failed: {e}"),
                        });
                    }
                    self.note_flushed(state.wal.last_seq());
                    return Ok(());
                }
                Err(TryLockError::Poisoned(p)) => {
                    drop(p);
                    // A writer panicked holding the lock; the degraded
                    // path owns recovery. Do not ack.
                    return Err(ErrorBody {
                        kind: ErrorKind::StorePoisoned,
                        queue_us: 0,
                        detail: "durability lock poisoned before the covering flush".into(),
                    });
                }
                Err(TryLockError::WouldBlock) => {
                    let parked =
                        self.flush_mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    match self.flush_cv.wait_timeout(parked, Duration::from_micros(200)) {
                        Ok((guard, _timed_out)) => drop(guard),
                        Err(poisoned) => drop(poisoned.into_inner()),
                    }
                }
            }
        }
    }

    /// Executes one admitted read job on `ctx` — on a lane worker, or
    /// inline on the thread that admitted it: deadline check before
    /// execution (don't execute work the client gave up on), execution
    /// against the admission-pinned snapshot, then a second deadline
    /// check at completion — a job that started inside its budget but
    /// overran mid-execution is answered `deadline_overrun`, not `ok`.
    /// Every outcome appends exactly one access-log record.
    fn execute(&self, ctx: &QueryContext, job: Job) -> Response {
        let Job { payload, seq, lane, admitted, deadline, snapshot, applied_seq } = job;
        let queue_us = admitted.elapsed().as_micros() as u64;
        // Raw frames decode here, on the worker: a parse-heavy binding
        // costs worker time, never reactor time, and a decode failure
        // still answers a typed `bad_request`.
        let request = match payload.decode() {
            Ok(req) => req,
            Err(e) => return self.bad_request(e),
        };
        let snapshot = snapshot.expect("reads pin a snapshot at admission");
        let id = request.id;
        let (workload, query) = request.params.label();
        let mut record = AccessRecord {
            seq,
            workload,
            query,
            binding_hash: request.params.binding_hash(),
            lane: lane.name(),
            queue_us,
            exec_us: 0,
            outcome: "ok",
            rows: 0,
            fingerprint: 0,
            store_version: snapshot.version(),
            snapshot_age_us: 0,
            profile: None,
        };
        let fail = |mut record: AccessRecord, kind: ErrorKind, detail: String| {
            record.outcome = kind.name();
            self.log.push(record);
            Response { id, body: Err(ErrorBody { kind, queue_us, detail }) }
        };
        // A poisoning write may have landed while this job was queued.
        if self.degraded.load(Ordering::Acquire) {
            self.counters.poisoned_rejects.fetch_add(1, Ordering::Relaxed);
            return fail(record, ErrorKind::StorePoisoned, POISONED_DETAIL.into());
        }
        if deadline.is_some_and(|d| Instant::now() > d) {
            self.counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
            let detail = format!("deadline passed after {queue_us}us in queue; not executed");
            return fail(record, ErrorKind::DeadlineExceeded, detail);
        }
        ctx.metrics().reset();
        let started = Instant::now();
        record.snapshot_age_us = snapshot.age().as_micros() as u64;
        // Bind the context to the version pinned at admission: the
        // query reads that immutable snapshot — no lock, no
        // interference from concurrent publishes.
        let bound = ctx.clone().with_snapshot(snapshot);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match &request.params {
                ServiceParams::Bi(p) => {
                    let s = snb_bi::run_bound(&bound, p);
                    (s.rows as u64, s.fingerprint)
                }
                ServiceParams::Ic(p) => (snb_interactive::run_complex_bound(&bound, p) as u64, 0),
                ServiceParams::Is(p) => (snb_interactive::run_short_bound(&bound, p) as u64, 0),
                // Write batches never reach read execution; the unwind
                // turns a slipped-through one into `internal`.
                ServiceParams::Write(_) => unreachable!("write batches bypass the read lanes"),
            }
        }));
        let exec_us = started.elapsed().as_micros() as u64;
        record.exec_us = exec_us;
        let Ok((rows, fingerprint)) = outcome else {
            self.counters.internal_errors.fetch_add(1, Ordering::Relaxed);
            let detail = format!("{workload} {query} panicked during execution");
            return fail(record, ErrorKind::Internal, detail);
        };
        (record.rows, record.fingerprint) = (rows, fingerprint);
        // Completion-time deadline check: the work is done (and its cost
        // is visible in exec_us), but the client's budget is spent —
        // report it as an overrun, never as a success.
        if deadline.is_some_and(|d| Instant::now() > d) {
            self.counters.deadline_overrun.fetch_add(1, Ordering::Relaxed);
            let detail = format!(
                "started inside the budget but overran it: {queue_us}us queued + {exec_us}us \
                 executing"
            );
            return fail(record, ErrorKind::DeadlineOverrun, detail);
        }
        let profile = self.config.profiling.then(|| Box::new(ctx.metrics().snapshot()));
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        self.counters.served_by_lane[lane.index()].fetch_add(1, Ordering::Relaxed);
        record.profile = profile.clone();
        self.log.push(record);
        Response {
            id,
            body: Ok(OkBody { rows, fingerprint, queue_us, exec_us, applied_seq, profile }),
        }
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
        self.counters.conn_stalled.fetch_add(1, Ordering::Relaxed);
        self.log.push(AccessRecord {
            seq: self.log.next_seq(),
            workload: "",
            query: 0,
            binding_hash: 0,
            lane: "",
            queue_us: limit.as_micros() as u64,
            exec_us: 0,
            outcome: "conn_stalled",
            rows: 0,
            fingerprint: 0,
            store_version: self.store.version(),
            snapshot_age_us: 0,
            profile: None,
        });
    }

    /// Records how many bytes one connection's outbox held.
    pub(crate) fn note_outbox(&self, pending: usize) {
        self.counters.outbox_peak.fetch_max(pending as u64, Ordering::Relaxed);
    }

    fn report(&self) -> ServiceReport {
        let snap = self.store.stats();
        let by = |a: &[AtomicU64; 3]| {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
            ]
        };
        ServiceReport {
            served: self.counters.served.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            served_by_lane: by(&self.counters.served_by_lane),
            shed_by_lane: by(&self.counters.shed_by_lane),
            deadline_missed: self.counters.deadline_missed.load(Ordering::Relaxed),
            deadline_overrun: self.counters.deadline_overrun.load(Ordering::Relaxed),
            rejected_shutdown: self.counters.rejected_shutdown.load(Ordering::Relaxed),
            bad_requests: self.counters.bad_requests.load(Ordering::Relaxed),
            internal_errors: self.counters.internal_errors.load(Ordering::Relaxed),
            updates_applied: self.counters.updates_applied.load(Ordering::Relaxed),
            deletes_applied: self.counters.deletes_applied.load(Ordering::Relaxed),
            batches_applied: self.counters.batches_applied.load(Ordering::Relaxed),
            batches_deduped: self.counters.batches_deduped.load(Ordering::Relaxed),
            poisoned_rejects: self.counters.poisoned_rejects.load(Ordering::Relaxed),
            conn_stalled: self.counters.conn_stalled.load(Ordering::Relaxed),
            conn_accepted: self.counters.conn_accepted.load(Ordering::Relaxed),
            conn_peak: self.counters.conn_peak.load(Ordering::Relaxed),
            outbox_peak: self.counters.outbox_peak.load(Ordering::Relaxed),
            not_primary_rejects: self.counters.not_primary_rejects.load(Ordering::Relaxed),
            stale_read_rejects: self.counters.stale_read_rejects.load(Ordering::Relaxed),
            fenced_rejects: self.counters.fenced_rejects.load(Ordering::Relaxed),
            log_records: self.log.len() as u64,
            versions_published: snap.version,
            peak_live_snapshots: snap.peak_live_versions,
            reader_retries: snap.reader_retries,
            reader_blocked: snap.reader_blocked,
        }
    }
}

/// The running query service.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    write_workers: Vec<std::thread::JoinHandle<()>>,
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
    /// appended + flushed before apply and ack, and deduplicated against
    /// `durability.last_seq` (the recovered high-water mark).
    pub fn start_durable(store: Store, config: ServerConfig, durability: Durability) -> Server {
        Server::start_with(store, config, Some(durability))
    }

    /// The one constructor behind [`Server::start`] and
    /// [`Server::start_durable`].
    fn start_with(store: Store, config: ServerConfig, durability: Option<Durability>) -> Server {
        let store = Arc::new(StoreHandle::new(store));
        let (durable, last_seq, epoch) = match durability {
            None => (None, 0, 0),
            Some(d) => {
                (Some(Mutex::new(DurableState { wal: d.wal, world: d.world })), d.last_seq, d.epoch)
            }
        };
        let queue = LaneQueues::new(
            [
                config.lane_capacity(Lane::Short),
                config.lane_capacity(Lane::Heavy),
                config.lane_capacity(Lane::Write),
            ],
            config.short_weight(),
        );
        let read_only = config.read_only;
        let inner = Arc::new(ServerInner {
            store,
            queue,
            log: AccessLog::new(),
            accepting: AtomicBool::new(true),
            transport_open: AtomicBool::new(true),
            config,
            counters: Counters::default(),
            durable,
            last_applied_seq: AtomicU64::new(last_seq),
            flushed_seq: AtomicU64::new(last_seq),
            flush_mutex: Mutex::new(()),
            flush_cv: Condvar::new(),
            degraded: AtomicBool::new(false),
            read_only: AtomicBool::new(read_only),
            epoch: AtomicU64::new(epoch),
            fenced: AtomicBool::new(false),
            primary_hint: Mutex::new(String::new()),
            repl_target: Mutex::new(String::new()),
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
        // The write lane gets its own drain threads so a WAL fsync in
        // one batch never stalls read progress; with `workers == 0`
        // (inline test mode) writes drain inline at shutdown too.
        let write_worker_count =
            if inner.config.workers == 0 { 0 } else { inner.config.write_workers.max(1) };
        let write_workers = (0..write_worker_count)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some((job, to)) = inner.queue.pop_write() {
                        inner.respond(&to, inner.execute_write(job), true);
                    }
                })
            })
            .collect();
        Server { inner, workers, write_workers, acceptor: None, local_addr: None }
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

    /// The latest published store version — a lock-free pin.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.inner.store.snapshot()
    }

    /// Snapshot-publication counters (versions published, live/peak
    /// snapshot gauges, reader retry/blocked counts).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.inner.store.stats()
    }

    /// `fsync(2)` calls issued by the WAL so far (0 without one) — the
    /// group-commit sharing metric for `--wal-bench`.
    pub fn wal_syncs(&self) -> u64 {
        let Some(durable) = &self.inner.durable else { return 0 };
        let state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.wal.syncs()
    }

    /// The access log.
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

    /// Whether this node refuses client writes (follower mode).
    pub fn is_read_only(&self) -> bool {
        self.inner.read_only.load(Ordering::Acquire)
    }

    /// Whether this node has been fenced by a higher epoch (client
    /// writes answer `fenced` until re-promotion).
    pub fn is_fenced(&self) -> bool {
        self.inner.is_fenced()
    }

    /// The node's current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    /// Promotes a read-only follower to a writable primary and returns
    /// the sequence it is writable from (its applied high-water mark).
    /// The fencing epoch is durably bumped *before* the node goes
    /// writable. Idempotent: promoting a primary just reports its
    /// current seq.
    pub fn promote(&self) -> u64 {
        match self.inner.promote_inner(0) {
            Ok((seq, _)) => seq,
            Err(e) => panic!("promotion failed to bump the fencing epoch: {e:?}"),
        }
    }

    /// Highest WAL sequence known flushed (the replication shipping
    /// bound: followers only ever see acked records).
    pub fn flushed_seq(&self) -> u64 {
        self.inner.flushed_seq.load(Ordering::Acquire)
    }

    /// The shared server core, for the replication module's accept
    /// loop and follower applier.
    pub(crate) fn inner(&self) -> &Arc<ServerInner> {
        &self.inner
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
        if self.write_workers.is_empty() {
            while let Some((job, to)) = inner.queue.pop_write() {
                inner.respond(&to, inner.execute_write(job), true);
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for w in self.write_workers.drain(..) {
            let _ = w.join();
        }
        // Everything admitted is answered: now the transport may go.
        inner.transport_open.store(false, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Seal the WAL: any fsync-batched tail becomes durable before
        // the process exits.
        if let Some(durable) = &self.inner.durable {
            let mut state = durable.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = state.wal.sync();
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
    /// Executes one request; `deadline_us = 0` means "server default".
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

/// Convenience constructor for errors the binary reports.
pub fn config_error(detail: impl Into<String>) -> SnbError {
    SnbError::Config(detail.into())
}
