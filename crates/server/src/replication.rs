//! Cross-process replication: WAL log shipping.
//!
//! A **primary** exposes a replication listener (a separate port from
//! query traffic) and streams its acked WAL records — tail-read through
//! [`crate::wal::WalTailer`] — to any number of **followers**. A
//! follower connects with [`ReplFrame::Hello`] carrying its applied
//! high-water mark, replays the backlog through its own
//! `ServerInner::submit_batch` write path (same WAL
//! append + apply + snapshot publication as a primary, so a follower's
//! on-disk state is a primary's), and then applies the live tail as it
//! arrives. Because apply goes through the seq-dedupe gate, delivery is
//! at-least-once but application is exactly-once: a follower restart or
//! a rewound cursor re-ships records that are simply re-acked as
//! duplicates.
//!
//! The log reaches back only to the last compaction. A follower whose
//! cursor is at or below the store image's sequence number — cold, or
//! lapped by a compaction while subscribed — is sent the image
//! ([`ReplFrame::ImageOffer`] + chunks), installs it, and tails from
//! its sequence.
//!
//! **Staleness contract.** Followers serve reads lock-free from their
//! published snapshots; every response carries `applied_seq`, and a
//! client that needs read-your-writes sends `min_seq` — admission
//! refuses with `stale_read` (retryable) until the follower catches up.
//! The store version is published *before* `last_applied_seq` advances,
//! so a request admitted at `applied_seq = n` pins a snapshot containing
//! every write `≤ n`.
//!
//! **Promotion and fencing.** The failover harness (or an operator)
//! speaks [`ReplFrame::Promote`] to the *follower's* replication
//! listener; the follower durably bumps its **fencing epoch** (fsynced
//! into every WAL header *before* it goes writable), answers
//! [`ReplFrame::Promoted`] with the sequence it is writable from and
//! the new epoch, and its applier loop exits. Every shipped frame —
//! `Hello`, `Record`, `Heartbeat`, `Deny`, `Announce` — carries the
//! sender's epoch, so a **zombie**: an ex-primary that was only
//! partitioned, not dead, is detected the moment any frame at a higher
//! term reaches it, and fences itself — client writes refuse with the
//! terminal `fenced` error instead of acking into a doomed history.
//!
//! **Automatic re-subscription.** `Promote` carries the new primary's
//! own endpoints plus a sibling list; after answering `Promoted` the
//! new primary announces itself ([`ReplFrame::Announce`]) to every
//! sibling, retrying through partitions. A surviving follower adopts
//! the announced replication target and its applier reconnects there
//! on its next pass — no operator re-pointing. The old primary is a
//! sibling too: the announce that finally lands after the partition
//! heals is what fences it. Followers additionally watch for primary
//! silence (no bytes for `HEARTBEAT_TIMEOUT`) and drop the dead
//! subscription with a typed log line instead of waiting forever.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::proto::{decode_repl, encode_repl, write_frame, Frames, ReplFrame, WriteBatch};
use crate::server::{Outcome, Server, ServerInner};
use crate::wal::WalTailer;

/// How often an idle ship loop re-polls the WAL for new acked records.
/// Low, because this bounds best-case replication lag.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// Idle heartbeat period: keeps the follower's view of the primary's
/// high-water mark fresh and surfaces dead peers via write failures.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(150);
/// Read timeout on replication sockets; reads buffer and cut frames
/// with [`Frames`], so a timeout mid-frame loses nothing.
const READ_TIMEOUT: Duration = Duration::from_millis(50);
/// A subscribed follower that hears *nothing* (no records, no
/// heartbeats) for this long presumes the primary dead and reconnects.
/// Eight heartbeat periods: deep enough that a scheduling hiccup never
/// trips it, shallow enough that failover detection is sub-second-ish.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(1200);
/// How long a freshly promoted primary keeps retrying its `Announce`
/// to unreachable siblings (a partitioned zombie needs the retry that
/// lands *after* the heal to learn it was deposed).
const ANNOUNCE_BUDGET: Duration = Duration::from_secs(30);
/// Delay between announce retry sweeps over still-pending siblings.
const ANNOUNCE_RETRY_EVERY: Duration = Duration::from_millis(200);

/// What a node needs to know about its own WAL/world to ship or
/// subscribe: the shipping cursor reads `wal_dir` directly, and
/// scale/seed fence `Hello` against a mismatched
/// deterministic world (applying another world's records would corrupt
/// the store silently, not loudly).
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// The node's own WAL directory (the primary tails it to ship).
    pub wal_dir: PathBuf,
    /// Datagen scale label, e.g. `"0.003"`.
    pub scale: String,
    /// Datagen seed.
    pub seed: u64,
}

/// Internal follower-side gauges, shared between the applier thread and
/// [`FollowerHandle::status`].
struct FollowerState {
    stopped: AtomicBool,
    connected: AtomicBool,
    caught_up: AtomicBool,
    denied: AtomicBool,
    catch_up_ms: AtomicU64,
    records_applied: AtomicU64,
    records_deduped: AtomicU64,
    apply_errors: AtomicU64,
    primary_seq: AtomicU64,
    heartbeat_timeouts: AtomicU64,
    resubscribed: AtomicU64,
    image_bootstraps: AtomicU64,
}

/// Point-in-time snapshot of a follower's replication progress.
#[derive(Clone, Debug, Default)]
pub struct FollowerStatus {
    /// The applier currently holds a live connection to the primary.
    pub connected: bool,
    /// The primary sent `CaughtUp`: the backlog at subscribe time has
    /// been fully replayed and everything since is live tail.
    pub caught_up: bool,
    /// The primary refused the subscription (mismatched world or
    /// hello'd a non-primary); the applier has given up.
    pub denied: bool,
    /// Wall-clock from connect to `CaughtUp`, for the catch-up bench.
    pub catch_up_ms: u64,
    /// Records applied first-hand (WAL append + store publish).
    pub records_applied: u64,
    /// Records re-acked by the seq-dedupe gate (at-least-once delivery
    /// made visible: nonzero after a restart or rewound cursor).
    pub records_deduped: u64,
    /// Records the local submit path refused (sequence gap or poisoned
    /// store); each forces a reconnect-and-resubscribe.
    pub apply_errors: u64,
    /// The primary's acked high-water mark, from records, `CaughtUp`
    /// and heartbeats.
    pub primary_seq: u64,
    /// This node's own applied high-water mark.
    pub applied_seq: u64,
    /// Subscriptions dropped because the primary went silent past
    /// `HEARTBEAT_TIMEOUT` (dead-primary detection).
    pub heartbeat_timeouts: u64,
    /// Times the applier re-subscribed to a *different* primary than
    /// the one it was following (automatic failover re-pointing).
    pub resubscribed: u64,
    /// Store images received, verified, and installed in place of log
    /// replay (cold-follower bootstrap).
    pub image_bootstraps: u64,
}

impl FollowerStatus {
    /// Replication lag in records (primary's acked seq minus ours).
    pub fn lag(&self) -> u64 {
        self.primary_seq.saturating_sub(self.applied_seq)
    }
}

/// Handle to a running follower applier (returned by
/// [`Server::replicate_from`]). Dropping it leaves the applier running
/// for the life of the server; [`FollowerHandle::stop`] halts it.
pub struct FollowerHandle {
    inner: Arc<ServerInner>,
    state: Arc<FollowerState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FollowerHandle {
    /// Current replication progress.
    pub fn status(&self) -> FollowerStatus {
        FollowerStatus {
            connected: self.state.connected.load(Ordering::Acquire),
            caught_up: self.state.caught_up.load(Ordering::Acquire),
            denied: self.state.denied.load(Ordering::Acquire),
            catch_up_ms: self.state.catch_up_ms.load(Ordering::Acquire),
            records_applied: self.state.records_applied.load(Ordering::Relaxed),
            records_deduped: self.state.records_deduped.load(Ordering::Relaxed),
            apply_errors: self.state.apply_errors.load(Ordering::Relaxed),
            primary_seq: self.state.primary_seq.load(Ordering::Acquire),
            applied_seq: self.inner.applied_seq(),
            heartbeat_timeouts: self.state.heartbeat_timeouts.load(Ordering::Relaxed),
            resubscribed: self.state.resubscribed.load(Ordering::Relaxed),
            image_bootstraps: self.state.image_bootstraps.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the follower has caught up (or `timeout` passes);
    /// returns whether it did.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.state.caught_up.load(Ordering::Acquire) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.state.caught_up.load(Ordering::Acquire)
    }

    /// Stops the applier and joins its thread.
    pub fn stop(mut self) {
        self.state.stopped.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Server {
    /// Binds the replication listener and starts serving the shipping
    /// protocol: `Hello` subscriptions get the acked WAL tail streamed
    /// from `config.wal_dir`; `Promote` flips this node writable.
    /// Returns the bound address. Threads exit when the server stops
    /// accepting (shutdown).
    pub fn listen_replication(
        &self,
        addr: &str,
        config: ReplicationConfig,
    ) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let inner = Arc::clone(self.inner());
        std::thread::spawn(move || {
            while inner.is_accepting() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let inner = Arc::clone(&inner);
                        let config = config.clone();
                        std::thread::spawn(move || serve_peer(&inner, stream, &config));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(local)
    }

    /// Starts a follower applier: subscribe to `primary`'s replication
    /// listener from this node's applied high-water mark, apply shipped
    /// records through the local durable write path, reconnect with
    /// backoff on disconnect. The applier exits when stopped, when the
    /// server shuts down, or when this node is promoted. If a newer
    /// primary announces itself over the repl channel, the applier
    /// re-subscribes there automatically.
    pub fn replicate_from(&self, primary: &str, config: ReplicationConfig) -> FollowerHandle {
        let state = Arc::new(FollowerState {
            stopped: AtomicBool::new(false),
            connected: AtomicBool::new(false),
            caught_up: AtomicBool::new(false),
            denied: AtomicBool::new(false),
            catch_up_ms: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            records_deduped: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            primary_seq: AtomicU64::new(0),
            heartbeat_timeouts: AtomicU64::new(0),
            resubscribed: AtomicU64::new(0),
            image_bootstraps: AtomicU64::new(0),
        });
        let inner = Arc::clone(self.inner());
        let thread = {
            let inner = Arc::clone(&inner);
            let state = Arc::clone(&state);
            let primary = primary.to_string();
            std::thread::spawn(move || follower_loop(&inner, &primary, &config, &state))
        };
        FollowerHandle { inner, state, thread: Some(thread) }
    }
}

/// What [`promote_with`] returns: where the new primary's history
/// starts and which fencing epoch it now rules under.
#[derive(Clone, Copy, Debug)]
pub struct Promotion {
    /// The node accepts writes at `writable_from + 1`.
    pub writable_from: u64,
    /// The durably bumped fencing epoch the node promoted into.
    pub epoch: u64,
}

/// Operator/harness-side promotion: speaks `Promote` to a follower's
/// replication listener and returns the sequence the node is writable
/// from. An error means the node never answered `Promoted`. Thin
/// wrapper over [`promote_with`] with no epoch floor, no advertised
/// endpoints and no siblings to announce to.
pub fn promote(addr: &str) -> std::io::Result<u64> {
    promote_with(addr, 0, "", "", &[]).map(|p| p.writable_from)
}

/// Full promotion: the node durably bumps its fencing epoch to at
/// least `epoch` (0 lets the node pick: its own term + 1) *before*
/// going writable, then announces `repl_addr`/`client_addr` (its own
/// advertised endpoints) to every address in `siblings` so surviving
/// followers re-subscribe — and the partitioned ex-primary, when the
/// announce finally reaches it, fences itself.
pub fn promote_with(
    addr: &str,
    epoch: u64,
    repl_addr: &str,
    client_addr: &str,
    siblings: &[String],
) -> std::io::Result<Promotion> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let frame = ReplFrame::Promote {
        epoch,
        repl_addr: repl_addr.to_string(),
        client_addr: client_addr.to_string(),
        siblings: siblings.to_vec(),
    };
    write_frame(&mut stream, &encode_repl(&frame))?;
    let payload = crate::proto::read_frame(&mut stream)?;
    match decode_repl(&payload) {
        Ok(ReplFrame::Promoted { seq, epoch }) => Ok(Promotion { writable_from: seq, epoch }),
        Ok(ReplFrame::Deny { detail, .. }) => {
            Err(std::io::Error::new(std::io::ErrorKind::PermissionDenied, detail))
        }
        Ok(other) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected reply to Promote: {other:?}"),
        )),
        Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.detail)),
    }
}

/// Handles one inbound replication connection: the first frame decides
/// whether this is a subscription (`Hello` → ship loop until
/// disconnect/shutdown), a control call (`Promote` → bump epoch, reply,
/// start announcing), or a failover notification (`Announce` → adopt or
/// fence).
fn serve_peer(inner: &Arc<ServerInner>, mut stream: TcpStream, config: &ReplicationConfig) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Some(first) = read_one_frame(inner, &mut stream) else { return };
    let deny = |stream: &mut TcpStream, detail: String, epoch: u64| {
        let _ = write_frame(stream, &encode_repl(&ReplFrame::Deny { detail, epoch }));
    };
    match decode_repl(&first) {
        Ok(ReplFrame::Hello { scale, seed, from_seq, epoch }) => {
            if epoch > inner.epoch() {
                if inner.read_only_flag() {
                    inner.observe_epoch(epoch);
                } else {
                    // A subscriber knows a newer term than this
                    // "primary" does: we are the zombie. Fence before
                    // another client write gets acked.
                    eprintln!(
                        "repl: fenced epoch={} by subscriber hello at epoch={epoch}",
                        inner.epoch()
                    );
                    inner.fence(epoch, "");
                }
            }
            if inner.read_only_flag() || inner.is_fenced() {
                deny(
                    &mut stream,
                    "not a primary (follower or fenced); subscribe elsewhere".into(),
                    inner.epoch(),
                );
                return;
            }
            if scale != config.scale || seed != config.seed {
                deny(
                    &mut stream,
                    format!(
                        "world mismatch: primary is scale={} seed={}, \
                         follower sent scale={scale} seed={seed}",
                        config.scale, config.seed
                    ),
                    inner.epoch(),
                );
                return;
            }
            if !inner.has_wal() {
                deny(
                    &mut stream,
                    "primary has no write-ahead log; nothing to ship".into(),
                    inner.epoch(),
                );
                return;
            }
            ship_loop(inner, &mut stream, config, from_seq);
        }
        Ok(ReplFrame::Promote { epoch, repl_addr, client_addr, siblings }) => {
            match inner.promote_inner(epoch) {
                Ok((seq, new_epoch)) => {
                    if !client_addr.is_empty() {
                        inner.set_primary_hint(&client_addr);
                    }
                    let reply = ReplFrame::Promoted { seq, epoch: new_epoch };
                    let _ = write_frame(&mut stream, &encode_repl(&reply));
                    if !siblings.is_empty() {
                        let inner = Arc::clone(inner);
                        std::thread::spawn(move || {
                            announce_promotion(&inner, new_epoch, repl_addr, client_addr, siblings)
                        });
                    }
                }
                Err(e) => deny(
                    &mut stream,
                    format!("promotion failed to bump the epoch durably: {e:?}"),
                    inner.epoch(),
                ),
            }
        }
        Ok(ReplFrame::Announce { epoch, repl_addr, client_addr }) => {
            let own = inner.epoch();
            if epoch < own {
                deny(&mut stream, format!("stale announce: epoch {epoch} < {own}"), own);
                return;
            }
            if inner.read_only_flag() {
                // Surviving follower: re-point the applier at the new
                // primary; it reconnects there on its next pass.
                inner.observe_epoch(epoch);
                if !repl_addr.is_empty() {
                    inner.set_repl_target(&repl_addr);
                }
                if !client_addr.is_empty() {
                    inner.set_primary_hint(&client_addr);
                }
            } else if epoch > own {
                // Writable node told of a newer term: zombie ex-primary.
                eprintln!(
                    "repl: fenced epoch={own} by announce epoch={epoch} primary={client_addr}"
                );
                inner.fence(epoch, &client_addr);
            }
            // epoch == own on a writable node is the self-announce echo
            // (we are the announced primary); ack idempotently.
            let ack = ReplFrame::Heartbeat { last_seq: inner.applied_seq(), epoch: inner.epoch() };
            let _ = write_frame(&mut stream, &encode_repl(&ack));
        }
        Ok(other) => {
            deny(&mut stream, format!("unexpected opening frame: {other:?}"), inner.epoch())
        }
        Err(e) => deny(&mut stream, e.detail, inner.epoch()),
    }
}

/// The freshly promoted primary's side of automatic re-subscription:
/// push an `Announce` at every sibling replication listener, retrying
/// unreachable ones (a partitioned zombie answers only after the heal —
/// that late ack is precisely the fencing handshake). A sibling that
/// replies at all — ack or deny — is settled.
fn announce_promotion(
    inner: &Arc<ServerInner>,
    epoch: u64,
    repl_addr: String,
    client_addr: String,
    siblings: Vec<String>,
) {
    let frame = encode_repl(&ReplFrame::Announce { epoch, repl_addr, client_addr });
    let started = Instant::now();
    let mut pending = siblings;
    while inner.is_accepting() && !pending.is_empty() && started.elapsed() < ANNOUNCE_BUDGET {
        pending.retain(|addr| announce_once(addr, &frame).is_err());
        if !pending.is_empty() {
            std::thread::sleep(ANNOUNCE_RETRY_EVERY);
        }
    }
    for addr in &pending {
        eprintln!(
            "repl: announce to sibling {addr} never answered (gave up after {:?})",
            ANNOUNCE_BUDGET
        );
    }
}

/// One announce attempt: any decodable reply (`Heartbeat` ack or
/// `Deny` from a peer already at a newer term) settles the sibling;
/// an I/O error means unreachable — retry later.
fn announce_once(addr: &str, frame: &[u8]) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    write_frame(&mut stream, frame)?;
    let payload = crate::proto::read_frame(&mut stream)?;
    decode_repl(&payload)
        .map(|_| ())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.detail))
}

/// Streams acked WAL records `> from_seq` to one subscriber, then keeps
/// live-tailing with heartbeats. Every frame is stamped with the
/// shipper's current epoch. Exits on any write failure (dead peer),
/// when the node is fenced (a stale term must stop shipping), or when
/// the server stops accepting.
///
/// The log does not reach back past the store image, so one rule
/// covers cold and lapped subscribers alike: whenever the cursor's
/// `next_seq` is at or below the on-disk image's sequence number — at
/// subscribe time, or because a compaction truncated records the cursor
/// had not read yet — the subscriber is offered the image and the
/// cursor restarts from the image's sequence.
fn ship_loop(
    inner: &Arc<ServerInner>,
    stream: &mut TcpStream,
    config: &ReplicationConfig,
    from_seq: u64,
) {
    let tailer_from = |seq: u64| WalTailer::new(&config.wal_dir, &config.scale, config.seed, seq);
    let Some(from_seq) = ship_image(inner, stream, config, from_seq) else {
        return; // dead peer mid-bootstrap
    };
    let mut tailer = tailer_from(from_seq);
    // The backlog target is pinned at subscribe time: once the cursor
    // passes it, the follower has everything that predated its Hello
    // and `CaughtUp` marks the live edge.
    let target = inner.applied_seq();
    let mut caught_up_sent = false;
    let mut last_beat = Instant::now();
    while inner.is_accepting() && !inner.is_fenced() {
        if snb_fault::partition_active() {
            // Black-holed: ship nothing, close nothing. The follower
            // hears silence and its heartbeat timeout does the rest.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        let bound = inner.applied_seq();
        let records = match tailer.poll(bound) {
            Ok(r) => r,
            Err(_) => {
                // Transient read race with the writer/compactor; the
                // cursor is untouched, so just retry.
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        let idle = records.is_empty();
        for rec in records {
            let frame = ReplFrame::Record { seq: rec.seq, ops: rec.ops, epoch: inner.epoch() };
            if write_frame(stream, &encode_repl(&frame)).is_err() {
                return;
            }
            last_beat = Instant::now();
        }
        if idle && tailer.next_seq() <= bound {
            // Acked records the log no longer yields: a compaction
            // truncated them, and the image that covers them is on disk.
            let behind = tailer.next_seq() - 1;
            match ship_image(inner, stream, config, behind) {
                Some(seq) if seq > behind => {
                    tailer = tailer_from(seq);
                    last_beat = Instant::now();
                    continue;
                }
                Some(_) => {}
                None => return,
            }
        }
        if !caught_up_sent && tailer.next_seq() > target {
            let through_seq = tailer.next_seq() - 1;
            if write_frame(stream, &encode_repl(&ReplFrame::CaughtUp { through_seq })).is_err() {
                return;
            }
            caught_up_sent = true;
            last_beat = Instant::now();
        }
        if idle {
            if caught_up_sent && last_beat.elapsed() >= HEARTBEAT_EVERY {
                let beat = ReplFrame::Heartbeat { last_seq: bound, epoch: inner.epoch() };
                if write_frame(stream, &encode_repl(&beat)).is_err() {
                    return;
                }
                last_beat = Instant::now();
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Offers this node's store image to a subscriber whose `from_seq`
/// predates it (the log no longer holds the records in between):
/// the raw file bytes go out as one
/// [`ReplFrame::ImageOffer`] followed by in-order
/// [`ReplFrame::ImageChunk`]s. Returns the sequence to tail records
/// from — the image's if one was shipped, the subscriber's own
/// otherwise — or `None` if the peer died mid-transfer. Any local
/// image problem (unreadable, superseded mid-read, corrupt) falls back
/// to plain log shipping rather than killing the subscription.
fn ship_image(
    inner: &Arc<ServerInner>,
    stream: &mut TcpStream,
    config: &ReplicationConfig,
    from_seq: u64,
) -> Option<u64> {
    match crate::image::image_info(&config.wal_dir, &config.scale, config.seed) {
        Ok(Some(info)) if info.seq > from_seq => {}
        _ => return Some(from_seq),
    }
    let Ok(bytes) = crate::image::read_image_bytes(&config.wal_dir) else {
        return Some(from_seq);
    };
    // Stamp the offer from the bytes actually being shipped — the file
    // can be superseded by an atomic rename between stat and read.
    let Ok(header) = crate::image::peek_header(&bytes, &config.scale, config.seed) else {
        return Some(from_seq);
    };
    if header.seq <= from_seq {
        return Some(from_seq);
    }
    let offer = ReplFrame::ImageOffer {
        seq: header.seq,
        epoch: header.epoch,
        len: bytes.len() as u64,
        checksum: snb_core::bytes::fnv64(&bytes),
        primary_epoch: inner.epoch(),
    };
    if write_frame(stream, &encode_repl(&offer)).is_err() {
        return None;
    }
    for (i, chunk) in bytes.chunks(crate::proto::IMAGE_CHUNK_BYTES).enumerate() {
        let frame = ReplFrame::ImageChunk {
            offset: (i * crate::proto::IMAGE_CHUNK_BYTES) as u64,
            data: chunk.to_vec(),
        };
        if write_frame(stream, &encode_repl(&frame)).is_err() {
            return None;
        }
    }
    eprintln!(
        "repl: shipped image seq={} epoch={} bytes={} to subscriber at from_seq={from_seq}",
        header.seq,
        header.epoch,
        bytes.len()
    );
    Some(header.seq)
}

/// The follower applier: connect → `Hello` from the local applied seq →
/// apply every shipped record through the durable write path →
/// reconnect with backoff on disconnect. Runs until stopped, shutdown,
/// promoted, or denied. Each pass re-reads the announced replication
/// target, so an `Announce` from a new primary re-points the very next
/// connection — that is the automatic re-subscription.
fn follower_loop(
    inner: &Arc<ServerInner>,
    primary: &str,
    config: &ReplicationConfig,
    state: &Arc<FollowerState>,
) {
    let mut backoff = Duration::from_millis(10);
    let mut current = String::new();
    let active = |state: &FollowerState| {
        !state.stopped.load(Ordering::Acquire)
            && !state.denied.load(Ordering::Acquire)
            && inner.is_accepting()
            && inner.read_only_flag()
    };
    while active(state) {
        let target = {
            let announced = inner.repl_target();
            if announced.is_empty() {
                primary.to_string()
            } else {
                announced
            }
        };
        let Ok(mut stream) = TcpStream::connect(&target) else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_millis(500));
            continue;
        };
        backoff = Duration::from_millis(10);
        stream.set_nodelay(true).ok();
        if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
            continue;
        }
        let hello = ReplFrame::Hello {
            scale: config.scale.clone(),
            seed: config.seed,
            from_seq: inner.applied_seq(),
            epoch: inner.epoch(),
        };
        if write_frame(&mut stream, &encode_repl(&hello)).is_err() {
            continue;
        }
        if !current.is_empty() && current != target {
            state.resubscribed.fetch_add(1, Ordering::Relaxed);
            eprintln!("repl: re-subscribed to new primary {target} (was {current})");
        }
        current = target.clone();
        state.connected.store(true, Ordering::Release);
        let subscribe_started = Instant::now();
        apply_stream(inner, &mut stream, state, subscribe_started, &active, &target);
        state.connected.store(false, Ordering::Release);
    }
    state.connected.store(false, Ordering::Release);
}

/// Drains one subscription connection, applying records until the
/// stream breaks, the applier goes inactive, the primary goes silent
/// past [`HEARTBEAT_TIMEOUT`], a newer primary is announced, or a
/// stale-epoch frame unmasks a zombie shipper.
fn apply_stream(
    inner: &Arc<ServerInner>,
    stream: &mut TcpStream,
    state: &Arc<FollowerState>,
    subscribe_started: Instant,
    active: &impl Fn(&FollowerState) -> bool,
    connected_to: &str,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut last_heard = Instant::now();
    // In-flight image bootstrap: promised (len, checksum) from the
    // offer plus the bytes assembled so far.
    let mut image: Option<(u64, u64, Vec<u8>)> = None;
    loop {
        let mut frames = Frames::new(&buf);
        loop {
            let payload = match frames.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(_) => return,
            };
            let Ok(frame) = decode_repl(payload) else { return };
            match frame {
                ReplFrame::Record { seq, ops, epoch } => {
                    if epoch < inner.epoch() {
                        // A deposed primary still shipping its old term:
                        // never apply a stale-epoch record.
                        eprintln!(
                            "repl: dropping subscription to {connected_to}: record epoch {epoch} < known {}",
                            inner.epoch()
                        );
                        return;
                    }
                    inner.observe_epoch(epoch);
                    let batch = WriteBatch { seq, ops };
                    match inner.submit_batch(&batch) {
                        Ok((Outcome::Deduped, _)) => {
                            state.records_deduped.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            state.records_applied.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Sequence gap or poisoned store: drop the
                            // connection and re-Hello from the real
                            // applied seq — the primary restreams and
                            // dedupe absorbs any overlap.
                            state.apply_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                    state.primary_seq.fetch_max(seq, Ordering::AcqRel);
                }
                ReplFrame::CaughtUp { through_seq } => {
                    state.primary_seq.fetch_max(through_seq, Ordering::AcqRel);
                    if !state.caught_up.swap(true, Ordering::AcqRel) {
                        state.catch_up_ms.store(
                            subscribe_started.elapsed().as_millis() as u64,
                            Ordering::Release,
                        );
                    }
                }
                ReplFrame::Heartbeat { last_seq, epoch } => {
                    if epoch < inner.epoch() {
                        eprintln!(
                            "repl: dropping subscription to {connected_to}: heartbeat epoch {epoch} < known {}",
                            inner.epoch()
                        );
                        return;
                    }
                    inner.observe_epoch(epoch);
                    state.primary_seq.fetch_max(last_seq, Ordering::AcqRel);
                }
                ReplFrame::Deny { detail, epoch } => {
                    if epoch > inner.epoch() {
                        // The peer knows a newer term we have not heard
                        // of yet; its Announce is presumably en route.
                        // Reconnect (throttled) instead of giving up.
                        eprintln!(
                            "repl: denied by {connected_to} at newer epoch {epoch}; awaiting announce: {detail}"
                        );
                        std::thread::sleep(HEARTBEAT_EVERY);
                        return;
                    }
                    let retarget = {
                        let t = inner.repl_target();
                        !t.is_empty() && t != connected_to
                    };
                    if retarget {
                        // A new primary was announced while this deny
                        // was in flight; just reconnect there.
                        return;
                    }
                    eprintln!("repl: subscription denied by {connected_to}: {detail}");
                    state.denied.store(true, Ordering::Release);
                    return;
                }
                ReplFrame::ImageOffer { seq, epoch: _, len, checksum, primary_epoch } => {
                    if primary_epoch < inner.epoch() {
                        eprintln!(
                            "repl: dropping subscription to {connected_to}: image offer epoch {primary_epoch} < known {}",
                            inner.epoch()
                        );
                        return;
                    }
                    inner.observe_epoch(primary_epoch);
                    // The image file is the whole store; anything past a
                    // few GiB is a framing bug, not a bigger store.
                    if len == 0 || len > (4u64 << 30) {
                        eprintln!("repl: refusing implausible image offer of {len} bytes");
                        return;
                    }
                    state.primary_seq.fetch_max(seq, Ordering::AcqRel);
                    // The buffer grows with the chunks that arrive, not
                    // with what the offer claims.
                    image = Some((len, checksum, Vec::new()));
                }
                ReplFrame::ImageChunk { offset, data } => {
                    let complete = {
                        let Some((len, _, assembled)) = image.as_mut() else {
                            // Chunk with no offer: protocol violation.
                            return;
                        };
                        if offset != assembled.len() as u64
                            || (assembled.len() + data.len()) as u64 > *len
                        {
                            // Out-of-order or overlong run: drop the
                            // stream and re-Hello from scratch.
                            return;
                        }
                        assembled.extend_from_slice(&data);
                        assembled.len() as u64 == *len
                    };
                    if complete {
                        let (len, checksum, assembled) = image.take().expect("complete image");
                        if snb_core::bytes::fnv64(&assembled) != checksum {
                            eprintln!(
                                "repl: shipped image failed its checksum after reassembly; re-subscribing"
                            );
                            return;
                        }
                        match inner.install_image(&assembled) {
                            Ok(header) => {
                                state.image_bootstraps.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "repl: bootstrapped from shipped image seq={} epoch={} bytes={len}",
                                    header.seq, header.epoch
                                );
                            }
                            Err(e) => {
                                // An image at or below our own applied
                                // seq is not progress; the record tail
                                // that follows simply dedupes. Log and
                                // keep the subscription either way.
                                eprintln!("repl: shipped image not installed: {e:?}");
                            }
                        }
                    }
                }
                // Hello/Promote/Promoted/Announce are never primary→follower.
                _ => return,
            }
        }
        let consumed = frames.consumed();
        buf.drain(..consumed);
        if !active(state) {
            return;
        }
        {
            let t = inner.repl_target();
            if !t.is_empty() && t != connected_to {
                // Announced failover: drop this (dead) subscription and
                // let the outer loop re-subscribe at the new primary.
                return;
            }
        }
        if last_heard.elapsed() > HEARTBEAT_TIMEOUT {
            state.heartbeat_timeouts.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "repl: heartbeat timeout target={connected_to} silent_ms={}; presuming primary dead, reconnecting",
                last_heard.elapsed().as_millis()
            );
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => {
                if snb_fault::partition_active() {
                    // Black-holed on our side: inbound bytes vanish.
                    buf.clear();
                    continue;
                }
                buf.extend_from_slice(&tmp[..n]);
                last_heard = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Reads one length-prefixed frame with the connection's read timeout,
/// buffering partial reads so a timeout never tears a frame. Returns
/// `None` on disconnect, framing violation, or server shutdown. Under
/// an active `net.partition` fault the bytes are discarded unread —
/// the peer's frame vanishes in transit and no reply will ever come,
/// exactly a mid-network drop.
fn read_one_frame(inner: &Arc<ServerInner>, stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4 * 1024];
    loop {
        match Frames::new(&buf).next_frame() {
            Ok(Some(payload)) => return Some(payload.to_vec()),
            Ok(None) => {}
            Err(_) => return None,
        }
        if !inner.is_accepting() {
            return None;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return None,
            Ok(n) => {
                if snb_fault::partition_active() {
                    buf.clear();
                    continue;
                }
                buf.extend_from_slice(&tmp[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}
