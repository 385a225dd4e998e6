//! The TCP transport: one reactor thread owns the listener and every
//! connection, multiplexed through [`crate::reactor::Poller`].
//!
//! Per readiness event the reactor reads a connection at most
//! `READS_PER_WAKE` × 16 KiB, cuts the complete frames out of its
//! buffer in place ([`proto::Frames`]; one compaction per event) and
//! admits each through the server's one admission gate. IS frames —
//! microsecond point reads — are decoded and executed right there, on
//! the thread that read them, and their responses are encoded straight
//! into the connection's [`Outbox`]. BI, IC and write frames queue for
//! the lane workers, which append their responses to the same outbox
//! under its mutex, so frames never interleave. When the event's frames
//! are done, everything pending leaves in one nonblocking `write`.
//!
//! The reactor never sleeps or blocks on a peer: bytes the socket does
//! not take stay in the outbox and the fd gets write interest, and a
//! connection whose outbox holds more than [`OUTBOX_LIMIT`] is neither
//! read nor has its buffered frames executed until it drains — a peer
//! that pipelines without reading is held back, not buffered without
//! bound. Workers may wait (up to [`WRITE_STALL_BUDGET`]) for a slow
//! peer; whatever they leave is flushed by the reactor.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::proto::{self, Response};

/// Reads per connection per readiness event. Level-triggered
/// registration re-reports an undrained fd on the next wait, so a cap
/// loses no data; it bounds how long one chatty peer holds the reactor,
/// and with it how much IS work runs inline per connection per event.
const READS_PER_WAKE: usize = 4;
/// Bytes per read.
const READ_CHUNK: usize = 16 * 1024;

/// A connection whose outbox holds more than this many bytes is not
/// read, nor are its buffered frames executed, until the peer takes
/// them: one event's worth of input.
pub const OUTBOX_LIMIT: usize = READS_PER_WAKE * READ_CHUNK;

/// How long a lane worker retries a response on a full socket buffer
/// before leaving it to the reactor (the request outcome is already
/// logged): bounds how long a stalled client can pin a worker.
const WRITE_STALL_BUDGET: Duration = Duration::from_secs(2);

/// A connection's one output path, shared by the reactor and every
/// worker holding one of its jobs — which also keeps the socket open
/// after the reactor lets go of it, so shutdown can drain admitted work
/// to the wire.
pub(crate) struct Outbox {
    stream: TcpStream,
    /// Encoded frames, length prefixes included, not yet written.
    pending: Mutex<Vec<u8>>,
}

impl Outbox {
    fn new(stream: TcpStream) -> Outbox {
        Outbox { stream, pending: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<u8>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Encodes one response frame onto the outbox; returns the bytes now
    /// pending.
    fn push(&self, resp: &Response) -> usize {
        let mut pending = self.lock();
        proto::append_response_frame(&mut pending, resp);
        pending.len()
    }

    /// Bytes waiting for the socket.
    fn len(&self) -> usize {
        self.lock().len()
    }

    /// Writes what the socket takes now; returns whether any byte left
    /// and how many are still pending. An error means the peer is gone.
    fn flush(&self) -> io::Result<(bool, usize)> {
        let mut pending = self.lock();
        let wrote = write_pending(&self.stream, &mut pending)?;
        Ok((wrote, pending.len()))
    }

    /// A queued job's response: push it and flush. With `may_wait` (a
    /// lane worker) a full socket is retried for up to
    /// [`WRITE_STALL_BUDGET`]; without (admission, possibly on the
    /// reactor) it is tried once. What is left stays pending for the
    /// reactor. Returns the bytes pending right after the push.
    pub(crate) fn deliver(&self, resp: &Response, may_wait: bool) -> usize {
        let started = Instant::now();
        let peak = self.push(resp);
        while matches!(self.flush(), Ok((_, left)) if left > 0)
            && may_wait
            && started.elapsed() < WRITE_STALL_BUDGET
        {
            std::thread::sleep(Duration::from_micros(100));
        }
        peak
    }
}

/// Writes `pending` to the nonblocking `stream` until it is empty or the
/// socket is full, then drops what was written. `Ok(true)` if any byte
/// left.
fn write_pending(mut stream: &TcpStream, pending: &mut Vec<u8>) -> io::Result<bool> {
    if pending.is_empty() {
        return Ok(false);
    }
    let mut written = 0;
    let result = loop {
        match stream.write(&pending[written..]) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                written += n;
                if written == pending.len() {
                    break Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    pending.drain(..written);
    result.map(|()| written > 0)
}

#[cfg(target_os = "linux")]
pub(crate) use reactor_loop::run;

#[cfg(target_os = "linux")]
mod reactor_loop {
    use std::collections::HashMap;
    use std::io::{self, Read};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use snb_engine::QueryContext;

    use super::{Outbox, OUTBOX_LIMIT, READS_PER_WAKE, READ_CHUNK};
    use crate::proto::Frames;
    use crate::reactor::{Event, Interest, Poller};
    use crate::server::ServerInner;

    const LISTENER: u64 = 0;
    /// Longest wait for readiness, and how often the idle sweep runs.
    const SWEEP_EVERY: Duration = Duration::from_millis(25);

    struct Conn {
        out: Arc<Outbox>,
        /// Bytes read and not yet cut into frames.
        buf: Vec<u8>,
        /// The peer shut its write half: serve what is buffered, drain
        /// the outbox, then close.
        eof: bool,
        /// What the poller watches this fd for.
        interest: Interest,
        /// Last time a byte moved in either direction.
        last_progress: Instant,
    }

    impl Conn {
        /// Handles one readiness event: read, run the buffered frames,
        /// flush. False when the connection is broken.
        fn on_event(
            &mut self,
            inner: &ServerInner,
            ctx: &QueryContext,
            ev: &Event,
            chunk: &mut [u8],
        ) -> bool {
            if ev.closed && !ev.readable {
                return false;
            }
            if ev.readable {
                for _ in 0..READS_PER_WAKE {
                    match (&self.out.stream).read(chunk) {
                        Ok(0) => {
                            self.eof = true;
                            break;
                        }
                        Ok(n) => {
                            self.buf.extend_from_slice(&chunk[..n]);
                            self.last_progress = Instant::now();
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return false,
                    }
                }
            }
            self.serve(inner, ctx)
        }

        /// Admits the buffered frames in order — IS ones execute here,
        /// their responses encoded into the outbox — and writes the
        /// outbox without blocking: once per event, unless the outbox
        /// passed [`OUTBOX_LIMIT`] and held frames back, in which case
        /// they resume as soon as a write makes room. The buffer is
        /// compacted once. False when the connection is broken.
        fn serve(&mut self, inner: &ServerInner, ctx: &QueryContext) -> bool {
            let mut frames = Frames::new(&self.buf);
            let mut pending = self.out.len();
            let mut alive = true;
            loop {
                let mut held_back = false;
                while alive {
                    if pending > OUTBOX_LIMIT {
                        held_back = true;
                        break;
                    }
                    match frames.next_frame() {
                        Ok(Some(frame)) => {
                            if let Some(resp) = inner.admit_frame(ctx, frame, &self.out) {
                                pending = self.out.push(&resp);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => alive = false,
                    }
                }
                inner.note_outbox(pending);
                match flush(&self.out, &mut self.last_progress) {
                    Some(left) => pending = left,
                    None => alive = false,
                }
                if !(alive && held_back && pending <= OUTBOX_LIMIT) {
                    break;
                }
            }
            let consumed = frames.consumed();
            self.buf.drain(..consumed);
            alive
        }

        /// Re-registers the fd for what the connection waits on now:
        /// write readiness while its outbox holds bytes, read readiness
        /// while the peer may still send and the outbox is within its
        /// bound. False when there is nothing left to wait for — the
        /// peer finished and every response left.
        fn settle(&mut self, poller: &Poller, token: u64) -> bool {
            let pending = self.out.len();
            let want = Interest { read: !self.eof && pending <= OUTBOX_LIMIT, write: pending > 0 };
            if !want.read && !want.write {
                return false;
            }
            if want != self.interest {
                if poller.modify(self.out.stream.as_raw_fd(), token, want).is_err() {
                    return false;
                }
                self.interest = want;
            }
            true
        }
    }

    /// One nonblocking write of everything pending; the bytes left, or
    /// `None` when the peer is gone.
    fn flush(out: &Outbox, last_progress: &mut Instant) -> Option<usize> {
        let (wrote, left) = out.flush().ok()?;
        if wrote {
            *last_progress = Instant::now();
        }
        Some(left)
    }

    /// The reactor thread: runs until the server's transport closes.
    pub(crate) fn run(inner: &Arc<ServerInner>, listener: TcpListener, mut poller: Poller) {
        if poller.add(listener.as_raw_fd(), LISTENER).is_err() {
            return;
        }
        let ctx = inner.context(1);
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = LISTENER + 1;
        let mut events = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut last_sweep = Instant::now();
        while inner.transport_open() {
            if poller.wait(SWEEP_EVERY, &mut events).is_err() {
                break;
            }
            if let Some(fault) = snb_fault::check("conn.read.stall") {
                // Simulates a handler wedged in the read path (the hazard
                // the idle deadline exists for).
                fault.trip("conn.read.stall");
            }
            for ev in &events {
                if ev.token == LISTENER {
                    accept_all(inner, &listener, &poller, &mut conns, &mut next_token);
                    continue;
                }
                let Some(conn) = conns.get_mut(&ev.token) else { continue };
                if !(conn.on_event(inner, &ctx, ev, &mut chunk) && conn.settle(&poller, ev.token)) {
                    close(&poller, conns.remove(&ev.token));
                }
            }
            if last_sweep.elapsed() >= SWEEP_EVERY {
                last_sweep = Instant::now();
                sweep(inner, &poller, &mut conns);
            }
        }
        // Last chance for responses already encoded; never waits.
        for conn in conns.values() {
            let _ = conn.out.flush();
        }
    }

    fn accept_all(
        inner: &ServerInner,
        listener: &TcpListener,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        while let Ok((stream, _peer)) = listener.accept() {
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err()
                || poller.add(stream.as_raw_fd(), *next_token).is_err()
            {
                continue;
            }
            conns.insert(
                *next_token,
                Conn {
                    out: Arc::new(Outbox::new(stream)),
                    buf: Vec::new(),
                    eof: false,
                    interest: Interest::READ,
                    last_progress: Instant::now(),
                },
            );
            inner.conn_opened(conns.len());
            *next_token += 1;
        }
    }

    /// Closes a Slowloris / half-open / non-reading peer that made no
    /// progress within the idle timeout, with a typed outcome instead of
    /// pinning its fd forever; re-settles every other connection, which
    /// flushes (and arms write interest for) bytes a worker left behind.
    fn sweep(inner: &ServerInner, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
        let limit = inner.config().conn_read_timeout;
        let mut gone = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            if let Some(limit) = limit.filter(|&l| conn.last_progress.elapsed() > l) {
                inner.conn_stalled(limit);
                gone.push(token);
            } else if flush(&conn.out, &mut conn.last_progress).is_none()
                || !conn.settle(poller, token)
            {
                gone.push(token);
            }
        }
        for token in gone {
            close(poller, conns.remove(&token));
        }
    }

    fn close(poller: &Poller, conn: Option<Conn>) {
        if let Some(conn) = conn {
            poller.delete(conn.out.stream.as_raw_fd());
        }
    }
}
