//! A thin readiness-driven reactor over raw `epoll(7)` — std-only, no
//! external crates (the offline-build constraint rules out `mio`), so
//! the three syscalls are declared directly, the same way the binary
//! declares `signal(2)`.
//!
//! Why this exists: the PR 3 service was thread-per-connection over
//! blocking reads, so 1K mostly-idle connections cost 1K OS threads
//! (stacks, scheduler load, context switches). With a reactor an idle
//! connection costs one registered fd and ~a buffer: a single thread
//! `epoll_wait`s on every connection plus the listener, accepts, drains
//! readable sockets and writes pending responses (the loop itself is
//! `crate::transport`). Worker counts stay fixed while connection
//! counts sweep to the thousands — the property `service_load --sweep`
//! measures.
//!
//! The wrapper is level-triggered on purpose: if a wakeup leaves bytes
//! unread (e.g. the per-wakeup fairness cap), the next `epoll_wait`
//! reports the fd again, so no readiness is ever lost to an edge. For
//! the same reason interest is explicit ([`Poller::modify`]): a
//! connection asks for write readiness only while its outbox holds
//! bytes, and drops read readiness while it is being held back.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// epoll_ctl ops.
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

// Event masks.
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;

/// Kernel ABI for one epoll event. On x86-64 the kernel struct is
/// packed (no padding between the 32-bit mask and the 64-bit data);
/// other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// One readiness notification, translated out of the raw mask.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The caller-chosen registration token.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The peer hung up or the fd errored — after draining any
    /// remaining bytes, the connection should be dropped.
    pub closed: bool,
}

/// Which readiness a registered fd is watched for. Hangups and errors
/// are reported under any interest, read-only included.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Bytes to read, or the peer's half-close.
    pub read: bool,
    /// Room in the send buffer.
    pub write: bool,
}

impl Interest {
    /// What [`Poller::add`] registers.
    pub const READ: Interest = Interest { read: true, write: false };

    fn mask(self) -> u32 {
        let read = if self.read { EPOLLIN | EPOLLRDHUP } else { 0 };
        read | if self.write { EPOLLOUT } else { 0 }
    }
}

/// An owned epoll instance.
pub(crate) struct Poller {
    epfd: RawFd,
    /// Reused kernel-side event buffer.
    scratch: Vec<EpollEvent>,
}

impl Poller {
    /// Creates the epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; a failure is a
        // negative return, checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd, scratch: vec![EpollEvent { events: 0, data: 0 }; 256] })
    }

    /// Registers `fd` for level-triggered read/hangup readiness under
    /// `token`.
    pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: Interest::READ.mask(), data: token };
        // SAFETY: `epfd` is this poller's open epoll fd and `ev` is a
        // live, correctly laid out `epoll_event` the kernel only reads
        // during the call; a bad `fd` is reported as an error, not UB.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Replaces the interest of the registered `fd` (still
    /// level-triggered, same `token`).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest.mask(), data: token };
        // SAFETY: `epfd` is this poller's open epoll fd and `ev` is a
        // live, correctly laid out `epoll_event` the kernel only reads
        // during the call; a bad `fd` is reported as an error, not UB.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Deregisters `fd`. Errors are swallowed — the fd may already be
    /// closed, which deregisters implicitly.
    pub fn delete(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `modify`; the kernel ignores `ev` for a delete
        // but older kernels require it to be a valid pointer.
        unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks up to `timeout` for readiness; translated events are
    /// appended to `out` (which is cleared first). A zero-event return
    /// is a timeout, not an error; `EINTR` is reported as an empty set
    /// so callers treat signals like timeouts.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: the kernel writes at most `scratch.len()` events into
        // `scratch`, a live buffer of `epoll_event`s this poller owns
        // mutably for the call.
        let n = unsafe {
            epoll_wait(self.epfd, self.scratch.as_mut_ptr(), self.scratch.len() as i32, ms)
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for i in 0..n as usize {
            let raw = self.scratch[i];
            let mask = raw.events;
            out.push(Event {
                token: raw.data,
                readable: mask & EPOLLIN != 0,
                closed: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is this poller's own fd, closed exactly once,
        // here; nothing uses it after the drop.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readiness_fires_on_data_and_not_before() {
        let (mut client, server) = loopback_pair();
        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7).unwrap();
        let mut events = Vec::new();

        // Nothing written yet: wait times out with no events.
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "spurious readiness: {events:?}");

        client.write_all(b"ping").unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].closed);
    }

    #[test]
    fn level_triggered_readiness_persists_until_drained() {
        let (mut client, mut server) = loopback_pair();
        server.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 1).unwrap();
        client.write_all(b"abcdef").unwrap();

        let mut events = Vec::new();
        // Read only part of the payload: the fd must stay ready.
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        let mut two = [0u8; 2];
        server.read_exact(&mut two).unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1, "level-triggered: undrained fd must re-arm");

        // Fully drained: back to quiet.
        let mut rest = [0u8; 4];
        server.read_exact(&mut rest).unwrap();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn hangup_is_reported_as_closed() {
        let (client, server) = loopback_pair();
        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 3).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].closed, "peer hangup must surface as closed");
    }

    #[test]
    fn delete_stops_notifications() {
        let (mut client, server) = loopback_pair();
        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 9).unwrap();
        poller.delete(server.as_raw_fd());
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "deregistered fd must not notify");
    }

    #[test]
    fn write_interest_is_reported_until_withdrawn() {
        let (mut client, server) = loopback_pair();
        let mut poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 4).unwrap();
        let mut events = Vec::new();

        // Read interest only: an idle, writable socket is quiet.
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "read-only interest reported {events:?}");

        // Write interest: the empty send buffer is writable at once, and
        // (level-triggered) again on the next wait — with nothing to
        // read, that is the only thing an event can report.
        let both = Interest { read: true, write: true };
        poller.modify(server.as_raw_fd(), 4, both).unwrap();
        for _ in 0..2 {
            poller.wait(Duration::from_millis(500), &mut events).unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 4);
            assert!(!events[0].readable && !events[0].closed);
        }

        // Write-only interest hides pending input (a held-back
        // connection is not read) ...
        let write_only = Interest { read: false, write: true };
        poller.modify(server.as_raw_fd(), 4, write_only).unwrap();
        client.write_all(b"held").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert!(!events[0].readable, "{events:?}");

        // ... and withdrawing it brings back the read readiness alone:
        // the writable socket stays quiet once the input is drained.
        poller.modify(server.as_raw_fd(), 4, Interest::READ).unwrap();
        poller.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "{events:?}");
        let mut held = [0u8; 4];
        (&server).read_exact(&mut held).unwrap();
        poller.wait(Duration::from_millis(10), &mut events).unwrap();
        assert!(events.is_empty(), "read-only interest on a drained fd: {events:?}");

        // Modifying an fd that was never registered is an error.
        let (_c2, unregistered) = loopback_pair();
        assert!(poller.modify(unregistered.as_raw_fd(), 5, Interest::READ).is_err());
    }

    #[test]
    fn many_registrations_single_wait() {
        let mut poller = Poller::new().unwrap();
        let mut pairs = Vec::new();
        for token in 0..300u64 {
            let (client, server) = loopback_pair();
            poller.add(server.as_raw_fd(), token).unwrap();
            pairs.push((client, server));
        }
        // Wake a scattered subset.
        for token in [5usize, 77, 131, 299] {
            pairs[token].0.write_all(b"!").unwrap();
        }
        let mut events = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while seen.len() < 4 && std::time::Instant::now() < deadline {
            poller.wait(Duration::from_millis(100), &mut events).unwrap();
            for e in &events {
                assert!(e.readable);
                seen.insert(e.token);
            }
        }
        assert_eq!(seen, [5u64, 77, 131, 299].into_iter().collect());
    }
}
