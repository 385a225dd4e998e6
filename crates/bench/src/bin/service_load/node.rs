//! One spawned `snb-server` process, and the client calls the `--chaos`
//! gate makes against it (`--sweep` shares [`call`] and [`percentile`]).
//!
//! A node is spawned over its own WAL directory and its startup lines
//! are scraped from stdout (`recovered …`, `listening on …`). A
//! background thread then drains stdout for the rest of the process
//! lifetime, so the pipe never fills up or closes under a running
//! server.
//!
//! [`Node::terminate`] is a gate of its own: SIGTERM must drain the
//! server and exit 0. A dropped node (a harness that panicked halfway)
//! is SIGKILLed, so a failed gate never leaves servers behind.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use snb_server::proto::{self, Request};
use snb_server::{Response, ServiceParams, WriteBatch, WriteOps};

use crate::Args;

/// Read timeout on client connections: long enough for a slow BI query,
/// short enough to tell a stalled or dead server from a slow one.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// The parsed `recovered seq=… wal_entries=… truncated_bytes=…
/// image_seq=… tail_replayed=…` startup line.
#[derive(Clone, Copy, Debug, Default)]
pub struct Recovery {
    pub seq: u64,
    pub wal_entries: u64,
    pub truncated_bytes: u64,
    pub image_seq: u64,
    pub tail_replayed: u64,
}

pub struct Node {
    child: Child,
    name: String,
    /// Client (query and write) endpoint.
    pub addr: String,
    pub recovery: Recovery,
    /// The stdout drain; it ends when the process closes its stdout.
    drain: Option<JoinHandle<()>>,
}

impl Node {
    /// Spawns `snb-server` at `args`' scale and seed with an ephemeral
    /// client port, two workers, a compaction every five
    /// records, and its WAL in `wal_dir`. `faults` arms `$SNB_FAULTS`.
    pub fn spawn(args: &Args, name: &str, wal_dir: &Path, faults: Option<&str>) -> Node {
        let bin = &args.server_bin;
        assert!(
            Path::new(bin).exists(),
            "snb-server binary not found at {bin} (build it or pass --server-bin)"
        );
        let mut cmd = Command::new(bin);
        cmd.arg(&args.scale)
            .arg(args.config.seed.to_string())
            .args(["--port", "0", "--workers", "2", "--snapshot-every", "5"])
            .arg("--wal-dir")
            .arg(wal_dir)
            .env_remove("SNB_FAULTS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = faults {
            cmd.env("SNB_FAULTS", spec).env("SNB_FAULT_SEED", "42");
        }
        let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {name} ({bin}): {e}"));
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut recovery = Recovery::default();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.expect("server stdout");
            if let Some(rest) = line.strip_prefix("recovered ") {
                for field in rest.split_whitespace() {
                    let (key, value) = field.split_once('=').unwrap_or((field, "0"));
                    let value: u64 = value.parse().unwrap_or(0);
                    match key {
                        "seq" => recovery.seq = value,
                        "wal_entries" => recovery.wal_entries = value,
                        "truncated_bytes" => recovery.truncated_bytes = value,
                        "image_seq" => recovery.image_seq = value,
                        "tail_replayed" => recovery.tail_replayed = value,
                        _ => {}
                    }
                }
            } else if let Some(a) = line.strip_prefix("listening on ") {
                addr = Some(a.trim().to_string());
                break;
            }
        }
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let addr = addr.unwrap_or_else(|| panic!("{name} exited before listening"));
        Node { child, name: name.to_string(), addr, recovery, drain: Some(drain) }
    }

    /// A client connection with [`ACK_TIMEOUT`] reads.
    pub fn connect(&self) -> TcpStream {
        for _ in 0..100 {
            if let Ok(s) = TcpStream::connect(&self.addr) {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(ACK_TIMEOUT));
                return s;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("could not connect to {} at {}", self.name, self.addr);
    }

    /// SIGKILL: no drain, no destructors — the crash under test.
    pub fn sigkill(mut self) {
        self.child.kill().unwrap_or_else(|e| panic!("SIGKILL {}: {e}", self.name));
        self.child.wait().unwrap_or_else(|e| panic!("reap {}: {e}", self.name));
    }

    /// Graceful stop: SIGTERM, then the node must drain and exit 0.
    pub fn terminate(mut self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `kill` only sends a signal; the pid is this node's
        // child, which is not reaped until the `wait` below.
        let sent = unsafe { kill(self.child.id() as i32, SIGTERM) };
        assert_eq!(sent, 0, "SIGTERM to {} failed", self.name);
        let status = self.child.wait().unwrap_or_else(|e| panic!("reap {}: {e}", self.name));
        assert!(status.success(), "{} did not exit cleanly on SIGTERM: {status}", self.name);
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        // A no-op for a node already reaped by `sigkill` or `terminate`.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One request/response round trip on a blocking connection.
pub fn call(
    stream: &mut TcpStream,
    id: u64,
    min_seq: u64,
    params: ServiceParams,
) -> Result<Response, String> {
    let req = Request { id, deadline_us: 0, min_seq, params };
    proto::write_frame(stream, &proto::encode_request(&req)).map_err(|e| format!("write: {e}"))?;
    let payload = proto::read_frame(stream).map_err(|e| format!("read: {e}"))?;
    proto::decode_response(&payload).map_err(|e| format!("decode: {}", e.detail))
}

/// Submits batch `seq`. The ack contract: `rows` is the number of
/// operations *this* call applied, so it is zero exactly when the batch
/// was already applied and the server merely re-acknowledged it —
/// `("deduped", 0)` then, `("ok", rows)` otherwise. No ack is an error
/// naming the typed refusal, or why no answer came (a stall or a dead
/// socket).
pub fn submit(
    stream: &mut TcpStream,
    seq: u64,
    ops: &WriteOps,
) -> Result<(&'static str, u64), String> {
    let params = ServiceParams::Write(WriteBatch { seq, ops: ops.clone() });
    match call(stream, seq, 0, params)?.body {
        Ok(ok) if ok.rows == 0 => Ok(("deduped", 0)),
        Ok(ok) => Ok(("ok", ok.rows)),
        Err(e) => Err(format!("{}: {}", e.kind.name(), e.detail)),
    }
}

/// The `q`-quantile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}
