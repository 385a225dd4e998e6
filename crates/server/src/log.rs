//! Structured per-request access log.
//!
//! Every request that reaches the server ends in one place, which
//! counts its outcome in the server's tally (lane × outcome) and cuts
//! one record here — including the requests that never execute (sheds,
//! deadline misses, shutdown rejections, undecodable frames). The
//! *tally* is the complete account of offered load
//! ([`crate::ServiceReport`] reads it); this log is a ring holding the
//! detail of the most recent [`LOG_CAPACITY`] requests, so it never
//! grows without bound under sustained traffic. Records carry the query
//! identity, the queue-wait / execution split, the outcome from the
//! service error taxonomy, and (when the server runs with profiling on)
//! the per-request operator profile from [`snb_engine::QueryProfile`] —
//! the same counters `--profile` power runs report, per served request.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use snb_engine::QueryProfile;

/// Records the access log keeps: the most recent `LOG_CAPACITY`
/// requests, about 8 MB. Pushing past it drops the oldest record.
pub const LOG_CAPACITY: usize = 1 << 16;

/// One access-log record.
#[derive(Clone, Debug, Default)]
pub struct AccessRecord {
    /// Monotone sequence number (admission order within the server).
    pub seq: u64,
    /// Workload tag: `"BI"`, `"IC"`, `"IS"` or `"WR"` (empty for
    /// undecodable frames).
    pub workload: &'static str,
    /// Query number within the workload (0 for undecodable frames).
    pub query: u8,
    /// Admission lane the request was classified into (`"short"`,
    /// `"heavy"` or `"write"`; empty for undecodable frames and
    /// connection-level records, which never reach a lane).
    pub lane: &'static str,
    /// Time spent in the admission queue, microseconds.
    pub queue_us: u64,
    /// Pure execution time, microseconds (0 when not executed).
    pub exec_us: u64,
    /// Outcome name: `"ok"`, `"deduped"`, `"conn_stalled"` or an
    /// [`ErrorKind`](crate::proto::ErrorKind) name.
    pub outcome: &'static str,
    /// Result rows (0 when not executed).
    pub rows: u64,
    /// Result fingerprint (0 for IC reads and non-executions).
    pub fingerprint: u64,
    /// The published store version the request read (for executed reads,
    /// the snapshot pinned at admission; otherwise the version current
    /// when the record was cut).
    pub store_version: u64,
    /// Age of the pinned snapshot when execution started, microseconds
    /// (0 when not executed) — how far behind the publish frontier this
    /// read was allowed to run.
    pub snapshot_age_us: u64,
    /// Operator counters for this request, when profiling was on —
    /// boxed, because every request is logged and most carry none.
    pub profile: Option<Box<QueryProfile>>,
}

impl AccessRecord {
    /// Renders the record as one JSON object (hand-rolled; every field
    /// is numeric or a fixed identifier, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\": {}, \"workload\": \"{}\", \"query\": {}, \"lane\": \"{}\", \
             \"queue_us\": {}, \"exec_us\": {}, \"outcome\": \"{}\", \"rows\": {}, \
             \"fingerprint\": {}, \"store_version\": {}, \"snapshot_age_us\": {}",
            self.seq,
            self.workload,
            self.query,
            self.lane,
            self.queue_us,
            self.exec_us,
            self.outcome,
            self.rows,
            self.fingerprint,
            self.store_version,
            self.snapshot_age_us,
        );
        if let Some(p) = &self.profile {
            s.push_str(&format!(
                ", \"rows_scanned\": {}, \"index_hits\": {}, \"topk_offered\": {}, \
                 \"topk_pruned\": {}, \"edges_traversed\": {}",
                p.rows_scanned, p.index_hits, p.topk_offered, p.topk_pruned, p.edges_traversed,
            ));
        }
        s.push('}');
        s
    }
}

/// The most recent [`LOG_CAPACITY`] records, shared by transports and
/// workers. The ring grows on demand, so an idle server holds nothing.
#[derive(Default)]
pub struct AccessLog {
    seq: AtomicU64,
    records: Mutex<VecDeque<AccessRecord>>,
}

impl AccessLog {
    /// An empty log.
    pub fn new() -> Self {
        AccessLog::default()
    }

    /// Claims the next sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends one record, dropping the oldest when the ring is full.
    pub fn push(&self, record: AccessRecord) {
        let mut ring = self.records.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.len() == LOG_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Number of records the ring holds (at most [`LOG_CAPACITY`]).
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the held records in admission order.
    pub fn snapshot(&self) -> Vec<AccessRecord> {
        let mut v: Vec<AccessRecord> = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect();
        v.sort_by_key(|r| r.seq);
        v
    }

    /// Renders the held records as JSON Lines.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the held records as JSON Lines to `path`.
    pub fn flush_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, outcome: &'static str) -> AccessRecord {
        AccessRecord {
            seq,
            workload: "BI",
            query: 4,
            lane: "heavy",
            queue_us: 10,
            exec_us: 250,
            outcome,
            rows: 20,
            fingerprint: 99,
            store_version: 7,
            snapshot_age_us: 42,
            profile: None,
        }
    }

    #[test]
    fn records_render_and_sort_by_seq() {
        let log = AccessLog::new();
        assert!(log.is_empty());
        let s0 = log.next_seq();
        let s1 = log.next_seq();
        assert_eq!((s0, s1), (0, 1));
        log.push(record(s1, "ok"));
        log.push(record(s0, "overloaded"));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[0].outcome, "overloaded");
        let jsonl = log.render_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().next().unwrap().contains("\"outcome\": \"overloaded\""));
        assert!(jsonl.lines().next().unwrap().contains("\"lane\": \"heavy\""));
        assert!(jsonl.lines().next().unwrap().contains("\"store_version\": 7"));
        assert!(jsonl.lines().next().unwrap().contains("\"snapshot_age_us\": 42"));
    }

    #[test]
    fn the_ring_keeps_the_most_recent_records() {
        let log = AccessLog::new();
        for _ in 0..LOG_CAPACITY + 10 {
            log.push(record(log.next_seq(), "ok"));
        }
        assert_eq!(log.len(), LOG_CAPACITY);
        let snap = log.snapshot();
        assert_eq!(snap.len(), LOG_CAPACITY);
        assert_eq!(snap[0].seq, 10, "the first 10 pushed are gone");
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq), "ascending by seq");
        assert_eq!(snap[LOG_CAPACITY - 1].seq, (LOG_CAPACITY + 9) as u64);
    }

    #[test]
    fn records_stay_small() {
        // The ring holds `LOG_CAPACITY` of these: the unprofiled record
        // must not carry an inline `QueryProfile` (≈ 100 B of zeros).
        assert!(
            std::mem::size_of::<AccessRecord>() <= 120,
            "AccessRecord is {} B",
            std::mem::size_of::<AccessRecord>()
        );
    }

    #[test]
    fn profiled_record_includes_counters() {
        let mut r = record(0, "ok");
        r.profile =
            Some(Box::new(QueryProfile { rows_scanned: 77, index_hits: 3, ..Default::default() }));
        let json = r.to_json();
        assert!(json.contains("\"rows_scanned\": 77"));
        assert!(json.contains("\"index_hits\": 3"));
        assert!(json.ends_with('}'));
    }
}
