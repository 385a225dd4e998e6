//! Write-ahead log, compaction and recovery for the update-stream write
//! path.
//!
//! ## Durability contract
//!
//! Every accepted write batch is serialised (via [`crate::events`]),
//! appended to the log and fsynced *before* it is published to readers
//! and acknowledged. An acknowledged batch therefore survives a SIGKILL
//! or a power loss at any instruction: every append is its own fsync,
//! and a fresh log's directory entry is fsynced too.
//!
//! A WAL directory holds exactly two kinds of file: the log (`wal.log`)
//! and at most one store image (`store.img`, see [`crate::image`]). A
//! directory that also holds `wal-*.log` files was written by a build
//! that split the log across shards; [`recover`] and
//! [`SegmentedWal::open`] refuse it with an error naming the file
//! instead of starting beside records they would never read.
//!
//! ## File format
//!
//! The log starts with an 8-byte magic (`SNBWAL2\n`), the scale name
//! (a `put_str` string) and the generator seed (`u64`): scale and seed
//! name the deterministic bulk store the log is relative to. Each record
//! is:
//!
//! ```text
//! [u32 payload_len][u64 fnv64(payload)][payload]   (a snb_core::bytes checked frame)
//! payload = [u64 seq][u8 family][count + ops]     (events codec)
//! ```
//!
//! A record whose bytes are incomplete or whose checksum mismatches is a
//! *torn tail*: recovery truncates the file at the record boundary and
//! replays nothing from it — a torn batch was by definition never
//! acknowledged, so dropping it is correct, and the retrying client will
//! re-submit it. Replay also stops at the first sequence gap, and the
//! records past it are cut with the torn tail in one truncation.
//!
//! A log in an older format version (`SNBWAL1\n`, whose header also
//! carried a `u64` fencing epoch) is refused with an error naming the
//! version before anything is truncated: read as version 2, its epoch
//! bytes would fail the first record's checksum and the whole log would
//! be cut as a torn tail.
//!
//! ## Compaction
//!
//! Once the log holds `snapshot_every` records
//! ([`SegmentedWal::compaction_due`]), [`SegmentedWal::compact`] writes
//! the store as it stands at the log's last sequence number to
//! `store.img` and then truncates the log to a bare header. Both the
//! cost of a compaction and the cost of the recovery after it are
//! bounded by live-data size, not by history length. The order is what
//! makes it crash-safe:
//!
//! 1. the image lands (temp file + fsync + rename),
//! 2. the directory is fsynced, so the rename itself is durable,
//! 3. the log is truncated.
//!
//! A crash after 1 or 2 leaves the image beside a log whose records are
//! all at or below the image's sequence number; recovery skips them by
//! sequence, so nothing is applied twice. An image write that fails
//! leaves the log untouched: it keeps growing and the next append
//! retries.
//!
//! Recovery is one pass: start from the image if there is one, else from
//! the deterministic bulk store for (scale, seed); then replay the log
//! records past the starting sequence through the *same*
//! `apply_event`/`apply_deletes` path the original writes took.
//!
//! Fault points: `wal.append.short_write` (torn write at append),
//! `wal.append.post_append` (crash window between durability and apply).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use snb_core::bytes::{put_checked, put_str, put_u64, put_u8, Malformed, Reader};
use snb_core::{SnbError, SnbResult};
use snb_datagen::dictionaries::StaticWorld;
use snb_datagen::GeneratorConfig;
use snb_store::Store;

use crate::events::{decode_write_ops, encode_write_ops};
use crate::image::read_magic;
use crate::proto::WriteOps;

const WAL_MAGIC: &[u8; 8] = b"SNBWAL2\n";
const WAL_FILE: &str = "wal.log";

/// Tuning knobs for the log.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Write a store image and truncate the log once it holds this many
    /// records. `0` = never compact.
    pub snapshot_every: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { snapshot_every: 4096 }
    }
}

/// One durable record: a sequenced write batch.
#[derive(Clone, Debug)]
pub struct WalEntry {
    /// Contiguous batch sequence number (1-based).
    pub seq: u64,
    /// The batch payload.
    pub ops: WriteOps,
}

/// What recovery found and did — surfaced in the server's startup line
/// and asserted on by the chaos tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records found in the log. Includes records at or below
    /// `image_seq` (a crash between "image landed" and "log truncated"
    /// leaves them behind); those are scanned, not applied.
    pub wal_entries: u64,
    /// Bytes cut from the log's tail (torn or checksum-failed records,
    /// and anything past a sequence gap).
    pub truncated_bytes: u64,
    /// Highest batch sequence number recovered; the server resumes
    /// deduplication from here.
    pub last_seq: u64,
    /// Recovery wall-clock, microseconds (image load or bulk rebuild,
    /// plus replay).
    pub recovery_us: u64,
    /// Sequence number of the store image recovery started from (0 when
    /// no image was found and the bulk store was rebuilt from scratch).
    pub image_seq: u64,
    /// Wall-clock microseconds spent loading and decoding the store
    /// image (0 when no image was used).
    pub image_us: u64,
    /// Records applied on top of the starting point (image or bulk
    /// rebuild): the log records with `seq > image_seq`.
    pub tail_replayed: u64,
}

fn log_header(scale: &str, seed: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 2 + scale.len() + 8);
    buf.extend_from_slice(WAL_MAGIC);
    put_str(&mut buf, scale);
    put_u64(&mut buf, seed);
    buf
}

/// Reads and validates the log header, leaving `r` at the first record.
/// The format version and the (scale, seed) pair are match requirements:
/// a log for a different world must not replay.
fn read_header(r: &mut Reader<'_>, scale: &str, seed: u64) -> Result<(), Malformed> {
    read_magic(r, WAL_MAGIC, "log")?;
    let got_scale = r.str()?;
    let got_seed = r.u64()?;
    if got_scale != scale || got_seed != seed {
        return Err(Malformed(format!(
            "log is for scale {got_scale:?} seed {got_seed}, \
             server configured for scale {scale:?} seed {seed}"
        )));
    }
    Ok(())
}

/// Scans records from the cursor. Returns each parsed entry with the
/// byte offset its record starts at (recovery cuts the log there when a
/// sequence gap invalidates a suffix) and leaves the cursor one past the
/// last *valid* record — anything beyond it is a torn tail (incomplete
/// length/checksum/payload, or a checksum mismatch) that the caller
/// should truncate away. A record whose checksum holds but whose payload
/// does not decode is an error, not a torn tail.
fn scan_records(r: &mut Reader<'_>) -> Result<Vec<(usize, WalEntry)>, Malformed> {
    let mut entries = Vec::new();
    while r.remaining() > 0 {
        let start = r.pos();
        // Torn or rotted: nothing past it is trustworthy.
        let Ok(mut payload) = r.checked() else { break };
        let seq = payload.u64()?;
        let family = payload.u8()?;
        let ops = decode_write_ops(&mut payload, family)?;
        payload.finish()?;
        entries.push((start, WalEntry { seq, ops }));
    }
    Ok(entries)
}

fn encode_record(seq: u64, ops: &WriteOps) -> Vec<u8> {
    let mut payload = Vec::with_capacity(256);
    put_u64(&mut payload, seq);
    put_u8(&mut payload, ops.query_tag());
    encode_write_ops(&mut payload, ops);
    let mut record = Vec::with_capacity(payload.len() + 12);
    put_checked(&mut record, &payload);
    record
}

fn broken_log_error() -> SnbError {
    SnbError::Io(std::io::Error::other(
        "WAL has a torn tail from a failed append; restart to recover",
    ))
}

/// Refuses a directory holding `wal-*.log` files. A build that split the
/// log across shards wrote them; this one reads only `wal.log`, so
/// starting beside them would silently drop their records.
fn refuse_sharded_log(dir: &Path) -> SnbResult<()> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("wal-") && name.ends_with(".log") {
            return Err(SnbError::parse(
                dir.join(&name).display().to_string(),
                "a per-shard log segment from an older build; this build reads only wal.log, \
                 so recover the directory with the build that wrote it",
            ));
        }
    }
    Ok(())
}

/// The log file, open for appending.
struct LogFile {
    file: File,
    /// Set after a failed (torn) append: the file tail is garbage, so
    /// further appends must be refused until restart-and-recover.
    broken: bool,
}

impl LogFile {
    /// Opens (or creates) the log file; an existing file's header must
    /// match. Creating the file also fsyncs its directory, so the new
    /// name survives a power cut along with the records acked in it.
    fn open(path: PathBuf, scale: &str, seed: u64) -> SnbResult<LogFile> {
        let fresh = !path.exists();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        if fresh {
            file.write_all(&log_header(scale, seed))?;
            file.sync_data()?;
            crate::image::sync_dir(path.parent().unwrap_or(Path::new(".")))?;
        } else {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            read_header(&mut Reader::new(&bytes), scale, seed).map_err(|e| e.at(path.display()))?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(LogFile { file, broken: false })
    }

    /// Writes one encoded record to the file, honouring the short-write
    /// fault point. No fsync: [`LogFile::sync_data`] follows.
    fn write_record(&mut self, record: &[u8]) -> SnbResult<()> {
        if self.broken {
            return Err(broken_log_error());
        }
        if let Some(fault) = snb_fault::check("wal.append.short_write") {
            let n = fault.short_write.unwrap_or(0).min(record.len());
            self.file.write_all(&record[..n])?;
            let _ = self.file.sync_data();
            self.broken = true;
            fault.trip("wal.append.short_write");
            return Err(SnbError::Io(std::io::Error::other(
                "injected short write tore the WAL tail",
            )));
        }
        if let Err(e) = self.file.write_all(record) {
            // The record may be partially on disk: a torn tail.
            self.broken = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Flushes the file, marking the log broken on failure.
    fn sync_data(&mut self) -> SnbResult<()> {
        if let Err(e) = self.file.sync_data() {
            self.broken = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Truncates the file to its header (compaction). The header bytes
    /// are never rewritten, so a crash at any point leaves a log
    /// recovery accepts.
    fn truncate_to_header(&mut self, header_len: u64) -> SnbResult<()> {
        // The append handle keeps writing at the new end of file.
        self.file.set_len(header_len)?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// The write-ahead log (`wal.log`) — the server's append handle: one
/// fsync per append, and compaction.
// This name and `open`'s `seg_live` and `epoch` parameters are kept only for the frozen
// `benchmark/` package.
pub struct SegmentedWal {
    dir: PathBuf,
    scale: String,
    seed: u64,
    options: WalOptions,
    log: LogFile,
    last_seq: u64,
    /// Records the log holds (the compaction trigger).
    live_entries: u64,
    syncs: u64,
}

impl SegmentedWal {
    /// Opens (or creates) `dir`'s log for appending. `seg_live` carries
    /// the live-record count recovery found in the log (empty for a
    /// fresh log); its sum seeds the compaction trigger. `epoch` must
    /// be 0: anything else is refused before the directory is touched.
    /// Refuses a directory holding `wal-*.log` files, or a log or an
    /// image this build cannot read (another format version, another
    /// world), before it creates anything.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        dir: &Path,
        scale: &str,
        seed: u64,
        options: WalOptions,
        last_seq: u64,
        seg_live: &[u64],
        epoch: u64,
    ) -> SnbResult<SegmentedWal> {
        if epoch != 0 {
            return Err(SnbError::Config(format!("SegmentedWal::open takes epoch 0, got {epoch}")));
        }
        std::fs::create_dir_all(dir)?;
        refuse_sharded_log(dir)?;
        crate::image::image_info(dir, scale, seed)?;
        let log = LogFile::open(dir.join(WAL_FILE), scale, seed)?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            scale: scale.to_string(),
            seed,
            options,
            log,
            last_seq,
            live_entries: seg_live.iter().sum(),
            syncs: 0,
        })
    }

    /// Highest sequence number durably appended.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Total `fsync(2)` calls issued for appended records: one per
    /// append.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Whether the log has a torn tail and refuses appends.
    pub fn broken(&self) -> bool {
        self.log.broken
    }

    /// Appends one batch and fsyncs it: when this returns `Ok` the batch
    /// is durable and may be acknowledged. An error means nothing may be
    /// acknowledged and the log must be considered torn until restart.
    pub fn append(&mut self, seq: u64, ops: &WriteOps) -> SnbResult<()> {
        self.log.write_record(&encode_record(seq, ops))?;
        self.log.sync_data()?;
        self.syncs += 1;
        if let Some(fault) = snb_fault::check("wal.append.post_append") {
            // The batch is durable but not yet applied or acknowledged —
            // the recovery-vs-retry dedupe window the chaos test aims
            // at. The log is marked broken so a still-running process
            // cannot append the same sequence number a second time (the
            // record IS on disk; a duplicate would replay twice).
            if fault.trip("wal.append.post_append") {
                self.log.broken = true;
                return Err(SnbError::Io(std::io::Error::other(
                    "injected post-append failure (batch is durable, ack lost)",
                )));
            }
        }
        self.live_entries += 1;
        self.last_seq = seq;
        Ok(())
    }

    /// Forces the log to disk unconditionally. Every append is already
    /// fsynced, so no server path calls it; the `benchmark/` probes do.
    /// Not counted in [`SegmentedWal::syncs`].
    pub fn sync(&mut self) -> SnbResult<()> {
        self.log.file.sync_data()?;
        Ok(())
    }

    /// Whether the log holds enough records that the caller should
    /// [`SegmentedWal::compact`] (never, with `snapshot_every = 0`).
    pub fn compaction_due(&self) -> bool {
        self.options.snapshot_every != 0 && self.live_entries >= self.options.snapshot_every
    }

    /// Compacts the log: writes `store` — which must be the state at
    /// exactly [`SegmentedWal::last_seq`] — to `store.img`, makes the
    /// rename durable, and only then truncates the log (module docs,
    /// "Compaction"). On error the log is untouched and still holds
    /// every record.
    pub fn compact(&mut self, store: &Store) -> SnbResult<()> {
        crate::image::write_image(&self.dir, &self.scale, self.seed, 0, self.last_seq, 1, store)?;
        crate::image::sync_dir(&self.dir)?;
        self.log.truncate_to_header(log_header(&self.scale, self.seed).len() as u64)?;
        self.live_entries = 0;
        Ok(())
    }
}

/// Everything recovery hands back: a consistent store, the static world
/// needed to apply further updates, an open append handle positioned
/// after the recovered tail, and the numbers.
pub struct Recovered {
    /// The store with the log tail replayed, date index repaired and
    /// invariants validated.
    pub store: Store,
    /// Seeded dictionaries for applying further update events.
    pub world: StaticWorld,
    /// Append handle continuing the recovered log.
    pub wal: SegmentedWal,
    /// What was replayed/truncated.
    pub report: RecoveryReport,
}

impl Recovered {
    /// Splits into the store and the [`crate::server::Durability`]
    /// bundle [`crate::Server::start_durable`] wants, plus the report.
    pub fn into_durability(self) -> (Store, crate::server::Durability, RecoveryReport) {
        let durability = crate::server::Durability {
            wal: self.wal,
            world: self.world,
            last_seq: self.report.last_seq,
        };
        (self.store, durability, self.report)
    }
}

/// Recovers the durable state under `dir` in one pass: start from
/// `store.img` if present (else rebuild the deterministic bulk store
/// for `config`), then replay the log's entries past the starting
/// sequence — verifying per-record checksums and cutting the torn tail
/// and any suffix past a sequence gap in one truncation (every append
/// is fsynced before the next is written, so entries past a gap were
/// never acknowledged and dropping them is correct). Repairs the date
/// index and validates store invariants. Works on an empty or absent
/// directory (fresh start, zero entries). Refuses a directory holding
/// `wal-*.log` files, an image written for a sharded log, and a log or
/// image in another format version, before it truncates anything.
pub fn recover(
    dir: &Path,
    config: &GeneratorConfig,
    scale: &str,
    options: WalOptions,
) -> SnbResult<Recovered> {
    let recovery_started = std::time::Instant::now();
    std::fs::create_dir_all(dir)?;
    refuse_sharded_log(dir)?;
    let world = StaticWorld::build(config.seed);
    let mut report = RecoveryReport::default();

    // A valid image replaces both the bulk rebuild and the replay up to
    // its sequence number, so recovery cost is image size + log tail,
    // flat in history length. A present-but-corrupt image is a hard
    // refusal, never a silent fallback to the bulk store: the log
    // behind an image no longer holds the history it covers.
    let mut store = match crate::image::load_image(dir, scale, config.seed)? {
        Some((store, header)) => {
            report.image_seq = header.seq;
            report.last_seq = header.seq;
            report.image_us = recovery_started.elapsed().as_micros() as u64;
            store
        }
        None => snb_store::bulk_store_and_stream(config).0,
    };

    let path = dir.join(WAL_FILE);
    let mut entries = Vec::new();
    if path.exists() {
        let bytes = std::fs::read(&path)?;
        let mut r = Reader::new(&bytes);
        let scanned = read_header(&mut r, scale, config.seed)
            .and_then(|()| scan_records(&mut r))
            .map_err(|e| e.at(path.display()))?;
        let valid_end = r.pos();
        // Replay stops at the first sequence gap. A record at or below
        // the high-water mark (covered by the image, or an
        // appended-but-unacked batch whose retry landed later) is not a
        // gap.
        let mut keep = scanned.len();
        let mut replay_last = report.last_seq;
        for (i, (_, entry)) in scanned.iter().enumerate() {
            if entry.seq <= replay_last {
                continue;
            }
            if entry.seq != replay_last + 1 {
                keep = i;
                break;
            }
            replay_last = entry.seq;
        }
        // The torn tail and the records past a gap go in one cut, so a
        // retried batch can't coexist with an orphaned first appearance.
        let cut = scanned.get(keep).map_or(valid_end, |(start, _)| *start);
        if cut != bytes.len() {
            report.truncated_bytes = (bytes.len() - cut) as u64;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(cut as u64)?;
            f.sync_data()?;
        }
        entries = scanned;
        entries.truncate(keep);
    }

    // Replay is monotonic by sequence number: a record at or below the
    // starting point (covered by the image) or a duplicate is skipped,
    // so nothing is ever applied twice.
    for (_, entry) in &entries {
        if entry.seq <= report.last_seq {
            continue;
        }
        match &entry.ops {
            WriteOps::Updates(events) => {
                for ev in events {
                    store.apply_event(ev, &world)?;
                }
            }
            WriteOps::Deletes(dels) => {
                store.apply_deletes(dels)?;
            }
        }
        report.last_seq = entry.seq;
        report.tail_replayed += 1;
    }
    report.wal_entries = entries.len() as u64;
    store.validate_invariants()?;

    let wal = SegmentedWal::open(
        dir,
        scale,
        config.seed,
        options,
        report.last_seq,
        &[report.wal_entries],
        0,
    )?;
    report.recovery_us = recovery_started.elapsed().as_micros() as u64;
    Ok(Recovered { store, world, wal, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{write_image, IMAGE_FILE};
    use snb_core::bytes::{fnv64, put_u32};
    use snb_datagen::stream::UpdateEvent;
    use snb_store::DeleteOp;

    const SCALE: &str = "0.001";

    fn config() -> GeneratorConfig {
        GeneratorConfig::for_scale_name(SCALE).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("snb_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Sequenced batches carved from the real update stream, with a
    /// delete batch interleaved so both families hit the log.
    fn batches(n: usize) -> Vec<WriteOps> {
        let (_, stream) = snb_store::bulk_store_and_stream(&config());
        let mut out = Vec::new();
        let mut likes = Vec::new();
        for chunk in stream.chunks(20).take(n) {
            for ev in chunk {
                if let UpdateEvent::AddLikePost(l) = &ev.event {
                    likes.push(DeleteOp::Like(l.person.0, l.message.0));
                }
            }
            out.push(WriteOps::Updates(chunk.to_vec()));
            if !likes.is_empty() {
                out.push(WriteOps::Deletes(std::mem::take(&mut likes)));
            }
        }
        out
    }

    fn store_fingerprint(store: &Store) -> String {
        let stats = store.stats();
        format!("{}/{}", stats.nodes, stats.edges)
    }

    fn open(dir: &Path, opts: WalOptions) -> SegmentedWal {
        SegmentedWal::open(dir, SCALE, config().seed, opts, 0, &[], 0).unwrap()
    }

    /// The direct-apply oracle: the bulk store plus a world to apply
    /// batches to it with, no log involved.
    struct Oracle {
        store: Store,
        world: StaticWorld,
    }

    impl Oracle {
        fn new() -> Oracle {
            let cfg = config();
            Oracle {
                store: snb_store::bulk_store_and_stream(&cfg).0,
                world: StaticWorld::build(cfg.seed),
            }
        }

        fn apply(&mut self, ops: &WriteOps) {
            match ops {
                WriteOps::Updates(events) => {
                    for ev in events {
                        self.store.apply_event(ev, &self.world).unwrap();
                    }
                }
                WriteOps::Deletes(dels) => {
                    self.store.apply_deletes(dels).unwrap();
                }
            }
        }

        fn fingerprint(self) -> String {
            store_fingerprint(&self.store)
        }
    }

    /// The files a WAL directory holds, sorted.
    fn dir_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn append_recover_roundtrip_matches_direct_apply() {
        let dir = tmp_dir("roundtrip");
        let cfg = config();
        let mut oracle = Oracle::new();

        let mut wal = open(&dir, WalOptions::default());
        for (i, ops) in batches(4).iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            oracle.apply(ops);
        }
        let appended = wal.last_seq();
        drop(wal); // simulated crash: no graceful shutdown

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.last_seq, appended);
        assert_eq!(rec.report.truncated_bytes, 0);
        assert_eq!(store_fingerprint(&rec.store), oracle.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let dir = tmp_dir("torn");
        let cfg = config();
        let all = batches(4);
        let mut wal = open(&dir, WalOptions::default());
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        drop(wal);

        // Tear the last record: chop off its final 5 bytes.
        let path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 5).unwrap();

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.wal_entries, all.len() as u64 - 1);
        assert_eq!(rec.report.last_seq, all.len() as u64 - 1);
        assert!(rec.report.truncated_bytes > 0);

        // The truncation is itself durable: a second recovery sees a
        // clean log and the same state.
        let rec2 = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec2.report.truncated_bytes, 0);
        assert_eq!(rec2.report.last_seq, rec.report.last_seq);
        assert_eq!(store_fingerprint(&rec2.store), store_fingerprint(&rec.store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_bad_record() {
        let dir = tmp_dir("cksum");
        let cfg = config();
        let all = batches(4);
        let mut wal = open(&dir, WalOptions::default());
        let mut offsets = vec![std::fs::metadata(dir.join(WAL_FILE)).unwrap().len()];
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            wal.sync().unwrap();
            offsets.push(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        }
        drop(wal);

        // Flip one payload byte inside the second-to-last record.
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = offsets[offsets.len() - 3] as usize + 12 + 3;
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        // Everything before the corrupt record replays; it and the
        // (valid) record after it are cut — past a checksum failure no
        // byte can be trusted.
        assert_eq!(rec.report.wal_entries, all.len() as u64 - 2);
        assert!(rec.report.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_the_log_and_preserves_state() {
        let cfg = config();
        let all = batches(6);
        let n = all.len() as u64;
        let mut control = Oracle::new();
        for ops in &all {
            control.apply(ops);
        }
        let control = control.fingerprint();

        let dir = tmp_dir("compact");
        let opts = WalOptions { snapshot_every: 2 };
        let mut wal = open(&dir, opts);
        let mut live = Oracle::new();
        let mut compacted_at = Vec::new();
        for (i, ops) in all.iter().enumerate() {
            let seq = i as u64 + 1;
            wal.append(seq, ops).unwrap();
            live.apply(ops);
            if wal.compaction_due() {
                wal.compact(&live.store).unwrap();
                compacted_at.push(seq);
            }
        }
        drop(wal);
        assert_eq!(compacted_at, (1..=n / 2).map(|k| 2 * k).collect::<Vec<_>>());
        let image_seq = *compacted_at.last().unwrap();

        // The log plus one image, nothing else.
        assert_eq!(dir_files(&dir), [IMAGE_FILE, WAL_FILE]);

        // The log holds only what was appended after the last
        // compaction, and that is all recovery replays.
        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.last_seq, n);
        assert_eq!(rec.report.image_seq, image_seq);
        assert_eq!(rec.report.wal_entries, n - image_seq);
        assert_eq!(rec.report.tail_replayed, n - image_seq);
        assert_eq!(store_fingerprint(&rec.store), control);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn image_beside_an_untruncated_log_applies_nothing_twice() {
        // The crash window inside a compaction: the image at seq S has
        // landed, the log still holds every record.
        let dir = tmp_dir("window");
        let cfg = config();
        let all = batches(6);
        let n = all.len() as u64;
        let image_at = 3u64;
        let mut wal = open(&dir, WalOptions::default());
        let mut oracle = Oracle::new();
        for (i, ops) in all.iter().enumerate() {
            let seq = i as u64 + 1;
            wal.append(seq, ops).unwrap();
            oracle.apply(ops);
            if seq == image_at {
                write_image(&dir, SCALE, cfg.seed, 0, seq, 1, &oracle.store).unwrap();
            }
        }
        drop(wal);

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.image_seq, image_at);
        assert_eq!(rec.report.wal_entries, n, "stale records are still scanned");
        assert_eq!(rec.report.tail_replayed, n - image_at, "only seq > S applies");
        assert_eq!(rec.report.last_seq, n);
        assert_eq!(rec.report.truncated_bytes, 0, "stale records are not a gap");
        assert_eq!(store_fingerprint(&rec.store), oracle.fingerprint());

        // The reopened log counts the stale records as live, so the next
        // compaction point clears them.
        assert_eq!(rec.wal.live_entries, n);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_mismatch_is_refused() {
        let dir = tmp_dir("header");
        let cfg = config();
        let mut wal = open(&dir, WalOptions::default());
        wal.append(1, &batches(1)[0]).unwrap();
        drop(wal);
        // Different seed ⇒ different bulk store ⇒ replay would corrupt.
        let reopen = |seed| SegmentedWal::open(&dir, SCALE, seed, WalOptions::default(), 0, &[], 0);
        assert!(reopen(cfg.seed + 1).is_err());
        assert!(reopen(cfg.seed).is_ok());
        assert!(recover(&dir, &cfg, "0.003", WalOptions::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_recovers_to_the_bulk_store() {
        let dir = tmp_dir("fresh");
        let cfg = config();
        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        // Everything but the wall-clock stamp is zero on a fresh start.
        assert_eq!(RecoveryReport { recovery_us: 0, ..rec.report }, RecoveryReport::default());
        let (bulk, _) = snb_store::bulk_store_and_stream(&cfg);
        assert_eq!(store_fingerprint(&rec.store), store_fingerprint(&bulk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_gap_cuts_the_suffix_in_one_truncation() {
        let cfg = config();
        let dir = tmp_dir("gap");
        let all = batches(5);
        let mut wal = open(&dir, WalOptions::default());
        // Seq 4 never lands: 5 and 6 sit past a gap.
        for (seq, ops) in [1u64, 2, 3, 5, 6].into_iter().zip(&all) {
            wal.append(seq, ops).unwrap();
        }
        drop(wal);
        let mut oracle = Oracle::new();
        for ops in &all[..3] {
            oracle.apply(ops);
        }
        // A torn stub after the orphans: the cut must take it too.
        let path = dir.join(WAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[7, 0, 0]).unwrap();
        drop(f);
        let len = std::fs::metadata(&path).unwrap().len();
        let suffix = (encode_record(5, &all[3]).len() + encode_record(6, &all[4]).len() + 3) as u64;

        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.last_seq, 3, "replay stops before the gap");
        assert_eq!(rec.report.wal_entries, 3, "post-gap entries must not replay");
        assert_eq!(rec.report.truncated_bytes, suffix);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - suffix);
        assert_eq!(store_fingerprint(&rec.store), oracle.fingerprint());

        // The cut is durable and gap-free: a second recovery is clean
        // and byte-identical.
        let rec2 = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec2.report.truncated_bytes, 0);
        assert_eq!(rec2.report.last_seq, 3);
        assert_eq!(store_fingerprint(&rec2.store), store_fingerprint(&rec.store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file in `dir` with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        dir_files(dir)
            .into_iter()
            .map(|f| (f.clone(), std::fs::read(dir.join(f)).unwrap()))
            .collect()
    }

    #[test]
    fn sharded_layout_is_refused_untouched() {
        let cfg = config();
        let all = batches(2);
        let named = |e: SnbError, file: &str| match e {
            SnbError::Parse { context, .. } => assert!(context.contains(file), "{context}"),
            other => panic!("expected a parse error naming {file}, got {other:?}"),
        };

        // A log split across two shards, as an older build wrote it: one
        // header and one record per file.
        let dir = tmp_dir("sharded_log");
        std::fs::create_dir_all(&dir).unwrap();
        for (p, ops) in all.iter().take(2).enumerate() {
            let mut bytes = log_header(SCALE, cfg.seed);
            bytes.extend_from_slice(&encode_record(p as u64 + 1, ops));
            std::fs::write(dir.join(format!("wal-{p}.log")), bytes).unwrap();
        }
        let before = dir_bytes(&dir);
        named(recover(&dir, &cfg, SCALE, WalOptions::default()).err().unwrap(), "wal-");
        let reopen = SegmentedWal::open(&dir, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0);
        named(reopen.err().unwrap(), "wal-");
        assert_eq!(dir_bytes(&dir), before, "nothing may be created or truncated");

        // An image stamped for a two-shard log, built from raw header
        // bytes, beside a one-file log with a torn tail.
        let image = |shards: u32| {
            let body = snb_store::encode_store(&Oracle::new().store);
            let mut img = crate::image::IMAGE_MAGIC.to_vec();
            put_str(&mut img, SCALE);
            for v in [cfg.seed, 1] {
                put_u64(&mut img, v); // seed, seq
            }
            put_u32(&mut img, shards);
            put_u64(&mut img, body.len() as u64);
            put_u64(&mut img, fnv64(&body));
            let sum = fnv64(&img);
            put_u64(&mut img, sum);
            img.extend_from_slice(&body);
            img
        };
        let path = dir.join(IMAGE_FILE);
        let decode = |bytes: &[u8]| crate::image::decode_image(bytes, SCALE, cfg.seed, &path);
        assert!(decode(&image(1)).is_ok(), "well-formed bytes");
        let dir2 = tmp_dir("sharded_image");
        std::fs::create_dir_all(&dir2).unwrap();
        std::fs::write(dir2.join(IMAGE_FILE), image(2)).unwrap();
        let mut log = log_header(SCALE, cfg.seed);
        log.extend_from_slice(&encode_record(2, &all[1]));
        log.extend_from_slice(&[9, 9, 9]);
        std::fs::write(dir2.join(WAL_FILE), log).unwrap();
        let before = dir_bytes(&dir2);
        named(recover(&dir2, &cfg, SCALE, WalOptions::default()).err().unwrap(), IMAGE_FILE);
        named(crate::image::load_image(&dir2, SCALE, cfg.seed).err().unwrap(), IMAGE_FILE);
        named(decode(&image(2)).err().unwrap(), IMAGE_FILE);
        let reopen = SegmentedWal::open(&dir2, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0);
        named(reopen.err().unwrap(), IMAGE_FILE);
        assert_eq!(dir_bytes(&dir2), before, "nothing may be truncated or replaced");
        for d in [&dir, &dir2] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn every_append_is_one_fsync() {
        let cfg = config();
        let dir = tmp_dir("one_fsync");
        let all = batches(6);
        let mut wal = open(&dir, WalOptions::default());
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            assert_eq!(wal.syncs(), i as u64 + 1, "append {} returned before its fsync", i + 1);
        }
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), all.len() as u64, "an explicit sync is not an append fsync");
        drop(wal);
        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!(rec.report.last_seq, all.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_format_versions_are_refused_untouched() {
        let cfg = config();
        let all = batches(2);
        let version_1 = |e: SnbError, file: &str| match e {
            SnbError::Parse { context, detail } => {
                assert!(context.contains(file), "{context}");
                assert!(detail.contains("format version 1"), "{detail}");
            }
            other => panic!("expected a parse error naming version 1, got {other:?}"),
        };

        // A version-1 log: its header also carried a fencing epoch.
        let dir = tmp_dir("v1_log");
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = b"SNBWAL1\n".to_vec();
        put_str(&mut log, SCALE);
        put_u64(&mut log, cfg.seed);
        put_u64(&mut log, 3); // epoch
        for (i, ops) in all.iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, ops));
        }
        std::fs::write(dir.join(WAL_FILE), log).unwrap();
        let before = dir_bytes(&dir);
        version_1(recover(&dir, &cfg, SCALE, WalOptions::default()).err().unwrap(), WAL_FILE);
        let reopen = SegmentedWal::open(&dir, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0);
        version_1(reopen.err().unwrap(), WAL_FILE);
        assert_eq!(dir_bytes(&dir), before, "nothing may be cut as a torn tail");

        // A version-1 image: an epoch between the seed and the sequence.
        let dir2 = tmp_dir("v1_image");
        std::fs::create_dir_all(&dir2).unwrap();
        let body = snb_store::encode_store(&Oracle::new().store);
        let mut img = b"SNBIMG1\n".to_vec();
        put_str(&mut img, SCALE);
        for v in [cfg.seed, 3, 1] {
            put_u64(&mut img, v); // seed, epoch, seq
        }
        put_u32(&mut img, 1);
        put_u64(&mut img, body.len() as u64);
        put_u64(&mut img, fnv64(&body));
        let sum = fnv64(&img);
        put_u64(&mut img, sum);
        img.extend_from_slice(&body);
        std::fs::write(dir2.join(IMAGE_FILE), img).unwrap();
        let before = dir_bytes(&dir2);
        version_1(recover(&dir2, &cfg, SCALE, WalOptions::default()).err().unwrap(), IMAGE_FILE);
        let reopen = SegmentedWal::open(&dir2, SCALE, cfg.seed, WalOptions::default(), 0, &[], 0);
        version_1(reopen.err().unwrap(), IMAGE_FILE);
        assert_eq!(dir_bytes(&dir2), before, "no log may be created beside the image");
        for d in [&dir, &dir2] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn open_refuses_a_nonzero_epoch_before_touching_the_directory() {
        let dir = tmp_dir("epoch_arg");
        let refused =
            SegmentedWal::open(&dir, SCALE, config().seed, WalOptions::default(), 0, &[], 1);
        assert!(matches!(refused, Err(SnbError::Config(_))), "{:?}", refused.err());
        assert!(!dir.exists(), "nothing may be created");
    }
}
