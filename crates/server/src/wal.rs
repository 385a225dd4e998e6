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
//! The log starts with an 8-byte magic, the scale name (`u16`-length
//! string), the generator seed (`u64`) and the **fencing epoch** (`u64`)
//! — scale and seed name the deterministic bulk store the log is
//! relative to, and the epoch is the replication term the node last
//! served under ([`SegmentedWal::bump_epoch`] is called on promotion,
//! before the node goes writable, so a restarted ex-primary recovers the
//! term it was fenced at). Each record is:
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
use crate::image::ImageHeader;
use crate::proto::WriteOps;

const WAL_MAGIC: &[u8; 8] = b"SNBWAL1\n";
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
    /// plus replay) — the baseline a replication catch-up is measured
    /// against.
    pub recovery_us: u64,
    /// Fencing epoch recovered: the maximum of the image's and the log
    /// header's.
    pub epoch: u64,
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

fn log_header(scale: &str, seed: u64, epoch: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + 2 + scale.len() + 16);
    buf.extend_from_slice(WAL_MAGIC);
    put_str(&mut buf, scale);
    put_u64(&mut buf, seed);
    put_u64(&mut buf, epoch);
    buf
}

/// Byte offset of the `u64` epoch field inside the log header — fixed
/// once the scale name is known, so [`SegmentedWal::bump_epoch`] can
/// overwrite it in place without rewriting the log.
fn header_epoch_offset(scale: &str) -> u64 {
    (8 + 2 + scale.len() + 8) as u64
}

/// Reads and validates the log header, leaving `r` at the first record;
/// returns the fencing epoch the header carries. Scale and seed are
/// match requirements (a log for a different world must not replay);
/// the epoch is data — recovery takes the maximum it sees.
fn read_header(r: &mut Reader<'_>, scale: &str, seed: u64) -> Result<u64, Malformed> {
    if r.take(WAL_MAGIC.len()).ok() != Some(WAL_MAGIC) {
        return Err(Malformed("bad or missing log magic".into()));
    }
    let got_scale = r.str()?;
    let got_seed = r.u64()?;
    let epoch = r.u64()?;
    if got_scale != scale || got_seed != seed {
        return Err(Malformed(format!(
            "log is for scale {got_scale:?} seed {got_seed}, \
             server configured for scale {scale:?} seed {seed}"
        )));
    }
    Ok(epoch)
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
    path: PathBuf,
    file: File,
    /// Set after a failed (torn) append: the file tail is garbage, so
    /// further appends must be refused until restart-and-recover.
    broken: bool,
}

impl LogFile {
    /// Opens (or creates) the log file. A fresh file is created at
    /// `epoch`; an existing file keeps the epoch its header carries,
    /// which is returned (the param is a creation default, not a match
    /// requirement). Creating the file also fsyncs its directory, so the
    /// new name survives a power cut along with the records acked in it.
    fn open(path: PathBuf, scale: &str, seed: u64, epoch: u64) -> SnbResult<(LogFile, u64)> {
        let fresh = !path.exists();
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut epoch = epoch;
        if fresh {
            file.write_all(&log_header(scale, seed, epoch))?;
            file.sync_data()?;
            crate::image::sync_dir(path.parent().unwrap_or(Path::new(".")))?;
        } else {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            epoch = read_header(&mut Reader::new(&bytes), scale, seed)
                .map_err(|e| e.at(path.display()))?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok((LogFile { path, file, broken: false }, epoch))
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
// This name and `open`'s `seg_live` slice are kept only for the frozen `benchmark/` package.
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
    /// Fencing epoch the log is at (max of the header and the open-time
    /// floor; see [`SegmentedWal::bump_epoch`]).
    epoch: u64,
}

impl SegmentedWal {
    /// Opens (or creates) `dir`'s log for appending. `seg_live` carries
    /// the live-record count recovery found in the log (empty for a
    /// fresh log); its sum seeds the compaction trigger. `epoch` is a
    /// floor: a fresh log is created at it, and the log's effective
    /// epoch is the max of the floor and the stored header. Refuses a
    /// directory holding `wal-*.log` files.
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
        std::fs::create_dir_all(dir)?;
        refuse_sharded_log(dir)?;
        let (log, stored) = LogFile::open(dir.join(WAL_FILE), scale, seed, epoch)?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            scale: scale.to_string(),
            seed,
            options,
            log,
            last_seq,
            live_entries: seg_live.iter().sum(),
            syncs: 0,
            epoch: epoch.max(stored),
        })
    }

    /// Highest sequence number durably appended.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The fencing epoch the log is at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Durably raises the fencing epoch to `new_epoch`, overwriting the
    /// 8-byte epoch field in the log header in place and fsyncing the
    /// file. Called on promotion *before* the node goes writable, so a
    /// crash at any point either leaves the old term (promotion never
    /// happened) or the bumped one. Compaction keeps the header and
    /// stamps the epoch into the image, so the term survives it. A
    /// no-op if the log is already at or past `new_epoch`.
    pub fn bump_epoch(&mut self, new_epoch: u64) -> SnbResult<()> {
        if new_epoch <= self.epoch {
            return Ok(());
        }
        // The append handle ignores seeks, so patch the header through
        // a separate write-mode handle.
        let mut f = OpenOptions::new().write(true).open(&self.log.path)?;
        f.seek(SeekFrom::Start(header_epoch_offset(&self.scale)))?;
        f.write_all(&new_epoch.to_le_bytes())?;
        f.sync_data()?;
        self.epoch = new_epoch;
        Ok(())
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
        crate::image::write_image(
            &self.dir,
            &self.scale,
            self.seed,
            self.epoch,
            self.last_seq,
            1,
            store,
        )?;
        crate::image::sync_dir(&self.dir)?;
        self.truncate_behind_image(self.last_seq, self.epoch)
    }

    /// Installs a shipped store image (follower bootstrap): verifies and
    /// lands the blob as this directory's `store.img`, then truncates
    /// the log behind it in the same order [`SegmentedWal::compact`]
    /// uses. An image older than the log is refused. Appends resume
    /// from the image's sequence.
    pub fn install_image(&mut self, bytes: &[u8]) -> SnbResult<(Store, ImageHeader)> {
        // Refuse before anything lands: behind an older image the
        // records the log holds would sit past a sequence gap.
        let offered = crate::image::peek_header(bytes, &self.scale, self.seed)?;
        if offered.seq < self.last_seq {
            return Err(SnbError::Config(format!(
                "refusing image at seq {} older than the log's seq {}",
                offered.seq, self.last_seq
            )));
        }
        let (store, header) =
            crate::image::install_image_bytes(&self.dir, &self.scale, self.seed, bytes)?;
        crate::image::sync_dir(&self.dir)?;
        self.truncate_behind_image(header.seq, header.epoch)?;
        Ok((store, header))
    }

    /// Truncates the log to its header behind a durable image at
    /// (`image_seq`, `epoch`) and resumes appends from `image_seq`.
    fn truncate_behind_image(&mut self, image_seq: u64, epoch: u64) -> SnbResult<()> {
        self.bump_epoch(epoch)?;
        self.log.truncate_to_header(header_epoch_offset(&self.scale) + 8)?;
        self.last_seq = image_seq;
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
            epoch: self.wal.epoch(),
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
/// `wal-*.log` files, or an image written for a sharded log, before it
/// reads or truncates anything.
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
            report.epoch = header.epoch;
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
        let (epoch, scanned) = read_header(&mut r, scale, config.seed)
            .and_then(|epoch| Ok((epoch, scan_records(&mut r)?)))
            .map_err(|e| e.at(path.display()))?;
        let valid_end = r.pos();
        report.epoch = report.epoch.max(epoch);
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

    if !store.date_index_fresh() {
        store.rebuild_date_index();
    }
    store.validate_invariants()?;

    let wal = SegmentedWal::open(
        dir,
        scale,
        config.seed,
        options,
        report.last_seq,
        &[report.wal_entries],
        report.epoch,
    )?;
    report.epoch = wal.epoch();
    report.recovery_us = recovery_started.elapsed().as_micros() as u64;
    Ok(Recovered { store, world, wal, report })
}

/// The log-shipping cursor: reads acked records out of a WAL directory
/// in sequence order, for streaming to followers.
///
/// Each [`WalTailer::poll`] scans the log from a byte offset and returns
/// the contiguous run `(next_seq, upto]`, so an idle poll is one
/// `stat(2)` and an active poll reads only bytes appended since the
/// last one. Compaction truncates the log, which the cursor detects via
/// the length and answers with a rescan from 0; records re-read during a
/// rescan are dropped by the seq filter, mirroring replay's dedupe. The
/// log does not reach back past the store image: records compaction
/// truncated before the cursor read them never surface, `next_seq`
/// stays at or below the image's sequence number, and the caller offers
/// the image instead (see [`crate::replication`]). The caller bounds
/// `upto` by the server's applied high-water mark, and a batch is
/// applied only after its fsync, so only durable records ever ship; records past a gap are
/// buffered until the gap fills. Torn tails are skipped (never
/// truncated — recovery owns repair).
pub struct WalTailer {
    path: PathBuf,
    scale: String,
    seed: u64,
    next_seq: u64,
    /// Offset one past the last valid record already scanned (0 = the
    /// log has not been scanned yet, or was truncated).
    offset: u64,
    /// File length at the last poll — a shrink means compaction
    /// truncated the log and the cursor must rescan from 0.
    last_len: u64,
    /// Consecutive polls that saw the log grow past `offset` without
    /// yielding a single new valid record — a persistent misalignment
    /// (truncate-then-regrow to a larger size between polls) that a full
    /// rescan repairs.
    stuck: u32,
    /// Scanned-but-not-yet-shipped records (beyond a gap, or past a
    /// bounded `upto`), keyed by seq; first copy wins.
    pending: std::collections::BTreeMap<u64, WriteOps>,
    /// Total bytes read off disk across all polls — the O(new bytes)
    /// pin the cursor test counts.
    bytes_scanned: u64,
}

impl WalTailer {
    /// A cursor over the WAL directory `dir`, positioned to ship
    /// records with `seq > from_seq`. The `(scale, seed)` pair must
    /// match the log (its header is verified whenever the file is
    /// scanned from its start).
    pub fn new(dir: &Path, scale: &str, seed: u64, from_seq: u64) -> WalTailer {
        WalTailer {
            path: dir.join(WAL_FILE),
            scale: scale.to_string(),
            seed,
            next_seq: from_seq + 1,
            offset: 0,
            last_len: 0,
            stuck: 0,
            pending: std::collections::BTreeMap::new(),
            bytes_scanned: 0,
        }
    }

    /// The next sequence number the cursor will ship.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes read off disk across all polls (the idle-cost pin:
    /// polls with no new appends add zero).
    pub fn bytes_scanned(&self) -> u64 {
        self.bytes_scanned
    }

    /// Scans the log from the cursor, buffering new entries into
    /// `pending`.
    fn scan(&mut self) -> SnbResult<()> {
        if !self.path.exists() {
            return Ok(());
        }
        let len = std::fs::metadata(&self.path)?.len();
        if len < self.last_len || len < self.offset {
            // Compaction truncated the file: rescan from the top.
            self.offset = 0;
            self.stuck = 0;
        }
        self.last_len = len;
        if len <= self.offset {
            return Ok(()); // idle: nothing appended since last poll
        }
        let start = self.offset;
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(start))?;
        let mut bytes = Vec::with_capacity((len - start) as usize);
        file.read_to_end(&mut bytes)?;
        self.bytes_scanned += bytes.len() as u64;

        let mut r = Reader::new(&bytes);
        let scanned = match start {
            // Only a scan from the top of the file starts at the header.
            0 => read_header(&mut r, &self.scale, self.seed).and_then(|_| scan_records(&mut r)),
            _ => scan_records(&mut r),
        };
        let entries = scanned.map_err(|e| e.at(self.path.display()))?;
        let valid_end = r.pos();
        if entries.is_empty() && valid_end == 0 && start > 0 {
            // The file grew but nothing at our offset parses — the file
            // was truncated and regrew past our cursor between polls, so
            // the offset no longer sits on a record boundary. A boundary
            // mid-flush looks the same for a poll or two (torn tail), so
            // only a *persistent* stall triggers the full rescan.
            self.stuck += 1;
            if self.stuck >= 4 {
                self.offset = 0;
                self.stuck = 0;
            }
            return Ok(());
        }
        self.stuck = 0;
        self.offset = start + valid_end as u64;
        for (_, entry) in entries {
            if entry.seq >= self.next_seq {
                self.pending.entry(entry.seq).or_insert(entry.ops);
            }
        }
        Ok(())
    }

    /// Returns every not-yet-shipped record with `seq <= upto`, in
    /// sequence order, and advances the cursor past them. Stops at a
    /// sequence gap (ships only the contiguous prefix): a cursor must
    /// never invent order it didn't observe, and a gap below `upto` is
    /// how records truncated behind an image show up.
    pub fn poll(&mut self, upto: u64) -> SnbResult<Vec<WalEntry>> {
        self.scan()?;
        // Anything below the ship frontier is already delivered (a
        // rescan re-read it); drop it so `pending` stays bounded by the
        // unshipped window.
        while let Some((&seq, _)) = self.pending.first_key_value() {
            if seq >= self.next_seq {
                break;
            }
            self.pending.remove(&seq);
        }

        let mut out = Vec::new();
        while self.next_seq <= upto {
            let Some(ops) = self.pending.remove(&self.next_seq) else {
                break; // gap (or not yet written): ship the prefix only
            };
            out.push(WalEntry { seq: self.next_seq, ops });
            self.next_seq += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{image_info, write_image, IMAGE_FILE};
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

        fn fingerprint(mut self) -> String {
            if !self.store.date_index_fresh() {
                self.store.rebuild_date_index();
            }
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
    fn install_image_refuses_an_image_older_than_the_log() {
        let cfg = config();
        let all: Vec<WriteOps> = batches(2).into_iter().take(2).collect();
        let src = tmp_dir("stale_src");
        std::fs::create_dir_all(&src).unwrap();
        let mut oracle = Oracle::new();
        oracle.apply(&all[0]);
        write_image(&src, SCALE, cfg.seed, 0, 1, 1, &oracle.store).unwrap();
        let image_at_1 = crate::image::read_image_bytes(&src).unwrap();

        let dir = tmp_dir("stale_dst");
        let mut wal = open(&dir, WalOptions::default());
        for (i, ops) in all.iter().enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        assert!(wal.install_image(&image_at_1).is_err(), "seq 1 image behind a log at seq 2");
        assert!(!dir.join(IMAGE_FILE).exists(), "a refused image must not land");
        drop(wal);
        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!((rec.report.image_seq, rec.report.last_seq), (0, 2), "the log is intact");

        // At or past the log's sequence the same call installs.
        let mut wal = rec.wal;
        oracle.apply(&all[1]);
        write_image(&src, SCALE, cfg.seed, 0, 2, 1, &oracle.store).unwrap();
        let (_, header) =
            wal.install_image(&crate::image::read_image_bytes(&src).unwrap()).unwrap();
        assert_eq!((header.seq, wal.last_seq()), (2, 2));
        drop(wal);
        let rec = recover(&dir, &cfg, SCALE, WalOptions::default()).unwrap();
        assert_eq!((rec.report.image_seq, rec.report.wal_entries), (2, 0));
        let _ = std::fs::remove_dir_all(&src);
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
            let mut bytes = log_header(SCALE, cfg.seed, 0);
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
            for v in [cfg.seed, 0, 1] {
                put_u64(&mut img, v); // seed, epoch, seq
            }
            put_u32(&mut img, shards);
            put_u64(&mut img, body.len() as u64);
            put_u64(&mut img, fnv64(&body));
            let sum = fnv64(&img);
            put_u64(&mut img, sum);
            img.extend_from_slice(&body);
            img
        };
        assert!(crate::image::peek_header(&image(1), SCALE, cfg.seed).is_ok(), "well-formed bytes");
        let dir2 = tmp_dir("sharded_image");
        std::fs::create_dir_all(&dir2).unwrap();
        std::fs::write(dir2.join(IMAGE_FILE), image(2)).unwrap();
        let mut log = log_header(SCALE, cfg.seed, 0);
        log.extend_from_slice(&encode_record(2, &all[1]));
        log.extend_from_slice(&[9, 9, 9]);
        std::fs::write(dir2.join(WAL_FILE), log).unwrap();
        let before = dir_bytes(&dir2);
        named(recover(&dir2, &cfg, SCALE, WalOptions::default()).err().unwrap(), IMAGE_FILE);
        named(crate::image::load_image(&dir2, SCALE, cfg.seed).err().unwrap(), IMAGE_FILE);
        named(crate::image::peek_header(&image(2), SCALE, cfg.seed).unwrap_err(), "image");
        assert_eq!(dir_bytes(&dir2), before, "nothing may be truncated or replaced");

        // A follower offered that image refuses it before anything lands.
        let dst = tmp_dir("sharded_install");
        let mut wal = open(&dst, WalOptions::default());
        assert!(wal.install_image(&image(2)).is_err());
        assert!(!dst.join(IMAGE_FILE).exists(), "a refused image must not land");
        for d in [&dir, &dir2, &dst] {
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
    fn tailer_ships_contiguously_across_compaction() {
        let cfg = config();
        let dir = tmp_dir("tailer");
        let all = batches(6);
        let n = all.len() as u64;
        let compact_at = 3u64;
        let mut wal = open(&dir, WalOptions::default());
        let mut live = Oracle::new();
        let mut tailer = WalTailer::new(&dir, SCALE, cfg.seed, 0);

        // Nothing acked yet: nothing ships.
        assert!(tailer.poll(0).unwrap().is_empty());

        // A cursor that has read a record before compaction truncates
        // it keeps shipping in order across the truncation.
        let mut shipped: Vec<u64> = Vec::new();
        for (i, ops) in all.iter().enumerate() {
            let seq = i as u64 + 1;
            wal.append(seq, ops).unwrap();
            live.apply(ops);
            shipped.extend(tailer.poll(wal.last_seq()).unwrap().iter().map(|r| r.seq));
            if seq == compact_at {
                wal.compact(&live.store).unwrap();
            }
        }
        assert_eq!(shipped, (1..=n).collect::<Vec<_>>());

        // A cursor behind the compaction point gets nothing: the log no
        // longer reaches back past the image, and `next_seq` at or
        // below the image's sequence is the caller's cue to offer it.
        let image_seq = image_info(&dir, SCALE, cfg.seed).unwrap().expect("image").seq;
        assert_eq!(image_seq, compact_at);
        let mut lapped = WalTailer::new(&dir, SCALE, cfg.seed, 0);
        assert!(lapped.poll(wal.last_seq()).unwrap().is_empty());
        assert!(lapped.next_seq() <= image_seq);

        // From the image's sequence the tail ships, and `upto` bounds
        // it: a cursor asked for less ships less, then resumes exactly
        // where it stopped.
        let mut bounded = WalTailer::new(&dir, SCALE, cfg.seed, image_seq);
        let first: Vec<u64> = bounded.poll(image_seq + 2).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(first, vec![image_seq + 1, image_seq + 2]);
        assert_eq!(bounded.next_seq(), image_seq + 3);
        let rest: Vec<u64> = bounded.poll(wal.last_seq()).unwrap().iter().map(|r| r.seq).collect();
        assert_eq!(rest, (image_seq + 3..=n).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailer_idle_polls_read_zero_bytes() {
        let cfg = config();
        let dir = tmp_dir("tailcost");
        let all = batches(6);
        let mut wal = open(&dir, WalOptions::default());
        let mut tailer = WalTailer::new(&dir, SCALE, cfg.seed, 0);

        for (i, ops) in all.iter().take(5).enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
        }
        let shipped = tailer.poll(wal.last_seq()).unwrap();
        assert_eq!(shipped.len(), 5);
        let after_catchup = tailer.bytes_scanned();
        assert!(after_catchup > 0);

        // Idle polls re-stat the files but must not re-read history.
        for _ in 0..100 {
            assert!(tailer.poll(wal.last_seq()).unwrap().is_empty());
        }
        assert_eq!(
            tailer.bytes_scanned(),
            after_catchup,
            "idle polls must be O(stat), not O(history)"
        );

        // One more append: the poll reads exactly the file growth.
        let size = || std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let before = size();
        wal.append(6, &all[5]).unwrap();
        let grew = size() - before;
        assert_eq!(tailer.poll(wal.last_seq()).unwrap().len(), 1);
        assert_eq!(
            tailer.bytes_scanned() - after_catchup,
            grew,
            "an active poll reads only the appended bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bumped_epoch_survives_recovery_and_compaction() {
        let cfg = config();
        let dir = tmp_dir("epoch");
        let all = batches(6);
        let opts = WalOptions { snapshot_every: 3 };
        let mut wal = open(&dir, opts);
        let mut live = Oracle::new();
        assert_eq!(wal.epoch(), 0);
        for (i, ops) in all.iter().take(2).enumerate() {
            wal.append(i as u64 + 1, ops).unwrap();
            live.apply(ops);
        }
        // Promotion: bump in place, with records already in the log.
        wal.bump_epoch(3).unwrap();
        assert_eq!(wal.epoch(), 3);
        wal.bump_epoch(1).unwrap(); // stale bump is a no-op
        assert_eq!(wal.epoch(), 3);
        drop(wal); // crash, no graceful shutdown

        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.epoch, 3, "bumped epoch survives restart");
        assert_eq!(rec.report.last_seq, 2, "records survive the bump");
        let mut wal = rec.wal;
        assert_eq!(wal.epoch(), 3);

        // Compaction truncates the log; the term rides both the image
        // and the log header across it.
        let mut compactions = 0;
        for (i, ops) in all.iter().enumerate().skip(2) {
            wal.append(i as u64 + 1, ops).unwrap();
            live.apply(ops);
            if wal.compaction_due() {
                wal.compact(&live.store).unwrap();
                compactions += 1;
            }
        }
        assert!(compactions >= 1, "snapshot_every=3 never compacted");
        drop(wal);
        assert_eq!(image_info(&dir, SCALE, cfg.seed).unwrap().expect("image").epoch, 3);
        let header = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(read_header(&mut Reader::new(&header), SCALE, cfg.seed), Ok(3));

        let rec = recover(&dir, &cfg, SCALE, opts).unwrap();
        assert_eq!(rec.report.last_seq, all.len() as u64);
        let (_, durability, report) = rec.into_durability();
        assert_eq!(durability.epoch, 3);
        assert_eq!(report.epoch, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
