//! Store images: the compaction artifact, the recovery starting point
//! and the follower bootstrap payload.
//!
//! A **store image** (`store.img`) is the full [`Store`] serialised
//! through [`snb_store::image`]'s checksummed codec at a known write
//! sequence number. It is the only thing WAL compaction produces
//! ([`crate::wal::SegmentedWal::compact`] writes one and truncates the
//! log behind it), so a WAL directory holds the log and at most one
//! image. Recovery that finds an image decodes it and replays only the
//! log records written after `seq` — cost bounded
//! by live-data size plus tail length, flat in history. The same file
//! is what a follower whose cursor is at or below `seq` is offered over
//! the replication socket ([`crate::proto::ReplFrame::ImageOffer`]):
//! the log no longer holds those records, so the image is the only
//! way to catch such a follower up.
//!
//! ## File format
//!
//! Every field goes through [`snb_core::bytes`]:
//!
//! ```text
//! [8B magic "SNBIMG1\n"][u16 scale_len][scale][u64 seed][u64 epoch]
//! [u64 seq][u32 shards = 1][u64 body_len][u64 fnv64(body)]
//! [u64 fnv64(header bytes above)][body = snb_store::image payload]
//! ```
//!
//! Scale and seed bind the image to its dataset exactly like the WAL
//! header does; `seq` is the write sequence the image captures; `epoch`
//! the fencing term it was written under. The `u32` is always 1: older
//! builds recorded how many shards their log was split across there,
//! and an image with any other value is refused with an error naming
//! the file, since the log it belongs beside is one this build cannot
//! read.
//!
//! ## Crash safety
//!
//! Images are written temp + fsync + rename, so `store.img` is always
//! either the previous complete image or the new complete image. The
//! rename is durable only once the directory is fsynced (`sync_dir`);
//! whoever truncates log records behind a new image does that first.
//! Any header/body checksum mismatch or truncation is a **hard error**:
//! the log behind an image no longer holds the history it covers,
//! so a directory with a corrupt image refuses to recover rather than
//! silently starting from the bulk store. A leftover `store.img.tmp`
//! (crash mid-write) is ignored and overwritten by the next write.
//!
//! Fault point: `image.write.torn` (partial temp write, no rename).

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use snb_core::bytes::{fnv64, put_str, put_u32, put_u64, Malformed, Reader};
use snb_core::{SnbError, SnbResult};
use snb_store::{decode_store, encode_store, Store};

/// Magic prefix of `store.img`.
pub const IMAGE_MAGIC: &[u8; 8] = b"SNBIMG1\n";
/// The store-image file name inside a WAL directory.
pub const IMAGE_FILE: &str = "store.img";
const IMAGE_TMP: &str = "store.img.tmp";

/// The image header: everything recovery and the replication offer need
/// without decoding the body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHeader {
    /// Fencing epoch the image was written under.
    pub epoch: u64,
    /// Write sequence number the image captures (recovery replays the
    /// WAL strictly after this).
    pub seq: u64,
    /// Body (codec payload) length in bytes.
    pub body_len: u64,
    /// FNV-1a of the body.
    pub body_fnv: u64,
}

fn encode_header(scale: &str, seed: u64, h: &ImageHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + scale.len());
    out.extend_from_slice(IMAGE_MAGIC);
    put_str(&mut out, scale);
    put_u64(&mut out, seed);
    put_u64(&mut out, h.epoch);
    put_u64(&mut out, h.seq);
    put_u32(&mut out, 1);
    put_u64(&mut out, h.body_len);
    put_u64(&mut out, h.body_fnv);
    let sum = fnv64(&out);
    put_u64(&mut out, sum);
    out
}

/// Parses and verifies the header, returning it and the bytes after it
/// (the body). Every mismatch — magic, scale, seed, checksum,
/// truncation, a shard count other than 1 — is a hard error.
fn decode_header<'a>(
    bytes: &'a [u8],
    scale: &str,
    seed: u64,
) -> Result<(ImageHeader, &'a [u8]), Malformed> {
    let mut r = Reader::new(bytes);
    if r.take(IMAGE_MAGIC.len()).ok() != Some(IMAGE_MAGIC) {
        return Err(Malformed("bad magic (not a store image)".into()));
    }
    let got_scale = r.str()?;
    if got_scale != scale {
        return Err(Malformed(format!("scale mismatch: image {got_scale:?}, store {scale:?}")));
    }
    let got_seed = r.u64()?;
    let epoch = r.u64()?;
    let seq = r.u64()?;
    let shards = r.u32()?;
    let body_len = r.u64()?;
    let body_fnv = r.u64()?;
    let summed = fnv64(&bytes[..r.pos()]);
    if r.u64()? != summed {
        return Err(Malformed("header checksum mismatch".into()));
    }
    if got_seed != seed {
        return Err(Malformed(format!("seed mismatch: image {got_seed}, store {seed}")));
    }
    if shards != 1 {
        return Err(Malformed(format!(
            "image belongs beside a log split across {shards} shards by an older build"
        )));
    }
    Ok((ImageHeader { epoch, seq, body_len, body_fnv }, &bytes[r.pos()..]))
}

/// Atomically writes `store.img` under `dir` capturing `store` at
/// (`seq`, `epoch`). Returns the file size in bytes. Crash-safe: the
/// image lands via temp + fsync + rename, so a SIGKILL at any point
/// leaves either the previous image or the new one, never a torn file.
/// Call `sync_dir` before relying on the new image over the old one.
/// `partitions` must be 1; anything else is refused before a byte is
/// written.
pub fn write_image(
    dir: &Path,
    scale: &str,
    seed: u64,
    epoch: u64,
    seq: u64,
    // Kept only because the frozen `benchmark/` package passes it.
    partitions: usize,
    store: &Store,
) -> SnbResult<u64> {
    if partitions != 1 {
        return Err(SnbError::Config(format!(
            "write_image takes a shard count of 1, got {partitions}"
        )));
    }
    let body = encode_store(store);
    let header = encode_header(
        scale,
        seed,
        &ImageHeader { epoch, seq, body_len: body.len() as u64, body_fnv: fnv64(&body) },
    );
    let tmp_path = dir.join(IMAGE_TMP);
    let final_path = dir.join(IMAGE_FILE);
    let mut tmp = File::create(&tmp_path)?;
    if let Some(fault) = snb_fault::check("image.write.torn") {
        // Simulate a crash mid-write: part of the temp file hits disk,
        // the rename never runs. `store.img` (previous image or absent)
        // is untouched — recovery must fall back to it plus the WAL.
        let n = fault.short_write.unwrap_or(header.len() + body.len() / 2);
        let mut torn = header.clone();
        torn.extend_from_slice(&body);
        torn.truncate(n.min(torn.len()));
        tmp.write_all(&torn)?;
        let _ = tmp.sync_data();
        fault.trip("image.write.torn");
        return Err(SnbError::Io(std::io::Error::other(
            "injected torn image write (temp file abandoned, previous image intact)",
        )));
    }
    tmp.write_all(&header)?;
    tmp.write_all(&body)?;
    tmp.sync_data()?;
    drop(tmp);
    std::fs::rename(&tmp_path, &final_path)?;
    Ok((header.len() + body.len()) as u64)
}

/// Fsyncs the directory itself, making a rename inside it durable: until
/// then a power loss may bring back the directory entry the rename
/// replaced.
pub(crate) fn sync_dir(dir: &Path) -> SnbResult<()> {
    // Only Unix lets a directory be opened and fsynced as a file.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Reads only the header of `dir`'s image. `Ok(None)` when no image
/// exists; a present-but-corrupt header is a hard error.
pub fn image_info(dir: &Path, scale: &str, seed: u64) -> SnbResult<Option<ImageHeader>> {
    let path = dir.join(IMAGE_FILE);
    if !path.exists() {
        return Ok(None);
    }
    // Headers are tiny; reading the whole file header-first would cost
    // the body too, so read a bounded prefix.
    let mut buf = Vec::new();
    File::open(&path)?.take(128 + scale.len() as u64).read_to_end(&mut buf)?;
    decode_header(&buf, scale, seed).map(|(h, _)| Some(h)).map_err(|e| e.at(path.display()))
}

/// Reads the raw bytes of `dir`'s image file (the replication shipping
/// path sends these verbatim). Hard error if absent.
pub fn read_image_bytes(dir: &Path) -> SnbResult<Vec<u8>> {
    Ok(std::fs::read(dir.join(IMAGE_FILE))?)
}

/// Parses and world-checks just the header of an in-memory image blob.
/// The shipping path uses this to stamp the offer from the very bytes
/// it is about to send — the on-disk file can be superseded (atomic
/// rename) between a stat and a read, so the bytes are the truth.
pub fn peek_header(bytes: &[u8], scale: &str, seed: u64) -> SnbResult<ImageHeader> {
    decode_header(bytes, scale, seed).map(|(h, _)| h).map_err(|e| e.at("<shipped image>"))
}

/// Verifies and decodes a complete image byte buffer (a local file or a
/// shipped bootstrap blob) into a store plus its header.
pub fn decode_image(
    bytes: &[u8],
    scale: &str,
    seed: u64,
    path: &Path,
) -> SnbResult<(Store, ImageHeader)> {
    let (header, body) = decode_header(bytes, scale, seed)
        .and_then(|(header, body)| {
            let (got, want) = (body.len(), header.body_len);
            if got as u64 != want {
                return Err(Malformed(format!("body length {got} != header {want}")));
            }
            if fnv64(body) != header.body_fnv {
                return Err(Malformed("body checksum mismatch".into()));
            }
            Ok((header, body))
        })
        .map_err(|e| e.at(path.display()))?;
    Ok((decode_store(body)?, header))
}

/// Loads and decodes `dir`'s image. `Ok(None)` when absent; any
/// corruption is a hard error — recovery refuses to guess.
pub fn load_image(dir: &Path, scale: &str, seed: u64) -> SnbResult<Option<(Store, ImageHeader)>> {
    let path = dir.join(IMAGE_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let bytes = std::fs::read(&path)?;
    decode_image(&bytes, scale, seed, &path).map(Some)
}

/// Persists a shipped image blob into `dir` (atomic, like
/// [`write_image`], and like it not durable until `sync_dir`) after
/// verifying it decodes to a store that passes
/// [`Store::validate_invariants`] — the follower bootstrap landing step,
/// so a checksummed but inconsistent store is neither landed nor
/// published. Returns the decoded store and header.
pub fn install_image_bytes(
    dir: &Path,
    scale: &str,
    seed: u64,
    bytes: &[u8],
) -> SnbResult<(Store, ImageHeader)> {
    let final_path = dir.join(IMAGE_FILE);
    let (store, header) = decode_image(bytes, scale, seed, &final_path)?;
    store.validate_invariants()?;
    std::fs::create_dir_all(dir)?;
    let tmp_path = dir.join(IMAGE_TMP);
    let mut tmp = File::create(&tmp_path)?;
    tmp.write_all(bytes)?;
    tmp.sync_data()?;
    drop(tmp);
    std::fs::rename(&tmp_path, &final_path)?;
    Ok((store, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::GeneratorConfig;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("snb-image-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_store() -> Store {
        let mut c = GeneratorConfig::for_scale_name("0.001").expect("scale");
        c.persons = 50;
        snb_store::store_for_config(&c)
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let store = small_store();
        let bytes = write_image(&dir, "0.001", 7, 3, 42, 1, &store).unwrap();
        assert!(bytes > 0);
        let info = image_info(&dir, "0.001", 7).unwrap().expect("image present");
        assert_eq!(info.seq, 42);
        assert_eq!(info.epoch, 3);
        let (loaded, header) = load_image(&dir, "0.001", 7).unwrap().expect("image present");
        assert_eq!(header, info);
        assert_eq!(encode_store(&loaded), encode_store(&store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_image_refuses_a_shard_count_other_than_one() {
        let dir = tmp_dir("shards");
        let refused = write_image(&dir, "0.001", 7, 0, 1, 2, &small_store());
        assert!(matches!(refused, Err(SnbError::Config(_))), "{refused:?}");
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "nothing may be written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_image_is_none_not_error() {
        let dir = tmp_dir("absent");
        assert!(image_info(&dir, "0.001", 7).unwrap().is_none());
        assert!(load_image(&dir, "0.001", 7).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_and_seed_mismatch_are_refused() {
        let dir = tmp_dir("mismatch");
        write_image(&dir, "0.001", 7, 0, 1, 1, &small_store()).unwrap();
        assert!(load_image(&dir, "0.003", 7).is_err(), "scale mismatch must refuse");
        assert!(load_image(&dir, "0.001", 8).is_err(), "seed mismatch must refuse");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_is_a_hard_error() {
        // Mirrors the WAL torn-tail suite: flipped bytes anywhere in the
        // file (header, checksums, body) must refuse to load, and
        // truncation at any boundary must refuse to load.
        let dir = tmp_dir("corrupt");
        write_image(&dir, "0.001", 7, 0, 9, 1, &small_store()).unwrap();
        let path = dir.join(IMAGE_FILE);
        let good = std::fs::read(&path).unwrap();
        for pos in (0..good.len()).step_by(good.len() / 61 + 1) {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load_image(&dir, "0.001", 7).is_err(),
                "flipped byte at {pos}/{} must be refused",
                good.len()
            );
        }
        for cut in [0, 7, 40, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(load_image(&dir, "0.001", 7).is_err(), "truncation at {cut} must be refused");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_bytes_verifies_before_landing() {
        let dir = tmp_dir("install-src");
        let dst = tmp_dir("install-dst");
        let store = small_store();
        write_image(&dir, "0.001", 7, 2, 11, 1, &store).unwrap();
        let bytes = read_image_bytes(&dir).unwrap();
        let (installed, header) = install_image_bytes(&dst, "0.001", 7, &bytes).unwrap();
        assert_eq!(header.seq, 11);
        assert_eq!(encode_store(&installed), encode_store(&store));
        assert!(dst.join(IMAGE_FILE).exists(), "blob must be persisted");
        // A corrupted blob never lands on disk.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        let before = std::fs::read(dst.join(IMAGE_FILE)).unwrap();
        assert!(install_image_bytes(&dst, "0.001", 7, &bad).is_err());
        assert_eq!(
            std::fs::read(dst.join(IMAGE_FILE)).unwrap(),
            before,
            "corrupt blob must not land"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dst);
    }
}
