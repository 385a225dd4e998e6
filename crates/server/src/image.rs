//! Store images: the compaction artifact and the recovery starting
//! point.
//!
//! A **store image** (`store.img`) is the full [`Store`] serialised
//! through [`snb_store::image`]'s checksummed codec at a known write
//! sequence number. It is the only thing WAL compaction produces
//! ([`crate::wal::SegmentedWal::compact`] writes one and truncates the
//! log behind it), so a WAL directory holds the log and at most one
//! image. Recovery that finds an image decodes it and replays only the
//! log records written after `seq` — cost bounded
//! by live-data size plus tail length, flat in history.
//!
//! ## File format
//!
//! Every field goes through [`snb_core::bytes`]:
//!
//! ```text
//! [8B magic "SNBIMG2\n"][scale (put_str)][u64 seed][u64 seq]
//! [u32 shards = 1][u64 body_len][u64 fnv64(body)]
//! [u64 fnv64(header bytes above)][body = snb_store::image payload]
//! ```
//!
//! Scale and seed bind the image to its dataset exactly like the WAL
//! header does; `seq` is the write sequence the image captures. An
//! image in format version 1 (`SNBIMG1\n`, which also carried a `u64`
//! fencing epoch before `seq`) is refused with an error naming the
//! version. The `u32` is always 1: older
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
pub const IMAGE_MAGIC: &[u8; 8] = b"SNBIMG2\n";
/// The store-image file name inside a WAL directory.
pub const IMAGE_FILE: &str = "store.img";
const IMAGE_TMP: &str = "store.img.tmp";

/// The image header: everything recovery needs without decoding the
/// body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHeader {
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
    put_u64(&mut out, h.seq);
    put_u32(&mut out, 1);
    put_u64(&mut out, h.body_len);
    put_u64(&mut out, h.body_fnv);
    let sum = fnv64(&out);
    put_u64(&mut out, sum);
    out
}

/// Reads the 8-byte magic of a format whose version is its seventh byte
/// (`SNBWAL2\n`, `SNBIMG2\n`). The same magic at another version is
/// refused with an error naming that version, anything else as not a
/// `what` at all.
pub(crate) fn read_magic(r: &mut Reader<'_>, want: &[u8; 8], what: &str) -> Result<(), Malformed> {
    let got = r.take(want.len()).unwrap_or_default();
    if got == want {
        return Ok(());
    }
    if got.len() == want.len() && got[..6] == want[..6] && got[7] == want[7] {
        let (got, want) = (char::from(got[6]), char::from(want[6]));
        return Err(Malformed(format!(
            "{what} format version {got}; this build reads version {want} only, \
             so recover the directory with the build that wrote it"
        )));
    }
    Err(Malformed(format!("bad or missing magic (not a {what})")))
}

/// Parses and verifies the header, returning it and the bytes after it
/// (the body). Every mismatch — magic and format version, scale, seed,
/// checksum, truncation, a shard count other than 1 — is a hard error.
fn decode_header<'a>(
    bytes: &'a [u8],
    scale: &str,
    seed: u64,
) -> Result<(ImageHeader, &'a [u8]), Malformed> {
    let mut r = Reader::new(bytes);
    read_magic(&mut r, IMAGE_MAGIC, "store image")?;
    let got_scale = r.str()?;
    if got_scale != scale {
        return Err(Malformed(format!("scale mismatch: image {got_scale:?}, store {scale:?}")));
    }
    let got_seed = r.u64()?;
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
    Ok((ImageHeader { seq, body_len, body_fnv }, &bytes[r.pos()..]))
}

/// Atomically writes `store.img` under `dir` capturing `store` at
/// `seq`. Returns the file size in bytes. Crash-safe: the image lands
/// via temp + fsync + rename, so a SIGKILL at any point leaves either
/// the previous image or the new one, never a torn file. Call
/// `sync_dir` before relying on the new image over the old one.
/// `epoch` must be 0 and `partitions` 1; anything else is refused
/// before a byte is written.
pub fn write_image(
    dir: &Path,
    scale: &str,
    seed: u64,
    // `epoch` and `partitions` are kept only because the frozen
    // `benchmark/` package passes them.
    epoch: u64,
    seq: u64,
    partitions: usize,
    store: &Store,
) -> SnbResult<u64> {
    if epoch != 0 || partitions != 1 {
        return Err(SnbError::Config(format!(
            "write_image takes epoch 0 and shard count 1, got {epoch} and {partitions}"
        )));
    }
    let body = encode_store(store);
    let header = encode_header(
        scale,
        seed,
        &ImageHeader { seq, body_len: body.len() as u64, body_fnv: fnv64(&body) },
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

/// Verifies and decodes a complete image file's bytes into a store
/// plus its header.
pub(crate) fn decode_image(
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
        let bytes = write_image(&dir, "0.001", 7, 0, 42, 1, &store).unwrap();
        assert!(bytes > 0);
        let info = image_info(&dir, "0.001", 7).unwrap().expect("image present");
        assert_eq!(info.seq, 42);
        let (loaded, header) = load_image(&dir, "0.001", 7).unwrap().expect("image present");
        assert_eq!(header, info);
        assert_eq!(encode_store(&loaded), encode_store(&store));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_image_refuses_a_shard_count_other_than_one() {
        let dir = tmp_dir("shards");
        // A non-zero epoch is refused the same way.
        for (epoch, shards) in [(0, 2), (3, 1)] {
            let refused = write_image(&dir, "0.001", 7, epoch, 1, shards, &small_store());
            assert!(matches!(refused, Err(SnbError::Config(_))), "{refused:?}");
        }
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
}
