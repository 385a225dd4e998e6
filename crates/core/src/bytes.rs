//! The one byte codec: every wire and durable format of the workspace —
//! client frames, update events, WAL records, the store-image header
//! and the store image — writes and reads its integers, lengths and
//! checksums here, and nowhere else.
//!
//! Fixed-width integers are little-endian. A string is UTF-8 behind a
//! short length ([`put_str`]: a `u16`, or `0xFFFF` and a `u32` from
//! 65 535 bytes on) or a LEB128 varint length ([`put_varint_str`]); a
//! string list is a short count and the strings ([`put_strs`]). Nothing
//! is ever cut to fit a length field. A delta run stores each value as the zigzag varint
//! of its difference from the previous one ([`put_deltas`]). A checked
//! frame is `[u32 len][u64 xxh64(body)][body]` ([`put_checked`]).
//!
//! **The count rule** ([`Reader::count`]): a count read from a buffer
//! is refused unless that many elements fit in the bytes left, so a
//! hostile count fails as [`Malformed`] before anything is sized from
//! it; the readers that allocate for a count apply the rule themselves.

use crate::SnbError;

/// What was wrong with a buffer: truncated, a checksum mismatch, a
/// count too large for the bytes left, trailing bytes, or a value the
/// format gives no meaning. Each format adds its context (a correlation
/// id, a file path) once, at its top-level decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Malformed(pub String);

impl Malformed {
    /// This failure as a [`SnbError::Parse`] in `context`.
    pub fn at(self, context: impl std::fmt::Display) -> SnbError {
        SnbError::parse(context.to_string(), self.0)
    }
}

/// FNV-1a 64, byte at a time. It pins answers, bindings and wire bytes
/// in tests; no durable format uses it.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

#[inline(always)]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

#[inline(always)]
fn xxh_merge(h: u64, lane: u64) -> u64 {
    (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 with seed 0: the checksum of every checked frame (WAL records,
/// store-image frames) and of the store-image header. Four lanes of
/// 64-bit multiply-rotate over 32-byte stripes, then the length and the
/// last bytes mixed in and a final avalanche: word at a time, near
/// memory speed.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut rest = stripes.remainder();
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word))).rotate_left(27);
        h = h.wrapping_mul(P1).wrapping_add(P4);
        rest = tail;
    }
    if let Some((word, tail)) = rest.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1)).rotate_left(23);
        h = h.wrapping_mul(P2).wrapping_add(P3);
        rest = tail;
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Appends one byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Defines each fixed-width integer's writer and [`Reader`] getter
/// together, so the two cannot disagree on its layout.
macro_rules! fixed_width {
    ($($put:ident, $get:ident: $t:ty;)*) => {
        $(
            #[doc = concat!("Appends a little-endian `", stringify!($t), "`.")]
            #[inline]
            pub fn $put(buf: &mut Vec<u8>, v: $t) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        )*
        impl Reader<'_> {
            $(
                #[doc = concat!("A little-endian `", stringify!($t), "`.")]
                #[inline]
                pub fn $get(&mut self) -> Result<$t, Malformed> {
                    Ok(<$t>::from_le_bytes(self.array()?))
                }
            )*
        }
    };
}

fixed_width! {
    put_u16, u16: u16;
    put_u32, u32: u32;
    put_i32, i32: i32;
    put_u64, u64: u64;
    put_i64, i64: i64;
}

/// Appends a short length: a `u16` below `0xFFFF`, else `0xFFFF` and a
/// `u32`. Panics at 4 Gi or more.
#[inline]
fn put_short_len(buf: &mut Vec<u8>, n: usize) {
    if n < usize::from(u16::MAX) {
        put_u16(buf, n as u16);
    } else {
        put_u16(buf, u16::MAX);
        put_u32(buf, u32::try_from(n).expect("a short length is under 4 Gi"));
    }
}

/// Appends a short byte length + the UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_short_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a short count + that many [`put_str`]s.
pub fn put_strs(buf: &mut Vec<u8>, ss: &[String]) {
    put_short_len(buf, ss.len());
    for s in ss {
        put_str(buf, s);
    }
}

/// Appends an unsigned LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a varint byte length + the UTF-8 bytes.
#[inline]
pub fn put_varint_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a delta run of `values` (the count is not written).
pub fn put_deltas(buf: &mut Vec<u8>, values: impl IntoIterator<Item = i64>) {
    let mut prev = 0i64;
    for v in values {
        let delta = v.wrapping_sub(prev);
        put_varint(buf, ((delta << 1) ^ (delta >> 63)) as u64);
        prev = v;
    }
}

/// The `[u32 len][u64 xxh64(body)]` head of a checked frame holding
/// `body`, for a writer that sends the body on its own. Panics if `body`
/// is 4 GiB or longer.
pub fn checked_head(body: &[u8]) -> [u8; 12] {
    let len = u32::try_from(body.len()).expect("a checked frame body is under 4 GiB");
    let mut head = [0; 12];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&xxh64(body).to_le_bytes());
    head
}

/// Appends a checked frame: `[u32 len][u64 xxh64(body)][body]`. Panics
/// if `body` is 4 GiB or longer.
pub fn put_checked(buf: &mut Vec<u8>, body: &[u8]) {
    buf.extend_from_slice(&checked_head(body));
    buf.extend_from_slice(body);
}

/// A bounds-checked read cursor over a buffer. Every getter either
/// returns a value and moves past it, or fails with [`Malformed`].
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    /// The whole buffer's length, for [`Reader::pos`].
    len: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf, len: buf.len() }
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        if n > self.rest.len() {
            return Err(self.truncated(n));
        }
        let (out, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(out)
    }

    #[cold]
    fn truncated(&self, n: usize) -> Malformed {
        let (at, left) = (self.pos(), self.remaining());
        Malformed(format!("truncated: need {n} bytes at offset {at}, have {left}"))
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        let Some((out, rest)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.rest = rest;
        Ok(*out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.array::<1>()?[0])
    }

    /// An unsigned LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, Malformed> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let Some((&byte, rest)) = self.rest.split_first() else {
                return Err(Malformed("truncated varint".into()));
            };
            self.rest = rest;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Malformed("varint longer than 64 bits".into()))
    }

    fn utf8(bytes: &'a [u8]) -> Result<&'a str, Malformed> {
        std::str::from_utf8(bytes).map_err(|_| Malformed("invalid UTF-8 in string".into()))
    }

    /// A short length or count ([`put_str`], [`put_strs`]) that passes
    /// the count rule for elements of at least `each` bytes.
    #[inline]
    fn short_len(&mut self, each: usize) -> Result<usize, Malformed> {
        let n = match self.u16()? {
            u16::MAX => u64::from(self.u32()?),
            n => u64::from(n),
        };
        self.count(n, each)
    }

    /// A [`put_str`] string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, Malformed> {
        let n = self.short_len(1)?;
        Self::utf8(self.take(n)?)
    }

    /// A [`put_str`] string, owned.
    #[inline]
    pub fn string(&mut self) -> Result<String, Malformed> {
        self.str().map(str::to_owned)
    }

    /// A [`put_strs`] list.
    pub fn strings(&mut self) -> Result<Vec<String>, Malformed> {
        let n = self.short_len(2)?;
        self.many(n, 2, Reader::string)
    }

    /// A [`put_varint_str`] string.
    #[inline]
    pub fn varint_str(&mut self) -> Result<&'a str, Malformed> {
        let n = self.varint()?;
        Self::utf8(self.take(usize::try_from(n).unwrap_or(usize::MAX))?)
    }

    /// The count rule: `n` passes if `n` elements of at least `each >= 1`
    /// bytes fit in the bytes left.
    #[inline]
    pub fn count(&self, n: u64, each: usize) -> Result<usize, Malformed> {
        let left = self.remaining() as u64;
        match n.checked_mul(each as u64) {
            Some(need) if need <= left => Ok(n as usize),
            _ => Err(Malformed(format!("count {n} of {each}-byte elements exceeds {left} bytes"))),
        }
    }

    /// A varint count that passes the count rule.
    #[inline]
    pub fn varint_count(&mut self, each: usize) -> Result<usize, Malformed> {
        let n = self.varint()?;
        self.count(n, each)
    }

    /// Appends `n` elements read by `read` to `out`, reserving room for
    /// them once `n` has passed the count rule.
    pub fn read_into<T>(
        &mut self,
        out: &mut Vec<T>,
        n: usize,
        each: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, Malformed>,
    ) -> Result<(), Malformed> {
        out.reserve_exact(self.count(n as u64, each)?);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(())
    }

    /// `n` elements read by `read` (see [`Reader::read_into`]).
    #[inline]
    pub fn many<T>(
        &mut self,
        n: usize,
        each: usize,
        read: impl FnMut(&mut Self) -> Result<T, Malformed>,
    ) -> Result<Vec<T>, Malformed> {
        let mut out = Vec::new();
        self.read_into(&mut out, n, each, read)?;
        Ok(out)
    }

    /// Hands each value of a [`put_deltas`] run of `n` values to `each`,
    /// in order, so a caller stores them in a collection of its own.
    pub fn each_delta(
        &mut self,
        n: usize,
        mut each: impl FnMut(i64) -> Result<(), Malformed>,
    ) -> Result<(), Malformed> {
        self.count(n as u64, 1)?;
        let mut prev = 0i64;
        for _ in 0..n {
            let v = self.varint()?;
            prev = prev.wrapping_add(((v >> 1) as i64) ^ -((v & 1) as i64));
            each(prev)?;
        }
        Ok(())
    }

    /// A [`put_checked`] frame's body, once the length fits and the
    /// checksum matches. On failure the cursor does not move.
    pub fn checked(&mut self) -> Result<Reader<'a>, Malformed> {
        let mut r = self.clone();
        let len = r.u32()?;
        let sum = r.u64()?;
        let body = r.take(len as usize)?;
        if xxh64(body) != sum {
            return Err(Malformed("checksum mismatch".into()));
        }
        *self = r;
        Ok(Reader::new(body))
    }

    /// Fails unless every byte was read.
    #[inline]
    pub fn finish(&self) -> Result<(), Malformed> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Malformed(format!("{n} trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A delta run of `n` values read from the start of `bytes`.
    fn deltas(bytes: &[u8], n: usize) -> Result<Vec<i64>, Malformed> {
        let mut out = Vec::new();
        Reader::new(bytes).each_delta(n, |v| {
            out.push(v);
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn varint_and_delta_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            r.finish().unwrap();
        }
        // Sorted ids pack to ~1 byte per row; negatives round-trip too.
        let values: Vec<i64> = (0..1000).map(|i| 1_000_000 + i * 3).collect();
        let mut packed = Vec::new();
        put_deltas(&mut packed, values.iter().copied());
        assert!(packed.len() < values.len() * 2, "sorted deltas must pack tightly");
        assert_eq!(deltas(&packed, values.len()).unwrap(), values);
        let wild = vec![i64::MIN, i64::MAX, 0, -1, 42];
        packed.clear();
        put_deltas(&mut packed, wild.iter().copied());
        assert_eq!(deltas(&packed, wild.len()).unwrap(), wild);
        // Truncation is detected, not misread.
        assert!(deltas(&packed[..packed.len() - 1], wild.len()).is_err());
    }

    #[test]
    fn fixed_width_and_strings_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 0xbeef);
        put_u32(&mut buf, 0xdead_beef);
        put_i32(&mut buf, -5);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, i64::MIN);
        put_str(&mut buf, "héllo");
        put_strs(&mut buf, &["a".into(), String::new()]);
        put_varint_str(&mut buf, "wörld");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xbeef));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.i32(), Ok(-5));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(i64::MIN));
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.strings().unwrap(), ["a", ""]);
        assert_eq!(r.varint_str(), Ok("wörld"));
        r.finish().unwrap();
        // Cut anywhere, the same reads fail instead of misreading.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let all = (|| {
                r.u8()?;
                r.u16()?;
                r.u32()?;
                r.i32()?;
                r.u64()?;
                r.i64()?;
                r.str()?;
                r.strings()?;
                r.varint_str()
            })();
            assert!(all.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn long_strings_and_lists_are_never_cut() {
        let wide = "é".repeat(40_000);
        let strs: Vec<String> = (0..70_000).map(|i| (i % 10).to_string()).collect();
        for n in [0xFFFE, 0xFFFF, 0x1_0000, 70_000] {
            let ascii = "x".repeat(n);
            let mut buf = Vec::new();
            put_str(&mut buf, &ascii);
            put_str(&mut buf, &wide);
            put_strs(&mut buf, &strs[..n]);
            let mut r = Reader::new(&buf);
            assert_eq!(r.str(), Ok(ascii.as_str()));
            assert_eq!(r.str(), Ok(wide.as_str()));
            assert_eq!(r.strings().unwrap(), strs[..n]);
            r.finish().unwrap();
        }
        // Below 0xFFFF the layout is the `u16` form alone; from 0xFFFF
        // on, the `u32` follows.
        let mut buf = Vec::new();
        put_str(&mut buf, &"x".repeat(0xFFFE));
        assert_eq!(buf[..2], [0xFE, 0xFF]);
        buf.clear();
        put_str(&mut buf, &"x".repeat(0xFFFF));
        assert_eq!(buf[..6], [0xFF, 0xFF, 0xFF, 0xFF, 0, 0]);
        // A long form whose length cannot fit is refused by the count
        // rule.
        let mut hostile = vec![0xFF, 0xFF];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reader::new(&hostile).str().unwrap_err().0.contains("exceeds"));
        assert!(Reader::new(&hostile).strings().unwrap_err().0.contains("exceeds"));
    }

    #[test]
    fn counts_that_cannot_fit_are_refused() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 61);
        buf.extend_from_slice(&[0; 16]);
        let mut r = Reader::new(&buf);
        let err = r.varint_count(1).unwrap_err();
        assert!(err.0.contains("exceeds"), "{err:?}");
        let r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.count(3, 1), Ok(3));
        assert!(r.count(2, 2).is_err());
        // Multiplying the count by the element size cannot overflow.
        assert!(Reader::new(&[]).count(u64::MAX, usize::MAX).is_err());
        // The allocating readers apply the rule themselves.
        assert!(deltas(&[1; 8], 9).is_err());
        assert!(Reader::new(&[1; 8]).many(usize::MAX, 1, Reader::u8).is_err());
    }

    #[test]
    fn checked_frames_verify_and_leave_the_cursor_on_failure() {
        let mut buf = Vec::new();
        put_checked(&mut buf, b"first");
        put_checked(&mut buf, b"second");
        let mut r = Reader::new(&buf);
        assert_eq!(r.checked().unwrap().take(5), Ok(&b"first"[..]));
        let at = r.pos();
        let mut torn = Reader::new(&buf[..buf.len() - 1]);
        torn.checked().unwrap();
        assert!(torn.checked().is_err());
        assert_eq!(torn.pos(), at, "a torn frame leaves the cursor at its start");
        let mut rotted = buf.clone();
        *rotted.last_mut().unwrap() ^= 1;
        let mut r = Reader::new(&rotted);
        r.checked().unwrap();
        assert_eq!(r.checked().unwrap_err().0, "checksum mismatch");
        assert_eq!(r.pos(), at);
        assert_eq!(r.remaining(), buf.len() - at);
    }

    #[test]
    fn every_bit_flip_and_truncation_changes_the_sum() {
        let buf: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        let sum = xxh64(&buf);
        let mut flipped = buf.clone();
        for bit in 0..buf.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(xxh64(&flipped), sum, "flipping bit {bit} must change the sum");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..buf.len() {
            assert_ne!(xxh64(&buf[..cut]), sum, "cutting at {cut} must change the sum");
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish().unwrap_err().0, "1 trailing bytes");
    }
}
