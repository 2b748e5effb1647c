//! The versioned binary wire format of the distributed resident-smoothing
//! backend — the serialisation of the halo-exchange protocol that
//! [`crate::ExchangeSchedule`] defines and `lms_smooth::resident` drives.
//!
//! One frame type per message of the protocol:
//!
//! | frame | direction | payload |
//! |---|---|---|
//! | [`Frame::Hello`] | coordinator → rank | magic, version, coordinate dimension, rank id, profiling flag |
//! | [`Frame::Block`] | coordinator → rank | the rank's resident block and its row of the exchange schedule, as typed sections |
//! | [`Frame::Gather`] | coordinator → rank | the rank's owned+halo coordinates and local element scores (the one full gather) |
//! | [`Frame::Interior`] | coordinator → rank | run the interior sweep phase of the current iteration |
//! | [`Frame::ColorStep`] | coordinator → rank | apply pending halo deltas, sweep one interface color class, emit moved deltas |
//! | [`Frame::HaloDelta`] | both | one coalesced (source part → destination part) batch of moved-vertex coordinates |
//! | [`Frame::RoundDone`] | rank → coordinator | end marker of a rank's delta output for one color step |
//! | [`Frame::FinishIteration`] | coordinator → rank | apply the last round's deltas, re-score, report |
//! | [`Frame::Report`] | rank → coordinator | the rank's per-iteration `Σ w_t·Δq_t` stat delta, plus its phase-timing deltas when profiling |
//! | [`Frame::ScatterRequest`] | coordinator → rank | send your owned coordinates back (the one full scatter) |
//! | [`Frame::Scatter`] | rank → coordinator | the rank's owned coordinates |
//! | [`Frame::ScatterDeltaRequest`] | coordinator → rank | send only the owned coordinates changed since your sparse baseline |
//! | [`Frame::ScatterDelta`] | rank → coordinator | changed owned-local slot ids and their coordinates |
//! | [`Frame::Shutdown`] | coordinator → rank | exit the worker loop |
//!
//! Encoding (wire v3): every frame is `[u32 LE payload length][u32 LE
//! CRC32c][u8 tag][fields…]`, integers little-endian, booleans one byte,
//! and **every `f64` as its exact IEEE-754 bit pattern**
//! ([`f64::to_bits`], little-endian) — NaN payloads, negative zero and
//! signalling bit patterns all round-trip bit-identically, which is what
//! keeps multi-process smoothing bit-identical to the in-process engines
//! (property-tested in `tests/props.rs`).
//!
//! The checksum is CRC32c (Castagnoli) over the length prefix **and** the
//! payload, so a torn, truncated, or silently corrupted frame — including
//! one whose length prefix itself was corrupted — is rejected at decode
//! with a typed [`WireError`] instead of desynchronising the stream or
//! feeding garbage coordinates into a smoothing run. This is the
//! detection half of the fail-stop + silent-error failure model the
//! distributed backend recovers from.
//!
//! Coordinates travel as flat component vectors (`dim` components per
//! point, declared once in the [`Frame::Hello`] handshake); a
//! [`Frame::HaloDelta`] carries the destination-local slot ids alongside,
//! so a receiver writes straight into its resident block buffer.

use lms_trace::RankPhaseNanos;
use std::io::{Read, Write};

/// Magic number opening every [`Frame::Hello`] (`b"LMSW"`, little-endian).
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"LMSW");

/// Current wire-format version. Bump on any frame-layout change; a
/// coordinator and a rank negotiate nothing — decoding a mismatched
/// [`Frame::Hello`] fails with [`WireError::Version`]. Version 2 added
/// the per-frame CRC32c checksum; version 3 added the profiling flag to
/// [`Frame::Hello`] and the per-phase timing deltas to [`Frame::Report`];
/// version 4 added the sparse checkpoint round
/// ([`Frame::ScatterDeltaRequest`] / [`Frame::ScatterDelta`]); version 5
/// added [`Frame::Block`], which hands every rank its resident block.
pub const WIRE_VERSION: u16 = 5;

/// Hard cap on one frame's payload (64 MiB): a corrupted length prefix
/// must not turn into an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// CRC32c (Castagnoli) lookup table, built at compile time — the build
/// container has no crates registry, so the checksum is implemented here
/// rather than pulled in as a dependency.
const fn crc32c_table() -> [u32; 256] {
    // reflected Castagnoli polynomial
    const POLY: u32 = 0x82f6_3b78;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 lookup tables: `CRC32C_TABLES[k][b]` advances byte `b`
/// through `k` additional zero bytes, letting the fold consume 8 input
/// bytes per step instead of 1 — frame payloads are multi-kilobyte
/// coordinate blocks, so the byte-at-a-time loop would tax every
/// gather/scatter/halo message measurably.
const fn crc32c_tables() -> [[u32; 256]; 8] {
    let base = crc32c_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = base[(prev & 0xff) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// One slice-by-8 step: the register after folding in 8 more bytes.
#[inline(always)]
fn crc32c_step8(crc: u32, c: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][c[4] as usize]
        ^ t[2][c[5] as usize]
        ^ t[1][c[6] as usize]
        ^ t[0][c[7] as usize]
}

/// Fold `bytes` into the raw register `crc` (no pre- or post-inversion)
/// eight bytes at a time, then byte by byte.
fn crc32c_fold_serial(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = crc32c_step8(crc, c);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// `a · b mod P` in the reflected bit order of the CRC register (bit 31
/// is `x^0`) — how a register is moved past a run of zero bytes.
fn crc32c_mulmod(a: u32, mut b: u32) -> u32 {
    const POLY: u32 = 0x82f6_3b78;
    let mut product = 0;
    for bit in (0..32).rev() {
        if a >> bit & 1 != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `x^(8·n) mod P`: the factor that moves a register past `n` bytes.
fn crc32c_shift(n: usize) -> u32 {
    let (mut power, mut square) = (1u32 << 31, 1u32 << 23); // x^0, x^8
    let mut n = n;
    while n > 0 {
        if n & 1 != 0 {
            power = crc32c_mulmod(power, square);
        }
        square = crc32c_mulmod(square, square);
        n >>= 1;
    }
    power
}

/// Fold `bytes` into the raw register `crc`. Long inputs run as three
/// interleaved lanes — three independent dependency chains the core
/// overlaps — joined by the CRC's linearity: the register after `A‖B`
/// is the register after `A` moved past `|B|` zero bytes, XOR the
/// register of `B` alone from zero. The result equals the serial fold.
fn crc32c_fold(crc: u32, bytes: &[u8]) -> u32 {
    const LANES_FROM: usize = 3 * 1024;
    if bytes.len() < LANES_FROM {
        return crc32c_fold_serial(crc, bytes);
    }
    let lane = bytes.len() / 24 * 8;
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, tail) = rest.split_at(lane);
    let (mut ca, mut cb, mut cc) = (crc, 0u32, 0u32);
    for ((x, y), z) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
        ca = crc32c_step8(ca, x);
        cb = crc32c_step8(cb, y);
        cc = crc32c_step8(cc, z);
    }
    let shift = crc32c_shift(lane);
    let joined = crc32c_mulmod(crc32c_mulmod(ca, shift) ^ cb, shift) ^ cc;
    crc32c_fold_serial(joined, tail)
}

/// CRC32c (Castagnoli) of `bytes`, with the standard `!0` init and final
/// inversion (`crc32c(b"123456789") == 0xe306_9283`).
pub fn crc32c(bytes: &[u8]) -> u32 {
    !crc32c_fold(!0, bytes)
}

/// The checksum [`Frame::write_to`] stamps on a frame: CRC32c over the
/// little-endian length prefix followed by the payload. Covering the
/// prefix means a corrupted length byte fails the checksum (or the
/// [`MAX_FRAME_LEN`] cap) instead of silently re-framing the stream.
fn frame_crc(len: u32, payload: &[u8]) -> u32 {
    !crc32c_fold(crc32c_fold(!0, &len.to_le_bytes()), payload)
}

/// One message of the distributed resident-smoothing protocol. See the
/// module docs for the frame table and encoding rules.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake: wire magic + version, the coordinate
    /// dimension of every coordinate payload on this connection, the
    /// receiving rank's id, and whether the rank should self-time its
    /// sweep phases (wire v3; profiled ranks fill the timing fields of
    /// every [`Frame::Report`] they send).
    Hello { version: u16, dim: u8, rank: u32, profile: bool },
    /// One rank's resident block (wire v5), sent once right after the
    /// [`Frame::Hello`]: the rank id, the part count, the element corner
    /// count, then typed sections — `u32` index arrays, one `u64` bit set
    /// and one `f64` array. The frame only carries the sections; what
    /// each one means, and the checks that make a decoded block safe to
    /// sweep, belong to the block type that writes and reads them
    /// (`lms_smooth::resident::ResidentBlock`). A coordinator encodes it
    /// from borrowed sections with [`write_block_frame`].
    Block {
        part: u32,
        num_parts: u32,
        corners: u8,
        sections: Vec<Vec<u32>>,
        bits: Vec<u64>,
        values: Vec<f64>,
    },
    /// The one full gather: the rank's owned+halo coordinates (flat,
    /// `dim` components per point, owned then halo in block-local order)
    /// and its local elements' `(quality, positively_oriented)` scores.
    Gather { coords: Vec<f64>, scores: Vec<(f64, bool)> },
    /// Run the interior sweep phase of the current iteration.
    Interior,
    /// Apply pending halo deltas, then sweep interface color class
    /// `color` and emit the moved deltas.
    ColorStep { color: u32 },
    /// One coalesced halo-delta batch for a (source → destination) part
    /// pair: destination-local slot ids and the matching coordinates
    /// (flat, `dim` components per slot). `part` names the destination
    /// when a rank emits the frame, the source when the coordinator
    /// forwards it.
    HaloDelta { part: u32, slots: Vec<u32>, coords: Vec<f64> },
    /// End marker of a rank's delta output for one color step.
    RoundDone,
    /// Apply the last round's deltas, run the end-of-iteration re-score,
    /// and send a [`Frame::Report`].
    FinishIteration,
    /// The rank's per-iteration quality-stat delta `Σ w_t·Δq_t`, plus
    /// (wire v3) its phase-timing **deltas** since the previous report —
    /// all-zero unless the rank was profiled via [`Frame::Hello`].
    /// Shipping deltas rather than running totals keeps coordinator-side
    /// accounting correct across rank respawns.
    Report { delta: f64, phases: RankPhaseNanos },
    /// Send your owned coordinates back.
    ScatterRequest,
    /// The one full scatter: the rank's owned coordinates (flat).
    Scatter { coords: Vec<f64> },
    /// Send back only the owned coordinates whose bits changed since the
    /// rank's sparse baseline — the state last shipped to the
    /// coordinator, i.e. the last [`Frame::Gather`] load or the last
    /// [`Frame::ScatterDelta`] reply, whichever came later. The overlap
    /// coordinator's per-iteration checkpoint round: between boundaries
    /// only the vertices a sweep actually moved differ, so the reply
    /// collapses from the whole owned block to the moved set.
    ScatterDeltaRequest,
    /// The sparse scatter: owned-local slot ids whose coordinates
    /// changed since the sparse baseline, and those coordinates (flat,
    /// `dim` components per slot).
    ScatterDelta { slots: Vec<u32>, coords: Vec<f64> },
    /// Exit the worker loop.
    Shutdown,
}

/// Decode failure: the stream does not hold a well-formed frame.
#[derive(Debug)]
pub enum WireError {
    /// Underlying stream error (includes EOF mid-frame).
    Io(std::io::Error),
    /// Unknown frame tag.
    BadTag(u8),
    /// Payload shorter or longer than its fields demand.
    BadLength,
    /// Length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The frame's CRC32c does not match its contents: the frame was
    /// torn, truncated, or silently corrupted in transit.
    BadChecksum { expected: u32, got: u32 },
    /// A [`Frame::Hello`] declared a wire version other than
    /// [`WIRE_VERSION`] (e.g. a checksum-less v1 peer).
    Version { got: u16 },
    /// A well-framed [`Frame::Block`] whose sections do not describe a
    /// block a rank can run: a section count or length that disagrees
    /// with the others, an id out of range, or an unsorted id list. The
    /// string names the violated check.
    BadBlock(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::BadLength => write!(f, "frame payload length mismatch"),
            WireError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            WireError::BadChecksum { expected, got } => write!(
                f,
                "frame checksum mismatch (stamped {expected:#010x}, computed {got:#010x}): \
                 frame torn or corrupted in transit"
            ),
            WireError::Version { got } => {
                write!(f, "peer speaks wire version {got}, this build requires {WIRE_VERSION}")
            }
            WireError::BadBlock(what) => write!(f, "block frame rejected: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

const TAG_HELLO: u8 = 0;
const TAG_GATHER: u8 = 1;
const TAG_INTERIOR: u8 = 2;
const TAG_COLOR_STEP: u8 = 3;
const TAG_HALO_DELTA: u8 = 4;
const TAG_ROUND_DONE: u8 = 5;
const TAG_FINISH_ITERATION: u8 = 6;
const TAG_REPORT: u8 = 7;
const TAG_SCATTER_REQUEST: u8 = 8;
const TAG_SCATTER: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_SCATTER_DELTA_REQUEST: u8 = 11;
const TAG_SCATTER_DELTA: u8 = 12;
const TAG_BLOCK: u8 = 13;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    put_words(out, vs, |v| v.to_bits().to_le_bytes());
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_u32(out, vs.len() as u32);
    put_words(out, vs, |v| v.to_le_bytes());
}

/// Append every word of `vs` as its `N` little-endian bytes: one resize,
/// then fixed-size stores the compiler turns into plain copies.
fn put_words<T: Copy, const N: usize>(out: &mut Vec<u8>, vs: &[T], bytes: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + N * vs.len(), 0);
    for (dst, &v) in out[start..].chunks_exact_mut(N).zip(vs) {
        dst.copy_from_slice(&bytes(v));
    }
}

/// Bytes of encoded payload [`block_chunks`] hands out at a time: small
/// enough to stay in cache between encoding a chunk and using it.
const BLOCK_CHUNK: usize = 64 << 10;

/// The borrowed fields of a [`Frame::Block`].
struct BlockParts<'a> {
    part: u32,
    num_parts: u32,
    corners: u8,
    sections: &'a [&'a [u32]],
    bits: &'a [u64],
    values: &'a [f64],
}

impl BlockParts<'_> {
    /// Encoded payload length.
    fn payload_len(&self) -> usize {
        let sections: usize = self.sections.iter().map(|s| 4 + 4 * s.len()).sum();
        1 + 4 + 4 + 1 + 4 + sections + 4 + 8 * self.bits.len() + 4 + 8 * self.values.len()
    }

    /// Encode the payload front to back, handing it to `emit` in chunks
    /// of about [`BLOCK_CHUNK`] bytes — the one encoder behind
    /// [`Frame::encode`] and [`write_block_frame`].
    fn chunks(&self, mut emit: impl FnMut(&[u8]) -> std::io::Result<()>) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(BLOCK_CHUNK + 16);
        buf.push(TAG_BLOCK);
        put_u32(&mut buf, self.part);
        put_u32(&mut buf, self.num_parts);
        buf.push(self.corners);
        put_u32(&mut buf, self.sections.len() as u32);
        let mut flush = |buf: &mut Vec<u8>, force: bool| {
            if force || buf.len() >= BLOCK_CHUNK {
                emit(buf)?;
                buf.clear();
            }
            Ok::<(), std::io::Error>(())
        };
        for section in self.sections {
            put_u32(&mut buf, section.len() as u32);
            for run in section.chunks(BLOCK_CHUNK / 4) {
                put_words(&mut buf, run, u32::to_le_bytes);
                flush(&mut buf, false)?;
            }
        }
        put_u32(&mut buf, self.bits.len() as u32);
        for run in self.bits.chunks(BLOCK_CHUNK / 8) {
            put_words(&mut buf, run, u64::to_le_bytes);
            flush(&mut buf, false)?;
        }
        put_u32(&mut buf, self.values.len() as u32);
        for run in self.values.chunks(BLOCK_CHUNK / 8) {
            put_words(&mut buf, run, |v: f64| v.to_bits().to_le_bytes());
            flush(&mut buf, false)?;
        }
        flush(&mut buf, true)
    }

    /// The whole payload in one buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_len());
        self.chunks(|chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })
        .expect("Vec<u8> writes are infallible");
        out
    }
}

/// Write a [`Frame::Block`] straight from borrowed sections, byte for
/// byte what [`Frame::write_to`] writes for the same frame, without
/// copying the sections into a frame or the payload into one buffer: the
/// payload is encoded twice in cache-sized chunks, once for its checksum
/// and once onto `w`.
pub fn write_block_frame<W: Write>(
    w: &mut W,
    part: u32,
    num_parts: u32,
    corners: u8,
    sections: &[&[u32]],
    bits: &[u64],
    values: &[f64],
) -> std::io::Result<()> {
    let block = BlockParts { part, num_parts, corners, sections, bits, values };
    let len = block.payload_len();
    if len > MAX_FRAME_LEN {
        return Err(oversized(len));
    }
    let len = len as u32;
    let mut crc = crc32c_fold(!0, &len.to_le_bytes());
    block.chunks(|chunk| {
        crc = crc32c_fold(crc, chunk);
        Ok(())
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&(!crc).to_le_bytes())?;
    block.chunks(|chunk| w.write_all(chunk))
}

/// The send-side error for a payload over [`MAX_FRAME_LEN`].
fn oversized(len: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte wire limit \
             (rank block too large for one frame — use more parts)"
        ),
    )
}

/// Frame an encoded payload onto a stream: length prefix, CRC32c, payload.
fn write_payload<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(oversized(payload.len()));
    }
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&frame_crc(len, payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Cursor-style reader over a decoded payload.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadLength)?;
        if end > self.buf.len() {
            return Err(WireError::BadLength);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take(8)?.try_into().unwrap())))
    }

    fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or(WireError::BadLength)?)?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(WireError::BadLength)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadLength)
        }
    }
}

/// A streaming reader over one frame's payload: it hands out fields
/// through a cache-sized buffer, never past the payload's length, and
/// folds every byte it reads into the frame checksum. How a
/// [`Frame::Block`] — megabytes of sections — is decoded without first
/// buffering its whole payload.
struct Stream<'r, R: Read> {
    r: &'r mut R,
    crc: u32,
    left: usize,
    buf: Vec<u8>,
}

impl<R: Read> Stream<'_, R> {
    /// The next `n ≤ BLOCK_CHUNK` payload bytes.
    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if n > self.left {
            return Err(WireError::BadLength);
        }
        self.r.read_exact(&mut self.buf[..n])?;
        self.crc = crc32c_fold(self.crc, &self.buf[..n]);
        self.left -= n;
        Ok(&self.buf[..n])
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A length-prefixed array of `N`-byte words, read straight into a
    /// vector of exactly its length.
    fn words<T, const N: usize>(&mut self, word: fn([u8; N]) -> T) -> Result<Vec<T>, WireError> {
        let n = self.u32()? as usize;
        if n.checked_mul(N).is_none_or(|bytes| bytes > self.left) {
            return Err(WireError::BadLength);
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let run = (n - out.len()).min(BLOCK_CHUNK / N);
            let bytes = self.take(run * N)?;
            out.extend(bytes.chunks_exact(N).map(|c| word(c.try_into().unwrap())));
        }
        Ok(out)
    }

    /// A [`Frame::Block`] payload after its tag, to the payload's end.
    fn block(&mut self) -> Result<Frame, WireError> {
        let part = self.u32()?;
        let num_parts = self.u32()?;
        let corners = self.u8()?;
        let n = self.u32()? as usize;
        // every section costs at least its 4-byte length
        let mut sections = Vec::with_capacity(n.min(self.left / 4));
        for _ in 0..n {
            sections.push(self.words(u32::from_le_bytes)?);
        }
        let bits = self.words(u64::from_le_bytes)?;
        let values = self.words(|b| f64::from_bits(u64::from_le_bytes(b)))?;
        if self.left != 0 {
            return Err(WireError::BadLength);
        }
        Ok(Frame::Block { part, num_parts, corners, sections, bits, values })
    }

    /// Read and checksum whatever of the payload is left.
    fn finish(&mut self) -> Result<u32, WireError> {
        while self.left > 0 {
            self.take(self.left.min(BLOCK_CHUNK))?;
        }
        Ok(!self.crc)
    }
}

/// Decode a [`Frame::Block`] whose length prefix and tag were read:
/// sections stream into their vectors, and the checksum over prefix and
/// payload is checked before the frame is returned. A payload that fails
/// both its checksum and its decoding reports the checksum, as the
/// buffered path does.
fn read_block<R: Read>(r: &mut R, len: u32, stamped: u32) -> Result<Frame, WireError> {
    let crc = crc32c_fold(crc32c_fold(!0, &len.to_le_bytes()), &[TAG_BLOCK]);
    let (left, buf) = (len as usize - 1, vec![0u8; BLOCK_CHUNK]);
    let mut stream = Stream { r, crc, left, buf };
    let decoded = stream.block();
    let got = stream.finish()?;
    if got != stamped {
        return Err(WireError::BadChecksum { expected: stamped, got });
    }
    decoded
}

impl Frame {
    /// Encode the frame's payload (tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Frame::Hello { version, dim, rank, profile } => {
                out.push(TAG_HELLO);
                put_u32(&mut out, WIRE_MAGIC);
                out.extend_from_slice(&version.to_le_bytes());
                out.push(*dim);
                put_u32(&mut out, *rank);
                out.push(*profile as u8);
            }
            Frame::Block { part, num_parts, corners, sections, bits, values } => {
                let sections: Vec<&[u32]> = sections.iter().map(Vec::as_slice).collect();
                let (part, num_parts, corners) = (*part, *num_parts, *corners);
                return BlockParts { part, num_parts, corners, sections: &sections, bits, values }
                    .encode();
            }
            Frame::Gather { coords, scores } => {
                out.push(TAG_GATHER);
                put_f64s(&mut out, coords);
                put_u32(&mut out, scores.len() as u32);
                for &(q, pos) in scores {
                    put_f64(&mut out, q);
                    out.push(pos as u8);
                }
            }
            Frame::Interior => out.push(TAG_INTERIOR),
            Frame::ColorStep { color } => {
                out.push(TAG_COLOR_STEP);
                put_u32(&mut out, *color);
            }
            Frame::HaloDelta { part, slots, coords } => {
                out.push(TAG_HALO_DELTA);
                put_u32(&mut out, *part);
                put_u32s(&mut out, slots);
                put_f64s(&mut out, coords);
            }
            Frame::RoundDone => out.push(TAG_ROUND_DONE),
            Frame::FinishIteration => out.push(TAG_FINISH_ITERATION),
            Frame::Report { delta, phases } => {
                out.push(TAG_REPORT);
                put_f64(&mut out, *delta);
                put_u64(&mut out, phases.interior_ns);
                put_u64(&mut out, phases.color_ns);
                put_u64(&mut out, phases.finish_ns);
                put_u64(&mut out, phases.moved);
            }
            Frame::ScatterRequest => out.push(TAG_SCATTER_REQUEST),
            Frame::Scatter { coords } => {
                out.push(TAG_SCATTER);
                put_f64s(&mut out, coords);
            }
            Frame::ScatterDeltaRequest => out.push(TAG_SCATTER_DELTA_REQUEST),
            Frame::ScatterDelta { slots, coords } => {
                out.push(TAG_SCATTER_DELTA);
                put_u32s(&mut out, slots);
                put_f64s(&mut out, coords);
            }
            Frame::Shutdown => out.push(TAG_SHUTDOWN),
        }
        out
    }

    /// Decode one payload produced by [`encode`](Self::encode). A
    /// [`Frame::Hello`] with the wrong magic decodes to
    /// [`WireError::BadLength`]-class failure ([`WireError::BadTag`] is
    /// reserved for unknown tags).
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut p = Payload { buf: payload, pos: 0 };
        let frame = match p.u8()? {
            TAG_HELLO => {
                let magic = p.u32()?;
                if magic != WIRE_MAGIC {
                    return Err(WireError::BadLength);
                }
                let version = p.u16()?;
                if version != WIRE_VERSION {
                    return Err(WireError::Version { got: version });
                }
                let dim = p.u8()?;
                let rank = p.u32()?;
                let profile = match p.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadLength),
                };
                Frame::Hello { version, dim, rank, profile }
            }
            TAG_BLOCK => {
                let mut rest = &payload[1..];
                let left = rest.len();
                let mut stream = Stream { r: &mut rest, crc: 0, left, buf: vec![0; BLOCK_CHUNK] };
                return stream.block();
            }
            TAG_GATHER => {
                let coords = p.f64s()?;
                let n = p.u32()? as usize;
                let mut scores = Vec::with_capacity(n.min(MAX_FRAME_LEN / 9));
                for _ in 0..n {
                    let q = p.f64()?;
                    let pos = match p.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err(WireError::BadLength),
                    };
                    scores.push((q, pos));
                }
                Frame::Gather { coords, scores }
            }
            TAG_INTERIOR => Frame::Interior,
            TAG_COLOR_STEP => Frame::ColorStep { color: p.u32()? },
            TAG_HALO_DELTA => {
                let part = p.u32()?;
                let slots = p.u32s()?;
                let coords = p.f64s()?;
                Frame::HaloDelta { part, slots, coords }
            }
            TAG_ROUND_DONE => Frame::RoundDone,
            TAG_FINISH_ITERATION => Frame::FinishIteration,
            TAG_REPORT => {
                let delta = p.f64()?;
                let phases = RankPhaseNanos {
                    interior_ns: p.u64()?,
                    color_ns: p.u64()?,
                    finish_ns: p.u64()?,
                    moved: p.u64()?,
                };
                Frame::Report { delta, phases }
            }
            TAG_SCATTER_REQUEST => Frame::ScatterRequest,
            TAG_SCATTER => Frame::Scatter { coords: p.f64s()? },
            TAG_SCATTER_DELTA_REQUEST => Frame::ScatterDeltaRequest,
            TAG_SCATTER_DELTA => {
                let slots = p.u32s()?;
                let coords = p.f64s()?;
                Frame::ScatterDelta { slots, coords }
            }
            TAG_SHUTDOWN => Frame::Shutdown,
            t => return Err(WireError::BadTag(t)),
        };
        p.done()?;
        Ok(frame)
    }

    /// Write the frame to a stream: `u32` LE payload length, `u32` LE
    /// CRC32c (over length prefix + payload), then the payload. Enforces
    /// [`MAX_FRAME_LEN`] on the send side too, so an oversized block,
    /// gather or scatter (the gather is ≈ 38 bytes per 2D vertex of one
    /// rank's block) fails with a diagnosable error instead of the receiver rejecting
    /// it and the sender dying on a broken pipe.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_payload(w, &self.encode())
    }

    /// Read one checksummed, length-prefixed frame from a stream. Any
    /// single-bit change to the bytes on the wire — length prefix
    /// included — yields a [`WireError`] rather than a mis-decoded frame.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let stamped = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len as usize > MAX_FRAME_LEN {
            return Err(WireError::TooLarge(len as usize));
        }
        // a block frame streams into its sections; every other frame is
        // small and is read whole
        let mut tag = [0u8; 1];
        if len > 0 {
            r.read_exact(&mut tag)?;
            if tag[0] == TAG_BLOCK {
                return read_block(r, len, stamped);
            }
        }
        let mut payload = vec![0u8; len as usize];
        if len > 0 {
            payload[0] = tag[0];
            r.read_exact(&mut payload[1..])?;
        }
        let got = frame_crc(len, &payload);
        if got != stamped {
            return Err(WireError::BadChecksum { expected: stamped, got });
        }
        Frame::decode(&payload)
    }

    /// Total bytes [`write_to`](Self::write_to) puts on the wire for this
    /// frame (length prefix and checksum included).
    pub fn wire_len(&self) -> usize {
        8 + self.encode().len()
    }
}

/// Bytes a coalesced [`Frame::HaloDelta`] of `entries` delivery slots at
/// coordinate dimension `dim` occupies on the wire (length prefix and
/// checksum included) — the formula both transports charge
/// `ExchangeVolume::halo_bytes_sent` with, so in-process and
/// multi-process runs report identical byte counts.
pub const fn halo_frame_wire_len(dim: usize, entries: usize) -> usize {
    // prefix + crc + tag + part + slots(len + 4/entry) + coords(len + 8·dim/entry)
    4 + 4 + 1 + 4 + 4 + 4 * entries + 4 + 8 * dim * entries
}

/// Buffer capacity a drained [`Reassembly`] keeps; beyond it the buffer
/// is released.
const REASSEMBLY_KEEP: usize = 1 << 20;

/// Incremental frame reassembly over a non-blocking byte stream.
///
/// [`Frame::read_from`] blocks until a whole frame has arrived — fine for
/// one stream, useless for a coordinator multiplexing many rank fds with
/// one `poll(2)`: a readable fd may hold *any* prefix of a frame (TCP
/// segments, short pipe writes, a scripted one-byte-per-syscall fault).
/// `Reassembly` accepts whatever bytes arrived via [`extend`] and hands
/// back complete frames via [`next_frame`], applying exactly the same
/// validation ladder as `read_from` — [`MAX_FRAME_LEN`] before the
/// payload is buffered, CRC32c over length prefix + payload, then
/// [`Frame::decode`] — so fragmentation and interleaving are invisible:
/// any chunking of the same byte stream yields the same frame sequence
/// (property-tested in `tests/props.rs`).
///
/// [`extend`]: Self::extend
/// [`next_frame`]: Self::next_frame
#[derive(Debug, Default)]
pub struct Reassembly {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by emitted frames. Compacted when
    /// it crosses half the buffer, so the amortised cost stays linear.
    consumed: usize,
}

impl Reassembly {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        Reassembly::default()
    }

    /// Append freshly-read bytes (any amount, including a partial frame).
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, or `Ok(None)` if the buffered
    /// bytes end mid-frame. A corrupted frame (bad checksum, oversized
    /// length prefix, malformed payload) is a hard error: the stream is
    /// desynchronised and the caller must tear the connection down, just
    /// as after a [`Frame::read_from`] failure.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        let stamped = u32::from_le_bytes(avail[4..8].try_into().unwrap());
        if len as usize > MAX_FRAME_LEN {
            return Err(WireError::TooLarge(len as usize));
        }
        if avail.len() < 8 + len as usize {
            return Ok(None);
        }
        let payload = &avail[8..8 + len as usize];
        let got = frame_crc(len, payload);
        if got != stamped {
            return Err(WireError::BadChecksum { expected: stamped, got });
        }
        let frame = Frame::decode(payload)?;
        self.consumed += 8 + len as usize;
        if self.consumed == self.buf.len() && self.buf.capacity() > REASSEMBLY_KEEP {
            // a rare large frame (a dense checkpoint reply) must not pin
            // its size for the rest of the stream's life
            self.buf = Vec::new();
            self.consumed = 0;
        }
        Ok(Some(frame))
    }

    /// No bytes buffered at all — the stream is at a frame boundary.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == self.consumed
    }

    /// Bytes buffered but not yet emitted as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Discard everything buffered (recovery tears down mid-frame state).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.consumed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let payload = frame.encode();
        let back = Frame::decode(&payload).expect("decode");
        // PartialEq on f64 payloads would call NaN != NaN; compare bits
        // through the encoding instead
        assert_eq!(payload, back.encode());
        let mut stream = Vec::new();
        frame.write_to(&mut stream).unwrap();
        assert_eq!(stream.len(), frame.wire_len());
        let back = Frame::read_from(&mut stream.as_slice()).expect("read_from");
        assert_eq!(payload, back.encode());
    }

    fn zero_phases() -> RankPhaseNanos {
        RankPhaseNanos::default()
    }

    #[test]
    fn every_frame_type_roundtrips() {
        roundtrip(Frame::Hello { version: WIRE_VERSION, dim: 3, rank: 7, profile: false });
        roundtrip(Frame::Hello { version: WIRE_VERSION, dim: 2, rank: 0, profile: true });
        roundtrip(Frame::Gather {
            coords: vec![0.5, -1.25, f64::NAN, -0.0, f64::INFINITY],
            scores: vec![(0.75, true), (f64::NAN, false), (-0.0, true)],
        });
        roundtrip(Frame::Block {
            part: 2,
            num_parts: 5,
            corners: 4,
            sections: vec![vec![], vec![0, 7, u32::MAX], vec![3]],
            bits: vec![u64::MAX, 0, 1 << 63],
            values: vec![0.25, f64::NAN, -0.0, f64::INFINITY],
        });
        roundtrip(Frame::Block {
            part: 0,
            num_parts: 1,
            corners: 3,
            sections: vec![],
            bits: vec![],
            values: vec![],
        });
        roundtrip(Frame::Interior);
        roundtrip(Frame::ColorStep { color: u32::MAX });
        roundtrip(Frame::HaloDelta {
            part: 3,
            slots: vec![0, 17, u32::MAX],
            coords: vec![1.0, -0.0, f64::NEG_INFINITY, f64::MIN_POSITIVE, 2.5e-308, f64::NAN],
        });
        roundtrip(Frame::RoundDone);
        roundtrip(Frame::FinishIteration);
        roundtrip(Frame::Report { delta: -0.0, phases: zero_phases() });
        roundtrip(Frame::Report { delta: f64::NAN, phases: zero_phases() });
        roundtrip(Frame::Report {
            delta: 0.125,
            phases: RankPhaseNanos {
                interior_ns: u64::MAX,
                color_ns: 1,
                finish_ns: 0,
                moved: 12_345,
            },
        });
        roundtrip(Frame::ScatterRequest);
        roundtrip(Frame::Scatter { coords: vec![] });
        roundtrip(Frame::ScatterDeltaRequest);
        roundtrip(Frame::ScatterDelta { slots: vec![], coords: vec![] });
        roundtrip(Frame::ScatterDelta {
            slots: vec![2, 40, u32::MAX],
            coords: vec![-0.0, f64::NAN, 3.5, f64::MIN_POSITIVE, -1.0, 0.0],
        });
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn wire_version_is_five() {
        // v5 added the Block frame; a peer of any other version is refused
        assert_eq!(WIRE_VERSION, 5);
    }

    #[test]
    fn block_frames_written_from_borrowed_sections_match_write_to() {
        let sections = vec![vec![1u32, 2, 3], vec![], vec![u32::MAX; 9]];
        let (bits, values) = (vec![0x5a5a_u64, 7], vec![1.5, -0.0, f64::MIN_POSITIVE]);
        let frame = Frame::Block {
            part: 1,
            num_parts: 3,
            corners: 3,
            sections: sections.clone(),
            bits: bits.clone(),
            values: values.clone(),
        };
        let mut owned = Vec::new();
        frame.write_to(&mut owned).unwrap();
        let borrowed: Vec<&[u32]> = sections.iter().map(Vec::as_slice).collect();
        let mut direct = Vec::new();
        write_block_frame(&mut direct, 1, 3, 3, &borrowed, &bits, &values).unwrap();
        assert_eq!(direct, owned);
        assert_eq!(direct.len(), frame.wire_len());
        assert_eq!(Frame::read_from(&mut direct.as_slice()).unwrap().encode(), frame.encode());
    }

    #[test]
    fn nan_and_negative_zero_bits_survive() {
        // a signalling-style NaN bit pattern must come back bit-identical
        let weird = f64::from_bits(0x7ff0_0000_0000_0001);
        let frame = Frame::Scatter { coords: vec![weird, -0.0] };
        let Frame::Scatter { coords } = Frame::decode(&frame.encode()).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(coords[0].to_bits(), weird.to_bits());
        assert_eq!(coords[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn halo_frame_len_formula_matches_encoding() {
        for (dim, entries) in [(2usize, 0usize), (2, 1), (2, 9), (3, 4), (3, 117)] {
            let frame = Frame::HaloDelta {
                part: 1,
                slots: vec![5; entries],
                coords: vec![0.25; entries * dim],
            };
            assert_eq!(frame.wire_len(), halo_frame_wire_len(dim, entries), "{dim}D x{entries}");
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let good = Frame::ColorStep { color: 9 }.encode();
        assert!(matches!(Frame::decode(&good[..good.len() - 1]), Err(WireError::BadLength)));
        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(Frame::decode(&padded), Err(WireError::BadLength)));
        assert!(matches!(Frame::decode(&[200u8]), Err(WireError::BadTag(200))));
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        stream.extend_from_slice(&[0u8; 4]); // checksum slot
        assert!(matches!(Frame::read_from(&mut stream.as_slice()), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn hello_rejects_bad_magic() {
        let mut payload =
            Frame::Hello { version: WIRE_VERSION, dim: 2, rank: 0, profile: false }.encode();
        payload[1] ^= 0xff;
        assert!(Frame::decode(&payload).is_err());
    }

    #[test]
    fn laned_crc_equals_the_serial_fold() {
        // lengths around the lane threshold and odd tails, every init
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let bytes: Vec<u8> = (0..70_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in [0, 1, 7, 3071, 3072, 3073, 3080, 4099, 24 * 1000 + 5, 70_000] {
            for init in [!0u32, 0, 0x1234_5678] {
                let slice = &bytes[..len];
                assert_eq!(crc32c_fold(init, slice), crc32c_fold_serial(init, slice), "len {len}");
            }
        }
        assert_eq!(crc32c_shift(0), 1 << 31, "x^0 is the identity");
    }

    #[test]
    fn crc32c_matches_reference_vector() {
        // the canonical CRC32c check value (RFC 3720 appendix B.4 style)
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
    }

    #[test]
    fn v1_hello_is_rejected_with_version_error() {
        // a checksum-less v1 peer's Hello payload, framed in v2 style:
        // the version field alone must reject it with a clear error
        let payload =
            Frame::Hello { version: WIRE_VERSION, dim: 2, rank: 3, profile: false }.encode();
        let mut v1 = payload.clone();
        v1[5..7].copy_from_slice(&1u16.to_le_bytes()); // tag(1) + magic(4), then version
        match Frame::decode(&v1) {
            Err(WireError::Version { got: 1 }) => {}
            other => panic!("expected Version {{ got: 1 }}, got {other:?}"),
        }
        // and the raw v1 *stream* framing ([len][payload], no checksum)
        // cannot be mistaken for a valid v2 frame either
        let mut v1_stream = Vec::new();
        v1_stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1_stream.extend_from_slice(&payload);
        assert!(Frame::read_from(&mut v1_stream.as_slice()).is_err());
    }

    #[test]
    fn corrupted_frames_fail_the_checksum() {
        let frame = Frame::HaloDelta { part: 2, slots: vec![1, 4], coords: vec![0.5; 4] };
        let mut stream = Vec::new();
        frame.write_to(&mut stream).unwrap();
        // flip one payload byte: decode-level structure stays valid, so
        // only the checksum catches it
        let mut torn = stream.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x04;
        match Frame::read_from(&mut torn.as_slice()) {
            Err(WireError::BadChecksum { expected, got }) => assert_ne!(expected, got),
            other => panic!("expected BadChecksum, got {other:?}"),
        }
        // flip one stamped-checksum byte
        let mut bad_crc = stream.clone();
        bad_crc[4] ^= 0x80;
        assert!(matches!(
            Frame::read_from(&mut bad_crc.as_slice()),
            Err(WireError::BadChecksum { .. })
        ));
        // the pristine stream still reads back
        assert_eq!(Frame::read_from(&mut stream.as_slice()).unwrap().encode(), frame.encode());
    }

    #[test]
    fn reassembly_decodes_any_chunking_identically_to_read_from() {
        let frames = vec![
            Frame::Gather { coords: vec![0.5, f64::NAN, -0.0], scores: vec![(1.5, true)] },
            Frame::ColorStep { color: 3 },
            Frame::HaloDelta { part: 1, slots: vec![2, 9], coords: vec![0.25; 4] },
            Frame::RoundDone,
            Frame::Report { delta: -2.5, phases: RankPhaseNanos::default() },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.write_to(&mut stream).unwrap();
        }
        for chunk in [1usize, 3, 7, stream.len()] {
            let mut asm = Reassembly::new();
            let mut decoded = Vec::new();
            for piece in stream.chunks(chunk) {
                asm.extend(piece);
                while let Some(f) = asm.next_frame().expect("clean stream") {
                    decoded.push(f.encode());
                }
            }
            assert!(asm.is_empty(), "chunk {chunk}: all bytes consumed");
            assert_eq!(asm.buffered(), 0);
            let expect: Vec<Vec<u8>> = frames.iter().map(|f| f.encode()).collect();
            assert_eq!(decoded, expect, "chunk {chunk}");
        }
    }

    #[test]
    fn reassembly_waits_mid_frame_without_error() {
        let frame = Frame::HaloDelta { part: 0, slots: vec![1], coords: vec![0.5, 1.5] };
        let mut stream = Vec::new();
        frame.write_to(&mut stream).unwrap();
        let mut asm = Reassembly::new();
        // every strict prefix is "not yet", never an error
        for cut in 0..stream.len() {
            asm.clear();
            asm.extend(&stream[..cut]);
            assert!(asm.next_frame().expect("prefix is not an error").is_none(), "cut {cut}");
            assert_eq!(asm.buffered(), cut);
        }
        asm.clear();
        assert!(asm.is_empty());
        asm.extend(&stream);
        assert_eq!(asm.next_frame().unwrap().unwrap().encode(), frame.encode());
    }

    #[test]
    fn a_drained_reassembly_releases_a_large_frame_buffer() {
        let big = Frame::ScatterDelta { slots: vec![7; 1 << 17], coords: vec![0.5; 1 << 18] };
        let small = Frame::RoundDone;
        let mut stream = Vec::new();
        big.write_to(&mut stream).unwrap();
        let mut asm = Reassembly::new();
        asm.extend(&stream);
        assert!(asm.buf.capacity() > REASSEMBLY_KEEP);
        assert_eq!(asm.next_frame().unwrap().unwrap().encode(), big.encode());
        assert!(asm.is_empty());
        assert_eq!(asm.buf.capacity(), 0, "the large buffer outlived its frame");
        // a large frame followed by bytes of the next one keeps them
        stream.clear();
        big.write_to(&mut stream).unwrap();
        small.write_to(&mut stream).unwrap();
        asm.extend(&stream[..stream.len() - 2]);
        assert_eq!(asm.next_frame().unwrap().unwrap().encode(), big.encode());
        asm.extend(&stream[stream.len() - 2..]);
        assert_eq!(asm.next_frame().unwrap().unwrap().encode(), small.encode());
        assert!(asm.is_empty());
    }

    #[test]
    fn reassembly_rejects_corruption_like_read_from() {
        let frame = Frame::HaloDelta { part: 2, slots: vec![1, 4], coords: vec![0.5; 4] };
        let mut stream = Vec::new();
        frame.write_to(&mut stream).unwrap();
        // payload corruption → BadChecksum
        let mut torn = stream.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x04;
        let mut asm = Reassembly::new();
        asm.extend(&torn);
        assert!(matches!(asm.next_frame(), Err(WireError::BadChecksum { .. })));
        // oversized length prefix → TooLarge before the payload buffers
        let mut asm = Reassembly::new();
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        huge.extend_from_slice(&[0u8; 4]);
        asm.extend(&huge);
        assert!(matches!(asm.next_frame(), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn wire_error_display_covers_every_variant() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::Io(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof")), "i/o"),
            (WireError::BadTag(77), "77"),
            (WireError::BadLength, "length mismatch"),
            (WireError::TooLarge(MAX_FRAME_LEN + 1), "exceeds"),
            (WireError::BadChecksum { expected: 0xdead_beef, got: 0x0bad_f00d }, "0xdeadbeef"),
            (WireError::Version { got: 1 }, "wire version 1"),
            (WireError::BadBlock("halo ids unsorted"), "halo ids unsorted"),
        ];
        for (err, needle) in cases {
            let shown = err.to_string();
            assert!(shown.contains(needle), "{shown:?} should mention {needle:?}");
            // std::error::Error plumbing stays intact
            let _: &dyn std::error::Error = &err;
        }
    }
}
