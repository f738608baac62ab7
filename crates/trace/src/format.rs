//! The versioned `.kgtrace` on-disk format.
//!
//! Traces can hold millions of events, so unlike the diff-friendly text
//! `.kgprof` profiles they are stored as a compact binary stream:
//!
//! ```text
//! magic      8 bytes   "KGTRACE\0"
//! version    u32 LE    current: 2
//! workload   u32 LE length + UTF-8 bytes
//! seed       u64 LE
//! scale      u64 LE
//! nursery    u64 LE    nursery bytes of the recording heap
//! observer   u64 LE    observer-space bytes of the recording heap
//! site-hash  u64 LE    site-map hash (0 = unhashed)
//! fault-seed u64 LE    fault-schedule seed (0 = fault-free; v2+)
//! count      u64 LE    number of events
//! events     count × (opcode u8 + LEB128 operands)
//! checksum   u64 LE    FNV-1a over every preceding byte
//! ```
//!
//! Event operands are unsigned LEB128 varints, so the common case — context
//! 0, small slots, short writes — costs one byte per operand. The format is
//! versioned like `.kgprof`: the parser accepts versions
//! [`FORMAT_MIN_VERSION`]`..=`[`FORMAT_VERSION`] and rejects everything
//! else. Corruption is detected three ways: truncation (decoding runs out
//! of bytes), a declared event count that does not match the stream, and a
//! trailing FNV-1a checksum that catches in-place bit flips.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use kingsguard::{CollectKind, MutatorConfig};

use crate::event::{Trace, TraceEvent, TraceHeader};

/// Leading magic bytes of every `.kgtrace` file.
pub const FORMAT_MAGIC: &[u8; 8] = b"KGTRACE\0";

/// Current format version. Bump when the header or event layout changes.
/// Version 2 added the fault-schedule seed to the header; version-1 files
/// still parse (their fault seed reads as 0, i.e. fault-free).
pub const FORMAT_VERSION: u32 = 2;

/// Oldest version this build still reads.
pub const FORMAT_MIN_VERSION: u32 = 1;

/// Canonical file extension.
pub const FILE_EXTENSION: &str = "kgtrace";

const OP_SPAWN: u8 = 0;
const OP_RETIRE: u8 = 1;
const OP_ALLOC: u8 = 2;
const OP_ALLOC_LARGE: u8 = 3;
const OP_WRITE_REF: u8 = 4;
const OP_WRITE_PRIM: u8 = 5;
const OP_READ_REF: u8 = 6;
const OP_READ_PRIM: u8 = 7;
const OP_RELEASE: u8 = 8;
const OP_SAFEPOINT: u8 = 9;
const OP_COLLECT_YOUNG: u8 = 10;
const OP_COLLECT_NURSERY: u8 = 11;
const OP_COLLECT_OBSERVER: u8 = 12;
const OP_COLLECT_FULL: u8 = 13;
const OP_HOOK: u8 = 14;

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The magic bytes are missing or wrong (not a `.kgtrace` file).
    BadMagic,
    /// The file declares a version this build does not understand.
    UnsupportedVersion(u32),
    /// The stream ended before the declared content (truncated file).
    Truncated {
        /// Byte offset at which the decoder ran out of input.
        offset: usize,
    },
    /// An event could not be decoded.
    BadEvent {
        /// Index of the malformed event.
        index: u64,
        /// Byte offset of its opcode.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// The header is malformed (bad string, absurd length, ...).
    BadHeader(String),
    /// The declared event count does not match the stream.
    CountMismatch {
        /// Events the header declared.
        declared: u64,
        /// Events actually decoded.
        found: u64,
    },
    /// The trailing checksum does not match the content (bit corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(err) => write!(f, "trace I/O error: {err}"),
            TraceError::BadMagic => write!(f, "not a .kgtrace file (bad magic)"),
            TraceError::UnsupportedVersion(version) => write!(
                f,
                "unsupported trace version {version} (this build reads versions \
                 {FORMAT_MIN_VERSION}..={FORMAT_VERSION})"
            ),
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated: input ended at byte {offset}")
            }
            TraceError::BadEvent {
                index,
                offset,
                reason,
            } => write!(f, "bad trace event {index} at byte {offset}: {reason}"),
            TraceError::BadHeader(reason) => write!(f, "bad trace header: {reason}"),
            TraceError::CountMismatch { declared, found } => {
                write!(f, "trace declares {declared} events but contains {found}")
            }
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:016x}, computed {computed:016x} \
                 (file corrupted)"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(err: io::Error) -> Self {
        TraceError::Io(err)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn encode_event(out: &mut Vec<u8>, event: &TraceEvent) {
    match *event {
        TraceEvent::Spawn { ctx, config } => {
            out.push(OP_SPAWN);
            push_varint(out, ctx as u64);
            push_varint(out, config.tlab_bytes as u64);
            push_varint(out, config.ssb_capacity as u64);
        }
        TraceEvent::Retire { ctx } => {
            out.push(OP_RETIRE);
            push_varint(out, ctx as u64);
        }
        TraceEvent::Alloc {
            ctx,
            ref_slots,
            payload_bytes,
            type_id,
            site,
            large,
        } => {
            out.push(if large { OP_ALLOC_LARGE } else { OP_ALLOC });
            push_varint(out, ctx as u64);
            push_varint(out, ref_slots as u64);
            push_varint(out, payload_bytes as u64);
            push_varint(out, type_id as u64);
            push_varint(out, site as u64);
        }
        TraceEvent::WriteRef {
            ctx,
            src,
            slot,
            target,
        } => {
            out.push(OP_WRITE_REF);
            push_varint(out, ctx as u64);
            push_varint(out, src);
            push_varint(out, slot as u64);
            // 0 encodes a null store; allocation indices shift up by one.
            push_varint(out, target.map(|t| t + 1).unwrap_or(0));
        }
        TraceEvent::WritePrim {
            ctx,
            src,
            offset,
            len,
        } => {
            out.push(OP_WRITE_PRIM);
            push_varint(out, ctx as u64);
            push_varint(out, src);
            push_varint(out, offset);
            push_varint(out, len);
        }
        TraceEvent::ReadRef { ctx, src, slot } => {
            out.push(OP_READ_REF);
            push_varint(out, ctx as u64);
            push_varint(out, src);
            push_varint(out, slot as u64);
        }
        TraceEvent::ReadPrim {
            ctx,
            src,
            offset,
            len,
        } => {
            out.push(OP_READ_PRIM);
            push_varint(out, ctx as u64);
            push_varint(out, src);
            push_varint(out, offset);
            push_varint(out, len);
        }
        TraceEvent::Release { obj } => {
            out.push(OP_RELEASE);
            push_varint(out, obj);
        }
        TraceEvent::Safepoint => out.push(OP_SAFEPOINT),
        TraceEvent::Collect { kind } => out.push(match kind {
            CollectKind::Young => OP_COLLECT_YOUNG,
            CollectKind::Nursery => OP_COLLECT_NURSERY,
            CollectKind::Observer => OP_COLLECT_OBSERVER,
            CollectKind::Full => OP_COLLECT_FULL,
        }),
        TraceEvent::Hook {
            allocated_bytes,
            total_bytes,
            elapsed_ms,
        } => {
            out.push(OP_HOOK);
            push_varint(out, allocated_bytes);
            push_varint(out, total_bytes);
            push_varint(out, elapsed_ms);
        }
    }
}

/// FNV-1a over `bytes` (the same fold `workloads::site_map_hash` uses).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes a trace to the binary format.
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + trace.events.len() * 6);
    out.extend_from_slice(FORMAT_MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u32(&mut out, trace.header.workload.len() as u32);
    out.extend_from_slice(trace.header.workload.as_bytes());
    push_u64(&mut out, trace.header.seed);
    push_u64(&mut out, trace.header.scale);
    push_u64(&mut out, trace.header.nursery_bytes);
    push_u64(&mut out, trace.header.observer_bytes);
    push_u64(&mut out, trace.header.site_map_hash);
    push_u64(&mut out, trace.header.fault_seed);
    push_u64(&mut out, trace.events.len() as u64);
    for event in &trace.events {
        encode_event(&mut out, event);
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.bytes.len() {
            return Err(TraceError::Truncated { offset: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64, TraceError> {
        let start = self.pos;
        let mut value = 0u64;
        // A u64 takes at most ten 7-bit groups; the tenth may only carry
        // the top bit.
        for (i, &byte) in self.bytes[start..].iter().take(10).enumerate() {
            let shift = 7 * i as u32;
            if shift == 63 && byte > 1 {
                return Err(varint_overflow(start));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.pos = start + i + 1;
                return Ok(value);
            }
        }
        Err(TraceError::Truncated {
            offset: self.bytes.len(),
        })
    }
}

/// The error of a varint starting at byte `offset` that overflows u64.
/// Varints only occur in event operands; the caller rewrites this into a
/// `BadEvent` carrying the event index.
#[cold]
fn varint_overflow(offset: usize) -> TraceError {
    TraceError::BadEvent {
        index: 0,
        offset,
        reason: "varint overflows u64".to_string(),
    }
}

#[inline(always)]
fn narrow<T: TryFrom<u64>>(value: u64, what: &str, index: u64, offset: usize) -> Result<T, TraceError> {
    T::try_from(value).map_err(|_| TraceError::BadEvent {
        index,
        offset,
        reason: format!("{what} value {value} out of range"),
    })
}

#[inline]
fn decode_event(reader: &mut Reader<'_>, index: u64) -> Result<TraceEvent, TraceError> {
    decode_event_inner(reader, index).map_err(|err| match err {
        // Stamp operand-level varint failures with the event they occurred
        // in (the Reader cannot know the index).
        TraceError::BadEvent {
            index: 0,
            offset,
            reason,
        } => TraceError::BadEvent {
            index,
            offset,
            reason,
        },
        other => other,
    })
}

fn decode_event_inner(reader: &mut Reader<'_>, index: u64) -> Result<TraceEvent, TraceError> {
    let offset = reader.pos;
    let opcode = reader.u8()?;
    let event = match opcode {
        OP_SPAWN => TraceEvent::Spawn {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            config: MutatorConfig {
                tlab_bytes: narrow(reader.varint()?, "tlab_bytes", index, offset)?,
                ssb_capacity: narrow(reader.varint()?, "ssb_capacity", index, offset)?,
            },
        },
        OP_RETIRE => TraceEvent::Retire {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
        },
        OP_ALLOC | OP_ALLOC_LARGE => TraceEvent::Alloc {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            ref_slots: narrow(reader.varint()?, "ref_slots", index, offset)?,
            payload_bytes: narrow(reader.varint()?, "payload_bytes", index, offset)?,
            type_id: narrow(reader.varint()?, "type_id", index, offset)?,
            site: narrow(reader.varint()?, "site", index, offset)?,
            large: opcode == OP_ALLOC_LARGE,
        },
        OP_WRITE_REF => TraceEvent::WriteRef {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            slot: narrow(reader.varint()?, "slot", index, offset)?,
            target: match reader.varint()? {
                0 => None,
                shifted => Some(shifted - 1),
            },
        },
        OP_WRITE_PRIM => TraceEvent::WritePrim {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            offset: reader.varint()?,
            len: reader.varint()?,
        },
        OP_READ_REF => TraceEvent::ReadRef {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            slot: narrow(reader.varint()?, "slot", index, offset)?,
        },
        OP_READ_PRIM => TraceEvent::ReadPrim {
            ctx: narrow(reader.varint()?, "ctx", index, offset)?,
            src: reader.varint()?,
            offset: reader.varint()?,
            len: reader.varint()?,
        },
        OP_RELEASE => TraceEvent::Release {
            obj: reader.varint()?,
        },
        OP_SAFEPOINT => TraceEvent::Safepoint,
        OP_COLLECT_YOUNG => TraceEvent::Collect {
            kind: CollectKind::Young,
        },
        OP_COLLECT_NURSERY => TraceEvent::Collect {
            kind: CollectKind::Nursery,
        },
        OP_COLLECT_OBSERVER => TraceEvent::Collect {
            kind: CollectKind::Observer,
        },
        OP_COLLECT_FULL => TraceEvent::Collect {
            kind: CollectKind::Full,
        },
        OP_HOOK => TraceEvent::Hook {
            allocated_bytes: reader.varint()?,
            total_bytes: reader.varint()?,
            elapsed_ms: reader.varint()?,
        },
        other => {
            return Err(TraceError::BadEvent {
                index,
                offset,
                reason: format!("unknown opcode {other}"),
            })
        }
    };
    Ok(event)
}

/// Verifies the magic and checksum of `bytes` and reads the header and the
/// declared event count, leaving the reader at the first event.
fn read_header(bytes: &[u8]) -> Result<(TraceHeader, u64, Reader<'_>), TraceError> {
    if bytes.len() < FORMAT_MAGIC.len() {
        return Err(TraceError::Truncated { offset: bytes.len() });
    }
    if &bytes[..FORMAT_MAGIC.len()] != FORMAT_MAGIC {
        return Err(TraceError::BadMagic);
    }
    // The checksum covers everything before its own 8 bytes.
    if bytes.len() < FORMAT_MAGIC.len() + 4 + 8 {
        return Err(TraceError::Truncated { offset: bytes.len() });
    }
    let content = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a(content);
    if stored != computed {
        return Err(TraceError::ChecksumMismatch { stored, computed });
    }

    let mut reader = Reader {
        bytes: content,
        pos: FORMAT_MAGIC.len(),
    };
    let version = reader.u32()?;
    if !(FORMAT_MIN_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let name_len = reader.u32()? as usize;
    if name_len > 4096 {
        return Err(TraceError::BadHeader(format!(
            "workload name length {name_len} is implausible"
        )));
    }
    let workload = std::str::from_utf8(reader.take(name_len)?)
        .map_err(|_| TraceError::BadHeader("workload name is not UTF-8".to_string()))?
        .to_string();
    let header = TraceHeader {
        workload,
        seed: reader.u64()?,
        scale: reader.u64()?,
        nursery_bytes: reader.u64()?,
        observer_bytes: reader.u64()?,
        site_map_hash: reader.u64()?,
        // Version 1 predates fault injection: those traces are fault-free.
        fault_seed: if version >= 2 { reader.u64()? } else { 0 },
    };
    let declared = reader.u64()?;
    Ok((header, declared, reader))
}

/// A checked `.kgtrace` byte stream that decodes its events one at a time.
///
/// [`TraceStream::new`] verifies the magic, the trailing checksum, the
/// version and the header before a single event is decoded, so a truncated
/// or bit-flipped file is rejected up front. Iterating then yields each
/// event in program order; a malformed event ends the stream with its
/// error, and so does a declared event count that does not match the
/// stream (reported after the last event, as [`TraceError::CountMismatch`]).
/// A clone continues from the same position.
#[derive(Clone, Debug)]
pub(crate) struct TraceStream<'a> {
    header: TraceHeader,
    declared: u64,
    reader: Reader<'a>,
    index: u64,
    done: bool,
}

impl<'a> TraceStream<'a> {
    /// Checks `bytes` (magic, checksum, version, header) and positions the
    /// stream at the first event.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self, TraceError> {
        let (header, declared, reader) = read_header(bytes)?;
        Ok(TraceStream {
            header,
            declared,
            reader,
            index: 0,
            done: false,
        })
    }

    /// The verified file header.
    pub(crate) fn header(&self) -> &TraceHeader {
        &self.header
    }
}

impl Iterator for TraceStream<'_> {
    type Item = Result<TraceEvent, TraceError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.reader.pos < self.reader.bytes.len() {
            let event = decode_event(&mut self.reader, self.index);
            self.index += 1;
            self.done = event.is_err();
            return Some(event);
        }
        self.done = true;
        (self.index != self.declared).then_some(Err(TraceError::CountMismatch {
            declared: self.declared,
            found: self.index,
        }))
    }
}

/// Parses a trace from its binary representation: the events
/// [`TraceReplayer::from_bytes`](crate::TraceReplayer::from_bytes) would
/// stream, collected into a [`Trace`].
pub fn parse_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    let mut stream = TraceStream::new(bytes)?;
    let mut events = Vec::with_capacity(stream.declared.min(1 << 24) as usize);
    for event in &mut stream {
        events.push(event?);
    }
    Ok(Trace {
        header: stream.header,
        events,
    })
}

/// Writes a trace to `path`, creating parent directories as needed. The
/// write goes through a uniquely named sibling temporary file followed by a
/// rename, so concurrent recorders of the same deterministic trace (e.g.
/// two collector runs under `--jobs`, which share a process id but not the
/// per-write counter) never expose a half-written file.
pub fn save_trace(trace: &Trace, path: &Path) -> Result<(), TraceError> {
    static WRITE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let serial = WRITE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("{FILE_EXTENSION}.tmp-{}-{serial}", std::process::id()));
    fs::write(&tmp, trace_to_bytes(trace))?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a trace back from `path`.
pub fn load_trace(path: &Path) -> Result<Trace, TraceError> {
    let bytes = fs::read(path)?;
    parse_trace(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            header: TraceHeader {
                workload: "lusearch".to_string(),
                seed: 0xC0FFEE,
                scale: 256,
                nursery_bytes: 256 * 1024,
                observer_bytes: 512 * 1024,
                site_map_hash: 0x00c3_e1f2_9b04_d877,
                fault_seed: 0xDEAD_BEEF,
            },
            events: vec![
                TraceEvent::Spawn {
                    ctx: 1,
                    config: MutatorConfig::default(),
                },
                TraceEvent::Alloc {
                    ctx: 1,
                    ref_slots: 2,
                    payload_bytes: 48,
                    type_id: 7,
                    site: 29,
                    large: false,
                },
                TraceEvent::Alloc {
                    ctx: 0,
                    ref_slots: 0,
                    payload_bytes: 16 * 1024,
                    type_id: 200,
                    site: 35,
                    large: true,
                },
                TraceEvent::WriteRef {
                    ctx: 1,
                    src: 0,
                    slot: 1,
                    target: Some(1),
                },
                TraceEvent::WriteRef {
                    ctx: 1,
                    src: 0,
                    slot: 1,
                    target: None,
                },
                TraceEvent::WritePrim {
                    ctx: 0,
                    src: 1,
                    offset: 128,
                    len: 8,
                },
                TraceEvent::ReadRef {
                    ctx: 0,
                    src: 0,
                    slot: 0,
                },
                TraceEvent::ReadPrim {
                    ctx: 1,
                    src: 1,
                    offset: 0,
                    len: 64,
                },
                TraceEvent::Hook {
                    allocated_bytes: 1 << 20,
                    total_bytes: 4 << 20,
                    elapsed_ms: 64,
                },
                TraceEvent::Collect {
                    kind: CollectKind::Young,
                },
                TraceEvent::Collect {
                    kind: CollectKind::Full,
                },
                TraceEvent::Release { obj: 1 },
                TraceEvent::Safepoint,
                TraceEvent::Retire { ctx: 1 },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_every_event() {
        let trace = sample_trace();
        let bytes = trace_to_bytes(&trace);
        let parsed = parse_trace(&bytes).unwrap();
        assert_eq!(parsed, trace);
        // A second round trip is byte-identical.
        assert_eq!(trace_to_bytes(&parsed), bytes);
    }

    #[test]
    fn round_trip_through_disk() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("kgtrace-test-{}", std::process::id()));
        let path = dir.join("sample.kgtrace");
        save_trace(&trace, &path).unwrap();
        assert_eq!(load_trace(&path).unwrap(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace {
            header: TraceHeader {
                workload: "empty".to_string(),
                seed: 0,
                scale: 1,
                nursery_bytes: 0,
                observer_bytes: 0,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events: Vec::new(),
        };
        assert_eq!(parse_trace(&trace_to_bytes(&trace)).unwrap(), trace);
    }

    #[test]
    fn version1_traces_without_a_fault_seed_still_parse() {
        // Reconstruct the v1 layout by hand: splice the fault-seed field
        // out of a v2 file, stamp version 1 and re-checksum.
        let mut trace = sample_trace();
        trace.header.fault_seed = 0;
        let v2 = trace_to_bytes(&trace);
        let seed_at = 8 + 4 + 4 + trace.header.workload.len() + 40;
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(&v2[..seed_at]);
        v1.extend_from_slice(&v2[seed_at + 8..v2.len() - 8]);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let checksum = fnv1a(&v1);
        v1.extend_from_slice(&checksum.to_le_bytes());
        let parsed = parse_trace(&v1).unwrap();
        assert_eq!(parsed, trace, "v1 parse must default the fault seed to 0");
    }

    #[test]
    fn truncated_files_are_rejected() {
        let bytes = trace_to_bytes(&sample_trace());
        for cut in [0, 4, FORMAT_MAGIC.len() + 2, bytes.len() / 2, bytes.len() - 1] {
            let err = parse_trace(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        // Exhaustive hostile-input property: no prefix of a valid trace and
        // no single-bit corruption of one may parse, and none may panic.
        // Truncation trips the length/checksum checks; an in-place flip is
        // always caught because it lands in either the content (checksum
        // mismatch) or the checksum itself.
        let bytes = trace_to_bytes(&sample_trace());
        for cut in 0..bytes.len() {
            let err = parse_trace(&bytes[..cut]).unwrap_err();
            assert!(!err.to_string().is_empty(), "cut {cut}: empty error message");
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                assert!(
                    parse_trace(&flipped).is_err(),
                    "flip {pos}/{bit}: corrupt trace accepted"
                );
            }
        }
    }

    #[test]
    fn corrupt_bytes_fail_the_checksum() {
        let mut bytes = trace_to_bytes(&sample_trace());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            parse_trace(&bytes),
            Err(TraceError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = trace_to_bytes(&sample_trace());
        bytes[0] = b'X';
        assert!(matches!(parse_trace(&bytes), Err(TraceError::BadMagic)));
        assert!(matches!(
            parse_trace(b"kingsguard-site-profile 2\n"),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = trace_to_bytes(&sample_trace());
        // Patch the version field, then re-stamp the checksum so only the
        // version is wrong.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let content_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
        match parse_trace(&bytes) {
            Err(TraceError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let trace = sample_trace();
        let mut bytes = trace_to_bytes(&trace);
        // Declare one event more than the stream holds. The count field sits
        // after magic(8) + version(4) + name-len(4) + name + 6×u64.
        let count_at = 8 + 4 + 4 + trace.header.workload.len() + 48;
        let declared = trace.events.len() as u64 + 1;
        bytes[count_at..count_at + 8].copy_from_slice(&declared.to_le_bytes());
        let content_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            parse_trace(&bytes),
            Err(TraceError::CountMismatch { declared: d, found: f }) if d == f + 1
        ));
    }

    #[test]
    fn a_stream_stops_at_its_first_bad_event() {
        // Splice an unknown opcode in after the third event and re-stamp
        // the checksum: the header still checks, three events decode, then
        // the error, then nothing.
        let trace = sample_trace();
        let head = Trace {
            header: trace.header.clone(),
            events: trace.events[..3].to_vec(),
        };
        let at = trace_to_bytes(&head).len() - 8;
        let mut bytes = trace_to_bytes(&trace);
        bytes.truncate(bytes.len() - 8);
        bytes.insert(at, 0xEE);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let mut stream = TraceStream::new(&bytes).unwrap();
        assert_eq!(stream.header(), &trace.header);
        for event in &trace.events[..3] {
            assert_eq!(stream.next().unwrap().unwrap(), *event);
        }
        match stream.next() {
            Some(Err(TraceError::BadEvent { index: 3, reason, .. })) => {
                assert!(reason.contains("opcode 238"))
            }
            other => panic!("expected BadEvent 3, got {other:?}"),
        }
        assert!(stream.next().is_none());
    }

    #[test]
    fn varint_overflow_is_reported_as_a_bad_event() {
        // A trace declaring one Release event whose operand is an 11-byte
        // varint (overflowing u64), with the checksum patched so only the
        // operand is wrong.
        let empty = Trace {
            header: TraceHeader {
                workload: "x".to_string(),
                seed: 0,
                scale: 1,
                nursery_bytes: 0,
                observer_bytes: 0,
                site_map_hash: 0,
                fault_seed: 0,
            },
            events: Vec::new(),
        };
        let mut bytes = trace_to_bytes(&empty);
        bytes.truncate(bytes.len() - 8); // drop checksum
        let count_at = 8 + 4 + 4 + 1 + 48;
        bytes[count_at..count_at + 8].copy_from_slice(&1u64.to_le_bytes());
        bytes.push(OP_RELEASE);
        bytes.extend_from_slice(&[0xFF; 10]);
        bytes.push(0x01);
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        match parse_trace(&bytes) {
            Err(TraceError::BadEvent { index: 0, reason, .. }) => {
                assert!(reason.contains("varint"), "unexpected reason {reason:?}");
            }
            other => panic!("expected BadEvent, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_saves_of_the_same_trace_never_corrupt_the_file() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("kgtrace-race-{}", std::process::id()));
        let path = dir.join("shared.kgtrace");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| save_trace(&trace, &path).unwrap());
            }
        });
        assert_eq!(load_trace(&path).unwrap(), trace);
        // No stray tmp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leftover tmp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_messages_are_descriptive() {
        let err = parse_trace(b"BOGUS***rest").unwrap_err();
        assert!(err.to_string().contains("magic"));
        let trace = sample_trace();
        let mut bytes = trace_to_bytes(&trace);
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        let content_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..content_len]);
        bytes[content_len..].copy_from_slice(&checksum.to_le_bytes());
        assert!(parse_trace(&bytes).unwrap_err().to_string().contains("version 7"));
    }
}
