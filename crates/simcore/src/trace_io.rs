//! On-disk format for recorded traces, so the ChampSim-style record-once/
//! replay-everywhere methodology can also span harness invocations.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [8B magic "GPTRCv2\0"] [u64 instructions] [u64 event count]
//! [count x 16B packed events]
//! [u64 event count echo] [u64 FNV-1a checksum]   <- integrity footer
//! ```
//!
//! The footer makes silent corruption loud: the count echo catches files
//! truncated at an event boundary (where `read_exact` alone cannot), and
//! the checksum — FNV-1a over everything between the magic and the footer —
//! catches bit flips anywhere in the header or event payload. Decoding
//! failures are reported through the typed [`TraceIoError`], never a
//! panic, so a corrupt cache file degrades to a re-record instead of
//! aborting a sweep.

use crate::trace::{CompactTrace, TraceEvent};
use simstate::Fnv1a;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GPTRCv2\0";
/// The footer-less v1 magic; rejected with a version error (old cache
/// files carry no checksum, so they are simply regenerated).
const MAGIC_V1: &[u8; 8] = b"GPTRCv1\0";

/// Why a trace failed to decode.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// A recognized-but-unsupported format version (e.g. footer-less v1).
    UnsupportedVersion,
    /// The byte stream ended before the declared payload.
    Truncated,
    /// The footer's event-count echo disagrees with the header.
    LengthMismatch { header: u64, footer: u64 },
    /// The footer checksum does not match the decoded bytes.
    ChecksumMismatch { expected: u64, found: u64 },
    /// Header instruction count disagrees with the events' own counts.
    InstructionCountMismatch { header: u64, counted: u64 },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::BadMagic => write!(f, "bad trace magic"),
            TraceIoError::UnsupportedVersion => {
                write!(f, "unsupported trace format version (expected GPTRCv2)")
            }
            TraceIoError::Truncated => write!(f, "trace file is truncated"),
            TraceIoError::LengthMismatch { header, footer } => {
                write!(f, "trace length mismatch: header says {header} events, footer {footer}")
            }
            TraceIoError::ChecksumMismatch { expected, found } => write!(
                f,
                "trace checksum mismatch: footer {expected:#018x}, computed {found:#018x}"
            ),
            TraceIoError::InstructionCountMismatch { header, counted } => {
                write!(f, "trace header says {header} instructions, events sum to {counted}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated
        } else {
            TraceIoError::Io(e)
        }
    }
}

/// FNV-1a checksum of a trace's logical content — exactly the value
/// [`write_trace`] places in the integrity footer, computed without
/// serializing. This is the trace's *identity*: sweep resume keys and
/// checkpoint headers embed it so records and snapshots taken against a
/// regenerated (different) trace are detected and re-run, never silently
/// reused.
pub fn trace_checksum(trace: &CompactTrace) -> u64 {
    let mut sum = Fnv1a::new();
    sum.update(&trace.instructions.to_le_bytes());
    sum.update(&(trace.events.len() as u64).to_le_bytes());
    for e in &trace.events {
        sum.update(&e.addr.to_le_bytes());
        sum.update(&e.next_use.to_le_bytes());
        sum.update(&e.pc.to_le_bytes());
        sum.update(&[e.sid, e.flags]);
    }
    sum.finish()
}

/// Serialize a trace (with the integrity footer).
pub fn write_trace<W: Write>(trace: &CompactTrace, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut sum = Fnv1a::new();
    let put = |w: &mut BufWriter<W>, sum: &mut Fnv1a, bytes: &[u8]| -> io::Result<()> {
        sum.update(bytes);
        w.write_all(bytes)
    };
    w.write_all(MAGIC)?;
    put(&mut w, &mut sum, &trace.instructions.to_le_bytes())?;
    put(&mut w, &mut sum, &(trace.events.len() as u64).to_le_bytes())?;
    for e in &trace.events {
        put(&mut w, &mut sum, &e.addr.to_le_bytes())?;
        put(&mut w, &mut sum, &e.next_use.to_le_bytes())?;
        put(&mut w, &mut sum, &e.pc.to_le_bytes())?;
        put(&mut w, &mut sum, &[e.sid, e.flags])?;
    }
    w.write_all(&(trace.events.len() as u64).to_le_bytes())?;
    w.write_all(&sum.finish().to_le_bytes())?;
    w.flush()
}

/// Deserialize a trace, verifying the length + checksum footer.
// simlint::allow(panic-path): record framing is length-checked against the buffer before slicing
pub fn read_trace<R: Read>(reader: R) -> Result<CompactTrace, TraceIoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC_V1 {
        return Err(TraceIoError::UnsupportedVersion);
    }
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let mut sum = Fnv1a::new();
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    sum.update(&b8);
    let instructions = u64::from_le_bytes(b8);
    r.read_exact(&mut b8)?;
    sum.update(&b8);
    let count = u64::from_le_bytes(b8);

    // Capacity hint is clamped: a corrupt header must not be able to
    // request an absurd up-front allocation — truncation is detected by
    // read_exact long before a real file that large could exist.
    let mut events = Vec::with_capacity((count as usize).min(1 << 20));
    let mut rec = [0u8; 16];
    for _ in 0..count {
        r.read_exact(&mut rec)?;
        sum.update(&rec);
        // Fixed-width field splits: sized arrays keep this infallible
        // without any try_into().unwrap() on the hot decode path.
        let mut addr = [0u8; 8];
        let mut next_use = [0u8; 4];
        let mut pc = [0u8; 2];
        addr.copy_from_slice(&rec[0..8]);
        next_use.copy_from_slice(&rec[8..12]);
        pc.copy_from_slice(&rec[12..14]);
        events.push(TraceEvent {
            addr: u64::from_le_bytes(addr),
            next_use: u32::from_le_bytes(next_use),
            pc: u16::from_le_bytes(pc),
            sid: rec[14],
            flags: rec[15],
        });
    }
    r.read_exact(&mut b8)?;
    let footer_count = u64::from_le_bytes(b8);
    if footer_count != count {
        return Err(TraceIoError::LengthMismatch { header: count, footer: footer_count });
    }
    r.read_exact(&mut b8)?;
    let expected = u64::from_le_bytes(b8);
    let found = sum.finish();
    if expected != found {
        return Err(TraceIoError::ChecksumMismatch { expected, found });
    }

    let trace = CompactTrace { events, instructions };
    validate(&trace)?;
    Ok(trace)
}

fn validate(trace: &CompactTrace) -> Result<(), TraceIoError> {
    let counted: u64 = trace.events.iter().map(|e| e.instr_count()).sum();
    if counted != trace.instructions {
        return Err(TraceIoError::InstructionCountMismatch { header: trace.instructions, counted });
    }
    Ok(())
}

/// Save to / load from a file path.
pub fn save<P: AsRef<Path>>(trace: &CompactTrace, path: P) -> io::Result<()> {
    write_trace(trace, std::fs::File::create(path)?)
}

pub fn load<P: AsRef<Path>>(path: P) -> Result<CompactTrace, TraceIoError> {
    read_trace(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MemRef, RecordingTracer, Tracer};

    fn sample_trace() -> CompactTrace {
        let mut rec = RecordingTracer::new(10_000);
        let mut x = 9u64;
        while !rec.done() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rec.mem(MemRef::read((x % 100) as u16, (x % 8) as u8, (x >> 20) & 0xFFFFFFC0));
            rec.bubble((x % 7) as u32 + 1);
        }
        rec.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace.instructions, back.instructions);
        assert_eq!(trace.events, back.events);
    }

    #[test]
    fn trace_checksum_matches_footer() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let footer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(trace_checksum(&trace), footer);
        // Distinct traces get distinct identities.
        let mut other = trace.clone();
        other.events[0].addr ^= 0x40;
        assert_ne!(trace_checksum(&other), footer);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(read_trace(&buf[..]), Err(TraceIoError::BadMagic)));
    }

    #[test]
    fn rejects_v1_files_as_unsupported() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf[..8].copy_from_slice(MAGIC_V1);
        assert!(matches!(read_trace(&buf[..]), Err(TraceIoError::UnsupportedVersion)));
    }

    #[test]
    fn rejects_truncated_file() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        assert!(matches!(read_trace(&buf[..]), Err(TraceIoError::Truncated)));
    }

    #[test]
    fn rejects_truncation_at_event_boundary() {
        // Drop exactly one 16-byte event plus the footer: every read_exact
        // call would still succeed on the shifted bytes without the
        // footer's count echo / checksum.
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 16 - 16);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn rejects_single_bit_flip_anywhere_in_payload() {
        let mut pristine = Vec::new();
        write_trace(&sample_trace(), &mut pristine).unwrap();
        // Flip a bit in an event body (past the 24-byte header): without
        // the checksum this decoded silently into wrong replay input.
        for &pos in &[24usize, 25, pristine.len() / 2, pristine.len() - 17] {
            let mut buf = pristine.clone();
            buf[pos] ^= 0x10;
            assert!(
                read_trace(&buf[..]).is_err(),
                "bit flip at byte {pos} must not decode cleanly"
            );
        }
    }

    #[test]
    fn rejects_inconsistent_instruction_count() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        // Corrupt the instruction-count header field (checksum catches it).
        buf[8] ^= 0x01;
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn corrupt_header_count_cannot_force_huge_allocation() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(), &mut buf).unwrap();
        // Claim u64::MAX events; decode must fail on truncation, not OOM.
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = CompactTrace::default();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.instructions, 0);
    }

    #[test]
    fn save_load_round_trips_via_path() {
        let dir = std::env::temp_dir().join("sdclp-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trc");
        let trace = sample_trace();
        save(&trace, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(trace.events, back.events);
        let _ = std::fs::remove_file(&path);
    }
}
