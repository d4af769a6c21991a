//! On-disk format for recorded traces, so the ChampSim-style record-once/
//! replay-everywhere methodology can also span harness invocations.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [8B magic "GPTRCv2\0"] [u64 instructions] [u64 event count]
//! [count x 16B event records: u64 addr, u32 next_use, u16 pc, u8 sid, u8 flags]
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

use crate::trace::{CompactTrace, Event, MemRef, PackError};
use simstate::Fnv1a;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GPTRCv2\0";
/// The footer-less v1 magic; rejected with a version error (old cache
/// files carry no checksum, so they are simply regenerated).
const MAGIC_V1: &[u8; 8] = b"GPTRCv1\0";
/// Bytes per on-disk event record.
const RECORD_BYTES: usize = 16;
/// Record flags: a memory event, and a memory event that writes.
const FLAG_MEM: u8 = 1;
const FLAG_WRITE_MEM: u8 = FLAG_MEM | 2;

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
    /// Event `index` has unknown flags, or is a bubble carrying a pc, sid
    /// or next-use hint.
    MalformedEvent { index: u64 },
    /// Event `index` exceeds the limits of the packed in-memory trace.
    Unpackable { index: u64, error: PackError },
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
            TraceIoError::MalformedEvent { index } => write!(f, "trace event {index} is malformed"),
            TraceIoError::Unpackable { index, error } => {
                write!(f, "trace event {index} cannot be held in memory: {error}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Unpackable { error, .. } => Some(error),
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

/// The 16-byte on-disk record of a decoded event: `addr`, `next_use`, `pc`,
/// `sid`, `flags`. A bubble stores its instruction count in `addr` and zero
/// in every other field.
fn record(ev: Event) -> [u8; RECORD_BYTES] {
    let (addr, next_use, pc, sid, flags) = match ev {
        Event::Bubble(n) => (n, 0, 0, 0, 0),
        Event::Mem(r) => {
            let flags = if r.is_write { FLAG_WRITE_MEM } else { FLAG_MEM };
            (r.addr, r.next_use, r.pc, r.sid, flags)
        }
    };
    // Little-endian fields at byte offsets 0, 8, 12, 14 and 15.
    let word = u128::from(addr)
        | u128::from(next_use) << 64
        | u128::from(pc) << 96
        | u128::from(sid) << 112
        | u128::from(flags) << 120;
    word.to_le_bytes()
}

/// Append the event an on-disk record describes to `trace`.
fn push_record(
    trace: &mut CompactTrace,
    rec: &[u8; RECORD_BYTES],
    index: u64,
) -> Result<(), TraceIoError> {
    // Destructuring the fixed-width record keeps this infallible.
    let [a0, a1, a2, a3, a4, a5, a6, a7, n0, n1, n2, n3, p0, p1, sid, flags] = *rec;
    let addr = u64::from_le_bytes([a0, a1, a2, a3, a4, a5, a6, a7]);
    let next_use = u32::from_le_bytes([n0, n1, n2, n3]);
    let pc = u16::from_le_bytes([p0, p1]);
    let packed = match flags {
        0 if next_use == 0 && pc == 0 && sid == 0 => trace.push_bubble(addr),
        FLAG_MEM | FLAG_WRITE_MEM => {
            let is_write = flags == FLAG_WRITE_MEM;
            trace.push_mem(&MemRef { addr, pc, sid, is_write, next_use })
        }
        _ => return Err(TraceIoError::MalformedEvent { index }),
    };
    packed.map_err(|error| TraceIoError::Unpackable { index, error })
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
    for ev in trace.iter() {
        sum.update(&record(ev));
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
    for ev in trace.iter() {
        put(&mut w, &mut sum, &record(ev))?;
    }
    w.write_all(&(trace.events.len() as u64).to_le_bytes())?;
    w.write_all(&sum.finish().to_le_bytes())?;
    w.flush()
}

/// Deserialize a trace, verifying the length + checksum footer.
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
    let mut trace = CompactTrace::default();
    trace.instructions = instructions;
    trace.events.reserve((count as usize).min(1 << 20));
    // The first event that does not decode is reported only once the
    // footer checks pass: a corrupt file says so, not which byte broke.
    let mut bad_event = None;
    let mut rec = [0u8; RECORD_BYTES];
    for index in 0..count {
        r.read_exact(&mut rec)?;
        sum.update(&rec);
        if bad_event.is_none() {
            bad_event = push_record(&mut trace, &rec, index).err();
        }
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
    if let Some(e) = bad_event {
        return Err(e);
    }
    validate(&trace)?;
    Ok(trace)
}

fn validate(trace: &CompactTrace) -> Result<(), TraceIoError> {
    let counted = trace.events.iter().fold(0u64, |n, e| n.saturating_add(e.instr_count()));
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
            let r = MemRef::read((x % 100) as u16, (x % 8) as u8, (x >> 20) & 0xFFFFFFC0);
            rec.mem(if x.is_multiple_of(3) { r.with_next_use((x >> 40) as u32) } else { r });
            rec.bubble((x % 7) as u32 + 1);
        }
        rec.finish()
    }

    /// A well-framed file (valid footer) holding `records` verbatim.
    fn file_of(instructions: u64, records: &[[u8; RECORD_BYTES]]) -> Vec<u8> {
        let mut sum = Fnv1a::new();
        let mut body = Vec::new();
        body.extend_from_slice(&instructions.to_le_bytes());
        body.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for rec in records {
            body.extend_from_slice(rec);
        }
        sum.update(&body);
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
        buf.extend_from_slice(&sum.finish().to_le_bytes());
        buf
    }

    #[test]
    fn write_read_write_is_byte_identical() {
        let mut first = Vec::new();
        write_trace(&sample_trace(), &mut first).unwrap();
        let mut second = Vec::new();
        write_trace(&read_trace(&first[..]).unwrap(), &mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn well_framed_records_round_trip_through_the_packed_form() {
        let read = MemRef::read(3, 4, 0x1234_5678_9ac0).with_next_use(17);
        let recs = [record(Event::Bubble(5)), record(Event::Mem(read))];
        let trace = read_trace(&file_of(6, &recs)[..]).unwrap();
        assert_eq!(trace.iter().collect::<Vec<_>>(), [Event::Bubble(5), Event::Mem(read)]);
    }

    #[test]
    fn rejects_events_beyond_the_packing_limits() {
        let wide = record(Event::Mem(MemRef::read(1, 1, 1 << 48)));
        assert!(matches!(
            read_trace(&file_of(1, &[wide])[..]),
            Err(TraceIoError::Unpackable { index: 0, error: PackError::AddressTooWide(_) })
        ));
        let long = record(Event::Bubble(1 << 63));
        assert!(matches!(
            read_trace(&file_of(1 << 63, &[record(Event::Bubble(1)), long])[..]),
            Err(TraceIoError::Unpackable { index: 1, error: PackError::BubbleTooLong(_) })
        ));
        // One site more than the table holds.
        let recs: Vec<_> = (0..=crate::trace::MAX_TRACE_SITES as u64)
            .map(|i| record(Event::Mem(MemRef::read((i % 4096) as u16, (i / 4096) as u8, 0))))
            .collect();
        assert!(matches!(
            read_trace(&file_of(recs.len() as u64, &recs)[..]),
            Err(TraceIoError::Unpackable { index: 8192, error: PackError::SiteTableFull { .. } })
        ));
    }

    #[test]
    fn rejects_bubbles_carrying_memory_fields_and_unknown_flags() {
        let bubble = record(Event::Bubble(4));
        let mut with_pc = bubble;
        with_pc[12] = 1;
        let mut with_sid = bubble;
        with_sid[14] = 1;
        let mut with_hint = bubble;
        with_hint[8] = 1;
        let mut write_bubble = bubble;
        write_bubble[15] = 2;
        let mut unknown_flag = record(Event::Mem(MemRef::read(1, 1, 64)));
        unknown_flag[15] |= 4;
        for (what, bad) in [
            ("pc", with_pc),
            ("sid", with_sid),
            ("next_use", with_hint),
            ("write flag", write_bubble),
            ("unknown flag", unknown_flag),
        ] {
            let file = file_of(5, &[record(Event::Bubble(1)), bad]);
            assert!(
                matches!(read_trace(&file[..]), Err(TraceIoError::MalformedEvent { index: 1 })),
                "a bubble with a {what} must not decode"
            );
        }
    }

    #[test]
    fn instruction_count_overflow_is_an_error_not_a_panic() {
        let big = record(Event::Bubble(crate::trace::MAX_TRACE_BUBBLE));
        let file = file_of(7, &[big, big, big]);
        assert!(matches!(
            read_trace(&file[..]),
            Err(TraceIoError::InstructionCountMismatch { header: 7, counted: u64::MAX })
        ));
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn trace_checksum_matches_footer() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let footer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(trace_checksum(&trace), footer);
        // Distinct traces get distinct identities.
        let mut other = CompactTrace::default();
        other.instructions = trace.instructions;
        for (i, ev) in trace.iter().enumerate() {
            match ev {
                Event::Mem(mut r) => {
                    r.addr ^= if i == 0 { 0x40 } else { 0 };
                    other.push_mem(&r).unwrap();
                }
                Event::Bubble(n) => other.push_bubble(n).unwrap(),
            }
        }
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
        assert_eq!(trace, back);
        let _ = std::fs::remove_file(&path);
    }
}
