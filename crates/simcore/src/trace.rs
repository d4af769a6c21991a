//! The trace contract between the instrumented GAP kernels and the simulator.
//!
//! Kernels *push* events into a [`Tracer`]: one [`MemRef`] per memory
//! instruction plus "bubble" events standing in for the surrounding
//! non-memory instructions. A compact recorded form ([`CompactTrace`]) lets
//! one kernel execution be replayed through every evaluated system
//! configuration, mirroring ChampSim's trace-driven methodology.

/// Identifies which program data structure an access touches.
///
/// Structure ids drive the Expert Programmer router (Fig. 13) and let the
/// T-OPT replacement policy restrict its oracle to irregular property data.
pub type StructId = u8;

/// Structure id used for accesses that belong to no tracked array
/// (stack-like or scalar traffic).
pub const SID_NONE: StructId = 0;

/// A single memory reference as emitted by an instrumented kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Byte address of the access (48-bit physical).
    pub addr: u64,
    /// Synthetic program counter: one per static access site in the kernel.
    pub pc: u16,
    /// Data-structure id of the array being accessed.
    pub sid: StructId,
    /// True for stores.
    pub is_write: bool,
    /// Oracle next-use distance hint for the T-OPT replacement policy:
    /// the global access-position at which this block's vertex is next
    /// referenced. `u32::MAX` means "no hint / never again".
    pub next_use: u32,
}

impl MemRef {
    /// A plain read with no oracle hint.
    pub fn read(pc: u16, sid: StructId, addr: u64) -> Self {
        MemRef { addr, pc, sid, is_write: false, next_use: u32::MAX }
    }

    /// A plain write with no oracle hint.
    pub fn write(pc: u16, sid: StructId, addr: u64) -> Self {
        MemRef { addr, pc, sid, is_write: true, next_use: u32::MAX }
    }

    /// Attach a T-OPT next-use hint.
    pub fn with_next_use(mut self, pos: u32) -> Self {
        self.next_use = pos;
        self
    }
}

/// Sink for the instruction stream produced by an instrumented kernel.
///
/// Kernels must call [`Tracer::done`] at loop boundaries and stop promptly
/// once it returns true; this implements the windowed (SimPoint-like)
/// simulation regions.
pub trait Tracer {
    /// Emit one memory instruction.
    fn mem(&mut self, r: MemRef);
    /// Emit `n` non-memory instructions.
    fn bubble(&mut self, n: u32);
    /// True once the simulation window is exhausted.
    fn done(&self) -> bool;

    /// How many more instructions this tracer will keep, or `None` while it
    /// discards them. Kernels skip hint work for discarded loads and size
    /// the T-OPT next-use window to what is kept. A live tracer keeps
    /// everything: the default is unbounded.
    fn will_keep(&self) -> Option<u64> {
        Some(u64::MAX)
    }

    /// Convenience: emit a read.
    fn load(&mut self, pc: u16, sid: StructId, addr: u64) {
        self.mem(MemRef::read(pc, sid, addr));
    }

    /// Convenience: emit a write.
    fn store(&mut self, pc: u16, sid: StructId, addr: u64) {
        self.mem(MemRef::write(pc, sid, addr));
    }
}

/// A tracer that discards everything; used to run kernels for their
/// computational result only (e.g. in correctness tests).
#[derive(Debug, Default)]
pub struct NullTracer {
    instrs: u64,
    limit: Option<u64>,
}

impl NullTracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stop the kernel after `limit` instructions (still discarding events).
    pub fn with_limit(limit: u64) -> Self {
        NullTracer { instrs: 0, limit: Some(limit) }
    }

    pub fn instructions(&self) -> u64 {
        self.instrs
    }
}

impl Tracer for NullTracer {
    fn mem(&mut self, _r: MemRef) {
        self.instrs += 1;
    }

    fn bubble(&mut self, n: u32) {
        self.instrs += u64::from(n);
    }

    fn done(&self) -> bool {
        self.limit.is_some_and(|l| self.instrs >= l)
    }

    fn will_keep(&self) -> Option<u64> {
        None
    }
}

/// Largest address a [`TraceEvent`] holds: addresses are 48-bit.
pub const MAX_TRACE_ADDR: u64 = (1 << 48) - 1;
/// Largest instruction count one bubble [`TraceEvent`] holds.
pub const MAX_TRACE_BUBBLE: u64 = (1 << 63) - 1;
/// Most distinct `(pc, sid)` sites one [`CompactTrace`] holds.
pub const MAX_TRACE_SITES: usize = 1 << 13;
/// Events per rank-table block (see [`CompactTrace::cursor_at`]).
const RANK_BLOCK: usize = 4096;

/// One entry of a [`CompactTrace`]: a single packed `u64` (8 bytes).
///
/// ```text
/// bubble: [63]=0 | [62:0] instruction count
/// memory: [63]=1 | [62] write | [61] hinted | [60:48] site index | [47:0] address
/// ```
///
/// A memory event's `(pc, sid)` lives in its trace's site table and its
/// T-OPT next-use hint, when it has one, in its trace's hint table, so only
/// the owning [`CompactTrace`] decodes it into a [`MemRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct TraceEvent(u64);

impl TraceEvent {
    const MEM: u64 = 1 << 63;
    const WRITE: u64 = 1 << 62;
    const HINTED: u64 = 1 << 61;
    const SITE_SHIFT: u32 = 48;
    const SITE_MASK: u64 = (MAX_TRACE_SITES as u64) - 1;

    pub fn is_mem(self) -> bool {
        self.0 & Self::MEM != 0
    }

    pub fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    fn is_hinted(self) -> bool {
        self.0 & Self::HINTED != 0
    }

    /// Number of instructions this event represents.
    pub fn instr_count(self) -> u64 {
        if self.is_mem() {
            1
        } else {
            self.0
        }
    }
}

/// A decoded [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `n` non-memory instructions.
    Bubble(u64),
    /// One memory instruction.
    Mem(MemRef),
}

/// Why an event does not fit the packed [`TraceEvent`] layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// A memory address above [`MAX_TRACE_ADDR`].
    AddressTooWide(u64),
    /// A bubble longer than [`MAX_TRACE_BUBBLE`] instructions.
    BubbleTooLong(u64),
    /// A new `(pc, sid)` site beyond [`MAX_TRACE_SITES`].
    SiteTableFull { pc: u16, sid: StructId },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::AddressTooWide(a) => write!(f, "address {a:#x} is wider than 48 bits"),
            PackError::BubbleTooLong(n) => write!(f, "bubble of {n} instructions is too long"),
            PackError::SiteTableFull { pc, sid } => {
                write!(f, "site (pc {pc:#x}, sid {sid}) exceeds the {MAX_TRACE_SITES}-site table")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// A recorded, windowed instruction trace for one workload.
///
/// Recording once and replaying through every system configuration keeps
/// every comparison in the evaluation input-identical, exactly like the
/// paper's SimPoint traces. Events are packed ([`TraceEvent`]); replay
/// decodes them through a [`TraceCursor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactTrace {
    pub events: Vec<TraceEvent>,
    pub instructions: u64,
    /// Distinct `(pc, sid)` pairs in first-use order; memory events index it.
    sites: Vec<(u16, StructId)>,
    /// Next-use hints of the hinted memory events, in event order.
    hints: Vec<u32>,
    /// `hint_rank[k]`: hints held by the events before event
    /// `k * RANK_BLOCK`, so a cursor at any position costs one lookup plus
    /// a scan of less than one block.
    hint_rank: Vec<usize>,
}

/// A replay position in a [`CompactTrace`]: the next event and the next
/// hint. Position 0 is `TraceCursor::default()`; any other comes from
/// [`CompactTrace::cursor_at`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    pos: usize,
    hint: usize,
}

impl TraceCursor {
    /// Index of the next event.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// A cursor at `pos` whose hint position is not known yet (a restored
    /// snapshot stores event positions only): resolve it with
    /// [`CompactTrace::cursor_at`] before decoding through it.
    pub(crate) fn unresolved(pos: usize) -> Self {
        TraceCursor { pos, hint: usize::MAX }
    }
}

impl CompactTrace {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of memory references in the trace.
    pub fn mem_refs(&self) -> u64 {
        self.events.iter().filter(|e| e.is_mem()).count() as u64
    }

    /// In-memory footprint of the recorded trace in bytes: the packed
    /// events plus the site, hint and rank tables.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.events.as_slice())
            + size_of_val(self.sites.as_slice())
            + size_of_val(self.hints.as_slice())
            + size_of_val(self.hint_rank.as_slice())
    }

    /// The cursor at event `pos` (clamped to the trace length): one
    /// rank-table lookup plus a scan of less than `RANK_BLOCK` events.
    // simlint::allow(panic-path): `start <= pos <= len` by construction, so the slice cannot fire
    pub fn cursor_at(&self, pos: usize) -> TraceCursor {
        let pos = pos.min(self.events.len());
        let block = pos / RANK_BLOCK;
        let start = block * RANK_BLOCK;
        let before = self.hint_rank.get(block).copied().unwrap_or(self.hints.len());
        let hint = before + self.events[start..pos].iter().filter(|e| e.is_hinted()).count();
        TraceCursor { pos, hint }
    }

    /// Decode the event under `cur` and advance past it; `None` at the end.
    #[inline]
    pub fn next_event(&self, cur: &mut TraceCursor) -> Option<Event> {
        let ev = *self.events.get(cur.pos)?;
        cur.pos += 1;
        Some(self.decode(ev, cur))
    }

    /// Decode the event under `cur`, then advance past it, wrapping to the
    /// start after the last event (how a multicore run replays a trace
    /// shorter than its window). `cur` must be inside the trace.
    #[inline]
    // simlint::allow(panic-path): the cursor starts at 0 of a non-empty trace and wraps at its end; a restored position past the end would come from another trace's snapshot
    pub(crate) fn next_event_wrapping(&self, cur: &mut TraceCursor) -> Event {
        let ev = self.events[cur.pos];
        cur.pos += 1;
        let decoded = self.decode(ev, cur);
        if cur.pos == self.events.len() {
            *cur = TraceCursor::default();
        }
        decoded
    }

    #[inline]
    // simlint::allow(panic-path): site indices and hint ranks are assigned by this trace's own push_mem, so both table lookups are in range
    fn decode(&self, ev: TraceEvent, cur: &mut TraceCursor) -> Event {
        if !ev.is_mem() {
            return Event::Bubble(ev.0);
        }
        let (pc, sid) =
            self.sites[((ev.0 >> TraceEvent::SITE_SHIFT) & TraceEvent::SITE_MASK) as usize];
        let next_use = if ev.is_hinted() {
            cur.hint += 1;
            self.hints[cur.hint - 1]
        } else {
            u32::MAX
        };
        Event::Mem(MemRef {
            addr: ev.0 & MAX_TRACE_ADDR,
            pc,
            sid,
            is_write: ev.is_write(),
            next_use,
        })
    }

    /// Every event, decoded, from the start.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        let mut cur = TraceCursor::default();
        std::iter::from_fn(move || self.next_event(&mut cur))
    }

    /// Every memory reference, decoded, in trace order.
    pub fn refs(&self) -> impl Iterator<Item = MemRef> + '_ {
        self.iter().filter_map(|e| match e {
            Event::Mem(r) => Some(r),
            Event::Bubble(_) => None,
        })
    }

    /// Append a memory event. The instruction count is the caller's.
    pub(crate) fn push_mem(&mut self, r: &MemRef) -> Result<(), PackError> {
        if r.addr > MAX_TRACE_ADDR {
            return Err(PackError::AddressTooWide(r.addr));
        }
        let site = match self.sites.iter().position(|&s| s == (r.pc, r.sid)) {
            Some(i) => i,
            None if self.sites.len() < MAX_TRACE_SITES => {
                self.sites.push((r.pc, r.sid));
                self.sites.len() - 1
            }
            None => return Err(PackError::SiteTableFull { pc: r.pc, sid: r.sid }),
        };
        let mut word = TraceEvent::MEM | ((site as u64) << TraceEvent::SITE_SHIFT) | r.addr;
        if r.is_write {
            word |= TraceEvent::WRITE;
        }
        self.mark_rank();
        if r.next_use != u32::MAX {
            word |= TraceEvent::HINTED;
            self.hints.push(r.next_use);
        }
        self.events.push(TraceEvent(word));
        Ok(())
    }

    /// Append a bubble of `n` instructions. The instruction count is the
    /// caller's.
    pub(crate) fn push_bubble(&mut self, n: u64) -> Result<(), PackError> {
        if n > MAX_TRACE_BUBBLE {
            return Err(PackError::BubbleTooLong(n));
        }
        self.mark_rank();
        self.events.push(TraceEvent(n));
        Ok(())
    }

    /// Open a rank-table entry when the next event starts a block.
    fn mark_rank(&mut self) {
        if self.events.len().is_multiple_of(RANK_BLOCK) {
            self.hint_rank.push(self.hints.len());
        }
    }
}

/// Tracer that records a [`CompactTrace`] up to an instruction limit,
/// optionally fast-forwarding first.
#[derive(Debug)]
pub struct RecordingTracer {
    trace: CompactTrace,
    limit: u64,
    pending_bubbles: u64,
    /// Instructions still to skip before recording starts (the SimPoint
    /// fast-forward into the workload's representative phase).
    skip_remaining: u64,
}

impl RecordingTracer {
    /// Record up to `limit` instructions (memory refs + bubbles).
    pub fn new(limit: u64) -> Self {
        Self::with_skip(0, limit)
    }

    /// Fast-forward `skip` instructions (counted, not recorded), then
    /// record up to `limit` — the SimPoint methodology of Section IV-C:
    /// the recorded region starts inside the kernel's steady-state phase.
    pub fn with_skip(skip: u64, limit: u64) -> Self {
        RecordingTracer {
            trace: CompactTrace::default(),
            limit,
            pending_bubbles: 0,
            skip_remaining: skip,
        }
    }

    // simlint::allow(panic-path): bubble() flushes before pending_bubbles could pass MAX_TRACE_BUBBLE, so the push cannot fail
    fn flush_bubbles(&mut self) {
        if self.pending_bubbles > 0 {
            // simlint::allow(unwrap): invariant — bubble() flushes before pending_bubbles could pass MAX_TRACE_BUBBLE
            self.trace.push_bubble(self.pending_bubbles).expect("bubble fits the packed trace");
            self.pending_bubbles = 0;
        }
    }

    /// Finish recording and return the trace.
    pub fn finish(mut self) -> CompactTrace {
        self.flush_bubbles();
        self.trace
    }
}

impl Tracer for RecordingTracer {
    // simlint::allow(panic-path): only a kernel breaking the MemRef contract (an address past 48 bits, more than MAX_TRACE_SITES access sites) reaches the panic; the sweep executor contains it as a failed recording
    fn mem(&mut self, r: MemRef) {
        if self.skip_remaining > 0 {
            self.skip_remaining -= 1;
            return;
        }
        if self.done() {
            return;
        }
        self.flush_bubbles();
        if let Err(e) = self.trace.push_mem(&r) {
            panic!("kernel event does not fit the packed trace: {e}");
        }
        self.trace.instructions += 1;
    }

    fn bubble(&mut self, n: u32) {
        let mut n = u64::from(n);
        if self.skip_remaining > 0 {
            let skipped = n.min(self.skip_remaining);
            self.skip_remaining -= skipped;
            n -= skipped;
            if n == 0 {
                return;
            }
        }
        if self.done() {
            return;
        }
        let n = n.min(self.limit - self.trace.instructions);
        if self.pending_bubbles > MAX_TRACE_BUBBLE - n {
            self.flush_bubbles();
        }
        self.pending_bubbles += n;
        self.trace.instructions += n;
    }

    fn done(&self) -> bool {
        self.trace.instructions >= self.limit
    }

    fn will_keep(&self) -> Option<u64> {
        if self.skip_remaining > 0 || self.done() {
            return None;
        }
        Some(self.limit - self.trace.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_respects_limit() {
        let mut t = RecordingTracer::new(10);
        for i in 0..20 {
            t.load(1, 2, i * 64);
        }
        assert!(t.done());
        let trace = t.finish();
        assert_eq!(trace.instructions, 10);
        assert_eq!(trace.len(), 10);
    }

    #[test]
    fn bubbles_coalesce() {
        let mut t = RecordingTracer::new(100);
        t.bubble(3);
        t.bubble(4);
        t.load(1, 0, 64);
        t.bubble(2);
        let trace = t.finish();
        assert_eq!(trace.instructions, 10);
        // coalesced: [bubble(7), mem, bubble(2)]
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.events[0].instr_count(), 7);
        assert!(trace.events[1].is_mem());
        assert_eq!(trace.events[2].instr_count(), 2);
        let decoded: Vec<Event> = trace.iter().collect();
        assert_eq!(
            decoded,
            [Event::Bubble(7), Event::Mem(MemRef::read(1, 0, 64)), Event::Bubble(2)]
        );
    }

    #[test]
    fn bubble_clamped_at_limit() {
        let mut t = RecordingTracer::new(5);
        t.bubble(100);
        assert!(t.done());
        let trace = t.finish();
        assert_eq!(trace.instructions, 5);
    }

    #[test]
    fn skip_fast_forwards_before_recording() {
        let mut t = RecordingTracer::with_skip(100, 10);
        // 90 bubbles + 10 loads are skipped entirely.
        t.bubble(90);
        for i in 0..10 {
            t.load(1, 0, i * 64);
        }
        assert!(!t.done());
        // Recording starts here.
        t.load(2, 0, 0xAA40);
        t.bubble(50);
        let trace = t.finish();
        assert_eq!(trace.instructions, 10);
        assert_eq!(trace.refs().next().map(|r| r.pc), Some(2));
    }

    #[test]
    fn skip_splits_a_straddling_bubble() {
        let mut t = RecordingTracer::with_skip(5, 100);
        t.bubble(8); // 5 skipped, 3 recorded
        let trace = t.finish();
        assert_eq!(trace.instructions, 3);
    }

    #[test]
    fn mem_ref_round_trip() {
        let mut t = RecordingTracer::new(10);
        let r = MemRef::write(7, 3, 0xdead_beef).with_next_use(42);
        t.mem(r);
        let trace = t.finish();
        assert_eq!(trace.iter().collect::<Vec<_>>(), [Event::Mem(r)]);
    }

    #[test]
    fn trace_event_is_one_word() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 8);
    }

    /// Pack `events` into a trace and decode them back.
    fn round_trip(events: &[Event]) -> (CompactTrace, Vec<Event>) {
        let mut trace = CompactTrace::default();
        for e in events {
            match e {
                Event::Bubble(n) => trace.push_bubble(*n).unwrap(),
                Event::Mem(r) => trace.push_mem(r).unwrap(),
            }
        }
        let back = trace.iter().collect();
        (trace, back)
    }

    #[test]
    fn packing_round_trips_at_the_limits() {
        let events = [
            Event::Mem(MemRef::write(u16::MAX, u8::MAX, MAX_TRACE_ADDR).with_next_use(0)),
            Event::Bubble(MAX_TRACE_BUBBLE),
            Event::Mem(MemRef::read(0, 0, 0).with_next_use(u32::MAX - 1)),
            Event::Bubble(0),
            Event::Mem(MemRef::read(1, 2, MAX_TRACE_ADDR)),
        ];
        let (trace, back) = round_trip(&events);
        assert_eq!(back, events);
        assert!(!trace.events[1].is_mem());
        assert_eq!(trace.events[1].instr_count(), MAX_TRACE_BUBBLE);
    }

    #[test]
    fn full_site_table_round_trips_and_then_refuses_a_new_site() {
        let events: Vec<Event> = (0..MAX_TRACE_SITES)
            .map(|i| {
                let r = MemRef::read((i % 4096) as u16, (i / 4096) as u8, i as u64 * 64);
                Event::Mem(if i.is_multiple_of(3) { r.with_next_use(i as u32) } else { r })
            })
            .collect();
        let (mut trace, back) = round_trip(&events);
        assert_eq!(back, events);
        // Known sites still pack; a new one does not.
        assert!(trace.push_mem(&MemRef::read(4095, 1, 64)).is_ok());
        assert_eq!(
            trace.push_mem(&MemRef::read(7, 9, 64)),
            Err(PackError::SiteTableFull { pc: 7, sid: 9 })
        );
        assert_eq!(
            trace.push_mem(&MemRef::read(0, 0, MAX_TRACE_ADDR + 1)),
            Err(PackError::AddressTooWide(MAX_TRACE_ADDR + 1))
        );
        assert_eq!(
            trace.push_bubble(MAX_TRACE_BUBBLE + 1),
            Err(PackError::BubbleTooLong(MAX_TRACE_BUBBLE + 1))
        );
    }

    #[test]
    fn cursor_at_any_position_matches_a_sequential_walk() {
        // Hinted events at an irregular rate across several rank blocks.
        let mut rec = RecordingTracer::new(u64::MAX);
        for i in 0..3 * RANK_BLOCK as u64 + 77 {
            let r = MemRef::read((i % 5) as u16, 1, i * 64);
            rec.mem(if i % 7 < 2 { r.with_next_use(i as u32) } else { r });
            if i.is_multiple_of(11) {
                rec.bubble(3);
            }
        }
        let trace = rec.finish();
        let mut walk = TraceCursor::default();
        for pos in 0..=trace.len() {
            assert_eq!(trace.cursor_at(pos), walk, "cursor at {pos}");
            trace.next_event(&mut walk);
        }
        assert_eq!(trace.cursor_at(usize::MAX), trace.cursor_at(trace.len()));
    }

    #[test]
    fn footprint_counts_every_table() {
        let mut rec = RecordingTracer::new(100);
        rec.mem(MemRef::read(1, 1, 64).with_next_use(5));
        rec.bubble(2);
        rec.mem(MemRef::read(2, 1, 128));
        let trace = rec.finish();
        // 3 events, 2 sites, 1 hint, 1 rank entry.
        let want = 3 * 8 + 2 * std::mem::size_of::<(u16, StructId)>() + 4 + 8;
        assert_eq!(trace.footprint_bytes(), want);
    }

    #[test]
    fn recording_tracer_reports_what_it_will_keep() {
        let mut t = RecordingTracer::with_skip(3, 10);
        assert_eq!(t.will_keep(), None, "skipping");
        t.bubble(2);
        t.load(1, 0, 0);
        assert_eq!(t.will_keep(), Some(10), "skip just ended");
        t.load(1, 0, 64);
        t.bubble(4);
        assert_eq!(t.will_keep(), Some(5), "recording");
        t.bubble(20);
        assert!(t.done());
        assert_eq!(t.will_keep(), None, "full");
    }

    #[test]
    fn null_tracer_keeps_nothing() {
        assert_eq!(NullTracer::new().will_keep(), None);
        let mut t = NullTracer::with_limit(8);
        t.bubble(2);
        assert_eq!(t.will_keep(), None);
    }

    #[test]
    fn null_tracer_counts_and_limits() {
        let mut t = NullTracer::with_limit(8);
        t.bubble(5);
        assert!(!t.done());
        t.load(0, 0, 0);
        t.store(0, 0, 64);
        t.load(0, 0, 128);
        assert!(t.done());
        assert_eq!(t.instructions(), 8);
    }
}
