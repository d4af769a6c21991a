//! Synthetic "regular suite" — the SPEC 2006/2017 stand-in used by the
//! tau_glob sensitivity study (Section V-B3), whose role is to verify that
//! routing decisions tuned for graph workloads do not hurt workloads whose
//! accesses are overwhelmingly cache-friendly.

use gpkernels::{sid, AddressSpace};
use simcore::trace::Tracer;

/// The four canonical regular access patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegularKind {
    /// `a[i] = b[i] + c[i]` over large arrays (STREAM-like).
    Stream,
    /// 5-point 2-D stencil sweep.
    Stencil,
    /// Local random walk within an L1-resident footprint (hash-table hot
    /// loop): irregular-looking but short strides and cache-resident.
    SmallRandom,
    /// Pointer chase through a DRAM-resident linked list (mcf-like).
    PointerChase,
}

impl RegularKind {
    pub const ALL: [RegularKind; 4] = [
        RegularKind::Stream,
        RegularKind::Stencil,
        RegularKind::SmallRandom,
        RegularKind::PointerChase,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            RegularKind::Stream => "stream",
            RegularKind::Stencil => "stencil",
            RegularKind::SmallRandom => "small-random",
            RegularKind::PointerChase => "pointer-chase",
        }
    }
}

impl std::fmt::Display for RegularKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

mod pc {
    pub const STREAM_A: u16 = 0x70;
    pub const STREAM_B: u16 = 0x71;
    pub const STREAM_C: u16 = 0x72;
    pub const STENCIL_LOAD: u16 = 0x73;
    pub const STENCIL_STORE: u16 = 0x74;
    pub const SMALL_RANDOM: u16 = 0x75;
    pub const CHASE: u16 = 0x76;
}

/// Emit a regular workload's access stream until the tracer window closes.
pub fn run_regular<T: Tracer + ?Sized>(kind: RegularKind, asid: u8, t: &mut T) {
    let mut space = AddressSpace::new(asid);
    match kind {
        RegularKind::Stream => {
            // Three 32 MiB arrays of f64.
            let n = 4 << 20;
            let a = space.alloc(sid::PROP_A, 8, n);
            let b = space.alloc(sid::PROP_B, 8, n);
            let c = space.alloc(sid::DEGREE, 8, n);
            while !t.done() {
                for i in 0..n {
                    if i % 4096 == 0 && t.done() {
                        return;
                    }
                    b.load(t, pc::STREAM_B, i);
                    c.load(t, pc::STREAM_C, i);
                    a.store(t, pc::STREAM_A, i);
                    t.bubble(3);
                }
            }
        }
        RegularKind::Stencil => {
            let side = 1024u64;
            let grid = space.alloc(sid::PROP_A, 8, side * side);
            let out = space.alloc(sid::PROP_B, 8, side * side);
            while !t.done() {
                for r in 1..side - 1 {
                    if t.done() {
                        return;
                    }
                    for col in 1..side - 1 {
                        let i = r * side + col;
                        grid.load(t, pc::STENCIL_LOAD, i);
                        grid.load(t, pc::STENCIL_LOAD, i - 1);
                        grid.load(t, pc::STENCIL_LOAD, i + 1);
                        grid.load(t, pc::STENCIL_LOAD, i - side);
                        grid.load(t, pc::STENCIL_LOAD, i + side);
                        out.store(t, pc::STENCIL_STORE, i);
                        t.bubble(6);
                    }
                }
            }
        }
        RegularKind::SmallRandom => {
            // 16 KiB footprint, local random walk (steps of at most +-16
            // elements): the hot-hash-table pattern — data-dependent but
            // short-strided and L1-resident.
            let n = 4096u64;
            let arr = space.alloc(sid::PROP_A, 4, n);
            let mut x = 0x12345678u64;
            let mut pos = 0i64;
            while !t.done() {
                for _ in 0..4096 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let step = ((x >> 33) % 33) as i64 - 16;
                    pos = (pos + step).rem_euclid(n as i64);
                    arr.load(t, pc::SMALL_RANDOM, pos as u64);
                    t.bubble(2);
                }
            }
        }
        RegularKind::PointerChase => {
            // 16 MiB list, random permutation: DRAM-resident pointer
            // chasing (mcf-like). Genuinely cache-averse, so a correct
            // router *should* steer it to the SDC.
            let n = 262_144u64;
            let nodes = space.alloc(sid::PROP_A, 64, n);
            let mut cur = 0u64;
            while !t.done() {
                for _ in 0..4096 {
                    nodes.load(t, pc::CHASE, cur);
                    t.bubble(4);
                    cur = (cur.wrapping_mul(25214903917).wrapping_add(11)) % n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::trace::RecordingTracer;

    #[test]
    fn all_kinds_fill_their_window() {
        for kind in RegularKind::ALL {
            let mut rec = RecordingTracer::new(50_000);
            run_regular(kind, 0, &mut rec);
            let trace = rec.finish();
            assert!(trace.instructions >= 50_000, "{kind}");
            assert!(trace.mem_refs() > 5000, "{kind}");
        }
    }

    #[test]
    fn stream_is_sequential() {
        let mut rec = RecordingTracer::new(10_000);
        run_regular(RegularKind::Stream, 0, &mut rec);
        let trace = rec.finish();
        // Consecutive STREAM_B loads differ by exactly 8 bytes.
        let b_addrs: Vec<u64> =
            trace.refs().filter(|r| r.pc == pc::STREAM_B).map(|r| r.addr).collect();
        assert!(b_addrs.windows(2).all(|w| w[1] - w[0] == 8));
    }

    #[test]
    fn small_random_footprint_is_l1_sized_and_short_strided() {
        let mut rec = RecordingTracer::new(30_000);
        run_regular(RegularKind::SmallRandom, 0, &mut rec);
        let trace = rec.finish();
        let addrs: Vec<u64> = trace.refs().map(|r| r.addr).collect();
        let (lo, hi) = addrs.iter().fold((u64::MAX, 0), |(lo, hi), &a| (lo.min(a), hi.max(a)));
        assert!(hi - lo <= 16 * 1024, "footprint = {}", hi - lo);
        // Local walk: consecutive block strides stay small (the LP must
        // classify this as cache-friendly).
        let big_strides = addrs.windows(2).filter(|w| (w[0] >> 6).abs_diff(w[1] >> 6) > 8).count();
        assert!(
            big_strides * 10 < addrs.len(),
            "{big_strides} large strides in {} accesses",
            addrs.len()
        );
    }

    #[test]
    fn pointer_chase_is_dram_scale() {
        let mut rec = RecordingTracer::new(30_000);
        run_regular(RegularKind::PointerChase, 0, &mut rec);
        let trace = rec.finish();
        let (lo, hi) =
            trace.refs().fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.addr), hi.max(r.addr)));
        assert!(hi - lo > 4 * 1024 * 1024, "footprint = {}", hi - lo);
    }
}
