//! Next-reference oracle for T-OPT (Balaji et al.), derived from the graph
//! exactly as the transpose-based hardware proposal derives it.
//!
//! For kernels that sweep the neighbors array in order every iteration
//! (pull-PageRank, Shiloach–Vishkin CC), the position at which a vertex's
//! property element is next accessed is fully determined by the NA: it is
//! the next NA slot holding the same vertex id, or failing that the
//! vertex's first slot in the next sweep. The instrumented kernels attach
//! these positions as `MemRef::next_use` hints, giving the T-OPT LLC
//! replacement policy the same foreknowledge the original hardware gets
//! from the transpose.
//!
//! A kernel owns one [`NextUseOracle`] per run. It computes nothing until
//! the tracer keeps a hinted load (none during the fast-forward, none in
//! correctness runs). At that load it builds a `NextUseWindow` over just
//! the NA positions the rest of the recording can reach.

use gpgraph::{Csr, VertexId};
use simcore::trace::Tracer;

/// Sentinel: no further occurrence.
const NONE: u32 = u32::MAX;

/// A kernel's T-OPT hint source for one run over the NA of `g`.
#[derive(Debug)]
pub struct NextUseOracle<'g> {
    g: &'g Csr,
    window: Option<NextUseWindow>,
}

impl<'g> NextUseOracle<'g> {
    /// An oracle over the neighbors array the kernel sweeps.
    pub fn new(g: &'g Csr) -> Self {
        NextUseOracle { g, window: None }
    }

    /// The hint for the hinted load at NA position `i` of sweep `sweep`,
    /// which reads vertex `v`. Until `t` keeps a hinted load this is
    /// `u32::MAX` and costs nothing; the first kept one builds the window.
    ///
    /// Hinted loads visit NA positions one by one, wrapping to 0 at each
    /// new sweep, so the kept ones are the first `will_keep` positions of
    /// the circular range that starts at the first kept load. Loads past
    /// that range are ones `t` discards.
    #[inline]
    pub fn hint<T: Tracer + ?Sized>(&mut self, t: &T, sweep: u32, i: u32, v: VertexId) -> u32 {
        if let Some(w) = &self.window {
            return w.hint(sweep, i, v);
        }
        let Some(keep) = t.will_keep() else {
            return NONE;
        };
        let w = self.window.insert(NextUseWindow::build(self.g, i, keep));
        w.hint(sweep, i, v)
    }
}

/// Same-sweep successors for the circular NA range
/// `[start, start + min(keep, E))`, plus every vertex's first position.
#[derive(Debug)]
struct NextUseWindow {
    /// First NA position of the window.
    start: u32,
    /// `next_pos[k]`: the next NA position referencing the same vertex as
    /// position `(start + k) mod E` within the same sweep, or `NONE`.
    next_pos: Vec<u32>,
    /// `first_pos[v]`: the first NA position referencing `v`, or `NONE`.
    first_pos: Vec<u32>,
    /// NA length (= hinted accesses per sweep).
    edges: u32,
}

impl NextUseWindow {
    /// One backward pass over the NA of `g`, keeping successors for the
    /// `keep` positions (at most one sweep's worth) from `start` on.
    // Runs once per kernel run; keep it out of the hinted-load loop.
    #[cold]
    // simlint::allow(panic-path): positions are edge indexes < num_edges; window slots are < len and vertex ids < num_vertices
    fn build(g: &Csr, start: u32, keep: u64) -> Self {
        let e = g.num_edges();
        assert!(e < NONE as usize, "graph too large for 32-bit oracle positions");
        assert!((start as usize) < e, "window start {start} outside the {e}-entry NA");
        let s = start as usize;
        let len = keep.min(e as u64) as usize;
        let mut next_pos = vec![NONE; len];
        let mut last_seen = vec![NONE; g.num_vertices()];
        // Backward scan threads each vertex's occurrences into a chain;
        // only the window's links are stored.
        for (i, &v) in g.raw_neighbors().iter().enumerate().rev() {
            let k = if i >= s { i - s } else { i + e - s };
            if k < len {
                next_pos[k] = last_seen[v as usize];
            }
            last_seen[v as usize] = i as u32;
        }
        // After the backward scan, last_seen holds each vertex's first
        // occurrence.
        NextUseWindow { start, next_pos, first_pos: last_seen, edges: e as u32 }
    }

    /// Absolute next-use position (in hinted-access units) for the access
    /// at position `i` of sweep `sweep` to vertex `v`. Returns `u32::MAX`
    /// if the position would overflow (effectively "far future") or `i`
    /// lies outside the window.
    #[inline]
    // simlint::allow(panic-path): v < num_vertices per kernel contract; first_pos is sized to match
    fn hint(&self, sweep: u32, i: u32, v: VertexId) -> u32 {
        let k = if i >= self.start { i - self.start } else { i + (self.edges - self.start) };
        let Some(&same_sweep) = self.next_pos.get(k as usize) else {
            return NONE;
        };
        if same_sweep != NONE {
            return sweep
                .checked_mul(self.edges)
                .and_then(|b| b.checked_add(same_sweep))
                .unwrap_or(NONE);
        }
        // Next occurrence is the vertex's first slot of the next sweep.
        let first = self.first_pos[v as usize];
        if first == NONE {
            return NONE;
        }
        (sweep + 1).checked_mul(self.edges).and_then(|b| b.checked_add(first)).unwrap_or(NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgraph::Csr;
    use rand::{Rng, SeedableRng};
    use simcore::trace::{NullTracer, RecordingTracer};

    /// NA = [1, 2, 2, 0, 2] (the paper's Fig. 1 CSR).
    fn fig1() -> Csr {
        Csr::from_raw(vec![0, 2, 3, 4, 5], vec![1, 2, 2, 0, 2])
    }

    fn whole(g: &Csr) -> NextUseWindow {
        NextUseWindow::build(g, 0, u64::MAX)
    }

    /// Brute force: the next later NA position holding `v`, else `v`'s
    /// first position in the next sweep, saturating to `u32::MAX`.
    fn reference(na: &[VertexId], sweep: u32, i: u32, v: VertexId) -> u32 {
        let e = na.len() as u32;
        let later = (i + 1..e).find(|&j| na[j as usize] == v);
        let (sweep, pos) = match later {
            Some(j) => (sweep, j),
            None => match (0..e).find(|&j| na[j as usize] == v) {
                Some(j) => (sweep + 1, j),
                None => return NONE,
            },
        };
        sweep.checked_mul(e).and_then(|b| b.checked_add(pos)).unwrap_or(NONE)
    }

    /// A seeded CSR whose lists are unsorted and repeat neighbors.
    fn messy(seed: u64, vertices: u32, edges: usize) -> Csr {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A few hot vertices make duplicates within a list common.
        let neighbors: Vec<VertexId> = (0..edges)
            .map(|_| {
                if rng.random_range(0..4u32) == 0 {
                    rng.random_range(0..4u32)
                } else {
                    rng.random_range(0..vertices)
                }
            })
            .collect();
        let mut cuts: Vec<u64> =
            (0..vertices - 1).map(|_| rng.random_range(0..=edges as u64)).collect();
        cuts.sort_unstable();
        let mut offsets = vec![0];
        offsets.extend(cuts);
        offsets.push(edges as u64);
        Csr::from_raw(offsets, neighbors)
    }

    /// Walks the window's positions in access order across sweeps, as a
    /// kernel does, and checks each hint against the brute force.
    fn check_window(g: &Csr, start: u32, keep: u64, first_sweep: u32) -> u64 {
        let na = g.raw_neighbors();
        let e = na.len() as u64;
        let w = NextUseWindow::build(g, start, keep);
        let mut checked = 0;
        for n in 0..keep.min(e) {
            let abs = u64::from(start) + n;
            let sweep = first_sweep + (abs / e) as u32;
            let i = (abs % e) as u32;
            let v = na[i as usize];
            assert_eq!(
                w.hint(sweep, i, v),
                reference(na, sweep, i, v),
                "start {start} keep {keep}: sweep {sweep} position {i} vertex {v}"
            );
            checked += 1;
        }
        checked
    }

    #[test]
    fn window_matches_brute_force_on_messy_graphs() {
        for seed in 1..=4 {
            let g = messy(seed, 40, 500);
            let e = g.num_edges() as u64;
            assert!(g.raw_neighbors().windows(2).any(|p| p[0] > p[1]), "lists are unsorted");
            // Starts mid-sweep and ends before the NA end.
            assert_eq!(check_window(&g, 137, 200, 0), 200);
            // Starts mid-sweep and wraps into the next sweep.
            assert_eq!(check_window(&g, 420, 160, 3), 160);
            // Spans more than a whole sweep: capped at one sweep's worth.
            assert_eq!(check_window(&g, 250, 3 * e, 1), e);
            assert_eq!(check_window(&g, 0, e, 0), e);
        }
    }

    #[test]
    fn positions_outside_the_window_get_no_hint() {
        let w = NextUseWindow::build(&fig1(), 3, 3); // positions 3, 4, 0
        assert_ne!(w.hint(0, 0, 1), NONE);
        assert_eq!(w.hint(0, 1, 2), NONE);
        assert_eq!(w.hint(0, 2, 2), NONE);
    }

    #[test]
    fn successor_chain_within_sweep() {
        let o = whole(&fig1());
        // Vertex 2 appears at positions 1, 2, 4.
        assert_eq!(o.hint(0, 1, 2), 2);
        assert_eq!(o.hint(0, 2, 2), 4);
        // Position 4 is vertex 2's last occurrence: next sweep, first slot 1.
        assert_eq!(o.hint(0, 4, 2), 5 + 1);
    }

    #[test]
    fn single_occurrence_wraps_to_next_sweep() {
        let o = whole(&fig1());
        // Vertex 0 appears only at position 3.
        assert_eq!(o.hint(0, 3, 0), 5 + 3);
        assert_eq!(o.hint(2, 3, 0), 3 * 5 + 3);
    }

    #[test]
    fn hints_are_strictly_in_the_future() {
        let g = gpgraph::gen::kron(8, 4, 3);
        let o = whole(&g);
        let e = g.num_edges() as u32;
        for sweep in 0..3u32 {
            for i in 0..e {
                let v = g.raw_neighbors()[i as usize];
                let h = o.hint(sweep, i, v);
                let now = sweep * e + i;
                assert!(h == u32::MAX || h > now, "hint {h} not after {now}");
            }
        }
    }

    #[test]
    fn overflow_saturates_to_far_future() {
        let o = whole(&fig1());
        assert_eq!(o.hint(u32::MAX / 4, 3, 0), u32::MAX);
    }

    #[test]
    fn oracle_builds_at_the_first_kept_load_and_sizes_to_it() {
        let g = fig1();
        let mut o = NextUseOracle::new(&g);
        assert_eq!(o.hint(&NullTracer::new(), 0, 1, 2), NONE);
        let mut t = RecordingTracer::with_skip(1, 2);
        assert_eq!(o.hint(&t, 0, 1, 2), NONE, "still skipping");
        assert!(o.window.is_none());
        t.bubble(1);
        assert_eq!(o.hint(&t, 0, 2, 2), 4);
        assert_eq!(o.window.as_ref().map(|w| (w.start, w.next_pos.len())), Some((2, 2)));
        assert_eq!(o.hint(&t, 0, 3, 0), 8);
    }
}
