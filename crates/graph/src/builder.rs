//! Edge-list → CSR construction with the usual graph-benchmark hygiene:
//! optional symmetrization, self-loop removal, neighbor sorting and
//! deduplication (GAP's builder performs the same steps).

use crate::csr::{Csr, VertexId};

/// Builder options.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Add the reverse of every edge (undirected graphs).
    pub symmetrize: bool,
    /// Drop (v, v) edges.
    pub remove_self_loops: bool,
    /// Sort each neighbor list and drop duplicate edges.
    pub sort_and_dedup: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { symmetrize: false, remove_self_loops: true, sort_and_dedup: true }
    }
}

/// Build a CSR from an edge list over `num_vertices` vertices.
///
/// Besides `edges`, the build holds only the offset array and one neighbor
/// array with a slot per kept directed edge: the offsets double as
/// scatter cursors, and sorting and deduplication compact the neighbor
/// lists in place.
// simlint::allow(panic-path): edge endpoints are < num_vertices by generator contract, so offset indexing is in range
pub fn build_csr(num_vertices: usize, edges: &[(VertexId, VertexId)], opts: BuildOptions) -> Csr {
    let keep = |u: VertexId, v: VertexId| !(opts.remove_self_loops && u == v);

    // Count degrees one slot ahead, then prefix-sum: offsets[v] is the
    // start of v's list.
    let mut offsets = vec![0u64; num_vertices + 1];
    for &(u, v) in edges {
        if !keep(u, v) {
            continue;
        }
        offsets[u as usize + 1] += 1;
        if opts.symmetrize {
            offsets[v as usize + 1] += 1;
        }
    }
    for v in 0..num_vertices {
        offsets[v + 1] += offsets[v];
    }

    // Scatter, advancing offsets[v] as v's cursor. Afterwards offsets[v]
    // holds the end of v's list, i.e. the start of v + 1's; shifting the
    // array up one slot restores the starts.
    let total = offsets[num_vertices] as usize;
    let mut neighbors = vec![0 as VertexId; total];
    for &(u, v) in edges {
        if !keep(u, v) {
            continue;
        }
        neighbors[offsets[u as usize] as usize] = v;
        offsets[u as usize] += 1;
        if opts.symmetrize {
            neighbors[offsets[v as usize] as usize] = u;
            offsets[v as usize] += 1;
        }
    }
    offsets.copy_within(..num_vertices, 1);
    offsets[0] = 0;

    if !opts.sort_and_dedup {
        return Csr::from_raw(offsets, neighbors);
    }

    // Sort each list and drop duplicates, compacting toward the front of
    // the array. The write index never passes the read index, so no list
    // is overwritten before it is read.
    let mut write = 0;
    let mut lo = 0;
    for v in 0..num_vertices {
        let hi = offsets[v + 1] as usize;
        neighbors[lo..hi].sort_unstable();
        let start = write;
        for read in lo..hi {
            let n = neighbors[read];
            if write == start || neighbors[write - 1] != n {
                neighbors[write] = n;
                write += 1;
            }
        }
        offsets[v + 1] = write as u64;
        lo = hi;
    }
    neighbors.truncate(write);
    Csr::from_raw(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The obvious construction: filter, symmetrize, append to per-vertex
    /// lists in edge order, then sort and dedup each list through a set.
    fn naive_csr(num_vertices: usize, edges: &[(VertexId, VertexId)], opts: BuildOptions) -> Csr {
        let mut lists = vec![Vec::new(); num_vertices];
        for &(u, v) in edges {
            if opts.remove_self_loops && u == v {
                continue;
            }
            lists[u as usize].push(v);
            if opts.symmetrize {
                lists[v as usize].push(u);
            }
        }
        if opts.sort_and_dedup {
            for list in &mut lists {
                *list = list.iter().copied().collect::<BTreeSet<_>>().into_iter().collect();
            }
        }
        let mut offsets = vec![0u64];
        let mut neighbors = Vec::new();
        for list in lists {
            neighbors.extend(list);
            offsets.push(neighbors.len() as u64);
        }
        Csr::from_raw(offsets, neighbors)
    }

    /// Edges among vertices `0..live`, with repeats, self-loops, and a hub
    /// at vertex 1 on a third of them.
    fn messy_edges(live: VertexId, m: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = rng.random_range(0..live);
            let v = match rng.random_range(0..6) {
                0 => u,
                1 | 2 => 1,
                _ => rng.random_range(0..live),
            };
            edges.push(if rng.random::<bool>() { (u, v) } else { (v, u) });
            if rng.random_range(0..8) == 0 {
                edges.push((u, v));
            }
        }
        edges
    }

    #[test]
    fn matches_the_naive_builder_under_every_option() {
        for seed in 0..4 {
            // The upper half of the vertices stays isolated. The sparse
            // case leaves many lists holding just the hub, so adjacent
            // lists share their only element.
            let n: VertexId = 64 << seed;
            for m in [n as usize / 2, 8 * n as usize] {
                let edges = messy_edges(n / 2, m, seed);
                for bits in 0..8 {
                    let opts = BuildOptions {
                        symmetrize: bits & 1 != 0,
                        remove_self_loops: bits & 2 != 0,
                        sort_and_dedup: bits & 4 != 0,
                    };
                    let g = build_csr(n as usize, &edges, opts);
                    let at = format!("seed {seed}, {m} edges, {opts:?}");
                    assert_eq!(g, naive_csr(n as usize, &edges, opts), "{at}");
                    assert!((n / 2..n).all(|v| g.degree(v) == 0), "{at}");
                }
            }
        }
    }

    #[test]
    fn builds_fig1_graph() {
        let edges = vec![(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)];
        let g = build_csr(4, &edges, BuildOptions::default());
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let edges = vec![(0, 1), (1, 2)];
        let g = build_csr(3, &edges, BuildOptions { symmetrize: true, ..Default::default() });
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_removed_by_default() {
        let edges = vec![(0, 0), (0, 1), (1, 1)];
        let g = build_csr(2, &edges, BuildOptions::default());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn duplicates_removed_and_sorted() {
        let edges = vec![(0, 3), (0, 1), (0, 3), (0, 2), (0, 1)];
        let g = build_csr(4, &edges, BuildOptions::default());
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert!(g.is_sorted());
    }

    #[test]
    fn no_dedup_preserves_multiplicity() {
        let edges = vec![(0, 1), (0, 1)];
        let g = build_csr(2, &edges, BuildOptions { sort_and_dedup: false, ..Default::default() });
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let g = build_csr(5, &[(0, 4)], BuildOptions::default());
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
    }
}
