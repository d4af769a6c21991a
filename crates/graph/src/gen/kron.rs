//! Kronecker (R-MAT) generator — the construction behind GAP's `kron`
//! input (and a good stand-in for heavy-tailed social graphs).
//!
//! Each edge descends `scale` levels of the adjacency matrix, picking one
//! quadrant per level with probabilities A, B, C, D. A level draws
//! `r = (x >> 11) · 2⁻⁵³` and takes the first cut point in `A`, `A+B`,
//! `A+B+C` that `r` is below. Both sides of `r < t` are exact dyadic
//! rationals, so the test holds exactly when `x >> 11 < ceil(t · 2⁵³)`.
//! The sampler compares the integer draw with those three thresholds and
//! sums the results into a quadrant index: no data-dependent branch, and
//! the same random stream and edges as the float comparison.

use crate::builder::{build_csr, BuildOptions};
use crate::csr::{Csr, VertexId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// R-MAT initiator probabilities used by Graph500/GAP: A=0.57, B=C=0.19.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// The scale between a 53-bit draw and the unit interval.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// The smallest 53-bit draw `k` with `k · 2⁻⁵³ >= t`, for `t` in [0, 1].
fn threshold(t: f64) -> u64 {
    // t · 2⁵³ only shifts the exponent, and its ceiling is at most 2⁵³,
    // so both steps and the cast are exact.
    (t * TWO_POW_53).ceil() as u64
}

/// Generate an R-MAT graph with `2^scale` vertices and `edge_factor *
/// 2^scale` undirected edges, deterministically from `seed`.
pub fn kron(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let edges = rmat_edges(scale, edge_factor, seed);
    build_csr(n, &edges, BuildOptions { symmetrize: true, ..Default::default() })
}

/// The raw R-MAT edge list behind [`kron`], before symmetrization and
/// clean-up.
fn rmat_edges(scale: u32, edge_factor: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let m = edge_factor << scale;
    // Cut points summed in f64 in the same order as `r < A + B + C`.
    let (ta, tb, tc) = (threshold(A), threshold(A + B), threshold(A + B + C));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            let k = rng.next_u64() >> 11;
            // Quadrant 0..=3 in A, B, C, D order: bit 1 picks the row
            // half, bit 0 the column half.
            let q = u64::from(k >= ta) + u64::from(k >= tb) + u64::from(k >= tc);
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        edges.push((u as VertexId, v as VertexId));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;
    use rand::Rng;

    /// The float-comparison sampler `rmat_edges` replaced, kept as the
    /// oracle it must match draw for draw.
    fn branchy_rmat_edges(scale: u32, edge_factor: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
        let m = edge_factor << scale;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..scale {
                let r: f64 = rng.random();
                let (bu, bv) = if r < A {
                    (0, 0)
                } else if r < A + B {
                    (0, 1)
                } else if r < A + B + C {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | bu;
                v = (v << 1) | bv;
            }
            edges.push((u as VertexId, v as VertexId));
        }
        edges
    }

    #[test]
    fn integer_thresholds_match_the_float_test_at_every_boundary() {
        const MAX_DRAW: u64 = (1 << 53) - 1;
        for t in [A, A + B, A + B + C] {
            let tk = threshold(t);
            for k in [tk - 1, tk, tk + 1, 0, MAX_DRAW] {
                let float = (k as f64) * (1.0 / TWO_POW_53) < t;
                assert_eq!(k < tk, float, "cut {t}: draw {k} vs threshold {tk}");
            }
        }
    }

    #[test]
    fn branchless_sampler_matches_the_float_sampler() {
        for seed in [0, 1, 7, 0x6809, u64::MAX] {
            assert_eq!(rmat_edges(12, 16, seed), branchy_rmat_edges(12, 16, seed), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = kron(10, 8, 42);
        let b = kron(10, 8, 42);
        assert_eq!(a, b);
        let c = kron(10, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn size_is_as_requested() {
        let g = kron(12, 8, 1);
        assert_eq!(g.num_vertices(), 4096);
        // Dedup/self-loop removal shaves some edges off 2 * ef * n.
        assert!(g.num_edges() > 4096 * 8);
        assert!(g.num_edges() <= 4096 * 16);
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = kron(13, 16, 7);
        let stats = DegreeStats::of(&g);
        // R-MAT: the max degree dwarfs the average (power-law-ish tail).
        assert!(stats.max as f64 > 20.0 * stats.avg, "max {} vs avg {}", stats.max, stats.avg);
    }

    #[test]
    fn symmetric_and_valid() {
        let g = kron(8, 4, 3);
        g.validate().unwrap();
        for u in 0..g.num_vertices() as VertexId {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v).contains(&u), "missing reverse edge {v}->{u}");
            }
        }
    }
}
