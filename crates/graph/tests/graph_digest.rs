//! Pins the bytes of every suite graph. EXPERIMENTS.md, the golden
//! simulator results and `BENCH_sim.json` all rest on these inputs, so a
//! generator or builder change that alters a single neighbor id must fail
//! here first. Each digest is FNV-1a over the little-endian offsets
//! followed by the little-endian neighbor ids.

use gpgraph::{build, Csr, GraphInput, SuiteScale};
use simstate::Fnv1a;

fn digest(g: &Csr) -> u64 {
    let mut sum = Fnv1a::new();
    for &o in g.offsets() {
        sum.update(&o.to_le_bytes());
    }
    for &n in g.raw_neighbors() {
        sum.update(&n.to_le_bytes());
    }
    sum.finish()
}

fn check(scale: SuiteScale, expected: [(GraphInput, usize, u64); 6]) {
    let mut report = String::new();
    let mut ok = true;
    for (input, edges, hash) in expected {
        let g = build(input, scale);
        let (got_edges, got_hash) = (g.num_edges(), digest(&g));
        report.push_str(&format!("(GraphInput::{input:?}, {got_edges}, {got_hash:#018x}),\n"));
        ok &= got_edges == edges && got_hash == hash;
    }
    assert!(ok, "{scale:?} suite graphs changed; now:\n{report}");
}

#[test]
fn tiny_suite_graphs_are_byte_identical() {
    check(
        SuiteScale::Tiny,
        [
            (GraphInput::Web, 64854, 0x1658b01a0a8c96ae),
            (GraphInput::Road, 15324, 0x81b201583adec4a5),
            (GraphInput::Twitter, 78256, 0x0157396d3b93fbaa),
            (GraphInput::Kron, 64932, 0x33e339f48e3f4d24),
            (GraphInput::Urand, 81708, 0xbb5e697eb95b57c7),
            (GraphInput::Friendster, 111874, 0xa251bab3f7f8b71d),
        ],
    );
}

#[test]
fn small_suite_graphs_are_byte_identical() {
    check(
        SuiteScale::Small,
        [
            (GraphInput::Web, 1042352, 0xcfdae7d68c3d88a0),
            (GraphInput::Road, 246842, 0x950afedc2c8d5123),
            (GraphInput::Twitter, 1294540, 0x40d0e0e4baa5eb03),
            (GraphInput::Kron, 1178012, 0x27c34fac76061c46),
            (GraphInput::Urand, 1310506, 0x01cd2e041bcb6250),
            (GraphInput::Friendster, 1828442, 0x209e18c9d3414b5a),
        ],
    );
}

/// The full-scale kron graph every EXPERIMENTS.md number is measured on.
/// About ten seconds in release; run with
/// `cargo test --release -p gpgraph --test graph_digest -- --ignored`.
#[test]
#[ignore = "builds the 81M-edge full-scale kron graph"]
fn full_kron_is_byte_identical() {
    let g = build(GraphInput::Kron, SuiteScale::Full);
    assert_eq!(g.num_edges(), 81_173_286);
    assert_eq!(digest(&g), 0xd15e_956e_ec25_ff16, "full-scale kron digest changed");
}
