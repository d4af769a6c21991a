//! Pins the bytes of recorded kernel traces. Every simulated result is a
//! replay of one of these traces, so a kernel or T-OPT hint change that
//! alters a single address, PC or next-use hint must fail here first. Each
//! entry is the event count and `trace_checksum` of `Runner::trace`.

use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{all_workloads, Runner, Workload};
use simcore::trace_io::trace_checksum;
use simcore::Window;

fn check(runner: &Runner, workloads: &[Workload], expected: &[(usize, u64)]) {
    assert_eq!(workloads.len(), expected.len());
    let mut report = String::new();
    let mut ok = true;
    for (&w, &(events, hash)) in workloads.iter().zip(expected) {
        let trace = runner.trace(w);
        runner.evict_trace(w);
        let (got_events, got_hash) = (trace.len(), trace_checksum(&trace));
        report.push_str(&format!("({got_events}, {got_hash:#018x}), // {w}\n"));
        ok &= got_events == events && got_hash == hash;
    }
    assert!(ok, "{:?} traces changed; now:\n{report}", runner.scale);
}

fn kron(kernels: &[Kernel]) -> Vec<Workload> {
    kernels.iter().map(|&k| Workload::new(k, GraphInput::Kron)).collect()
}

/// All 36 workloads at Tiny scale. The 50K-instruction window is shorter
/// than most Tiny neighbor arrays, so T-OPT hints cover part of a sweep.
#[test]
fn tiny_traces_are_byte_identical() {
    let runner = Runner::new(SuiteScale::Tiny, Window::new(10_000, 40_000));
    check(&runner, &all_workloads(), &TINY);
}

/// Event count and checksum per workload, in `all_workloads` order.
const TINY: [(usize, u64); 36] = [
    (19264, 0xe5c74fab19a72f2f), // bc.web
    (17941, 0x66eb5e0f416b4efc), // bc.road
    (18335, 0x120e3d94e0fdeae2), // bc.twitter
    (16680, 0xd640a3200390b3cb), // bc.kron
    (19183, 0xb4492c32a3891fa9), // bc.urand
    (18749, 0x485d0f295ca8349e), // bc.friendster
    (16328, 0x6825a4d8bd465107), // bfs.web
    (17116, 0x7f924defca0bed15), // bfs.road
    (18992, 0xf10ab6bd5600fe4d), // bfs.twitter
    (20175, 0xd81ee6b6ea660cc6), // bfs.kron
    (16410, 0x8240d6121d8445ff), // bfs.urand
    (18905, 0xe9a36ce134d160c6), // bfs.friendster
    (15121, 0x56aa8dc7122f2e97), // cc.web
    (16445, 0xb69328ec2035516f), // cc.road
    (15027, 0x36c2b61d876c7daa), // cc.twitter
    (15046, 0x07ce307c226fbd35), // cc.kron
    (15317, 0x1707d490f9f38f23), // cc.urand
    (15027, 0x239a78e69e11e50a), // cc.friendster
    (15621, 0x8005c3d9b8c29dcb), // pr.web
    (16255, 0xe77a76d83b2d1566), // pr.road
    (15597, 0x5cc957a61af54bd1), // pr.twitter
    (15603, 0x8f5e29c5986d1694), // pr.kron
    (15744, 0x0ae38eba373c2dfd), // pr.urand
    (15598, 0x587fa663191c5694), // pr.friendster
    (25000, 0x6de926c1dad7dd63), // tc.web
    (24395, 0x845d6f84ebab5930), // tc.road
    (25001, 0xd34167bb89195b6a), // tc.twitter
    (25000, 0x7d5f32fdcc8e3d90), // tc.kron
    (24979, 0x179f572998fafce8), // tc.urand
    (25001, 0x80ae084eeec5fc16), // tc.friendster
    (20391, 0xce674d6ce2fdaffc), // sssp.web
    (19021, 0x26f27e75f0fbc1a9), // sssp.road
    (20203, 0xe0434d0b79f2b913), // sssp.twitter
    (19301, 0x1c94785d6bbe2757), // sssp.kron
    (20570, 0xcf75d8279299e4a2), // sssp.urand
    (20290, 0xa95fe22f034511e7), // sssp.friendster
];

/// The six kron kernels at Small scale with perfbench's 1M + 4M window.
#[test]
fn small_kron_traces_are_byte_identical() {
    let runner = Runner::new(SuiteScale::Small, Window::new(1_000_000, 4_000_000));
    check(
        &runner,
        &kron(&Kernel::ALL),
        &[
            (1694615, 0xc1716688acefa39d), // bc.kron
            (2027599, 0x3b11bf2e76cf073c), // bfs.kron
            (1510373, 0xb73cf85cfbf3178a), // cc.kron
            (1514529, 0xd14fd65a8ac58667), // pr.kron
            (2500000, 0xf93d61038380f233), // tc.kron
            (1876621, 0xd8a71205dddeb54a), // sssp.kron
        ],
    );
}

/// The two hinted kernels on full-scale kron with perfbench's window: the
/// window is a small slice of the 81M-entry neighbor array. Run with
/// `cargo test --release -p gpworkloads --test trace_digest -- --ignored`.
#[test]
#[ignore = "builds the 81M-edge full-scale kron graph"]
fn full_kron_hinted_traces_are_byte_identical() {
    let runner = Runner::new(SuiteScale::Full, Window::new(1_000_000, 4_000_000));
    check(
        &runner,
        &kron(&[Kernel::Pr, Kernel::Cc]),
        &[
            (2105843, 0x250befded8e182e2), // pr.kron
            (1500740, 0xf9b1664742129aa2), // cc.kron
        ],
    );
}
