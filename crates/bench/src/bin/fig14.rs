#![forbid(unsafe_code)]
//! Figure 14: multi-core evaluation — normalized weighted speedup of each
//! design over Baseline across 50 random 4-thread mixes (Section IV-D
//! methodology).
//!
//! Paper reference geomeans: L1D 40KB ISO +0.02%, Distill -0.04%, T-OPT
//! +6.4%, 2xLLC +2.4%, SDC+LP +20.2% (max +69.3%).
//!
//! `--mixes N` limits the number of mixes (default 50).

use gpbench::{pct, HarnessOpts, TextTable};
use gpworkloads::{paper_mixes, MulticoreRunner, SystemKind};
use simcore::geomean;

fn main() {
    let mut mix_count = 50usize;
    let mut passthrough = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a == "--mixes" {
            mix_count = args.next().expect("--mixes needs a value").parse().expect("bad --mixes");
        } else {
            passthrough.push(a);
        }
    }
    let opts = HarnessOpts::parse_or_exit(passthrough);
    let runner = opts.runner();
    let mc = MulticoreRunner::new(&runner);

    let kinds = [
        SystemKind::L1d40kIso,
        SystemKind::Distill,
        SystemKind::TOpt,
        SystemKind::DoubleLlc,
        SystemKind::SdcLp,
    ];

    let mut headers = vec!["mix".to_string()];
    headers.extend(kinds.iter().map(|k| k.name().to_string()));
    let mut table = TextTable::new(headers);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];

    for (mi, mix) in paper_mixes().into_iter().take(mix_count).enumerate() {
        let base = mc.weighted_ipc(&mix, SystemKind::Baseline);
        let mut cells = vec![format!("{mi:02} [{}]", mix.map(|w| w.name()).join(","))];
        for (i, &kind) in kinds.iter().enumerate() {
            let ws = mc.weighted_ipc(&mix, kind) / base.max(1e-9);
            speedups[i].push(ws);
            cells.push(pct(ws));
        }
        table.row(cells);
        eprintln!("done mix {mi}");
    }

    let mut geo = vec!["GEOMEAN".to_string()];
    for s in &speedups {
        geo.push(pct(geomean(s)));
    }
    table.row(geo);
    let max_sdclp = speedups.last().unwrap().iter().cloned().fold(0.0f64, f64::max);

    println!(
        "Figure 14: multi-core normalized weighted speedup over Baseline, {} mixes ({:?} scale)",
        mix_count, opts.scale
    );
    table.print();
    println!();
    println!("SDC+LP maximum: {}", pct(max_sdclp));
    println!("Paper reference geomeans: L1D40K +0.02%, Distill -0.04%, T-OPT +6.4%, 2xLLC +2.4%, SDC+LP +20.2% (max +69.3%).");
}
