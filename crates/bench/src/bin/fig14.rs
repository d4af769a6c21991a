#![forbid(unsafe_code)]
//! Figure 14: multi-core evaluation — normalized weighted speedup of each
//! design over Baseline across 50 random 4-thread mixes (Section IV-D
//! methodology).
//!
//! Paper reference geomeans: L1D 40KB ISO +0.02%, Distill -0.04%, T-OPT
//! +6.4%, 2xLLC +2.4%, SDC+LP +20.2% (max +69.3%).
//!
//! `--mixes N` limits the number of mixes (default 50).

use gpbench::{flag_number, pct, ArgError, HarnessOpts, TextTable};
use gpworkloads::{paper_mixes, MulticoreRunner, SystemKind};
use simcore::geomean;

/// Peel off `--mixes N`, then hand the rest to the shared parser.
fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(usize, HarnessOpts), ArgError> {
    let mut mix_count = 50usize;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mixes" => mix_count = flag_number(&mut it, &arg)?,
            _ => rest.push(arg),
        }
    }
    Ok((mix_count, HarnessOpts::parse(rest)?))
}

fn main() {
    let (mix_count, opts) = parse(std::env::args().skip(1)).unwrap_or_else(|e| e.exit());
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(args: &[&str]) -> Option<ArgError> {
        parse(args.iter().map(|a| a.to_string())).err()
    }

    #[test]
    fn mixes_needs_a_value() {
        assert_eq!(
            parse_err(&["--mixes"]),
            Some(ArgError::MissingValue { flag: "--mixes".into() })
        );
    }

    #[test]
    fn mixes_must_be_a_count() {
        assert_eq!(
            parse_err(&["--quick", "--mixes", "ten"]),
            Some(ArgError::BadValue { flag: "--mixes".into(), value: "ten".into() })
        );
        assert_eq!(parse(["--mixes".to_string(), "7".to_string()]).map(|(n, _)| n).ok(), Some(7));
    }
}
