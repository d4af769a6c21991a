#![forbid(unsafe_code)]
//! DRAM channel sweep: how much of the graph suite's memory bottleneck
//! is raw DRAM bandwidth? Sweeps one system design across 1/2/4/8 DRAM
//! channels and reports, per workload and channel count, the speedup
//! over the 1-channel configuration and the dram-wait share of
//! attributed stall cycles (from interval telemetry).
//!
//! The paper's premise (Section III) is that graph workloads stall on
//! memory *latency*, not bandwidth: adding channels helps far less than
//! its cost suggests, which is why SDC+LP attacks dead blocks and
//! location prediction instead. This sweep makes that argument
//! quantitative on the simulator.
//!
//! ```text
//! cargo run --release -p gpbench --bin dram_sweep -- --scale tiny --only kron
//! ```
//!
//! * `--channels LIST` — channel counts to sweep (default `1,2,4,8`);
//!   the first entry is the speedup baseline.
//! * `--system NAME` — the design to sweep (default `baseline`).
//! * All shared harness flags apply (`--scale`, `--only`, `--warmup`,
//!   `--measure`, `--manifest`, `--resume`, ...).

use gpbench::{finish_sweeps, flag_value, run_or_exit, ArgError, HarnessOpts, TextTable};
use gpworkloads::matrix::{MatrixPoint, SystemSpec};
use gpworkloads::{find_system, RunRecord, SystemKind};
use simcore::geomean;
use std::process::ExitCode;

/// Dram-wait share of attributed stall cycles across a point's
/// intervals, or `None` when the point carries no telemetry (resumed or
/// failed points).
fn dram_wait_share(rec: &RunRecord) -> Option<f64> {
    let tel = rec.telemetry.as_ref()?;
    let mut dram_wait = 0u64;
    let mut total = 0u64;
    for iv in &tel.intervals {
        dram_wait += iv.stalls.dram_wait;
        total += iv.stalls.attributed();
    }
    (total > 0).then(|| dram_wait as f64 / total as f64)
}

/// This binary's flags on top of the shared harness flags.
struct Flags {
    /// Channel counts to sweep; the first is the speedup baseline.
    channels: Vec<usize>,
    system: SystemKind,
    opts: HarnessOpts,
}

/// Peel off `--channels` and `--system`, then hand the rest to the shared
/// parser.
fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Flags, ArgError> {
    let mut channels: Vec<usize> = vec![1, 2, 4, 8];
    let mut system_arg = "baseline".to_string();
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--channels" => {
                let list = flag_value(&mut it, &arg)?;
                // A comma list of positive counts; an empty list fails the
                // parse of its one empty entry.
                channels = list
                    .split(',')
                    .map(|c| c.trim().parse().ok().filter(|&n: &usize| n > 0))
                    .collect::<Option<_>>()
                    .ok_or(ArgError::BadValue { flag: arg, value: list })?;
            }
            "--system" => system_arg = flag_value(&mut it, &arg)?,
            _ => rest.push(arg),
        }
    }
    let system = find_system(&system_arg).map_err(ArgError::UnknownName)?;
    Ok(Flags { channels, system, opts: HarnessOpts::parse(rest)? })
}

fn main() -> ExitCode {
    let Flags { channels, system: kind, opts } =
        parse(std::env::args().skip(1)).unwrap_or_else(|e| e.exit());

    let runner = opts.runner();
    // Chunk layout: every workload's channel counts are adjacent, first
    // entry = speedup baseline.
    let points: Vec<MatrixPoint> = opts
        .workloads()
        .into_iter()
        .flat_map(|w| channels.iter().map(move |&ch| (w, ch)).collect::<Vec<_>>())
        .map(|(w, ch)| MatrixPoint::new(w, SystemSpec::kind_with_channels(kind, ch, &runner.sdclp)))
        .collect();

    // Interval telemetry is the point of this binary (the dram-wait
    // column), so it is always collected; --telemetry only adds files.
    let mut mopts = opts.matrix_options("dram_sweep");
    mopts.telemetry = Some(simtel::TelemetryConfig {
        interval_instructions: opts.interval.max(1),
        event_capacity: 0,
        ..Default::default()
    });
    let records = run_or_exit(runner.run_matrix_points(&points, &mopts), "dram_sweep");

    let mut headers = vec!["workload".to_string()];
    for &ch in &channels {
        headers.push(format!("{ch}ch speedup"));
        headers.push(format!("{ch}ch dram-wait"));
    }
    let mut table = TextTable::new(headers);
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); channels.len()];

    for chunk in records.chunks(channels.len()) {
        let base = &chunk[0].result;
        let mut cells = vec![chunk[0].workload.name()];
        for (i, rec) in chunk.iter().enumerate() {
            let s = rec.result.speedup_over(base);
            if rec.is_ok() {
                speedups[i].push(s);
            }
            cells.push(if rec.is_ok() { format!("{s:.3}x") } else { rec.manifest.status.clone() });
            cells.push(match dram_wait_share(rec) {
                Some(share) => format!("{:.1}%", share * 100.0),
                None => "-".to_string(),
            });
        }
        table.row(cells);
    }
    let mut geo = vec!["GEOMEAN".to_string()];
    for s in &speedups {
        geo.push(if s.is_empty() { "-".to_string() } else { format!("{:.3}x", geomean(s)) });
        geo.push(String::new());
    }
    table.row(geo);

    println!(
        "DRAM channel sweep: {} across {:?} channels ({:?} scale, {} workload(s))",
        kind.name(),
        channels,
        opts.scale,
        records.len() / channels.len().max(1),
    );
    table.print();
    println!();
    println!(
        "Reading: if adding channels barely moves the speedup while dram-wait stays the \
         dominant stall, the bottleneck is memory latency, not bandwidth (Section III)."
    );
    if let Some(dir) = &opts.telemetry {
        for rec in records.iter().filter(|r| r.telemetry.is_some()) {
            if let Some(tel) = &rec.telemetry {
                let point = format!(
                    "{}.{}",
                    rec.workload.name(),
                    gpworkloads::norm_name(&rec.manifest.system)
                );
                if let Err(e) = opts.write_telemetry(&point, tel) {
                    eprintln!("warning: writing telemetry for {point}: {e}");
                }
            }
        }
        println!("wrote per-point interval telemetry under {}", dir.display());
    }
    finish_sweeps(&[&records])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Flags, ArgError> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn channels_and_system_need_values() {
        for flag in ["--channels", "--system"] {
            assert_eq!(
                parse_strs(&["--quick", flag]).err(),
                Some(ArgError::MissingValue { flag: flag.into() })
            );
        }
    }

    #[test]
    fn channels_must_be_positive_counts() {
        for list in ["1,two", "", "1,0"] {
            assert_eq!(
                parse_strs(&["--channels", list]).err(),
                Some(ArgError::BadValue { flag: "--channels".into(), value: list.into() })
            );
        }
        assert_eq!(parse_strs(&["--channels", "2, 4"]).map(|f| f.channels).ok(), Some(vec![2, 4]));
    }

    #[test]
    fn system_must_name_a_design() {
        assert!(matches!(parse_strs(&["--system", "nope"]), Err(ArgError::UnknownName(_))));
        assert_eq!(
            parse_strs(&["--system", "sdc"]).map(|f| f.system).ok(),
            Some(SystemKind::SdcLp)
        );
    }
}
