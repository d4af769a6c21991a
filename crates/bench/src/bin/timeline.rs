#![forbid(unsafe_code)]
//! Telemetry timeline viewer: runs one workload on one system design with
//! interval telemetry enabled and renders the per-interval IPC / L1D-MPKI
//! timeline as ASCII bars (plus CSV / JSONL / Perfetto trace on request).
//!
//! ```text
//! cargo run --release -p gpbench --bin timeline -- \
//!     --workload bfs.kron --system sdc_lp --quick --csv out/bfs.csv
//! ```
//!
//! * `--workload NAME` — workload name (`bfs.kron`, `cc.friendster`, ...);
//!   a unique substring also works (`bfs.k`). Default `bfs.kron`.
//! * `--system NAME` — system design (`baseline`, `sdc_lp`, `t_opt`,
//!   `distill`, `l1d_40kb_iso`, `2xllc`, `expert`). Default `sdc_lp`.
//! * `--csv PATH` — also write the per-interval table as CSV.
//! * All shared harness flags apply; `--interval N` sets the snapshot
//!   period and `--telemetry DIR` additionally writes the JSONL intervals
//!   and the Chrome trace-event JSON for Perfetto.

use gpbench::{flag_value, ArgError, HarnessOpts};
use gpworkloads::{find_system, find_workload, norm_name, SystemKind, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// This binary's flags on top of the shared harness flags.
struct Flags {
    workload: Workload,
    system: SystemKind,
    csv: Option<PathBuf>,
    opts: HarnessOpts,
}

/// Peel off the timeline-specific flags, then hand the rest to the shared
/// parser (which rejects anything it does not know).
fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Flags, ArgError> {
    let mut workload_arg = "bfs.kron".to_string();
    let mut system_arg = "sdc_lp".to_string();
    let mut csv = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload_arg = flag_value(&mut it, &arg)?,
            "--system" => system_arg = flag_value(&mut it, &arg)?,
            "--csv" => csv = Some(flag_value(&mut it, &arg)?.into()),
            _ => rest.push(arg),
        }
    }
    Ok(Flags {
        workload: find_workload(&workload_arg).map_err(ArgError::UnknownName)?,
        system: find_system(&system_arg).map_err(ArgError::UnknownName)?,
        csv,
        opts: HarnessOpts::parse(rest)?,
    })
}

fn main() -> ExitCode {
    let Flags { workload, system: kind, csv, opts } =
        parse(std::env::args().skip(1)).unwrap_or_else(|e| e.exit());

    // The whole point of this binary is the timeline, so telemetry is
    // always collected here; --telemetry only adds the file outputs.
    let cfg = opts.telemetry_config().unwrap_or(simtel::TelemetryConfig {
        interval_instructions: opts.interval.max(1),
        ..Default::default()
    });

    let runner = opts.runner();
    let (result, output) = runner.run_one_with_telemetry(workload, kind, &cfg);

    println!(
        "timeline: {} on {} ({:?} scale, interval {} instrs, {} snapshot(s))",
        workload.name(),
        kind.name(),
        opts.scale,
        cfg.interval_instructions,
        output.intervals.len()
    );
    println!(
        "window: {} instrs in {} cycles (IPC {:.3})",
        result.instructions,
        result.cycles,
        result.ipc()
    );
    println!();
    print!("{}", simtel::render::ascii_timeline(&output.intervals));

    let point = format!("{}.{}", workload.name(), norm_name(kind.name()));
    if let Some(path) = &csv {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, simtel::render::csv_timeline(&output.intervals)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nwrote {}", path.display());
    }
    if opts.telemetry.is_some() {
        if let Err(e) = opts.write_telemetry(&point, &output) {
            eprintln!("error: writing telemetry for {point}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote telemetry files for {point}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Flags, ArgError> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn name_and_path_flags_need_values() {
        for flag in ["--workload", "--system", "--csv"] {
            assert_eq!(
                parse_strs(&["--quick", flag]).err(),
                Some(ArgError::MissingValue { flag: flag.into() })
            );
        }
    }

    #[test]
    fn names_must_resolve() {
        assert!(matches!(parse_strs(&["--workload", "zz.kron"]), Err(ArgError::UnknownName(_))));
        assert!(matches!(parse_strs(&["--system", "nope"]), Err(ArgError::UnknownName(_))));
        let f = parse_strs(&["--workload", "bfs.k", "--csv", "t.csv"]).ok().unwrap();
        assert_eq!((f.workload.name(), f.csv), ("bfs.kron".to_string(), Some("t.csv".into())));
    }
}
