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

use gpbench::HarnessOpts;
use gpworkloads::{find_system, find_workload, norm_name};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Peel off the timeline-specific flags, then hand the rest to the
    // shared parser (which rejects anything it does not know).
    let mut workload_arg = "bfs.kron".to_string();
    let mut system_arg = "sdc_lp".to_string();
    let mut csv_path: Option<std::path::PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload_arg = it.next().expect("--workload needs a name"),
            "--system" => system_arg = it.next().expect("--system needs a name"),
            "--csv" => csv_path = Some(it.next().expect("--csv needs a path").into()),
            _ => rest.push(arg),
        }
    }
    let opts = HarnessOpts::parse_or_exit(rest);

    let (workload, kind) = match (find_workload(&workload_arg), find_system(&system_arg)) {
        (Ok(w), Ok(k)) => (w, k),
        (w, k) => {
            for e in [w.err(), k.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

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
    if let Some(path) = &csv_path {
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
