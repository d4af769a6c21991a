#![forbid(unsafe_code)]
//! `perfbench`: the layer-by-layer benchmark of the SDC+LP simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload (`small-sweep`, `full-kron`, `mix4`,
//! `ckpt-resume`; `perfbench/README.md` says why each exists) and prints,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics, timed from outside the public calls into the simulator's
//! layers. `--trace 1` runs the workload again with a span around each of
//! those calls, reports the per-layer metrics, and writes the spans to
//! `perfbench/out/<workload>.spans.json`.

mod measure;
mod mix;
mod report;
mod spans;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload small-sweep|full-kron|mix4|ckpt-resume \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where runs leave their output: the spans of traced runs, and a scratch
/// directory per process for checkpoint state (removed on exit).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args, work: &Path) -> Result<(report::Tally, Vec<report::Metric>), String> {
    let spans_out = out_dir().join(format!("{}.spans.json", args.workload));
    let plan = match args.workload.as_str() {
        "small-sweep" => &sweep::SMALL_SWEEP,
        "full-kron" => &sweep::FULL_KRON,
        "ckpt-resume" => &sweep::CKPT_RESUME,
        "mix4" => {
            std::env::set_var("RAYON_NUM_THREADS", "1");
            return match args.trace {
                false => mix::MIX4.run(args.seed, args.seconds),
                true => mix::MIX4.run_traced(args.seed, &spans_out),
            };
        }
        other => return Err(format!("unknown workload {other}")),
    };
    // The executor's pool size, fixed here rather than inherited.
    std::env::set_var("RAYON_NUM_THREADS", plan.threads.to_string());
    match args.trace {
        false => plan.run(args.seed, args.seconds, work),
        true => plan.run_traced(args.seed, work, &spans_out),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Graphs come from a fresh in-memory cache per set-up: nothing is read
    // from or written to a shared on-disk graph cache.
    std::env::remove_var("GRAPH_CACHE_DIR");
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("perfbench: host available parallelism {cpus}");
    let work = out_dir().join(format!("work-{}", std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok((tally, metrics)) => {
            println!("{}", report::result_json(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
