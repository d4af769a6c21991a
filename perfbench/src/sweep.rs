//! The single-core workloads: `small-sweep`, `full-kron` and `ckpt-resume`.
//!
//! An untraced run sets up a fresh [`Runner`] (graph build plus trace
//! recording) several times, then times whole sweeps through
//! `Runner::run_matrix_with`. A traced run sets up once with spans, runs
//! the same sweep untraced as the reference, then replays every point
//! itself through `Engine::replay_span` / `finish` (and, for
//! `ckpt-resume`, `Engine::snapshot` / `restore` plus
//! `CheckpointStore::save` / `load`) with a span around each call.

use crate::measure::{self, Rng};
use crate::report::{end_to_end, slot, Counts, Layers, Metric, Sample, Tally};
use crate::spans::{span, SpanLog};
use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{build_system, MatrixOptions, RunRecord, Runner, SystemKind, Watchdog, Workload};
use simcore::hierarchy::MemorySystem;
use simcore::{Budget, CompactTrace, Engine, SimResult, SystemConfig, Window};
use simstate::{CheckpointStore, Snapshot};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// One single-core workload: which points, at what scale, on how many
/// executor threads, and how much work a pass is.
pub struct SweepPlan {
    pub name: &'static str,
    pub scale: SuiteScale,
    pub warmup: u64,
    pub measure: u64,
    pub threads: usize,
    pub workloads: &'static [(Kernel, GraphInput)],
    pub systems: &'static [SystemKind],
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Nominal host seconds of one pass (2-vCPU host); sizes the pass
    /// count from `--seconds`.
    pub pass_s: f64,
    /// Passes a run makes at least.
    pub min_passes: usize,
    /// Mid-measurement snapshot cadence in trace events. Non-zero makes a
    /// pass one cold plus one warm checkpointed sweep against a fresh
    /// state directory (`ckpt-resume`).
    pub snapshot_every: u64,
}

/// Hit-path replay on 2 executor threads: six small-scale workloads
/// spanning power-law, road and uniform-random graphs, every Fig. 7 system.
pub const SMALL_SWEEP: SweepPlan = SweepPlan {
    name: "small-sweep",
    scale: SuiteScale::Small,
    warmup: 1_000_000,
    measure: 4_000_000,
    threads: 2,
    workloads: &[
        (Kernel::Pr, GraphInput::Kron),
        (Kernel::Cc, GraphInput::Urand),
        (Kernel::Bfs, GraphInput::Road),
        (Kernel::Cc, GraphInput::Kron),
        (Kernel::Pr, GraphInput::Urand),
        (Kernel::Tc, GraphInput::Road),
    ],
    systems: &SystemKind::FIG7,
    setups: 7,
    pass_s: 4.5,
    min_passes: 1,
    snapshot_every: 0,
};

/// Miss-path replay and full-scale graph set-up: every kernel on the
/// 4M-vertex kron graph, every Fig. 7 system, one thread.
pub const FULL_KRON: SweepPlan = SweepPlan {
    name: "full-kron",
    scale: SuiteScale::Full,
    warmup: 1_000_000,
    measure: 4_000_000,
    threads: 1,
    workloads: &[
        (Kernel::Bc, GraphInput::Kron),
        (Kernel::Bfs, GraphInput::Kron),
        (Kernel::Cc, GraphInput::Kron),
        (Kernel::Pr, GraphInput::Kron),
        (Kernel::Tc, GraphInput::Kron),
        (Kernel::Sssp, GraphInput::Kron),
    ],
    systems: &SystemKind::FIG7,
    setups: 1,
    pass_s: 13.0,
    // Every point is timed twice, 13 s apart, so one slow stretch of the
    // host moves fewer of the per-point samples.
    min_passes: 2,
    snapshot_every: 0,
};

/// Checkpoint writes beside checkpoint reads: a small subset swept cold
/// (writing post-warmup forks and mid-measurement snapshots) and then warm
/// (forking every point from its stored warmup state).
pub const CKPT_RESUME: SweepPlan = SweepPlan {
    name: "ckpt-resume",
    scale: SuiteScale::Small,
    warmup: 1_000_000,
    measure: 4_000_000,
    threads: 1,
    workloads: &[(Kernel::Pr, GraphInput::Kron), (Kernel::Bfs, GraphInput::Urand)],
    systems: &[SystemKind::Baseline, SystemKind::TOpt, SystemKind::SdcLp],
    setups: 7,
    pass_s: 3.4,
    min_passes: 1,
    snapshot_every: 200_000,
};

/// Warmup replays run in spans of this many events, as the executor's
/// cold warmup does, so a post-warmup fork lands on the same event.
const WARMUP_CHUNK: usize = 4096;

type PointEngine = Engine<Box<dyn MemorySystem + Send>>;

impl SweepPlan {
    fn window(&self) -> Window {
        Window::new(self.warmup, self.measure)
    }

    fn workloads(&self) -> Vec<Workload> {
        self.workloads.iter().map(|&(k, g)| Workload::new(k, g)).collect()
    }

    /// Every (workload, system) point, in the order `seed` picks.
    fn points(&self, seed: u64) -> Vec<(Workload, SystemKind)> {
        let mut points = gpworkloads::cross(&self.workloads(), self.systems);
        Rng::new(seed).shuffle(&mut points);
        points
    }

    /// Build every graph, then record every trace, on a fresh runner (the
    /// graph cache is the runner's own, so nothing is shared between
    /// set-ups or with other processes).
    fn setup(&self, mut log: Option<&mut SpanLog>) -> (Runner, Layers) {
        let runner = Runner::new(self.scale, self.window());
        let mut inputs = Layers::default();
        let mut graphs: Vec<GraphInput> = Vec::new();
        for &(_, g) in self.workloads {
            if !graphs.contains(&g) {
                graphs.push(g);
            }
        }
        for g in graphs {
            let input = span(log.as_deref_mut(), "gpgraph.build", || runner.input(g));
            inputs.edges += input.num_edges() as u64;
        }
        for w in self.workloads() {
            let trace = span(log.as_deref_mut(), "gpkernels.record", || runner.trace(w));
            inputs.events += trace.events.len() as u64;
            inputs.recorded_instr += runner.skip + runner.window.total();
        }
        (runner, inputs)
    }

    pub fn run(
        &self,
        seed: u64,
        seconds: f64,
        work: &Path,
    ) -> Result<(Tally, Vec<Metric>), String> {
        self.announce(seed, measure::passes(seconds, self.pass_s).max(self.min_passes));
        let (runner, setup_times) = measure::repeat_setup(self.setups, || self.setup(None).0);
        let points = self.points(seed);
        let window = self.window();

        let mut tally = Tally::default();
        let (mut sweep_times, mut point_ms) = (Vec::new(), Vec::new());
        let (mut instructions, mut cpu) = (0u64, 0.0);
        let mut reference: Option<Vec<SimResult>> = None;
        for pass in 0..measure::passes(seconds, self.pass_s).max(self.min_passes) {
            let cpu0 = measure::cpu_seconds()?;
            let t = Instant::now();
            let (first, warm) = if self.snapshot_every == 0 {
                (sweep(&runner, &points, &executor_options())?, None)
            } else {
                let opts =
                    checkpoint_options(&work.join(format!("state-{pass}")), self.snapshot_every);
                let cold = sweep(&runner, &points, &opts)?;
                (cold, Some(sweep(&runner, &points, &opts)?))
            };
            sweep_times.push(t.elapsed().as_secs_f64());
            cpu += measure::cpu_seconds()? - cpu0;
            let _ = std::fs::remove_dir_all(work.join(format!("state-{pass}")));

            let results = tally_records(&mut tally, &first, window, &mut point_ms);
            instructions += results.iter().map(|r| window.warmup + r.instructions).sum::<u64>();
            if let Some(warm) = warm {
                let warm_results = tally_records(&mut tally, &warm, window, &mut point_ms);
                // Forked points simulate their measurement window only.
                instructions += warm_results.iter().map(|r| r.instructions).sum::<u64>();
                tally.check(warm_results == results, || "warm pass differs from cold pass".into());
            }
            match &reference {
                None => {
                    self.print_digest(&points, &results);
                    reference = Some(results);
                }
                Some(r) => {
                    tally.check(*r == results, || format!("pass {pass} differs from pass 0"))
                }
            }
        }
        let metrics = end_to_end(&setup_times, &sweep_times, instructions, cpu, &point_ms)?;
        Ok((tally, metrics))
    }

    pub fn run_traced(
        &self,
        seed: u64,
        work: &Path,
        spans_out: &Path,
    ) -> Result<(Tally, Vec<Metric>), String> {
        self.announce(seed, 1);
        let mut log = SpanLog::new();
        let (runner, mut layers) = log.time("setup", None, |log| self.setup(Some(log)));
        let points = self.points(seed);
        let window = self.window();
        let mut tally = Tally::default();
        let mut unused = Vec::new();

        // The untraced executor runs every traced replay must equal.
        let t = Instant::now();
        let plain = sweep(&runner, &points, &executor_options())?;
        let plain_s = t.elapsed().as_secs_f64();
        let expected = tally_records(&mut tally, &plain, window, &mut unused);
        self.print_digest(&points, &expected);
        let (executor, executor_s) = if self.snapshot_every == 0 {
            (plain, plain_s)
        } else {
            let opts = checkpoint_options(&work.join("state-traced"), self.snapshot_every);
            let t = Instant::now();
            let cold = sweep(&runner, &points, &opts)?;
            let cold_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let warm = sweep(&runner, &points, &opts)?;
            let warm_s = t.elapsed().as_secs_f64();
            let cold_results = tally_records(&mut tally, &cold, window, &mut unused);
            let warm_results = tally_records(&mut tally, &warm, window, &mut unused);
            tally.check(cold_results == expected, || "cold pass differs from plain".into());
            tally.check(warm_results == expected, || "warm pass differs from plain".into());
            layers.cold_overhead = cold_s / plain_s;
            layers.warm_saving = 1.0 - warm_s / cold_s;
            layers.resume_s = warm_s;
            (cold, cold_s)
        };
        layers.sum_point_s = executor.iter().map(|r| r.manifest.wall_seconds).sum();
        layers.parallel_efficiency = layers.sum_point_s / (self.threads as f64 * executor_s);

        // The same points again, replayed call by call under spans.
        let budget = Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI).budget(window.total());
        let store = CheckpointStore::new(work.join("state-spans"));
        let mut snapshot_bytes = Vec::new();
        log.time("sweep", None, |log| -> Result<(), String> {
            for (id, &(w, k)) in points.iter().enumerate() {
                let trace = runner.trace(w);
                let p = Point { runner: &runner, id, w, k, budget, trace: &trace };
                let replays = if self.snapshot_every == 0 {
                    vec![p.replay(log)]
                } else {
                    p.replay_checkpointed(log, &store, self.snapshot_every, &mut snapshot_bytes)?
                };
                for (r, replayed) in replays {
                    layers.mem_refs += p.mem_refs(replayed);
                    tally.check(r == expected[id], || format!("traced {w} on {k} differs"));
                }
            }
            Ok(())
        })?;

        // Telemetry on and off over the first workload's points.
        let first = self.workloads()[0];
        let tel_cfg = simtel::TelemetryConfig {
            interval_instructions: 1_000_000,
            event_capacity: 0,
            ..Default::default()
        };
        log.time("simtel", None, |log| {
            for (id, &(w, k)) in points.iter().enumerate().filter(|(_, p)| p.0 == first) {
                let trace = runner.trace(w);
                let p = Point { runner: &runner, id, w, k, budget, trace: &trace };
                let off = log.time("simtel.off", Some(id), |_| {
                    let mut engine = p.engine();
                    engine.replay(p.trace);
                    engine.finish()
                });
                let (on, out) = log.time("simtel.on", Some(id), |_| {
                    let mut engine = p.engine();
                    let tel = simtel::TelemetryHandle::collector(&tel_cfg);
                    engine.attach_telemetry(tel.clone());
                    engine.replay(p.trace);
                    (engine.finish(), tel.take_output().unwrap_or_default())
                });
                tally.check(off == expected[id] && on == expected[id], || {
                    format!("telemetry replay of {w} on {k} differs")
                });
                layers.add_stalls(&out);
            }
        });

        let totals = log.totals();
        let of = |name: &str| totals.get(name).copied().unwrap_or_default();
        layers.build_s = of("gpgraph.build").self_s;
        layers.record_s = of("gpkernels.record").self_s;
        layers.warmup_s = of("simcore.warmup").self_s;
        layers.measure_s = of("simcore.measure").self_s;
        for &kind in self.systems {
            let on_kind = log.totals_where(|p| p.is_some_and(|i| points[i].1 == kind));
            let replay = |name: &str| on_kind.get(name).map_or(0.0, |t| t.self_s);
            if let Some(s) = slot(kind) {
                layers.replay_s[s] = replay("simcore.warmup") + replay("simcore.measure");
            }
        }
        let per_call_ms = |name: &str| {
            let t = of(name);
            if t.count == 0 {
                0.0
            } else {
                t.self_s * 1e3 / t.count as f64
            }
        };
        layers.save_ms = per_call_ms("simstate.save");
        layers.load_ms = per_call_ms("simstate.load");
        layers.restore_ms = per_call_ms("simstate.restore");
        layers.snapshot_bytes = if snapshot_bytes.is_empty() {
            0.0
        } else {
            snapshot_bytes.iter().sum::<usize>() as f64 / snapshot_bytes.len() as f64
        };
        layers.simtel_overhead = of("simtel.on").self_s / of("simtel.off").self_s;
        let workloads = self.workloads();
        layers.samples = points
            .iter()
            .zip(&expected)
            .map(|(&(w, k), r)| Sample {
                system: k,
                pair: workloads.iter().position(|&x| x == w).unwrap_or(0),
                counts: Counts::of(r),
            })
            .collect();

        let simstate_s: f64 =
            ["simstate.snapshot", "simstate.save", "simstate.load", "simstate.restore"]
                .iter()
                .map(|n| of(n).self_s)
                .sum();
        let sweep_total = of("sweep").total_s;
        println!(
            "perfbench: shares: replay/traced-sweep {:.3}, simstate/traced-sweep {:.3}, (build+record)/setup {:.3}",
            (layers.warmup_s + layers.measure_s) / sweep_total,
            simstate_s / sweep_total,
            (layers.build_s + layers.record_s) / of("setup").total_s
        );
        let metrics = layers.metrics();
        let labels: Vec<String> = points.iter().map(|(w, k)| format!("{w}|{k}")).collect();
        log.write(spans_out, &self.header(seed), &labels, &metrics)?;
        println!("perfbench: spans written to {}", spans_out.display());
        Ok((tally, metrics))
    }

    fn header(&self, seed: u64) -> Vec<(&'static str, String)> {
        vec![
            ("workload", format!("\"{}\"", self.name)),
            ("seed", seed.to_string()),
            ("threads", self.threads.to_string()),
            ("scale", format!("\"{:?}\"", self.scale)),
            ("window", format!("[{}, {}]", self.warmup, self.measure)),
        ]
    }

    fn announce(&self, seed: u64, passes: usize) {
        println!(
            "perfbench: workload {} seed {seed} threads {} scale {:?} window {}+{} points {} passes {passes}",
            self.name,
            self.threads,
            self.scale,
            self.warmup,
            self.measure,
            self.workloads.len() * self.systems.len()
        );
    }

    fn print_digest(&self, points: &[(Workload, SystemKind)], results: &[SimResult]) {
        let entries: Vec<(String, String)> = points
            .iter()
            .zip(results)
            .map(|((w, k), r)| (format!("{w}|{k}"), format!("{r:?}")))
            .collect();
        println!(
            "perfbench: digest {} {:016x} over {} results",
            self.name,
            measure::digest(&entries),
            entries.len()
        );
    }
}

/// The harness executor configuration (watchdog armed, wall-clock
/// stamps on), minus progress lines, and with traces kept cached so every
/// pass replays the same recorded inputs.
fn executor_options() -> MatrixOptions {
    let mut opts = MatrixOptions::harness();
    opts.progress = false;
    opts.evict = false;
    opts
}

fn checkpoint_options(dir: &Path, snapshot_every: u64) -> MatrixOptions {
    executor_options().with_state_dir(dir).forking_warmup(true).snapshotting_every(snapshot_every)
}

fn sweep(
    runner: &Runner,
    points: &[(Workload, SystemKind)],
    opts: &MatrixOptions,
) -> Result<Vec<RunRecord>, String> {
    runner.run_matrix_with(points, opts).map_err(|e| format!("sweep failed: {e}"))
}

/// Count each record as an operation (ok status and a completed window),
/// collect its host time, and return the results in point order.
fn tally_records(
    tally: &mut Tally,
    records: &[RunRecord],
    window: Window,
    point_ms: &mut Vec<f64>,
) -> Vec<SimResult> {
    records
        .iter()
        .map(|r| {
            let complete = r.result.instructions >= window.measure;
            tally.op(r.is_ok() && complete, || {
                format!(
                    "{} on {}: status {}, {} of {} measured instructions",
                    r.workload, r.label, r.manifest.status, r.result.instructions, window.measure
                )
            });
            point_ms.push(r.manifest.wall_seconds * 1e3);
            r.result.clone()
        })
        .collect()
}

/// One point replayed call by call.
struct Point<'a> {
    runner: &'a Runner,
    id: usize,
    w: Workload,
    k: SystemKind,
    budget: Budget,
    trace: &'a CompactTrace,
}

impl Point<'_> {
    /// A fresh engine configured as the executor configures its own.
    fn engine(&self) -> PointEngine {
        let core = SystemConfig::baseline(1).core;
        let sys = build_system(self.k, self.w.kernel, &self.runner.sdclp);
        let mut engine = Engine::new(sys, core.width, core.rob_entries, self.runner.window);
        engine.set_budget(self.budget);
        engine
    }

    /// Memory references among the trace events a replay consumed.
    fn mem_refs(&self, replayed: Range<usize>) -> u64 {
        self.trace.events.get(replayed).map_or(0, |evs| evs.iter().filter(|e| e.is_mem()).count())
            as u64
    }

    fn warmup(&self, log: &mut SpanLog, engine: &mut PointEngine) -> usize {
        let (warmup, len) = (self.runner.window.warmup, self.trace.events.len());
        log.time("simcore.warmup", Some(self.id), |_| {
            let mut pos = 0;
            while engine.instructions() < warmup && !engine.timed_out() && pos < len {
                pos = engine.replay_span(self.trace, pos, WARMUP_CHUNK);
            }
            pos
        })
    }

    /// Plain replay: warmup, then measurement to the end of the window.
    /// Returns the result and the trace events consumed.
    fn replay(&self, log: &mut SpanLog) -> (SimResult, Range<usize>) {
        log.time("point", Some(self.id), |log| {
            let mut engine = log.time("simcore.build", Some(self.id), |_| self.engine());
            let pos = self.warmup(log, &mut engine);
            let (result, end) = log.time("simcore.measure", Some(self.id), |_| {
                let end = engine.replay_from(self.trace, pos);
                (engine.finish(), end)
            });
            (result, 0..end)
        })
    }

    /// The executor's checkpointed replay, cold then warm: the cold run
    /// saves the post-warmup fork and mid-measurement snapshots; the warm
    /// run loads and restores the fork, then measures with snapshots.
    fn replay_checkpointed(
        &self,
        log: &mut SpanLog,
        store: &CheckpointStore,
        every: u64,
        snapshot_bytes: &mut Vec<usize>,
    ) -> Result<Vec<(SimResult, Range<usize>)>, String> {
        let mut ident = simstate::Fnv1a::new();
        ident.update(format!("{}|{:?}", self.w, self.k).as_bytes());
        let checksum = log.time("simcore.trace_checksum", Some(self.id), |_| {
            simcore::trace_io::trace_checksum(self.trace)
        });
        let ident = (ident.finish(), checksum);
        let (warm_key, mid_key) = (format!("warm|{}", self.id), format!("mid|{}", self.id));
        let mut ck = Checkpointer { store, ident, every, mid_key: &mid_key, bytes: snapshot_bytes };

        let cold = log.time("point", Some(self.id), |log| {
            let mut engine = log.time("simcore.build", Some(self.id), |_| self.engine());
            let pos = self.warmup(log, &mut engine);
            ck.persist(log, self.id, &warm_key, &engine, pos)?;
            let end = self.measure(log, &mut ck, &mut engine, pos)?;
            let result = log.time("simcore.measure", Some(self.id), |_| engine.finish());
            Ok::<_, String>((result, 0..end))
        })?;
        let warm = log.time("point", Some(self.id), |log| {
            let mut engine = log.time("simcore.build", Some(self.id), |_| self.engine());
            let snap = log
                .time("simstate.load", Some(self.id), |_| store.load(&warm_key, ident.0, ident.1))
                .map_err(|e| format!("loading {warm_key}: {e}"))?
                .ok_or_else(|| format!("checkpoint {warm_key} missing"))?;
            log.time("simstate.restore", Some(self.id), |_| engine.restore(&snap.payload))
                .map_err(|e| format!("restoring {warm_key}: {e}"))?;
            let pos =
                usize::try_from(snap.trace_pos).unwrap_or(usize::MAX).min(self.trace.events.len());
            let end = self.measure(log, &mut ck, &mut engine, pos)?;
            let result = log.time("simcore.measure", Some(self.id), |_| engine.finish());
            Ok::<_, String>((result, pos..end))
        })?;
        let _ = store.remove(&warm_key);
        Ok(vec![cold, warm])
    }

    /// Measure in snapshot-cadence spans, persisting a recovery snapshot
    /// between spans and dropping it once the window completes.
    fn measure(
        &self,
        log: &mut SpanLog,
        ck: &mut Checkpointer,
        engine: &mut PointEngine,
        mut pos: usize,
    ) -> Result<usize, String> {
        let span = usize::try_from(ck.every).unwrap_or(usize::MAX);
        let total = self.runner.window.total();
        loop {
            pos = log.time("simcore.measure", Some(self.id), |_| {
                engine.replay_span(self.trace, pos, span)
            });
            let done = engine.timed_out() || engine.instructions() >= total;
            if done || pos >= self.trace.events.len() {
                break;
            }
            let key = ck.mid_key;
            ck.persist(log, self.id, key, engine, pos)?;
        }
        let _ = ck.store.remove(ck.mid_key);
        Ok(pos)
    }
}

struct Checkpointer<'a> {
    store: &'a CheckpointStore,
    /// (config hash, trace checksum) every snapshot of the point carries.
    ident: (u64, u64),
    every: u64,
    mid_key: &'a str,
    bytes: &'a mut Vec<usize>,
}

impl Checkpointer<'_> {
    fn persist(
        &mut self,
        log: &mut SpanLog,
        id: usize,
        key: &str,
        engine: &PointEngine,
        pos: usize,
    ) -> Result<(), String> {
        let payload = log.time("simstate.snapshot", Some(id), |_| engine.snapshot());
        self.bytes.push(payload.len());
        let snap = Snapshot {
            config_hash: self.ident.0,
            trace_checksum: self.ident.1,
            trace_pos: pos as u64,
            payload,
        };
        log.time("simstate.save", Some(id), |_| self.store.save(key, &snap))
            .map(|_| ())
            .map_err(|e| format!("saving {key}: {e}"))
    }
}
