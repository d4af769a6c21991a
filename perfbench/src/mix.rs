//! The `mix4` workload: seed-chosen 4-core mixes of the 36 single-core
//! workloads, each run on Baseline and SDC+LP through
//! `MulticoreRunner::run_mix` at small scale on one thread. This is the
//! only workload on the multicore timing loop, the shared LLC/DRAM backend
//! and SDCDir coherence.
//!
//! The seed deals the workloads into mixes rather than sampling them with
//! replacement as `generate_mixes` does: every workload runs the same
//! number of times per pass, so a seed changes which workloads share a
//! machine but not how much work a pass is.

use crate::measure::{self, Rng};
use crate::report::{end_to_end, Counts, Layers, Metric, Sample, Tally};
use crate::spans::{span, SpanLog};
use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{
    all_workloads, build_multicore, Mix, MulticoreRunner, Runner, SystemKind, MIX_WIDTH,
};
use simcore::{CompactTrace, MulticoreEngine, SimResult, SystemConfig, Window};
use std::time::Instant;

pub struct MixPlan {
    pub name: &'static str,
    /// Deals of the 36 workloads per pass; each deal is nine mixes, each
    /// run on every system of `SYSTEMS`.
    pub deals: usize,
    /// Per-core instruction window.
    pub warmup: u64,
    pub measure: u64,
    pub setups: usize,
    /// Nominal host seconds of one pass (2-vCPU host).
    pub pass_s: f64,
    /// Mixes the telemetry-on/off comparison of a traced run covers.
    pub telemetry_mixes: usize,
}

pub const MIX4: MixPlan = MixPlan {
    name: "mix4",
    deals: 2,
    warmup: 250_000,
    measure: 1_000_000,
    setups: 3,
    pass_s: 11.0,
    telemetry_mixes: 2,
};

const SYSTEMS: [SystemKind; 2] = [SystemKind::Baseline, SystemKind::SdcLp];

impl MixPlan {
    fn window(&self) -> Window {
        Window::new(self.warmup, self.measure)
    }

    /// Build the graphs and record the traces every mix needs, on a fresh
    /// runner.
    fn setup(&self, mixes: &[Mix], mut log: Option<&mut SpanLog>) -> (Runner, Layers) {
        let runner = Runner::new(SuiteScale::Small, self.window());
        let mut inputs = Layers::default();
        let mut workloads = Vec::new();
        let mut graphs: Vec<GraphInput> = Vec::new();
        for &w in mixes.iter().flatten() {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
            if !graphs.contains(&w.graph) {
                graphs.push(w.graph);
            }
        }
        for g in graphs {
            let input = span(log.as_deref_mut(), "gpgraph.build", || runner.input(g));
            inputs.edges += input.num_edges() as u64;
        }
        for w in workloads {
            let trace = span(log.as_deref_mut(), "gpkernels.record", || runner.trace(w));
            inputs.events += trace.events.len() as u64;
            inputs.recorded_instr += runner.skip + runner.window.total();
        }
        (runner, inputs)
    }

    /// The mixes `seed` deals, and their (mix index, system) runs in the
    /// order it picks.
    fn draw(&self, seed: u64) -> (Vec<Mix>, Vec<(usize, SystemKind)>) {
        let mut rng = Rng::new(seed);
        let mut mixes = Vec::new();
        for _ in 0..self.deals {
            let mut pool = all_workloads();
            rng.shuffle(&mut pool);
            mixes.extend(pool.chunks_exact(MIX_WIDTH).filter_map(|c| Mix::try_from(c).ok()));
        }
        let mut ops: Vec<(usize, SystemKind)> =
            (0..mixes.len()).flat_map(|m| SYSTEMS.iter().map(move |&k| (m, k))).collect();
        rng.shuffle(&mut ops);
        (mixes, ops)
    }

    fn announce(&self, seed: u64, passes: usize) {
        println!(
            "perfbench: workload {} seed {seed} threads 1 scale Small window {}+{} per core mixes {} systems {} passes {passes}",
            self.name,
            self.warmup,
            self.measure,
            self.deals * all_workloads().len() / MIX_WIDTH,
            SYSTEMS.len()
        );
    }

    fn check(&self, tally: &mut Tally, mix: &Mix, kind: SystemKind, cores: &[SimResult]) {
        let complete =
            cores.len() == MIX_WIDTH && cores.iter().all(|r| r.instructions >= self.measure);
        tally.op(complete, || format!("mix {} on {kind}: incomplete window", label(mix)));
    }

    pub fn run(&self, seed: u64, seconds: f64) -> Result<(Tally, Vec<Metric>), String> {
        let passes = measure::passes(seconds, self.pass_s);
        self.announce(seed, passes);
        let (mixes, ops) = self.draw(seed);
        let (runner, setup_times) =
            measure::repeat_setup(self.setups, || self.setup(&mixes, None).0);
        let mc = MulticoreRunner::new(&runner);

        let mut tally = Tally::default();
        let (mut sweep_times, mut op_ms) = (Vec::new(), Vec::new());
        let (mut instructions, mut cpu) = (0u64, 0.0);
        let mut reference: Option<Vec<Vec<SimResult>>> = None;
        for pass in 0..passes {
            let cpu0 = measure::cpu_seconds()?;
            let t = Instant::now();
            let mut results = Vec::with_capacity(ops.len());
            for &(m, k) in &ops {
                let t_op = Instant::now();
                let cores = mc.run_mix(&mixes[m], k);
                op_ms.push(t_op.elapsed().as_secs_f64() * 1e3);
                results.push(cores);
            }
            sweep_times.push(t.elapsed().as_secs_f64());
            cpu += measure::cpu_seconds()? - cpu0;
            for (&(m, k), cores) in ops.iter().zip(&results) {
                self.check(&mut tally, &mixes[m], k, cores);
                instructions += cores.iter().map(|r| self.warmup + r.instructions).sum::<u64>();
            }
            match &reference {
                None => {
                    self.print_digest(&mixes, &ops, &results);
                    reference = Some(results);
                }
                Some(r) => {
                    tally.check(*r == results, || format!("pass {pass} differs from pass 0"))
                }
            }
        }
        let metrics = end_to_end(&setup_times, &sweep_times, instructions, cpu, &op_ms)?;
        Ok((tally, metrics))
    }

    pub fn run_traced(
        &self,
        seed: u64,
        spans_out: &std::path::Path,
    ) -> Result<(Tally, Vec<Metric>), String> {
        self.announce(seed, 1);
        let (mixes, ops) = self.draw(seed);
        let mut log = SpanLog::new();
        let (runner, mut layers) = log.time("setup", None, |log| self.setup(&mixes, Some(log)));
        let mc = MulticoreRunner::new(&runner);
        let mut tally = Tally::default();

        // Untraced reference pass.
        let t = Instant::now();
        let expected: Vec<Vec<SimResult>> = ops
            .iter()
            .map(|&(m, k)| {
                let t_op = Instant::now();
                let cores = mc.run_mix(&mixes[m], k);
                layers.sum_point_s += t_op.elapsed().as_secs_f64();
                cores
            })
            .collect();
        layers.parallel_efficiency = layers.sum_point_s / t.elapsed().as_secs_f64();
        for (&(m, k), cores) in ops.iter().zip(&expected) {
            self.check(&mut tally, &mixes[m], k, cores);
        }
        self.print_digest(&mixes, &ops, &expected);

        log.time("sweep", None, |log| {
            for (id, &(m, k)) in ops.iter().enumerate() {
                let cores = log.time("simcore.mc_replay", Some(id), |_| mc.run_mix(&mixes[m], k));
                tally.check(cores == expected[id], || {
                    format!("traced mix {} on {k} differs", label(&mixes[m]))
                });
            }
        });

        // Telemetry on and off over the first mixes, on machines built here
        // exactly as `run_mix` builds them.
        let tel_cfg = simtel::TelemetryConfig {
            interval_instructions: 250_000,
            event_capacity: 0,
            ..Default::default()
        };
        log.time("simtel", None, |log| {
            for (id, &(m, k)) in
                ops.iter().enumerate().filter(|(_, op)| op.0 < self.telemetry_mixes)
            {
                let mix = &mixes[m];
                let off = log.time("simtel.off", Some(id), |_| run_machine(&runner, mix, k, None));
                let tel = simtel::TelemetryHandle::collector(&tel_cfg);
                let on =
                    log.time("simtel.on", Some(id), |_| run_machine(&runner, mix, k, Some(&tel)));
                tally.check(off == expected[id] && on == expected[id], || {
                    format!("telemetry run of mix {} on {k} differs", label(mix))
                });
                layers.add_stalls(&tel.take_output().unwrap_or_default());
            }
        });

        let totals = log.totals();
        let of = |name: &str| totals.get(name).copied().unwrap_or_default();
        layers.build_s = of("gpgraph.build").self_s;
        layers.record_s = of("gpkernels.record").self_s;
        for (slot, kind) in SYSTEMS.iter().enumerate() {
            let on_kind = log.totals_where(|p| p.is_some_and(|i| ops[i].1 == *kind));
            layers.mc_replay_s[slot] = on_kind.get("simcore.mc_replay").map_or(0.0, |t| t.self_s);
        }
        layers.mc_instr = expected.iter().flatten().map(|r| self.warmup + r.instructions).sum();
        layers.simtel_overhead = of("simtel.on").self_s / of("simtel.off").self_s;
        layers.samples = ops
            .iter()
            .zip(&expected)
            .map(|(&(m, k), cores)| Sample { system: k, pair: m, counts: Counts::of_mix(cores) })
            .collect();
        println!(
            "perfbench: shares: mc_replay/traced-sweep {:.3}, (build+record)/setup {:.3}",
            layers.mc_replay_s.iter().sum::<f64>() / of("sweep").total_s,
            (layers.build_s + layers.record_s) / of("setup").total_s
        );
        let metrics = layers.metrics();
        let labels: Vec<String> =
            ops.iter().map(|&(m, k)| format!("mix{m}:{}|{k}", label(&mixes[m]))).collect();
        let header = vec![
            ("workload", format!("\"{}\"", self.name)),
            ("seed", seed.to_string()),
            ("threads", "1".to_string()),
            ("scale", "\"Small\"".to_string()),
            ("window", format!("[{}, {}]", self.warmup, self.measure)),
        ];
        log.write(spans_out, &header, &labels, &metrics)?;
        println!("perfbench: spans written to {}", spans_out.display());
        Ok((tally, metrics))
    }

    fn print_digest(&self, mixes: &[Mix], ops: &[(usize, SystemKind)], results: &[Vec<SimResult>]) {
        let entries: Vec<(String, String)> = ops
            .iter()
            .zip(results)
            .map(|(&(m, k), cores)| (format!("{}|{k}", label(&mixes[m])), format!("{cores:?}")))
            .collect();
        println!(
            "perfbench: digest {} {:016x} over {} mix runs",
            self.name,
            measure::digest(&entries),
            entries.len()
        );
    }
}

fn label(mix: &Mix) -> String {
    mix.iter().map(|w| w.name()).collect::<Vec<_>>().join("+")
}

/// One mix on a machine assembled with `build_multicore`, as
/// `MulticoreRunner::run_mix` assembles it (disjoint per-core address
/// spaces), optionally with telemetry attached.
fn run_machine(
    runner: &Runner,
    mix: &Mix,
    kind: SystemKind,
    tel: Option<&simtel::TelemetryHandle>,
) -> Vec<SimResult> {
    let traces: Vec<std::sync::Arc<CompactTrace>> = mix.iter().map(|&w| runner.trace(w)).collect();
    let refs: Vec<&CompactTrace> = traces.iter().map(|t| t.as_ref()).collect();
    let offsets: Vec<u64> = (0..MIX_WIDTH as u64).map(|c| c << 40).collect();
    let kernels: Vec<Kernel> = mix.iter().map(|w| w.kernel).collect();
    let (cores, backend) = build_multicore(kind, &kernels, MIX_WIDTH, &runner.sdclp);
    let core = SystemConfig::baseline(1).core;
    let mut engine = MulticoreEngine::new(cores, backend, runner.window);
    if let Some(tel) = tel {
        engine.attach_telemetry(tel.clone());
    }
    engine.run_with_offsets(&refs, &offsets, core.width, core.rob_entries)
}
