//! What a run reports: the operation tally, the end-to-end metrics of an
//! untraced run, and the per-layer metrics of a traced run. Every run emits
//! every metric of its kind; a layer a workload does not exercise reads 0.

use crate::measure;
use gpworkloads::SystemKind;
use simcore::{geomean, SimResult};

/// The Fig. 7 systems, in `SystemKind::FIG7` order, with the suffixes their
/// per-system metrics carry.
pub const SYSTEM_SLUGS: [(SystemKind, &str); 6] = [
    (SystemKind::Baseline, "baseline"),
    (SystemKind::L1d40kIso, "l1d40k"),
    (SystemKind::Distill, "distill"),
    (SystemKind::TOpt, "topt"),
    (SystemKind::DoubleLlc, "2xllc"),
    (SystemKind::SdcLp, "sdclp"),
];

pub fn slot(kind: SystemKind) -> Option<usize> {
    SYSTEM_SLUGS.iter().position(|&(k, _)| k == kind)
}

/// Counts operations (a matrix point or a mix run) and failed checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that span operations (cross-pass and traced-vs-untraced
    /// equality); any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Tally {
    /// One operation; `ok` false counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: failed: {}", what());
        }
    }

    /// A check over outputs already counted as operations.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.problems.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }
}

pub type Metric = (String, f64, &'static str);

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let finite = metrics.iter().all(|m| m.1.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct() && finite,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// The end-to-end metrics of an untraced run, from its samples: set-up
/// seconds per set-up, wall seconds per pass, simulated instructions and
/// CPU seconds over all passes, and host milliseconds per operation. Prints
/// which percentile the tail is and over how many samples.
pub fn end_to_end(
    setup_s: &[f64],
    sweep_s: &[f64],
    instructions: u64,
    cpu_s: f64,
    op_ms: &[f64],
) -> Result<Vec<Metric>, String> {
    let (tail_ms, tail_p) = measure::tail(op_ms);
    println!("perfbench: point_ms_tail is p{tail_p} of {} samples", op_ms.len());
    Ok(vec![
        ("setup_s".into(), measure::median(setup_s), "s"),
        ("sweep_s".into(), measure::median(sweep_s), "s"),
        ("sim_minstr_per_cpu_s".into(), instructions as f64 / 1e6 / cpu_s, "Minstr/s"),
        ("point_ms_p50".into(), measure::median(op_ms), "ms"),
        ("point_ms_tail".into(), tail_ms, "ms"),
        ("peak_rss_mb".into(), measure::peak_rss_mb()?, "MiB"),
    ])
}

/// The simulated counters the per-layer metrics aggregate, for one
/// single-core point or one whole mix (per-core counters summed, the shared
/// LLC/DRAM counted once, cycles of the slowest core).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub instructions: u64,
    pub cycles: u64,
    pub l1d_misses: u64,
    pub l2c_misses: u64,
    pub llc_misses: u64,
    pub row_hits: u64,
    pub row_accesses: u64,
    pub sdc_hits: u64,
    pub sdc_accesses: u64,
    pub routed_sdc: u64,
    pub routed_l1d: u64,
    /// SDC lines invalidated by SDCDir coherence (capacity displacement
    /// and hierarchy-path writes).
    pub sdc_invalidations: u64,
}

impl Counts {
    pub fn of(r: &SimResult) -> Counts {
        let s = &r.stats;
        Counts {
            instructions: r.instructions,
            cycles: r.cycles,
            l1d_misses: s.l1d.misses,
            l2c_misses: s.l2c.misses,
            llc_misses: s.llc.misses,
            row_hits: s.dram.row_hits,
            row_accesses: s.dram.row_hits + s.dram.row_misses + s.dram.row_conflicts,
            sdc_hits: s.sdc.hits,
            sdc_accesses: s.sdc.accesses,
            routed_sdc: s.routed_to_sdc,
            routed_l1d: s.routed_to_l1d,
            sdc_invalidations: s.sdc.invalidations,
        }
    }

    /// One mix: every core's result carries the same shared-backend
    /// counters, so those come from the first core only.
    pub fn of_mix(cores: &[SimResult]) -> Counts {
        let mut c = Counts::default();
        for r in cores {
            let one = Counts::of(r);
            c.instructions += one.instructions;
            c.cycles = c.cycles.max(one.cycles);
            c.l1d_misses += one.l1d_misses;
            c.l2c_misses += one.l2c_misses;
            c.sdc_hits += one.sdc_hits;
            c.sdc_accesses += one.sdc_accesses;
            c.routed_sdc += one.routed_sdc;
            c.routed_l1d += one.routed_l1d;
            c.sdc_invalidations += one.sdc_invalidations;
        }
        if let Some(first) = cores.first().map(Counts::of) {
            c.llc_misses = first.llc_misses;
            c.row_hits = first.row_hits;
            c.row_accesses = first.row_accesses;
        }
        c
    }

    fn add(&mut self, o: &Counts) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.l1d_misses += o.l1d_misses;
        self.l2c_misses += o.l2c_misses;
        self.llc_misses += o.llc_misses;
        self.row_hits += o.row_hits;
        self.row_accesses += o.row_accesses;
        self.sdc_hits += o.sdc_hits;
        self.sdc_accesses += o.sdc_accesses;
        self.routed_sdc += o.routed_sdc;
        self.routed_l1d += o.routed_l1d;
        self.sdc_invalidations += o.sdc_invalidations;
    }
}

/// One simulated outcome: its system, the unit it pairs on across systems
/// (workload or mix), and its counters.
pub struct Sample {
    pub system: SystemKind,
    pub pair: usize,
    pub counts: Counts,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer figures of a traced run (0 where a layer is not exercised).
#[derive(Default)]
pub struct Layers {
    pub build_s: f64,
    pub edges: u64,
    pub record_s: f64,
    pub recorded_instr: u64,
    pub events: u64,
    /// Single-core replay self time per `SYSTEM_SLUGS` slot.
    pub replay_s: [f64; 6],
    pub warmup_s: f64,
    pub measure_s: f64,
    pub mem_refs: u64,
    /// Multicore replay time: Baseline, SDC+LP.
    pub mc_replay_s: [f64; 2],
    pub mc_instr: u64,
    pub samples: Vec<Sample>,
    pub stalls: simtel::StallBuckets,
    pub sum_point_s: f64,
    pub parallel_efficiency: f64,
    pub snapshot_bytes: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub restore_ms: f64,
    pub cold_overhead: f64,
    pub warm_saving: f64,
    pub resume_s: f64,
    pub simtel_overhead: f64,
}

impl Layers {
    /// Add a telemetry pass's per-interval stall attribution.
    pub fn add_stalls(&mut self, out: &simtel::TelemetryOutput) {
        for iv in &out.intervals {
            self.stalls.rob_full += iv.stalls.rob_full;
            self.stalls.mshr_full += iv.stalls.mshr_full;
            self.stalls.dram_wait += iv.stalls.dram_wait;
            self.stalls.busy += iv.stalls.busy;
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let mut m: Vec<Metric> = Vec::new();
        let mut put =
            |name: &str, value: f64, unit: &'static str| m.push((name.into(), value, unit));
        put("gpgraph.build_s", self.build_s, "s");
        put("gpgraph.medges_per_s", ratio(self.edges as f64 / 1e6, self.build_s), "Medges/s");
        put("gpkernels.record_s", self.record_s, "s");
        let record_rate = ratio(self.recorded_instr as f64 / 1e6, self.record_s);
        put("gpkernels.record_minstr_per_s", record_rate, "Minstr/s");
        put("gpkernels.events", self.events as f64, "count");
        let replay: f64 = self.replay_s.iter().sum();
        put("simcore.replay_s", replay, "s");
        for (i, (_, slug)) in SYSTEM_SLUGS.iter().enumerate() {
            put(&format!("simcore.replay_s.{slug}"), self.replay_s[i], "s");
        }
        put("simcore.warmup_s", self.warmup_s, "s");
        put("simcore.measure_s", self.measure_s, "s");
        put("simcore.ns_per_mem_ref", ratio(replay * 1e9, self.mem_refs as f64), "ns");
        put("simcore.mc_replay_s.baseline", self.mc_replay_s[0], "s");
        put("simcore.mc_replay_s.sdclp", self.mc_replay_s[1], "s");
        let mc: f64 = self.mc_replay_s.iter().sum();
        put("simcore.mc_ns_per_instr", ratio(mc * 1e9, self.mc_instr as f64), "ns");

        let mut all = Counts::default();
        for s in &self.samples {
            all.add(&s.counts);
        }
        let kilo = all.instructions as f64 / 1000.0;
        put("simcore.l1d_mpki", ratio(all.l1d_misses as f64, kilo), "mpki");
        put("simcore.l2c_mpki", ratio(all.l2c_misses as f64, kilo), "mpki");
        put("simcore.llc_mpki", ratio(all.llc_misses as f64, kilo), "mpki");
        put(
            "simcore.dram_row_hit_rate",
            ratio(all.row_hits as f64, all.row_accesses as f64),
            "ratio",
        );
        for (kind, slug) in SYSTEM_SLUGS {
            let ipcs: Vec<f64> = self
                .samples
                .iter()
                .filter(|s| s.system == kind)
                .map(|s| ratio(s.counts.instructions as f64, s.counts.cycles as f64))
                .collect();
            put(&format!("simcore.ipc_geomean.{slug}"), geomean(&ipcs), "IPC");
        }
        let st = &self.stalls;
        let stall_total = (st.attributed() + st.busy) as f64;
        put("simcore.stall_share.rob_full", ratio(st.rob_full as f64, stall_total), "ratio");
        put("simcore.stall_share.mshr_full", ratio(st.mshr_full as f64, stall_total), "ratio");
        put("simcore.stall_share.dram_wait", ratio(st.dram_wait as f64, stall_total), "ratio");
        put("simcore.stall_share.busy", ratio(st.busy as f64, stall_total), "ratio");

        let (base, sdclp) = (slot(SystemKind::Baseline), slot(SystemKind::SdcLp));
        let single_extra = match (base, sdclp) {
            (Some(b), Some(s)) => self.replay_s[s] - self.replay_s[b],
            _ => 0.0,
        };
        let extra = single_extra + self.mc_replay_s[1] - self.mc_replay_s[0];
        put("sdclp.extra_replay_s", extra, "s");
        let mut lp = Counts::default();
        for s in self.samples.iter().filter(|s| s.system == SystemKind::SdcLp) {
            lp.add(&s.counts);
        }
        let routed = (lp.routed_sdc + lp.routed_l1d) as f64;
        put("sdclp.routed_to_sdc_share", ratio(lp.routed_sdc as f64, routed), "ratio");
        put("sdclp.sdc_hit_rate", ratio(lp.sdc_hits as f64, lp.sdc_accesses as f64), "ratio");
        let speedups: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.system == SystemKind::SdcLp)
            .filter_map(|s| {
                self.samples
                    .iter()
                    .find(|b| b.system == SystemKind::Baseline && b.pair == s.pair)
                    .map(|b| ratio(b.counts.cycles as f64, s.counts.cycles as f64))
            })
            .collect();
        put("sdclp.speedup_geomean", geomean(&speedups), "ratio");
        put("sdclp.sdcdir_invalidations", lp.sdc_invalidations as f64, "count");

        put("gpworkloads.sum_point_s", self.sum_point_s, "s");
        put("gpworkloads.parallel_efficiency", self.parallel_efficiency, "ratio");
        put("simstate.snapshot_bytes", self.snapshot_bytes, "B");
        put("simstate.save_ms", self.save_ms, "ms");
        put("simstate.load_ms", self.load_ms, "ms");
        put("simstate.restore_ms", self.restore_ms, "ms");
        put("simstate.cold_overhead", self.cold_overhead, "ratio");
        put("simstate.warm_saving", self.warm_saving, "ratio");
        put("simstate.resume_s", self.resume_s, "s");
        put("simtel.overhead", self.simtel_overhead, "ratio");
        m
    }
}
