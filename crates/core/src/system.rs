//! The complete SDC+LP memory system (Section III-D, "Putting It All
//! Together"): a router (LP or expert) steers each access either into the
//! conventional L1D/L2C/LLC path or into the Side Data Cache; SDC misses
//! send a lightweight coherence probe to the directory + SDCDir and, when
//! no on-chip copy exists, fetch straight from DRAM — bypassing the L2C
//! and LLC in both directions.

use crate::config::SdcLpConfig;
use crate::lp::{LargePredictor, Route};
use crate::router::{ExpertRouter, LpRouter, Router};
use crate::sdcdir::SdcDir;
use simcore::block::{block_of, BLOCK_BITS};
use simcore::cache::{Cache, LookupResult};
use simcore::config::SystemConfig;
use simcore::hierarchy::{
    AccessOutcome, CoreMemory, CoreSide, ServedBy, SharedBackend, SingleCore,
};
use simcore::mshr::{MshrFile, MshrOutcome};
use simcore::prefetch::NextLine;
use simcore::replacement::ReplCtx;
use simcore::stats::HierStats;
use simcore::trace::{MemRef, StructId};

/// Per-core SDC+LP memory side: the baseline private hierarchy plus the
/// SDC, the routing predictor, and the SDCDir.
pub struct SdcCore<R: Router> {
    pub inner: CoreSide,
    pub router: R,
    pub sdc: Cache,
    sdc_mshr: MshrFile,
    sdc_prefetcher: NextLine,
    pub sdcdir: SdcDir,
    cfg: SdcLpConfig,
    core_id: usize,
    routed_to_sdc: u64,
    sdc_served_by_hierarchy: u64,
    sdcdir_evict_invalidations: u64,
    pf_buf: Vec<u64>,
    tel: simtel::TelemetryHandle,
}

impl<R: Router> SdcCore<R> {
    pub fn new(sys: &SystemConfig, cfg: SdcLpConfig, router: R, core_id: usize) -> Self {
        SdcCore {
            inner: CoreSide::new(sys),
            router,
            sdc: Cache::new(&cfg.sdc.as_cache_config()),
            sdc_mshr: MshrFile::new(cfg.sdc.mshr_entries),
            sdc_prefetcher: NextLine::new(),
            sdcdir: SdcDir::new(&cfg.sdcdir),
            cfg,
            core_id,
            routed_to_sdc: 0,
            sdc_served_by_hierarchy: 0,
            sdcdir_evict_invalidations: 0,
            pf_buf: Vec::with_capacity(4),
            tel: simtel::TelemetryHandle::disabled(),
        }
    }

    pub fn config(&self) -> &SdcLpConfig {
        &self.cfg
    }

    /// Fill `block` into the SDC, maintaining the SDCDir and writing dirty
    /// victims straight back to DRAM (the SDC never fills the L2C/LLC).
    fn fill_sdc(
        &mut self,
        addr: u64,
        block: u64,
        dirty: bool,
        prefetched: bool,
        backend: &mut SharedBackend,
        now: u64,
    ) {
        if let Some(ev) = self.sdc.fill(addr, block, dirty, prefetched, ReplCtx::NONE) {
            if ev.dirty {
                backend.dram_writeback(ev.block, now);
            }
            self.sdcdir.remove(ev.block, self.core_id);
        }
        if let Some(displaced) = self.sdcdir.insert(block, self.core_id) {
            // SDCDir capacity eviction: the displaced block must leave every
            // SDC (Section III-C), writing back to DRAM if dirty.
            if let Some(was_dirty) = self.sdc.invalidate(displaced) {
                if was_dirty {
                    backend.dram_writeback(displaced, now);
                }
            }
            self.sdcdir_evict_invalidations += 1;
        }
    }

    /// The SDC's next-line prefetcher (Table I).
    fn sdc_prefetch(
        &mut self,
        pc: u16,
        block: u64,
        hit: bool,
        backend: &mut SharedBackend,
        now: u64,
    ) {
        let mut buf = std::mem::take(&mut self.pf_buf);
        buf.clear();
        self.sdc_prefetcher.on_access(pc, block, hit, &mut buf);
        for &pb in &buf {
            if self.sdc.probe(pb) {
                continue;
            }
            if !self.sdc_mshr.try_acquire(pb, now) {
                break; // MSHR file full: the prefetch is dropped
            }
            // Prefetch data is sourced past the LLC like demand bypasses;
            // congested DRAM drops the prefetch (as at the L1D).
            let done = if self.inner.l2c.probe(pb) {
                now + self.inner.l2c.latency
            } else if !backend.prefetch_source(pb, now) {
                continue;
            } else {
                now + backend.dram.closed_row_latency()
            };
            self.sdc_mshr.commit(pb, done);
            let pa = pb << BLOCK_BITS;
            self.fill_sdc(pa, pb, false, true, backend, now);
        }
        self.pf_buf = buf;
    }

    /// Probe the conventional hierarchy for `block`; returns the serving
    /// level's latency if a valid copy exists.
    fn hierarchy_probe(&self, block: u64, backend: &SharedBackend) -> Option<(u64, ServedBy)> {
        if self.inner.l1d.probe(block) {
            Some((self.inner.l1d.latency, ServedBy::L1d))
        } else if self.inner.l2c.probe(block) {
            Some((self.inner.l2c.latency, ServedBy::L2c))
        } else if backend.llc.probe(block) {
            Some((backend.llc.latency(), ServedBy::Llc))
        } else {
            None
        }
    }

    /// Invalidate `block` throughout the conventional hierarchy (the write
    /// path of the coherence protocol), returning whether any copy was
    /// dirty.
    fn invalidate_hierarchy(&mut self, block: u64, backend: &mut SharedBackend) -> bool {
        let mut dirty = false;
        if let Some(d) = self.inner.l1d.invalidate(block) {
            dirty |= d;
        }
        if let Some(d) = self.inner.l2c.invalidate(block) {
            dirty |= d;
        }
        if let Some(d) = backend.llc.invalidate(block) {
            dirty |= d;
        }
        dirty
    }

    /// The SDC access path (Fig. 4 steps 3 and onward).
    fn access_via_sdc(
        &mut self,
        r: &MemRef,
        now: u64,
        backend: &mut SharedBackend,
    ) -> AccessOutcome {
        self.routed_to_sdc += 1;
        self.tel.event(now, || simtel::EventKind::SdcBypass);
        let block = block_of(r.addr);
        let t0 = now + self.inner.tlb.translate(r.addr);

        let hit = self.sdc.access(r.addr, block, r.is_write, ReplCtx::NONE) == LookupResult::Hit;
        let t_sdc_done = t0 + self.sdc.latency;
        if hit {
            self.sdc_prefetch(r.pc, block, true, backend, t_sdc_done);
            return AccessOutcome::new(t_sdc_done, ServedBy::Sdc);
        }

        let t_miss = match self.sdc_mshr.acquire(block, t_sdc_done) {
            MshrOutcome::Merged { done } => {
                return AccessOutcome::new(done, ServedBy::Sdc);
            }
            MshrOutcome::Granted { start } => start,
        };
        let sdc_stalled = t_miss > t_sdc_done;

        // Lightweight coherence message: the cache directory and the SDCDir
        // are probed in parallel (Section III-C).
        let t_probe = t_miss + self.cfg.dir_probe_latency.max(self.sdcdir.latency);
        let _ = self.sdcdir.contains(block); // directory bookkeeping/stats

        let (completion, served_by, dram_stalled) = match self.hierarchy_probe(block, backend) {
            Some((level_latency, level)) => {
                // The LP called a hierarchy-resident line averse.
                self.sdc_served_by_hierarchy += 1;
                let done = t_probe + level_latency;
                self.tel.event(done, || simtel::EventKind::LpMispredict);
                if r.is_write {
                    // Writes leave a single valid copy: pull the block out
                    // of the hierarchy (writeback absorbed by the fetch) and
                    // own it dirty in the SDC.
                    self.invalidate_hierarchy(block, backend);
                    self.fill_sdc(r.addr, block, true, false, backend, done);
                }
                (done, level, false)
            }
            None => {
                // Fast path to DRAM: bypass the L2C and LLC entirely and
                // fill only the SDC (Section III-A).
                let (done, stalled) = backend.dram_fetch(block, t_probe);
                self.fill_sdc(r.addr, block, r.is_write, false, backend, done);
                (done, ServedBy::Dram, stalled)
            }
        };
        self.sdc_mshr.commit(block, completion);
        // Prefetch behind the demand so it never steals the DRAM bank.
        self.sdc_prefetch(r.pc, block, false, backend, completion);
        AccessOutcome::new(completion, served_by).with_mshr_stall(sdc_stalled || dram_stalled)
    }
}

impl<R: Router> CoreMemory for SdcCore<R> {
    fn access(&mut self, r: &MemRef, now: u64, backend: &mut SharedBackend) -> AccessOutcome {
        let block = block_of(r.addr);
        match self.router.route(r) {
            Route::Sdc => self.access_via_sdc(r, now, backend),
            Route::Hierarchy => {
                if self.sdc.probe(block) {
                    if r.is_write {
                        // The hierarchy-path write invalidates the SDC copy
                        // so a single valid (dirty) copy remains.
                        if let Some(dirty) = self.sdc.invalidate(block) {
                            if dirty {
                                backend.dram_writeback(block, now);
                            }
                        }
                        self.sdcdir.remove(block, self.core_id);
                        self.inner.access(r, now, backend)
                    } else {
                        // The parallel SDCDir lookup finds the (possibly
                        // dirty) copy in the SDC; serve it from there.
                        let t0 = now + self.inner.tlb.translate(r.addr);
                        let completion = t0 + self.sdcdir.latency + self.sdc.latency;
                        let _ = self.sdc.access(r.addr, block, false, ReplCtx::NONE);
                        AccessOutcome::new(completion, ServedBy::Sdc)
                    }
                } else {
                    self.inner.access(r, now, backend)
                }
            }
        }
    }

    fn collect_core_stats(&self) -> HierStats {
        let mut s = self.inner.collect_core_stats();
        s.sdc = self.sdc.stats;
        s.routed_to_sdc = self.routed_to_sdc;
        s.sdc_served_by_hierarchy = self.sdc_served_by_hierarchy;
        s.sdcdir_evict_invalidations = self.sdcdir_evict_invalidations;
        s
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.sdc.stats.reset();
        self.sdcdir.reset_stats();
        self.router.reset_stats();
        self.routed_to_sdc = 0;
        self.sdc_served_by_hierarchy = 0;
        self.sdcdir_evict_invalidations = 0;
    }

    fn attach_telemetry(&mut self, tel: simtel::TelemetryHandle) {
        self.inner.attach_telemetry(tel.clone());
        self.tel = tel;
    }

    fn telemetry_counters(&self) -> simtel::ExtraCounters {
        let inner = self.inner.telemetry_counters();
        let lp = self.router.lp_stats().unwrap_or_default();
        simtel::ExtraCounters {
            mshr_high_water: inner.mshr_high_water.max(self.sdc_mshr.high_water),
            mshr_stall_cycles: inner.mshr_stall_cycles + self.sdc_mshr.stall_cycles,
            lp_lookups: lp.lookups,
            lp_sdc_routes: lp.sdc_routes,
            lp_hierarchy_routes: lp.hierarchy_routes,
            sdc_bypasses: self.routed_to_sdc,
            sdcdir_occupancy: self.sdcdir.occupancy() as u64,
        }
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"SDCC");
        self.inner.save_state(w);
        self.router.save_state(w);
        self.sdc.save_state(w);
        self.sdc_mshr.save_state(w);
        self.sdc_prefetcher.save_state(w);
        self.sdcdir.save_state(w);
        w.put_u64(self.routed_to_sdc);
        w.put_u64(self.sdc_served_by_hierarchy);
        w.put_u64(self.sdcdir_evict_invalidations);
        // pf_buf is per-access scratch (cleared before every use): skipped.
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        r.expect_tag(b"SDCC")?;
        self.inner.load_state(r)?;
        self.router.load_state(r)?;
        self.sdc.load_state(r)?;
        self.sdc_mshr.load_state(r)?;
        self.sdc_prefetcher.load_state(r)?;
        self.sdcdir.load_state(r)?;
        self.routed_to_sdc = r.get_u64()?;
        self.sdc_served_by_hierarchy = r.get_u64()?;
        self.sdcdir_evict_invalidations = r.get_u64()?;
        Ok(())
    }
}

/// The SDC+LP per-core memory side evaluated throughout the paper.
pub type SdcLpCore = SdcCore<LpRouter>;

/// The Expert Programmer per-core memory side (Fig. 13).
pub type ExpertCore = SdcCore<ExpertRouter>;

impl SdcLpCore {
    pub fn new_lp(sys: &SystemConfig, cfg: SdcLpConfig, core_id: usize) -> Self {
        let lp = LargePredictor::new(cfg.lp);
        SdcCore::new(sys, cfg, LpRouter::new(lp), core_id)
    }
}

impl ExpertCore {
    pub fn new_expert(
        sys: &SystemConfig,
        cfg: SdcLpConfig,
        averse_sids: &[StructId],
        core_id: usize,
    ) -> Self {
        SdcCore::new(sys, cfg, ExpertRouter::new(averse_sids), core_id)
    }
}

/// Single-core SDC+LP machine (plugs into `simcore::Engine`).
pub type SdcLpSystem = SingleCore<SdcLpCore>;

/// Single-core Expert Programmer machine.
pub type ExpertSystem = SingleCore<ExpertCore>;

/// Build the single-core SDC+LP system of Table I.
pub fn sdclp_system(sys: &SystemConfig, cfg: SdcLpConfig) -> SdcLpSystem {
    SingleCore::from_parts(SdcLpCore::new_lp(sys, cfg, 0), SharedBackend::new(sys))
}

/// Build the single-core Expert Programmer system of Fig. 13.
pub fn expert_system(
    sys: &SystemConfig,
    cfg: SdcLpConfig,
    averse_sids: &[StructId],
) -> ExpertSystem {
    SingleCore::from_parts(
        ExpertCore::new_expert(sys, cfg, averse_sids, 0),
        SharedBackend::new(sys),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::config::PrefetcherKind;
    use simcore::hierarchy::MemorySystem;

    fn sys_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::baseline(1);
        cfg.l1d.prefetcher = PrefetcherKind::None;
        cfg.l2c.prefetcher = PrefetcherKind::None;
        cfg
    }

    fn irregular_ref(i: u64) -> MemRef {
        // Same PC, huge strides: the LP learns to route these to the SDC.
        MemRef::read(7, 1, (i * 1_000_003) % (1 << 30) * 64)
    }

    #[test]
    fn lp_learns_and_bypasses_to_sdc() {
        let mut sys = sdclp_system(&sys_cfg(), SdcLpConfig::table1());
        let mut t = 0;
        for i in 0..100u64 {
            let out = sys.access(&irregular_ref(i), t);
            t = out.completion + 10;
        }
        let s = sys.collect_stats();
        assert!(s.routed_to_sdc > 50, "routed_to_sdc = {}", s.routed_to_sdc);
        assert!(s.sdc.accesses > 50);
        // The L2C must have been bypassed for those accesses.
        assert!(s.l2c.accesses < 50, "l2c accesses = {}", s.l2c.accesses);
    }

    #[test]
    fn sdc_bypass_is_faster_than_full_walk() {
        // Compare the DRAM-bound access latency on the two paths.
        let cfg = sys_cfg();
        let mut base = simcore::BaselineHierarchy::new(&cfg);
        let base_out = base.access(&MemRef::read(1, 0, 0x123400000), 0);

        let mut sys = sdclp_system(&cfg, SdcLpConfig::table1());
        // Train the LP first.
        let mut t = 0;
        for i in 0..50u64 {
            t = sys.access(&irregular_ref(i), t).completion + 5;
        }
        // A fresh cold access routed through the SDC path.
        let out = sys.access(&irregular_ref(5000), 1_000_000);
        let sdc_latency = out.completion - 1_000_000;
        let base_latency = base_out.completion;
        assert!(
            sdc_latency < base_latency,
            "SDC path {sdc_latency} should beat baseline walk {base_latency}"
        );
    }

    #[test]
    fn bypass_does_not_pollute_llc() {
        let mut sys = sdclp_system(&sys_cfg(), SdcLpConfig::table1());
        let mut t = 0;
        for i in 0..200u64 {
            t = sys.access(&irregular_ref(i), t).completion + 5;
        }
        let s = sys.collect_stats();
        // After training, LLC fills should be far fewer than SDC-path accesses.
        assert!(s.llc.fills < 100, "LLC fills = {} despite bypassing", s.llc.fills);
    }

    #[test]
    fn expert_router_bypasses_tagged_structures() {
        let mut sys = expert_system(&sys_cfg(), SdcLpConfig::table1(), &[5]);
        let averse = MemRef::read(1, 5, 0x1000000);
        let friendly = MemRef::read(2, 3, 0x2000000);
        sys.access(&averse, 0);
        sys.access(&friendly, 1000);
        let s = sys.collect_stats();
        assert_eq!(s.routed_to_sdc, 1);
        assert_eq!(s.sdc.accesses, 1);
        assert_eq!(s.l1d.accesses, 1);
    }

    #[test]
    fn write_then_hierarchy_read_sees_single_copy_semantics() {
        let mut sys = expert_system(&sys_cfg(), SdcLpConfig::table1(), &[5]);
        let addr = 0x5000000;
        // Write lands in the SDC (dirty).
        sys.access(&MemRef::write(1, 5, addr), 0);
        assert!(sys.core.sdc.probe(block_of(addr)));
        // A hierarchy-routed read of the same block is served by the SDC
        // (the SDCDir finds it), not by stale DRAM data.
        let out = sys.access(&MemRef::read(2, 0, addr), 1000);
        assert_eq!(out.served_by, ServedBy::Sdc);
    }

    #[test]
    fn hierarchy_write_invalidates_sdc_copy() {
        let mut sys = expert_system(&sys_cfg(), SdcLpConfig::table1(), &[5]);
        let addr = 0x6000000;
        sys.access(&MemRef::read(1, 5, addr), 0); // fills SDC
        assert!(sys.core.sdc.probe(block_of(addr)));
        sys.access(&MemRef::write(2, 0, addr), 1000); // hierarchy write
        assert!(!sys.core.sdc.probe(block_of(addr)), "SDC copy must be invalidated");
        assert_eq!(sys.core.sdcdir.sharers(block_of(addr)), 0);
    }

    #[test]
    fn sdc_write_pulls_block_out_of_hierarchy() {
        let mut sys = expert_system(&sys_cfg(), SdcLpConfig::table1(), &[5]);
        let addr = 0x7000000;
        // Bring the block into the hierarchy first (friendly sid).
        sys.access(&MemRef::read(1, 0, addr), 0);
        assert!(sys.core.inner.l1d.probe(block_of(addr)));
        // Now write via the SDC path.
        sys.access(&MemRef::write(2, 5, addr), 10_000);
        assert!(!sys.core.inner.l1d.probe(block_of(addr)));
        assert!(sys.core.sdc.probe(block_of(addr)));
    }

    #[test]
    fn sdcdir_tracks_sdc_contents_precisely() {
        let mut sys = expert_system(&sys_cfg(), SdcLpConfig::table1(), &[5]);
        let mut t = 0;
        for i in 0..64u64 {
            t = sys.access(&MemRef::read(1, 5, i * 64 * 1024), t).completion + 5;
        }
        // Every block in the SDC must be covered by the SDCDir (precision
        // invariant of Section III-C). The converse need not hold after
        // SDC capacity evictions.
        for i in 0..64u64 {
            let b = block_of(i * 64 * 1024);
            if sys.core.sdc.probe(b) {
                assert_ne!(sys.core.sdcdir.sharers(b), 0, "block {b} in SDC but not SDCDir");
            }
        }
    }

    #[test]
    fn sdclp_snapshot_restore_then_run_is_bit_identical() {
        use simcore::engine::{Engine, Window};
        use simcore::trace::{RecordingTracer, Tracer};

        // Mixed friendly/averse stream so the LP trains mid-trace and the
        // SDC, SDCDir, and both MSHR files all hold live state at the split.
        let mut rec = RecordingTracer::new(u64::MAX);
        let mut x = 99u64;
        for i in 0..10_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 4 {
                0 => rec.mem(irregular_ref(i)),
                1 => rec.mem(MemRef::read(3, 0, (i % 256) * 64)),
                2 => rec.mem(MemRef::write(5, 2, (x >> 24) % 500_000 * 64)),
                _ => rec.bubble(1 + (x % 3) as u32),
            }
        }
        let trace = rec.finish();

        let cfg = sys_cfg();
        let build = || {
            Engine::new(sdclp_system(&cfg, SdcLpConfig::table1()), 4, 224, Window::new(2000, 8000))
        };

        let mut straight = build();
        straight.replay(&trace);
        let want = straight.finish();
        assert!(want.stats.routed_to_sdc > 0, "LP never routed to the SDC");

        for split in [800usize, 3_500] {
            let mut first = build();
            let pos = first.replay_span(&trace, 0, split);
            assert_eq!(pos, split);
            let payload = first.snapshot();

            let mut resumed = build();
            resumed.restore(&payload).unwrap();
            resumed.replay_from(&trace, pos);
            assert_eq!(resumed.finish(), want, "diverged after restore at event {split}");
        }
    }

    #[test]
    fn sdc_hit_is_one_cycle_plus_tlb() {
        let mut sys = expert_system(&sys_cfg(), SdcLpConfig::table1(), &[5]);
        let addr = 0x9000000;
        let first = sys.access(&MemRef::read(1, 5, addr), 0);
        // Second access: TLB warm, SDC hit at 1 cycle.
        let t = first.completion + 100;
        let out = sys.access(&MemRef::read(1, 5, addr), t);
        assert_eq!(out.served_by, ServedBy::Sdc);
        assert_eq!(out.completion - t, 1);
    }
}
