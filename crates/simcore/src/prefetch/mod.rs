//! Hardware prefetchers (Table I: next-line at the L1D and SDC, SPP at the
//! L2C).

mod next_line;
mod spp;
mod stride;

pub use next_line::NextLine;
pub use spp::{Spp, SppConfig};
pub use stride::StridePrefetcher;

use crate::config::PrefetcherKind;

/// Enum-dispatched prefetcher for the hierarchy hot path.
///
/// A prefetcher observes the demand stream at its cache level and proposes
/// block addresses to fill. Dispatch is static so the per-access
/// `on_access` call (every L1D and L2C demand access makes one) inlines.
#[derive(Debug)]
pub enum PrefetchState {
    None,
    NextLine(NextLine),
    Spp(Spp),
    Stride(StridePrefetcher),
}

impl PrefetchState {
    pub fn new(kind: PrefetcherKind) -> Self {
        match kind {
            PrefetcherKind::None => PrefetchState::None,
            PrefetcherKind::NextLine => PrefetchState::NextLine(NextLine::new()),
            PrefetcherKind::Spp => PrefetchState::Spp(Spp::new(SppConfig::default())),
            PrefetcherKind::Stride => PrefetchState::Stride(StridePrefetcher::default()),
        }
    }

    /// Is this the no-op prefetcher? Lets callers skip the candidate loop
    /// entirely (it would find the buffer empty anyway).
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, PrefetchState::None)
    }

    /// Called on every demand access (`pc`, `block`); pushes candidate
    /// prefetch block addresses into `out`.
    #[inline]
    pub fn on_access(&mut self, pc: u16, block: u64, hit: bool, out: &mut Vec<u64>) {
        match self {
            PrefetchState::None => {}
            PrefetchState::NextLine(p) => p.on_access(pc, block, hit, out),
            PrefetchState::Spp(p) => p.on_access(pc, block, hit, out),
            PrefetchState::Stride(p) => p.on_access(pc, block, hit, out),
        }
    }

    /// Serialize the prefetcher (variant discriminant + training state).
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"PRF_");
        match self {
            PrefetchState::None => w.put_u8(0),
            PrefetchState::NextLine(p) => {
                w.put_u8(1);
                p.save_state(w);
            }
            PrefetchState::Spp(p) => {
                w.put_u8(2);
                p.save_state(w);
            }
            PrefetchState::Stride(p) => {
                w.put_u8(3);
                p.save_state(w);
            }
        }
    }

    /// Restore state saved by [`Self::save_state`]. The live variant must
    /// match the stored one (the prefetcher kind is configuration).
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"PRF_")?;
        let disc = r.get_u8()?;
        let expected = match self {
            PrefetchState::None => 0,
            PrefetchState::NextLine(_) => 1,
            PrefetchState::Spp(_) => 2,
            PrefetchState::Stride(_) => 3,
        };
        if disc != expected {
            return Err(simstate::StateError::BadValue {
                what: "prefetcher discriminant",
                found: u64::from(disc),
            });
        }
        match self {
            PrefetchState::None => Ok(()),
            PrefetchState::NextLine(p) => p.load_state(r),
            PrefetchState::Spp(p) => p.load_state(r),
            PrefetchState::Stride(p) => p.load_state(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetch_stays_silent() {
        let mut p = PrefetchState::new(PrefetcherKind::None);
        let mut out = Vec::new();
        p.on_access(0, 42, false, &mut out);
        assert!(out.is_empty());
    }
}
