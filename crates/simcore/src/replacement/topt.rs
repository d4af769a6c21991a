//! Transpose-based OPT (T-OPT) replacement, the paper's state-of-the-art
//! comparison point (Balaji et al., HPCA 2021).
//!
//! T-OPT approximates Belady's MIN at the LLC for graph analytics by using
//! the *transpose* of the graph to compute, for each irregularly-accessed
//! vertex-property line, the position of its next reference. In this
//! reproduction the instrumented kernels carry that next-reference oracle in
//! `MemRef::next_use` (computed from transpose cursors, exactly the
//! information the transpose gives the hardware in the original proposal).
//! Lines without a hint (non-property data, frontier-driven kernels) are
//! assumed to be re-referenced at a fixed default distance, mirroring
//! P-OPT's handling of non-graph data.

use super::ReplCtx;

/// Assumed re-reference distance for unhinted lines of non-streaming data
/// (frontier queues, scalars).
pub const TOPT_DEFAULT_DISTANCE: u32 = 1 << 14;

/// Assumed re-reference distance for unhinted *streaming* lines (the OA
/// and NA arrays): their true next use is the next full sweep, far beyond
/// any property line's — T-OPT knows the graph structures and treats them
/// as streaming, which is what lets it protect property data.
pub const TOPT_STREAM_DISTANCE: u32 = 1 << 26;

/// Structure ids the policy treats as streaming (see `gpkernels::sid`:
/// OA = 1, NA = 2, WEIGHTS = 7 share the NA's sweep order).
const STREAMING_SIDS: [u8; 3] = [1, 2, 7];

/// Predicted absolute next-use position for an access, from the oracle hint
/// when present and the per-structure assumed distance otherwise; the
/// `ReplState::TOpt` hit and fill hooks store it per line.
#[inline]
pub(super) fn predicted(ctx: ReplCtx) -> u64 {
    if ctx.next_use != u32::MAX {
        return u64::from(ctx.next_use);
    }
    let distance = if STREAMING_SIDS.contains(&ctx.sid) {
        TOPT_STREAM_DISTANCE
    } else {
        TOPT_DEFAULT_DISTANCE
    };
    ctx.pos + u64::from(distance)
}
