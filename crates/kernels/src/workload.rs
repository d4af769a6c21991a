//! Unified kernel dispatch and the Table II metadata (execution style,
//! frontier use, irregular-element sizes, expert classification).

use crate::input::KernelInput;
use crate::mem::sid;
use crate::{bc, bfs, cc, pr, sssp, tc};
use simcore::trace::{StructId, Tracer};

/// The six GAP kernels (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    Bc,
    Bfs,
    Cc,
    Pr,
    Tc,
    Sssp,
}

impl Kernel {
    pub const ALL: [Kernel; 6] =
        [Kernel::Bc, Kernel::Bfs, Kernel::Cc, Kernel::Pr, Kernel::Tc, Kernel::Sssp];

    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Bc => "bc",
            Kernel::Bfs => "bfs",
            Kernel::Cc => "cc",
            Kernel::Pr => "pr",
            Kernel::Tc => "tc",
            Kernel::Sssp => "sssp",
        }
    }

    /// Table II: execution style.
    pub fn execution_style(&self) -> &'static str {
        match self {
            Kernel::Bc => "Push-Mostly",
            Kernel::Bfs => "Push & Pull",
            Kernel::Cc => "Push-Mostly",
            Kernel::Pr => "Pull-Only",
            Kernel::Tc => "Push-Only",
            Kernel::Sssp => "Push-Only",
        }
    }

    /// Table II: does the kernel use a frontier?
    pub fn uses_frontier(&self) -> bool {
        matches!(self, Kernel::Bc | Kernel::Bfs | Kernel::Sssp)
    }

    /// Table II: size of the irregularly-accessed property elements.
    pub fn irreg_elem_size(&self) -> &'static str {
        match self {
            Kernel::Bc => "8B + 4B",
            _ => "4B",
        }
    }

    /// The Expert Programmer classification (Fig. 13): structure ids whose
    /// accesses a judicious offline analysis routes to the SDC. For every
    /// kernel the connectivity-indexed property array is cache-averse; TC
    /// has no property array, but its second NA cursor hops across rows,
    /// so the expert tags the NA itself.
    pub fn expert_averse_sids(&self) -> &'static [StructId] {
        match self {
            Kernel::Tc => &[sid::NA],
            Kernel::Bc => &[sid::PROP_A, sid::PROP_B],
            _ => &[sid::PROP_A],
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default kernel parameters matching the GAP harness invocations.
pub mod params {
    pub const PR_DAMPING: f64 = 0.85;
    pub const PR_EPSILON: f64 = 1e-4;
    pub const PR_MAX_ITERS: u32 = 20;
    pub const SSSP_DELTA: u64 = 8;
    pub const BC_SOURCES: usize = 4;
}

/// Run a kernel end-to-end (or until the tracer window closes), emitting
/// its memory trace into `t`. Returns total instructions the kernel would
/// have liked to execute — callers that need kernel outputs use the typed
/// entry points in the per-kernel modules.
pub fn run_kernel<T: Tracer + ?Sized>(kernel: Kernel, input: &KernelInput, asid: u8, t: &mut T) {
    match kernel {
        Kernel::Pr => {
            pr::pagerank(
                input,
                asid,
                params::PR_DAMPING,
                params::PR_EPSILON,
                params::PR_MAX_ITERS,
                t,
            );
        }
        Kernel::Bfs => {
            bfs::bfs(input, asid, input.default_source(), t);
        }
        Kernel::Cc => {
            cc::connected_components(input, asid, t);
        }
        Kernel::Tc => {
            tc::triangle_count(input, asid, t);
        }
        Kernel::Sssp => {
            sssp::sssp(input, asid, input.default_source(), params::SSSP_DELTA, t);
        }
        Kernel::Bc => {
            let sources = bc::pick_sources(input, params::BC_SOURCES);
            bc::betweenness(input, asid, &sources, t);
        }
    }
}

/// Run a kernel repeatedly until the tracer window is exhausted — short
/// kernels (BFS on small graphs) wrap around so every trace fills its
/// window, like re-running the region of interest in SimPoint mode.
pub fn run_kernel_windowed<T: Tracer + ?Sized>(
    kernel: Kernel,
    input: &KernelInput,
    asid: u8,
    t: &mut T,
) {
    let mut guard = 0;
    while !t.done() && guard < 1000 {
        run_kernel(kernel, input, asid, t);
        guard += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::trace::RecordingTracer;

    #[test]
    fn all_kernels_produce_traces() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(8, 4, 3));
        for kernel in Kernel::ALL {
            let mut rec = RecordingTracer::new(50_000);
            run_kernel_windowed(kernel, &input, 0, &mut rec);
            let trace = rec.finish();
            assert!(
                trace.instructions >= 50_000,
                "{kernel}: trace too short ({} instrs)",
                trace.instructions
            );
            assert!(trace.mem_refs() > 1000, "{kernel}: too few mem refs");
        }
    }

    #[test]
    fn table2_metadata() {
        assert_eq!(Kernel::Pr.execution_style(), "Pull-Only");
        assert!(!Kernel::Pr.uses_frontier());
        assert!(Kernel::Bfs.uses_frontier());
        assert!(Kernel::Sssp.uses_frontier());
        assert!(!Kernel::Tc.uses_frontier());
        assert_eq!(Kernel::Bc.irreg_elem_size(), "8B + 4B");
        assert_eq!(Kernel::Cc.irreg_elem_size(), "4B");
    }

    #[test]
    fn expert_sets_nonempty() {
        for kernel in Kernel::ALL {
            assert!(!kernel.expert_averse_sids().is_empty(), "{kernel}");
        }
    }

    #[test]
    fn kernel_names_unique() {
        let mut names: Vec<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn traces_are_deterministic() {
        let input = KernelInput::from_symmetric(gpgraph::gen::kron(8, 4, 3));
        let gen = || {
            let mut rec = RecordingTracer::new(20_000);
            run_kernel_windowed(Kernel::Cc, &input, 0, &mut rec);
            rec.finish()
        };
        let a = gen();
        let b = gen();
        assert_eq!(a, b);
    }
}
