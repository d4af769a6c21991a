//! Human-friendly name lookup for workloads and systems.
//!
//! The user-facing entry points that take names on the command line —
//! the `timeline` viewer and the `dram_sweep` harness — accept
//! loosely-typed names (`sdc_lp`, `SDC+LP`, `sdclp`) and share one
//! canonical resolution, so a name means the same point in every binary.

use crate::configs::SystemKind;
use crate::singlecore::{all_workloads, Workload};

/// Lowercase and squash every non-alphanumeric run to one `_`, so
/// `SDC+LP` matches `sdc_lp`, `sdc-lp`, and `sdclp` comparisons stay
/// predictable for users typing flag values.
pub fn norm_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut gap = false;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            if gap && !out.is_empty() {
                out.push('_');
            }
            gap = false;
            out.push(c.to_ascii_lowercase());
        } else {
            gap = true;
        }
    }
    out
}

/// Resolve a system-design name (normalized exact or prefix match over
/// [`SystemKind::ALL`]).
pub fn find_system(arg: &str) -> Result<SystemKind, String> {
    let want = norm_name(arg);
    for k in SystemKind::ALL {
        let n = norm_name(k.name());
        if n == want || n.starts_with(&want) {
            return Ok(k);
        }
    }
    Err(format!(
        "unknown system {arg:?} (known: {})",
        SystemKind::ALL.map(|k| norm_name(k.name())).join(", ")
    ))
}

/// Resolve a workload name: exact `kernel.graph` first, then a unique
/// substring (`bfs.k` → `bfs.kron`); ambiguity is an error, not a guess.
pub fn find_workload(arg: &str) -> Result<Workload, String> {
    let all = all_workloads();
    if let Some(w) = all.iter().find(|w| w.name() == arg) {
        return Ok(*w);
    }
    let matches: Vec<&Workload> = all.iter().filter(|w| w.name().contains(arg)).collect();
    match matches.as_slice() {
        [w] => Ok(**w),
        [] => Err(format!(
            "unknown workload {arg:?} (examples: {}, {}, ...)",
            all[0].name(),
            all[1].name()
        )),
        many => Err(format!(
            "ambiguous workload {arg:?} matches: {}",
            many.iter().map(|w| w.name()).collect::<Vec<_>>().join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_squashes_punctuation_runs() {
        assert_eq!(norm_name("SDC+LP"), "sdc_lp");
        assert_eq!(norm_name("L1D 40KB ISO"), "l1d_40kb_iso");
        assert_eq!(norm_name("--2xLLC--"), "2xllc");
    }

    #[test]
    fn systems_resolve_by_norm_and_prefix() {
        assert_eq!(find_system("sdc_lp").unwrap(), SystemKind::SdcLp);
        assert_eq!(find_system("SDC+LP").unwrap(), SystemKind::SdcLp);
        assert_eq!(find_system("base").unwrap(), SystemKind::Baseline);
        assert!(find_system("warp-drive").is_err());
    }

    #[test]
    fn workloads_resolve_exactly_then_by_unique_substring() {
        assert_eq!(find_workload("bfs.kron").unwrap().name(), "bfs.kron");
        assert_eq!(find_workload("bfs.k").unwrap().name(), "bfs.kron");
        assert!(find_workload("bfs").is_err(), "six graphs match — ambiguous");
        assert!(find_workload("nope").is_err());
    }
}
