//! The rule pass: repo-specific invariants over two layers — token
//! patterns (D1–D6) and AST/call-graph semantic checks (D7–D10).
//!
//! Each rule has a kebab-case name used both in reports and in waivers:
//!
//! | rule                    | invariant                                                       |
//! |-------------------------|-----------------------------------------------------------------|
//! | `unordered-map`         | D1: no `HashMap`/`HashSet` where iteration order can leak       |
//! | `wall-clock`            | D2: no `std::time`/`Instant`/`SystemTime` in simulator crates   |
//! | `narrowing-cast`        | D3: no narrowing `as` on cycle/counter expressions in simcore   |
//! | `unwrap`                | D4: no `unwrap()`/`expect()` in library code outside tests      |
//! | `forbid-unsafe`         | D5: crate roots must carry `#![forbid(unsafe_code)]`            |
//! | `no-println`            | D6: no `println!`/`eprintln!` in simulator library crates       |
//! | `nondet-iteration`      | D7: no iteration over unordered containers, through aliases     |
//! | `float-reduction-order` | D8: no order-sensitive float reduction over unordered/parallel  |
//! | `panic-path`            | D9: no unwaived panic site reachable from hot entry points      |
//! | `telemetry-purity`      | D10: telemetry must not mutate simulator state                  |
//! | `determinism-taint`     | D11: no nondeterministic value may reach result records         |
//! | `unit-mismatch`         | D12: no arithmetic/comparison mixing counter unit classes       |
//! | `shared-mut-parallel`   | D13: no shared mutable state in parallel closures on results    |
//! | `waiver-syntax`         | a malformed waiver is itself a violation (not waivable)         |
//! | `parse-error`           | simlint's own parser must read every owned file (not waivable)  |
//! | `stale-waiver`          | `--audit-waivers` only: waiver with no live finding             |
//!
//! A waiver is a line comment `// simlint::allow(<rule>): <reason>` with a
//! mandatory non-empty reason; it silences that one rule on its own line
//! and on the line directly below (so it can trail the offending line or
//! sit just above it). D9 findings anchor at the *fn definition line* —
//! one finding per hot function, waived where the function is declared.

use crate::ast::{File, FnDef, ItemKind, Receiver};
use crate::callgraph::{fn_def, CallGraph};
use crate::lexer::{Comment, Lexed, Tok, TokKind};
use crate::resolve::{FnScope, Resolver, TyClass};
use std::fmt;

/// All waivable rule names, for waiver validation and `--list-rules`.
pub const RULES: [&str; 13] = [
    "unordered-map",
    "wall-clock",
    "narrowing-cast",
    "unwrap",
    "forbid-unsafe",
    "no-println",
    "nondet-iteration",
    "float-reduction-order",
    "panic-path",
    "telemetry-purity",
    "determinism-taint",
    "unit-mismatch",
    "shared-mut-parallel",
];

/// One-line description per rule (kept in sync with README by a test).
pub fn describe(rule: &str) -> &'static str {
    match rule {
        "unordered-map" => "no HashMap/HashSet tokens where iteration order can leak (token)",
        "wall-clock" => "no std::time/Instant/SystemTime in the cycle-accurate stack (token)",
        "narrowing-cast" => "no narrowing `as` casts on cycle/counter expressions (token)",
        "unwrap" => "no .unwrap()/.expect() in library code outside tests (token)",
        "forbid-unsafe" => "crate roots must carry #![forbid(unsafe_code)] (token)",
        "no-println" => "no println!/eprintln! in simulator library crates (token)",
        "nondet-iteration" => "no iteration over unordered containers, through aliases (semantic)",
        "float-reduction-order" => {
            "no order-sensitive float reduction over unordered/parallel sources (semantic)"
        }
        "panic-path" => "no unwaived panic site reachable from hot entry points (semantic)",
        "telemetry-purity" => "telemetry sinks and call sites must not mutate state (semantic)",
        "determinism-taint" => "no nondeterministic value may flow into result records (dataflow)",
        "unit-mismatch" => "no arithmetic/comparison mixing counter unit classes (semantic)",
        "shared-mut-parallel" => {
            "no shared mutable state written in parallel closures on the result path (dataflow)"
        }
        _ => "",
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (workspace-relative when driven by `Workspace`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (kebab-case, waivable) or `waiver-syntax`/`parse-error`.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} — {}", self.file, self.line, self.rule, self.message)
    }
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Directory name under `crates/` (`simcore`, `bench`, ...), or
    /// `root` for the top-level facade crate.
    pub crate_name: String,
    /// `src/lib.rs`, `src/main.rs`, or a `src/bin/*.rs` target root.
    pub is_crate_root: bool,
    /// Integration-test code (`crates/<c>/tests/`, root `tests/`):
    /// parsed for symbols and waiver hygiene, exempt from rules.
    pub is_test: bool,
}

impl FileCtx {
    /// Derive the context from a workspace-relative path like
    /// `crates/simcore/src/cache.rs`. The linter owns crate sources and
    /// integration tests plus the top-level `src/` facade and root
    /// `tests/`; it returns None for fixture trees (intentionally dirty)
    /// and anything else (benches, vendored shims).
    pub fn from_rel_path(rel: &str) -> Option<FileCtx> {
        let rel = rel.replace('\\', "/");
        if rel.split('/').any(|seg| seg == "fixtures") {
            return None;
        }
        let parts: Vec<&str> = rel.split('/').collect();
        let root_of = |rest: &[&str]| {
            rest == ["lib.rs"] || rest == ["main.rs"] || (rest.len() == 2 && rest[0] == "bin")
        };
        match parts.as_slice() {
            ["crates", c, "src", rest @ ..] => Some(FileCtx {
                crate_name: (*c).to_string(),
                is_crate_root: root_of(rest),
                is_test: false,
            }),
            ["crates", c, "tests", ..] => {
                Some(FileCtx { crate_name: (*c).to_string(), is_crate_root: false, is_test: true })
            }
            ["src", rest @ ..] => Some(FileCtx {
                crate_name: "root".to_string(),
                is_crate_root: root_of(rest),
                is_test: false,
            }),
            ["tests", ..] => Some(FileCtx {
                crate_name: "root".to_string(),
                is_crate_root: false,
                is_test: true,
            }),
            _ => None,
        }
    }

    pub(crate) fn rule_applies(&self, rule: &str) -> bool {
        if self.is_test {
            return false;
        }
        match rule {
            // Result-aggregation and simulator state live everywhere but
            // the harness crate (bench aggregates for printing only) and
            // the linter itself.
            "unordered-map" => !matches!(self.crate_name.as_str(), "bench" | "simlint"),
            // Time belongs to bench (wall-clock reporting) and to the
            // workloads manifest recorder; the simulation stack is
            // cycle-accurate and must never read host clocks. simstate is
            // in scope so checkpoint retries stay count-bounded, never
            // backoff-timed.
            "wall-clock" => {
                matches!(
                    self.crate_name.as_str(),
                    "simcore" | "core" | "kernels" | "graph" | "simtel" | "simstate"
                )
            }
            "narrowing-cast" => self.crate_name == "simcore",
            "unwrap" => self.crate_name != "bench",
            "forbid-unsafe" => self.is_crate_root,
            // Simulator libraries report through stats and telemetry sinks;
            // stray prints interleave with harness output and desync logs.
            "no-println" => {
                matches!(self.crate_name.as_str(), "simcore" | "core" | "simtel" | "simstate")
            }
            // The semantic rules guard result determinism and hot-path
            // integrity everywhere but the linter's own sources (which
            // deliberately exercise forbidden shapes in fixtures/tests).
            "nondet-iteration" => !matches!(self.crate_name.as_str(), "bench" | "simlint"),
            "float-reduction-order" | "panic-path" | "telemetry-purity" => {
                self.crate_name != "simlint"
            }
            // D11 anchors at the sink: bench legitimately reads clocks
            // for wall-time reporting, and the linter's own sources
            // exercise forbidden shapes.
            "determinism-taint" => !matches!(self.crate_name.as_str(), "bench" | "simlint"),
            // D12's unit vocabulary (cycles/instrs/bytes/blocks/sets)
            // belongs to the simulator core and the shared core types.
            "unit-mismatch" => matches!(self.crate_name.as_str(), "simcore" | "core"),
            "shared-mut-parallel" => self.crate_name != "simlint",
            _ => false,
        }
    }
}

/// A parsed waiver: rule name + location (the reason was validated at
/// parse time).
#[derive(Debug)]
pub struct Waiver {
    pub line: u32,
    pub rule: String,
}

const WAIVER_MARK: &str = "simlint::allow(";

pub(crate) fn parse_waivers(comments: &[Comment]) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Doc comments (`///` -> text starts with '/', `//!` -> '!') talk
        // *about* waivers; they never are one.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(start) = c.text.find(WAIVER_MARK) else { continue };
        let after = &c.text[start + WAIVER_MARK.len()..];
        let bad = |msg: &str| Finding {
            file: String::new(),
            line: c.line,
            rule: "waiver-syntax",
            message: msg.to_string(),
        };
        let Some(close) = after.find(')') else {
            errors.push(bad("waiver is missing the closing ')'"));
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            errors.push(bad(&format!(
                "unknown rule '{rule}' in waiver (known: {})",
                RULES.join(", ")
            )));
            continue;
        }
        let rest = &after[close + 1..];
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            errors.push(bad(&format!(
                "waiver for '{rule}' needs a reason: `// simlint::allow({rule}): <why>`"
            )));
            continue;
        }
        waivers.push(Waiver { line: c.line, rule });
    }
    (waivers, errors)
}

/// Mark every token that belongs to test-only code: items annotated
/// `#[cfg(test)]` (or `#[cfg(all(test, ...))]` etc.) or `#[test]`. The
/// attribute's argument tokens just need to contain the `test` ident.
fn test_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching ']'.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut is_test_attr = false;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if tokens[j].kind == TokKind::Ident => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip further attributes, then the item they decorate: either a
        // braced body (fn/mod/impl) or a `;`-terminated item.
        let item_end = {
            let mut k = j;
            loop {
                match tokens.get(k).map(|t| t.text.as_str()) {
                    Some("#") if tokens.get(k + 1).map(|t| t.text.as_str()) == Some("[") => {
                        let mut d = 1i32;
                        k += 2;
                        while k < tokens.len() && d > 0 {
                            match tokens[k].text.as_str() {
                                "[" => d += 1,
                                "]" => d -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                    }
                    Some("{") => {
                        let mut d = 1i32;
                        k += 1;
                        while k < tokens.len() && d > 0 {
                            match tokens[k].text.as_str() {
                                "{" => d += 1,
                                "}" => d -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        break k;
                    }
                    Some(";") => break k + 1,
                    Some(_) => k += 1,
                    None => break k,
                }
            }
        };
        for m in mask.iter_mut().take(item_end).skip(i) {
            *m = true;
        }
        i = item_end;
    }
    mask
}

const NARROW_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments that mark an expression as carrying simulated time
/// or event counts — the quantities whose silent truncation corrupts
/// results instead of crashing.
const COUNTER_HINTS: [&str; 8] =
    ["cycle", "counter", "instr", "retired", "tick", "latency", "stall", "epoch"];

/// How far back from an `as` we scan for counter-ish identifiers before
/// giving up (bounded so pathological lines stay cheap).
const CAST_SCAN_TOKENS: usize = 16;

fn is_counterish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    COUNTER_HINTS.iter().any(|h| lower.contains(h))
}

/// Run every applicable token rule (D1–D6) over one lexed file. Findings
/// come back without a file name; the caller attaches it.
pub(crate) fn token_findings(ctx: &FileCtx, lexed: &Lexed) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let in_test = test_mask(tokens);
    let mut findings = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        findings.push(Finding { file: String::new(), line, rule, message });
    };

    let d1 = ctx.rule_applies("unordered-map");
    let d2 = ctx.rule_applies("wall-clock");
    let d3 = ctx.rule_applies("narrowing-cast");
    let d4 = ctx.rule_applies("unwrap");
    let d6 = ctx.rule_applies("no-println");

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test[i] {
            continue;
        }
        let next_is = |off: usize, s: &str| tokens.get(i + off).is_some_and(|n| n.text == s);
        match t.text.as_str() {
            "HashMap" | "HashSet" if d1 => push(
                t.line,
                "unordered-map",
                format!(
                    "{} iteration order is nondeterministic and can reach results or \
                     manifests; use BTreeMap/BTreeSet (or sort before iterating)",
                    t.text
                ),
            ),
            "Instant" | "SystemTime" if d2 => push(
                t.line,
                "wall-clock",
                format!(
                    "{} reads the host clock inside the cycle-accurate stack; time \
                     belongs only to bench and manifest recording",
                    t.text
                ),
            ),
            // `std :: time` — the bare module path (covers `use std::time::...`).
            "time"
                if d2
                    && i >= 3
                    && tokens[i - 1].text == ":"
                    && tokens[i - 2].text == ":"
                    && tokens[i - 3].text == "std" =>
            {
                push(
                    t.line,
                    "wall-clock",
                    "std::time is wall-clock; simulated time is the only clock allowed here"
                        .to_string(),
                );
            }
            "as" if d3 => {
                let Some(target) = tokens.get(i + 1) else { continue };
                if !NARROW_TYPES.contains(&target.text.as_str()) {
                    continue;
                }
                let culprit = tokens[..i]
                    .iter()
                    .rev()
                    .take(CAST_SCAN_TOKENS)
                    .take_while(|p| !matches!(p.text.as_str(), ";" | "{" | "}" | "=" | ","))
                    .find(|p| p.kind == TokKind::Ident && is_counterish(&p.text));
                if let Some(c) = culprit {
                    push(
                        t.line,
                        "narrowing-cast",
                        format!(
                            "`{} as {}` can silently truncate a cycle/counter value; \
                             use try_into() or a saturating conversion",
                            c.text, target.text
                        ),
                    );
                }
            }
            // Macro position only: `println !` — a local `fn println()` (or a
            // struct field of that name) is odd but not a violation.
            "println" | "eprintln" | "print" | "eprint" if d6 && next_is(1, "!") => {
                push(
                    t.line,
                    "no-println",
                    format!(
                        "{}! in a simulator library crate bypasses stats and telemetry \
                         sinks; route output through the harness or a TelemetrySink",
                        t.text
                    ),
                );
            }
            // Method position only: `.unwrap(` / `.expect(`, not a locally
            // defined `fn expect(...)`.
            "unwrap" | "expect" if d4 && next_is(1, "(") && i >= 1 && tokens[i - 1].text == "." => {
                push(
                    t.line,
                    "unwrap",
                    format!(
                        ".{}() in library code panics the whole simulation; \
                         propagate a Result or document the invariant with a waiver",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }

    // D5: crate roots must open with `#![forbid(unsafe_code)]`.
    if ctx.rule_applies("forbid-unsafe") {
        let found = tokens.windows(8).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && w[3].text == "forbid"
                && w[4].text == "("
                && w[5].text == "unsafe_code"
                && w[6].text == ")"
                && w[7].text == "]"
        });
        if !found {
            push(1, "forbid-unsafe", "crate root is missing #![forbid(unsafe_code)]".to_string());
        }
    }

    findings
}

// ---------------------------------------------------------------------------
// Semantic rules (D7–D10)
// ---------------------------------------------------------------------------

/// One file's view handed to the semantic pass; indices into the slice
/// are the file ids used by the resolver and call graph.
pub struct Unit<'a> {
    pub rel: &'a str,
    pub ctx: Option<&'a FileCtx>,
    pub file: &'a File,
}

/// Hot entry points for D9 reachability. A trailing `*` makes the fn
/// name a prefix match. `Engine::replay` drives the single-core replay
/// loop; `mem`/`bubble` are its Tracer callbacks; the multicore engine
/// and the sweep executor are the other two ways simulation work runs.
const D9_ROOTS: [(&str, &str); 5] = [
    ("Engine", "replay"),
    ("Engine", "mem"),
    ("Engine", "bubble"),
    ("MulticoreEngine", "run*"),
    ("Runner", "run_matrix*"),
];

/// Macro names that are unconditional panic sites. `assert!` family is
/// deliberately absent: asserts are guards whose failure we *want* loud.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn fns_of(item: &ItemKind) -> Vec<(Option<&str>, &FnDef)> {
    match item {
        ItemKind::Fn(f) => vec![(None, f.as_ref())],
        ItemKind::Impl(ib) => ib.fns.iter().map(|f| (Some(ib.self_ty.as_str()), f)).collect(),
        ItemKind::Trait { name, fns } => fns.iter().map(|f| (Some(name.as_str()), f)).collect(),
        _ => Vec::new(),
    }
}

/// Is the accumulation target provably float-typed in this scope?
fn accum_is_float(
    resolver: &Resolver,
    fi: usize,
    scope: &FnScope<'_>,
    acc: &crate::ast::AccumSite,
) -> bool {
    if acc.rhs_float {
        return true;
    }
    if let Some(body) = &scope.f.body {
        if let Some(l) = body.locals.iter().find(|l| l.name == acc.target) {
            if l.float_init {
                return true;
            }
            if let Some(ty) = &l.ty {
                return resolver.classify(fi, ty) == TyClass::Float;
            }
        }
    }
    for (name, ty) in &scope.f.params {
        if name == &acc.target {
            return resolver.classify(fi, ty) == TyClass::Float;
        }
    }
    if let Some(self_ty) = scope.self_ty {
        let fty = resolver.field_ty(fi, self_ty, std::slice::from_ref(&acc.target));
        if resolver.classify(fi, &fty) == TyClass::Float {
            return true;
        }
    }
    false
}

/// Run D7–D10 across the whole workspace. Findings carry their file.
pub fn semantic_findings(units: &[Unit<'_>]) -> Vec<Finding> {
    let files: Vec<&File> = units.iter().map(|u| u.file).collect();
    let resolver = Resolver::new(&files);
    let graph = CallGraph::build(&files, &resolver);
    let mut findings: Vec<Finding> = Vec::new();

    // ---- D7 / D8 / D10: per-file walks -----------------------------------
    for (fi, unit) in units.iter().enumerate() {
        let Some(ctx) = unit.ctx else { continue };
        let d7 = ctx.rule_applies("nondet-iteration");
        let d8 = ctx.rule_applies("float-reduction-order");
        let d10 = ctx.rule_applies("telemetry-purity");
        let d12 = ctx.rule_applies("unit-mismatch");
        if !(d7 || d8 || d10 || d12) {
            continue;
        }
        let mut push = |line: u32, rule: &'static str, message: String| {
            findings.push(Finding { file: unit.rel.to_string(), line, rule, message });
        };
        for item in &unit.file.items {
            if item.cfg_test {
                continue;
            }
            if let ItemKind::Impl(ib) = &item.kind {
                // D10a: sink implementations live in simtel (or tests) —
                // a sink inside a simulator crate is a side channel that
                // can observe-and-mutate the system under measurement.
                if d10
                    && ib.trait_name.as_deref() == Some("TelemetrySink")
                    && ctx.crate_name != "simtel"
                {
                    push(
                        ib.line,
                        "telemetry-purity",
                        format!(
                            "TelemetrySink impl for {} outside simtel: sinks belong to the \
                             telemetry crate (or test code) so they cannot reach simulator state",
                            ib.self_ty
                        ),
                    );
                }
                // D10b: the handle's inherent API is read-only from the
                // engine's perspective — `&mut self` would let a
                // telemetry call perturb what it measures. Owned-self
                // builders (construction) are fine.
                if d10
                    && ctx.crate_name == "simtel"
                    && ib.trait_name.is_none()
                    && ib.self_ty == "TelemetryHandle"
                {
                    for f in &ib.fns {
                        if f.receiver == Some(Receiver::Mut) {
                            push(
                                f.line,
                                "telemetry-purity",
                                format!(
                                    "TelemetryHandle::{} takes &mut self; handle methods must \
                                     take &self so call sites cannot mutate through telemetry",
                                    f.name
                                ),
                            );
                        }
                    }
                }
            }
            for (self_ty, f) in fns_of(&item.kind) {
                if f.cfg_test {
                    continue;
                }
                let Some(body) = &f.body else { continue };
                let scope = FnScope { self_ty, f };
                if d7 || d8 {
                    for fl in &body.for_loops {
                        let info = resolver.chain_source(fi, &scope, &fl.source);
                        if d7 && info.class == TyClass::Unordered {
                            push(
                                fl.line,
                                "nondet-iteration",
                                "for-loop over an unordered container (resolved through \
                                 aliases/fields): iteration order is nondeterministic and can \
                                 reach results or manifests; use a BTree container or sort first"
                                    .to_string(),
                            );
                        }
                        if d8 && info.class == TyClass::Unordered {
                            for acc in &body.accum_sites {
                                if acc.pos >= fl.body.0
                                    && acc.pos < fl.body.1
                                    && accum_is_float(&resolver, fi, &scope, acc)
                                {
                                    push(
                                        acc.line,
                                        "float-reduction-order",
                                        format!(
                                            "float accumulation into `{}` inside a loop over an \
                                             unordered source: float addition is not associative, \
                                             so the result depends on iteration order",
                                            acc.target
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                for call in &body.method_calls {
                    let name = call.name.as_str();
                    if (d7 && name == "for_each")
                        || (d8 && matches!(name, "sum" | "product" | "fold" | "reduce"))
                    {
                        let info = resolver.chain_source(fi, &scope, &call.receiver);
                        if d7 && name == "for_each" && info.class == TyClass::Unordered {
                            push(
                                call.line,
                                "nondet-iteration",
                                "for_each over an unordered container: iteration order is \
                                 nondeterministic; use a BTree container or sort first"
                                    .to_string(),
                            );
                        }
                        if d8 {
                            let float_turbofish = call
                                .turbofish
                                .as_ref()
                                .is_some_and(|t| matches!(t.base.as_str(), "f32" | "f64"));
                            let fires = match name {
                                "sum" | "product" => {
                                    float_turbofish
                                        && (info.class == TyClass::Unordered || info.parallel)
                                }
                                "fold" | "reduce" => info.class == TyClass::Unordered,
                                _ => false,
                            };
                            if fires {
                                push(
                                    call.line,
                                    "float-reduction-order",
                                    format!(
                                        ".{name}() over an {} sequence: non-associative \
                                         reduction order must be deterministic — aggregate from \
                                         an ordered source (slice, BTree) instead",
                                        if info.parallel {
                                            "unordered/parallel"
                                        } else {
                                            "unordered"
                                        }
                                    ),
                                );
                            }
                        }
                    }
                    // D10c: call sites on a TelemetryHandle must not pass
                    // `&mut` simulator state or mutate `self` from a
                    // recording closure.
                    if d10 && (call.mut_ref_arg || call.closure_self_write) {
                        let recv_ty = resolver.base_ty(fi, &scope, &call.receiver.base, call.line);
                        if call.receiver.methods.is_empty()
                            && resolver.classify(fi, &recv_ty) == TyClass::TelHandle
                        {
                            let what = if call.closure_self_write {
                                "its closure argument writes simulator state through `self`"
                            } else {
                                "it passes `&mut` state into the telemetry layer"
                            };
                            push(
                                call.line,
                                "telemetry-purity",
                                format!(
                                    "TelemetryHandle::{} call is not observation-only: {what}; \
                                     telemetry must never perturb simulation results",
                                    call.name
                                ),
                            );
                        }
                    }
                }
                // D12: arithmetic/comparison whose operands *both*
                // classify to different unit classes — adding cycles to
                // bytes, comparing a block address against a set count.
                // `/` and `*` never reach here (the parser records only
                // `+ - % ==` and comparisons): ratios and scaling are
                // legitimate cross-unit math. Unknown operands stay
                // silent — both sides need positive proof.
                if d12 {
                    for b in &body.binops {
                        let lhs = resolver.unit_of_chain(fi, &scope, &b.lhs);
                        let rhs = resolver.unit_of_chain(fi, &scope, &b.rhs);
                        if let (Some(lu), Some(ru)) = (lhs, rhs) {
                            if lu != ru {
                                push(
                                    b.line,
                                    "unit-mismatch",
                                    format!(
                                        "`{}` mixes {} with {}: both operands are counters of \
                                         different units, so this is almost certainly the \
                                         u32-wrap / modulo-set-indexing bug shape; convert \
                                         explicitly or fix the operand",
                                        b.op,
                                        lu.label(),
                                        ru.label()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- D9: call-graph reachability -------------------------------------
    let roots = graph.roots(&D9_ROOTS);
    let (reachable, parent) = graph.reach(&roots);
    for (id, node) in graph.nodes.iter().enumerate() {
        if !reachable[id] || node.cfg_test {
            continue;
        }
        let unit = &units[node.file];
        let Some(ctx) = unit.ctx else { continue };
        if !ctx.rule_applies("panic-path") {
            continue;
        }
        let Some(f) = fn_def(unit.file, node.loc) else { continue };
        let Some(body) = &f.body else { continue };

        let unwraps = body
            .method_calls
            .iter()
            .filter(|m| matches!(m.name.as_str(), "unwrap" | "expect"))
            .count();
        let macros =
            body.macro_calls.iter().filter(|m| PANIC_MACROS.contains(&m.name.as_str())).count();
        let local_bounded = |ident: &Option<String>| {
            ident
                .as_ref()
                .is_some_and(|name| body.locals.iter().any(|l| l.name == *name && l.bounded_init))
        };
        let indexes = body
            .index_sites
            .iter()
            .filter(|s| !s.bounded && !local_bounded(&s.index_ident))
            .count();
        let scope = FnScope { self_ty: node.self_ty.as_deref(), f };
        let divisor_float = |ident: &Option<String>| {
            ident.as_ref().is_some_and(|name| {
                let ty = resolver.base_ty(
                    node.file,
                    &scope,
                    &crate::ast::ChainBase::Ident(name.clone()),
                    f.line,
                );
                resolver.classify(node.file, &ty) == TyClass::Float
            })
        };
        let divs = body
            .div_sites
            .iter()
            .filter(|s| !s.float_hint && !s.nonzero_divisor && !divisor_float(&s.divisor_ident))
            .count();

        if unwraps + macros + indexes + divs == 0 {
            continue;
        }
        let mut parts = Vec::new();
        if unwraps > 0 {
            parts.push(format!("{unwraps} unwrap/expect"));
        }
        if macros > 0 {
            parts.push(format!("{macros} panic-family macro"));
        }
        if indexes > 0 {
            parts.push(format!("{indexes} unproven index"));
        }
        if divs > 0 {
            parts.push(format!("{divs} unguarded integer division"));
        }
        let via = graph.path_to(&parent, id).join(" → ");
        findings.push(Finding {
            file: unit.rel.to_string(),
            line: node.line,
            rule: "panic-path",
            message: format!(
                "`{}` can panic on the hot path ({}) and is reachable via {}; prove the \
                 sites can't fire (mask/min the index, guard the divisor, return a Result) \
                 or waive at this fn definition with the invariant",
                node.label(),
                parts.join(", "),
                via
            ),
        });
    }

    // ---- D11 / D13: interprocedural taint dataflow -----------------------
    findings.extend(crate::dataflow::Dataflow::run(units, &files, &resolver, &graph));

    findings
}

/// Lint one file's source. `rel` is the path used in reports and for rule
/// scoping; sources outside the linter's ownership produce no findings.
/// Single-file convenience over [`crate::Workspace`] — cross-file
/// symbols are invisible here.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    crate::Workspace::from_sources(&[(rel, src)]).lint()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src)
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    const SIM_FILE: &str = "crates/simcore/src/cache.rs";

    // ---- D1 ----

    #[test]
    fn d1_flags_hashmap_and_waiver_silences_it() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\n";
        let f = lint_as(SIM_FILE, src);
        assert_eq!(rules_of(&f), ["unordered-map", "unordered-map"]);
        assert_eq!(f[0].line, 1);

        let waived = "// simlint::allow(unordered-map): scratch map, never iterated\n\
                      use std::collections::HashMap;\n";
        assert!(lint_as(SIM_FILE, waived).is_empty());
    }

    #[test]
    fn d1_skips_bench_and_test_modules() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_as("crates/bench/src/lib.rs", src).iter().all(|f| f.rule != "unordered-map"));
        let test_mod = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(lint_as(SIM_FILE, test_mod).is_empty());
    }

    // ---- D2 ----

    #[test]
    fn d2_flags_wall_clock_in_sim_crates_only() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().all(|f| f.rule == "wall-clock"));
        assert!(f.len() >= 2, "both the import and the use site: {f:?}");
        // workloads records wall time into manifests; out of D2 scope.
        assert!(lint_as("crates/workloads/src/matrix.rs", src)
            .iter()
            .all(|f| f.rule != "wall-clock"));
    }

    #[test]
    fn d2_waiver_works() {
        let src = "fn f() { let t = Instant::now(); } \
                   // simlint::allow(wall-clock): progress display only\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- D3 ----

    #[test]
    fn d3_flags_narrowing_counter_cast() {
        let src = "fn f(cycles: u64) -> u32 { cycles as u32 }\n";
        let f = lint_as(SIM_FILE, src);
        assert_eq!(rules_of(&f), ["narrowing-cast"]);
        // Same cast is fine outside simcore.
        assert!(lint_as("crates/graph/src/csr.rs", src).is_empty());
        // Widening or non-counter casts are fine.
        assert!(lint_as(SIM_FILE, "fn g(cycles: u32) -> u64 { cycles as u64 }\n").is_empty());
        assert!(lint_as(SIM_FILE, "fn h(block: u64) -> u32 { block as u32 }\n").is_empty());
    }

    #[test]
    fn d3_waiver_works() {
        let src = "fn f(tick: u64) -> u16 {\n\
                   // simlint::allow(narrowing-cast): tick is masked to 12 bits above\n\
                   tick as u16\n}\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    #[test]
    fn d3_statement_boundary_stops_the_scan() {
        // `cycles` in the previous statement must not taint this cast.
        let src = "fn f(cycles: u64, way: u64) -> u8 { let c = cycles; way as u8 }\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- D4 ----

    #[test]
    fn d4_flags_unwrap_and_expect_in_library_code() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n";
        assert_eq!(rules_of(&lint_as(SIM_FILE, src)), ["unwrap", "unwrap"]);
    }

    #[test]
    fn d4_skips_tests_and_accepts_waivers() {
        let test_src =
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(lint_as(SIM_FILE, test_src).is_empty());
        let test_fn = "#[test]\nfn t() { None::<u32>.unwrap(); }\n";
        assert!(lint_as(SIM_FILE, test_fn).is_empty());
        let waived = "fn f(x: Option<u32>) -> u32 {\n\
                      x.expect(\"invariant: caller checked\") \
                      // simlint::allow(unwrap): caller guarantees Some\n}\n";
        assert!(lint_as(SIM_FILE, waived).is_empty());
    }

    #[test]
    fn d4_ignores_unwrap_or_and_non_method_positions() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\nfn expect() {}\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- D5 ----

    #[test]
    fn d5_requires_forbid_unsafe_on_crate_roots_only() {
        let bare = "pub mod cache;\n";
        let f = lint_as("crates/simcore/src/lib.rs", bare);
        assert_eq!(rules_of(&f), ["forbid-unsafe"]);
        // Non-root files don't need the attribute.
        assert!(lint_as(SIM_FILE, bare).is_empty());
        // bin targets are crate roots too.
        assert_eq!(
            rules_of(&lint_as("crates/bench/src/bin/fig2.rs", "fn main() {}\n")),
            ["forbid-unsafe"]
        );
        let good = "#![forbid(unsafe_code)]\npub mod cache;\n";
        assert!(lint_as("crates/simcore/src/lib.rs", good).is_empty());
    }

    #[test]
    fn d5_waiver_works() {
        let src = "// simlint::allow(forbid-unsafe): FFI crate, audited in review\nfn main() {}\n";
        assert!(lint_as("crates/bench/src/bin/fig2.rs", src).is_empty());
    }

    // ---- D6 ----

    #[test]
    fn d6_flags_println_family_in_sim_library_crates() {
        let src = "fn f() { println!(\"x\"); }\nfn g() { eprintln!(\"y\"); }\n";
        assert_eq!(rules_of(&lint_as(SIM_FILE, src)), ["no-println", "no-println"]);
        // Two hits on one line collapse to one reported finding (the
        // (rule, file, line) dedup in `Workspace::lint`).
        let short = "fn f() { print!(\"x\"); eprint!(\"y\"); }\n";
        assert_eq!(rules_of(&lint_as(SIM_FILE, short)), ["no-println"]);
        // core and simtel are in scope too.
        assert_eq!(
            rules_of(&lint_as("crates/core/src/lp.rs", "fn f() { println!(\"x\"); }\n")),
            ["no-println"]
        );
        assert_eq!(
            rules_of(&lint_as("crates/simtel/src/export.rs", "fn f() { println!(\"x\"); }\n")),
            ["no-println"]
        );
    }

    #[test]
    fn d6_skips_harness_crates_tests_and_non_macro_idents() {
        // bench and workloads legitimately print (tables, progress lines).
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }\n";
        assert!(lint_as("crates/bench/src/table.rs", src).is_empty());
        assert!(lint_as("crates/workloads/src/runner.rs", src)
            .iter()
            .all(|f| f.rule != "no-println"));
        // Test code may print freely.
        let test_src = "#[cfg(test)]\nmod tests { fn t() { println!(\"dbg\"); } }\n";
        assert!(lint_as(SIM_FILE, test_src).is_empty());
        // An ident that is not a macro invocation is not a violation.
        assert!(lint_as(SIM_FILE, "fn println() {}\nfn f() { println(); }\n").is_empty());
    }

    #[test]
    fn d6_waiver_works() {
        let src = "fn f() { eprintln!(\"fatal\"); } \
                   // simlint::allow(no-println): one-shot fatal diagnostic before abort\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- D7 ----

    #[test]
    fn d7_sees_through_use_alias_type_alias_and_fields() {
        // The HashMap token is aliased away, so D1 can't see it in the
        // using file — D7 resolves it.
        let ws = crate::Workspace::from_sources(&[
            (
                "crates/core/src/types.rs",
                "// simlint::allow(unordered-map): alias definition only, D7 guards iteration\n\
                 use std::collections::HashMap as FastMap;\n\
                 pub type RouteTable = FastMap<u64, u64>;\n",
            ),
            (
                "crates/core/src/router.rs",
                "use crate::types::RouteTable;\n\
                 pub struct Router { table: RouteTable }\n\
                 impl Router {\n\
                   pub fn dump(&self) { for e in self.table.values() { work(e); } }\n\
                 }\n",
            ),
        ]);
        let f = ws.lint();
        assert_eq!(rules_of(&f), ["nondet-iteration"], "{f:?}");
        assert_eq!(f[0].file, "crates/core/src/router.rs");
        assert_eq!(f[0].line, 4, "{f:?}");
    }

    #[test]
    fn d7_passes_ordered_and_unknown_sources() {
        let src = "struct S { m: BTreeMap<u64, u64>, v: Vec<u64> }\n\
                   impl S {\n\
                     fn f(&self, other: &Unknown) {\n\
                       for x in self.m.values() {}\n\
                       for y in self.v.iter() {}\n\
                       for z in other.things() {}\n\
                     }\n\
                   }\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    #[test]
    fn d7_flags_for_each_and_accepts_waiver() {
        let src = "fn f() {\n\
                     let m = HashMap::new();\n\
                     m.keys().for_each(|k| work(k));\n\
                   }\n";
        // Line 2 gets D1 (HashMap token); line 3 gets D7.
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().any(|f| f.rule == "nondet-iteration" && f.line == 3), "{f:?}");
        let waived = "fn f() {\n\
                      let m = HashMap::new(); // simlint::allow(unordered-map): local scratch\n\
                      // simlint::allow(nondet-iteration): side-effect-free count\n\
                      m.keys().for_each(|k| work(k));\n\
                    }\n";
        assert!(lint_as(SIM_FILE, waived).is_empty());
    }

    // ---- D8 ----

    #[test]
    fn d8_flags_float_accumulation_over_unordered_source() {
        let src = "struct S { shares: HashMap<u64, f64> }\n\
                   impl S {\n\
                     fn total(&self) -> f64 {\n\
                       let mut sum = 0.0;\n\
                       for v in self.shares.values() { sum += v; }\n\
                       sum\n\
                     }\n\
                   }\n";
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().any(|f| f.rule == "float-reduction-order" && f.line == 5), "{f:?}");
        // The loop itself is also nondeterministic iteration.
        assert!(f.iter().any(|f| f.rule == "nondet-iteration" && f.line == 5));
    }

    #[test]
    fn d8_flags_float_sum_turbofish_over_unordered_or_parallel() {
        let unordered = "struct S { m: HashSet<u64> }\n\
                         impl S { fn f(&self) -> f64 { self.m.iter().map(|x| 1.0).sum::<f64>() } }\n";
        let f = lint_as(SIM_FILE, unordered);
        assert!(f.iter().any(|f| f.rule == "float-reduction-order"), "{f:?}");

        let par = "fn f(xs: &Vec<f64>) -> f64 { xs.par_iter().cloned().sum::<f64>() }\n";
        let f = lint_as(SIM_FILE, par);
        assert_eq!(rules_of(&f), ["float-reduction-order"], "{f:?}");
    }

    #[test]
    fn d8_passes_ordered_reductions() {
        // The geomean shape: slice iteration, float sum — ordered, fine.
        let src = "pub fn geomean(xs: &[f64]) -> f64 {\n\
                     let s: f64 = xs.iter().map(|x| x.ln()).sum::<f64>();\n\
                     (s / xs.len() as f64).exp()\n\
                   }\n\
                   fn sums(v: &Vec<f64>) -> f64 {\n\
                     let mut acc = 0.0;\n\
                     for x in v.iter() { acc += x; }\n\
                     acc\n\
                   }\n";
        assert!(lint_as(SIM_FILE, src).is_empty());
    }

    // ---- D9 ----

    #[test]
    fn d9_flags_panic_sites_reachable_from_hot_roots() {
        let ws = crate::Workspace::from_sources(&[
            (
                "crates/simcore/src/engine.rs",
                "pub struct Engine { mem: Mem }\n\
                 impl Engine {\n\
                   pub fn replay(&mut self) { self.mem.access(1); }\n\
                 }\n",
            ),
            (
                "crates/simcore/src/mem.rs",
                "pub struct Mem { slots: Vec<u64> }\n\
                 impl Mem {\n\
                   pub fn access(&mut self, a: usize) -> u64 { self.slots[a] }\n\
                 }\n",
            ),
        ]);
        let f = ws.lint();
        assert!(
            f.iter().any(|f| f.rule == "panic-path"
                && f.file == "crates/simcore/src/mem.rs"
                && f.line == 3
                && f.message.contains("Engine::replay")),
            "{f:?}"
        );
        // Engine::replay itself has no panic sites — no finding there.
        assert!(!f.iter().any(|f| f.rule == "panic-path" && f.file.ends_with("engine.rs")));
    }

    #[test]
    fn d9_exempts_bounded_indexes_guarded_divs_and_cold_fns() {
        let ws = crate::Workspace::from_sources(&[(
            "crates/simcore/src/engine.rs",
            "pub struct Engine { tags: Vec<u64>, mask: usize }\n\
             impl Engine {\n\
               pub fn replay(&mut self, i: usize, n: u64) -> u64 {\n\
                 let idx = i & self.mask;\n\
                 let avg = (n as f64) / 2.0;\n\
                 self.tags[idx] + self.tags[i & 7] + (n / n.max(1)) + avg as u64\n\
               }\n\
             }\n\
             pub fn cold_helper(x: Option<u64>) -> u64 { x.unwrap() }\n",
        )]);
        let f = ws.lint();
        // cold_helper's unwrap gets D4 but not D9 (unreachable from roots).
        assert!(f.iter().all(|f| f.rule != "panic-path"), "{f:?}");
        assert!(f.iter().any(|f| f.rule == "unwrap"));
    }

    #[test]
    fn d9_waiver_anchors_at_fn_definition() {
        let ws = crate::Workspace::from_sources(&[(
            "crates/simcore/src/engine.rs",
            "pub struct Engine;\n\
             impl Engine {\n\
               // simlint::allow(panic-path): ring index is masked at construction\n\
               pub fn replay(&mut self, v: &Vec<u64>, i: usize) -> u64 {\n\
                 v[i]\n\
               }\n\
             }\n",
        )]);
        assert!(ws.lint().iter().all(|f| f.rule != "panic-path"));
    }

    // ---- D10 ----

    #[test]
    fn d10_flags_sink_impls_outside_simtel() {
        let src = "pub struct Probe;\n\
                   impl TelemetrySink for Probe { fn event(&mut self) {} }\n";
        let f = lint_as(SIM_FILE, src);
        assert!(f.iter().any(|f| f.rule == "telemetry-purity" && f.line == 2), "{f:?}");
        // Inside simtel it's the expected place.
        assert!(lint_as("crates/simtel/src/sinks.rs", src).is_empty());
        // Test code may define probe sinks anywhere.
        let test_src = "#[cfg(test)]\nmod tests {\n  struct P;\n  \
                        impl TelemetrySink for P { fn event(&mut self) {} }\n}\n";
        assert!(lint_as(SIM_FILE, test_src).is_empty());
    }

    #[test]
    fn d10_requires_shared_receivers_on_the_handle() {
        let src = "pub struct TelemetryHandle { n: u64 }\n\
                   impl TelemetryHandle {\n\
                     pub fn event(&self) {}\n\
                     pub fn with_sink(self) -> Self { self }\n\
                     pub fn reset(&mut self) { self.n = 0; }\n\
                   }\n";
        let f = lint_as("crates/simtel/src/lib.rs", src);
        let d10: Vec<&Finding> = f.iter().filter(|f| f.rule == "telemetry-purity").collect();
        assert_eq!(d10.len(), 1, "{f:?}");
        assert_eq!(d10[0].line, 5);
    }

    #[test]
    fn d10_flags_mutating_call_sites() {
        let src = "pub struct Engine { tel: TelemetryHandle, count: u64, buf: Vec<u64> }\n\
                   impl Engine {\n\
                     fn step(&mut self) {\n\
                       self.tel.event(1, || { self.count += 1; 2 });\n\
                       self.tel.interval(&mut self.buf);\n\
                       self.tel.event(2, || 3);\n\
                     }\n\
                   }\n";
        let f = lint_as(SIM_FILE, src);
        let d10: Vec<u32> =
            f.iter().filter(|f| f.rule == "telemetry-purity").map(|f| f.line).collect();
        assert_eq!(d10, [4, 5], "{f:?}");
    }

    // ---- waiver hygiene ----

    #[test]
    fn malformed_waivers_are_violations() {
        let no_reason = "// simlint::allow(unwrap):\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let f = lint_as(SIM_FILE, no_reason);
        assert!(f.iter().any(|f| f.rule == "waiver-syntax"), "{f:?}");
        assert!(f.iter().any(|f| f.rule == "unwrap"), "reasonless waiver must not waive: {f:?}");

        let unknown = "// simlint::allow(no-such-rule): whatever\n";
        let f = lint_as(SIM_FILE, unknown);
        assert_eq!(rules_of(&f), ["waiver-syntax"]);
    }

    #[test]
    fn waiver_only_silences_its_own_rule() {
        let src = "// simlint::allow(wall-clock): wrong rule on purpose\n\
                   use std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint_as(SIM_FILE, src)), ["unordered-map"]);
    }

    #[test]
    fn stale_waivers_are_audited() {
        let ws = crate::Workspace::from_sources(&[(
            "crates/simcore/src/cache.rs",
            "// simlint::allow(unwrap): stale — nothing below unwraps anymore\n\
             fn f(x: u32) -> u32 { x }\n\
             fn g(x: Option<u32>) -> u32 {\n\
               x.unwrap() // simlint::allow(unwrap): live waiver\n\
             }\n",
        )]);
        let stale = ws.audit_waivers();
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, "stale-waiver");
        assert_eq!(stale[0].line, 1);
    }

    // ---- path ownership ----

    #[test]
    fn fixtures_are_ignored_and_root_crate_is_linted() {
        let dirty = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_as("crates/simlint/tests/fixtures/unwrap.rs", dirty).is_empty());
        // The top-level src/ facade is owned by the linter now.
        let f = lint_as("src/lib.rs", dirty);
        assert!(f.iter().any(|f| f.rule == "unwrap"), "{f:?}");
        assert!(f.iter().any(|f| f.rule == "forbid-unsafe"), "root lib.rs is a crate root: {f:?}");
        // Integration tests are parsed but exempt from rules...
        assert!(lint_as("tests/kernel_correctness.rs", dirty).is_empty());
        assert!(lint_as("crates/simcore/tests/engine.rs", dirty).is_empty());
        // ...except waiver hygiene.
        let bad_waiver = "// simlint::allow(bogus-rule): nope\nfn t() {}\n";
        let f = lint_as("tests/kernel_correctness.rs", bad_waiver);
        assert_eq!(rules_of(&f), ["waiver-syntax"]);
    }

    #[test]
    fn rule_table_and_descriptions_cover_all_rules() {
        for rule in RULES {
            assert!(!describe(rule).is_empty(), "missing description for {rule}");
        }
    }
}
