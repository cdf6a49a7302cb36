//! The rule registry: four project invariants, each born from a real
//! incident (see DESIGN.md "Static analysis").

use crate::lexer::{lex, test_line_ranges, TokKind, Token};
use crate::pragma::{collect_pragmas, Pragma};

/// Crates whose output feeds LP row construction, ticket generation, the
/// scenario universe, or the daemon's digest-compared plans — hash-seeded
/// iteration order there breaks byte-identical artifacts.
const DETERMINISM_CRATES: &[&str] = &["lp", "optical", "core", "te", "sim", "topology"];

/// Root-package paths under the same determinism contract as
/// [`DETERMINISM_CRATES`] (the daemon's soak digests are byte-compared).
const DETERMINISM_PATHS: &[&str] = &["src/daemon"];

/// Product library crates whose public API must not panic on user input
/// (`lint` is held to its own standard — the self-check test enforces it).
const NO_PANIC_CRATES: &[&str] = &["lp", "optical", "topology", "te", "core", "sim", "obs", "lint"];

/// Crates allowed to read wall clocks (`obs` owns timing; `bench` and the
/// linter itself are dev tools).
const WALL_CLOCK_EXEMPT: &[&str] = &["obs", "bench", "lint"];

/// Machine name, one-line rationale — the registry the CLI lists and the
/// pragma parser validates against.
pub const RULES: &[(&str, &str)] = &[
    (
        "nondeterministic-iteration",
        "no HashMap/HashSet in crates feeding LP rows or tickets (lp, optical, core, te): \
         hash-seeded iteration order varies per process and worker thread",
    ),
    (
        "float-partial-order",
        "no .partial_cmp() on floats: NaN panics the unwrap or breaks the comparator \
         contract; use f64::total_cmp",
    ),
    (
        "panic-on-input-path",
        "no unwrap/expect/panic!/todo!/unimplemented!/unreachable! in library code: \
         public APIs return Result instead of panicking on user input",
    ),
    (
        "wall-clock-in-core",
        "no Instant/SystemTime outside obs and bench: wall-clock reads in solver or \
         controller code break warm-start replay determinism",
    ),
    (
        "panic-reachability",
        "no call path from a controller entry point (plan_epoch, ticket generation, \
         daemon serve) may reach unwrap/expect/panic! in product code: a reachable panic \
         kills the long-lived daemon mid-epoch instead of failing one request",
    ),
    (
        "determinism-taint",
        "hash-order iteration, wall clocks, and RNG construction outside derive_seed \
         must not flow into functions producing digests, ScenarioIds, tickets, or \
         plans: byte-identical artifacts are the determinism contract",
    ),
];

/// Where a file lives, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Crate `src/` — library (or binary) code shipped to users.
    Lib,
    /// Integration tests (`tests/` directories).
    Test,
    /// Benchmarks (`benches/` directories or the bench crate).
    Bench,
    /// Examples (`examples/` directories).
    Example,
}

/// One rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule machine name (one of [`RULES`]).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub msg: String,
}

/// Per-file lint context.
pub struct FileInput<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Crate directory name under `crates/` (empty for the root package).
    pub crate_name: &'a str,
    /// File classification.
    pub kind: FileKind,
    /// Source text.
    pub src: &'a str,
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> (String, FileKind) {
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string();
    // `perfbench/` is the repo benchmark's own package (it has its own
    // workspace): like `crates/bench`, timing is its job.
    let kind = if rel_path.contains("/benches/")
        || crate_name == "bench"
        || rel_path.starts_with("perfbench/")
    {
        FileKind::Bench
    } else if rel_path.contains("/tests/") || rel_path.starts_with("tests/") {
        FileKind::Test
    } else if rel_path.contains("/examples/") || rel_path.starts_with("examples/") {
        FileKind::Example
    } else {
        FileKind::Lib
    };
    (crate_name, kind)
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Runs every rule on one file. Returns surviving violations (pragma
/// suppressions already applied) — including `bad-pragma` diagnostics for
/// malformed or justification-less pragmas, which cannot be suppressed.
pub fn check_file(input: &FileInput) -> Vec<Violation> {
    let toks = lex(input.src);
    let test_ranges = test_line_ranges(&toks);
    let code: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let (pragmas, mut out) = collect_pragmas(&toks, &code);

    let is_lib_code = |line: u32| input.kind == FileKind::Lib && !in_ranges(&test_ranges, line);

    // Rule 1: nondeterministic-iteration.
    if DETERMINISM_CRATES.contains(&input.crate_name)
        || DETERMINISM_PATHS.iter().any(|p| input.rel_path.starts_with(p))
    {
        let scope = if input.crate_name.is_empty() { "src/daemon" } else { input.crate_name };
        for t in &code {
            if (t.is_ident("HashMap") || t.is_ident("HashSet")) && is_lib_code(t.line) {
                out.push(Violation {
                    rule: "nondeterministic-iteration",
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "{} in determinism-critical code `{}`: hash-seeded iteration \
                         order varies per process/thread and LP rows + tickets must be \
                         byte-identical; use BTreeMap/BTreeSet or a sorted Vec",
                        t.text, scope
                    ),
                });
            }
        }
    }

    // Rule 2: float-partial-order — applies everywhere, tests included (a
    // NaN-panicking comparator in a test is still a flaky test).
    for w in code.windows(3) {
        if w[0].is_punct('.') && w[1].is_ident("partial_cmp") && w[2].is_punct('(') {
            out.push(Violation {
                rule: "float-partial-order",
                line: w[1].line,
                col: w[1].col,
                msg: ".partial_cmp() is a partial order: NaN panics the usual .unwrap() \
                      and silently breaks sort comparator contracts; use f64::total_cmp \
                      (or derive Ord on non-float keys)"
                    .into(),
            });
        }
    }

    // Rule 3: panic-on-input-path.
    if NO_PANIC_CRATES.contains(&input.crate_name) {
        for w in code.windows(3) {
            if w[0].is_punct('.')
                && (w[1].is_ident("unwrap") || w[1].is_ident("expect"))
                && w[2].is_punct('(')
                && is_lib_code(w[1].line)
            {
                out.push(Violation {
                    rule: "panic-on-input-path",
                    line: w[1].line,
                    col: w[1].col,
                    msg: format!(
                        ".{}() can panic in library code; prefer returning an error, \
                         a default, or prove the invariant with a justified pragma",
                        w[1].text
                    ),
                });
            }
        }
        for w in code.windows(2) {
            let macro_name =
                ["panic", "todo", "unimplemented", "unreachable"].iter().find(|m| w[0].is_ident(m));
            if let Some(m) = macro_name {
                if w[1].is_punct('!') && is_lib_code(w[0].line) {
                    out.push(Violation {
                        rule: "panic-on-input-path",
                        line: w[0].line,
                        col: w[0].col,
                        msg: format!(
                            "{m}! in library code; public APIs must not panic on user \
                             input — return an error or justify with a pragma"
                        ),
                    });
                }
            }
        }
    }

    // Rule 4: wall-clock-in-core.
    if !WALL_CLOCK_EXEMPT.contains(&input.crate_name) {
        for t in &code {
            if (t.is_ident("Instant") || t.is_ident("SystemTime")) && is_lib_code(t.line) {
                out.push(Violation {
                    rule: "wall-clock-in-core",
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "{} read outside obs/bench: wall-clock in solver or controller \
                         code breaks warm-start replay determinism; route timing through \
                         arrow-obs spans or justify with a pragma",
                        t.text
                    ),
                });
            }
        }
    }

    out.retain(|v| v.rule == "bad-pragma" || !suppressed(&pragmas, v));
    out.sort_by_key(|v| (v.line, v.col));
    out
}

fn suppressed(pragmas: &[Pragma], v: &Violation) -> bool {
    pragmas.iter().any(|p| p.rule == v.rule && v.line >= p.from_line && v.line <= p.to_line)
}
