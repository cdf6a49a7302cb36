//! `arrow-lint` — project-specific static analysis for the ARROW
//! workspace.
//!
//! A std-only, dependency-free lexer + rule registry that mechanizes the
//! invariants this codebase's correctness story rests on (each learned
//! from a real incident — see DESIGN.md "Static analysis"):
//!
//! 1. **nondeterministic-iteration** — no `HashMap`/`HashSet` in crates
//!    that feed LP row construction or ticket generation.
//! 2. **float-partial-order** — no `.partial_cmp()` on floats; use
//!    `total_cmp`.
//! 3. **panic-on-input-path** — no `unwrap`/`expect`/`panic!` family in
//!    library code (existing debt is baselined and ratchets down).
//! 4. **wall-clock-in-core** — no `Instant`/`SystemTime` outside `obs`
//!    and `bench`.
//!
//! On top of the per-file rules, two *interprocedural* analyses walk a
//! conservative workspace call graph ([`parser`] → [`callgraph`] →
//! [`analysis`]):
//!
//! 5. **panic-reachability** — no call path from a controller entry point
//!    (`ArrowController::plan_epoch`, ticket generation, the daemon loop)
//!    reaches `unwrap`/`expect`/`panic!` in product code; violations
//!    report the full call chain.
//! 6. **determinism-taint** — nondeterminism sources (hash iteration,
//!    wall clocks, RNG outside `derive_seed`) must not be reachable from
//!    functions producing digests, `ScenarioId`s, tickets, or plans.
//!
//! Suppression: `// arrow-lint: allow(rule) — justification` for one
//! line, `// arrow-lint: allow-file(rule) — justification` at the top of
//! a file for the whole file (the justification is mandatory; the linter
//! rejects bare allows).

pub mod analysis;
pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod pragma;
pub mod rules;
pub mod walk;

pub use analysis::{
    determinism_taint, explain_chain, in_product_graph, panic_reachability, render_chain,
    to_violation, Finding, DEFAULT_ENTRIES, DEFAULT_SINKS,
};
pub use baseline::{compare, Baseline, RatchetReport};
pub use callgraph::{CallGraph, Edge, FnNode, Site};
pub use parser::{module_path_of, parse_file, FnDef, ParsedFile};
pub use rules::{check_file, classify, FileInput, FileKind, Violation, RULES};

/// Convenience for tests: lint a source string under a given path.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let (crate_name, kind) = classify(rel_path);
    check_file(&FileInput { rel_path, crate_name: &crate_name, kind, src })
}
