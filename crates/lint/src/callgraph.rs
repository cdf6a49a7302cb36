//! Conservative workspace call graph.
//!
//! Nodes are the [`FnDef`]s the parser found; edges come from three call
//! shapes in body token streams:
//!
//! * **free calls** `foo(` — resolved to every workspace free fn named
//!   `foo` (imports are not tracked, so all crates are candidates);
//! * **method calls** `.foo(` (turbofish allowed) — resolved to every
//!   `impl`/`trait` fn named `foo` anywhere in the workspace;
//! * **path calls** `Qual::foo(` — resolved through the qualifier: an
//!   `impl` self type, a module segment, or a crate name. An *unknown*
//!   qualifier (e.g. `Vec::new`) resolves to nothing — it names external
//!   code.
//!
//! This is name-based class-hierarchy-style resolution: edges
//! over-approximate the real graph (two unrelated `solve` methods are
//! merged) and never under-approximate it on the modelled shapes, which
//! is the right polarity for proving panic *absence* along entry paths.
//!
//! Each node also carries its direct **panic sites** (`.unwrap()`,
//! `.expect()`, `panic!`-family macros) and **determinism sources**
//! (`HashMap`/`HashSet`, `Instant`/`SystemTime`, RNG construction not
//! routed through `derive_seed`) so the analyses in [`crate::analysis`]
//! can walk the graph once and judge what each function can reach.

use crate::lexer::{TokKind, Token};
use crate::parser::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Keywords that look like `ident (` in expression position but are not
/// calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "loop", "else", "let", "in", "as", "move", "ref",
    "mut", "fn", "impl", "pub", "use", "where", "unsafe", "async", "await", "dyn", "box", "yield",
    "const", "static", "type", "enum", "struct", "trait", "mod", "crate", "self", "Self", "super",
    "break", "continue", "Some", "Ok", "Err", "None",
];

/// A direct panic or determinism-source site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found: `unwrap`, `expect`, `panic!`, `HashMap`,
    /// `Instant`, `seed_from_u64`, …
    pub what: String,
}

/// One node of the call graph: a function plus its direct sites.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Bare name.
    pub simple: String,
    /// `impl`/`trait` owner, if a method.
    pub owner: Option<String>,
    /// Fully qualified `crate::module::Owner::name`.
    pub qual: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Direct panic sites (unwrap/expect/panic!-family).
    pub panic_sites: Vec<Site>,
    /// Direct determinism-source sites.
    pub source_sites: Vec<Site>,
}

/// A call edge, kept with the call-site line for `--explain` output.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes, in file order.
    pub nodes: Vec<FnNode>,
    /// Outgoing edges per node, sorted by callee index, deduped.
    pub edges: Vec<Vec<Edge>>,
}

/// One unresolved call observed in a body.
#[derive(Debug)]
enum CallShape {
    Free(String),
    Method(String),
    Path(String, String),
}

impl CallGraph {
    /// Builds the graph from parsed files. Test fns are excluded —
    /// nothing in product code can call into `#[cfg(test)]` items.
    pub fn build(files: &[&ParsedFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut bodies: Vec<(usize, usize, usize)> = Vec::new(); // (file idx, body start, body end)
        for (fi, pf) in files.iter().enumerate() {
            for f in &pf.fns {
                if f.is_test {
                    continue;
                }
                nodes.push(FnNode {
                    simple: f.simple.clone(),
                    owner: f.owner.clone(),
                    qual: f.qual.clone(),
                    file: pf.rel_path.clone(),
                    line: f.line,
                    panic_sites: Vec::new(),
                    source_sites: Vec::new(),
                });
                bodies.push((fi, f.body.0, f.body.1));
            }
        }

        // Name indices for resolution (owned keys: the node table is
        // mutated below while these maps are consulted).
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut module_segs: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            match &n.owner {
                Some(o) => {
                    method_by_name.entry(n.simple.clone()).or_default().push(id);
                    by_owner.entry((o.clone(), n.simple.clone())).or_default().push(id);
                }
                None => free_by_name.entry(n.simple.clone()).or_default().push(id),
            }
        }
        for (id, (fi, _, _)) in bodies.iter().enumerate() {
            // Every module-path segment (crate included) qualifies the fn.
            for f in &files[*fi].fns {
                if f.qual == nodes[id].qual {
                    for seg in &f.modules {
                        module_segs.entry(seg.clone()).or_default().push(id);
                    }
                    break;
                }
            }
        }

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (id, &(fi, start, end)) in bodies.iter().enumerate() {
            let pf = files[fi];
            let (calls, panics, sources) = scan_body(&pf.code, start, end);
            nodes[id].panic_sites = panics;
            nodes[id].source_sites = sources;
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for (shape, line) in calls {
                let targets: Vec<usize> = match &shape {
                    CallShape::Free(name) => free_by_name.get(name).cloned().unwrap_or_default(),
                    CallShape::Method(name) => {
                        method_by_name.get(name).cloned().unwrap_or_default()
                    }
                    CallShape::Path(qual, name) => {
                        let qual = if qual == "Self" || qual == "self" {
                            nodes[id].owner.clone().unwrap_or_default()
                        } else {
                            qual.clone()
                        };
                        if let Some(ids) = by_owner.get(&(qual.clone(), name.clone())) {
                            ids.clone()
                        } else if let Some(in_mod) = module_segs.get(&qual) {
                            in_mod
                                .iter()
                                .copied()
                                .filter(|&t| nodes[t].simple == *name && nodes[t].owner.is_none())
                                .collect()
                        } else {
                            Vec::new() // external qualifier (Vec::new, std::…)
                        }
                    }
                };
                for t in targets {
                    if seen.insert(t) {
                        edges[id].push(Edge { to: t, line });
                    }
                }
            }
            edges[id].sort_by_key(|e| e.to);
        }
        CallGraph { nodes, edges }
    }

    /// Node indices whose qualified name ends with the `::`-separated
    /// segments of `spec` (e.g. `ArrowController::plan_epoch` or
    /// `daemon::serve`).
    pub fn resolve_spec(&self, spec: &str) -> Vec<usize> {
        let want: Vec<&str> = spec.split("::").collect();
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                let segs: Vec<&str> = n.qual.split("::").collect();
                segs.len() >= want.len() && segs[segs.len() - want.len()..] == want[..]
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Graphviz rendering of the whole graph (one node per fn, short
    /// labels, deterministic order) for the CI artifact.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let color = if !n.panic_sites.is_empty() {
                ", color=red"
            } else if !n.source_sites.is_empty() {
                ", color=orange"
            } else {
                ""
            };
            out.push_str(&format!("  n{} [label=\"{}\"{}];\n", i, n.qual, color));
        }
        for (from, outs) in self.edges.iter().enumerate() {
            for e in outs {
                out.push_str(&format!("  n{} -> n{};\n", from, e.to));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Walks one body range, returning calls, panic sites, and determinism
/// sources. Nested `fn` bodies are skipped — they are separate nodes.
fn scan_body(
    code: &[Token],
    start: usize,
    end: usize,
) -> (Vec<(CallShape, u32)>, Vec<Site>, Vec<Site>) {
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let mut sources = Vec::new();

    // Lines in this body that route a seed through the blessed derivation
    // helpers; RNG construction on those lines is deterministic by
    // construction.
    let derived_lines: BTreeSet<u32> = code[start..end]
        .iter()
        .filter(|t| t.is_ident("derive_seed") || t.is_ident("fractional_seed"))
        .map(|t| t.line)
        .collect();

    let mut i = start;
    while i < end {
        let t = &code[i];
        // Skip nested fn bodies (they are separate graph nodes).
        if t.is_ident("fn") && i + 1 < end && code[i + 1].kind == TokKind::Ident {
            let mut j = i + 2;
            while j < end && !code[j].is_punct('{') && !code[j].is_punct(';') {
                j += 1;
            }
            if j < end && code[j].is_punct('{') {
                let mut depth = 0usize;
                while j < end {
                    if code[j].is_punct('{') {
                        depth += 1;
                    } else if code[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i = j;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Macro invocation: panic!-family is a panic site; every other
        // macro is transparent (its argument tokens still get scanned).
        if i + 1 < end && code[i + 1].is_punct('!') {
            if ["panic", "todo", "unimplemented", "unreachable"].iter().any(|m| t.is_ident(m)) {
                panics.push(Site { line: t.line, col: t.col, what: format!("{}!", t.text) });
            }
            i += 2;
            continue;
        }
        // Determinism sources by bare identifier.
        match t.text.as_str() {
            "HashMap" | "HashSet" | "Instant" | "SystemTime" | "thread_rng" | "from_entropy" => {
                sources.push(Site { line: t.line, col: t.col, what: t.text.clone() });
            }
            "seed_from_u64" | "from_seed" if !derived_lines.contains(&t.line) => {
                sources.push(Site { line: t.line, col: t.col, what: t.text.clone() });
            }
            _ => {}
        }
        // Call shapes: `name(`, `.name(`, `Qual::name(`, with an optional
        // turbofish between the name and the parenthesis.
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j + 2 < end
            && code[j].is_punct(':')
            && code[j + 1].is_punct(':')
            && code[j + 2].is_punct('<')
        {
            // Turbofish `name::<…>(` — skip to the matching `>`.
            let mut depth = 0isize;
            j += 2;
            while j < end {
                if code[j].is_punct('<') {
                    depth += 1;
                } else if code[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j < end && code[j].is_punct('(') {
            let prev_dot = i >= 1 && code[i - 1].is_punct('.');
            let prev_path = i >= 2 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':');
            if prev_dot {
                if t.is_ident("unwrap") || t.is_ident("expect") {
                    panics.push(Site { line: t.line, col: t.col, what: t.text.clone() });
                } else {
                    calls.push((CallShape::Method(t.text.clone()), t.line));
                }
            } else if prev_path {
                // Qualifier is the ident before the `::` (skip a closing
                // turbofish `>` — `<Foo as T>::f` stays unresolved).
                if i >= 3 && code[i - 3].kind == TokKind::Ident {
                    calls.push((CallShape::Path(code[i - 3].text.clone(), t.text.clone()), t.line));
                }
            } else {
                calls.push((CallShape::Free(t.text.clone()), t.line));
            }
        }
        i += 1;
    }
    (calls, panics, sources)
}
