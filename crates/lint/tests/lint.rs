//! arrow-lint integration tests: lexer edge cases (each asserted to
//! produce zero false-positive diagnostics), rule firing, pragma
//! semantics, and baseline ratchet behaviour.

use arrow_lint::baseline::{compare, Baseline};
use arrow_lint::lexer::{lex, test_line_ranges, TokKind};
use arrow_lint::{check_source, classify, FileKind};
use std::collections::BTreeMap;

/// Lint a snippet as if it were lib code in a determinism-critical crate,
/// where every rule is in scope.
fn lint_core(src: &str) -> Vec<String> {
    check_source("crates/core/src/snippet.rs", src)
        .into_iter()
        .map(|v| format!("{}:{}", v.rule, v.line))
        .collect()
}

// ---------------------------------------------------------------- lexer

#[test]
fn raw_strings_are_opaque() {
    // Rule tokens inside r#".."# must not fire; the trailing real use must.
    let src = r##"
fn f() {
    let s = r#"HashMap .partial_cmp( Instant "nested quote" panic!"#;
    let t = r"also .unwrap() opaque";
    let u = std::collections::HashMap::new();
}
"##;
    let hits = lint_core(src);
    assert_eq!(hits, vec!["nondeterministic-iteration:5"], "{hits:?}");
}

#[test]
fn raw_string_hash_depth_is_respected() {
    // The "# inside the r##"…"## body does not terminate the literal.
    let src = r###"
fn f() {
    let s = r##"ends with "# not here: HashMap"##;
}
"###;
    assert!(lint_core(src).is_empty());
}

#[test]
fn nested_block_comments_are_opaque() {
    let src = "
fn f() {
    /* outer /* inner HashMap .partial_cmp( */ still comment panic! */
    let x = 1;
}
";
    assert!(lint_core(src).is_empty());
}

#[test]
fn lifetime_vs_char_literal() {
    // 'a as a lifetime must not swallow the rest of the line; 'a' as a
    // char literal must not be parsed as a lifetime + stray quote.
    let src = "
struct S<'a> { x: &'a str }
fn f(c: char) -> bool {
    c == 'a' || c == '\\'' || c == '\\u{1F600}'
}
fn g<'long_lifetime>(v: &'long_lifetime [f64]) -> usize { v.len() }
";
    assert!(lint_core(src).is_empty());
    let toks = lex(src);
    let lifetimes: Vec<&str> =
        toks.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.as_str()).collect();
    assert_eq!(lifetimes, vec!["a", "a", "long_lifetime", "long_lifetime"]);
    let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
    assert_eq!(chars, 3);
}

#[test]
fn comment_markers_inside_string_literals() {
    // A "//" inside a string is not a comment: the HashMap after it on
    // the same line is real code and must be reported exactly once.
    let src = "
fn f() {
    let url = \"https://example.com/path\"; let m: HashMap<u8, u8> = Default::default();
    let s = \"/* not a comment\"; let n = 1;
}
";
    let hits = lint_core(src);
    assert_eq!(hits, vec!["nondeterministic-iteration:3"], "{hits:?}");
}

#[test]
fn escaped_quotes_do_not_end_strings() {
    let src = r#"
fn f() {
    let s = "quote \" then HashMap still inside";
    let c = '\'';
    let b = b"bytes with \" HashMap";
}
"#;
    assert!(lint_core(src).is_empty());
}

#[test]
fn raw_identifiers_lex_as_identifiers() {
    let src = "fn f() { let r#fn = 1; let _ = r#fn + 1; }";
    assert!(lint_core(src).is_empty());
    let toks = lex(src);
    assert!(toks.iter().any(|t| t.kind == TokKind::Ident && t.text == "fn" && t.col > 10));
}

#[test]
fn test_region_detection_spans_the_mod() {
    let src = "
fn lib_code() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _: HashMap<u8, u8> = HashMap::new(); }
}
";
    let ranges = test_line_ranges(&lex(src));
    assert_eq!(ranges.len(), 1);
    assert!(ranges[0].0 == 4 && ranges[0].1 >= 9, "{ranges:?}");
    // And the rule respects it: HashMap inside #[cfg(test)] is fine.
    assert!(lint_core(src).is_empty());
}

// ---------------------------------------------------------------- rules

#[test]
fn float_partial_order_fires_everywhere_even_in_tests() {
    let src = "
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let mut v = vec![1.0]; v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
}
";
    let hits = lint_core(src);
    assert_eq!(hits, vec!["float-partial-order:5"], "{hits:?}");
    // total_cmp is the sanctioned replacement and is silent.
    let ok = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }";
    assert!(lint_core(ok).is_empty());
}

#[test]
fn partial_cmp_definition_is_not_a_call() {
    // Implementing PartialOrd mentions partial_cmp as a fn name, not a
    // `.partial_cmp(` call — no diagnostic.
    let src = "
impl PartialOrd for S {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }
}
";
    assert!(lint_core(src).is_empty());
}

#[test]
fn panic_path_rule_fires_on_unwrap_expect_and_macros() {
    let src = "
pub fn f(x: Option<u8>) -> u8 { x.unwrap() }
pub fn g(x: Option<u8>) -> u8 { x.expect(\"msg\") }
pub fn h() { panic!(\"boom\"); }
pub fn i() { todo!() }
";
    let hits = lint_core(src);
    assert_eq!(
        hits,
        vec![
            "panic-on-input-path:2",
            "panic-on-input-path:3",
            "panic-on-input-path:4",
            "panic-on-input-path:5"
        ],
        "{hits:?}"
    );
}

#[test]
fn wall_clock_rule_scoping() {
    let src = "pub fn t() -> std::time::Instant { std::time::Instant::now() }";
    // Fires in core…
    assert!(check_source("crates/core/src/x.rs", src)
        .iter()
        .all(|v| v.rule == "wall-clock-in-core"));
    assert!(!check_source("crates/core/src/x.rs", src).is_empty());
    // …but obs owns timing and bench is a dev tool.
    assert!(check_source("crates/obs/src/x.rs", src).is_empty());
    assert!(check_source("crates/bench/src/x.rs", src).is_empty());
}

#[test]
fn hash_rule_only_in_determinism_crates_and_lib_code() {
    let src = "pub fn f() { let _ = std::collections::HashSet::<u8>::new(); }";
    assert!(!check_source("crates/te/src/x.rs", src).is_empty());
    // topology feeds the scenario universe and sim the soak digests; the
    // daemon's plans are byte-compared. All are determinism-critical.
    assert!(!check_source("crates/topology/src/x.rs", src).is_empty());
    assert!(!check_source("crates/sim/src/x.rs", src).is_empty());
    assert!(!check_source("src/daemon/mod.rs", src).is_empty());
    // obs is egress-only telemetry; the root CLI shim is not.
    assert!(check_source("crates/obs/src/x.rs", src).is_empty());
    assert!(check_source("src/bin/arrow.rs", src).is_empty());
    // Integration tests and benches of determinism crates are exempt.
    assert!(check_source("crates/te/tests/x.rs", src).is_empty());
    assert!(check_source("crates/bench/benches/x.rs", src).is_empty());
}

#[test]
fn classification() {
    assert_eq!(classify("crates/lp/src/simplex.rs"), ("lp".into(), FileKind::Lib));
    assert_eq!(classify("crates/lp/tests/t.rs"), ("lp".into(), FileKind::Test));
    assert_eq!(classify("crates/bench/src/lib.rs"), ("bench".into(), FileKind::Bench));
    assert_eq!(classify("perfbench/src/offline.rs"), ("".into(), FileKind::Bench));
    assert_eq!(classify("examples/sweep.rs"), ("".into(), FileKind::Example));
    assert_eq!(classify("src/lib.rs"), ("".into(), FileKind::Lib));
}

// -------------------------------------------------------------- pragmas

#[test]
fn justified_pragma_suppresses_same_line_and_next_line() {
    let trailing = "
pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // arrow-lint: allow(panic-on-input-path) — x is produced two lines up and is always Some
";
    assert!(lint_core(trailing).is_empty());
    let own_line = "
pub fn f(x: Option<u8>) -> u8 {
    // arrow-lint: allow(panic-on-input-path) — checked by caller contract
    x.unwrap()
}
";
    assert!(lint_core(own_line).is_empty());
}

#[test]
fn pragma_without_justification_is_rejected() {
    let src = "
pub fn f(x: Option<u8>) -> u8 {
    // arrow-lint: allow(panic-on-input-path)
    x.unwrap()
}
";
    let hits = lint_core(src);
    // The bare pragma is itself a violation AND fails to suppress.
    assert!(hits.contains(&"bad-pragma:3".to_string()), "{hits:?}");
    assert!(hits.contains(&"panic-on-input-path:4".to_string()), "{hits:?}");
}

#[test]
fn pragma_with_unknown_rule_is_rejected() {
    let src = "fn f() {} // arrow-lint: allow(no-such-rule) — because";
    let hits = lint_core(src);
    assert_eq!(hits, vec!["bad-pragma:1"], "{hits:?}");
}

#[test]
fn pragma_only_suppresses_its_named_rule() {
    let src = "
pub fn f(v: &mut [f64], x: Option<u8>) -> u8 {
    // arrow-lint: allow(float-partial-order) — wrong rule for the line below
    x.unwrap()
}
";
    let hits = lint_core(src);
    assert_eq!(hits, vec!["panic-on-input-path:4"], "{hits:?}");
}

#[test]
fn file_pragma_suppresses_the_whole_file() {
    let src = "
// arrow-lint: allow-file(panic-on-input-path) — fixture module; every panic is exercised by tests
pub fn f(x: Option<u8>) -> u8 { x.unwrap() }
pub fn g() { panic!(\"boom\") }
pub fn h(x: Option<u8>) -> u8 { x.expect(\"far from the pragma\") }
";
    assert!(lint_core(src).is_empty());
}

#[test]
fn file_pragma_only_suppresses_its_named_rule() {
    let src = "
// arrow-lint: allow-file(panic-on-input-path) — panics are fine here
pub fn f(x: Option<u8>) -> u8 { let _ = std::collections::HashMap::<u8, u8>::new(); x.unwrap() }
";
    let hits = lint_core(src);
    assert_eq!(hits, vec!["nondeterministic-iteration:3"], "{hits:?}");
}

#[test]
fn file_pragma_after_code_is_rejected() {
    let src = "
pub fn f() {}
// arrow-lint: allow-file(panic-on-input-path) — too late, code precedes it
pub fn g(x: Option<u8>) -> u8 { x.unwrap() }
";
    let hits = lint_core(src);
    assert!(hits.contains(&"bad-pragma:3".to_string()), "{hits:?}");
    assert!(hits.contains(&"panic-on-input-path:4".to_string()), "{hits:?}");
}

#[test]
fn file_pragma_unknown_rule_is_rejected() {
    let src = "// arrow-lint: allow-file(no-such-rule) — because\nfn f() {}";
    let hits = lint_core(src);
    assert_eq!(hits, vec!["bad-pragma:1"], "{hits:?}");
}

#[test]
fn file_pragma_without_justification_is_rejected() {
    let src = "
// arrow-lint: allow-file(panic-on-input-path)
pub fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
    let hits = lint_core(src);
    // The bare file pragma is itself a violation AND fails to suppress.
    assert!(hits.contains(&"bad-pragma:2".to_string()), "{hits:?}");
    assert!(hits.contains(&"panic-on-input-path:3".to_string()), "{hits:?}");
}

#[test]
fn alternate_separators_are_accepted() {
    for sep in ["—", "--", ":"] {
        let src = format!(
            "pub fn f(x: Option<u8>) -> u8 {{ x.unwrap() }} \
             // arrow-lint: allow(panic-on-input-path) {sep} invariant holds"
        );
        assert!(lint_core(&src).is_empty(), "separator {sep:?} rejected");
    }
}

// ------------------------------------------------------------- baseline

#[test]
fn baseline_round_trip_and_ratchet() {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    counts.insert(("panic-on-input-path".into(), "crates/lp/src/a.rs".into()), 3);
    counts.insert(("wall-clock-in-core".into(), "crates/core/src/b.rs".into()), 1);
    let base = Baseline::from_counts(&counts);
    let parsed = Baseline::parse(&base.serialize()).expect("round trip");
    assert_eq!(parsed.entries, base.entries);

    // Exact match: clean.
    assert!(compare(&parsed, &counts).is_clean());

    // One more violation: regression.
    let mut worse = counts.clone();
    *worse.get_mut(&("panic-on-input-path".into(), "crates/lp/src/a.rs".into())).expect("key") = 4;
    let r = compare(&parsed, &worse);
    assert_eq!(r.regressions.len(), 1);
    assert!(r.stale.is_empty());

    // One fixed: the ratchet demands the baseline be tightened.
    let mut better = counts.clone();
    better.remove(&("wall-clock-in-core".into(), "crates/core/src/b.rs".into()));
    let r = compare(&parsed, &better);
    assert!(r.regressions.is_empty());
    assert_eq!(r.stale.len(), 1);
}

#[test]
fn baseline_rejects_garbage() {
    assert!(Baseline::parse("only-two\tfields").is_err());
    assert!(Baseline::parse("rule\tpath\tnot-a-number").is_err());
    assert!(Baseline::parse("# comment\n\n").expect("comments ok").entries.is_empty());
}
