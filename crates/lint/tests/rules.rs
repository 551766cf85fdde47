//! Per-rule positive and negative fixtures, driven through the same
//! [`lint_source`] entry point the workspace run uses — so these tests
//! exercise lexing, test-masking, scoping, and detection together.

use cuisine_lint::workspace::lint_source;

/// Rule IDs fired for `source` placed at `rel_path`.
fn fired(rel_path: &str, source: &str) -> Vec<&'static str> {
    lint_source(rel_path, source).into_iter().map(|d| d.rule).collect()
}

// --- D1: hash iteration in artifact-producing crates -------------------

#[test]
fn d1_flags_iteration_methods_on_hash_bindings() {
    for method in ["iter", "keys", "values", "drain", "iter_mut", "into_iter", "retain"] {
        let src = format!(
            "use std::collections::HashMap;\n\
             fn f() {{ let counts: HashMap<u32, u64> = HashMap::new(); \
             let _ = counts.{method}(|_| true); }}"
        );
        assert!(
            fired("crates/mining/src/x.rs", &src).contains(&"D1"),
            "D1 should flag .{method}()"
        );
    }
}

#[test]
fn d1_flags_for_loops_over_hash_bindings() {
    let src = "fn f() { let seen = std::collections::HashSet::from([1u32]);\n\
               for x in &seen { drop(x); } }";
    assert_eq!(fired("crates/analytics/src/x.rs", src), vec!["D1"]);
    // `&mut` borrows too.
    let src_mut = "fn f() { let mut m = std::collections::HashMap::from([(1u32, 2u32)]);\n\
                   for v in &mut m { drop(v); } }";
    assert_eq!(fired("crates/evolution/src/x.rs", src_mut), vec!["D1"]);
}

#[test]
fn d1_tracks_annotated_fields_and_params() {
    let src = "use std::collections::HashMap;\n\
               fn emit(header: HashMap<u32, Vec<usize>>) -> usize { header.keys().count() }";
    assert_eq!(fired("crates/mining/src/x.rs", src), vec!["D1"]);
}

#[test]
fn d1_tracks_reference_annotated_params() {
    // Borrowed parameters are the common injection shape: `&`, `&mut`,
    // `&'a`, with or without a path prefix.
    for ty in [
        "&HashMap<u32, u32>",
        "&mut HashMap<u32, u32>",
        "&'a HashMap<u32, u32>",
        "&std::collections::HashMap<u32, u32>",
    ] {
        let lifetime = if ty.contains("'a") { "<'a>" } else { "" };
        let src = format!(
            "use std::collections::HashMap;\n\
             pub fn f{lifetime}(m: {ty}) -> Vec<u32> {{\n\
             \x20   let mut out = Vec::new();\n\
             \x20   for (k, _) in m.iter() {{ out.push(*k); }}\n\
             \x20   out\n}}"
        );
        assert_eq!(
            fired("crates/analytics/src/x.rs", &src),
            vec!["D1"],
            "D1 should flag iteration over `m: {ty}`"
        );
    }
}

#[test]
fn d1_ignores_lookup_only_use() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: &HashMap<u32, u64>) -> u64 {\n\
               \x20   let mut m2: HashMap<u32, u64> = HashMap::new();\n\
               \x20   m2.insert(1, 2);\n\
               \x20   *m.get(&1).unwrap_or(&0) + u64::from(m2.contains_key(&1))\n}";
    assert!(fired("crates/mining/src/x.rs", src).is_empty());
}

#[test]
fn d1_ignores_btree_collections_and_unrelated_names() {
    let src = "use std::collections::BTreeMap;\n\
               fn f(m: &BTreeMap<u32, u64>) -> Vec<u32> { m.keys().copied().collect() }";
    assert!(fired("crates/mining/src/x.rs", src).is_empty());
}

#[test]
fn d1_scopes_to_artifact_crates_only() {
    let src = "use std::collections::HashMap;\n\
               fn f(m: HashMap<u32, u64>) -> usize { m.iter().count() }";
    assert!(fired("crates/mining/src/x.rs", src).contains(&"D1"));
    assert!(fired("crates/serve/src/snapshot.rs", src).contains(&"D1"));
    assert!(fired("crates/serve/src/registry.rs", src).contains(&"D1"));
    assert!(fired("crates/serve/src/deadline.rs", src).contains(&"D1"));
    assert!(fired("crates/exec/src/faults.rs", src).contains(&"D1"));
    assert!(fired("crates/bench/src/x.rs", src).is_empty(), "bench is not artifact-producing");
    assert!(
        fired("crates/serve/src/router.rs", src).is_empty(),
        "serve outside snapshot.rs/registry.rs/deadline.rs"
    );
    assert!(
        fired("crates/exec/src/pool.rs", src).is_empty(),
        "exec outside faults.rs"
    );
    assert!(fired("crates/mining/tests/x.rs", src).is_empty(), "tests are out of scope");
}

#[test]
fn d1_covers_the_bitmap_kernel_sources() {
    // The bitmap kernel source sits in `crates/mining/src/` and therefore
    // inherits D1 coverage by path, not by an allowlist — pin that here so
    // a future re-scoping of the rule cannot silently drop it.
    let src = "use std::collections::HashMap;\n\
               fn f(m: HashMap<u32, u64>) -> usize { m.iter().count() }";
    let file = "crates/mining/src/bitmap.rs";
    assert!(fired(file, src).contains(&"D1"), "{file} must be in D1 scope");
}

#[test]
fn d1_and_x1_cover_the_diffset_and_reorder_sources() {
    // The PR-10 accelerant files (dEclat diffsets, reordering + parallel
    // DFS front-end) inherit coverage by path too — and the reorder
    // front-end is exactly where a raw `thread::spawn` would be tempting,
    // so pin X1 alongside D1.
    let hash_iter = "use std::collections::HashMap;\n\
                     fn f(m: HashMap<u32, u64>) -> usize { m.iter().count() }";
    let spawn = "fn f() { std::thread::spawn(|| {}).join().ok(); }";
    for file in ["crates/mining/src/diffset.rs", "crates/mining/src/reorder.rs"] {
        assert!(fired(file, hash_iter).contains(&"D1"), "{file} must be in D1 scope");
        assert!(fired(file, spawn).contains(&"X1"), "{file} must be in X1 scope");
    }
}

#[test]
fn d1_test_annotations_do_not_taint_production_bindings() {
    // A production Vec named `active` plus a test-local HashSet of the
    // same name: the production for-loop must not be flagged.
    let src = "fn f(active: Vec<u32>) -> u32 { let mut s = 0; for &id in &active { s += id; } s }\n\
               #[cfg(test)]\nmod tests {\n    fn t() {\n        let active: std::collections::HashSet<u32> = Default::default();\n        assert!(active.is_empty());\n    }\n}";
    assert!(fired("crates/evolution/src/x.rs", src).is_empty());
}

// --- D2: wall-clock / environment reads --------------------------------

#[test]
fn d2_flags_clock_and_env_reads_in_any_production_crate() {
    let clock = "fn f() -> std::time::Instant { std::time::Instant::now() }";
    assert_eq!(fired("crates/core/src/x.rs", clock), vec!["D2"]);
    assert_eq!(fired("crates/exec/src/x.rs", clock), vec!["D2"], "exec is only exempt from X1");
    let wall = "fn f() -> std::time::SystemTime { std::time::SystemTime::now() }";
    assert_eq!(fired("crates/report/src/x.rs", wall), vec!["D2"]);
    let env = "fn f() -> Option<String> { std::env::var(\"SEED\").ok() }";
    assert_eq!(fired("crates/data/src/x.rs", env), vec!["D2"]);
}

#[test]
fn d2_ignores_unrelated_now_methods_and_tests() {
    // `now` not behind `Instant::`/`SystemTime::` is not a clock read.
    let src = "fn f(clock: &dyn Fn() -> u64) -> u64 { let now = clock(); now }";
    assert!(fired("crates/core/src/x.rs", src).is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); }\n}";
    assert!(fired("crates/core/src/x.rs", test_only).is_empty());
}

// --- D3: entropy-seeded RNG construction -------------------------------

#[test]
fn d3_flags_entropy_constructors() {
    assert_eq!(
        fired("crates/evolution/src/x.rs", "fn f() { let _ = thread_rng(); }"),
        vec!["D3"]
    );
    assert_eq!(
        fired("crates/synth/src/x.rs", "fn f() { let _ = StdRng::from_entropy(); }"),
        vec!["D3"]
    );
    assert_eq!(
        fired("crates/core/src/x.rs", "fn f() -> u64 { rand::random() }"),
        vec!["D3"]
    );
}

#[test]
fn d3_ignores_seeded_construction_and_bare_random() {
    let seeded = "fn f(seed: u64) { let _ = StdRng::seed_from_u64(seed); }";
    assert!(fired("crates/evolution/src/x.rs", seeded).is_empty());
    // A local helper called `random` is not `rand::random`.
    let bare = "fn random(x: u64) -> u64 { x } fn g() -> u64 { random(7) }";
    assert!(fired("crates/evolution/src/x.rs", bare).is_empty());
}

// --- P1: panic-capable operations in crates/serve ----------------------

#[test]
fn p1_flags_unwrap_expect_and_panic_macros() {
    assert_eq!(
        fired("crates/serve/src/router.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }"),
        vec!["P1"]
    );
    assert_eq!(
        fired("crates/serve/src/router.rs", "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }"),
        vec!["P1"]
    );
    for mac in ["panic!(\"boom\")", "unreachable!()", "todo!()", "unimplemented!()"] {
        let src = format!("fn f() {{ {mac} }}");
        assert_eq!(fired("crates/serve/src/router.rs", &src), vec!["P1"], "{mac}");
    }
}

#[test]
fn p1_flags_slice_indexing_but_not_macro_brackets() {
    assert_eq!(
        fired("crates/serve/src/http.rs", "fn f(v: &[u8]) -> u8 { v[0] }"),
        vec!["P1"]
    );
    // `vec![..]`, attributes, and array-type syntax are not indexing.
    let clean = "#[derive(Debug)]\nstruct S;\nfn f() -> Vec<u8> { vec![1, 2] }\n\
                 fn g() -> [u8; 2] { [1, 2] }";
    assert!(fired("crates/serve/src/http.rs", clean).is_empty());
}

#[test]
fn p1_ignores_non_panicking_variants_scope_and_tests() {
    let clean = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_default() }\n\
                 fn g(x: Option<u32>) -> u32 { x.unwrap_or(7) }\n\
                 fn h(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 7) }";
    assert!(fired("crates/serve/src/router.rs", clean).is_empty());
    let unwrap = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert!(fired("crates/mining/src/x.rs", unwrap).is_empty(), "P1 is serve-only");
    assert!(fired("crates/serve/src/client.rs", unwrap).is_empty(), "client.rs is test plumbing");
    assert!(fired("crates/serve/tests/x.rs", unwrap).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1u32).unwrap(); }\n}";
    assert!(fired("crates/serve/src/router.rs", in_test).is_empty());
}

// --- X1: thread creation outside cuisine-exec --------------------------

#[test]
fn x1_flags_raw_thread_creation_outside_exec() {
    let spawn = "fn f() { std::thread::spawn(|| {}).join().ok(); }";
    assert_eq!(fired("crates/mining/src/x.rs", spawn), vec!["X1"]);
    let scope = "fn f() { std::thread::scope(|_| {}); }";
    assert_eq!(fired("crates/report/src/x.rs", scope), vec!["X1"]);
    let builder = "fn f() { let _ = std::thread::Builder::new().spawn(|| {}); }";
    assert!(fired("crates/serve/src/server.rs", builder).contains(&"X1"));
}

#[test]
fn x1_exempts_the_exec_crate_and_tests() {
    let spawn = "fn f() { std::thread::spawn(|| {}).join().ok(); }";
    assert!(fired("crates/exec/src/x.rs", spawn).is_empty());
    assert!(fired("crates/mining/tests/x.rs", spawn).is_empty());
}

// --- Cross-cutting: diagnostics carry usable spans ---------------------

#[test]
fn diagnostics_carry_spans_snippets_and_sorted_order() {
    let src = "fn a(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
               fn b(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    let diagnostics = lint_source("crates/serve/src/router.rs", src);
    assert_eq!(diagnostics.len(), 2);
    assert_eq!(diagnostics[0].line, 2);
    assert_eq!(diagnostics[0].snippet, "x.unwrap()");
    assert_eq!(diagnostics[1].line, 5);
    assert!(diagnostics[0].col > 0, "columns are 1-based");
    let human = diagnostics[0].render_human();
    assert!(human.starts_with("crates/serve/src/router.rs:2:"), "{human}");
    assert!(human.contains("error[P1]"), "{human}");
}
