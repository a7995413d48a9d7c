//! Whole-workspace lock-graph analysis and runtime lock witness.
//!
//! The static side is table-driven over in-memory fixtures fed to
//! `streamrel_check::lock_graph::analyze_files`: each rejected fixture
//! is paired with an accepted near-miss differing only in acquisition
//! order, so the tests pin rule boundaries. The runtime side is a
//! regression test deliberately inverting a pair from the generated
//! `LOCK_MUST_PRECEDE` table and asserting the witness panic names
//! *both* acquisition sites.

use std::panic::{catch_unwind, AssertUnwindSafe};

use streamrel_check::lock_graph::analyze_files;

fn fixture(files: &[(&str, &str)]) -> streamrel_check::lock_graph::LockGraphReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect();
    analyze_files(&owned)
}

/// (case, fixture files, expected rule — `None` means clean).
type Case = (
    &'static str,
    &'static [(&'static str, &'static str)],
    Option<&'static str>,
);

const CASES: &[Case] = &[
    (
        // Two files of one crate declare contradictory orders: the
        // declarations themselves conflict, before any code runs.
        "declared-cycle",
        &[
            ("crates/gamma/src/a.rs", "// lock-order: one < two\n"),
            ("crates/gamma/src/b.rs", "// lock-order: two < one\n"),
        ],
        Some("lock-cycle"),
    ),
    (
        // File B holds `blue` across a call into file A's helper,
        // which acquires `red` — against A's declared `red < blue`.
        // The cycle goes through an observed edge, so it is an
        // inversion (the code, not the declarations, is wrong).
        "cross-file-inversion",
        &[
            (
                "crates/alpha/src/a.rs",
                "// lock-order: red < blue\n\
                 pub fn grab_red_unique(red: &Lock) {\n\
                 \x20   red.lock().touch();\n\
                 }\n",
            ),
            (
                "crates/alpha/src/b.rs",
                "// lock-order: blue\n\
                 pub fn outer(blue: &Lock) {\n\
                 \x20   let g = blue.lock();\n\
                 \x20   grab_red_unique();\n\
                 \x20   drop(g);\n\
                 }\n",
            ),
        ],
        Some("lock-graph-inversion"),
    ),
    (
        // Near-miss of the inversion: the same two-file shape with the
        // acquisition order flipped to agree with the declaration.
        "cross-file-consistent",
        &[
            (
                "crates/alpha/src/a.rs",
                "// lock-order: red < blue\n\
                 pub fn grab_blue_unique(blue: &Lock) {\n\
                 \x20   blue.lock().touch();\n\
                 }\n",
            ),
            (
                "crates/alpha/src/b.rs",
                "// lock-order: red\n\
                 pub fn outer(red: &Lock) {\n\
                 \x20   let g = red.lock();\n\
                 \x20   grab_blue_unique();\n\
                 \x20   drop(g);\n\
                 }\n",
            ),
        ],
        None,
    ),
];

#[test]
fn every_graph_rule_fires_and_its_near_miss_is_clean() {
    for (case, files, expected) in CASES {
        let report = fixture(files);
        match expected {
            Some(rule) => {
                assert_eq!(
                    report.violations.len(),
                    1,
                    "{case}: expected one violation, got {:#?}",
                    report.violations
                );
                assert_eq!(report.violations[0].rule, *rule, "{case}");
                // A cyclic graph has no usable order to generate.
                assert!(report.order.is_empty(), "{case}: order on cyclic graph");
                assert!(report.must_precede.is_empty(), "{case}");
            }
            None => {
                assert!(
                    report.violations.is_empty(),
                    "{case}: unexpected {:#?}",
                    report.violations
                );
            }
        }
    }
}

#[test]
fn violation_messages_carry_qualified_names_and_provenance() {
    // The declared cycle names both qualified locks and the declaring file.
    let report = fixture(CASES[0].1);
    let msg = &report.violations[0].message;
    assert!(msg.contains("gamma.one"), "{msg}");
    assert!(msg.contains("gamma.two"), "{msg}");
    assert!(msg.contains("crates/gamma/src/"), "{msg}");

    // The inversion message distinguishes declared from observed hops
    // and points at the function that acquired against the order.
    let report = fixture(CASES[1].1);
    let msg = &report.violations[0].message;
    assert!(msg.contains("declared"), "{msg}");
    assert!(msg.contains("observed"), "{msg}");
    assert!(msg.contains("fn outer"), "{msg}");
}

#[test]
fn clean_graph_yields_topological_order_and_closure() {
    let report = fixture(CASES[2].1);
    assert_eq!(report.order, ["alpha.red", "alpha.blue"]);
    assert!(report
        .must_precede
        .contains(&("alpha.red".to_string(), "alpha.blue".to_string())));
    // Both renderers agree with the graph: the DOT output draws the
    // declared edge solid, and the generated table round-trips both
    // names through GLOBAL_LOCK_ORDER.
    let dot = report.to_dot();
    assert!(
        dot.contains("\"alpha.red\" -> \"alpha.blue\" [style=solid"),
        "{dot}"
    );
    let gen = report.to_gen_source();
    assert!(gen.contains("GLOBAL_LOCK_ORDER"), "{gen}");
    assert!(gen.contains("(\"alpha.red\", \"alpha.blue\")"), "{gen}");
}

/// Inverting a `LOCK_MUST_PRECEDE` pair at runtime panics with a message
/// naming both acquisition sites — the regression the witness exists to
/// catch. Uses the real generated table, so this also pins the contract
/// that `core.catalog < core.state` stays in the merged order.
#[test]
fn witness_panics_on_inverted_acquisition_naming_both_sites() {
    let table = streamrel_check::lock_graph_gen::LOCK_MUST_PRECEDE;
    assert!(
        table.contains(&("core.catalog", "core.state")),
        "generated order lost the catalog < state edge; pick another pair"
    );
    parking_lot::witness::install_order(table);
    parking_lot::witness::enable();

    let catalog = parking_lot::Mutex::named("core.catalog", ());
    let state = parking_lot::Mutex::named("core.state", ());

    // Correct order first: catalog then state is silent.
    {
        let _c = catalog.lock();
        let _s = state.lock();
    }

    // Inverted order: acquiring `catalog` while holding `state` must panic.
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _held = state.lock();
        let _bad = catalog.lock();
    }))
    .expect_err("inverted acquisition must trip the witness");
    parking_lot::witness::disable();

    let msg = err
        .downcast_ref::<String>()
        .expect("witness panics with a formatted String")
        .clone();
    assert!(msg.contains("lock-order violation"), "{msg}");
    // Both sites are named: the acquiring site and the held site, each
    // as a file:line inside this test.
    assert!(
        msg.contains("acquiring `core.catalog` at tests/lock_graph.rs:"),
        "{msg}"
    );
    assert!(
        msg.contains("holding `core.state` acquired at tests/lock_graph.rs:"),
        "{msg}"
    );
    assert!(msg.contains("`core.catalog` < `core.state`"), "{msg}");
    // The panic tells the reader where the order comes from.
    assert!(msg.contains("lock_graph.gen.rs"), "{msg}");
}

/// A snapshot `SELECT` releases the catalog before it executes, so no
/// path holds `core.catalog` while it takes a CQ queue or result lock:
/// ingest, which reads the catalog to find its shard, never waits behind a
/// running query.
#[test]
fn the_catalog_is_never_held_into_a_cq_lock() {
    let held_into_cq: Vec<_> = streamrel_check::lock_graph_gen::LOCK_MUST_PRECEDE
        .iter()
        .filter(|(a, b)| *a == "core.catalog" && b.starts_with("cq."))
        .collect();
    assert!(held_into_cq.is_empty(), "{held_into_cq:?}");
}

/// Every lock in the generated order exists: its name is the one passed
/// to a `Mutex::named` / `RwLock::named` somewhere in the sources. A
/// `// lock-order:` declaration naming a lock nobody constructs puts a
/// node and edges in the graph that constrain nothing.
#[test]
fn every_ordered_lock_is_constructed_somewhere() {
    fn collect_named(dir: &std::path::Path, names: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                collect_named(&path, names);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                for after in src.split("::named(").skip(1) {
                    if let Some(lit) = after.trim_start().strip_prefix('"') {
                        names.extend(lit.split('"').next().map(str::to_string));
                    }
                }
            }
        }
    }
    let mut constructed = Vec::new();
    collect_named(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"),
        &mut constructed,
    );
    for name in streamrel_check::lock_graph_gen::GLOBAL_LOCK_ORDER {
        assert!(
            constructed.iter().any(|c| c == name),
            "`{name}` is in GLOBAL_LOCK_ORDER but no lock is constructed under that name"
        );
    }
}
