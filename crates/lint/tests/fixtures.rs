//! End-to-end fixture tests: each `fixtures/*.rs` file seeds the exact
//! violations its lint family must catch (and clean look-alikes the
//! family must NOT catch), and the tests pin the golden diagnostics —
//! file, line, lint tag, and the load-bearing part of the message.
//! Lines are located by searching for the seeded snippet, so editing a
//! fixture's doc comment cannot silently rot the expectations.

use g2pl_lint::{analyze_sources, lint_source, machine, Diagnostic, FileConfig, Lint, SourceFile};

fn findings(fixture: &str, source: &str) -> Vec<Diagnostic> {
    lint_source(fixture, source, FileConfig::default())
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    src.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("fixture lost its seeded snippet {needle:?}"))
        + 1
}

fn source(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
        config: FileConfig::default(),
    }
}

#[test]
fn l1_fixture_trips_only_l1() {
    let diags = findings(
        "fixtures/l1_hash_iteration.rs",
        include_str!("../fixtures/l1_hash_iteration.rs"),
    );
    assert!(
        diags.len() >= 3,
        "expected the 3 seeded violations: {diags:?}"
    );
    assert!(diags.iter().all(|d| d.lint == Lint::L1), "{diags:?}");
}

#[test]
fn l2_fixture_trips_only_l2() {
    let diags = findings(
        "fixtures/l2_ambient.rs",
        include_str!("../fixtures/l2_ambient.rs"),
    );
    assert!(diags.iter().any(|d| d.lint == Lint::L2), "{diags:?}");
    assert!(
        diags.iter().filter(|d| d.lint == Lint::L2).count() >= 3,
        "Instant::now, SystemTime::now and thread_rng must all trip: {diags:?}"
    );
}

#[test]
fn l3_fixture_trips_l3_and_audits_bad_marker() {
    let src = include_str!("../fixtures/l3_panics.rs");
    let diags = findings("fixtures/l3_panics.rs", src);
    let l3 = diags.iter().filter(|d| d.lint == Lint::L3).count();
    assert!(
        l3 >= 4,
        "unwrap, expect, panic! and the one under the reason-less allow: {diags:?}"
    );
    // The reason-less `lint:allow(L3)` is malformed, so it suppresses
    // nothing and is itself reported — as L7, the marker-hygiene family.
    let bad = diags
        .iter()
        .filter(|d| d.lint == Lint::L7)
        .collect::<Vec<_>>();
    assert_eq!(bad.len(), 1, "{diags:?}");
    assert_eq!(bad[0].line, line_of(src, "// lint:allow(L3)"));
    assert!(bad[0].message.contains("malformed"), "{}", bad[0]);
}

#[test]
fn l4_fixture_golden() {
    let src = include_str!("../fixtures/l4_rng.rs");
    let diags = findings("fixtures/l4_rng.rs", src);
    let want = [
        (line_of(src, "RngStream::new(seed)"), "unnamed stream"),
        (line_of(src, "seed, label"), "not a string literal"),
        (
            line_of(src, "duplicate of \"net\""),
            "duplicate RNG stream name",
        ),
        (
            line_of(src, "shadows client-<n>"),
            "collides with the indexed",
        ),
    ];
    assert_eq!(diags.len(), want.len(), "{diags:?}");
    for (d, (line, frag)) in diags.iter().zip(want) {
        assert_eq!((d.lint, d.line), (Lint::L4, line), "{d}");
        assert!(d.message.contains(frag), "{d}");
    }
}

#[test]
fn l5_fixture_golden() {
    let def = include_str!("../fixtures/l5_trace_def.rs");
    let drv = include_str!("../fixtures/l5_trace.rs");
    let diags = analyze_sources(&[
        source("fixtures/l5_trace_def.rs", def),
        source("fixtures/l5_trace.rs", drv),
    ])
    .diagnostics;
    assert_eq!(diags.len(), 2, "{diags:?}");
    // Sorted by path, so the driver file's finding comes first.
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line, diags[0].lint),
        (
            "fixtures/l5_trace.rs",
            line_of(drv, "pub fn dispatch"),
            Lint::L5
        ),
        "{diags:?}"
    );
    assert!(diags[0].message.contains("decision function `dispatch`"));
    assert_eq!(
        (diags[1].file.as_str(), diags[1].line, diags[1].lint),
        ("fixtures/l5_trace_def.rs", line_of(def, "Ghost,"), Lint::L5),
        "{diags:?}"
    );
    assert!(diags[1]
        .message
        .contains("`TraceKind::Ghost` is never emitted"));
}

#[test]
fn l5_flight_fixture_golden() {
    // The flight-recorder marker shape: `SpanKind::SlowTxn` built in
    // expression position at export time counts as an emission, while
    // the seeded `FlightGhost` (only ever consumed) is flagged.
    let def = include_str!("../fixtures/l5_flight_def.rs");
    let drv = include_str!("../fixtures/l5_flight.rs");
    let diags = analyze_sources(&[
        source("fixtures/l5_flight_def.rs", def),
        source("fixtures/l5_flight.rs", drv),
    ])
    .diagnostics;
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line, diags[0].lint),
        (
            "fixtures/l5_flight_def.rs",
            line_of(def, "FlightGhost,"),
            Lint::L5
        ),
        "{diags:?}"
    );
    assert!(diags[0]
        .message
        .contains("`SpanKind::FlightGhost` is never emitted"));
}

#[test]
fn l6_fixture_golden() {
    let src = include_str!("../fixtures/l6_wal.rs");
    let diags = findings("fixtures/l6_wal.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].lint, diags[0].line),
        (Lint::L6, line_of(src, "seeded: send precedes")),
        "{diags:?}"
    );
    assert!(
        diags[0].message.contains("`broadcast_first`"),
        "{}",
        diags[0]
    );
}

#[test]
fn l7_fixture_golden() {
    let src = include_str!("../fixtures/l7_stale.rs");
    let diags = findings("fixtures/l7_stale.rs", src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(
        (diags[0].lint, diags[0].line),
        (Lint::L7, line_of(src, "the slice is non-empty")),
        "{diags:?}"
    );
    assert!(
        diags[0].message.contains("stale lint:allow(L3)"),
        "{}",
        diags[0]
    );
    assert_eq!(
        (diags[1].lint, diags[1].line),
        (Lint::L7, line_of(src, "no such lint family")),
        "{diags:?}"
    );
    assert!(diags[1].message.contains("malformed"), "{}", diags[1]);
    // The live allow on `live_site` must keep suppressing its unwrap.
    assert!(diags.iter().all(|d| d.lint != Lint::L3), "{diags:?}");
}

#[test]
fn sm_fixture_golden() {
    let src = include_str!("../fixtures/sm_machine.rs");
    let shared = include_str!("../fixtures/sm_shared.rs");
    let analysis = analyze_sources(&[
        source("fixtures/sm_machine.rs", src),
        source("fixtures/sm_shared.rs", shared),
    ]);
    let diags = &analysis.diagnostics;
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert_eq!(
        (diags[0].lint, diags[0].line),
        (Lint::SM, line_of(src, "Wedged, //")),
        "{diags:?}"
    );
    assert!(diags[0].message.contains("unreachable"), "{}", diags[0]);
    assert_eq!(
        (diags[1].lint, diags[1].line),
        (Lint::SM, line_of(src, "source state is dead")),
        "{diags:?}"
    );
    assert!(diags[1].message.contains("can never fire"), "{}", diags[1]);
    // The shared dead transition is reported once, at the shared file.
    assert_eq!(
        (diags[2].file.as_str(), diags[2].lint, diags[2].line),
        (
            "fixtures/sm_shared.rs",
            Lint::SM,
            line_of(shared, "shared transition out of a dead state")
        ),
        "{diags:?}"
    );

    // The DOT render carries the same structure: Active is initial
    // (double circle), the untracked-context write shows as a dashed
    // implicit edge, the guarded self-loop as a solid one. The shared
    // edges sit in the implementing file's machine; the shared file has
    // none of its own.
    let dot = machine::dot(&analysis.extraction);
    assert!(dot.contains("digraph sm_machine {"), "{dot}");
    assert!(!dot.contains("digraph sm_shared"), "{dot}");
    assert!(dot.contains("\"Active\" [shape=doublecircle];"), "{dot}");
    assert!(
        dot.contains("\"Active\" -> \"Committed\" [style=dashed];"),
        "{dot}"
    );
    assert!(dot.contains("\"Wedged\" -> \"Wedged\";"), "{dot}");
    assert!(dot.contains("\"Wedged\" -> \"Active\";"), "{dot}");
}

/// Shared engine code is attributed by trait: a transition in a fn
/// generic over `E: LockServer` belongs to every file with `impl
/// LockServer for …`, not to a file that only implements `Protocol`,
/// and not to the shared file itself; a generic decision fn that writes
/// a status without recording it is an L5 finding at the shared file.
#[test]
fn shared_generic_code_is_attributed_to_its_engines() {
    let def = "pub enum TxnStatus { Active, Committed }\n\
               pub enum TraceKind { Committed }\n\
               fn open(c: ClientId) -> TxnInfo { TxnInfo { client: c, status: TxnStatus::Active } }\n";
    let shared = "pub(crate) fn commit_decided<E: LockServer>(eng: &mut E, txn: TxnId) {\n\
                  eng.table.set_status(txn, TxnStatus::Committed);\n\
                  finish_commit(eng, txn);\n\
                  }\n\
                  fn note(log: &mut TraceLog) { log.record(TraceKind::Committed); }\n";
    let analysis = analyze_sources(&[
        source("proto/src/def.rs", def),
        source("core/src/shared.rs", shared),
        source(
            "proto/src/s2pl.rs",
            "impl LockServer for S2pl {}\nimpl Protocol for S2pl {}\n",
        ),
        source(
            "proto/src/c2pl.rs",
            "impl LockServer for C2pl {}\nimpl Protocol for C2pl {}\n",
        ),
        source("proto/src/g2pl.rs", "impl Protocol for G2pl {}\n"),
    ]);
    let names: Vec<&str> = analysis
        .extraction
        .machines
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(names, ["c2pl", "s2pl"]);
    for m in &analysis.extraction.machines {
        assert_eq!(m.edges.len(), 1, "{m:?}");
        assert_eq!(m.edges[0].file, "core/src/shared.rs");
        assert_eq!(
            (m.edges[0].from.as_str(), m.edges[0].to.as_str()),
            ("Active", "Committed")
        );
    }
    let diags = &analysis.diagnostics;
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line, diags[0].lint),
        ("core/src/shared.rs", 1, Lint::L5)
    );
    assert!(
        diags[0].message.contains("`commit_decided`"),
        "{}",
        diags[0]
    );
}

#[test]
fn clean_fixture_passes() {
    let diags = findings("fixtures/clean.rs", include_str!("../fixtures/clean.rs"));
    assert!(
        diags.is_empty(),
        "clean fixture must produce no findings: {diags:?}"
    );
}

#[test]
fn diagnostics_point_into_the_fixture() {
    let src = include_str!("../fixtures/l1_hash_iteration.rs");
    let diags = findings("fixtures/l1_hash_iteration.rs", src);
    let lines: Vec<&str> = src.lines().collect();
    for d in &diags {
        assert_eq!(d.file, "fixtures/l1_hash_iteration.rs");
        assert!(d.line >= 1 && d.line <= lines.len(), "{d}");
    }
}

/// The state machines extracted from the real workspace, pinned edge for
/// edge: `g2pl-lint --dot` must print exactly the committed golden file.
/// A refactor that moves a `set_status` call out of its engine file, or
/// into a context that changes its source state, changes the output and
/// fails here. A deliberate protocol change regenerates the file with
/// `cargo run -q -p g2pl-lint -- --dot > crates/lint/tests/golden/engines.dot`.
#[test]
fn workspace_state_machines_match_the_golden_dot() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the workspace root");
    let analysis = g2pl_lint::analyze_workspace(root).expect("workspace discovery");
    assert_eq!(
        machine::dot(&analysis.extraction),
        include_str!("golden/engines.dot"),
        "extracted state machines drifted from tests/golden/engines.dot"
    );
}

/// The self-test the CI gate leans on: the real workspace — every
/// member crate of the root manifest, minus explicit opt-outs — must
/// come back with zero findings, and the state-machine extractor must
/// actually see the protocol engines (an empty extraction would make
/// the reachability lints vacuously green).
#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate sits two levels under the workspace root");
    let analysis = g2pl_lint::analyze_workspace(root).expect("workspace discovery");
    assert!(
        analysis.diagnostics.is_empty(),
        "workspace must lint clean:\n{}",
        analysis
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        !analysis.extraction.machines.is_empty(),
        "state-machine extraction must find the protocol engines"
    );
}
