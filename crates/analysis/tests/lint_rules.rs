//! Audit of the `dacce-lint` rule catalogue and exit-code policy.
//!
//! Pins the fix for the bug where a warning-severity finding
//! (`hottest-zero`) printed a diagnostic but still exited 0, making the
//! rule invisible to CI: `lint::exit_code` must be nonzero whenever *any*
//! finding is reported, and the `--list-rules` catalogue must actually
//! cover the rules the verifier emits.

use std::collections::HashMap;

use dacce_analyze::lint::{self, Severity};
use dacce_analyze::verifier::verify_dicts;
use dacce_callgraph::analysis::classify_back_edges;
use dacce_callgraph::encode::encode_graph;
use dacce_callgraph::{
    CallGraph, CallSiteId, DecodeDict, DictStore, Dispatch, EncodeOptions, FunctionId, TimeStamp,
};

fn f(i: u32) -> FunctionId {
    FunctionId::new(i)
}
fn s(i: u32) -> CallSiteId {
    CallSiteId::new(i)
}

#[test]
fn clean_runs_exit_zero() {
    assert_eq!(lint::exit_code(0, 0), 0);
}

#[test]
fn errors_exit_nonzero() {
    assert_ne!(lint::exit_code(1, 0), 0);
    assert_ne!(lint::exit_code(3, 2), 0);
}

/// The regression: warning-only findings (e.g. `hottest-zero`) used to
/// exit 0, so CI never saw them. Every finding must fail the run.
#[test]
fn warning_only_findings_exit_nonzero() {
    assert_ne!(lint::exit_code(0, 1), 0);
}

#[test]
fn rule_ids_are_unique_and_nonempty() {
    let mut seen = std::collections::HashSet::new();
    assert!(!lint::RULES.is_empty());
    for r in lint::RULES {
        assert!(!r.id.is_empty());
        assert!(!r.summary.is_empty());
        assert!(!r.enabled_by.is_empty());
        assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
    }
}

/// Every always-on rule the dictionary verifier can emit appears in the
/// catalogue with the severity the verifier actually stamps on it. Built
/// by constructing an encoding that trips both an error rule
/// (`encoding-partition`) and the warning rule (`hottest-zero`).
#[test]
fn catalogue_covers_every_emitted_rule() {
    // Single edge into f1 encoded 1 instead of 0: partition error plus
    // hottest-zero warning (same shape as the verifier's own unit test).
    let mut g = CallGraph::new();
    g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
    classify_back_edges(&mut g, &[f(0)]);
    let mut enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
    let eid = g.edge_id(s(0), f(1)).unwrap();
    enc.set_encoding(eid, 1);
    enc.set_num_cc(g.local(f(1)).unwrap(), 2);
    enc.max_id = 1;
    let mut store = DictStore::new();
    store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
    let owners = HashMap::from([(s(0), f(0))]);
    let diags = verify_dicts(&store, &owners);
    assert!(!diags.is_empty());

    for d in &diags {
        let entry = lint::RULES
            .iter()
            .find(|r| r.id == d.rule)
            .unwrap_or_else(|| panic!("emitted rule {} missing from catalogue", d.rule));
        assert_eq!(
            entry.severity, d.severity,
            "catalogue severity for {} disagrees with the verifier",
            d.rule
        );
        assert_eq!(entry.enabled_by, "always");
    }
    // Both severities were exercised, so the exit-code policy matters here.
    assert!(diags.iter().any(|d| d.severity == Severity::Warning));
    assert!(diags.iter().any(|d| d.severity == Severity::Error));
    let errors = diags.iter().filter(|d| d.is_error()).count();
    let warnings = diags.len() - errors;
    assert_ne!(lint::exit_code(errors, warnings), 0);
    // And a hypothetical warnings-only subset of the same findings still
    // fails the run.
    assert_ne!(lint::exit_code(0, warnings), 0);
}

/// Every rule the `--fragments` journal verifier emits appears in the
/// catalogue with the severity and enabling flag it is stamped with.
#[test]
fn fragment_rules_are_catalogued() {
    use dacce::{DecodeJournal, EncodedContext, JournalThread, SeamSeed};
    use dacce_analyze::verifier::verify_fragments;

    // A malformed document (fragment-journal) plus a journal whose only
    // seam seed cannot match any replayed state (fragment-seam).
    let entry = EncodedContext {
        ts: TimeStamp::ZERO,
        id: 0,
        leaf: f(0),
        root: f(0),
        cc: Vec::new(),
        spawn: None,
    };
    let bad_seed = EncodedContext {
        id: 99,
        ..entry.clone()
    };
    let journal = DecodeJournal {
        threads: vec![JournalThread {
            tid: 0,
            entry,
            ops: vec![dacce::JournalOp::Sample],
            seams: vec![SeamSeed {
                at: 1,
                ctx: bad_seed,
            }],
        }],
    };
    let mut diags = verify_fragments("not a journal");
    diags.extend(verify_fragments(&journal.to_text()));
    let emitted: std::collections::HashSet<&str> = diags.iter().map(|d| d.rule).collect();
    assert!(emitted.contains("fragment-journal"));
    assert!(emitted.contains("fragment-seam"));

    for d in &diags {
        let entry = lint::RULES
            .iter()
            .find(|r| r.id == d.rule)
            .unwrap_or_else(|| panic!("emitted rule {} missing from catalogue", d.rule));
        assert_eq!(entry.severity, d.severity);
        assert_eq!(entry.enabled_by, "--fragments");
    }
    assert_ne!(lint::exit_code(diags.len(), 0), 0);
}
