//! Property tests for the dispatch table: for arbitrary call histories
//! every site must run what the call graph and the latest dictionary say,
//! across re-encoding generation bumps. Two independent checks hold the
//! table to the dictionary: the engine's own (`check_invariants` resolves
//! every graph edge against the dictionary, the tail-calling functions and
//! an unknown-callee probe) and the offline `dacce-lint --dispatch` rule
//! over an export of the same state. These tests drive the state into as
//! many shapes as possible — slot-starved sites included — and check it
//! mid-run, so a transiently wrong patch cannot hide behind a
//! final-state-only check.
//!
//! `PROPTEST_CASES` sets the number of cases per property.

use proptest::prelude::*;

use dacce::{
    export_state, export_tracker_state, import, CompressionMode, DacceConfig, DacceRuntime,
    FaultPlan, Tracker,
};
use dacce_analyze::verifier::verify_dispatch;
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::model::TargetChoice;
use dacce_program::{CostModel, InterpConfig, Interpreter, Program, ProgramBuilder};

/// One static call site with its fixed shape: a direct site always
/// invokes the same callee, an indirect one takes whatever the walk
/// picks. A site belongs to exactly one owner function.
#[derive(Clone, Copy, Debug)]
struct SiteSpec {
    site: CallSiteId,
    indirect: bool,
    direct_callee: usize,
}

/// A random walk step: which owned site to fire, which callee an
/// indirect site should take, or a return instead.
#[derive(Clone, Copy, Debug)]
struct Step {
    site_pick: u8,
    callee_pick: u8,
    ret: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..=255, 0u8..=255, prop::bool::weighted(0.4)).prop_map(|(site_pick, callee_pick, ret)| {
        Step {
            site_pick,
            callee_pick,
            ret,
        }
    })
}

/// Shape of the static program: per function, how many sites it owns and
/// which are indirect.
fn shape_strategy() -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(
        prop::collection::vec((prop::bool::weighted(0.35), 0u8..=255), 1..4),
        3..8,
    )
}

/// No cap, or an injected dispatch-slot cap small enough that later sites
/// starve (no slot, a trap on every call).
fn slot_cap_strategy() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (0u32..6).prop_map(Some)]
}

/// Eager triggers: every trap may fire a re-encoding, so the walk keeps
/// crossing generations and the dispatch table keeps being rewritten.
fn eager_tracker(slot_cap: Option<u32>) -> Tracker {
    Tracker::with_config(DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        reencode_backoff: 1.0,
        fault: FaultPlan {
            dispatch_slot_cap: slot_cap,
            ..FaultPlan::default()
        },
        ..DacceConfig::default()
    })
}

/// Cases per property: `PROPTEST_CASES` when set, else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The offline dispatch rule's findings on an export of `text`.
fn lint_findings(text: &str) -> Vec<String> {
    let decoder = import(text).expect("export imports");
    verify_dispatch(&decoder)
        .into_iter()
        .map(|d| d.message)
        .collect()
}

const MAX_DEPTH: usize = 24;
const CHECK_EVERY: usize = 16;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(48),
        ..ProptestConfig::default()
    })]

    /// Every site runs what the graph and the latest dictionary say,
    /// re-checked throughout a random call walk that forces at least one
    /// generation bump.
    #[test]
    fn dispatch_table_matches_dictionary_across_generations(
        shape in shape_strategy(),
        steps in prop::collection::vec(step_strategy(), 30..150),
        slot_cap in slot_cap_strategy(),
    ) {
        let tracker = eager_tracker(slot_cap);
        let fns: Vec<FunctionId> = (0..shape.len())
            .map(|i| tracker.define_function(&format!("f{i}")))
            .collect();
        // Each function owns its own sites (a call site is one static
        // location in one function).
        let sites: Vec<Vec<SiteSpec>> = shape
            .iter()
            .map(|specs| {
                specs
                    .iter()
                    .map(|&(indirect, callee)| SiteSpec {
                        site: tracker.define_call_site(),
                        indirect,
                        direct_callee: callee as usize % shape.len(),
                    })
                    .collect()
            })
            .collect();

        let th = tracker.register_thread(fns[0]);
        // Deterministic preamble: two distinct edges through f0's first
        // site-owner pair guarantee at least one re-encode under the
        // eager triggers before the random walk starts.
        {
            let warm = &sites[0][0];
            let callees = [fns[1 % fns.len()], fns[2 % fns.len()]];
            for &c in &callees {
                drop(th.call_indirect(warm.site, c));
            }
        }
        prop_assert!(tracker.stats().reencodes >= 1, "preamble must bump the generation");

        // Random walk. `stack` holds the guards; `current` mirrors the
        // function whose sites may fire next.
        let mut stack = Vec::new();
        let mut current = 0usize;
        for (i, step) in steps.iter().enumerate() {
            if (step.ret && !stack.is_empty()) || stack.len() >= MAX_DEPTH {
                let (guard, caller) = stack.pop().unwrap();
                drop(guard);
                current = caller;
            } else {
                let owned = &sites[current];
                let spec = owned[step.site_pick as usize % owned.len()];
                let callee = if spec.indirect {
                    step.callee_pick as usize % fns.len()
                } else {
                    spec.direct_callee
                };
                let guard = if spec.indirect {
                    th.call_indirect(spec.site, fns[callee])
                } else {
                    th.call(spec.site, fns[callee])
                };
                stack.push((guard, current));
                current = callee;
            }
            if i % CHECK_EVERY == 0 {
                prop_assert!(
                    tracker.check_invariants().is_ok(),
                    "mid-walk dispatch disagreement: {:?}",
                    tracker.check_invariants()
                );
                let findings = lint_findings(&export_tracker_state(&tracker));
                prop_assert!(findings.is_empty(), "mid-walk lint findings: {:?}", findings);
            }
        }
        while let Some((g, caller)) = stack.pop() {
            drop(g);
            current = caller;
        }
        prop_assert_eq!(current, 0);

        prop_assert!(
            tracker.check_invariants().is_ok(),
            "final dispatch disagreement: {:?}",
            tracker.check_invariants()
        );
        let findings = lint_findings(&export_tracker_state(&tracker));
        prop_assert!(findings.is_empty(), "final lint findings: {:?}", findings);
        let stats = tracker.stats();
        prop_assert!(stats.reencodes >= 1);
        prop_assert_eq!(stats.decode_errors, 0);
    }
}

/// A randomly shaped call op (same generator family as
/// `proptest_roundtrip`).
#[derive(Clone, Debug)]
struct OpSpec {
    callee: usize,
    prob: f32,
    repeat: u16,
    indirect: bool,
    tail: bool,
}

fn op_strategy(functions: usize) -> impl Strategy<Value = OpSpec> {
    (
        0..functions,
        0.05f32..=1.0,
        1u16..3,
        prop::bool::weighted(0.3),
        prop::bool::weighted(0.15),
    )
        .prop_map(|(callee, prob, repeat, indirect, tail)| OpSpec {
            callee,
            prob,
            repeat,
            indirect,
            tail,
        })
}

fn build(functions: usize, bodies: &[Vec<OpSpec>]) -> Program {
    let mut b = ProgramBuilder::new();
    let fns: Vec<_> = (0..functions)
        .map(|i| b.function(&format!("f{i}")))
        .collect();
    let table = b.table(fns.clone());
    for (i, ops) in bodies.iter().enumerate() {
        let mut body = b.body(fns[i]).work(3);
        for op in ops.iter().filter(|o| !o.tail) {
            if op.indirect {
                body = body.indirect(table, TargetChoice::Uniform, [op.prob, op.prob], op.repeat);
            } else {
                body = body.call_rep(fns[op.callee], [op.prob, op.prob], op.repeat);
            }
        }
        // A tail call comes last and makes its callers' sites wrap their
        // frames (§5.2); main never tail-calls (see `proptest_roundtrip`).
        if let Some(op) = ops.iter().find(|o| o.tail && i != 0) {
            body = if op.indirect {
                body.tail_indirect(table, TargetChoice::Uniform, [op.prob, op.prob])
            } else {
                body.tail(fns[op.callee], [op.prob, op.prob])
            };
        }
        body.done();
    }
    b.build(fns[0])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: cases(24),
        ..ProptestConfig::default()
    })]

    /// The same agreement holds for interpreter-driven programs with tail
    /// calls across every compression mode — compression changes the
    /// actions the compiled records must carry, not just their deltas.
    #[test]
    fn dispatch_table_matches_dictionary_for_programs(
        spec in (3usize..9).prop_flat_map(|functions| {
            prop::collection::vec(
                prop::collection::vec(op_strategy(functions), 0..4),
                functions,
            )
            .prop_map(move |bodies| (functions, bodies))
        }),
        seed in 0u64..1_000,
        mode in prop_oneof![
            Just(CompressionMode::Never),
            Just(CompressionMode::Adaptive),
            Just(CompressionMode::Always)
        ],
    ) {
        let (functions, bodies) = spec;
        let program = build(functions, &bodies);
        let cfg = DacceConfig {
            edge_threshold: 1,
            min_events_between_reencodes: 16,
            reencode_backoff: 1.1,
            compression: mode,
            compression_min_heat: 4,
            ..DacceConfig::default()
        };
        let mut rt = DacceRuntime::new(cfg, CostModel::default());
        let icfg = InterpConfig {
            seed,
            budget_calls: 1_500,
            sample_every: 37,
            max_depth: 32,
            ..InterpConfig::default()
        };
        let report = Interpreter::new(&program, icfg).run(&mut rt);
        prop_assert_eq!(report.mismatches, 0, "mismatches: {:?}", report.mismatch_examples);
        prop_assert!(
            rt.engine().check_invariants().is_ok(),
            "dispatch disagreement: {:?}",
            rt.engine().check_invariants()
        );
        let findings = lint_findings(&export_state(rt.engine()));
        prop_assert!(findings.is_empty(), "lint findings: {:?}", findings);
        prop_assert_eq!(rt.stats().decode_errors, 0);
    }
}
