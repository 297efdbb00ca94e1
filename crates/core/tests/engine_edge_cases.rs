//! Edge-case integration tests of the engine driven directly by events.

use dacce::{CompressionMode, DacceConfig, DacceEngine, FaultPlan};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_obs::EventKind;
use dacce_program::runtime::CallDispatch;
use dacce_program::{CostModel, ThreadId};

fn f(i: u32) -> FunctionId {
    FunctionId::new(i)
}
fn s(i: u32) -> CallSiteId {
    CallSiteId::new(i)
}

fn engine(cfg: DacceConfig) -> DacceEngine {
    let mut e = DacceEngine::new(cfg, CostModel::default());
    e.attach_main(f(0));
    e.thread_start(ThreadId::MAIN, f(0), None);
    e
}

fn eager() -> DacceConfig {
    DacceConfig {
        edge_threshold: 2,
        min_events_between_reencodes: 1,
        ..DacceConfig::default()
    }
}

/// PLT calls behave like direct calls once bound: one trap, then encoded.
#[test]
fn plt_calls_bind_then_encode() {
    let mut e = engine(eager());
    for round in 0..4 {
        let c = e.call(ThreadId::MAIN, s(0), f(0), f(1), CallDispatch::Plt, false);
        if round == 0 {
            assert!(c >= CostModel::default().handler_trap);
        } else {
            assert!(c < CostModel::default().handler_trap);
        }
        let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        // Trigger a re-encode via a second edge on the first round.
        if round == 0 {
            let _ = e.call(
                ThreadId::MAIN,
                s(1),
                f(0),
                f(2),
                CallDispatch::Direct,
                false,
            );
            let _ = e.ret(ThreadId::MAIN, s(1), f(0), f(2));
        }
    }
    assert_eq!(e.stats().traps, 2);
    e.check_invariants().unwrap();
}

/// A sub-path head that also has encoded incoming edges: the decoder must
/// match the ccStack boundary before extending through the zero-encoded
/// edge (the head-match-first rule of Algorithm 1).
#[test]
fn head_match_takes_priority_over_zero_edges() {
    let mut e = engine(eager());
    // Build: main -> a (encoded after re-encode), a -> b, and an
    // *indirect* main -> b edge that stays unencoded initially.
    let _ = e.call(
        ThreadId::MAIN,
        s(0),
        f(0),
        f(1),
        CallDispatch::Direct,
        false,
    );
    let _ = e.call(
        ThreadId::MAIN,
        s(1),
        f(1),
        f(2),
        CallDispatch::Direct,
        false,
    );
    let _ = e.ret(ThreadId::MAIN, s(1), f(1), f(2));
    let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
    // Now an indirect call straight to b: new edge, unencoded boundary.
    let _ = e.call(
        ThreadId::MAIN,
        s(2),
        f(0),
        f(2),
        CallDispatch::Indirect,
        false,
    );
    let (snap, _) = e.sample(ThreadId::MAIN);
    let path = e.decode(&snap).unwrap();
    let funcs: Vec<u32> = path.0.iter().map(|p| p.func.raw()).collect();
    assert_eq!(
        funcs,
        vec![0, 2],
        "boundary pop must win over a->b's zero edge"
    );
    let _ = e.ret(ThreadId::MAIN, s(2), f(0), f(2));
    e.check_invariants().unwrap();
}

/// Indirect tail calls: target discovery plus tail semantics combined.
#[test]
fn indirect_tail_calls_decode() {
    let mut e = engine(eager());
    let _ = e.call(
        ThreadId::MAIN,
        s(0),
        f(0),
        f(1),
        CallDispatch::Direct,
        false,
    );
    // f1 performs an indirect *tail* call to f2 or f3 (no return events
    // for these, and f1's frame is replaced).
    let _ = e.call(
        ThreadId::MAIN,
        s(1),
        f(1),
        f(2),
        CallDispatch::Indirect,
        true,
    );
    let (snap, _) = e.sample(ThreadId::MAIN);
    let path = e.decode(&snap).unwrap();
    let funcs: Vec<u32> = path.0.iter().map(|p| p.func.raw()).collect();
    assert_eq!(funcs, vec![0, 1, 2]);
    // Control returns to main's frame: the after-code of site 0 runs.
    let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
    let (snap, _) = e.sample(ThreadId::MAIN);
    assert_eq!(snap.id, 0);
    assert_eq!(snap.cc_depth(), 0);
    e.check_invariants().unwrap();
}

/// Compression mode Always on alternating mutual recursion never falsely
/// compresses (different sites alternate at the top).
#[test]
fn mutual_recursion_is_not_falsely_compressed() {
    let cfg = DacceConfig {
        compression: CompressionMode::Always,
        ..eager()
    };
    let mut e = engine(cfg);
    let _ = e.call(
        ThreadId::MAIN,
        s(0),
        f(0),
        f(1),
        CallDispatch::Direct,
        false,
    );
    // Alternate f1 -> f2 -> f1 -> f2 ... then unwind; every decode along
    // the way must see the exact alternation.
    let mut depth_funcs = vec![0u32, 1];
    for k in 0..6u32 {
        let (site, from, to) = if k % 2 == 0 {
            (s(1), f(1), f(2))
        } else {
            (s(2), f(2), f(1))
        };
        let _ = e.call(ThreadId::MAIN, site, from, to, CallDispatch::Direct, false);
        depth_funcs.push(to.raw());
        let (snap, _) = e.sample(ThreadId::MAIN);
        let path = e.decode(&snap).unwrap();
        let funcs: Vec<u32> = path.0.iter().map(|p| p.func.raw()).collect();
        assert_eq!(funcs, depth_funcs, "at nesting {k}");
    }
    for k in (0..6u32).rev() {
        let (site, from, to) = if k % 2 == 0 {
            (s(1), f(1), f(2))
        } else {
            (s(2), f(2), f(1))
        };
        let _ = e.ret(ThreadId::MAIN, site, from, to);
        depth_funcs.pop();
        let (snap, _) = e.sample(ThreadId::MAIN);
        let path = e.decode(&snap).unwrap();
        assert_eq!(path.depth(), depth_funcs.len());
    }
    e.check_invariants().unwrap();
}

/// Re-encoding while several threads are mid-flight regenerates every
/// thread consistently.
#[test]
fn reencode_regenerates_all_threads() {
    let mut e = engine(DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 1,
        ..DacceConfig::default()
    });
    e.thread_start(ThreadId::new(1), f(10), Some((ThreadId::MAIN, s(9))));
    e.thread_start(ThreadId::new(2), f(10), Some((ThreadId::MAIN, s(9))));
    // Wind each thread into a different position.
    let _ = e.call(
        ThreadId::MAIN,
        s(0),
        f(0),
        f(1),
        CallDispatch::Direct,
        false,
    );
    let _ = e.call(
        ThreadId::new(1),
        s(3),
        f(10),
        f(11),
        CallDispatch::Direct,
        false,
    );
    let _ = e.call(
        ThreadId::new(2),
        s(3),
        f(10),
        f(11),
        CallDispatch::Direct,
        false,
    );
    let _ = e.call(
        ThreadId::new(2),
        s(4),
        f(11),
        f(12),
        CallDispatch::Direct,
        false,
    );
    // This call crosses the edge threshold and re-encodes with all three
    // threads live.
    let _ = e.call(
        ThreadId::MAIN,
        s(1),
        f(1),
        f(2),
        CallDispatch::Direct,
        false,
    );
    assert!(e.stats().reencodes >= 1);
    e.check_invariants().unwrap();
    for (tid, want) in [
        (ThreadId::MAIN, vec![0u32, 1, 2]),
        (ThreadId::new(1), vec![0, 10, 11]),
        (ThreadId::new(2), vec![0, 10, 11, 12]),
    ] {
        let (snap, _) = e.sample(tid);
        let path = e.decode(&snap).unwrap();
        let funcs: Vec<u32> = path.0.iter().map(|p| p.func.raw()).collect();
        assert_eq!(funcs, want, "{tid}");
    }
}

/// Exercising the ccStack-rate trigger: hot unencoded recursion forces a
/// re-encode even when no new edges appear.
#[test]
fn ccstack_rate_triggers_reencode() {
    let cfg = DacceConfig {
        edge_threshold: usize::MAX,
        min_events_between_reencodes: 16,
        ccstack_rate_window: 64,
        ccstack_rate_threshold: 0.05,
        compression_min_heat: 1,
        ..DacceConfig::default()
    };
    let mut e = engine(cfg);
    let _ = e.call(
        ThreadId::MAIN,
        s(0),
        f(0),
        f(1),
        CallDispatch::Direct,
        false,
    );
    for _ in 0..400 {
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let _ = e.ret(ThreadId::MAIN, s(1), f(1), f(1));
    }
    assert!(
        e.stats().reencodes >= 1,
        "rate trigger must fire: {:?}",
        e.stats().reencodes
    );
    let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
    e.check_invariants().unwrap();
}

/// A slot-starved indirect site traps on every call. Re-patching a target
/// the site already holds updates it in place: the compare chain never
/// grows, so the site neither converts to hashing nor reports phantom
/// targets.
#[test]
fn starved_indirect_site_keeps_one_target() {
    let mut e = engine(DacceConfig {
        fault: FaultPlan {
            dispatch_slot_cap: Some(0),
            ..FaultPlan::default()
        },
        ..DacceConfig::no_reencoding()
    });
    let journal = e.observability().journal().clone();
    journal.set_enabled(true);
    for _ in 0..20 {
        e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Indirect,
            false,
        );
        e.ret(ThreadId::MAIN, s(0), f(0), f(1));
    }
    let stats = e.stats();
    assert_eq!(stats.traps, 20, "a starved site traps on every call");
    assert_eq!(stats.hash_conversions, 0);
    let targets: Vec<u32> = journal
        .drain()
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::SitePatched { targets, .. } => Some(targets),
            _ => None,
        })
        .collect();
    assert_eq!(targets, vec![1; 20]);
}
