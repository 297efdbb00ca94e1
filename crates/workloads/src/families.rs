//! Production-shaped workload families.
//!
//! The SPEC/PARSEC analog suite reproduces the paper's Table 1 shapes;
//! these three families cover the server-side shapes fleet replay sees
//! that the suite lacks:
//!
//! * `server-rr` — request/response server traces: a shallow accept loop
//!   repeating many requests, each fanning out through a deep routing
//!   prologue into one of many endpoint subtrees with hot shared leaves
//!   and an occasional deep backend excursion.
//! * `thread-churn` — a thousand short-lived threads (scaled), each
//!   running a small call tree with a burst of direct recursion before
//!   exiting; stresses spawn-context chaining and per-thread encoding
//!   state churn.
//! * `dyndispatch` — dynamic-dispatch-heavy traces whose indirect target
//!   sets grow without bound over the trace (the PyCG/NoCFG-style
//!   approximate-call-graph shape): a few megamorphic sites keep
//!   discovering new callees until the end of the run.
//!
//! Families generate [`WorkloadTrace`]s directly (no interpreter pass)
//! and replay through the same loop as suite traces, so they run under
//! every chaos preset via [`crate::chaos::replay_sampled`] /
//! [`crate::chaos::run_chaos_plan`] and record into decode journals via
//! [`crate::journal::record_journal`], with every sampled context checked
//! against the replay's shadow stack. Everything is a pure function of
//! `(name, seed, scale)`.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::ThreadId;

use crate::batch::{ThreadStart, TraceOp, WorkloadTrace};

/// The family names, in canonical order.
#[must_use]
pub fn family_names() -> &'static [&'static str] {
    &["server-rr", "thread-churn", "dyndispatch"]
}

/// Generates the named family trace. `None` for unknown names.
#[must_use]
pub fn family_trace(name: &str, seed: u64, scale: f64) -> Option<WorkloadTrace> {
    match name {
        "server-rr" => Some(server_trace(seed, scale)),
        "thread-churn" => Some(thread_churn_trace(seed, scale)),
        "dyndispatch" => Some(dyndispatch_trace(seed, scale)),
        _ => None,
    }
}

/// All three family traces, named.
#[must_use]
pub fn family_traces(seed: u64, scale: f64) -> Vec<(&'static str, WorkloadTrace)> {
    family_names()
        .iter()
        .map(|&n| (n, family_trace(n, seed, scale).expect("known family")))
        .collect()
}

fn scaled(base: f64, scale: f64, min: usize) -> usize {
    ((base * scale) as usize).max(min)
}

/// Sentinel target key for indirect (megamorphic) sites: an indirect
/// site keeps its identity across targets, a direct site is pinned to
/// one static callee.
const MEGA: u32 = u32::MAX;

/// Allocates [`CallSiteId`]s honouring the runtime's static-site rules:
/// every site belongs to exactly one caller function, and a direct site
/// has exactly one target. Slots are the "source locations" inside a
/// caller; the allocator interns `(caller, slot, target-or-MEGA)`.
#[derive(Default)]
struct SiteAlloc {
    next: u32,
    map: HashMap<(u32, u32, u32), u32>,
}

impl SiteAlloc {
    fn site(&mut self, caller: u32, slot: u32, key: u32) -> u32 {
        let next = &mut self.next;
        *self.map.entry((caller, slot, key)).or_insert_with(|| {
            let s = *next;
            *next += 1;
            s
        })
    }
}

struct Ops<'a> {
    recorded: Vec<TraceOp>,
    stack: Vec<u32>,
    alloc: &'a mut SiteAlloc,
}

impl<'a> Ops<'a> {
    fn new(alloc: &'a mut SiteAlloc, root: u32) -> Self {
        Ops {
            recorded: Vec::new(),
            stack: vec![root],
            alloc,
        }
    }

    fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    fn call(&mut self, slot: u32, target: u32) {
        let caller = *self.stack.last().expect("root stays on the stack");
        let site = self.alloc.site(caller, slot, target);
        self.recorded.push(TraceOp::Call {
            site: CallSiteId::new(site),
            target: FunctionId::new(target),
            indirect: false,
        });
        self.stack.push(target);
    }

    fn icall(&mut self, slot: u32, target: u32) {
        let caller = *self.stack.last().expect("root stays on the stack");
        let site = self.alloc.site(caller, slot, MEGA);
        self.recorded.push(TraceOp::Call {
            site: CallSiteId::new(site),
            target: FunctionId::new(target),
            indirect: true,
        });
        self.stack.push(target);
    }

    fn ret(&mut self) {
        assert!(self.depth() > 0, "unbalanced family trace");
        self.recorded.push(TraceOp::Ret);
        self.stack.pop();
    }

    fn ret_to(&mut self, depth: usize) {
        while self.depth() > depth {
            self.ret();
        }
    }

    fn finish(mut self) -> Vec<TraceOp> {
        self.ret_to(0);
        self.recorded
    }
}

/// Request/response server: shallow repeat at the accept loop, deep
/// fan-out per request.
#[must_use]
pub fn server_trace(seed: u64, scale: f64) -> WorkloadTrace {
    const WORKERS: u32 = 4;
    let requests = scaled(400.0, scale, 6);
    let mut alloc = SiteAlloc::default();
    let mut trace = WorkloadTrace::default();
    trace.threads.push(ThreadStart {
        tid: ThreadId::MAIN,
        root: FunctionId::new(0),
        parent: None,
    });

    // The accept loop: one shallow dispatch pair per request handed out.
    let mut main = Ops::new(&mut alloc, 0);
    for _ in 0..requests {
        main.call(0, 1); // accept
        main.call(1, 2); // enqueue
        main.ret_to(0);
    }
    trace.traces.insert(ThreadId::MAIN, main.finish());

    for w in 0..WORKERS {
        let tid = ThreadId::new(w + 1);
        let spawn_site = alloc.site(0, 900 + w, MEGA);
        trace.threads.push(ThreadStart {
            tid,
            root: FunctionId::new(3),
            parent: Some((ThreadId::MAIN, CallSiteId::new(spawn_site))),
        });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e7e_5e7e ^ u64::from(w));
        let mut ops = Ops::new(&mut alloc, 3);
        for r in 0..requests {
            // Deep routing prologue: the same 12-frame chain every time
            // (hot, encodes tightly after adaptation).
            for d in 0..12u32 {
                ops.call(10 + d, 10 + d);
            }
            // Endpoint fan-out, skewed to a hot head.
            let x: f64 = rng.gen();
            let e = (x * x * 24.0) as u32;
            ops.call(40 + e, 40 + e);
            for k in 0..6u32 {
                // Shared leaf helpers: many callers, few callees.
                ops.call(70 + ((e + k) % 10), 64 + (k % 8));
                ops.ret();
            }
            // Occasional deep backend excursion with direct recursion.
            if r % 16 == 5 {
                for d in 0..20u32 {
                    ops.call(84 + (d % 4), 85 + (d % 5));
                }
            }
            ops.ret_to(0);
        }
        trace.traces.insert(tid, ops.finish());
    }
    trace
}

/// Thread churn: many short-lived threads, each a small tree plus a
/// recursion burst.
#[must_use]
pub fn thread_churn_trace(seed: u64, scale: f64) -> WorkloadTrace {
    let children = scaled(1000.0, scale, 8);
    let mut alloc = SiteAlloc::default();
    let mut trace = WorkloadTrace::default();
    trace.threads.push(ThreadStart {
        tid: ThreadId::MAIN,
        root: FunctionId::new(0),
        parent: None,
    });

    // The spawner: a dispatch pair per child so the main context moves.
    let mut main = Ops::new(&mut alloc, 0);
    for c in 0..children {
        main.call(0, 1);
        main.call(1 + (c % 3) as u32, 2 + (c % 3) as u32);
        main.ret_to(0);
    }
    trace.traces.insert(ThreadId::MAIN, main.finish());

    for c in 0..children {
        let tid = ThreadId::new(c as u32 + 1);
        let root = 30 + (c % 5) as u32;
        let spawn_site = alloc.site(0, 920 + (c % 8) as u32, MEGA);
        trace.threads.push(ThreadStart {
            tid,
            root: FunctionId::new(root),
            parent: Some((ThreadId::MAIN, CallSiteId::new(spawn_site))),
        });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc41c_41c4 ^ c as u64);
        let mut ops = Ops::new(&mut alloc, root);
        // A small per-thread tree, shape drawn per thread.
        let width = rng.gen_range(2..5u32);
        for b in 0..width {
            ops.call(40 + b, 40 + rng.gen_range(0..6u32));
            for d in 0..rng.gen_range(1..4u32) {
                ops.call(50 + d, 46 + d);
            }
            ops.ret_to(0);
        }
        // Recursion burst: repeated self edge, drives ccStack compression.
        let reps = rng.gen_range(3..9u32);
        for _ in 0..reps {
            ops.call(60, 60);
        }
        ops.ret_to(0);
        trace.traces.insert(tid, ops.finish());
    }
    trace
}

/// Dynamic-dispatch-heavy: a few indirect sites whose target sets grow
/// without bound over the trace.
#[must_use]
pub fn dyndispatch_trace(seed: u64, scale: f64) -> WorkloadTrace {
    const THREADS: u32 = 2;
    let iters = scaled(1200.0, scale, 16);
    let mut alloc = SiteAlloc::default();
    let mut trace = WorkloadTrace::default();
    trace.threads.push(ThreadStart {
        tid: ThreadId::MAIN,
        root: FunctionId::new(0),
        parent: None,
    });
    let mut main = Ops::new(&mut alloc, 0);
    for _ in 0..iters / 4 {
        main.call(0, 1);
        main.ret();
    }
    trace.traces.insert(ThreadId::MAIN, main.finish());

    for t in 0..THREADS {
        let tid = ThreadId::new(t + 1);
        let spawn_site = alloc.site(0, 940 + t, MEGA);
        trace.threads.push(ThreadStart {
            tid,
            root: FunctionId::new(2),
            parent: Some((ThreadId::MAIN, CallSiteId::new(spawn_site))),
        });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xd15b_a7c4 ^ u64::from(t));
        let mut ops = Ops::new(&mut alloc, 2);
        for i in 0..iters {
            ops.call(30, 3); // dispatcher glue
                             // The target pool grows with the trace: unbounded set, hot
                             // head, ever-fresh tail.
            let pool = 4 + (i / 8) as u32;
            let pick = |rng: &mut SmallRng| -> u32 {
                if rng.gen_bool(0.7) {
                    rng.gen_range(0..4.min(pool))
                } else {
                    rng.gen_range(0..pool)
                }
            };
            let target = 100 + pick(&mut rng);
            ops.icall(31 + (i % 4) as u32, target);
            // Second-level dispatch from inside the callee.
            let inner = 100 + pick(&mut rng);
            ops.icall(35 + (i % 2) as u32, inner);
            ops.ret_to(0);
        }
        trace.traces.insert(tid, ops.finish());
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{replay_sampled, run_chaos_plan};
    use dacce::{DacceConfig, FaultPlan};

    #[test]
    fn families_are_balanced_and_deterministic() {
        for (name, trace) in family_traces(7, 0.02) {
            for (tid, ops) in &trace.traces {
                let mut depth = 0i64;
                for op in ops {
                    match op {
                        TraceOp::Call { .. } => depth += 1,
                        TraceOp::Ret => depth -= 1,
                    }
                    assert!(depth >= 0, "{name} {tid}: underflow");
                }
                assert_eq!(depth, 0, "{name} {tid}: unbalanced");
            }
            let again = family_trace(name, 7, 0.02).unwrap();
            for start in &trace.threads {
                assert_eq!(
                    format!("{:?}", again.traces[&start.tid]),
                    format!("{:?}", trace.traces[&start.tid]),
                    "{name} {}: regeneration must be deterministic",
                    start.tid
                );
            }
            assert!(trace.calls() > 0);
        }
        assert!(family_trace("no-such-family", 1, 1.0).is_none());
    }

    #[test]
    fn thread_churn_scales_to_a_thousand_threads() {
        let trace = thread_churn_trace(3, 1.0);
        assert_eq!(trace.threads.len(), 1001);
        let small = thread_churn_trace(3, 0.01);
        assert!(small.threads.len() >= 9);
    }

    #[test]
    fn dyndispatch_target_set_is_unbounded() {
        let trace = dyndispatch_trace(5, 0.5);
        let mut targets = std::collections::HashSet::new();
        for ops in trace.traces.values() {
            for op in ops {
                if let TraceOp::Call {
                    indirect: true,
                    target,
                    ..
                } = op
                {
                    targets.insert(*target);
                }
            }
        }
        assert!(
            targets.len() > 40,
            "target set must keep growing, got {}",
            targets.len()
        );
    }

    #[test]
    fn families_replay_cleanly() {
        for (name, trace) in family_traces(11, 0.02) {
            let replay = replay_sampled(&trace, DacceConfig::default());
            assert_eq!(replay.decode_failures, 0, "{name}");
            assert_eq!(replay.invariant_error, None, "{name}");
        }
    }

    #[test]
    fn families_survive_a_chaos_preset() {
        let base = DacceConfig {
            edge_threshold: 4,
            min_events_between_reencodes: 32,
            ..DacceConfig::default()
        };
        let trace = server_trace(17, 0.02);
        let out = run_chaos_plan(
            &trace,
            &base,
            "maxid-exhaustion",
            FaultPlan::preset("maxid-exhaustion").unwrap(),
        );
        assert!(out.sound(), "server-rr diverged under faults: {out:?}");
    }
}
