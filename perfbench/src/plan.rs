//! Load generation: turn a workload's recorded trace into replay plans.
//!
//! Everything here runs before any timing. A plan holds the trace mapped
//! to tracker ids, cut into balanced `run_batch` windows of at most
//! [`WINDOW`] ops with the deep spine left to guards, and the calling
//! context the trace's shadow stack expects at every query point. The
//! timed phases then contain nothing but library calls and clock reads.

use std::collections::HashMap;

use dacce::tracker::BatchOp;
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::{CallDispatch, CallEvent, ContextRuntime, ReturnEvent, SampleResult};
use dacce_program::{ContextPath, Interpreter, OracleStack, PathStep, Program, ThreadId};
use dacce_workloads::batch::{ThreadStart, TraceOp, WorkloadTrace};
use dacce_workloads::journal::JOURNAL_SAMPLE_EVERY;
use dacce_workloads::DriverConfig;
use dacce_workloads::{all_benchmarks, family_trace, generate_program, interp_config};

/// Largest number of ops handed to one `run_batch` call.
pub const WINDOW: usize = 64;

/// A query (`sample()` + `Tracker::decode()`) is due every this many
/// events of a thread, at the next step boundary. Prime, so the cadence
/// drifts across window boundaries.
pub const QUERY_EVERY: u64 = 1009;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// server-rr family at scale 4: one long-lived tracker, superops on.
    ServerSteady,
    /// The 400.perlbench analog on a fresh tracker per episode.
    PerlbenchAdaptive,
    /// thread-churn family at scale 1: 1,000 spawned threads per episode.
    ThreadChurn,
}

impl Workload {
    /// Every workload, in canonical order.
    pub const ALL: [Workload; 3] = [
        Workload::ServerSteady,
        Workload::PerlbenchAdaptive,
        Workload::ThreadChurn,
    ];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServerSteady => "server-steady",
            Workload::PerlbenchAdaptive => "perlbench-adaptive",
            Workload::ThreadChurn => "thread-churn",
        }
    }

    /// Generates the workload's trace. `size` scales the input: 1.0 is
    /// the benchmark's input, smaller values give the reduced inputs the
    /// benchmark's own tests use.
    pub fn trace(self, seed: u64, size: f64) -> WorkloadTrace {
        match self {
            Workload::ServerSteady => family_trace("server-rr", seed, 4.0 * size).expect("family"),
            Workload::ThreadChurn => family_trace("thread-churn", seed, size).expect("family"),
            Workload::PerlbenchAdaptive => perlbench_trace(seed, size),
        }
    }
}

/// Records the 400.perlbench analog without tail calls (the tracker has
/// no tail-call entry point). The program is the suite's; the seed picks
/// the interpreter's path through it, so every seed runs the same binary
/// on different input.
fn perlbench_trace(seed: u64, size: f64) -> WorkloadTrace {
    let mut spec = all_benchmarks()
        .into_iter()
        .find(|s| s.name == "400.perlbench")
        .expect("suite has the perlbench analog");
    spec.tail_fraction = 0.0;
    let program = generate_program(&spec);
    let cfg = DriverConfig {
        scale: size,
        ..DriverConfig::default()
    };
    let mut icfg = interp_config(&spec, &cfg);
    icfg.seed = spec.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    icfg.sample_every = 0;
    icfg.validate = false;
    let mut rec = Recorder::default();
    let _ = Interpreter::new(&program, icfg).run(&mut rec);
    rec.trace
}

/// A cost-free runtime that records every instrumentation event.
#[derive(Default)]
struct Recorder {
    trace: WorkloadTrace,
}

impl ContextRuntime for Recorder {
    fn name(&self) -> &'static str {
        "perfbench-recorder"
    }

    fn attach(&mut self, _program: &Program) {}

    fn on_thread_start(
        &mut self,
        tid: ThreadId,
        root: FunctionId,
        parent: Option<(ThreadId, CallSiteId)>,
    ) {
        self.trace.threads.push(ThreadStart { tid, root, parent });
        self.trace.traces.entry(tid).or_default();
    }

    fn on_call(&mut self, ev: &CallEvent, _stack: &OracleStack) -> u64 {
        assert!(!ev.tail, "tail calls are disabled in the recorded spec");
        self.trace
            .traces
            .entry(ev.tid)
            .or_default()
            .push(TraceOp::Call {
                site: ev.site,
                target: ev.callee,
                indirect: matches!(ev.dispatch, CallDispatch::Indirect),
            });
        0
    }

    fn on_return(&mut self, ev: &ReturnEvent, _stack: &OracleStack) -> u64 {
        self.trace
            .traces
            .entry(ev.tid)
            .or_default()
            .push(TraceOp::Ret);
        0
    }

    fn sample(&mut self, _tid: ThreadId, _events: u64) -> (SampleResult, u64) {
        (SampleResult::Unsupported, 0)
    }
}

/// One step of a thread's replay.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// `run_batch(&ops[start..end])`: balanced windows, at most [`WINDOW`] ops.
    Batch {
        /// First op of the batch.
        start: u32,
        /// One past the last op.
        end: u32,
    },
    /// A guard-driven call (a spine frame that outlives any window).
    Call(BatchOp),
    /// Drop of the innermost guard.
    Ret,
    /// `sample()` + `decode()`, checked against `expected[index]`.
    Query(u32),
}

/// One thread's replay plan.
#[derive(Debug)]
pub struct ThreadPlan {
    /// The trace's thread id (the journal's thread id).
    pub trace_tid: u64,
    /// Root function, in tracker ids.
    pub root: FunctionId,
    /// `(index of the parent plan, spawn site)` for spawned threads.
    pub parent: Option<(usize, CallSiteId)>,
    /// The thread's root context: its creation context plus its root.
    pub root_path: Vec<PathStep>,
    /// Ops of the recorded stream (`ops` adds the closing returns).
    pub recorded: usize,
    /// The mapped op stream, closed with returns so it is balanced.
    pub ops: Vec<BatchOp>,
    /// The replay steps over `ops`.
    pub steps: Vec<Step>,
    /// Expected decoded context at each query.
    pub expected: Vec<ContextPath>,
    /// Ops driven through `run_batch`.
    pub batched_ops: u64,
    /// Ops driven through guards.
    pub guard_ops: u64,
    /// `run_batch` calls.
    pub batches: u64,
}

impl ThreadPlan {
    /// Call and return events of one replay of this thread.
    pub fn events(&self) -> u64 {
        self.ops.len() as u64
    }
}

/// A whole workload's replay plans plus its id tables.
#[derive(Debug)]
pub struct Plan {
    /// Functions to define, in id order (`define_function` returns `i`).
    pub functions: Vec<String>,
    /// Call sites to define (`define_call_site` returns `0..sites`).
    pub sites: u32,
    /// Threads in registration order; parents precede children.
    pub threads: Vec<ThreadPlan>,
}

impl Plan {
    /// Events of one replay of every thread.
    pub fn events(&self) -> u64 {
        self.threads.iter().map(ThreadPlan::events).sum()
    }

    /// Queries of one replay of every thread.
    pub fn queries(&self) -> u64 {
        self.threads.iter().map(|t| t.expected.len() as u64).sum()
    }

    /// Threads registered with a parent.
    pub fn spawned(&self) -> usize {
        self.threads.iter().filter(|t| t.parent.is_some()).count()
    }
}

/// Maps trace ids to tracker ids in first-appearance order — the order in
/// which the library's own replays (`record_journal`, the batched drive)
/// define them, so journal and live ids agree.
#[derive(Default)]
struct IdMap {
    functions: Vec<String>,
    fns: HashMap<FunctionId, FunctionId>,
    sites: HashMap<CallSiteId, CallSiteId>,
}

impl IdMap {
    fn function(&mut self, f: FunctionId) -> FunctionId {
        let functions = &mut self.functions;
        *self.fns.entry(f).or_insert_with(|| {
            functions.push(format!("fn{}", f.index()));
            FunctionId::new(functions.len() as u32 - 1)
        })
    }

    fn site(&mut self, s: CallSiteId) -> CallSiteId {
        let next = self.sites.len() as u32;
        *self.sites.entry(s).or_insert(CallSiteId::new(next))
    }
}

/// Builds the replay plans of `trace`.
pub fn build(trace: &WorkloadTrace) -> Plan {
    let mut ids = IdMap::default();
    let mut index: HashMap<ThreadId, usize> = HashMap::new();
    let mut threads: Vec<ThreadPlan> = Vec::with_capacity(trace.threads.len());
    for &ThreadStart { tid, root, parent } in &trace.threads {
        let root = ids.function(root);
        let parent = parent.map(|(ptid, psite)| (index[&ptid], ids.site(psite)));
        // Parents are back at their root when children register (their
        // streams are replayed, and closed, first), so a child's creation
        // context is its parent's root context.
        let mut root_path = parent.map_or_else(Vec::new, |(p, _)| threads[p].root_path.clone());
        root_path.push(PathStep {
            site: parent.map(|(_, s)| s),
            func: root,
        });
        let ops: Vec<BatchOp> = trace.traces[&tid]
            .iter()
            .map(|op| match *op {
                TraceOp::Call {
                    site,
                    target,
                    indirect,
                } => {
                    let site = ids.site(site);
                    let target = ids.function(target);
                    if indirect {
                        BatchOp::CallIndirect { site, target }
                    } else {
                        BatchOp::Call { site, target }
                    }
                }
                TraceOp::Ret => BatchOp::Ret,
            })
            .collect();
        index.insert(tid, threads.len());
        threads.push(thread_plan(
            u64::from(tid.raw()),
            root,
            parent,
            ops,
            root_path,
        ));
    }
    Plan {
        functions: ids.functions,
        sites: ids.sites.len() as u32,
        threads,
    }
}

/// For each call, the index of its matching return (`usize::MAX` for returns).
fn matching_returns(ops: &[BatchOp]) -> Vec<usize> {
    let mut match_ret = vec![usize::MAX; ops.len()];
    let mut open = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            BatchOp::Ret => match_ret[open.pop().expect("return matches a call")] = i,
            _ => open.push(i),
        }
    }
    match_ret
}

fn thread_plan(
    trace_tid: u64,
    root: FunctionId,
    parent: Option<(usize, CallSiteId)>,
    mut ops: Vec<BatchOp>,
    root_path: Vec<PathStep>,
) -> ThreadPlan {
    let recorded = ops.len();
    // Close frames the recording left open (an interpreter budget can end
    // a run mid-stack) so every replay starts and ends at the root.
    let open = ops.iter().fold(0usize, |d, op| match op {
        BatchOp::Ret => d - 1,
        _ => d + 1,
    });
    ops.extend(std::iter::repeat_n(BatchOp::Ret, open));
    let match_ret = matching_returns(&ops);

    let mut p = ThreadPlan {
        trace_tid,
        root,
        parent,
        root_path: root_path.clone(),
        recorded,
        ops: Vec::new(),
        steps: Vec::new(),
        expected: Vec::new(),
        batched_ops: 0,
        guard_ops: 0,
        batches: 0,
    };
    let mut stack = root_path;
    let mut pending: Option<(usize, usize)> = None;
    let flush = |p: &mut ThreadPlan, pending: &mut Option<(usize, usize)>| {
        if let Some((a, b)) = pending.take() {
            p.steps.push(Step::Batch {
                start: a as u32,
                end: b as u32,
            });
            p.batched_ops += (b - a) as u64;
            p.batches += 1;
        }
    };
    let query = |p: &mut ThreadPlan, stack: &[PathStep]| {
        p.steps.push(Step::Query(p.expected.len() as u32));
        p.expected.push(ContextPath(stack.to_vec()));
    };
    let mut next_query = QUERY_EVERY;
    let mut i = 0;
    while i < ops.len() {
        match ops[i] {
            BatchOp::Ret => {
                flush(&mut p, &mut pending);
                p.steps.push(Step::Ret);
                p.guard_ops += 1;
                stack.pop();
                i += 1;
            }
            op @ (BatchOp::Call { site, target } | BatchOp::CallIndirect { site, target }) => {
                let j = match_ret[i];
                if j - i < WINDOW && j < recorded {
                    // A balanced window [i, j]: queue it whole, packing
                    // adjacent windows into one batch up to WINDOW ops.
                    match pending {
                        Some((a, b)) if b == i && j + 1 - a <= WINDOW => {
                            pending = Some((a, j + 1));
                        }
                        _ => {
                            flush(&mut p, &mut pending);
                            pending = Some((i, j + 1));
                        }
                    }
                    i = j + 1;
                } else {
                    flush(&mut p, &mut pending);
                    p.steps.push(Step::Call(op));
                    p.guard_ops += 1;
                    stack.push(PathStep {
                        site: Some(site),
                        func: target,
                    });
                    i += 1;
                }
            }
        }
        if i == recorded {
            // The exit query sits where the recorded stream ends.
            flush(&mut p, &mut pending);
            query(&mut p, &stack);
        } else if i < recorded && i as u64 >= next_query {
            while next_query <= i as u64 {
                next_query += QUERY_EVERY;
            }
            flush(&mut p, &mut pending);
            query(&mut p, &stack);
        }
    }
    flush(&mut p, &mut pending);
    if recorded == 0 {
        query(&mut p, &stack);
    }
    p.ops = ops;
    p
}

/// The decoded lines `decode_serial` must produce for the journal that
/// `record_journal` writes over `trace`: a decode point every
/// [`JOURNAL_SAMPLE_EVERY`] ops and one at each thread's exit, rendered
/// from the shadow stack.
pub fn expected_journal_lines(plan: &Plan) -> Vec<String> {
    let mut lines = Vec::new();
    for t in &plan.threads {
        let mut stack = t.root_path.clone();
        let recorded = t.recorded;
        let mut k = 0usize;
        let mut render = |stack: &[PathStep], lines: &mut Vec<String>| {
            let path = ContextPath(stack.to_vec());
            lines.push(format!(
                "{}#{k}: {}",
                t.trace_tid,
                path.display(|f| f.to_string())
            ));
            k += 1;
        };
        for (i, op) in t.ops[..recorded].iter().enumerate() {
            match *op {
                BatchOp::Call { site, target } | BatchOp::CallIndirect { site, target } => {
                    stack.push(PathStep {
                        site: Some(site),
                        func: target,
                    });
                }
                BatchOp::Ret => {
                    stack.pop();
                }
            }
            if (i as u64 + 1).is_multiple_of(JOURNAL_SAMPLE_EVERY) {
                render(&stack, &mut lines);
            }
        }
        if recorded > 0 {
            render(&stack, &mut lines);
        }
    }
    lines
}
