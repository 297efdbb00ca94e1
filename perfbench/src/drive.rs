//! The timed drive: replay one thread's plan on its handle.
//!
//! Untraced, the drive reads the clock once per `run_batch` call (the end
//! of one call is the start of the next) and around each query, so the
//! timed region holds library calls and clock reads only. Traced, every
//! call gets a span of its own. Decoded contexts are only collected here;
//! they are checked against the plan after the round.

use std::time::Instant;

use dacce::tracker::{BatchOp, ThreadHandle, Tracker};
use dacce_program::ContextPath;

use crate::plan::{Step, ThreadPlan};
use crate::trace::{Layer, Tracer};

/// What one round measured, untraced.
#[derive(Debug, Default)]
pub struct Meter {
    /// Time spent in call and return events (batches, guards and, on
    /// thread-churn, registrations).
    pub encode_ns: u64,
    /// Call and return events driven.
    pub events: u64,
    /// Latency of each `run_batch` call.
    pub batch_ns: Vec<u64>,
    /// Latency of each query (`sample()` + `decode()`).
    pub query_ns: Vec<u64>,
    /// Decoded contexts, in plan order.
    pub decoded: Vec<Result<ContextPath, String>>,
    /// `run_batch` and guard errors.
    pub errors: Vec<String>,
}

impl Meter {
    /// Clears the per-round samples, keeping the allocations.
    pub fn clear(&mut self) {
        self.encode_ns = 0;
        self.events = 0;
        self.batch_ns.clear();
        self.query_ns.clear();
        self.decoded.clear();
        self.errors.clear();
    }
}

#[inline]
fn ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Replays `plan` once on `th`. With `TRACED` every library call is a
/// span in `tr`; otherwise `tr` is untouched and `m` gets the timings.
/// Stops at the first `run_batch` error: the tracker unwinds the failed
/// batch, so the rest of the stream would no longer match the plan.
pub fn drive_thread<const TRACED: bool>(
    tracker: &Tracker,
    th: &ThreadHandle,
    plan: &ThreadPlan,
    m: &mut Meter,
    tr: &mut Tracer,
) {
    let mut guards = Vec::with_capacity(64);
    // Untraced: start of the encode interval not yet accounted for, and
    // whether guard ops ran since (they join the next interval's time but
    // not the next batch's latency).
    let mut t = Instant::now();
    let mut dirty = false;
    // Traced: start and op count of the open guard run.
    let mut run: Option<(u64, u32)> = None;
    let close_run = |tr: &mut Tracer, run: &mut Option<(u64, u32)>| {
        if let Some((s, n)) = run.take() {
            let e = tr.now();
            tr.span(Layer::Guard, s, e, n, false);
        }
    };
    for step in &plan.steps {
        match *step {
            Step::Batch { start, end } => {
                let ops = &plan.ops[start as usize..end as usize];
                let r = if TRACED {
                    close_run(tr, &mut run);
                    let slow = tracker.slow_path_locks();
                    let s = tr.now();
                    let r = th.run_batch(ops);
                    let e = tr.now();
                    let slow = tracker.slow_path_locks() != slow;
                    tr.span(Layer::RunBatch, s, e, ops.len() as u32, slow);
                    r
                } else {
                    if dirty {
                        let n = Instant::now();
                        m.encode_ns += ns(t, n);
                        t = n;
                        dirty = false;
                    }
                    let r = th.run_batch(ops);
                    let e = Instant::now();
                    let d = ns(t, e);
                    m.encode_ns += d;
                    m.batch_ns.push(d);
                    t = e;
                    r
                };
                if let Err(e) = r {
                    m.errors
                        .push(format!("thread {}: run_batch: {e}", plan.trace_tid));
                    // The rest of the stream no longer matches the plan.
                    let taken = plan.steps.iter().take_while(|s| !std::ptr::eq(*s, step));
                    let queries = taken.filter(|s| matches!(s, Step::Query(_))).count();
                    for _ in queries..plan.expected.len() {
                        m.decoded.push(Err("not taken: run_batch failed".into()));
                    }
                    break;
                }
            }
            Step::Call(op) => {
                if TRACED && run.is_none() {
                    run = Some((tr.now(), 0));
                }
                guards.push(match op {
                    BatchOp::Call { site, target } => th.call(site, target),
                    BatchOp::CallIndirect { site, target } => th.call_indirect(site, target),
                    BatchOp::Ret => unreachable!("plans hold calls here"),
                });
                if let Some((_, n)) = run.as_mut() {
                    *n += 1;
                }
                dirty = true;
            }
            Step::Ret => {
                if TRACED && run.is_none() {
                    run = Some((tr.now(), 0));
                }
                drop(guards.pop());
                if let Some((_, n)) = run.as_mut() {
                    *n += 1;
                }
                dirty = true;
            }
            Step::Query(_) => {
                if TRACED {
                    close_run(tr, &mut run);
                    let s = tr.now();
                    let ctx = th.sample();
                    let mid = tr.now();
                    let path = tracker.decode(&ctx);
                    let e = tr.now();
                    tr.span(Layer::Sample, s, mid, 1, false);
                    tr.span(Layer::Decode, mid, e, 1, false);
                    m.decoded.push(path.map_err(|e| e.to_string()));
                } else {
                    let q = Instant::now();
                    m.encode_ns += ns(t, q);
                    let ctx = th.sample();
                    let path = tracker.decode(&ctx);
                    let e = Instant::now();
                    m.query_ns.push(ns(q, e));
                    m.decoded.push(path.map_err(|e| e.to_string()));
                    t = Instant::now();
                    dirty = false;
                }
            }
        }
    }
    while guards.pop().is_some() {}
    if TRACED {
        close_run(tr, &mut run);
    } else {
        m.encode_ns += ns(t, Instant::now());
    }
    m.events += plan.events();
}

/// Registers the thread of `plan`, timing the call as encode time (the
/// thread-churn episode) or not.
pub fn register<const TRACED: bool>(
    tracker: &Tracker,
    plan: &ThreadPlan,
    handles: &[ThreadHandle],
    m: &mut Meter,
    tr: &mut Tracer,
    timed: bool,
) -> ThreadHandle {
    let go = || match plan.parent {
        None => tracker.register_thread(plan.root),
        Some((p, site)) => tracker.register_spawned_thread(plan.root, &handles[p], site),
    };
    if TRACED {
        tr.time(Layer::Register, 1, go)
    } else if timed {
        let s = Instant::now();
        let th = go();
        m.encode_ns += ns(s, Instant::now());
        th
    } else {
        go()
    }
}

/// Compares the decoded contexts of a round with the plans' expectations.
/// Returns `(checked, failures)` with a description of the first failure.
pub fn check_decoded<'a>(
    plans: impl Iterator<Item = &'a ThreadPlan>,
    decoded: &[Result<ContextPath, String>],
    first: &mut Option<String>,
) -> (u64, u64) {
    let mut it = decoded.iter();
    let (mut checked, mut failed) = (0u64, 0u64);
    for plan in plans {
        for (q, want) in plan.expected.iter().enumerate() {
            checked += 1;
            let ok = match it.next() {
                Some(Ok(got)) if got == want => true,
                Some(Ok(got)) => {
                    first.get_or_insert_with(|| {
                        format!(
                            "thread {} query {q}: decoded {} but the shadow stack has {}",
                            plan.trace_tid,
                            got.display(|f| f.to_string()),
                            want.display(|f| f.to_string())
                        )
                    });
                    false
                }
                Some(Err(e)) => {
                    first
                        .get_or_insert_with(|| format!("thread {} query {q}: {e}", plan.trace_tid));
                    false
                }
                None => {
                    first.get_or_insert_with(|| {
                        format!("thread {} query {q}: never taken", plan.trace_tid)
                    });
                    false
                }
            };
            failed += u64::from(!ok);
        }
    }
    (checked, failed)
}

/// Spawned threads whose exit query decoded to a context that starts with
/// the thread's creation context (its parent's context, the spawn site and
/// its root): the threads the tracker registered as spawned from their
/// parents. The exit query is each thread's last.
pub fn spawned_decoded<'a>(
    plans: impl Iterator<Item = &'a ThreadPlan>,
    decoded: &[Result<ContextPath, String>],
) -> u64 {
    let mut end = 0;
    let mut n = 0;
    for plan in plans {
        end += plan.expected.len();
        if plan.parent.is_some() {
            if let Some(Ok(path)) = end.checked_sub(1).and_then(|i| decoded.get(i)) {
                n += u64::from(path.0.starts_with(&plan.root_path));
            }
        }
    }
    n
}
