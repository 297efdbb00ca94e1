//! Satellite: stats and journal drains under concurrency. Draining while
//! tracker threads are mid-call must never double-count or lose events —
//! repeated drains are monotone while workers run and exact once they stop.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use dacce::{DacceConfig, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};

const THREADS: usize = 4;
const ITERS: usize = 2_000;

fn run_workers(tracker: &Tracker, main_fn: FunctionId, sites: &[CallSiteId], fns: &[FunctionId]) {
    let stop = AtomicBool::new(false);
    crossbeam::scope(|scope| {
        for t in 0..THREADS {
            let tr = tracker.clone();
            let (sites, fns) = (sites.to_vec(), fns.to_vec());
            scope.spawn(move |_| {
                let th = tr.register_thread(main_fn);
                for i in 0..ITERS {
                    let k = (i + t) % sites.len();
                    let _g = th.call(sites[k], fns[k]);
                    if i % 257 == 0 {
                        let _ = th.sample();
                    }
                }
            });
        }
        // Drain continuously while the workers run: every intermediate
        // observation must be internally consistent and monotone.
        let stop = &stop;
        let tr = tracker.clone();
        let drainer = scope.spawn(move |_| {
            let mut last_calls = 0u64;
            let mut drains = 0u64;
            // Drain before reading `stop`: the drainer may first be
            // scheduled only after the workers finished and `stop` is set.
            loop {
                let s = tr.stats();
                assert!(
                    s.calls >= last_calls,
                    "drain went backwards: {} < {last_calls}",
                    s.calls
                );
                last_calls = s.calls;
                drains += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            drains
        });
        // Wait for the workers to finish (observable through the drain
        // itself), then stop the drainer.
        let target = (THREADS * ITERS) as u64;
        while tracker.stats().calls < target {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let drains = drainer.join().unwrap();
        assert!(drains > 0);
    })
    .unwrap();
}

#[test]
fn concurrent_stats_drains_are_monotone_and_exact() {
    let tracker = Tracker::new();
    let main_fn = tracker.define_function("main");
    let fns: Vec<FunctionId> = (0..4)
        .map(|i| tracker.define_function(&format!("f{i}")))
        .collect();
    let sites: Vec<CallSiteId> = (0..4).map(|_| tracker.define_call_site()).collect();

    run_workers(&tracker, main_fn, &sites, &fns);

    // Once quiescent, the drain is exact: no event lost, none counted
    // twice, however many concurrent drains happened mid-run.
    let s1 = tracker.stats();
    let s2 = tracker.stats();
    assert_eq!(s1.calls, (THREADS * ITERS) as u64);
    assert_eq!(s2.calls, s1.calls, "repeated drains must be idempotent");
    assert_eq!(s2.traps, s1.traps);
    assert_eq!(s2.samples, s1.samples);
    assert_eq!(tracker.stats().decode_errors, 0);
    tracker.check_invariants().unwrap();
}

#[test]
fn concurrent_journal_drains_never_duplicate_events() {
    let tracker = Tracker::with_config(DacceConfig {
        journal_ring_capacity: 1 << 14,
        ..DacceConfig::default()
    });
    let obs = tracker.observability().clone();
    obs.set_journaling(true);
    let main_fn = tracker.define_function("main");
    let fns: Vec<FunctionId> = (0..4)
        .map(|i| tracker.define_function(&format!("f{i}")))
        .collect();
    let sites: Vec<CallSiteId> = (0..4).map(|_| tracker.define_call_site()).collect();

    let mut seen: Vec<u64> = Vec::new();
    crossbeam::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let tr = tracker.clone();
            let (sites, fns) = (sites.clone(), fns.clone());
            workers.push(scope.spawn(move |_| {
                let th = tr.register_thread(main_fn);
                for i in 0..ITERS {
                    let k = (i + t) % sites.len();
                    let _g = th.call(sites[k], fns[k]);
                }
            }));
        }
        // Drain concurrently with the writers.
        for _ in 0..50 {
            seen.extend(obs.drain_journal().events.iter().map(|e| e.seq));
            std::thread::yield_now();
        }
        for w in workers {
            w.join().unwrap();
        }
    })
    .unwrap();
    seen.extend(obs.drain_journal().events.iter().map(|e| e.seq));

    // Every drained record is distinct — overlapping drains never hand the
    // same event out twice.
    let unique: HashSet<u64> = seen.iter().copied().collect();
    assert_eq!(unique.len(), seen.len(), "duplicate seq in drained stream");
    // And nothing is left behind once everything stopped.
    assert!(obs.drain_journal().events.is_empty());
}
