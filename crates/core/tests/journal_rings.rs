//! Journal rings are pay-per-use on a live `Tracker`: registering threads
//! while journaling is off allocates no ring, a thread's ring appears on
//! its first recorded event, and the journal of a run replays to the
//! tracker's own `DacceStats`.

use dacce::config::DacceConfig;
use dacce::tracker::{ThreadHandle, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_obs::JournalAggregates;

/// Tid of the shared slow path's writer (traps, re-encodes).
const RUNTIME_TID: u32 = u32::MAX;

/// `main -> f`, then `f` recursing `depth` times through its own site:
/// the first run of each edge traps and the recursion pushes the ccStack.
fn drive(th: &ThreadHandle, sites: [CallSiteId; 2], f: FunctionId, depth: usize) {
    let _outer = th.call(sites[0], f);
    let guards: Vec<_> = (0..depth).map(|_| th.call(sites[1], f)).collect();
    for guard in guards.into_iter().rev() {
        drop(guard);
    }
}

#[test]
fn rings_follow_recording_threads_and_replay_to_stats() {
    let tracker = Tracker::with_config(DacceConfig {
        journal_ring_capacity: 1 << 12,
        ..DacceConfig::default()
    });
    let journal = tracker.observability().journal();
    let main_fn = tracker.define_function("main");
    let f = tracker.define_function("f");
    let spawn_site = tracker.define_call_site();
    let sites = [tracker.define_call_site(), tracker.define_call_site()];

    let main = tracker.register_thread(main_fn);
    let spawned: Vec<ThreadHandle> = (0..1000)
        .map(|_| tracker.register_spawned_thread(main_fn, &main, spawn_site))
        .collect();
    // The runtime writer, the main thread and every spawned thread hold a
    // writer; none has recorded, so none owns a ring.
    assert_eq!(journal.writer_count(), 1002);
    assert_eq!(journal.ring_count(), 0);
    assert_eq!(tracker.stats().traps, 0);

    journal.set_enabled(true);
    let late = tracker.register_spawned_thread(main_fn, &main, spawn_site);
    let drivers = [&main, &spawned[3], &spawned[500], &late];
    for (i, th) in drivers.iter().enumerate() {
        drive(th, sites, f, 3 + i);
    }
    assert!(
        tracker.request_reencode(),
        "the discovered graph re-encodes"
    );
    for th in drivers {
        drive(th, sites, f, 2);
    }

    let batch = journal.drain();
    assert_eq!(batch.dropped, 0);
    assert!(batch.dropped_by_thread.is_empty());
    let agg = JournalAggregates::replay_batch(&batch);
    let stats = tracker.stats();
    assert!(stats.traps > 0 && stats.reencodes > 0 && stats.ccstack_ops > 0);
    assert_eq!(agg.traps, stats.traps);
    assert_eq!(agg.reencodes, stats.reencodes);
    assert_eq!(agg.reencode_cost, stats.reencode_cost);
    assert_eq!(agg.overflow_aborts, stats.overflow_aborts);
    assert_eq!(agg.cc_pushes + agg.cc_pops, stats.ccstack_ops);

    let mut owners: Vec<u32> = drivers.iter().map(|th| th.id().raw()).collect();
    owners.push(RUNTIME_TID);
    owners.sort_unstable();
    assert_eq!(journal.ring_owners(), owners);
    assert_eq!(journal.writer_count(), 1003);
}
