//! Journaling overhead on the tracker fast path, `tracker_scale`-style:
//! N threads hammering already-encoded call/return pairs with the event
//! journal (a) compiled in but disabled — the default shipping state, one
//! relaxed load on ccStack paths and nothing at all on encoded arithmetic
//! paths — and (b) enabled, every ccStack push/pop journaled.
//!
//! Times itself (the acceptance criterion is a per-op ratio, not a
//! statistical distribution) and appends the numbers to
//! `results/obs_overhead.csv` so regressions are diffable in-repo:
//!
//! ```text
//! cargo bench -p dacce-bench --bench obs_overhead
//! ```

use std::time::Instant;

use dacce::tracker::ThreadHandle;
use dacce::{DacceConfig, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};

const ROUNDS_PER_ITER: usize = 2_000;
const DEPTH: usize = 4;
const ITERS: usize = 30;

struct Prepared {
    tracker: Tracker,
    handles: Vec<ThreadHandle>,
    sites: Vec<Vec<CallSiteId>>,
    depth_fns: Vec<FunctionId>,
}

/// Same shape as `tracker_scale`: per-thread chains, pre-warmed so the
/// measured loop never traps.
fn prepare(threads: usize) -> Prepared {
    let tracker = Tracker::with_config(DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        // Big enough that an enabled journal never hits the overwrite
        // path mid-measurement (ring cost, not drop accounting).
        journal_ring_capacity: 1 << 16,
        ..DacceConfig::default()
    });
    let f_main = tracker.define_function("main");
    let worker_fns: Vec<FunctionId> = (0..threads)
        .map(|i| tracker.define_function(&format!("worker{i}")))
        .collect();
    let depth_fns: Vec<FunctionId> = (0..DEPTH)
        .map(|i| tracker.define_function(&format!("level{i}")))
        .collect();
    let spawn_site = tracker.define_call_site();
    let sites: Vec<Vec<CallSiteId>> = (0..threads)
        .map(|_| (0..DEPTH).map(|_| tracker.define_call_site()).collect())
        .collect();

    let main_th = tracker.register_thread(f_main);
    let handles: Vec<ThreadHandle> = (0..threads)
        .map(|w| tracker.register_spawned_thread(worker_fns[w], &main_th, spawn_site))
        .collect();

    for (w, th) in handles.iter().enumerate() {
        for _ in 0..4 {
            let mut guards = Vec::new();
            for d in 0..DEPTH {
                guards.push(th.call(sites[w][d], depth_fns[d]));
            }
            while let Some(g) = guards.pop() {
                drop(g);
            }
        }
    }

    Prepared {
        tracker,
        handles,
        sites,
        depth_fns,
    }
}

fn run_threads(p: &Prepared) {
    crossbeam::scope(|scope| {
        for (w, th) in p.handles.iter().enumerate() {
            let sites = &p.sites[w];
            let depth_fns = &p.depth_fns;
            scope.spawn(move |_| {
                for _ in 0..ROUNDS_PER_ITER {
                    let mut guards = Vec::new();
                    for d in 0..DEPTH {
                        guards.push(th.call(sites[d], depth_fns[d]));
                    }
                    while let Some(g) = guards.pop() {
                        drop(g);
                    }
                }
            });
        }
    })
    .expect("bench threads complete");
}

/// Best-of-`ITERS` per-op nanoseconds (minimum is the standard noise
/// rejection for throughput micro-benchmarks).
fn measure(p: &Prepared, threads: usize) -> f64 {
    let ops = (threads * ROUNDS_PER_ITER * DEPTH) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        run_threads(p);
        let ns = t0.elapsed().as_nanos() as f64 / ops;
        if ns < best {
            best = ns;
        }
        // Keep an enabled journal from accumulating unboundedly.
        let _ = p.tracker.observability().journal().drain();
    }
    best
}

fn main() {
    let mut csv = String::from("threads,journal,per_op_ns\n");
    println!("journaling overhead on the encoded tracker fast path");
    println!(
        "{:>8} {:>14} {:>14} {:>9}",
        "threads", "off ns/op", "on ns/op", "ratio"
    );
    for &threads in &[1usize, 2, 4] {
        let p = prepare(threads);
        // Journal compiled in, runtime-disabled (the shipping default).
        p.tracker.observability().journal().set_enabled(false);
        let off = measure(&p, threads);
        // Runtime-enabled: every ccStack push/pop journaled.
        p.tracker.observability().journal().set_enabled(true);
        let on = measure(&p, threads);
        p.tracker.observability().journal().set_enabled(false);
        assert_eq!(p.tracker.stats().decode_errors, 0);

        println!(
            "{threads:>8} {off:>14.2} {on:>14.2} {:>9.3}",
            on / off.max(f64::MIN_POSITIVE)
        );
        use std::fmt::Write as _;
        let _ = writeln!(csv, "{threads},off,{off:.2}");
        let _ = writeln!(csv, "{threads},on,{on:.2}");
    }
    // `cargo bench` runs with the package as CWD; anchor on the manifest so
    // the CSV lands in the workspace-root `results/` like every other
    // artifact.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("obs_overhead.csv"), csv).expect("write obs_overhead.csv");
    println!("wrote results/obs_overhead.csv");
}
