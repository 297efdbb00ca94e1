//! Continuous-profiler overhead on the tracker fast path,
//! `tracker_scale`-style: N threads hammering already-encoded call/return
//! pairs with the sampler (a) disabled (`profiler_stride = 0`, one branch
//! on a zero stride per call) and (b) enabled at the shipping defaults
//! (stride 509, budget-bounded rate controller), every fired sample
//! pushed into the lock-free profiler ring.
//!
//! The acceptance bar for the continuous profiler is that sampling-on
//! stays within 3% of sampling-off on this shape. Times itself (a per-op
//! ratio, not a statistical distribution) and writes
//! `results/profiler_overhead.csv` so regressions are diffable in-repo.
//! `DACCE_BENCH_QUICK=1` shrinks the run for CI smoke jobs.
//!
//! ```text
//! cargo bench -p dacce-bench --bench profiler_overhead
//! ```

use std::time::Instant;

use dacce::tracker::ThreadHandle;
use dacce::{DacceConfig, Tracker};
use dacce_callgraph::{CallSiteId, FunctionId};

const DEPTH: usize = 4;

fn quick() -> bool {
    std::env::var("DACCE_BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn rounds_per_iter() -> usize {
    if quick() {
        500
    } else {
        2_000
    }
}

fn iters() -> usize {
    if quick() {
        5
    } else {
        30
    }
}

struct Prepared {
    tracker: Tracker,
    handles: Vec<ThreadHandle>,
    sites: Vec<Vec<CallSiteId>>,
    depth_fns: Vec<FunctionId>,
}

/// Same shape as `tracker_scale`: per-thread chains, pre-warmed so the
/// measured loop never traps. `stride` selects the sampler state.
fn prepare(threads: usize, stride: u64) -> Prepared {
    let tracker = Tracker::with_config(DacceConfig {
        edge_threshold: 1,
        min_events_between_reencodes: 1,
        profiler_stride: stride,
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

fn run_threads(p: &Prepared, rounds: usize) {
    crossbeam::scope(|scope| {
        for (w, th) in p.handles.iter().enumerate() {
            let sites = &p.sites[w];
            let depth_fns = &p.depth_fns;
            scope.spawn(move |_| {
                for _ in 0..rounds {
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

/// Best-of-`iters()` per-op nanoseconds (minimum is the standard noise
/// rejection for throughput micro-benchmarks).
fn measure(p: &Prepared, threads: usize) -> f64 {
    let rounds = rounds_per_iter();
    let ops = (threads * rounds * DEPTH) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..iters() {
        let t0 = Instant::now();
        run_threads(p, rounds);
        let ns = t0.elapsed().as_nanos() as f64 / ops;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn main() {
    let mut csv = String::from("threads,sampling,per_op_ns\n");
    println!("continuous-profiler overhead on the encoded tracker fast path");
    println!(
        "{:>8} {:>14} {:>14} {:>9}",
        "threads", "off ns/op", "on ns/op", "ratio"
    );
    for &threads in &[1usize, 2, 4] {
        // Separate trackers: the stride is a construction-time config.
        let p_off = prepare(threads, 0);
        let off = measure(&p_off, threads);
        let p_on = prepare(threads, DacceConfig::default().profiler_stride);
        let on = measure(&p_on, threads);
        assert_eq!(p_off.tracker.stats().decode_errors, 0);
        assert_eq!(p_on.tracker.stats().decode_errors, 0);
        // The enabled run must actually have sampled something.
        assert!(p_on.tracker.observability().snapshot().profiler_samples > 0);

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
    std::fs::write(results.join("profiler_overhead.csv"), csv)
        .expect("write profiler_overhead.csv");
    println!("wrote results/profiler_overhead.csv");
}
