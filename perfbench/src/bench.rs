//! One benchmark run: prepare a workload, measure it for the given time,
//! check every output, and summarize.
//!
//! A run interleaves short rounds of each phase (set-up, encode, offline)
//! over its whole duration, so a burst of host speed lands on every
//! metric alike instead of on whichever phase happened to be running.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dacce::tracker::{BatchOp, ThreadHandle, Tracker};
use dacce::{decode_serial, import, DacceConfig, DacceStats, DecodeJournal};
use dacce_callgraph::FunctionId;
use dacce_workloads::journal::DEFAULT_SEAM_EVERY;
use dacce_workloads::{leaf_weights, mine_windows, record_journal};

use crate::drive::{check_decoded, drive_thread, register, spawned_decoded, Meter};
use crate::plan::{self, expected_journal_lines, Plan, Workload, WINDOW};
use crate::stats::{LatencyBlocks, Round, BATCH_BLOCK, QUERY_BLOCK};
use crate::trace::{Layer, Phase, Tracer};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run: per-layer spans and counts instead of e2e metrics.
    pub traced: bool,
    /// Input size relative to the benchmark's input (1.0).
    pub size: f64,
}

/// Least number of rounds of each phase, even past the deadline.
const MIN_ROUNDS: usize = 8;

impl Options {
    /// The benchmark's options for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Options {
            workload,
            seed,
            seconds: 10.0,
            traced: false,
            size: 1.0,
        }
    }
}

/// Checked operations: queries, offline decode points, `run_batch`
/// calls, invariant audits and the workload's sanity and determinism
/// assertions.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Description of the first failure.
    pub first: Option<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first.get_or_insert_with(what);
        }
    }

    fn add(&mut self, checked: u64, failed: u64) {
        self.attempted += checked;
        self.failed += failed;
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Layer counts of one unit of work (a set-up, a round or an episode).
pub type Counts = BTreeMap<&'static str, u64>;

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations.
    pub checks: Checks,
    /// e2e metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Layer counts per unit of work (`setup.`, `round.` or `episode.`
    /// prefixed); they repeat exactly between same-seed runs.
    pub counts: BTreeMap<String, u64>,
    /// Input size.
    pub input: Counts,
    /// Span dump of the traced run.
    pub spans: Option<String>,
    /// The process's VmHWM after load generation, in kB. `run` then resets
    /// the high-water mark, so `peak_rss_mb` covers the measured phases.
    pub load_peak_kb: u64,
    /// Whether that reset took effect.
    pub peak_reset: bool,
}

/// The benchmark's tracker configuration: the library default.
fn config() -> DacceConfig {
    DacceConfig::default()
}

/// Load generation, done once before any timing.
pub struct Prepared {
    /// Replay plans.
    pub plan: Plan,
    /// The journal in dacce-journal v1 text.
    pub journal_text: String,
    /// The recording tracker's export text.
    pub export_text: String,
    /// Journal ops.
    pub journal_ops: u64,
    /// Decoded lines the journal must produce.
    pub journal_lines: Vec<String>,
    /// RSS growth per thread registration on fresh memory, in kB (traced
    /// runs; 0 when not measured).
    pub ring_kb: f64,
}

/// Generates the workload's input: the trace, its plans and its journal.
pub fn prepare(workload: Workload, seed: u64, size: f64) -> Prepared {
    let trace = workload.trace(seed, size);
    let plan = plan::build(&trace);
    let rec = record_journal(&trace, config(), DEFAULT_SEAM_EVERY);
    let journal_lines = expected_journal_lines(&plan);
    Prepared {
        journal_text: rec.journal.to_text(),
        export_text: rec.export,
        journal_ops: rec.journal.ops() as u64,
        journal_lines,
        plan,
        ring_kb: 0.0,
    }
}

/// RSS growth per thread registration, measured on memory the process has
/// not touched yet: registrations later in a run reuse the rings that
/// earlier trackers freed, so this runs before load generation.
fn ring_footprint_kb() -> f64 {
    const THREADS: u32 = 64;
    let tracker = Tracker::with_config(config());
    let root = tracker.define_function("root");
    let site = tracker.define_call_site();
    let main = tracker.register_thread(root);
    let before = status_kb("VmRSS:");
    let threads: Vec<ThreadHandle> = (0..THREADS)
        .map(|_| tracker.register_spawned_thread(root, &main, site))
        .collect();
    let grown = status_kb("VmRSS:").saturating_sub(before);
    drop(threads);
    grown as f64 / f64::from(THREADS)
}

/// Returns freed memory to the kernel and resets the process's VmHWM to
/// its current RSS. Returns the high-water mark before the reset and
/// whether the reset took effect.
fn reset_peak_rss() -> (u64, bool) {
    let before = status_kb("VmHWM:");
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim takes no pointer; it only returns free heap
        // pages to the kernel, and no live allocation moves.
        unsafe {
            malloc_trim(0);
        }
    }
    (before, std::fs::write("/proc/self/clear_refs", "5").is_ok())
}

/// Reads a `/proc/self/status` field in kB.
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Tracker counters of one unit of work.
fn counts_of(stats: &DacceStats, slow_locks: u64) -> Counts {
    BTreeMap::from([
        ("tracker.calls", stats.calls),
        ("patch.traps", stats.traps),
        ("reencode.count", stats.reencodes),
        ("reencode.cost_units", stats.reencode_cost),
        ("tracker.slow_locks", slow_locks),
        ("dispatch.icache_hits", stats.icache_hits),
        ("dispatch.icache_misses", stats.icache_misses),
        ("dispatch.hash_conversions", stats.hash_conversions),
        ("superop.hits", stats.superop_hits),
        ("superop.misses", stats.superop_misses),
        ("ccstack.ops", stats.ccstack_ops),
        ("ccstack.compress_hits", stats.compress_hits),
        ("encoding.max_id", stats.max_max_id),
        ("decode.errors", stats.decode_errors),
    ])
}

fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| {
            let keep_max = *k == "encoding.max_id";
            (*k, if keep_max { *v } else { v - before[k] })
        })
        .collect()
}

/// Interleaves phases over the run: the next phase is the one furthest
/// below its share of the elapsed time.
struct Schedule {
    start: Instant,
    seconds: f64,
    share: Vec<f64>,
    spent: Vec<f64>,
    done: Vec<usize>,
}

impl Schedule {
    fn new(share: &[f64], seconds: f64) -> Self {
        Schedule {
            start: Instant::now(),
            seconds,
            share: share.to_vec(),
            spent: vec![0.0; share.len()],
            done: vec![0; share.len()],
        }
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn next(&self) -> Option<usize> {
        let el = self.elapsed();
        if el >= self.seconds {
            return (0..self.share.len()).find(|&i| self.done[i] < MIN_ROUNDS);
        }
        (0..self.share.len()).max_by(|&a, &b| {
            let da = self.share[a] * el - self.spent[a];
            let db = self.share[b] * el - self.spent[b];
            da.total_cmp(&db)
        })
    }

    fn record(&mut self, phase: usize, took: Duration) {
        self.spent[phase] += took.as_secs_f64();
        self.done[phase] += 1;
    }
}

/// The state of one run.
struct Bench<'p> {
    opts: &'p Options,
    prep: &'p Prepared,
    checks: Checks,
    tr: Tracer,
    m: Meter,
    rounds: Vec<Round>,
    batches: LatencyBlocks,
    queries: LatencyBlocks,
    /// Counts of the first unit of each kind; later units must repeat them.
    reference: BTreeMap<&'static str, Counts>,
    /// All counts of the first server-steady round.
    first_round: Option<Counts>,
    /// Traced: untraced twin rounds for the tracing overhead.
    twin_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    forced_ns: Vec<u64>,
    decoded_depth: (u64, u64),
}

/// A tracker with its threads registered (and, on server-steady, warmed
/// and carrying superops).
struct Live {
    tracker: Tracker,
    handles: Vec<ThreadHandle>,
}

impl<'p> Bench<'p> {
    fn new(opts: &'p Options, prep: &'p Prepared) -> Self {
        Bench {
            opts,
            prep,
            checks: Checks::default(),
            tr: Tracer::default(),
            m: Meter::default(),
            rounds: Vec::new(),
            batches: LatencyBlocks::new(BATCH_BLOCK),
            queries: LatencyBlocks::new(QUERY_BLOCK),
            reference: BTreeMap::new(),
            first_round: None,
            twin_ns: Vec::new(),
            traced_ns: Vec::new(),
            forced_ns: Vec::new(),
            decoded_depth: (0, 0),
        }
    }

    fn plan(&self) -> &'p Plan {
        &self.prep.plan
    }

    /// Checks `counts` of a `kind` unit against the first such unit.
    fn repeat(&mut self, kind: &'static str, counts: &Counts) {
        match self.reference.get(kind) {
            None => {
                self.reference.insert(kind, counts.clone());
            }
            Some(first) => {
                let same = first == counts;
                let first = first.clone();
                self.checks.expect(same, || {
                    format!("{kind} counts changed between units: {first:?} then {counts:?}")
                });
            }
        }
    }

    /// Checks the decoded contexts in the meter against the plans.
    fn check_round(&mut self) {
        let plans = &self.plan().threads;
        let (n, bad) = check_decoded(plans.iter(), &self.m.decoded, &mut self.checks.first);
        self.checks.add(n, bad);
        for p in self.m.decoded.iter().flatten() {
            self.decoded_depth.0 += p.0.len() as u64;
            self.decoded_depth.1 += 1;
        }
        let batches: u64 = plans.iter().map(|p| p.batches).sum();
        let errors = self.m.errors.len() as u64;
        self.checks.add(batches, errors);
        if let Some(e) = self.m.errors.first() {
            self.checks.first.get_or_insert_with(|| e.clone());
        }
    }

    fn audit<const T: bool>(&mut self, tracker: &Tracker) {
        let r = self.between::<T, _>(Layer::CheckInvariants, || tracker.check_invariants());
        self.checks.expect(r.is_ok(), || {
            format!("check_invariants: {}", r.unwrap_err())
        });
    }

    fn stats<const T: bool>(&mut self, tracker: &Tracker) -> Counts {
        let s = self.between::<T, _>(Layer::Stats, || tracker.stats());
        counts_of(&s, tracker.slow_path_locks())
    }

    /// Runs `f`, as a span of `layer` when traced.
    #[inline]
    fn timed<const T: bool, R>(&mut self, layer: Layer, ops: u32, f: impl FnOnce() -> R) -> R {
        if T {
            self.tr.time(layer, ops, f)
        } else {
            f()
        }
    }

    /// Runs `f` between timed rounds, as the span of `layer` in a round of
    /// its own when traced.
    fn between<const T: bool, R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !T {
            return f();
        }
        self.tr.begin(Phase::Check);
        let r = self.tr.time(layer, 1, f);
        self.tr.end();
        r
    }

    /// A fresh tracker with every id defined. Part of every set-up.
    fn new_tracker<const T: bool>(&mut self) -> Tracker {
        let plan = self.plan();
        let tracker = self.timed::<T, _>(Layer::TrackerNew, 0, || Tracker::with_config(config()));
        let define = || {
            let fns = plan
                .functions
                .iter()
                .enumerate()
                .all(|(i, name)| tracker.define_function(name) == FunctionId::new(i as u32));
            let sites = (0..plan.sites).all(|i| tracker.define_call_site().raw() == i);
            fns && sites
        };
        let n = (plan.functions.len() + plan.sites as usize) as u32;
        let ok = self.timed::<T, _>(Layer::DefineIds, n, define);
        self.checks
            .expect(ok, || "tracker ids differ from the plan's".to_string());
        tracker
    }

    /// server-steady set-up: fresh tracker, ids, threads, one discovery
    /// pass, then superops mined from the streams and installed.
    fn server_setup<const T: bool>(&mut self) -> (Live, u64) {
        let plan = self.plan();
        self.m.clear();
        if T {
            self.tr.begin(Phase::Setup);
        }
        let s = Instant::now();
        let tracker = self.new_tracker::<T>();
        let mut handles: Vec<ThreadHandle> = Vec::with_capacity(plan.threads.len());
        for tp in &plan.threads {
            let th = register::<T>(&tracker, tp, &handles, &mut self.m, &mut self.tr, false);
            drive_thread::<T>(&tracker, &th, tp, &mut self.m, &mut self.tr);
            handles.push(th);
        }
        let profile = self.timed::<T, _>(Layer::ProfilerProfile, 1, || tracker.profiler_profile());
        let windows = self.timed::<T, _>(Layer::Mine, 1, || mine(plan, &profile));
        let installed =
            self.timed::<T, _>(Layer::Install, 1, || tracker.install_superops(&windows));
        let took = s.elapsed().as_nanos() as u64;
        if T {
            self.tr.end();
        }
        self.check_round();
        self.audit::<T>(&tracker);
        let mut counts = self.stats::<T>(&tracker);
        counts.insert("superop.installed", installed as u64);
        self.checks.expect(installed > 0, || {
            "server-steady set-up installed no superops".to_string()
        });
        self.repeat("setup", &counts);
        (Live { tracker, handles }, took)
    }

    /// One timed server-steady round: every thread's stream on its
    /// existing handle.
    fn server_round<const T: bool>(&mut self, live: &Live) -> u64 {
        let plan = self.plan();
        let before = self.stats::<T>(&live.tracker);
        self.m.clear();
        if T {
            self.tr.begin(Phase::Encode);
        }
        let s = Instant::now();
        for (tp, th) in plan.threads.iter().zip(&live.handles) {
            drive_thread::<T>(&live.tracker, th, tp, &mut self.m, &mut self.tr);
        }
        let took = s.elapsed().as_nanos() as u64;
        if T {
            self.tr.end();
        }
        self.check_round();
        self.audit::<T>(&live.tracker);
        let after = self.stats::<T>(&live.tracker);
        let counts = delta(&after, &before);
        // Trigger evaluations land on event-count marks, and superop
        // probes pause while a profiler sample is due; both carry phase
        // across round boundaries, so these repeat across processes (round
        // by round), not across rounds.
        let mut repeating = counts.clone();
        for k in ["tracker.slow_locks", "superop.hits", "superop.misses"] {
            repeating.remove(k);
        }
        let (traps, reencodes, hits) = (
            counts["patch.traps"],
            counts["reencode.count"],
            counts["superop.hits"],
        );
        self.checks
            .expect(traps == 0 && reencodes == 0 && hits > 0, || {
                format!(
                    "server-steady round must have 0 traps, 0 re-encodes and superop hits; \
                 saw {traps} traps, {reencodes} re-encodes, {hits} hits"
                )
            });
        self.repeat("round", &repeating);
        self.first_round.get_or_insert(counts);
        took
    }

    /// One perlbench-adaptive or thread-churn episode on a fresh tracker:
    /// the set-up (tracker, ids, main thread), then the replay of every
    /// thread. Returns `(setup_ns, episode_ns)`.
    fn episode<const T: bool>(&mut self) -> (u64, u64) {
        let plan = self.plan();
        self.m.clear();
        if T {
            self.tr.begin(Phase::Setup);
        }
        let s = Instant::now();
        let tracker = self.new_tracker::<T>();
        let main = register::<T>(
            &tracker,
            &plan.threads[0],
            &[],
            &mut self.m,
            &mut self.tr,
            false,
        );
        let setup_ns = s.elapsed().as_nanos() as u64;
        if T {
            self.tr.end();
            self.tr.begin(Phase::Encode);
        }
        let mut handles = vec![main];
        let s = Instant::now();
        drive_thread::<T>(
            &tracker,
            &handles[0],
            &plan.threads[0],
            &mut self.m,
            &mut self.tr,
        );
        for tp in &plan.threads[1..] {
            let th = register::<T>(&tracker, tp, &handles, &mut self.m, &mut self.tr, true);
            drive_thread::<T>(&tracker, &th, tp, &mut self.m, &mut self.tr);
            handles.push(th);
        }
        let episode_ns = s.elapsed().as_nanos() as u64;
        if T {
            self.tr.end();
        }
        self.check_round();
        self.audit::<T>(&tracker);
        let mut counts = self.stats::<T>(&tracker);
        let spawned = spawned_decoded(plan.threads.iter(), &self.m.decoded);
        counts.insert("threads.spawned_decoded", spawned);
        self.sanity(&counts);
        self.repeat("episode", &counts);
        if T {
            self.forced_reencode(&tracker);
        }
        drop(handles);
        drop(tracker);
        (setup_ns, episode_ns)
    }

    /// What each episode workload must exercise.
    fn sanity(&mut self, c: &Counts) {
        let plan = self.plan();
        match self.opts.workload {
            Workload::PerlbenchAdaptive => {
                let (traps, re, hits) = (c["patch.traps"], c["reencode.count"], c["superop.hits"]);
                self.checks.expect(traps > 0 && re > 0 && hits == 0, || {
                    format!(
                        "perlbench-adaptive must trap and re-encode without superops; \
                         saw {traps} traps, {re} re-encodes, {hits} superop hits"
                    )
                });
            }
            Workload::ThreadChurn => {
                // Counted from the tracker's decodes, not from the plan: a
                // spawned thread whose exit context lacks its creation
                // context was not registered as spawned from its parent.
                let want = plan.spawned() as u64;
                let got = c["threads.spawned_decoded"];
                let full = (self.opts.size - 1.0).abs() < f64::EPSILON;
                self.checks
                    .expect(got == want && (!full || want == 1000), || {
                        format!(
                            "thread-churn must register 1,000 spawned threads; \
                             {got} of the plan's {want} decoded with their creation context"
                        )
                    });
            }
            Workload::ServerSteady => {}
        }
    }

    fn forced_reencode(&mut self, tracker: &Tracker) {
        self.tr.begin(Phase::Check);
        let s = self.tr.now();
        let _ = tracker.request_reencode();
        let e = self.tr.now();
        self.tr.span(Layer::ForcedReencode, s, e, 1, false);
        self.tr.end();
        self.forced_ns.push(e - s);
        self.audit::<true>(tracker);
    }

    /// One offline round: parse, import and serial decode of the journal.
    fn offline<const T: bool>(&mut self) -> u64 {
        let prep = self.prep;
        if T {
            self.tr.begin(Phase::Offline);
        }
        let s = Instant::now();
        let out = self
            .timed::<T, _>(Layer::Parse, 1, || DecodeJournal::parse(&prep.journal_text))
            .map_err(|e| e.to_string())
            .and_then(|j| {
                let d = self
                    .timed::<T, _>(Layer::Import, 1, || import(&prep.export_text))
                    .map_err(|e| e.to_string())?;
                let ops = j.ops() as u32;
                self.timed::<T, _>(Layer::DecodeSerial, ops, || decode_serial(&j, &d))
                    .map_err(|e| e.to_string())
            });
        let took = s.elapsed().as_nanos() as u64;
        if T {
            self.tr.end();
        }
        match out {
            Ok(stream) => {
                let want = &prep.journal_lines;
                self.checks.expect(stream.lines.len() == want.len(), || {
                    format!(
                        "offline decode produced {} lines, the trace has {} decode points",
                        stream.lines.len(),
                        want.len()
                    )
                });
                for (got, want) in stream.lines.iter().zip(want) {
                    self.checks.expect(got == want, || {
                        format!("offline decode: got `{got}`, shadow stack has `{want}`")
                    });
                }
            }
            Err(e) => self.checks.expect(false, || format!("offline decode: {e}")),
        }
        took
    }

    fn round_rec(&mut self, kind: &'static str, ns: u64, work: u64) {
        let mut r = Round {
            kind,
            ns,
            work,
            encode_ns: 0,
        };
        if kind == "encode" {
            r.encode_ns = self.m.encode_ns;
            r.work = self.m.events;
            self.batches.add(&self.m.batch_ns);
            self.queries.add(&self.m.query_ns);
        }
        self.rounds.push(r);
    }
}

/// Mines superop windows from the plan's streams, ranked with the
/// profile's sampled leaf hotness.
fn mine(plan: &Plan, profile: &dacce::HotContextProfile) -> Vec<Vec<dacce::WindowOp>> {
    let cfg = config();
    let hot = leaf_weights(profile);
    let refs: Vec<&[BatchOp]> = plan.threads.iter().map(|t| t.ops.as_slice()).collect();
    mine_windows(
        &refs,
        cfg.superop_max_window.min(WINDOW),
        cfg.superop_max_table,
        |f| hot.get(&f).copied().unwrap_or(0),
    )
}

/// Runs the benchmark: load generation, then [`run_prepared`]. A traced
/// run first measures the per-registration RSS footprint. The peak RSS is
/// reset in between, so load generation does not set `peak_rss_mb`.
pub fn run(opts: &Options) -> Report {
    let ring_kb = if opts.traced {
        ring_footprint_kb()
    } else {
        0.0
    };
    let mut prep = prepare(opts.workload, opts.seed, opts.size);
    prep.ring_kb = ring_kb;
    let (load_peak_kb, peak_reset) = reset_peak_rss();
    Report {
        load_peak_kb,
        peak_reset,
        ..run_prepared(opts, &prep)
    }
}

/// Measures `prep` for `opts.seconds` and checks every output against it.
pub fn run_prepared(opts: &Options, prep: &Prepared) -> Report {
    let mut b = Bench::new(opts, prep);
    if opts.traced {
        measure::<true>(&mut b);
    } else {
        measure::<false>(&mut b);
    }
    let hwm_kb = status_kb("VmHWM:");
    let mut report = Report {
        checks: b.checks.clone(),
        ..Report::default()
    };
    if let Some(first) = b.first_round.take() {
        b.reference.insert("round", first);
    }
    for (kind, counts) in &b.reference {
        report
            .counts
            .extend(counts.iter().map(|(k, v)| (format!("{kind}.{k}"), *v)));
    }
    let plan = &prep.plan;
    report.input = BTreeMap::from([
        ("events_per_pass", plan.events()),
        ("threads", plan.threads.len() as u64),
        ("queries_per_pass", plan.queries()),
        (
            "batched_ops_per_pass",
            plan.threads.iter().map(|t| t.batched_ops).sum(),
        ),
        (
            "guard_ops_per_pass",
            plan.threads.iter().map(|t| t.guard_ops).sum(),
        ),
        ("journal_ops", prep.journal_ops),
        ("journal_decode_points", prep.journal_lines.len() as u64),
        ("functions", plan.functions.len() as u64),
        ("sites", u64::from(plan.sites)),
    ]);
    report.metrics = if opts.traced {
        crate::stats::per_layer(
            &b.tr,
            &report.counts,
            &LayerExtras {
                events_per_pass: plan.events(),
                forced_ns: &b.forced_ns,
                ring_kb: prep.ring_kb,
                depth: b.decoded_depth,
                twin_ns: &b.twin_ns,
                traced_ns: &b.traced_ns,
            },
        )
    } else {
        crate::stats::end_to_end(&b.rounds, b.batches.summary(), b.queries.summary(), hwm_kb)
    };
    if opts.traced {
        report.spans = Some(b.tr.dump());
    }
    report
}

/// Traced-run inputs to the per-layer summary besides the span totals.
pub struct LayerExtras<'a> {
    /// Events of one pass.
    pub events_per_pass: u64,
    /// Forced re-encode durations.
    pub forced_ns: &'a [u64],
    /// RSS growth per registration on fresh memory.
    pub ring_kb: f64,
    /// (summed depth, decoded contexts).
    pub depth: (u64, u64),
    /// Untraced twin round durations.
    pub twin_ns: &'a [f64],
    /// Traced round durations.
    pub traced_ns: &'a [f64],
}

fn measure<const T: bool>(b: &mut Bench<'_>) {
    let opts = b.opts;
    // Warm-up, not sampled: the first unit of work sets the reference
    // counts and brings the allocator and caches to their steady state.
    match opts.workload {
        Workload::ServerSteady => {
            let (mut live, _) = b.server_setup::<T>();
            b.server_round::<T>(&live);
            b.offline::<T>();
            let mut sched = Schedule::new(&[0.2, 0.55, 0.25], opts.seconds);
            while let Some(phase) = sched.next() {
                let s = Instant::now();
                match phase {
                    0 => {
                        // The fresh tracker takes over the timed rounds, so
                        // no tracker outlives a few dozen rounds: state that
                        // grows per sample stays bounded and peak RSS does
                        // not depend on how many rounds the host completes.
                        let (fresh, took) = b.server_setup::<T>();
                        live = fresh;
                        b.round_rec("setup", took, 1);
                    }
                    1 => {
                        let took = b.server_round::<T>(&live);
                        if T {
                            b.traced_ns.push(took as f64);
                            b.m.clear();
                            let twin = b.server_round::<false>(&live);
                            b.twin_ns.push(twin as f64);
                        } else {
                            b.round_rec("encode", took, 0);
                        }
                    }
                    _ => {
                        let took = b.offline::<T>();
                        b.round_rec("offline", took, b.prep.journal_ops);
                    }
                }
                sched.record(phase, s.elapsed());
            }
            if T {
                b.forced_reencode(&live.tracker);
            }
        }
        Workload::PerlbenchAdaptive | Workload::ThreadChurn => {
            b.episode::<T>();
            b.offline::<T>();
            let mut sched = Schedule::new(&[0.6, 0.4], opts.seconds);
            while let Some(phase) = sched.next() {
                let s = Instant::now();
                if phase == 0 {
                    let (setup, took) = b.episode::<T>();
                    b.round_rec("setup", setup, 1);
                    if T {
                        b.traced_ns.push(took as f64);
                        b.m.clear();
                        let (_, twin) = b.episode::<false>();
                        b.twin_ns.push(twin as f64);
                    } else {
                        b.round_rec("encode", took, 0);
                    }
                } else {
                    let took = b.offline::<T>();
                    b.round_rec("offline", took, b.prep.journal_ops);
                }
                sched.record(phase, s.elapsed());
            }
        }
    }
}
