//! Differential tests for the continuous profiler.
//!
//! 1. **Weighted sub-multiset** — on every suite workload, the profiler's
//!    decoded profile must be a weighted sub-multiset of the profile a
//!    *shadow* sampler collects at the same program points: each thread's
//!    sampler is deterministic in `(stride, seed ^ tid, budget)` and the
//!    per-thread tick sequence, so an external replica predicts exactly
//!    which call events fire and with what weight. The runtime's ring and
//!    backlog are capacity-bounded (they may *drop* samples, oldest
//!    first) but must never invent a context or inflate a weight. The
//!    same model holds for the tracker's guards and for the interpreter-
//!    driven engine (`DacceRuntime`) on multi-threaded workloads, where
//!    the shadow also predicts the engine's exact sample counts.
//! 2. **Feedback soundness** — with `profiler_feedback` on, re-encoding
//!    consumes sampled hotness when picking hottest incoming edges. That
//!    may change *which* edges get the cheap encodings, but every context
//!    must still decode to exactly the path the feedback-off run decodes
//!    at the same op.

use std::collections::HashMap;

use dacce::tracker::Tracker;
use dacce::{DacceConfig, DacceRuntime};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_obs::Sampler;
use dacce_program::{
    CallEvent, ContextPath, ContextRuntime, OracleStack, Program, ReturnEvent, SampleResult,
    ThreadId,
};
use dacce_workloads::batch::{ThreadStart, TraceOp, WorkloadTrace};
use dacce_workloads::chaos::{chaos_trace, replay_sampled};
use dacce_workloads::{all_benchmarks, run_with, BenchSpec, DriverConfig};

fn scale() -> f64 {
    std::env::var("DACCE_PROFILER_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02)
}

/// Replays `trace` with guards only (one `enter` per call op, so the
/// thread's sampler ticks exactly once per call) while a shadow sampler
/// with the same parameters predicts every fire and records the decoded
/// context at that point. Returns the shadow profile and the tracker.
fn replay_with_shadow(
    trace: &WorkloadTrace,
    config: &DacceConfig,
) -> (HashMap<ContextPath, u64>, u64, Tracker) {
    let tracker = Tracker::with_config(config.clone());
    let mut fn_map: HashMap<FunctionId, FunctionId> = HashMap::new();
    let mut site_map: HashMap<CallSiteId, CallSiteId> = HashMap::new();
    let mut handles: HashMap<ThreadId, dacce::tracker::ThreadHandle> = HashMap::new();
    let mut shadow: HashMap<ContextPath, u64> = HashMap::new();
    let mut shadow_total = 0u64;

    for &ThreadStart { tid, root, parent } in &trace.threads {
        let root = *fn_map
            .entry(root)
            .or_insert_with(|| tracker.define_function(&format!("fn{}", root.index())));
        let th = match parent {
            None => tracker.register_thread(root),
            Some((ptid, psite)) => {
                let psite = *site_map
                    .entry(psite)
                    .or_insert_with(|| tracker.define_call_site());
                let parent = handles.get(&ptid).expect("parent registered before child");
                tracker.register_spawned_thread(root, parent, psite)
            }
        };
        handles.insert(tid, th);
        let th = &handles[&tid];
        let mut sampler = Sampler::new(
            config.profiler_stride,
            config.profiler_seed ^ u64::from(th.id().raw()),
            config.profiler_budget,
        );

        let mut guards = Vec::new();
        for op in &trace.traces[&tid] {
            match *op {
                TraceOp::Call {
                    site,
                    target,
                    indirect,
                } => {
                    let site = *site_map
                        .entry(site)
                        .or_insert_with(|| tracker.define_call_site());
                    let target = *fn_map.entry(target).or_insert_with(|| {
                        tracker.define_function(&format!("fn{}", target.index()))
                    });
                    guards.push(if indirect {
                        th.call_indirect(site, target)
                    } else {
                        th.call(site, target)
                    });
                    if let Some(weight) = sampler.tick() {
                        let ctx = th.sample();
                        let path = tracker.decode(&ctx).expect("engine contexts decode");
                        *shadow.entry(path).or_insert(0) += weight;
                        shadow_total += weight;
                    }
                }
                TraceOp::Ret => drop(guards.pop().expect("balanced trace")),
            }
        }
        while let Some(g) = guards.pop() {
            drop(g);
        }
    }
    (shadow, shadow_total, tracker)
}

#[test]
fn sampled_profile_is_weighted_submultiset_on_every_suite_workload() {
    let cfg = DriverConfig {
        scale: scale(),
        ..DriverConfig::default()
    };
    // A small prime stride so even scaled-down workloads fire plenty of
    // samples; an eager re-encode config so samples straddle generations.
    let dacce_cfg = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 64,
        profiler_stride: 61,
        ..DacceConfig::default()
    };
    for spec in all_benchmarks() {
        let trace = chaos_trace(&spec, &cfg);
        let (shadow, shadow_total, tracker) = replay_with_shadow(&trace, &dacce_cfg);
        assert!(
            shadow_total <= trace.calls(),
            "{}: shadow weights {} overcount {} call events",
            spec.name,
            shadow_total,
            trace.calls()
        );
        let profile = tracker.profiler_profile();
        assert!(
            profile.total() <= shadow_total,
            "{}: profile weight {} exceeds shadow weight {}",
            spec.name,
            profile.total(),
            shadow_total
        );
        for (path, weight) in profile.top(profile.distinct()) {
            let shadow_weight = shadow.get(&path).copied().unwrap_or(0);
            assert!(
                weight <= shadow_weight,
                "{}: profiled context carries weight {} but the shadow sampler \
                 only saw {} at {}",
                spec.name,
                weight,
                shadow_weight,
                tracker.format_path(&path)
            );
        }
        tracker.check_invariants().expect("invariants hold");
    }
}

/// Forwards every interpreter event to a [`DacceRuntime`] while a shadow
/// sampler per thread, seeded `seed ^ tid` like the engine's own, predicts
/// each profiler fire and records the engine's decoded context there.
struct ShadowedRuntime {
    inner: DacceRuntime,
    config: DacceConfig,
    samplers: HashMap<ThreadId, Sampler>,
    shadow: HashMap<ContextPath, u64>,
    fires: u64,
    weight: u64,
}

impl ContextRuntime for ShadowedRuntime {
    fn name(&self) -> &'static str {
        "dacce-shadowed"
    }

    fn attach(&mut self, program: &Program) {
        self.inner.attach(program);
    }

    fn on_thread_start(
        &mut self,
        tid: ThreadId,
        root: FunctionId,
        parent: Option<(ThreadId, CallSiteId)>,
    ) {
        let c = &self.config;
        let seed = c.profiler_seed ^ u64::from(tid.raw());
        let sampler = Sampler::new(c.profiler_stride, seed, c.profiler_budget);
        self.samplers.insert(tid, sampler);
        self.inner.on_thread_start(tid, root, parent);
    }

    fn on_call(&mut self, ev: &CallEvent, stack: &OracleStack) -> u64 {
        let cost = self.inner.on_call(ev, stack);
        let sampler = self.samplers.get_mut(&ev.tid).expect("thread started");
        if let Some(weight) = sampler.tick() {
            let engine = self.inner.engine();
            let path = engine
                .decode(&engine.snapshot(ev.tid))
                .expect("engine contexts decode");
            *self.shadow.entry(path).or_insert(0) += weight;
            self.fires += 1;
            self.weight += weight;
        }
        cost
    }

    fn on_return(&mut self, ev: &ReturnEvent, stack: &OracleStack) -> u64 {
        self.inner.on_return(ev, stack)
    }

    fn on_thread_exit(&mut self, tid: ThreadId) {
        self.inner.on_thread_exit(tid);
    }

    fn on_root_reset(&mut self, tid: ThreadId) {
        self.inner.on_root_reset(tid);
    }

    fn sample(&mut self, tid: ThreadId, events: u64) -> (SampleResult, u64) {
        self.inner.sample(tid, events)
    }
}

#[test]
fn engine_samples_each_thread_on_its_own_stream() {
    let cfg = DriverConfig {
        scale: scale(),
        ..DriverConfig::default()
    };
    let config = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 64,
        profiler_stride: 61,
        ..DacceConfig::default()
    };
    let specs: Vec<BenchSpec> = all_benchmarks()
        .into_iter()
        .filter(|s| s.threads > 1)
        .collect();
    assert!(!specs.is_empty(), "the suite has multi-threaded workloads");
    for spec in &specs {
        let mut rt = ShadowedRuntime {
            inner: DacceRuntime::new(config.clone(), cfg.cost.clone()),
            config: config.clone(),
            samplers: HashMap::new(),
            shadow: HashMap::new(),
            fires: 0,
            weight: 0,
        };
        let report = run_with(spec, &cfg, &mut rt);
        assert!(rt.samplers.len() > 1, "{}: several threads ran", spec.name);
        assert!(rt.fires > 0, "{}: the shadow sampler fired", spec.name);
        let metrics = rt.inner.observe();
        assert_eq!(
            (metrics.profiler_samples, metrics.profiler_sample_weight),
            (rt.fires, rt.weight),
            "{}: the engine's samples follow the per-thread stream model",
            spec.name
        );
        assert!(
            rt.weight <= report.calls,
            "{}: weights overcount",
            spec.name
        );
        let profile = rt.inner.engine_mut().profiler_profile();
        assert!(
            profile.total() <= rt.weight,
            "{}: profile weight",
            spec.name
        );
        for (path, weight) in profile.top(profile.distinct()) {
            let shadow_weight = rt.shadow.get(&path).copied().unwrap_or(0);
            assert!(
                weight <= shadow_weight,
                "{}: profiled context carries weight {} but the shadow sampler \
                 only saw {}",
                spec.name,
                weight,
                shadow_weight
            );
        }
        rt.inner
            .engine()
            .check_invariants()
            .expect("invariants hold");
    }
}

#[test]
fn profiler_feedback_never_changes_decoded_contexts() {
    let cfg = DriverConfig {
        scale: scale(),
        ..DriverConfig::default()
    };
    let base = DacceConfig {
        edge_threshold: 4,
        min_events_between_reencodes: 32,
        profiler_stride: 61,
        ..DacceConfig::default()
    };
    let specs = [
        BenchSpec::tiny("profiler-feedback-a", 29),
        BenchSpec::tiny("profiler-feedback-b", 31),
    ];
    for spec in &specs {
        let trace = chaos_trace(spec, &cfg);
        let off = replay_sampled(&trace, base.clone());
        let on = replay_sampled(
            &trace,
            DacceConfig {
                profiler_feedback: true,
                ..base.clone()
            },
        );
        assert_eq!(off.decode_failures, 0, "{}: clean run decodes", spec.name);
        assert_eq!(on.decode_failures, 0, "{}: feedback run decodes", spec.name);
        assert_eq!(
            off.paths, on.paths,
            "{}: profiler feedback changed a decoded context",
            spec.name
        );
        assert!(on.invariant_error.is_none(), "{}: invariants", spec.name);
    }
}
