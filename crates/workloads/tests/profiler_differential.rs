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

use dacce::tracker::{ThreadHandle, Tracker};
use dacce::{DacceConfig, DacceRuntime};
use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_obs::Sampler;
use dacce_program::{
    CallEvent, ContextPath, ContextRuntime, OracleStack, PathStep, Program, ReturnEvent,
    SampleResult, ThreadId,
};
use dacce_workloads::batch::TraceOp;
use dacce_workloads::chaos::{chaos_trace, replay_sampled};
use dacce_workloads::{
    all_benchmarks, replay_guarded, run_with, BenchSpec, DriverConfig, ReplayStep, ReplayVisitor,
};

fn scale() -> f64 {
    std::env::var("DACCE_PROFILER_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02)
}

/// A shadow sampler per thread with the tracker's own parameters: on a
/// guard-only replay each call op enters the runtime once, so the shadow
/// ticks in step with the thread's sampler, predicts every fire and
/// records the decoded context there.
struct ShadowSampler<'t> {
    tracker: &'t Tracker,
    config: &'t DacceConfig,
    sampler: Option<Sampler>,
    shadow: HashMap<ContextPath, u64>,
    total: u64,
}

impl ReplayVisitor for ShadowSampler<'_> {
    fn start(&mut self, _: ThreadId, th: &ThreadHandle, _: &[TraceOp]) {
        let c = self.config;
        let seed = c.profiler_seed ^ u64::from(th.id().raw());
        self.sampler = Some(Sampler::new(c.profiler_stride, seed, c.profiler_budget));
    }

    fn step(&mut self, th: &ThreadHandle, step: ReplayStep, _: usize, expected: &[PathStep]) {
        if !matches!(step, ReplayStep::Call { .. }) {
            return;
        }
        if let Some(weight) = self.sampler.as_mut().expect("thread started").tick() {
            let path = self
                .tracker
                .decode(&th.sample())
                .expect("engine contexts decode");
            assert_eq!(path.0, expected, "sampled context matches the trace");
            *self.shadow.entry(path).or_insert(0) += weight;
            self.total += weight;
        }
    }
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
        let tracker = Tracker::with_config(dacce_cfg.clone());
        let mut visitor = ShadowSampler {
            tracker: &tracker,
            config: &dacce_cfg,
            sampler: None,
            shadow: HashMap::new(),
            total: 0,
        };
        replay_guarded(&tracker, &trace, &mut visitor);
        let (shadow, shadow_total) = (visitor.shadow, visitor.total);
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
        assert_eq!(on.shadow_mismatches, 0, "{}: feedback run", spec.name);
        assert!(on.invariant_error.is_none(), "{}: invariants", spec.name);
    }
}
