//! [`ContextRuntime`] adapter: drives a [`DacceEngine`] from the
//! interpreter's call/return events.

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::runtime::{CallEvent, ContextRuntime, ReturnEvent, SampleResult};
use dacce_program::{CostModel, OracleStack, Program, ThreadId};

use crate::config::DacceConfig;
use crate::engine::DacceEngine;
use crate::lineage::EncodingLineage;
use crate::stats::DacceStats;
use crate::warm::{WarmStartReport, WarmStartSeed};

/// The DACCE context runtime (the paper's `dacce.so`).
#[derive(Debug)]
pub struct DacceRuntime {
    engine: DacceEngine,
    /// Seed applied at attach time, if warm starting.
    warm: Option<WarmStartSeed>,
    /// What the warm start loaded (populated at attach).
    warm_report: Option<WarmStartReport>,
    /// Lineage adopted at attach time, if joining a shared encoding.
    lineage: Option<EncodingLineage>,
}

impl DacceRuntime {
    /// Creates a runtime with the given configuration and cost model.
    pub fn new(config: DacceConfig, cost: CostModel) -> Self {
        DacceRuntime {
            engine: DacceEngine::new(config, cost),
            warm: None,
            warm_report: None,
            lineage: None,
        }
    }

    /// A runtime with default configuration and costs.
    pub fn with_defaults() -> Self {
        Self::new(DacceConfig::default(), CostModel::default())
    }

    /// A runtime that warm-starts the engine from `seed` when the program
    /// is attached (see [`crate::warm`]).
    pub fn with_warm_start(config: DacceConfig, cost: CostModel, seed: WarmStartSeed) -> Self {
        DacceRuntime {
            warm: Some(seed),
            ..Self::new(config, cost)
        }
    }

    /// A runtime that attaches to a shared encoding lineage when the
    /// program is attached, adopting the latest generation instead of
    /// rebuilding it (zero cold-start traps for every edge the lineage
    /// already encodes).
    pub fn with_lineage(config: DacceConfig, cost: CostModel, lineage: EncodingLineage) -> Self {
        DacceRuntime {
            lineage: Some(lineage),
            ..Self::new(config, cost)
        }
    }

    /// What the warm start loaded; `None` for cold runs (or before attach).
    pub fn warm_report(&self) -> Option<&WarmStartReport> {
        self.warm_report.as_ref()
    }

    /// Accesses the underlying engine (for experiment harnesses).
    pub fn engine(&self) -> &DacceEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut DacceEngine {
        &mut self.engine
    }

    /// Convenience: the engine statistics.
    pub fn stats(&self) -> DacceStats {
        self.engine.stats()
    }

    /// The observability handle (event journal + metrics registry).
    pub fn observability(&self) -> &crate::observe::Observability {
        self.engine.observability()
    }

    /// A point-in-time snapshot of every runtime metric (counters,
    /// histograms, per-generation dictionary table, id headroom).
    pub fn observe(&self) -> dacce_obs::MetricsSnapshot {
        self.engine.observability().snapshot()
    }
}

impl ContextRuntime for DacceRuntime {
    fn name(&self) -> &'static str {
        "dacce"
    }

    fn attach(&mut self, program: &Program) {
        if let Some(lineage) = self.lineage.take() {
            self.engine.attach_lineage(&lineage);
            // The lineage's root set already contains the founder's main;
            // registering again is an idempotent safety net in case the
            // attaching program's entry differs.
            self.engine.register_root(program.main);
        } else {
            self.engine.attach_main(program.main);
        }
        if let Some(seed) = self.warm.take() {
            self.warm_report = Some(self.engine.warm_start(&seed));
        }
    }

    fn on_thread_start(
        &mut self,
        tid: ThreadId,
        root: FunctionId,
        parent: Option<(ThreadId, CallSiteId)>,
    ) {
        self.engine.thread_start(tid, root, parent);
    }

    fn on_call(&mut self, ev: &CallEvent, _stack: &OracleStack) -> u64 {
        self.engine
            .call(ev.tid, ev.site, ev.caller, ev.callee, ev.dispatch, ev.tail)
    }

    fn on_return(&mut self, ev: &ReturnEvent, _stack: &OracleStack) -> u64 {
        self.engine.ret(ev.tid, ev.site, ev.caller, ev.callee)
    }

    fn on_thread_exit(&mut self, tid: ThreadId) {
        self.engine.thread_exit(tid);
    }

    fn on_root_reset(&mut self, tid: ThreadId) {
        self.engine.thread_reset(tid);
    }

    fn sample(&mut self, tid: ThreadId, _events: u64) -> (SampleResult, u64) {
        let (snap, cost) = self.engine.sample(tid);
        match self.engine.decode_counted(&snap) {
            Ok(path) => (SampleResult::Path(path), cost),
            Err(_) => (SampleResult::Unsupported, cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_program::builder::ProgramBuilder;
    use dacce_program::interp::{InterpConfig, Interpreter};
    use dacce_program::model::TargetChoice;

    /// End-to-end: a program exercising every call kind runs under DACCE
    /// with every sample validating against the oracle.
    #[test]
    fn full_program_validates_all_samples() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        let a = b.function("a");
        let bb = b.function("b");
        let rec = b.function("rec");
        let t1 = b.function("t1");
        let t2 = b.function("t2");
        let tail_target = b.function("tail_target");
        let lib = b.library("libz");
        let zfn = b.lib_function(lib, "compress");
        let table = b.table(vec![t1, t2]);
        b.body(main)
            .work(5)
            .call(a)
            .call_p(bb, [0.7, 0.3])
            .indirect(table, TargetChoice::Skewed { hot: 0.8 }, [0.9, 0.9], 2)
            .plt(zfn, [0.5, 0.5], 1)
            .done();
        b.body(a).work(2).call_p(rec, [0.8, 0.8]).done();
        b.body(bb).work(2).tail(tail_target, [0.6, 0.6]).done();
        b.body(rec).work(1).call_p(rec, [0.6, 0.6]).done();
        b.body(t1).work(1).done();
        b.body(t2).work(1).call_p(a, [0.3, 0.3]).done();
        b.body(tail_target).work(1).done();
        b.body(zfn).work(1).done();
        let p = b.build(main);

        let mut rt = DacceRuntime::with_defaults();
        let cfg = InterpConfig {
            budget_calls: 50_000,
            sample_every: 97,
            max_depth: 64,
            ..InterpConfig::default()
        };
        let report = Interpreter::new(&p, cfg).run(&mut rt);

        assert_eq!(report.mismatches, 0, "{:?}", report.mismatch_examples);
        assert_eq!(report.unsupported, 0, "every sample must decode");
        assert!(report.validated > 400);
        let stats = rt.stats();
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.unbalanced_resets, 0);
        assert!(stats.reencodes > 0, "adaptivity must kick in");
        // This micro-program does ~2 work units per call, so instrumentation
        // cost dominates; the realistic overhead numbers come from the
        // workload suite where call density matches the benchmarks.
        assert!(report.overhead() < 6.0, "overhead {}", report.overhead());
    }

    /// Multi-threaded end-to-end with spawned workers.
    #[test]
    fn multithreaded_program_validates() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        let worker = b.function("worker");
        let task = b.function("task");
        let leaf = b.function("leaf");
        b.body(main)
            .spawn(worker, [0.3, 0.3])
            .work(5)
            .call(task)
            .done();
        b.body(worker).work(3).call_rep(task, [1.0, 1.0], 8).done();
        b.body(task).work(2).call_p(leaf, [0.9, 0.9]).done();
        b.body(leaf).work(1).done();
        let p = b.build(main);

        let mut rt = DacceRuntime::with_defaults();
        let cfg = InterpConfig {
            budget_calls: 30_000,
            sample_every: 53,
            max_threads: 6,
            ..InterpConfig::default()
        };
        let report = Interpreter::new(&p, cfg).run(&mut rt);
        assert!(report.threads_spawned > 1);
        assert_eq!(report.mismatches, 0, "{:?}", report.mismatch_examples);
        assert_eq!(report.unsupported, 0);
        assert_eq!(rt.stats().decode_errors, 0);
    }

    /// The broken-tail-call ablation must corrupt encodings (Figure 7a).
    #[test]
    fn broken_tail_handling_corrupts_contexts() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        let c = b.function("c");
        let d = b.function("d");
        let e = b.function("e");
        // Two callers of d so its incoming edges get distinct encodings,
        // making the missing decrement observable (as in Figure 7a).
        b.body(main).call(c).call(e).done();
        b.body(c).work(1).tail(d, [1.0, 1.0]).done();
        b.body(e).work(1).call(d).done();
        b.body(d).work(1).done();
        let p = b.build(main);

        let run = |config| {
            let mut rt = DacceRuntime::new(config, CostModel::default());
            let cfg = InterpConfig {
                budget_calls: 20_000,
                sample_every: 7,
                ..InterpConfig::default()
            };
            let report = Interpreter::new(&p, cfg).run(&mut rt);
            (report, rt.stats())
        };

        let (good_report, good_stats) = run(DacceConfig::default());
        assert_eq!(
            good_report.mismatches, 0,
            "{:?}",
            good_report.mismatch_examples
        );
        assert_eq!(good_stats.unbalanced_resets, 0);

        let (bad_report, bad_stats) = run(DacceConfig::broken_tail_calls());
        assert!(
            bad_report.mismatches + bad_report.unsupported + bad_stats.unbalanced_resets > 0,
            "disabling §5.2 must corrupt the encoding"
        );
    }
}
