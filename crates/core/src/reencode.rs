//! Adaptive re-encoding (§4 of the paper) — engine orchestration.
//!
//! Re-encoding is triggered when (1) enough new call edges accumulated,
//! (2) the frequently invoked call paths changed, or (3) the `ccStack` is
//! accessed too frequently. The trigger evaluation and the graph-side core
//! (heat derivation, back-edge re-classification, encoding, dictionary
//! freeze under an incremented `gTimeStamp`, site re-patching) live in
//! [`crate::shared::SharedState`]; this module adds the *thread-state*
//! half on top for the engine, which owns every context: once the encoding
//! moved, every live thread migrates through the step core's one
//! migration path ([`crate::thread::ThreadState::migrate`]) — decode under
//! the old generation's dictionary, replay under the new patches — so the
//! state looks as if the new instrumentation had been in place from the
//! start (the paper rewrites return addresses on the machine stacks — see
//! `DESIGN.md`). The concurrent [`crate::Tracker`] runs the same shared
//! core and the same migration, lazily: each thread migrates itself at its
//! next epoch check.

use crate::engine::DacceEngine;
use crate::thread::ThreadState;

impl DacceEngine {
    /// Checks the three §4 triggers and re-encodes when one fires. Returns
    /// the cost charged (0 when nothing happened).
    pub(crate) fn maybe_reencode(&mut self) -> u64 {
        let (shared, threads) = (&mut self.shared, &self.threads);
        let live = || threads.values().map(|st| st.ctx.cc.ops()).sum::<u64>();
        if shared.should_reencode(&live) {
            self.reencode()
        } else {
            0
        }
    }

    /// The re-encoding procedure. Returns the cost charged.
    ///
    /// Attached (non-diverged) instances route through the shared lineage:
    /// if another tenant already published a newer generation it is
    /// adopted instead of re-encoding locally, and a locally applied
    /// re-encode is published for every other attached tenant.
    pub(crate) fn reencode(&mut self) -> u64 {
        self.drain_shards();
        let (_, cost) = self.shared.reencode_via_lineage();
        self.migrate_threads();
        let live = self.threads.values().map(|st| st.ctx.cc.ops()).sum();
        self.shared.reset_triggers(live);
        cost
    }

    /// Adopts a newer generation published into this engine's shared
    /// lineage, if one exists, migrating every live thread eagerly (the
    /// engine has no lazy snapshot path). Returns `true` on adoption.
    pub fn poll_lineage(&mut self) -> bool {
        self.drain_shards();
        if !self.shared.adopt_pending_lineage() {
            return false;
        }
        self.migrate_threads();
        true
    }

    /// Moves every thread's shard counters into the shared statistics, so
    /// the progress point a new generation records counts every call so
    /// far.
    fn drain_shards(&mut self) {
        for st in self.threads.values_mut() {
            self.shared
                .stats
                .absorb_shard(&std::mem::take(&mut st.shard));
        }
    }

    /// Migrates every live thread to the current encoding, in thread-id
    /// order so the journal's migration events are deterministic.
    fn migrate_threads(&mut self) {
        let mut live: Vec<&mut ThreadState> = self.threads.values_mut().collect();
        live.sort_unstable_by_key(|st| st.tid);
        let writer = &self.shared.obs_writer;
        for st in live {
            st.migrate(&self.shared, writer, writer.enabled());
        }
    }
}

#[cfg(test)]
mod tests {
    use dacce_program::runtime::CallDispatch;
    use dacce_program::{CostModel, ThreadId};

    use dacce_callgraph::{CallSiteId, FunctionId};

    use crate::config::DacceConfig;
    use crate::engine::DacceEngine;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    /// An engine that re-encodes eagerly (tiny thresholds, no cool-down).
    fn eager_engine() -> DacceEngine {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e
    }

    #[test]
    fn edge_threshold_triggers_reencode() {
        let mut e = eager_engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        assert_eq!(e.stats().reencodes, 0);
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(2),
            CallDispatch::Direct,
            false,
        );
        assert_eq!(e.stats().reencodes, 1, "second new edge fires trigger 1");
        assert_eq!(e.timestamp().raw(), 1);
        assert_eq!(e.dicts().len(), 2);
    }

    #[test]
    fn reencode_regenerates_live_thread_state() {
        let mut e = eager_engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(2),
            CallDispatch::Direct,
            false,
        );
        // Re-encoding happened with two active frames; both edges are now
        // encoded with delta 0 (single incoming each), so the regenerated
        // state is id = 0 with an empty ccStack.
        let (snap, _) = e.sample(ThreadId::MAIN);
        assert_eq!(snap.id, 0);
        assert_eq!(snap.cc_depth(), 0);
        // And it still decodes to the true path.
        let path = e.decode(&snap).unwrap();
        let funcs: Vec<FunctionId> = path.0.iter().map(|p| p.func).collect();
        assert_eq!(funcs, vec![f(0), f(1), f(2)]);
        // Unwinding restores the clean state under the new encoding.
        let _ = e.ret(ThreadId::MAIN, s(1), f(1), f(2));
        let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        let (snap, _) = e.sample(ThreadId::MAIN);
        assert_eq!(snap.id, 0);
        assert_eq!(snap.cc_depth(), 0);
    }

    #[test]
    fn samples_recorded_before_reencode_still_decode() {
        let mut e = eager_engine();
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let (old_snap, _) = e.sample(ThreadId::MAIN);
        assert_eq!(old_snap.ts.raw(), 0);
        // Trigger a re-encode.
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(2),
            CallDispatch::Direct,
            false,
        );
        assert_eq!(e.timestamp().raw(), 1);
        // The old sample decodes against dictionary 0.
        let path = e.decode(&old_snap).unwrap();
        let funcs: Vec<FunctionId> = path.0.iter().map(|p| p.func).collect();
        assert_eq!(funcs, vec![f(0), f(1)]);
    }

    #[test]
    fn no_reencoding_config_never_reencodes() {
        let mut e = DacceEngine::new(DacceConfig::no_reencoding(), CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for i in 1..40u32 {
            let _ = e.call(
                ThreadId::MAIN,
                s(i),
                f(i - 1),
                f(i),
                CallDispatch::Direct,
                false,
            );
        }
        assert_eq!(e.stats().reencodes, 0);
        assert_eq!(e.timestamp().raw(), 0);
        // Everything is on the ccStack.
        let (snap, _) = e.sample(ThreadId::MAIN);
        assert_eq!(snap.cc_depth(), 39);
        let path = e.decode(&snap).unwrap();
        assert_eq!(path.depth(), 40);
    }

    #[test]
    fn recursion_gets_compressed_after_reencode() {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            compression_min_heat: 1,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        // Build recursion: main -> rec -> rec -> ... The self edge is
        // discovered, re-encoding classifies it as a back edge, and (heat
        // permitting) compresses it.
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        for _ in 0..40 {
            let _ = e.call(
                ThreadId::MAIN,
                s(1),
                f(1),
                f(1),
                CallDispatch::Direct,
                false,
            );
        }
        assert!(e.stats().reencodes >= 1);
        let (snap, _) = e.sample(ThreadId::MAIN);
        // Deep self-recursion with identical state compresses into very few
        // physical entries.
        assert!(
            snap.cc_depth() <= 3,
            "compressed depth {} too large",
            snap.cc_depth()
        );
        let path = e.decode(&snap).unwrap();
        assert_eq!(path.depth(), 42, "logical depth preserved");
        // Unwind everything; state must return to clean.
        for _ in 0..40 {
            let _ = e.ret(ThreadId::MAIN, s(1), f(1), f(1));
        }
        let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        let (snap, _) = e.sample(ThreadId::MAIN);
        assert_eq!(snap.id, 0);
        assert_eq!(snap.cc_depth(), 0);
    }

    #[test]
    fn hot_edge_gets_encoding_zero_after_reencode() {
        // Disable automatic triggers; this test drives re-encoding manually
        // to control exactly what heat it sees.
        let cfg = DacceConfig {
            edge_threshold: usize::MAX,
            min_events_between_reencodes: u64::MAX,
            sample_ring: 64,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        // Two callers of f3: site 1 (from f1, hot) and site 2 (from f2).
        // Cold path once.
        let _ = e.call(
            ThreadId::MAIN,
            s(3),
            f(0),
            f(2),
            CallDispatch::Direct,
            false,
        );
        let _ = e.call(
            ThreadId::MAIN,
            s(2),
            f(2),
            f(3),
            CallDispatch::Direct,
            false,
        );
        let _ = e.ret(ThreadId::MAIN, s(2), f(2), f(3));
        let _ = e.ret(ThreadId::MAIN, s(3), f(0), f(2));
        // Hot path f0 -> f1 -> f3, exercised and sampled many times.
        for _ in 0..30 {
            let _ = e.call(
                ThreadId::MAIN,
                s(0),
                f(0),
                f(1),
                CallDispatch::Direct,
                false,
            );
            let _ = e.call(
                ThreadId::MAIN,
                s(1),
                f(1),
                f(3),
                CallDispatch::Direct,
                false,
            );
            let _ = e.sample(ThreadId::MAIN);
            let _ = e.ret(ThreadId::MAIN, s(1), f(1), f(3));
            let _ = e.ret(ThreadId::MAIN, s(0), f(0), f(1));
        }
        let _ = e.reencode();
        assert_eq!(e.stats().reencodes, 1);
        // After re-encoding with heat ordering, the hot edge f1->f3 must be
        // encoded 0 and the cold edge f2->f3 must be encoded 1.
        let dict = e.dicts().latest().unwrap();
        let hot = dict.get_edge(s(1), f(3)).unwrap();
        let cold = dict.get_edge(s(2), f(3)).unwrap();
        assert_eq!(hot.encoding, 0, "hot edge must be free");
        assert_eq!(cold.encoding, 1, "cold edge pays");
    }
}
