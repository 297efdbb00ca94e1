//! The encoding-context stack (`ccStack`).
//!
//! Call paths that contain unencoded or recursive edges are split into
//! acyclic sub-paths (§3 of the paper); before such an edge is taken, the
//! current encoding context `<id, callsite, target>` is pushed, and the id
//! is reset to `maxID + 1` so that decoders can tell the sub-path apart.
//! Highly repetitive recursion is compressed with a repetition counter on
//! the top entry (§3.3, Figure 5e).

use dacce_callgraph::{CallSiteId, FunctionId};

/// One `ccStack` entry: the suspended id, the call site of the unencoded /
/// recursive edge, its target, and the number of *additional* compressed
/// repetitions of the same boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CcEntry {
    /// The context id at the moment the edge was taken.
    pub id: u64,
    /// The call site of the unencoded edge.
    pub site: CallSiteId,
    /// The target function of the unencoded edge (the head of the sub-path
    /// that follows).
    pub target: FunctionId,
    /// Extra repetitions compressed into this entry (0 = pushed once).
    pub count: u64,
}

/// A per-thread encoding-context stack with operation statistics.
///
/// Under an injected overflow limit ([`CcStack::set_spill_limit`]) the
/// stack never refuses a push: once the resident region exceeds the
/// limit, the *bottom* entries — the coldest, only needed again when the
/// thread unwinds that deep — are shed to a heap spill region down to a
/// watermark of half the limit. No entry is ever dropped, so decoding is
/// unaffected; the spill is bookkeeping standing in for the mmap'd
/// overflow arena a production runtime would page cold frames into.
#[derive(Clone, Debug, Default)]
pub struct CcStack {
    entries: Vec<CcEntry>,
    ops: u64,
    max_depth: usize,
    /// Injected resident-region limit; `None` = unbounded (no fault).
    spill_limit: Option<usize>,
    /// Entries at the bottom currently shed to the spill region.
    spilled: usize,
    spill_events: u64,
    spilled_peak: usize,
}

impl CcStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current depth (number of entries).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Greatest depth ever reached.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Total push/pop/compress operations performed (Table 1's `ccStack/s`
    /// numerator).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True when no entry is on the stack.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The top entry, if any.
    pub fn top(&self) -> Option<&CcEntry> {
        self.entries.last()
    }

    /// Pushes a plain (uncompressed) entry: the Figure 2b instrumentation.
    pub fn push(&mut self, id: u64, site: CallSiteId, target: FunctionId) {
        self.ops += 1;
        self.entries.push(CcEntry {
            id,
            site,
            target,
            count: 0,
        });
        self.max_depth = self.max_depth.max(self.entries.len());
        self.maybe_spill();
    }

    /// The compressed push of Figure 5e: if `<id, site, target>` equals the
    /// top entry, increments its repetition counter instead of pushing.
    /// Returns `true` when compression hit.
    pub fn push_compressed(&mut self, id: u64, site: CallSiteId, target: FunctionId) -> bool {
        self.ops += 1;
        if let Some(top) = self.entries.last_mut() {
            if top.id == id && top.site == site && top.target == target {
                top.count += 1;
                return true;
            }
        }
        self.entries.push(CcEntry {
            id,
            site,
            target,
            count: 0,
        });
        self.max_depth = self.max_depth.max(self.entries.len());
        self.maybe_spill();
        false
    }

    /// Pops one plain entry and returns its saved id.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty — balanced instrumentation never
    /// underflows.
    pub fn pop(&mut self) -> u64 {
        self.ops += 1;
        let id = self.entries.pop().expect("ccStack underflow").id;
        self.unspill_to_len();
        id
    }

    /// The compressed pop of Figure 5e: restores the saved id and either
    /// decrements the top counter or removes the entry.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pop_compressed(&mut self) -> u64 {
        self.ops += 1;
        let top = self.entries.last_mut().expect("ccStack underflow");
        let id = top.id;
        if top.count > 0 {
            top.count -= 1;
        } else {
            self.entries.pop();
            self.unspill_to_len();
        }
        id
    }

    /// Truncates the stack to `len` entries (the TcStack absolute restore
    /// discards entries pushed by a tail-call chain, §5.2).
    pub fn truncate(&mut self, len: usize) {
        if len < self.entries.len() {
            self.ops += 1;
            self.entries.truncate(len);
            self.unspill_to_len();
        }
    }

    /// Resets the top entry's repetition counter (the second half of the
    /// TcStack absolute restore: a compressed push that hit the top
    /// incremented its count without growing the stack, and a tail call in
    /// the callee means no balancing pop ever ran).
    pub fn restore_top_count(&mut self, count: u64) {
        if let Some(top) = self.entries.last_mut() {
            top.count = count;
        }
    }

    /// Folds a superop's memoized ccStack effect into the statistics: a
    /// balanced window restores the entries exactly, so only the
    /// operation count and the max-depth high-water mark move. Callers
    /// must have checked that no spill limit is armed (superop guards
    /// bail to the per-event path otherwise).
    pub(crate) fn apply_bulk(&mut self, ops: u64, peak_depth: usize) {
        debug_assert!(
            self.spill_limit.is_none(),
            "superop applied with spill armed"
        );
        self.ops += ops;
        self.max_depth = self.max_depth.max(peak_depth);
    }

    /// True when an injected resident-region limit is armed (superops
    /// must then run every push/pop for real to keep spill bookkeeping).
    pub(crate) fn spill_armed(&self) -> bool {
        self.spill_limit.is_some()
    }

    /// Removes all entries (thread restart).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.spilled = 0;
    }

    /// The entries bottom-to-top (for samples and regeneration).
    pub fn entries(&self) -> &[CcEntry] {
        &self.entries
    }

    /// Logical depth counting compressed repetitions, i.e. the number of
    /// boundaries an uncompressed stack would hold.
    pub fn logical_depth(&self) -> u64 {
        self.entries.iter().map(|e| e.count + 1).sum()
    }

    /// Arms (or disarms) the injected resident-region limit. Limits below
    /// 2 are clamped so the watermark stays meaningful.
    pub fn set_spill_limit(&mut self, limit: Option<usize>) {
        self.spill_limit = limit.map(|l| l.max(2));
    }

    /// Entries currently shed to the heap spill region.
    pub fn spilled(&self) -> usize {
        self.spilled
    }

    /// Watermark shedding events performed since the previous take (each
    /// sheds a batch); the count restarts at zero.
    pub fn take_spill_events(&mut self) -> u64 {
        std::mem::take(&mut self.spill_events)
    }

    /// Greatest number of entries ever resident in the spill region.
    pub fn spilled_peak(&self) -> usize {
        self.spilled_peak
    }

    /// Sheds the bottom of the stack to the spill region when the
    /// resident part exceeds the injected limit, down to a watermark of
    /// half the limit.
    fn maybe_spill(&mut self) {
        let Some(limit) = self.spill_limit else {
            return;
        };
        let resident = self.entries.len() - self.spilled;
        if resident > limit {
            let watermark = (limit / 2).max(1);
            self.spilled += resident - watermark;
            self.spill_events += 1;
            self.spilled_peak = self.spilled_peak.max(self.spilled);
        }
    }

    /// Pages entries back in as unwinding reaches the spill boundary.
    fn unspill_to_len(&mut self) {
        if self.spilled > self.entries.len() {
            self.spilled = self.entries.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }
    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut st = CcStack::new();
        st.push(7, s(1), f(2));
        st.push(9, s(3), f(4));
        assert_eq!(st.depth(), 2);
        assert_eq!(st.top().unwrap().id, 9);
        assert_eq!(st.pop(), 9);
        assert_eq!(st.pop(), 7);
        assert!(st.is_empty());
        assert_eq!(st.ops(), 4);
        assert_eq!(st.max_depth(), 2);
    }

    #[test]
    fn compression_collapses_identical_boundaries() {
        let mut st = CcStack::new();
        assert!(!st.push_compressed(2, s(1), f(0)));
        assert!(st.push_compressed(2, s(1), f(0)));
        assert!(st.push_compressed(2, s(1), f(0)));
        assert_eq!(st.depth(), 1);
        assert_eq!(st.top().unwrap().count, 2);
        assert_eq!(st.logical_depth(), 3);
        // Pops mirror the pushes.
        assert_eq!(st.pop_compressed(), 2);
        assert_eq!(st.top().unwrap().count, 1);
        assert_eq!(st.pop_compressed(), 2);
        assert_eq!(st.pop_compressed(), 2);
        assert!(st.is_empty());
    }

    #[test]
    fn compression_misses_on_different_state() {
        let mut st = CcStack::new();
        st.push_compressed(2, s(1), f(0));
        // Different id: no compression.
        assert!(!st.push_compressed(3, s(1), f(0)));
        // Different site: no compression.
        assert!(!st.push_compressed(3, s(2), f(0)));
        // Different target: no compression.
        assert!(!st.push_compressed(3, s(2), f(1)));
        assert_eq!(st.depth(), 4);
    }

    #[test]
    fn figure5_sequence_matches_paper() {
        // Figure 5f: after re-encoding, trace A C D A D A D A D produces
        // ccStack (1,D,A,0) | (2,D,A,1) with the D->A site as boundary.
        let da = s(10); // the D -> A recursive site
        let a = f(0);
        let mut st = CcStack::new();
        st.push_compressed(1, da, a); // first D -> A, id was 1
        st.push_compressed(2, da, a); // second D -> A, id was 2
        st.push_compressed(2, da, a); // third D -> A, identical state
        assert_eq!(st.depth(), 2);
        assert_eq!(
            st.entries(),
            &[
                CcEntry {
                    id: 1,
                    site: da,
                    target: a,
                    count: 0
                },
                CcEntry {
                    id: 2,
                    site: da,
                    target: a,
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn truncate_discards_tail_garbage() {
        let mut st = CcStack::new();
        st.push(1, s(1), f(1));
        st.push(2, s(2), f(2));
        st.push(3, s(3), f(3));
        st.truncate(1);
        assert_eq!(st.depth(), 1);
        assert_eq!(st.top().unwrap().id, 1);
        // Truncating to a larger length is a no-op.
        let ops = st.ops();
        st.truncate(5);
        assert_eq!(st.ops(), ops);
    }

    #[test]
    #[should_panic(expected = "ccStack underflow")]
    fn pop_empty_panics() {
        CcStack::new().pop();
    }

    #[test]
    fn spill_sheds_to_watermark_and_loses_nothing() {
        let mut st = CcStack::new();
        st.set_spill_limit(Some(4));
        for i in 0..10u64 {
            st.push(i, s(1), f(1));
        }
        // Every entry is still present (soundness), but the resident
        // region was shed to the watermark at least once.
        assert_eq!(st.depth(), 10);
        assert!(st.take_spill_events() > 0);
        assert_eq!(st.take_spill_events(), 0);
        assert!(st.spilled() > 0);
        assert!(st.spilled_peak() >= st.spilled());
        assert!(st.depth() - st.spilled() <= 4);
        // Unwinding pops every id back in order; the spill region pages
        // back in as the boundary is reached.
        for i in (0..10u64).rev() {
            assert_eq!(st.pop(), i);
        }
        assert!(st.is_empty());
        assert_eq!(st.spilled(), 0);
    }

    #[test]
    fn spill_limit_is_clamped_and_optional() {
        let mut st = CcStack::new();
        st.set_spill_limit(Some(0)); // clamped to 2
        st.push(1, s(1), f(1));
        st.push(2, s(1), f(1));
        st.push(3, s(1), f(1));
        assert_eq!(st.depth(), 3);
        assert!(st.spilled() > 0);
        st.set_spill_limit(None);
        for i in 0..20u64 {
            st.push(i, s(2), f(2));
        }
        let spilled_before = st.spilled();
        assert_eq!(st.spilled(), spilled_before);
        assert_eq!(st.depth(), 23);
    }

    #[test]
    fn clear_resets_entries_but_keeps_stats() {
        let mut st = CcStack::new();
        st.push(1, s(1), f(1));
        st.clear();
        assert!(st.is_empty());
        assert_eq!(st.max_depth(), 1);
        assert_eq!(st.ops(), 1);
    }
}
