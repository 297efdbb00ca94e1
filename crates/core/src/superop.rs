//! Superops: hot balanced call/return windows compiled into single
//! precomputed operations (path memoization).
//!
//! The paper's core win is replacing per-call bookkeeping with precomputed
//! integer deltas; recursive-cycle compression (§3.3) shows whole repeated
//! *regions* can collapse into one operation. A superop extends that idea
//! to the batched fast path: a balanced call/return window whose every
//! site resolves under the current encoding is folded — at compile time,
//! symbolically — into its *net effect* on the thread's encoding state,
//! so [`crate::tracker::ThreadHandle::run_batch`] can execute the whole
//! window as one table probe plus a handful of counter adds.
//!
//! ## Soundness
//!
//! For a balanced window with no trap, no epoch change and no TcStack
//! wrapping, the after-call instrumentation exactly inverts the
//! before-call instrumentation of the matching call (`wrapping_sub`
//! undoes `wrapping_add`; a pop returns the pushed entry's id), so the
//! net effect on `id`, the ccStack entries, the shadow stack and the
//! current function is *identity*. What remains observable is pure
//! bookkeeping: call counts, ccStack operation counts, compression hits,
//! and the ccStack's max-depth high-water mark. The compiler proves the
//! identity symbolically — the entry id is an opaque `Entry + offset`
//! term — and **refuses** any window where the fold is not decidable for
//! every possible entry state:
//!
//! * a site that does not resolve (trap) or resolves with TcStack
//!   wrapping (`truncate` has state-dependent operation counts);
//! * a compressed push at relative ccStack depth 0 (whether it hits
//!   depends on the caller's pre-existing top entry);
//! * a compressed-push equality compare between ids with different
//!   symbolic bases (undecidable at compile time);
//! * an unbalanced window, or one whose folded final state is not
//!   exactly the entry state.
//!
//! The compiled table is published next to the current generation's
//! `EncodingView` in each `crate::shared::EncodingSnapshot`, so a
//! republish invalidates every superop exactly like the indirect-call
//! inline cache: threads re-probe against the new snapshot's table, which
//! was recompiled under the new dispatch state.

use dacce_callgraph::{CallSiteId, FunctionId};

use crate::patch::EdgeAction;
use crate::shared::ResolvedSite;
use crate::tracker::BatchOp;

/// One operation of a candidate superop window, as mined from a recorded
/// trace. Call sites are compared by `(site, target)` — an indirect call
/// matches only when it resolved to the same target the window was
/// compiled for, so an indirect-target miss falls back to the per-event
/// loop by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WindowOp {
    /// A call through `site` to `target` (direct or indirect).
    Call {
        /// The call site.
        site: CallSiteId,
        /// The resolved callee.
        target: FunctionId,
    },
    /// A return balancing the innermost open call of the window.
    Ret,
}

impl WindowOp {
    /// Whether this window op matches one recorded batch op.
    #[inline]
    fn matches(self, op: BatchOp) -> bool {
        match (self, op) {
            (
                WindowOp::Call { site, target },
                BatchOp::Call { site: s, target: t } | BatchOp::CallIndirect { site: s, target: t },
            ) => site == s && target == t,
            (WindowOp::Ret, BatchOp::Ret) => true,
            _ => false,
        }
    }
}

/// A compiled superop: the window it matches plus its precomputed net
/// effect. Because a balanced, refusal-free window restores `id`, the
/// ccStack entries and the shadow stack exactly (see the module docs),
/// the net effect is pure bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SuperOp {
    /// The exact op sequence this superop replaces (first op is a call).
    pub(crate) window: Vec<WindowOp>,
    /// Call events the window contains (shard `calls` delta and sampler
    /// bulk-skip amount).
    pub(crate) calls: u64,
    /// ccStack operations the window performs (`ops()` delta, feeding the
    /// §4 rate trigger exactly like per-event execution).
    pub(crate) cc_ops: u64,
    /// Compressed pushes that hit the top entry.
    pub(crate) compress_hits: u64,
    /// Peak ccStack depth the window reaches, relative to its entry depth
    /// (the max-depth watermark folded into the stack on apply).
    pub(crate) cc_peak: usize,
}

/// Result of probing the superop table at one trace position.
pub(crate) enum SuperOpProbe<'a> {
    /// No superop starts at this call site — zero-cost fall-through.
    Cold,
    /// Candidate superops exist for the site but none matched the trace.
    Miss,
    /// The longest superop whose window matches the trace here.
    Hit(&'a SuperOp),
}

/// The per-snapshot table of compiled superops, probed by the batched
/// fast path. Indexed by the *site id* of the window's first call (site
/// ids are dense), each chain sorted longest-window-first so the probe
/// prefers the biggest match.
#[derive(Clone, Debug, Default)]
pub(crate) struct SuperOpTable {
    ops: Vec<SuperOp>,
    /// `first_site.index() -> indices into ops`, longest window first.
    heads: Vec<Vec<u32>>,
}

impl SuperOpTable {
    /// Number of compiled superops.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no superop is compiled (the fast path's cheap bail).
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates the compiled superops (export / verification).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SuperOp> {
        self.ops.iter()
    }

    /// Compiles `candidates` (ranked best-first by the miner) against the
    /// current encoding. Windows that fail a refusal rule, duplicate an
    /// earlier window, or exceed `max_window` are skipped; at most
    /// `max_table` superops are kept.
    pub(crate) fn compile<F>(
        resolve: &F,
        max_id: u64,
        candidates: &[Vec<WindowOp>],
        max_window: usize,
        max_table: usize,
    ) -> SuperOpTable
    where
        F: Fn(CallSiteId, FunctionId) -> Option<ResolvedSite>,
    {
        let mut table = SuperOpTable::default();
        for window in candidates {
            if table.ops.len() >= max_table {
                break;
            }
            if window.len() > max_window {
                continue;
            }
            if table.ops.iter().any(|so| so.window == *window) {
                continue;
            }
            let Some(so) = compile_window(resolve, max_id, window) else {
                continue;
            };
            let WindowOp::Call { site, .. } = so.window[0] else {
                unreachable!("compiled windows start with a call");
            };
            let idx = site.index();
            if idx >= table.heads.len() {
                table.heads.resize(idx + 1, Vec::new());
            }
            let ix = u32::try_from(table.ops.len()).expect("table fits in u32");
            table.heads[idx].push(ix);
            table.ops.push(so);
        }
        // Longest window first, so the probe prefers the biggest match.
        for chain in &mut table.heads {
            chain.sort_by_key(|&ix| std::cmp::Reverse(table.ops[ix as usize].window.len()));
        }
        table
    }

    /// Probes for a superop whose window is a prefix of `ops` (which must
    /// start with a call op).
    #[inline]
    pub(crate) fn probe<'a>(&'a self, ops: &[BatchOp]) -> SuperOpProbe<'a> {
        let (BatchOp::Call { site, .. } | BatchOp::CallIndirect { site, .. }) = ops[0] else {
            return SuperOpProbe::Cold;
        };
        let Some(chain) = self.heads.get(site.index()) else {
            return SuperOpProbe::Cold;
        };
        if chain.is_empty() {
            return SuperOpProbe::Cold;
        }
        'next: for &ix in chain {
            let so = &self.ops[ix as usize];
            if so.window.len() > ops.len() {
                continue;
            }
            for (w, &b) in so.window.iter().zip(ops) {
                if !w.matches(b) {
                    continue 'next;
                }
            }
            return SuperOpProbe::Hit(so);
        }
        SuperOpProbe::Miss
    }
}

/// Symbolic id base: the (unknown) id at window entry, or a concrete
/// value (`maxID + 1` after a ccStack push resets the id).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SymBase {
    Entry,
    Const,
}

/// A symbolic context id: `Entry + off` (wrapping) or the concrete `off`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SymId {
    base: SymBase,
    off: u64,
}

impl SymId {
    const ENTRY: SymId = SymId {
        base: SymBase::Entry,
        off: 0,
    };

    fn konst(v: u64) -> SymId {
        SymId {
            base: SymBase::Const,
            off: v,
        }
    }

    fn add(self, d: u64) -> SymId {
        SymId {
            base: self.base,
            off: self.off.wrapping_add(d),
        }
    }

    fn sub(self, d: u64) -> SymId {
        SymId {
            base: self.base,
            off: self.off.wrapping_sub(d),
        }
    }

    /// Equality of the concrete values, when decidable for *every*
    /// possible entry id: same base compares offsets (wrapping add is
    /// injective for a fixed entry), mixed bases are undecidable.
    fn eq_decidable(self, other: SymId) -> Option<bool> {
        (self.base == other.base).then_some(self.off == other.off)
    }
}

/// One symbolically pushed ccStack entry.
struct SymCcEntry {
    id: SymId,
    site: CallSiteId,
    target: FunctionId,
    /// Compressed repetitions folded onto this entry within the window.
    count: u64,
}

/// Compiles one candidate window into a superop by folding the exact
/// per-event instrumentation over a symbolic entry state. Returns `None`
/// when any refusal rule fires (see the module docs) or the folded final
/// state is not the identity.
pub(crate) fn compile_window<F>(resolve: &F, max_id: u64, window: &[WindowOp]) -> Option<SuperOp>
where
    F: Fn(CallSiteId, FunctionId) -> Option<ResolvedSite>,
{
    if window.len() < 2 {
        return None;
    }
    if !matches!(window[0], WindowOp::Call { .. }) {
        return None;
    }

    let mut id = SymId::ENTRY;
    let mut cc: Vec<SymCcEntry> = Vec::new();
    let mut open: Vec<EdgeAction> = Vec::new();
    let mut calls = 0u64;
    let mut cc_ops = 0u64;
    let mut compress_hits = 0u64;
    let mut cc_peak = 0usize;

    for &op in window {
        match op {
            WindowOp::Call { site, target } => {
                let r = resolve(site, target)?;
                if r.tc_wrap {
                    // TcStack-wrapped frames restore absolutely and
                    // `truncate` counts ops state-dependently; refuse.
                    return None;
                }
                match r.action {
                    EdgeAction::Encoded { delta } => {
                        id = id.add(delta);
                    }
                    EdgeAction::Unencoded => {
                        cc_ops += 1;
                        cc.push(SymCcEntry {
                            id,
                            site,
                            target,
                            count: 0,
                        });
                        cc_peak = cc_peak.max(cc.len());
                        id = SymId::konst(max_id + 1);
                    }
                    EdgeAction::UnencodedCompressed => {
                        cc_ops += 1;
                        let Some(top) = cc.last_mut() else {
                            // At relative depth 0 a hit depends on the
                            // caller's pre-existing top entry; refuse.
                            return None;
                        };
                        let hit = if top.site == site && top.target == target {
                            top.id.eq_decidable(id)?
                        } else {
                            false
                        };
                        if hit {
                            top.count += 1;
                            compress_hits += 1;
                        } else {
                            cc.push(SymCcEntry {
                                id,
                                site,
                                target,
                                count: 0,
                            });
                            cc_peak = cc_peak.max(cc.len());
                        }
                        id = SymId::konst(max_id + 1);
                    }
                }
                open.push(r.action);
                calls += 1;
            }
            WindowOp::Ret => {
                let action = open.pop()?; // unbalanced: refuse
                match action {
                    EdgeAction::Encoded { delta } => {
                        id = id.sub(delta);
                    }
                    EdgeAction::Unencoded => {
                        cc_ops += 1;
                        let e = cc.pop()?;
                        if e.count != 0 {
                            // A plain pop would discard folded
                            // repetitions; cannot happen for windows the
                            // rules admit, but refuse defensively.
                            return None;
                        }
                        id = e.id;
                    }
                    EdgeAction::UnencodedCompressed => {
                        cc_ops += 1;
                        let top = cc.last_mut()?;
                        id = top.id;
                        if top.count > 0 {
                            top.count -= 1;
                        } else {
                            cc.pop();
                        }
                    }
                }
            }
        }
    }

    // The net effect must be the identity on the encoding state.
    if !open.is_empty() || !cc.is_empty() || id != SymId::ENTRY {
        return None;
    }
    Some(SuperOp {
        window: window.to_vec(),
        calls,
        cc_ops,
        compress_hits,
        cc_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }
    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    fn resolver(
        entries: &[(u32, u32, EdgeAction, bool)],
    ) -> impl Fn(CallSiteId, FunctionId) -> Option<ResolvedSite> {
        let map: HashMap<(CallSiteId, FunctionId), ResolvedSite> = entries
            .iter()
            .map(|&(site, target, action, tc_wrap)| {
                (
                    (s(site), f(target)),
                    ResolvedSite {
                        action,
                        dispatch_cost: 0,
                        tc_wrap,
                    },
                )
            })
            .collect();
        move |site, target| map.get(&(site, target)).copied()
    }

    fn call(site: u32, target: u32) -> WindowOp {
        WindowOp::Call {
            site: s(site),
            target: f(target),
        }
    }

    const ENC: fn(u64) -> EdgeAction = |delta| EdgeAction::Encoded { delta };

    #[test]
    fn encoded_window_folds_to_pure_counters() {
        let r = resolver(&[(0, 1, ENC(3), false), (1, 2, ENC(5), false)]);
        let w = [call(0, 1), call(1, 2), WindowOp::Ret, WindowOp::Ret];
        let so = compile_window(&r, 10, &w).expect("compiles");
        assert_eq!(so.calls, 2);
        assert_eq!(so.cc_ops, 0);
        assert_eq!(so.compress_hits, 0);
        assert_eq!(so.cc_peak, 0);
    }

    #[test]
    fn unencoded_window_counts_cc_ops_and_peak() {
        let r = resolver(&[(0, 1, EdgeAction::Unencoded, false), (1, 2, ENC(4), false)]);
        let w = [
            call(0, 1),
            call(1, 2),
            WindowOp::Ret,
            WindowOp::Ret,
            call(0, 1),
            WindowOp::Ret,
        ];
        let so = compile_window(&r, 10, &w).expect("compiles");
        assert_eq!(so.calls, 3);
        assert_eq!(so.cc_ops, 4, "two pushes + two pops");
        assert_eq!(so.cc_peak, 1);
    }

    #[test]
    fn compressed_recursion_hits_are_folded() {
        // Recursive self-call through a compressed site: the second and
        // third push see an identical <id, site, target> top and hit.
        let r = resolver(&[
            (0, 1, EdgeAction::Unencoded, false),
            (1, 1, EdgeAction::UnencodedCompressed, false),
        ]);
        let w = [
            call(0, 1),
            call(1, 1),
            call(1, 1),
            call(1, 1),
            WindowOp::Ret,
            WindowOp::Ret,
            WindowOp::Ret,
            WindowOp::Ret,
        ];
        let so = compile_window(&r, 10, &w).expect("compiles");
        assert_eq!(so.calls, 4);
        // push + 3 compressed pushes + 3 compressed pops + pop.
        assert_eq!(so.cc_ops, 8);
        assert_eq!(so.compress_hits, 2, "second and third recursive push");
        assert_eq!(so.cc_peak, 2, "boundary entry + one compressed entry");
    }

    #[test]
    fn refusals_fire() {
        let r = resolver(&[
            (0, 1, ENC(3), false),
            (2, 3, ENC(1), true),
            (4, 5, EdgeAction::UnencodedCompressed, false),
        ]);
        // Too short.
        assert!(compile_window(&r, 10, &[call(0, 1)]).is_none());
        // Starts with a return.
        assert!(compile_window(&r, 10, &[WindowOp::Ret, call(0, 1)]).is_none());
        // Unresolved (trapping) site.
        assert!(compile_window(&r, 10, &[call(9, 9), WindowOp::Ret]).is_none());
        // TcStack-wrapped site.
        assert!(compile_window(&r, 10, &[call(2, 3), WindowOp::Ret]).is_none());
        // Compressed push at relative depth 0.
        assert!(compile_window(&r, 10, &[call(4, 5), WindowOp::Ret]).is_none());
        // Unbalanced: extra return.
        assert!(compile_window(&r, 10, &[call(0, 1), WindowOp::Ret, WindowOp::Ret]).is_none());
        // Unbalanced: dangling call.
        assert!(compile_window(&r, 10, &[call(0, 1), call(0, 1), WindowOp::Ret]).is_none());
    }

    #[test]
    fn symbolic_equality_stays_decidable_for_admitted_windows() {
        // Inside a window every id above relative depth 0 is a concrete
        // Const (a push resets the id to maxID+1), so the compressed-push
        // compare is always decidable for windows the depth-0 rule
        // admits; the cross-base refusal in `eq_decidable` is a
        // defensive backstop. Assert the decidable cases compile with
        // the expected hit/miss outcomes.
        let r = resolver(&[
            (0, 1, EdgeAction::Unencoded, false),
            (1, 2, EdgeAction::UnencodedCompressed, false),
        ]);
        let w = [
            call(0, 1),
            call(1, 2),
            call(1, 2),
            WindowOp::Ret,
            WindowOp::Ret,
            WindowOp::Ret,
        ];
        let so = compile_window(&r, 10, &w).expect("decidable window compiles");
        assert_eq!(so.compress_hits, 1, "second compressed push hits");
        assert_eq!(so.cc_peak, 2);
        // The backstop itself: mixed bases are undecidable.
        assert_eq!(SymId::ENTRY.eq_decidable(SymId::konst(0)), None);
        assert_eq!(SymId::ENTRY.eq_decidable(SymId::ENTRY.add(1)), Some(false));
        assert_eq!(
            SymId::konst(5).eq_decidable(SymId::konst(9).sub(4)),
            Some(true)
        );
    }

    #[test]
    fn table_prefers_longest_match_and_counts_probe_kinds() {
        let r = resolver(&[(0, 1, ENC(3), false), (1, 2, ENC(5), false)]);
        let short = vec![call(0, 1), WindowOp::Ret];
        let long = vec![call(0, 1), call(1, 2), WindowOp::Ret, WindowOp::Ret];
        let table = SuperOpTable::compile(&r, 10, &[short, long], 16, 16);
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());

        let trace = [
            BatchOp::Call {
                site: s(0),
                target: f(1),
            },
            BatchOp::Call {
                site: s(1),
                target: f(2),
            },
            BatchOp::Ret,
            BatchOp::Ret,
        ];
        match table.probe(&trace) {
            SuperOpProbe::Hit(so) => assert_eq!(so.window.len(), 4, "longest wins"),
            _ => panic!("expected hit"),
        }
        // A trace too short for the long window falls back to the short one.
        let short_trace = [
            BatchOp::Call {
                site: s(0),
                target: f(1),
            },
            BatchOp::Ret,
        ];
        match table.probe(&short_trace) {
            SuperOpProbe::Hit(so) => assert_eq!(so.window.len(), 2),
            _ => panic!("expected short hit"),
        }
        // Known head site, diverging tail -> miss; unknown site -> cold.
        let miss = [BatchOp::Call {
            site: s(0),
            target: f(9),
        }];
        assert!(matches!(table.probe(&miss), SuperOpProbe::Miss));
        let cold = [BatchOp::Call {
            site: s(7),
            target: f(1),
        }];
        assert!(matches!(table.probe(&cold), SuperOpProbe::Cold));
        assert!(matches!(table.probe(&[BatchOp::Ret]), SuperOpProbe::Cold));
    }

    #[test]
    fn table_caps_dedups_and_bounds_window_length() {
        let r = resolver(&[(0, 1, ENC(3), false)]);
        let w = vec![call(0, 1), WindowOp::Ret];
        let too_long = vec![
            call(0, 1),
            call(0, 1),
            call(0, 1),
            WindowOp::Ret,
            WindowOp::Ret,
            WindowOp::Ret,
        ];
        let cands = vec![w.clone(), w.clone(), too_long];
        let table = SuperOpTable::compile(&r, 10, &cands, 4, 16);
        assert_eq!(table.len(), 1, "duplicate and over-long windows skipped");
        let capped = SuperOpTable::compile(
            &r,
            10,
            &[
                vec![call(0, 1), WindowOp::Ret],
                vec![call(0, 1), call(0, 1), WindowOp::Ret, WindowOp::Ret],
            ],
            16,
            1,
        );
        assert_eq!(capped.len(), 1, "table size capped");
    }

    #[test]
    fn matched_fold_equals_event_by_event_execution() {
        // Differential check at the unit level: run the window through a
        // real CcStack + id and compare with the superop's net effect.
        use crate::ccstack::CcStack;
        let max_id = 10u64;
        let r = resolver(&[
            (0, 1, EdgeAction::Unencoded, false),
            (1, 1, EdgeAction::UnencodedCompressed, false),
            (2, 3, ENC(4), false),
        ]);
        let w = [
            call(2, 3),
            call(0, 1),
            call(1, 1),
            call(1, 1),
            WindowOp::Ret,
            WindowOp::Ret,
            WindowOp::Ret,
            WindowOp::Ret,
        ];
        let so = compile_window(&r, max_id, &w).expect("compiles");

        // Event-by-event, from an arbitrary entry state.
        let mut id = 12345u64;
        let mut cc = CcStack::new();
        cc.push(7, s(9), f(9)); // pre-existing entry below the window
        let entry_id = id;
        let entry_depth = cc.depth();
        let ops_before = cc.ops();
        let mut stack: Vec<EdgeAction> = Vec::new();
        let mut hits = 0u64;
        for &op in &w {
            match op {
                WindowOp::Call { site, target } => {
                    let a = r(site, target).unwrap().action;
                    match a {
                        EdgeAction::Encoded { delta } => id = id.wrapping_add(delta),
                        EdgeAction::Unencoded => {
                            cc.push(id, site, target);
                            id = max_id + 1;
                        }
                        EdgeAction::UnencodedCompressed => {
                            if cc.push_compressed(id, site, target) {
                                hits += 1;
                            }
                            id = max_id + 1;
                        }
                    }
                    stack.push(a);
                }
                WindowOp::Ret => match stack.pop().unwrap() {
                    EdgeAction::Encoded { delta } => id = id.wrapping_sub(delta),
                    EdgeAction::Unencoded => id = cc.pop(),
                    EdgeAction::UnencodedCompressed => id = cc.pop_compressed(),
                },
            }
        }
        assert_eq!(id, entry_id, "id restored");
        assert_eq!(cc.depth(), entry_depth, "ccStack depth restored");
        assert_eq!(cc.ops() - ops_before, so.cc_ops, "op count matches fold");
        assert_eq!(hits, so.compress_hits, "compression hits match fold");
        assert_eq!(
            cc.max_depth(),
            entry_depth + so.cc_peak,
            "peak matches fold"
        );
    }
}
