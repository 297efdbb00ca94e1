//! Superop candidate mining: find hot *balanced* call/return windows in
//! recorded instrumentation streams and rank them for compilation.
//!
//! The trace replay ([`crate::batch`]) already splits traces into
//! balanced windows; this module goes one step further and finds the
//! windows worth memoizing — short balanced subsequences that repeat many
//! times. The chaos harness's superop replay is the one two-pass drive:
//! it warms a tracker on a trace prefix, mines and installs the ranked
//! windows, then replays the whole trace with superops live. Each
//! candidate handed to [`dacce::tracker::Tracker::install_superops`] is
//! compiled into a single net effect, so ranking matters: the table is
//! capped and every entry occupies probe-chain space on its head site.
//!
//! Ranking blends two signals:
//!
//! * **Static repetition** — `occurrences x window length`, the number of
//!   per-event iterations a compiled window would save over the trace.
//! * **Sampled hotness** — weights from the continuous profiler's
//!   [`HotContextProfile`]: windows whose head callee shows up in sampled
//!   hot contexts get their score scaled up, steering the capped table
//!   towards the paths the profiler actually observes burning time.

use std::collections::HashMap;

use dacce::tracker::{BatchOp, Tracker};
use dacce::{HotContextProfile, WindowOp};
use dacce_callgraph::FunctionId;

/// Converts one recorded op into its window form (indirect calls match by
/// site + target, so both call kinds collapse to [`WindowOp::Call`]).
fn window_op(op: BatchOp) -> WindowOp {
    match op {
        BatchOp::Call { site, target } | BatchOp::CallIndirect { site, target } => {
            WindowOp::Call { site, target }
        }
        BatchOp::Ret => WindowOp::Ret,
    }
}

/// Per-leaf-function sample weights of a profile: the sampled-hotness
/// signal the miner blends into its ranking.
#[must_use]
pub fn leaf_weights(profile: &HotContextProfile) -> HashMap<FunctionId, u64> {
    let mut out: HashMap<FunctionId, u64> = HashMap::new();
    for (path, weight) in profile.top(usize::MAX) {
        if let Some(step) = path.0.last() {
            *out.entry(step.func).or_insert(0) += weight;
        }
    }
    out
}

/// Mines balanced call/return windows from recorded per-thread streams.
///
/// Every balanced subsequence of at most `max_window` ops that starts at a
/// call is a candidate; candidates are counted across all streams, scored
/// `occurrences x length x (1 + hotness(head callee))` and the top
/// `max_count` (ranked by score, then length, then op sequence, so the
/// result never depends on hash order) are returned, longest first. Windows seen
/// only once are dropped — a superop that never repeats cannot pay for its
/// probe. `hotness` supplies the sampled-hotness weight of a function (0
/// when unsampled); pass `|_| 0` for a purely structural ranking.
#[must_use]
pub fn mine_windows<F>(
    streams: &[&[BatchOp]],
    max_window: usize,
    max_count: usize,
    hotness: F,
) -> Vec<Vec<WindowOp>>
where
    F: Fn(FunctionId) -> u64,
{
    let mut counts: HashMap<Vec<WindowOp>, u64> = HashMap::new();
    for ops in streams {
        for start in 0..ops.len() {
            if matches!(ops[start], BatchOp::Ret) {
                continue;
            }
            // Walk forward tracking relative depth; every return to depth
            // zero closes a balanced window [start, i].
            let mut depth = 0usize;
            let end = ops.len().min(start + max_window);
            for (i, &op) in ops[start..end].iter().enumerate() {
                match op {
                    BatchOp::Call { .. } | BatchOp::CallIndirect { .. } => depth += 1,
                    BatchOp::Ret => {
                        depth -= 1;
                        if depth == 0 {
                            let window: Vec<WindowOp> = ops[start..=start + i]
                                .iter()
                                .map(|&o| window_op(o))
                                .collect();
                            *counts.entry(window).or_insert(0) += 1;
                            break;
                        }
                    }
                }
            }
        }
    }
    let mut ranked: Vec<(Vec<WindowOp>, u64)> = counts
        .into_iter()
        .filter(|(_, n)| *n >= 2)
        .map(|(w, n)| {
            let head_heat = match w.first() {
                Some(WindowOp::Call { target, .. }) => hotness(*target),
                _ => 0,
            };
            let score = n * w.len() as u64 * (1 + head_heat);
            (w, score)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| b.0.len().cmp(&a.0.len()))
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked.truncate(max_count);
    // Longest first so nested windows keep the longest-match preference
    // the table itself sorts by.
    ranked.sort_by_key(|r| std::cmp::Reverse(r.0.len()));
    ranked.into_iter().map(|(w, _)| w).collect()
}

/// Mines `streams` — the tracker-id streams of a replay that already ran
/// on `tracker` — for windows of up to `max_window` ops, ranks them with
/// the tracker's sampled hotness, and installs the top `max_table`.
/// Returns `(mined, installed)`.
pub(crate) fn install_mined(
    tracker: &Tracker,
    streams: &[Vec<BatchOp>],
    max_window: usize,
    max_table: usize,
) -> (usize, usize) {
    let hot = leaf_weights(&tracker.profiler_profile());
    let refs: Vec<&[BatchOp]> = streams.iter().map(Vec::as_slice).collect();
    let candidates = mine_windows(&refs, max_window, max_table, |f| {
        hot.get(&f).copied().unwrap_or(0)
    });
    (candidates.len(), tracker.install_superops(&candidates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_callgraph::CallSiteId;

    fn call(site: u32, target: u32) -> BatchOp {
        BatchOp::Call {
            site: CallSiteId::new(site),
            target: FunctionId::new(target),
        }
    }

    #[test]
    fn repeated_leaf_window_is_mined() {
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push(call(0, 1));
            ops.push(BatchOp::Ret);
        }
        let mined = mine_windows(&[&ops], 8, 4, |_| 0);
        assert!(!mined.is_empty());
        // The top window starts with the leaf call and is balanced.
        let depth_ok = mined.iter().all(|w| {
            let mut d = 0i64;
            for op in w {
                match op {
                    WindowOp::Call { .. } => d += 1,
                    WindowOp::Ret => d -= 1,
                }
                if d < 0 {
                    return false;
                }
            }
            d == 0
        });
        assert!(depth_ok, "all mined windows balanced");
    }

    #[test]
    fn singleton_windows_are_dropped() {
        let ops = vec![call(0, 1), BatchOp::Ret, call(1, 2), BatchOp::Ret];
        // Each distinct window occurs once -> nothing worth compiling.
        assert!(mine_windows(&[&ops], 8, 4, |_| 0).is_empty());
    }

    #[test]
    fn hotness_reorders_the_capped_table() {
        let mut ops = Vec::new();
        // Window A (site 0 -> fn 1) repeats 3x, window B (site 1 -> fn 2)
        // repeats twice; structurally A outranks B.
        for _ in 0..3 {
            ops.push(call(0, 1));
            ops.push(BatchOp::Ret);
        }
        for _ in 0..2 {
            ops.push(call(1, 2));
            ops.push(BatchOp::Ret);
        }
        let cold = mine_windows(&[&ops], 8, 1, |_| 0);
        assert_eq!(
            cold,
            vec![vec![
                WindowOp::Call {
                    site: CallSiteId::new(0),
                    target: FunctionId::new(1),
                },
                WindowOp::Ret,
            ]]
        );
        // Sampled heat on fn 2 flips the single-slot ranking.
        let hot = mine_windows(&[&ops], 8, 1, |f| u64::from(f == FunctionId::new(2)) * 100);
        assert_eq!(
            hot,
            vec![vec![
                WindowOp::Call {
                    site: CallSiteId::new(1),
                    target: FunctionId::new(2),
                },
                WindowOp::Ret,
            ]]
        );
    }

    #[test]
    fn mining_is_deterministic() {
        // Many distinct windows with equal scores: a cap that cuts through
        // the tie must pick the same ones every time. Each `HashMap` draws
        // fresh hash keys, so repeated mining in one process would expose
        // an order that leaked from the map.
        let mut ops = Vec::new();
        for round in 0..3 {
            for site in 0..40 {
                ops.push(call(site, site % 7));
                if round > 0 && site % 5 == 0 {
                    ops.push(call(100 + site, 1));
                    ops.push(BatchOp::Ret);
                }
                ops.push(BatchOp::Ret);
            }
        }
        let streams = [&ops[..], &ops[10..]];
        let first = mine_windows(&streams, 8, 12, |_| 0);
        assert_eq!(first.len(), 12);
        for _ in 0..20 {
            assert_eq!(mine_windows(&streams, 8, 12, |_| 0), first);
        }
    }

    #[test]
    fn windows_never_exceed_the_bound() {
        let mut ops = Vec::new();
        for _ in 0..4 {
            // Nested pair: c c r r, length 4.
            ops.push(call(0, 1));
            ops.push(call(1, 2));
            ops.push(BatchOp::Ret);
            ops.push(BatchOp::Ret);
        }
        for w in mine_windows(&[&ops], 2, 16, |_| 0) {
            assert!(w.len() <= 2);
        }
    }
}
