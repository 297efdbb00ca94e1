//! Hot-calling-context profiles from decoded samples.
//!
//! The flip side of cheap context capture: once contexts are sampled as
//! tiny encoded values and decoded offline, a profiler aggregates them into
//! a weighted context tree (the classic CCT view — but built *offline* from
//! samples, at zero steady-state cost beyond DACCE's encoding). This module
//! provides the aggregation and a flamegraph-style text rendering; it is
//! what `examples/adaptive_profiler.rs` and the analysis side of
//! [`crate::export`] build on.

use std::collections::HashMap;

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::{ContextPath, PathStep};

/// An aggregated, weighted profile over calling contexts.
///
/// # Example
///
/// ```
/// use dacce::HotContextProfile;
/// use dacce_callgraph::FunctionId;
/// use dacce_program::{ContextPath, PathStep};
///
/// let ctx = ContextPath(vec![PathStep { site: None, func: FunctionId::new(0) }]);
/// let mut profile = HotContextProfile::new();
/// profile.record(&ctx);
/// profile.record(&ctx);
/// assert_eq!(profile.top(1)[0].1, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HotContextProfile {
    counts: HashMap<Vec<PathStep>, u64>,
    total: u64,
}

impl HotContextProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one decoded context with weight 1.
    pub fn record(&mut self, path: &ContextPath) {
        self.record_weighted(path, 1);
    }

    /// Records one decoded context with an explicit weight. Zero weights
    /// are dropped: they carry no heat, and materialising them would leave
    /// phantom contexts in [`Self::distinct`]/[`Self::top`] while keeping
    /// `total` unchanged.
    pub fn record_weighted(&mut self, path: &ContextPath, weight: u64) {
        if weight == 0 {
            return;
        }
        *self.counts.entry(path.0.clone()).or_insert(0) += weight;
        self.total += weight;
    }

    /// Merges another profile into this one. The invariant `total == sum of
    /// counts` is preserved: the total grows by exactly the weight copied
    /// over (zero-count entries, should `other` somehow hold any, are
    /// skipped rather than materialised).
    pub fn merge(&mut self, other: &HotContextProfile) {
        let mut copied = 0u64;
        for (path, &count) in &other.counts {
            if count == 0 {
                continue;
            }
            *self.counts.entry(path.clone()).or_insert(0) += count;
            copied += count;
        }
        self.total += copied;
    }

    /// Total recorded weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct contexts.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `k` hottest contexts, descending by weight (ties broken by path
    /// for determinism).
    pub fn top(&self, k: usize) -> Vec<(ContextPath, u64)> {
        let mut rows: Vec<(ContextPath, u64)> = self
            .counts
            .iter()
            .map(|(p, &c)| (ContextPath(p.clone()), c))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
        rows.truncate(k);
        rows
    }

    /// Renders the profile as an indented context tree with inclusive
    /// weights — children sorted hottest-first:
    ///
    /// ```text
    /// 120 main
    ///  80 ├─ handle_request
    ///  60 │  ├─ parse
    /// ```
    pub fn render_tree(&self, mut name: impl FnMut(FunctionId) -> String) -> String {
        #[derive(Default)]
        struct Node {
            inclusive: u64,
            children: HashMap<(Option<CallSiteId>, FunctionId), usize>,
        }
        let mut nodes: Vec<Node> = vec![Node::default()];
        for (path, &count) in &self.counts {
            let mut cur = 0usize;
            nodes[cur].inclusive += count;
            for step in path {
                let key = (step.site, step.func);
                let next = match nodes[cur].children.get(&key) {
                    Some(&i) => i,
                    None => {
                        let i = nodes.len();
                        nodes.push(Node::default());
                        nodes[cur].children.insert(key, i);
                        i
                    }
                };
                nodes[next].inclusive += count;
                cur = next;
            }
        }

        let mut out = String::new();
        // Iterative DFS with explicit sort for determinism.
        fn emit(
            nodes: &[Node],
            idx: usize,
            depth: usize,
            label: String,
            out: &mut String,
        ) -> Vec<((Option<CallSiteId>, FunctionId), usize)> {
            use std::fmt::Write as _;
            let _ = writeln!(
                out,
                "{:>8} {}{}",
                nodes[idx].inclusive,
                "  ".repeat(depth),
                label
            );
            sorted_kids(nodes, idx)
        }
        fn sorted_kids(
            nodes: &[Node],
            idx: usize,
        ) -> Vec<((Option<CallSiteId>, FunctionId), usize)> {
            let mut kids: Vec<_> = nodes[idx].children.iter().map(|(&k, &v)| (k, v)).collect();
            kids.sort_by(|a, b| {
                nodes[b.1]
                    .inclusive
                    .cmp(&nodes[a.1].inclusive)
                    .then_with(|| a.0.cmp(&b.0))
            });
            kids
        }
        let mut stack: Vec<((Option<CallSiteId>, FunctionId), usize, usize)> = Vec::new();
        for (k, v) in sorted_kids(&nodes, 0).into_iter().rev() {
            stack.push((k, v, 0));
        }
        while let Some(((_, func), idx, depth)) = stack.pop() {
            let kids = emit(&nodes, idx, depth, name(func), &mut out);
            for (k, v) in kids.into_iter().rev() {
                stack.push((k, v, depth + 1));
            }
        }
        out
    }
}

impl Extend<ContextPath> for HotContextProfile {
    fn extend<T: IntoIterator<Item = ContextPath>>(&mut self, iter: T) {
        for p in iter {
            self.record(&p);
        }
    }
}

impl FromIterator<ContextPath> for HotContextProfile {
    fn from_iter<T: IntoIterator<Item = ContextPath>>(iter: T) -> Self {
        let mut p = HotContextProfile::new();
        p.extend(iter);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn step(site: Option<u32>, func: u32) -> PathStep {
        PathStep {
            site: site.map(CallSiteId::new),
            func: f(func),
        }
    }
    fn path(steps: &[(Option<u32>, u32)]) -> ContextPath {
        ContextPath(steps.iter().map(|&(s, fu)| step(s, fu)).collect())
    }

    #[test]
    fn counts_and_top() {
        let mut p = HotContextProfile::new();
        let a = path(&[(None, 0), (Some(1), 1)]);
        let b = path(&[(None, 0), (Some(2), 2)]);
        p.record(&a);
        p.record(&a);
        p.record(&b);
        assert_eq!(p.total(), 3);
        assert_eq!(p.distinct(), 2);
        let top = p.top(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].1, 2);
        assert_eq!(top[0].0, a);
    }

    #[test]
    fn merge_adds_counts() {
        let a = path(&[(None, 0)]);
        let mut p1: HotContextProfile = vec![a.clone()].into_iter().collect();
        let p2: HotContextProfile = vec![a.clone(), a.clone()].into_iter().collect();
        p1.merge(&p2);
        assert_eq!(p1.total(), 3);
        assert_eq!(p1.top(1)[0].1, 3);
    }

    #[test]
    fn tree_rendering_aggregates_prefixes() {
        let mut p = HotContextProfile::new();
        p.record(&path(&[(None, 0), (Some(1), 1), (Some(2), 2)]));
        p.record(&path(&[(None, 0), (Some(1), 1), (Some(3), 3)]));
        p.record(&path(&[(None, 0), (Some(1), 1), (Some(3), 3)]));
        let tree = p.render_tree(|fu| format!("fn{}", fu.raw()));
        let lines: Vec<&str> = tree.lines().collect();
        // Root fn0 inclusive 3, fn1 inclusive 3, fn3 (2) before fn2 (1).
        assert!(lines[0].contains('3') && lines[0].contains("fn0"));
        assert!(lines[1].contains("fn1"));
        assert!(lines[2].contains("fn3"), "{tree}");
        assert!(lines[3].contains("fn2"), "{tree}");
    }

    #[test]
    fn weighted_records() {
        let mut p = HotContextProfile::new();
        p.record_weighted(&path(&[(None, 0)]), 10);
        assert_eq!(p.total(), 10);
        assert_eq!(p.top(5)[0].1, 10);
    }

    #[test]
    fn empty_profile_renders_empty() {
        let p = HotContextProfile::new();
        assert_eq!(p.render_tree(|_| String::new()), "");
        assert!(p.top(3).is_empty());
        assert_eq!(p.distinct(), 0);
    }
}
