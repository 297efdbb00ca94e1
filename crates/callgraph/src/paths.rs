//! Acyclic path enumeration — the ground truth the encoding must match.
//!
//! The Ball–Larus invariant behind the whole system: after encoding,
//! `numCC(n)` equals the number of distinct acyclic paths from the roots to
//! `n` over encoded (non-back) edges, and accumulating `En(e)` along each
//! such path yields a unique id in `[0, numCC(n))`. This module enumerates
//! those paths directly (exponential — test-sized graphs only) so property
//! tests can check both halves of the invariant against an implementation
//! that shares no code with the encoder.

use std::collections::HashMap;

use crate::encode::Encoding;
use crate::graph::CallGraph;
use crate::ids::{CallSiteId, FunctionId};

/// One acyclic root-to-node path: the sequence of `(site, callee)` steps
/// taken from the root (excluded) to the node (included as last callee).
pub type SitePath = Vec<(CallSiteId, FunctionId)>;

/// Enumerates every acyclic path from `root` over non-back edges, invoking
/// `visit` with each path and its terminal node. Paths longer than
/// `max_len` are skipped (guards test blowup).
pub fn enumerate_paths(
    graph: &CallGraph,
    root: FunctionId,
    max_len: usize,
    visit: &mut impl FnMut(FunctionId, &SitePath),
) {
    if !graph.contains_node(root) {
        return;
    }
    let mut path: SitePath = Vec::new();
    visit(root, &path);
    walk(graph, root, max_len, &mut path, visit);
}

fn walk(
    graph: &CallGraph,
    node: FunctionId,
    max_len: usize,
    path: &mut SitePath,
    visit: &mut impl FnMut(FunctionId, &SitePath),
) {
    if path.len() >= max_len {
        return;
    }
    for &eid in graph.outgoing(node) {
        let e = graph.edge(eid);
        if e.back {
            continue;
        }
        path.push((e.site, e.callee));
        visit(e.callee, path);
        walk(graph, e.callee, max_len, path, visit);
        path.pop();
    }
}

/// Counts acyclic root-to-node paths per node (roots contribute their own
/// empty path).
pub fn count_paths(
    graph: &CallGraph,
    roots: &[FunctionId],
    max_len: usize,
) -> HashMap<FunctionId, u128> {
    let mut counts: HashMap<FunctionId, u128> = HashMap::new();
    for &root in roots {
        enumerate_paths(graph, root, max_len, &mut |node, _| {
            *counts.entry(node).or_insert(0) += 1;
        });
    }
    counts
}

/// Accumulates the encoded id of one path under `encoding`.
///
/// Returns `None` if any step's edge is missing or unencoded.
pub fn path_id(graph: &CallGraph, encoding: &Encoding, path: &SitePath) -> Option<u128> {
    let mut id: u128 = 0;
    for &(site, callee) in path {
        let eid = graph.edge_id(site, callee)?;
        id += encoding.encoding(eid)?;
    }
    Some(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify_back_edges;
    use crate::encode::{encode_graph, EncodeOptions};
    use crate::graph::Dispatch;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    fn build(pairs: &[(u32, u32)]) -> CallGraph {
        let mut g = CallGraph::new();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            g.add_edge(f(a), f(b), CallSiteId::new(i as u32), Dispatch::Direct);
        }
        g
    }

    #[test]
    fn diamond_has_two_paths_to_sink() {
        let mut g = build(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        classify_back_edges(&mut g, &[f(0)]);
        let counts = count_paths(&g, &[f(0)], 16);
        assert_eq!(counts[&f(0)], 1);
        assert_eq!(counts[&f(3)], 2);
    }

    #[test]
    fn numcc_equals_path_count() {
        let mut g = build(&[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (1, 4),
            (2, 4),
            (4, 5),
            (3, 5),
            (5, 1), // cycle; becomes a back edge
        ]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let counts = count_paths(&g, &[f(0)], 32);
        for &node in g.nodes() {
            assert_eq!(
                enc.num_cc_of(&g, node).unwrap(),
                counts.get(&node).copied().unwrap_or(0).max(1),
                "numCC mismatch at {node}"
            );
        }
    }

    #[test]
    fn path_ids_are_unique_and_dense() {
        let mut g = build(&[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut ids: HashMap<FunctionId, Vec<u128>> = HashMap::new();
        enumerate_paths(&g, f(0), 32, &mut |node, path| {
            let id = path_id(&g, &enc, path).expect("all edges encoded");
            ids.entry(node).or_default().push(id);
        });
        for (node, mut v) in ids {
            v.sort_unstable();
            let expect: Vec<u128> = (0..enc.num_cc_of(&g, node).unwrap()).collect();
            assert_eq!(v, expect, "ids of {node} not dense/unique");
        }
    }

    #[test]
    fn enumeration_respects_max_len() {
        let mut g = build(&[(0, 1), (1, 2), (2, 3)]);
        classify_back_edges(&mut g, &[f(0)]);
        let counts = count_paths(&g, &[f(0)], 2);
        assert!(counts.contains_key(&f(2)));
        assert!(!counts.contains_key(&f(3)), "depth 3 exceeds max_len 2");
    }

    #[test]
    fn missing_root_enumerates_nothing() {
        let g = CallGraph::new();
        let counts = count_paths(&g, &[f(0)], 8);
        assert!(counts.is_empty());
    }
}
