//! Graph analyses: back-edge identification, topological order, reachability.
//!
//! DACCE never encodes back edges (recursive calls split full call paths into
//! acyclic sub-paths, §3.3), so every re-encoding first classifies edges with
//! a deterministic iterative DFS and then lays out the acyclic remainder in
//! topological order for the `numCC` computation.

use std::collections::{HashMap, HashSet};

use crate::graph::CallGraph;
use crate::ids::{EdgeId, FunctionId};

/// Result of [`find_back_edges`].
#[derive(Clone, Debug, Default)]
pub struct BackEdgeAnalysis {
    /// Edges classified as back edges, in discovery order.
    pub back_edges: Vec<EdgeId>,
    /// DFS finish order (reverse of it is a topological order of the
    /// non-back subgraph restricted to visited nodes).
    pub finish_order: Vec<FunctionId>,
    /// Nodes reachable from the supplied roots.
    pub reachable: HashSet<FunctionId>,
}

/// The DFS behind [`find_back_edges`] and [`classify_back_edges`], over
/// graph-local indices: roots first (in the given order), then every
/// remaining node in insertion order, out-edges in insertion order. Returns
/// the back edges in discovery order; `on_finish` sees each node's local
/// as it finishes.
fn dfs_back_edges(
    graph: &CallGraph,
    roots: &[FunctionId],
    mut on_finish: impl FnMut(u32),
) -> Vec<EdgeId> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;

    let n = graph.node_count();
    let mut color = vec![WHITE; n];
    let mut back = Vec::new();
    // Explicit DFS frame: node local + index of next outgoing edge.
    let mut stack: Vec<(u32, usize)> = Vec::new();
    let starts = roots
        .iter()
        .filter_map(|&r| graph.local(r))
        .chain(0..n as u32);
    for start in starts {
        if color[start as usize] != WHITE {
            continue;
        }
        color[start as usize] = GREY;
        stack.push((start, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let outgoing = &graph.node_at(node).outgoing;
            if *next < outgoing.len() {
                let eid = outgoing[*next];
                *next += 1;
                let target = graph.edge(eid).callee_local;
                match color[target as usize] {
                    GREY => back.push(eid),
                    WHITE => {
                        color[target as usize] = GREY;
                        stack.push((target, 0));
                    }
                    _ => {}
                }
            } else {
                stack.pop();
                color[node as usize] = BLACK;
                on_finish(node);
            }
        }
    }
    back
}

/// Classifies back edges by iterative DFS from `roots`.
///
/// An edge is a back edge iff its target is on the current DFS stack
/// (including self loops). Nodes unreachable from any root are scanned
/// afterwards in insertion order so that *every* edge gets a classification
/// — PCCE's conservative static graphs routinely contain such nodes.
///
/// The traversal visits out-edges in insertion order, which makes the
/// classification deterministic for a given graph construction order. This
/// mirrors the paper's behaviour where the classification depends on
/// discovery order (§6.4 discusses a hot edge of `483.xalancbmk` turning into
/// a back edge only after a later edge discovery).
pub fn find_back_edges(graph: &CallGraph, roots: &[FunctionId]) -> BackEdgeAnalysis {
    let mut finish_order = Vec::with_capacity(graph.node_count());
    let back_edges = dfs_back_edges(graph, roots, |l| {
        finish_order.push(graph.nodes()[l as usize]);
    });

    // Precise reachability from the given roots over all edges.
    let mut seen = vec![false; graph.node_count()];
    let mut worklist: Vec<u32> = roots.iter().filter_map(|&r| graph.local(r)).collect();
    for &l in &worklist {
        seen[l as usize] = true;
    }
    while let Some(l) = worklist.pop() {
        for &eid in &graph.node_at(l).outgoing {
            let t = graph.edge(eid).callee_local;
            if !seen[t as usize] {
                seen[t as usize] = true;
                worklist.push(t);
            }
        }
    }
    let reachable = graph
        .nodes()
        .iter()
        .zip(&seen)
        .filter_map(|(&f, &s)| s.then_some(f))
        .collect();

    BackEdgeAnalysis {
        back_edges,
        finish_order,
        reachable,
    }
}

/// Runs the [`find_back_edges`] DFS and stores the classification in the
/// graph's `back` flags. Returns the back edges in discovery order; the
/// finish order and reachability set are not computed (call
/// [`find_back_edges`] for them).
pub fn classify_back_edges(graph: &mut CallGraph, roots: &[FunctionId]) -> Vec<EdgeId> {
    graph.clear_back_flags();
    let back_edges = dfs_back_edges(graph, roots, |_| {});
    for &eid in &back_edges {
        graph.edge_mut(eid).back = true;
    }
    back_edges
}

/// Topological order of the non-back subgraph as graph-local indices
/// (callers before callees): Kahn's algorithm with the ready queue seeded
/// and extended in insertion order.
///
/// # Panics
///
/// Panics if the non-back subgraph still contains a cycle, which indicates
/// that back-edge classification was skipped or the graph mutated since.
pub fn topological_locals(graph: &CallGraph) -> Vec<u32> {
    let n = graph.node_count();
    let mut indegree = vec![0u32; n];
    for (_, e) in graph.edges() {
        if !e.back {
            indegree[e.callee_local as usize] += 1;
        }
    }
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&l| indegree[l as usize] == 0)
        .collect();
    order.reserve(n - order.len());
    let mut head = 0;
    while head < order.len() {
        let l = order[head];
        head += 1;
        for &eid in &graph.node_at(l).outgoing {
            let e = graph.edge(eid);
            if e.back {
                continue;
            }
            let d = &mut indegree[e.callee_local as usize];
            *d -= 1;
            if *d == 0 {
                order.push(e.callee_local);
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "non-back subgraph contains a cycle; run classify_back_edges first"
    );
    order
}

/// Strongly connected components of a call graph, with the condensation
/// metadata ahead-of-time analyses need: which components are recursive
/// (so every intra-component edge chosen as a DFS back edge stays
/// unencoded forever) and the component DAG over the rest.
#[derive(Clone, Debug, Default)]
pub struct SccAnalysis {
    /// Component index per node; components are numbered in reverse
    /// topological order of the condensation (callees before callers).
    pub component_of: HashMap<FunctionId, usize>,
    /// Member lists per component, in discovery order.
    pub components: Vec<Vec<FunctionId>>,
    /// Components containing a cycle: more than one member, or a single
    /// member with a self loop. Functions in these components can recurse.
    pub recursive: Vec<bool>,
    /// Condensation edges `(caller component, callee component)`, deduped,
    /// self edges excluded. This is a DAG by construction.
    pub dag_edges: Vec<(usize, usize)>,
}

impl SccAnalysis {
    /// Whether `f` sits inside a recursive component.
    pub fn is_recursive(&self, f: FunctionId) -> bool {
        self.component_of
            .get(&f)
            .is_some_and(|&c| self.recursive[c])
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// Computes the strongly connected components of `graph` with an iterative
/// Tarjan traversal (no recursion: PCCE-style static graphs can be deep).
///
/// Deterministic for a given construction order: roots are visited first,
/// then remaining nodes in insertion order, and out-edges in insertion
/// order — the same discipline as [`find_back_edges`].
pub fn strongly_connected_components(graph: &CallGraph, roots: &[FunctionId]) -> SccAnalysis {
    const UNVISITED: usize = usize::MAX;
    let mut index_of: HashMap<FunctionId, usize> =
        graph.nodes().iter().map(|&f| (f, UNVISITED)).collect();
    let mut lowlink: HashMap<FunctionId, usize> = HashMap::new();
    let mut on_stack: HashSet<FunctionId> = HashSet::new();
    let mut tarjan_stack: Vec<FunctionId> = Vec::new();
    let mut next_index = 0usize;
    let mut out = SccAnalysis::default();

    let mut start_points: Vec<FunctionId> = roots
        .iter()
        .copied()
        .filter(|f| graph.contains_node(*f))
        .collect();
    start_points.extend(graph.nodes().iter().copied());

    // Explicit DFS frame: node + index of the next outgoing edge.
    let mut work: Vec<(FunctionId, usize)> = Vec::new();
    for start in start_points {
        if index_of[&start] != UNVISITED {
            continue;
        }
        work.push((start, 0));
        index_of.insert(start, next_index);
        lowlink.insert(start, next_index);
        next_index += 1;
        tarjan_stack.push(start);
        on_stack.insert(start);

        while let Some(&mut (node, ref mut next)) = work.last_mut() {
            let outgoing = graph.outgoing(node);
            if *next < outgoing.len() {
                let eid = outgoing[*next];
                *next += 1;
                let target = graph.edge(eid).callee;
                if index_of[&target] == UNVISITED {
                    work.push((target, 0));
                    index_of.insert(target, next_index);
                    lowlink.insert(target, next_index);
                    next_index += 1;
                    tarjan_stack.push(target);
                    on_stack.insert(target);
                } else if on_stack.contains(&target) {
                    let t_idx = index_of[&target];
                    let low = lowlink.get_mut(&node).expect("visited");
                    *low = (*low).min(t_idx);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    let node_low = lowlink[&node];
                    let low = lowlink.get_mut(&parent).expect("visited");
                    *low = (*low).min(node_low);
                }
                if lowlink[&node] == index_of[&node] {
                    // `node` is a component root; pop its members.
                    let comp = out.components.len();
                    let mut members = Vec::new();
                    loop {
                        let m = tarjan_stack.pop().expect("component member on stack");
                        on_stack.remove(&m);
                        out.component_of.insert(m, comp);
                        members.push(m);
                        if m == node {
                            break;
                        }
                    }
                    let recursive = members.len() > 1
                        || graph.outgoing(node).iter().any(|&eid| {
                            let e = graph.edge(eid);
                            e.caller == node && e.callee == node
                        });
                    out.components.push(members);
                    out.recursive.push(recursive);
                }
            }
        }
    }

    // Condensation edges, deduped, excluding intra-component edges.
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (_, e) in graph.edges() {
        let a = out.component_of[&e.caller];
        let b = out.component_of[&e.callee];
        if a != b && seen.insert((a, b)) {
            out.dag_edges.push((a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Dispatch;
    use crate::ids::CallSiteId;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    fn chain(graph: &mut CallGraph, pairs: &[(u32, u32)]) {
        for (i, &(a, b)) in pairs.iter().enumerate() {
            graph.add_edge(f(a), f(b), CallSiteId::new(i as u32), Dispatch::Direct);
        }
    }

    #[test]
    fn acyclic_graph_has_no_back_edges() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let a = classify_back_edges(&mut g, &[f(0)]);
        assert!(a.is_empty());
        assert_eq!(g.back_edge_count(), 0);
    }

    #[test]
    fn simple_cycle_yields_one_back_edge() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (1, 2), (2, 0)]);
        let a = classify_back_edges(&mut g, &[f(0)]);
        assert_eq!(a.len(), 1);
        // The edge closing the cycle (2 -> 0) is the back edge because DFS
        // starts at the root 0.
        let back = g.edge(a[0]);
        assert_eq!((back.caller, back.callee), (f(2), f(0)));
    }

    #[test]
    fn self_loop_is_a_back_edge() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (1, 1)]);
        let a = classify_back_edges(&mut g, &[f(0)]);
        assert_eq!(a.len(), 1);
        let back = g.edge(a[0]);
        assert_eq!((back.caller, back.callee), (f(1), f(1)));
    }

    #[test]
    fn mutual_recursion_breaks_exactly_one_direction() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (1, 2), (2, 1)]);
        let a = classify_back_edges(&mut g, &[f(0)]);
        assert_eq!(a.len(), 1);
        let back = g.edge(a[0]);
        assert_eq!((back.caller, back.callee), (f(2), f(1)));
    }

    #[test]
    fn unreachable_nodes_are_still_classified() {
        let mut g = CallGraph::new();
        // Root component 0 -> 1; detached cycle 5 <-> 6.
        chain(&mut g, &[(0, 1), (5, 6), (6, 5)]);
        assert_eq!(classify_back_edges(&mut g, &[f(0)]).len(), 1);
        let a = find_back_edges(&g, &[f(0)]);
        assert_eq!(a.back_edges.len(), 1);
        assert!(a.reachable.contains(&f(1)));
        assert!(!a.reachable.contains(&f(5)));
        // Topological order must now succeed on the full node set.
        let order = topological_locals(&g);
        assert_eq!(order.len(), g.node_count());
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        classify_back_edges(&mut g, &[f(0)]);
        let pos: HashMap<FunctionId, usize> = topological_locals(&g)
            .iter()
            .enumerate()
            .map(|(i, &l)| (g.nodes()[l as usize], i))
            .collect();
        for (_, e) in g.edges() {
            assert!(pos[&e.caller] < pos[&e.callee], "edge {e:?} violates order");
        }
    }

    #[test]
    #[should_panic(expected = "contains a cycle")]
    fn topological_order_panics_on_unclassified_cycle() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (1, 0)]);
        // Deliberately skip classify_back_edges.
        let _ = topological_locals(&g);
    }

    #[test]
    fn dfs_is_deterministic_across_runs() {
        let build = || {
            let mut g = CallGraph::new();
            chain(
                &mut g,
                &[(0, 1), (1, 2), (2, 3), (3, 1), (0, 3), (3, 4), (4, 2)],
            );
            g
        };
        let mut g1 = build();
        let mut g2 = build();
        let a1 = find_back_edges(&g1, &[f(0)]);
        let a2 = find_back_edges(&g2, &[f(0)]);
        assert_eq!(a1.back_edges, a2.back_edges);
        assert_eq!(a1.finish_order, a2.finish_order);
        assert_eq!(classify_back_edges(&mut g1, &[f(0)]), a1.back_edges);
        assert_eq!(classify_back_edges(&mut g2, &[f(0)]), a2.back_edges);
    }

    #[test]
    fn reachability_covers_transitive_targets() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (1, 2), (2, 3)]);
        let a = find_back_edges(&g, &[f(0)]);
        for i in 0..4 {
            assert!(a.reachable.contains(&f(i)));
        }
    }

    #[test]
    fn scc_identifies_recursive_components() {
        let mut g = CallGraph::new();
        // main -> a; a <-> b (mutual recursion); a -> leaf; self loop on c.
        chain(&mut g, &[(0, 1), (1, 2), (2, 1), (1, 3), (0, 4), (4, 4)]);
        let scc = strongly_connected_components(&g, &[f(0)]);
        assert_eq!(scc.component_of[&f(1)], scc.component_of[&f(2)]);
        assert_ne!(scc.component_of[&f(0)], scc.component_of[&f(1)]);
        assert!(scc.is_recursive(f(1)));
        assert!(scc.is_recursive(f(2)));
        assert!(scc.is_recursive(f(4)), "self loop is recursive");
        assert!(!scc.is_recursive(f(0)));
        assert!(!scc.is_recursive(f(3)));
        assert!(!scc.is_recursive(f(99)), "unknown node is not recursive");
    }

    #[test]
    fn scc_condensation_is_a_dag_in_reverse_topological_order() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (1, 2), (2, 1), (2, 3), (0, 3)]);
        let scc = strongly_connected_components(&g, &[f(0)]);
        assert!(!scc.is_empty());
        // Tarjan emits components callees-first, so every condensation edge
        // goes from a higher-numbered component to a lower-numbered one.
        for &(a, b) in &scc.dag_edges {
            assert!(a > b, "condensation edge {a} -> {b} not reverse-topo");
        }
        // No intra-component edges and no duplicates.
        let mut seen = HashSet::new();
        for &e in &scc.dag_edges {
            assert_ne!(e.0, e.1);
            assert!(seen.insert(e));
        }
    }

    #[test]
    fn scc_covers_unreachable_nodes() {
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (5, 6), (6, 5)]);
        let scc = strongly_connected_components(&g, &[f(0)]);
        assert_eq!(scc.component_of.len(), 4);
        assert!(scc.is_recursive(f(5)));
        assert_eq!(
            scc.components.iter().map(Vec::len).sum::<usize>(),
            g.node_count()
        );
    }

    #[test]
    fn scc_back_edge_agreement_on_acyclic_graph() {
        // On an acyclic graph every component is a singleton and nothing is
        // recursive — matching find_back_edges reporting no back edges.
        let mut g = CallGraph::new();
        chain(&mut g, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let scc = strongly_connected_components(&g, &[f(0)]);
        assert_eq!(scc.len(), g.node_count());
        assert!(scc.recursive.iter().all(|&r| !r));
        assert!(find_back_edges(&g, &[f(0)]).back_edges.is_empty());
    }

    #[test]
    fn multiple_roots_are_supported() {
        let mut g = CallGraph::new();
        // Two disjoint components rooted at 0 and 10 (e.g. main + thread
        // entry).
        chain(&mut g, &[(0, 1), (10, 11), (11, 10)]);
        assert_eq!(classify_back_edges(&mut g, &[f(0), f(10)]).len(), 1);
        let a = find_back_edges(&g, &[f(0), f(10)]);
        assert_eq!(a.back_edges.len(), 1);
        assert!(a.reachable.contains(&f(11)));
    }
}
