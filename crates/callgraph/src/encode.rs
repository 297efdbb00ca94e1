//! `numCC` computation and edge-encoding assignment.
//!
//! This is the Ball–Larus numbering adapted to call graphs that both PCCE and
//! DACCE use (§2.1 of the paper): in topological order, the number of calling
//! contexts of a node is the sum of its callers' context counts over the
//! *encoded* (non-back) incoming edges; each incoming edge `e = <p, n, l>` is
//! assigned the prefix sum `En(e)` of the preceding callers' `numCC` values,
//! so that every acyclic root-to-node path receives a unique id in
//! `[0, numCC(n))`.
//!
//! Two DACCE-specific twists:
//!
//! * **frequency ordering** (§4): incoming edges are sorted hottest-first
//!   before prefix sums are taken, so the most frequently invoked edge gets
//!   `En(e) = 0` and needs no instrumentation at all;
//! * **sub-path heads**: a node whose only incoming edges are back edges or
//!   that has no incoming edges at all still gets `numCC = 1`, because it can
//!   head an acyclic sub-path after an unencoded or recursive call.
//!
//! `numCC` is computed in `u128` so that the astronomically large context
//! counts of the PCCE baseline (Table 1 reports `overflow` for
//! `400.perlbench` and `403.gcc`) can be detected rather than silently wrap.

use crate::analysis::topological_locals;
use crate::graph::CallGraph;
use crate::ids::{EdgeId, FunctionId};

/// The encoding budget: `2*maxID + 1` must fit the 64-bit context identifier
/// used by the runtime (§6.3: "we use a 64bit context identifier").
pub const MAX_ENCODABLE_ID: u128 = (u64::MAX as u128 - 1) / 2;

/// Options controlling [`encode_graph`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EncodeOptions<'a> {
    /// Observed invocation heat per edge, indexed by [`EdgeId`] (edges past
    /// the end have heat 0). Incoming edges of every node are ordered by
    /// descending heat (ties broken by insertion order) before encodings
    /// are assigned; the hottest edge is encoded `0`.
    ///
    /// An empty slice reproduces the static, frequency-oblivious encoding
    /// of the background §2.1 example.
    pub heat: &'a [u64],
}

impl<'a> EncodeOptions<'a> {
    /// Options that order edges by the given per-edge heat.
    pub fn with_heat(heat: &'a [u64]) -> Self {
        Self { heat }
    }
}

/// The result of encoding a call graph: `numCC` by graph-local node index
/// and `En(e)` by [`EdgeId`], both dense arrays over the graph the encoding
/// was computed for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Encoding {
    /// Maximum context id over all nodes: `max_n numCC(n) - 1`, saturated to
    /// [`MAX_ENCODABLE_ID`] when the graph overflows.
    pub max_id: u64,
    /// True when some node's context count exceeds the 64-bit budget. An
    /// overflowed encoding cannot drive a runtime; PCCE responds by pruning
    /// never-invoked edges (§6.3), DACCE graphs never get close.
    pub overflow: bool,
    /// Exact context counts (unsaturated, 128-bit) by graph-local index.
    num_cc: Vec<Option<u128>>,
    /// Edge encodings `En(e)` by edge id; `None` for back edges.
    en: Vec<Option<u128>>,
}

impl Encoding {
    /// An encoding of `graph` with no count and no edge encoding assigned
    /// yet, for callers that fill one in by hand (imports, tests).
    pub fn unassigned(graph: &CallGraph) -> Self {
        Encoding {
            max_id: 0,
            overflow: false,
            num_cc: vec![None; graph.node_count()],
            en: vec![None; graph.edge_count()],
        }
    }

    /// `numCC` of the node at graph-local index `l`, if assigned.
    #[inline]
    pub fn num_cc(&self, l: u32) -> Option<u128> {
        self.num_cc.get(l as usize).copied().flatten()
    }

    /// `numCC(f)` for a function of `graph` (the graph this encoding was
    /// computed for), if assigned.
    pub fn num_cc_of(&self, graph: &CallGraph, f: FunctionId) -> Option<u128> {
        graph.local(f).and_then(|l| self.num_cc(l))
    }

    /// Assigns `numCC` of the node at graph-local index `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a node of the graph this encoding was built for.
    pub fn set_num_cc(&mut self, l: u32, cc: u128) {
        self.num_cc[l as usize] = Some(cc);
    }

    /// `En(e)`, if `e` was assigned an encoding (back edges are not).
    #[inline]
    pub fn encoding(&self, e: EdgeId) -> Option<u128> {
        self.en.get(e.index()).copied().flatten()
    }

    /// Assigns `En(e)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of the graph this encoding was built for.
    pub fn set_encoding(&mut self, e: EdgeId, en: u128) {
        self.en[e.index()] = Some(en);
    }

    /// Every assigned `(local, numCC)`, in graph order.
    pub fn num_ccs(&self) -> impl Iterator<Item = (u32, u128)> + '_ {
        self.num_cc
            .iter()
            .enumerate()
            .filter_map(|(l, cc)| cc.map(|cc| (l as u32, cc)))
    }

    /// Every assigned `(edge, En(e))`, in edge-id order.
    pub fn encodings(&self) -> impl Iterator<Item = (EdgeId, u128)> + '_ {
        self.en
            .iter()
            .enumerate()
            .filter_map(|(i, en)| en.map(|en| (EdgeId::new(i as u32), en)))
    }

    /// Number of nodes with an assigned count.
    pub fn node_count(&self) -> usize {
        self.num_cc.iter().filter(|cc| cc.is_some()).count()
    }

    /// The exact maximum context count over all nodes.
    pub fn max_num_cc(&self) -> u128 {
        self.num_ccs().map(|(_, cc)| cc).max().unwrap_or(1)
    }

    /// `En(e)` for a non-back edge, if assigned and within the 64-bit budget.
    pub fn encoding_u64(&self, e: EdgeId) -> Option<u64> {
        self.encoding(e).and_then(|v| u64::try_from(v).ok())
    }
}

/// Encodes the non-back subgraph of `graph`.
///
/// `roots` are the program entry functions (`main` plus thread entries); they
/// only matter for determinism of the topological layout — every node present
/// in the graph is encoded.
///
/// Back edges must already be classified (see
/// [`crate::analysis::classify_back_edges`]); they receive no encoding.
///
/// Every pass is over graph-local arrays: nodes in topological order, each
/// node's non-back incoming edges ordered by `(Reverse(heat), edge index)`.
///
/// # Panics
///
/// Panics if the non-back subgraph contains a cycle.
pub fn encode_graph(graph: &CallGraph, _roots: &[FunctionId], opts: &EncodeOptions) -> Encoding {
    let order = topological_locals(graph);
    let mut enc = Encoding::unassigned(graph);
    let heat_of = |e: EdgeId| opts.heat.get(e.index()).copied().unwrap_or(0);

    let mut inc: Vec<EdgeId> = Vec::new();
    for &node in &order {
        // Collect incoming non-back edges, hottest first.
        inc.clear();
        inc.extend(
            graph
                .node_at(node)
                .incoming
                .iter()
                .copied()
                .filter(|&e| !graph.edge(e).back),
        );
        if inc.len() > 1 {
            inc.sort_by_key(|&e| (std::cmp::Reverse(heat_of(e)), e.index()));
        }

        let mut total: u128 = 0;
        for &eid in &inc {
            let caller_cc = enc.num_cc(graph.edge(eid).caller_local).unwrap_or(1);
            enc.en[eid.index()] = Some(total);
            total = total.saturating_add(caller_cc);
        }
        enc.num_cc[node as usize] = Some(if total == 0 { 1 } else { total });
    }

    let max_cc = enc.max_num_cc();
    enc.overflow = max_cc - 1 > MAX_ENCODABLE_ID;
    enc.max_id = u64::try_from((max_cc - 1).min(MAX_ENCODABLE_ID)).expect("clamped to budget");
    enc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify_back_edges;
    use crate::graph::Dispatch;
    use crate::ids::CallSiteId;
    use std::collections::HashMap;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    /// Builds a graph from `(caller, callee)` pairs with sequential sites.
    fn build(pairs: &[(u32, u32)]) -> (CallGraph, Vec<EdgeId>) {
        let mut g = CallGraph::new();
        let mut ids = Vec::new();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let (id, _) = g.add_edge(f(a), f(b), CallSiteId::new(i as u32), Dispatch::Direct);
            ids.push(id);
        }
        (g, ids)
    }

    /// The Figure 1 example: A calls B and C; B and C call D; D calls E and F.
    /// Only edge CD (or BD, depending on order) needs instrumentation, and the
    /// maximum context id is 1.
    #[test]
    fn fig1_example_only_one_edge_instrumented() {
        let (mut g, e) = build(&[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        assert_eq!(enc.num_cc_of(&g, f(0)).unwrap(), 1);
        assert_eq!(enc.num_cc_of(&g, f(1)).unwrap(), 1);
        assert_eq!(enc.num_cc_of(&g, f(2)).unwrap(), 1);
        assert_eq!(enc.num_cc_of(&g, f(3)).unwrap(), 2);
        assert_eq!(enc.num_cc_of(&g, f(4)).unwrap(), 2);
        assert_eq!(enc.num_cc_of(&g, f(5)).unwrap(), 2);
        assert_eq!(enc.max_id, 1);
        assert!(!enc.overflow);
        // BD (insertion order first) gets 0; CD gets +1. DE/DF are sole
        // incoming edges of E/F, so they are encoded 0 too.
        assert_eq!(enc.encoding(e[2]).unwrap(), 0);
        assert_eq!(enc.encoding(e[3]).unwrap(), 1);
        assert_eq!(enc.encoding(e[4]).unwrap(), 0);
        assert_eq!(enc.encoding(e[5]).unwrap(), 0);
        let instrumented = enc.encodings().filter(|&(_, v)| v != 0).count();
        assert_eq!(instrumented, 1, "exactly one edge needs instrumentation");
    }

    /// Heat ordering flips which of the two D-incoming edges is free.
    #[test]
    fn heat_ordering_gives_hottest_edge_encoding_zero() {
        let (mut g, e) = build(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        classify_back_edges(&mut g, &[f(0)]);
        let mut heat = vec![0u64; g.edge_count()];
        heat[e[3].index()] = 1_000; // CD is hot
        heat[e[2].index()] = 10; // BD is cold
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::with_heat(&heat));
        assert_eq!(enc.encoding(e[3]).unwrap(), 0, "hot edge free");
        assert_eq!(enc.encoding(e[2]).unwrap(), 1, "cold edge instrumented");
    }

    #[test]
    fn back_edges_receive_no_encoding() {
        let (mut g, e) = build(&[(0, 1), (1, 2), (2, 1)]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        assert_eq!(enc.encoding(e[2]), None);
        // Node 1 keeps numCC from its single encoded incoming edge.
        assert_eq!(enc.num_cc_of(&g, f(1)).unwrap(), 1);
        assert_eq!(enc.num_cc_of(&g, f(2)).unwrap(), 1);
        assert_eq!(enc.max_id, 0);
    }

    #[test]
    fn orphan_sub_path_head_gets_one_context() {
        // Node 5 is only reachable through a back edge (cycle with 4), so all
        // its incoming edges are back edges after classification from root 0.
        let (mut g, _) = build(&[(0, 1), (4, 5), (5, 4)]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        assert_eq!(enc.num_cc_of(&g, f(4)).unwrap(), 1);
        assert_eq!(enc.num_cc_of(&g, f(5)).unwrap(), 1);
    }

    #[test]
    fn diamond_of_diamonds_multiplies_contexts() {
        // Two diamonds in sequence: contexts multiply (2 * 2 = 4).
        let (mut g, _) = build(&[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
        ]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        assert_eq!(enc.num_cc_of(&g, f(3)).unwrap(), 2);
        assert_eq!(enc.num_cc_of(&g, f(6)).unwrap(), 4);
        assert_eq!(enc.max_id, 3);
    }

    #[test]
    fn unique_path_ids_on_acyclic_graph() {
        // Enumerate all root-to-node paths of a small DAG and check that the
        // accumulated encodings are unique per node — the core Ball-Larus
        // invariant.
        let (mut g, _) = build(&[
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (1, 4),
            (3, 4),
            (2, 4),
            (4, 5),
            (3, 5),
        ]);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());

        // DFS path enumeration accumulating encodings.
        let mut seen: HashMap<FunctionId, Vec<u128>> = HashMap::new();
        fn walk(
            g: &CallGraph,
            enc: &Encoding,
            node: FunctionId,
            id: u128,
            seen: &mut HashMap<FunctionId, Vec<u128>>,
        ) {
            let ids = seen.entry(node).or_default();
            assert!(!ids.contains(&id), "duplicate id {id} for node {node:?}");
            ids.push(id);
            for &eid in g.outgoing(node) {
                let e = g.edge(eid);
                if e.back {
                    continue;
                }
                walk(g, enc, e.callee, id + enc.encoding(eid).unwrap(), seen);
            }
        }
        walk(&g, &enc, f(0), 0, &mut seen);

        // Every node's ids must also be dense in [0, numCC).
        for (node, ids) in &seen {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            let expect: Vec<u128> = (0..enc.num_cc_of(&g, *node).unwrap()).collect();
            assert_eq!(sorted, expect, "ids of {node:?} not dense");
        }
    }

    #[test]
    fn overflow_detection_on_exponential_graph() {
        // A ladder of diamonds doubles numCC per stage; 130 stages overflow
        // any 64-bit budget.
        let mut g = CallGraph::new();
        let mut site = 0u32;
        let mut add = |g: &mut CallGraph, a: u32, b: u32| {
            g.add_edge(f(a), f(b), CallSiteId::new(site), Dispatch::Direct);
            site += 1;
        };
        for stage in 0..130u32 {
            let base = stage * 3;
            add(&mut g, base, base + 1);
            add(&mut g, base, base + 2);
            add(&mut g, base + 1, base + 3);
            add(&mut g, base + 2, base + 3);
        }
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        assert!(enc.overflow);
        assert_eq!(u128::from(enc.max_id), MAX_ENCODABLE_ID);
    }

    #[test]
    fn encoding_u64_rejects_oversized_values() {
        let (g, _) = build(&[(0, 1), (0, 2), (0, 3)]);
        let mut enc = Encoding::unassigned(&g);
        enc.set_encoding(EdgeId::new(0), u128::from(u64::MAX) + 1);
        enc.set_encoding(EdgeId::new(1), 17);
        assert_eq!(enc.encoding_u64(EdgeId::new(0)), None);
        assert_eq!(enc.encoding_u64(EdgeId::new(1)), Some(17));
        assert_eq!(enc.encoding_u64(EdgeId::new(2)), None);
    }

    #[test]
    fn empty_graph_encodes_trivially() {
        let g = CallGraph::new();
        let enc = encode_graph(&g, &[], &EncodeOptions::default());
        assert_eq!(enc.max_id, 0);
        assert!(!enc.overflow);
        assert_eq!(enc.node_count(), 0);
    }
}
