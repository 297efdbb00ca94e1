//! Property tests of the Ball–Larus numbering on random graphs: `numCC`
//! equals the acyclic path count, and accumulated edge encodings are unique
//! and dense per node — checked against the independent enumerator in
//! `dacce_callgraph::paths`.

use std::collections::HashMap;

use proptest::prelude::*;

use dacce_callgraph::analysis::classify_back_edges;
use dacce_callgraph::encode::{encode_graph, EncodeOptions};
use dacce_callgraph::paths::{count_paths, enumerate_paths, path_id};
use dacce_callgraph::{CallGraph, CallSiteId, Dispatch, FunctionId};

fn f(i: u32) -> FunctionId {
    FunctionId::new(i)
}

/// Random edge lists over up to 8 nodes (cycles allowed — classification
/// breaks them).
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..8, 0u32..8), 1..20)
}

fn build(pairs: &[(u32, u32)]) -> CallGraph {
    let mut g = CallGraph::new();
    g.ensure_node(f(0));
    for (i, &(a, b)) in pairs.iter().enumerate() {
        g.add_edge(f(a), f(b), CallSiteId::new(i as u32), Dispatch::Direct);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn numcc_matches_independent_path_count(
        pairs in edges_strategy(),
        heat in prop::collection::vec(0u64..1000, 20),
    ) {
        let mut g = build(&pairs);
        classify_back_edges(&mut g, &[f(0)]);
        let heat_by_edge: Vec<u64> = g
            .edges()
            .map(|(eid, _)| heat[eid.index() % heat.len()])
            .collect();
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::with_heat(&heat_by_edge));
        // Count paths from every source of the non-back subgraph: nodes
        // with no incoming non-back edges act as roots (numCC = 1 base).
        let sources: Vec<FunctionId> = g
            .nodes()
            .iter()
            .copied()
            .filter(|&n| g.incoming(n).iter().all(|&e| g.edge(e).back))
            .collect();
        let counts = count_paths(&g, &sources, 24);
        for &node in g.nodes() {
            let expect = counts.get(&node).copied().unwrap_or(0).max(1);
            prop_assert_eq!(
                enc.num_cc_of(&g, node).unwrap(), expect,
                "numCC mismatch at {} (graph {:?})", node, pairs
            );
        }
    }

    #[test]
    fn path_ids_unique_and_dense_from_each_source(pairs in edges_strategy()) {
        let mut g = build(&pairs);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let sources: Vec<FunctionId> = g
            .nodes()
            .iter()
            .copied()
            .filter(|&n| g.incoming(n).iter().all(|&e| g.edge(e).back))
            .collect();
        let mut ids: HashMap<FunctionId, Vec<u128>> = HashMap::new();
        for &s in &sources {
            enumerate_paths(&g, s, 24, &mut |node, path| {
                let id = path_id(&g, &enc, path).expect("encoded edges only");
                ids.entry(node).or_default().push(id);
            });
        }
        for (node, mut v) in ids {
            v.sort_unstable();
            let expect: Vec<u128> = (0..enc.num_cc_of(&g, node).unwrap()).collect();
            prop_assert_eq!(v, expect, "ids of {} not dense (graph {:?})", node, pairs);
        }
    }
}
