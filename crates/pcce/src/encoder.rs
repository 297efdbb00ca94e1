//! The static PCCE encoder.
//!
//! Encodes the complete static graph once, offline. Back edges are
//! classified on the *full* graph — which means cold code and points-to
//! false positives can turn genuinely hot edges into back edges, one of the
//! effects behind PCCE's higher `ccStack` traffic on the `perlbench` and
//! `xalancbmk` analogs (§6.4 of the DACCE paper). When the encoding
//! overflows the 64-bit id budget, edges the profiling run never saw are
//! deleted and the (smaller) graph re-encoded, exactly as the paper
//! describes in §6.3.

use std::collections::HashMap;

use dacce::patch::EdgeAction;
use dacce_callgraph::analysis::classify_back_edges;
use dacce_callgraph::encode::{encode_graph, EncodeOptions};
use dacce_callgraph::{CallGraph, CallSiteId, DecodeDict, FunctionId, TimeStamp};

use crate::profile::ProfileData;
use dacce_analyze::graph::StaticGraph;

/// Result of the offline encoding.
#[derive(Clone, Debug)]
pub struct PcceEncoding {
    /// The single static decode dictionary (timestamp 0).
    pub dict: DecodeDict,
    /// The graph the runtime instrumentation is generated from (pruned when
    /// the full graph overflowed).
    pub runtime_graph: CallGraph,
    /// Node count of the full static graph (Table 1's `Nodes`).
    pub full_nodes: usize,
    /// Edge count of the full static graph (Table 1's `Edges`).
    pub full_edges: usize,
    /// Maximum context count of the full graph, before any pruning; may
    /// exceed 64 bits (Table 1's `MaxID`, printed as `overflow` then).
    pub max_num_cc_full: u128,
    /// Whether the full graph overflowed the 64-bit budget.
    pub overflowed: bool,
    /// Edges deleted by overflow pruning.
    pub pruned_edges: usize,
    /// Instrumentation action per `(site, callee)` edge of the runtime
    /// graph.
    pub actions: HashMap<(CallSiteId, FunctionId), EdgeAction>,
    /// Inline compare chain per indirect site, hottest-first, including
    /// points-to false positives (PCCE has no hash fallback).
    pub indirect_chains: HashMap<CallSiteId, Vec<FunctionId>>,
}

/// Encodes a static graph with a profile.
#[derive(Debug)]
pub struct PcceEncoder;

impl PcceEncoder {
    /// Runs the offline encoding pipeline.
    ///
    /// # Panics
    ///
    /// Panics if even the profile-pruned graph overflows 64 bits — real
    /// executions (whose dynamic graphs DACCE also encodes) never do.
    pub fn encode(sg: &StaticGraph, profile: &ProfileData) -> PcceEncoding {
        let mut graph = sg.graph.clone();
        classify_back_edges(&mut graph, &sg.roots);
        // §2.2 Issue 2 of the DACCE paper: PCCE cannot encode calls into
        // dynamically loaded libraries — the bound target and its mapping
        // address are only known at runtime. PLT edges therefore stay
        // unencoded: like recursion, they save/restore the encoding
        // context through the ccStack (modelled by flagging them as back
        // edges, which excludes them from the numbering).
        let plt_edges: Vec<_> = graph
            .edges()
            .filter(|(_, e)| e.dispatch == dacce_callgraph::Dispatch::Plt)
            .map(|(eid, _)| eid)
            .collect();
        for eid in plt_edges {
            graph.edge_mut(eid).back = true;
        }

        let heat: Vec<u64> = graph
            .edges()
            .map(|(_, e)| profile.count(e.site, e.callee))
            .collect();

        let full_enc = encode_graph(&graph, &sg.roots, &EncodeOptions::with_heat(&heat));
        let full_nodes = graph.node_count();
        let full_edges = graph.edge_count();
        let max_num_cc_full = full_enc.max_num_cc();
        let overflowed = full_enc.overflow;

        let (runtime_graph, enc, pruned_edges) = if overflowed {
            // Delete edges the profile never saw, *keeping* the back-edge
            // classification computed on the full graph (the generated
            // instrumentation was designed around the full cycle
            // structure).
            let mut pruned = CallGraph::new();
            for &root in &sg.roots {
                pruned.ensure_node(root);
            }
            let mut kept_back: Vec<(CallSiteId, FunctionId)> = Vec::new();
            let mut dropped = 0usize;
            for (_, e) in graph.edges() {
                if profile.count(e.site, e.callee) == 0 {
                    dropped += 1;
                    continue;
                }
                pruned.add_edge(e.caller, e.callee, e.site, e.dispatch);
                if e.back {
                    kept_back.push((e.site, e.callee));
                }
            }
            for (site, callee) in kept_back {
                let eid = pruned.edge_id(site, callee).expect("just inserted");
                pruned.edge_mut(eid).back = true;
            }
            let heat: Vec<u64> = pruned
                .edges()
                .map(|(_, e)| profile.count(e.site, e.callee))
                .collect();
            let enc = encode_graph(&pruned, &sg.roots, &EncodeOptions::with_heat(&heat));
            assert!(
                !enc.overflow,
                "profile-pruned PCCE graph still overflows 64 bits"
            );
            (pruned, enc, dropped)
        } else {
            (graph, full_enc, 0)
        };

        let dict = DecodeDict::from_encoding(&runtime_graph, &enc, TimeStamp::ZERO)
            .expect("overflow handled above");

        let mut actions = HashMap::new();
        for (eid, e) in runtime_graph.edges() {
            let action = if e.back {
                EdgeAction::Unencoded
            } else {
                EdgeAction::Encoded {
                    delta: enc.encoding_u64(eid).expect("within budget"),
                }
            };
            actions.insert((e.site, e.callee), action);
        }

        let mut indirect_chains = HashMap::new();
        for (&site, targets) in &sg.indirect_targets {
            let mut seen = std::collections::HashSet::new();
            let mut chain: Vec<FunctionId> = targets
                .iter()
                .copied()
                .filter(|t| seen.insert(*t))
                .collect();
            chain.sort_by_key(|&t| std::cmp::Reverse(profile.count(site, t)));
            indirect_chains.insert(site, chain);
        }

        PcceEncoding {
            dict,
            runtime_graph,
            full_nodes,
            full_edges,
            max_num_cc_full,
            overflowed,
            pruned_edges,
            actions,
            indirect_chains,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_analyze::graph::build_static_graph;
    use dacce_program::builder::ProgramBuilder;
    use dacce_program::model::TargetChoice;
    use dacce_program::Program;

    fn diamond_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        let l = b.function("left");
        let r = b.function("right");
        let sink = b.function("sink");
        b.body(main).call(l).call_p(r, [0.1, 0.1]).done();
        b.body(l).call(sink).done();
        b.body(r).call(sink).done();
        b.body(sink).work(1).done();
        b.build(main)
    }

    fn profile_with(counts: &[((u32, u32), u64)], p: &Program) -> ProfileData {
        let mut data = ProfileData::default();
        for &((site_idx, callee), count) in counts {
            let op = p.call_ops().nth(site_idx as usize).unwrap().1;
            data.edge_counts
                .insert((op.site, FunctionId::new(callee)), count);
            data.total_calls += count;
        }
        data
    }

    #[test]
    fn encoding_orders_by_profile_frequency() {
        let p = diamond_program();
        let sg = build_static_graph(&p);
        // Call ops in order: 0 main->left(1), 1 main->right(2),
        // 2 left->sink(3), 3 right->sink(3). The sink is reached
        // overwhelmingly through `right`.
        let prof = profile_with(
            &[((0, 1), 5), ((1, 2), 500), ((2, 3), 5), ((3, 3), 500)],
            &p,
        );
        let enc = PcceEncoder::encode(&sg, &prof);
        assert!(!enc.overflowed);
        assert_eq!(enc.full_nodes, 4);
        assert_eq!(enc.full_edges, 4);
        // The hot incoming edge of sink (from right) is encoded 0.
        let op_right_sink = p.call_ops().nth(3).unwrap().1;
        let op_left_sink = p.call_ops().nth(2).unwrap().1;
        assert_eq!(
            enc.actions[&(op_right_sink.site, FunctionId::new(3))],
            EdgeAction::Encoded { delta: 0 }
        );
        assert_eq!(
            enc.actions[&(op_left_sink.site, FunctionId::new(3))],
            EdgeAction::Encoded { delta: 1 }
        );
    }

    #[test]
    fn recursion_becomes_unencoded_back_edge() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        let rec = b.function("rec");
        b.body(main).call(rec).done();
        b.body(rec).call_p(rec, [0.5, 0.5]).done();
        let p = b.build(main);
        let sg = build_static_graph(&p);
        let prof = ProfileData::default();
        let enc = PcceEncoder::encode(&sg, &prof);
        let rec_op = p.call_ops().nth(1).unwrap().1;
        assert_eq!(
            enc.actions[&(rec_op.site, rec)],
            EdgeAction::Unencoded,
            "self edge must stay unencoded"
        );
    }

    #[test]
    fn overflow_prunes_unprofiled_edges() {
        // A ladder of diamonds overflows; the profile only exercised a
        // single chain through it.
        let mut b = ProgramBuilder::new();
        let stages = 130usize;
        let fns: Vec<_> = (0..=stages * 3 + 2)
            .map(|i| b.function(&format!("f{i}")))
            .collect();
        for s in 0..stages {
            let base = s * 3;
            b.body(fns[base])
                .call_p(fns[base + 1], [1.0, 1.0])
                .call_p(fns[base + 2], [0.0, 0.0])
                .done();
            b.body(fns[base + 1]).call(fns[base + 3]).done();
            b.body(fns[base + 2])
                .call_p(fns[base + 3], [0.0, 0.0])
                .done();
        }
        let p = b.build(fns[0]);
        let sg = build_static_graph(&p);

        // Profile: only the "+1 -> +3" chain was ever taken.
        let mut prof = ProfileData::default();
        for (owner, op) in p.call_ops() {
            let _ = owner;
            if op.prob[0] > 0.0 {
                if let dacce_program::CalleeSpec::Direct(t) = op.callee {
                    prof.edge_counts.insert((op.site, t), 10);
                }
            }
        }
        let enc = PcceEncoder::encode(&sg, &prof);
        assert!(enc.overflowed, "full ladder must overflow 64 bits");
        assert!(enc.pruned_edges > 0);
        assert!(enc.max_num_cc_full > u128::from(u64::MAX));
        assert!(enc.runtime_graph.edge_count() < enc.full_edges);
        assert!(enc.dict.max_id() < u64::MAX / 2);
    }

    #[test]
    fn indirect_chain_contains_false_positives_hot_first() {
        let mut b = ProgramBuilder::new();
        let main = b.function("main");
        let hot = b.function("hot");
        let cold = b.function("cold");
        let fp = b.function("false_positive");
        let table = b.table_with_extra(vec![hot, cold], vec![fp]);
        b.body(main)
            .indirect(table, TargetChoice::Skewed { hot: 0.9 }, [1.0, 1.0], 1)
            .done();
        for t in [hot, cold, fp] {
            b.body(t).work(1).done();
        }
        let p = b.build(main);
        let sg = build_static_graph(&p);
        let site = p.call_ops().next().unwrap().1.site;
        let mut prof = ProfileData::default();
        prof.edge_counts.insert((site, hot), 900);
        prof.edge_counts.insert((site, cold), 100);
        let enc = PcceEncoder::encode(&sg, &prof);
        assert_eq!(enc.indirect_chains[&site], vec![hot, cold, fp]);
    }
}
