//! Graphviz (DOT) export of call graphs and encodings, for debugging.

use std::fmt::Write as _;

use crate::encode::Encoding;
use crate::graph::{CallGraph, Dispatch};
use crate::ids::FunctionId;

/// Renders `graph` in DOT syntax.
///
/// Nodes are labelled by `name(f)`; back edges are dashed; indirect edges are
/// coloured; when `encoding` is given, every encoded edge is annotated with
/// its `En(e)` value and every node with its `numCC`.
pub fn to_dot(
    graph: &CallGraph,
    encoding: Option<&Encoding>,
    mut name: impl FnMut(FunctionId) -> String,
) -> String {
    let mut out = String::from("digraph callgraph {\n  rankdir=TB;\n");
    for (l, &node) in graph.nodes().iter().enumerate() {
        let label = match encoding.and_then(|e| e.num_cc(l as u32)) {
            Some(cc) => format!("{} [{}]", name(node), cc),
            None => name(node),
        };
        let _ = writeln!(out, "  n{} [label=\"{}\"];", node.raw(), label);
    }
    for (eid, e) in graph.edges() {
        let mut attrs: Vec<String> = Vec::new();
        if e.back {
            attrs.push("style=dashed".to_string());
        }
        match e.dispatch {
            Dispatch::Indirect => attrs.push("color=blue".to_string()),
            Dispatch::Plt => attrs.push("color=darkgreen".to_string()),
            Dispatch::Spawn => attrs.push("color=red".to_string()),
            Dispatch::Direct => {}
        }
        if let Some(en) = encoding.and_then(|enc| enc.encoding(eid)) {
            if en != 0 {
                attrs.push(format!("label=\"+{en}\""));
            }
        }
        let attr_str = if attrs.is_empty() {
            String::new()
        } else {
            format!(" [{}]", attrs.join(", "))
        };
        let _ = writeln!(
            out,
            "  n{} -> n{}{};",
            e.caller.raw(),
            e.callee.raw(),
            attr_str
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify_back_edges;
    use crate::encode::{encode_graph, EncodeOptions};
    use crate::ids::CallSiteId;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    #[test]
    fn dot_output_contains_nodes_edges_and_annotations() {
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), CallSiteId::new(0), Dispatch::Direct);
        g.add_edge(f(0), f(2), CallSiteId::new(1), Dispatch::Indirect);
        g.add_edge(f(1), f(2), CallSiteId::new(2), Dispatch::Direct);
        g.add_edge(f(2), f(0), CallSiteId::new(3), Dispatch::Direct);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let dot = to_dot(&g, Some(&enc), |id| format!("fn{}", id.raw()));
        assert!(dot.starts_with("digraph callgraph {"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("style=dashed"), "back edge must be dashed");
        assert!(dot.contains("color=blue"), "indirect edge coloured");
        assert!(dot.contains("label=\"+1\""), "non-zero encoding labelled");
        assert!(dot.contains("fn0 [1]"), "node annotated with numCC");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_without_encoding_has_plain_labels() {
        let mut g = CallGraph::new();
        g.ensure_node(f(7));
        let dot = to_dot(&g, None, |id| format!("fn{}", id.raw()));
        assert!(dot.contains("n7 [label=\"fn7\"];"));
    }
}
