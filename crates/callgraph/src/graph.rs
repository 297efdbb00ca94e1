//! The incrementally growable call graph.
//!
//! DACCE starts from a graph containing only `main` and adds nodes and edges
//! as call edges are observed at runtime (§3 of the paper); the PCCE baseline
//! constructs the complete static graph up front. Both use this structure.
//!
//! Iteration order over nodes and edges is insertion order, which keeps every
//! algorithm in this workspace deterministic.
//!
//! Nodes are stored densely by *graph-local* index (`0..node_count()`, in
//! insertion order) and every edge carries its endpoints' locals, so graph
//! algorithms run over plain arrays. The one `FunctionId -> local` map is
//! consulted only at the API boundary ([`CallGraph::local`] and the
//! `FunctionId`-keyed accessors).

use std::collections::HashMap;

use crate::ids::{CallSiteId, EdgeId, FunctionId};

/// How a call site dispatches to its target.
///
/// The paper distinguishes normal (direct) calls, indirect calls through
/// function pointers (§3.2), calls through the PLT into shared libraries
/// (§5.1) and thread-creation calls (§5.3). Tail calls (§5.2) are an
/// orthogonal property carried by the program model, not by the edge: an
/// indirect branch can also be a tail call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dispatch {
    /// A direct call whose target is known statically.
    Direct,
    /// An indirect call through a function pointer; targets are discovered
    /// at runtime (DACCE) or over-approximated by points-to analysis (PCCE).
    Indirect,
    /// A lazily bound call through the procedure linkage table.
    Plt,
    /// A thread-creation call (`clone` interception in the paper).
    Spawn,
}

impl Dispatch {
    /// Returns `true` for dispatch kinds whose concrete target is only known
    /// at runtime.
    pub fn is_dynamic(self) -> bool {
        matches!(self, Dispatch::Indirect | Dispatch::Plt)
    }
}

/// A call edge `<p, n, l>`: caller `p` invokes callee `n` from call site `l`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The calling function.
    pub caller: FunctionId,
    /// The called function.
    pub callee: FunctionId,
    /// The call site inside the caller.
    pub site: CallSiteId,
    /// How the call dispatches.
    pub dispatch: Dispatch,
    /// Graph-local index of `caller`.
    pub caller_local: u32,
    /// Graph-local index of `callee`.
    pub callee_local: u32,
    /// Whether the most recent back-edge analysis classified this edge as a
    /// back edge (recursion). Back edges are never encoded.
    pub back: bool,
}

/// A call-graph node: one function plus its incident edge lists.
#[derive(Clone, Debug, Default)]
pub struct Node {
    /// Edges for which this node is the callee, in insertion order.
    pub incoming: Vec<EdgeId>,
    /// Edges for which this node is the caller, in insertion order.
    pub outgoing: Vec<EdgeId>,
}

/// An insertion-ordered multigraph of call edges.
///
/// Nodes are keyed by [`FunctionId`] at the API boundary and stored by
/// graph-local index; at most one edge exists per `(call site, callee)`
/// pair (an indirect site contributes one edge per distinct runtime
/// target). Edge ids are dense and append-only.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    local: HashMap<FunctionId, u32>,
    /// Nodes by local index.
    nodes: Vec<Node>,
    /// Function of each local index (insertion order).
    node_order: Vec<FunctionId>,
    edges: Vec<Edge>,
    edge_index: HashMap<(CallSiteId, FunctionId), EdgeId>,
}

impl CallGraph {
    /// Creates an empty call graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently in the graph.
    pub fn node_count(&self) -> usize {
        self.node_order.len()
    }

    /// Number of edges currently in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if `f` has a node in the graph.
    pub fn contains_node(&self, f: FunctionId) -> bool {
        self.local.contains_key(&f)
    }

    /// The graph-local index of `f`, if it has a node: the one hash probe
    /// between a function id and the dense node arrays.
    #[inline]
    pub fn local(&self, f: FunctionId) -> Option<u32> {
        self.local.get(&f).copied()
    }

    /// Adds a node for `f` if absent. Returns `true` if the node was new.
    pub fn ensure_node(&mut self, f: FunctionId) -> bool {
        self.ensure_local(f).1
    }

    /// The local of `f`, adding a node first if absent.
    fn ensure_local(&mut self, f: FunctionId) -> (u32, bool) {
        if let Some(&l) = self.local.get(&f) {
            return (l, false);
        }
        let l = u32::try_from(self.node_order.len()).expect("node count fits in u32");
        self.local.insert(f, l);
        self.nodes.push(Node::default());
        self.node_order.push(f);
        (l, true)
    }

    /// Adds the edge `(caller, site, callee)` if absent, creating both
    /// endpoint nodes as needed. Returns the edge id and whether it was new.
    pub fn add_edge(
        &mut self,
        caller: FunctionId,
        callee: FunctionId,
        site: CallSiteId,
        dispatch: Dispatch,
    ) -> (EdgeId, bool) {
        if let Some(&id) = self.edge_index.get(&(site, callee)) {
            return (id, false);
        }
        let (caller_local, _) = self.ensure_local(caller);
        let (callee_local, _) = self.ensure_local(callee);
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge {
            caller,
            callee,
            site,
            dispatch,
            caller_local,
            callee_local,
            back: false,
        });
        self.edge_index.insert((site, callee), id);
        self.nodes[caller_local as usize].outgoing.push(id);
        self.nodes[callee_local as usize].incoming.push(id);
        (id, true)
    }

    /// Looks up the edge created by `site` calling `callee`, if any.
    pub fn edge_id(&self, site: CallSiteId, callee: FunctionId) -> Option<EdgeId> {
        self.edge_index.get(&(site, callee)).copied()
    }

    /// Returns the edge data for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Mutable access to the edge data for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.index()]
    }

    /// Returns the node for `f`, if present.
    pub fn node(&self, f: FunctionId) -> Option<&Node> {
        self.local(f).map(|l| &self.nodes[l as usize])
    }

    /// The node at local index `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a local index of this graph.
    #[inline]
    pub fn node_at(&self, l: u32) -> &Node {
        &self.nodes[l as usize]
    }

    /// All node ids in insertion order; position `l` holds the function of
    /// local index `l`.
    pub fn nodes(&self) -> &[FunctionId] {
        &self.node_order
    }

    /// All edges with their ids, in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i as u32), e))
    }

    /// Incoming edge ids of `f` (empty if `f` has no node).
    pub fn incoming(&self, f: FunctionId) -> &[EdgeId] {
        self.node(f).map_or(&[], |n| n.incoming.as_slice())
    }

    /// Outgoing edge ids of `f` (empty if `f` has no node).
    pub fn outgoing(&self, f: FunctionId) -> &[EdgeId] {
        self.node(f).map_or(&[], |n| n.outgoing.as_slice())
    }

    /// Clears every `back` flag; used before re-running back-edge analysis.
    pub fn clear_back_flags(&mut self) {
        for e in &mut self.edges {
            e.back = false;
        }
    }

    /// Number of edges currently flagged as back edges.
    pub fn back_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.back).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = CallGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains_node(f(0)));
        assert!(g.incoming(f(0)).is_empty());
        assert!(g.outgoing(f(0)).is_empty());
    }

    #[test]
    fn ensure_node_is_idempotent() {
        let mut g = CallGraph::new();
        assert!(g.ensure_node(f(1)));
        assert!(!g.ensure_node(f(1)));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.nodes(), &[f(1)]);
    }

    #[test]
    fn add_edge_creates_endpoints() {
        let mut g = CallGraph::new();
        let (id, new) = g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        assert!(new);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let e = g.edge(id);
        assert_eq!(e.caller, f(0));
        assert_eq!(e.callee, f(1));
        assert_eq!(e.site, s(0));
        assert!(!e.back);
        assert_eq!((e.caller_local, e.callee_local), (0, 1));
        assert_eq!(g.local(f(1)), Some(1));
        assert_eq!(g.local(f(9)), None);
        assert_eq!(g.node_at(1).incoming, vec![id]);
    }

    #[test]
    fn add_edge_is_idempotent_per_site_and_callee() {
        let mut g = CallGraph::new();
        let (a, new_a) = g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        let (b, new_b) = g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        assert!(new_a);
        assert!(!new_b);
        assert_eq!(a, b);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn indirect_site_can_have_multiple_targets() {
        let mut g = CallGraph::new();
        let (a, _) = g.add_edge(f(0), f(1), s(0), Dispatch::Indirect);
        let (b, _) = g.add_edge(f(0), f(2), s(0), Dispatch::Indirect);
        assert_ne!(a, b);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.outgoing(f(0)).len(), 2);
        assert_eq!(g.edge_id(s(0), f(1)), Some(a));
        assert_eq!(g.edge_id(s(0), f(2)), Some(b));
    }

    #[test]
    fn incoming_and_outgoing_track_insertion_order() {
        let mut g = CallGraph::new();
        let (a, _) = g.add_edge(f(0), f(2), s(0), Dispatch::Direct);
        let (b, _) = g.add_edge(f(1), f(2), s(1), Dispatch::Direct);
        assert_eq!(g.incoming(f(2)), &[a, b]);
        assert_eq!(g.outgoing(f(0)), &[a]);
        assert_eq!(g.outgoing(f(1)), &[b]);
    }

    #[test]
    fn self_loop_is_representable() {
        let mut g = CallGraph::new();
        let (id, _) = g.add_edge(f(0), f(0), s(0), Dispatch::Direct);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.incoming(f(0)), &[id]);
        assert_eq!(g.outgoing(f(0)), &[id]);
    }

    #[test]
    fn clear_back_flags_resets_all_edges() {
        let mut g = CallGraph::new();
        let (id, _) = g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.edge_mut(id).back = true;
        assert_eq!(g.back_edge_count(), 1);
        g.clear_back_flags();
        assert_eq!(g.back_edge_count(), 0);
    }

    #[test]
    fn dispatch_dynamic_classification() {
        assert!(Dispatch::Indirect.is_dynamic());
        assert!(Dispatch::Plt.is_dynamic());
        assert!(!Dispatch::Direct.is_dynamic());
        assert!(!Dispatch::Spawn.is_dynamic());
    }
}
