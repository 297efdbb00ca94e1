//! Versioned decode dictionaries (`gTimeStamp` mechanism, §4.1, Figure 6).
//!
//! Every adaptive re-encoding changes edge encodings, `numCC` values and
//! `maxID`. A context id recorded *before* a re-encoding must be decoded with
//! the dictionary that was current when it was emitted, so the runtime keeps
//! an append-only [`DictStore`] of immutable [`DecodeDict`] snapshots indexed
//! by [`TimeStamp`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::encode::Encoding;
use crate::graph::{CallGraph, Dispatch};
use crate::ids::{CallSiteId, FunctionId, TimeStamp};

/// One edge as frozen into a decode dictionary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictEdge {
    /// The calling function `p`.
    pub caller: FunctionId,
    /// The called function `n`.
    pub callee: FunctionId,
    /// The call site `l` inside the caller.
    pub site: CallSiteId,
    /// `En(e)`; `0` for back edges (which are never added to the id).
    pub encoding: u64,
    /// Whether this edge was a back edge under this dictionary's analysis.
    pub back: bool,
    /// Dispatch kind, kept for diagnostics.
    pub dispatch: Dispatch,
}

/// One incoming edge of a callee, compiled for Algorithm 1: the id range
/// `[lo, hi)` the edge covers and where the decode walk continues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InEdge {
    /// `En(e)`: the lowest id whose sub-path enters the callee via this edge.
    pub lo: u64,
    /// `En(e) + numCC(caller)` (a caller without a count counts as 1),
    /// saturated: one past the highest id this edge covers.
    pub hi: u64,
    /// The call site `l` inside the caller.
    pub site: CallSiteId,
    /// The calling function `p`.
    pub caller: FunctionId,
    /// The caller's dictionary-local index (see [`DecodeDict::local`]).
    pub caller_local: u32,
    /// Position of the edge in [`DecodeDict::edges`].
    pub edge: u32,
    /// Whether the edge is a back edge; the decoder never follows one.
    pub back: bool,
}

/// An immutable snapshot of everything needed to decode ids recorded at one
/// timestamp: edge encodings (`Edge._encoding`), context counts
/// (`Node._numCC`) and `maxID` (Figure 6 of the paper).
///
/// The snapshot is compiled once, at [`DecodeDict::from_encoding`], into
/// dense arrays over dictionary-local function indices, so the decoder
/// hashes a function id only at the head of a sub-path and follows
/// `caller_local` for every acyclic step. Nothing is sized by an id value:
/// ids in an imported dictionary are untrusted.
#[derive(Clone, Debug, Default)]
pub struct DecodeDict {
    timestamp: TimeStamp,
    max_id: u64,
    edges: Vec<DictEdge>,
    /// Function -> local index. Locals `0..num_cc.len()` are the functions
    /// with a context count; the other graph nodes (edge endpoints
    /// included) follow.
    local: HashMap<FunctionId, u32>,
    /// `numCC` by local index.
    num_cc: Vec<u64>,
    /// Incoming edges of local `l` are
    /// `in_edges[in_start[l]..in_start[l + 1]]`, in graph insertion order.
    in_start: Vec<u32>,
    in_edges: Vec<InEdge>,
}

/// Errors building a dictionary from an encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DictError {
    /// The encoding overflowed the 64-bit id budget and cannot drive a
    /// runtime (PCCE must prune and re-encode first).
    Overflow,
}

impl std::fmt::Display for DictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictError::Overflow => write!(f, "encoding exceeds the 64-bit context id budget"),
        }
    }
}

impl std::error::Error for DictError {}

impl DecodeDict {
    /// Freezes `graph` + `encoding` into a dictionary tagged `timestamp`.
    ///
    /// # Errors
    ///
    /// Returns [`DictError::Overflow`] if the encoding overflowed.
    pub fn from_encoding(
        graph: &CallGraph,
        encoding: &Encoding,
        timestamp: TimeStamp,
    ) -> Result<Self, DictError> {
        if encoding.overflow {
            return Err(DictError::Overflow);
        }
        let mut edges = Vec::with_capacity(graph.edge_count());
        for (eid, e) in graph.edges() {
            let en = if e.back {
                0
            } else {
                match encoding.encoding_u64(eid) {
                    Some(v) => v,
                    None => return Err(DictError::Overflow),
                }
            };
            edges.push(DictEdge {
                caller: e.caller,
                callee: e.callee,
                site: e.site,
                encoding: en,
                back: e.back,
                dispatch: e.dispatch,
            });
        }

        // Local indices: counted functions first, then the rest, each in
        // graph order. `to_dict` maps a graph local to its dictionary local.
        let n = graph.node_count() as u32;
        let order: Vec<u32> = (0..n)
            .filter(|&l| encoding.num_cc(l).is_some())
            .chain((0..n).filter(|&l| encoding.num_cc(l).is_none()))
            .collect();
        let counted = order
            .iter()
            .take_while(|&&l| encoding.num_cc(l).is_some())
            .count();
        let num_cc = order[..counted]
            .iter()
            .map(|&l| {
                u64::try_from(encoding.num_cc(l).expect("counted")).map_err(|_| DictError::Overflow)
            })
            .collect::<Result<Vec<u64>, _>>()?;
        let mut to_dict = vec![0u32; order.len()];
        for (d, &l) in order.iter().enumerate() {
            to_dict[l as usize] = d as u32;
        }
        let local: HashMap<FunctionId, u32> = order
            .iter()
            .enumerate()
            .map(|(d, &l)| (graph.nodes()[l as usize], d as u32))
            .collect();

        // Incoming edges grouped by callee; each node's incoming list keeps
        // its group in insertion order, and dictionary edge `i` is graph
        // edge `i`.
        let mut in_start = Vec::with_capacity(order.len() + 1);
        let mut in_edges = Vec::with_capacity(edges.len());
        in_start.push(0);
        for &l in &order {
            for &eid in &graph.node_at(l).incoming {
                let e = &edges[eid.index()];
                let caller_local = to_dict[graph.edge(eid).caller_local as usize];
                let caller_cc = num_cc.get(caller_local as usize).copied().unwrap_or(1);
                in_edges.push(InEdge {
                    lo: e.encoding,
                    hi: e.encoding.saturating_add(caller_cc),
                    site: e.site,
                    caller: e.caller,
                    caller_local,
                    edge: eid.index() as u32,
                    back: e.back,
                });
            }
            in_start.push(in_edges.len() as u32);
        }

        Ok(DecodeDict {
            timestamp,
            max_id: encoding.max_id,
            edges,
            local,
            num_cc,
            in_start,
            in_edges,
        })
    }

    /// The timestamp this dictionary is valid for.
    pub fn timestamp(&self) -> TimeStamp {
        self.timestamp
    }

    /// `maxID` under this dictionary: the greatest encodable sub-path id.
    pub fn max_id(&self) -> u64 {
        self.max_id
    }

    /// Number of edges frozen into the dictionary.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of nodes with a context count.
    pub fn node_count(&self) -> usize {
        self.num_cc.len()
    }

    /// Number of functions the dictionary knows: every node with a context
    /// count plus every other graph node (edge endpoints included) — the
    /// range of [`Self::local`].
    pub fn function_count(&self) -> usize {
        self.in_start.len().saturating_sub(1)
    }

    /// The dictionary-local index of `f`, or `None` if `f` has neither a
    /// context count nor a graph node. The decoder's one hash probe, taken
    /// at sub-path heads only.
    #[inline]
    pub fn local(&self, f: FunctionId) -> Option<u32> {
        self.local.get(&f).copied()
    }

    /// Compiled incoming edges of local `l`, in graph insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a local index of this dictionary.
    #[inline]
    pub fn in_edges(&self, l: u32) -> &[InEdge] {
        let l = l as usize;
        &self.in_edges[self.in_start[l] as usize..self.in_start[l + 1] as usize]
    }

    /// `numCC(f)`, or `None` if `f` was not in the graph at snapshot time.
    pub fn num_cc(&self, f: FunctionId) -> Option<u64> {
        self.local(f)
            .and_then(|l| self.num_cc.get(l as usize))
            .copied()
    }

    /// Incoming dictionary edges of `f`, in graph insertion order.
    pub fn incoming(&self, f: FunctionId) -> impl Iterator<Item = &DictEdge> {
        self.local(f)
            .map_or(&[][..], |l| self.in_edges(l))
            .iter()
            .map(move |r| &self.edges[r.edge as usize])
    }

    /// The paper's `getEdge(cs, ifun)`: the edge at call site `site` whose
    /// callee is `callee`, if it existed at snapshot time.
    pub fn get_edge(&self, site: CallSiteId, callee: FunctionId) -> Option<&DictEdge> {
        self.incoming(callee).find(|e| e.site == site)
    }

    /// All dictionary edges.
    pub fn edges(&self) -> &[DictEdge] {
        &self.edges
    }
}

/// Append-only store of decode dictionaries, one per re-encoding.
///
/// Dictionaries are held behind [`Arc`] so the store can be cloned in O(n)
/// pointer copies — concurrent runtimes publish immutable store snapshots
/// to reader threads on every re-encoding without duplicating dictionary
/// contents.
#[derive(Clone, Debug, Default)]
pub struct DictStore {
    dicts: Vec<Arc<DecodeDict>>,
}

impl DictStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a dictionary.
    ///
    /// # Panics
    ///
    /// Panics if the dictionary's timestamp does not equal the next store
    /// index — timestamps and store positions must stay in lock step.
    pub fn push(&mut self, dict: DecodeDict) {
        assert_eq!(
            dict.timestamp().index(),
            self.dicts.len(),
            "dictionary timestamp out of order"
        );
        self.dicts.push(Arc::new(dict));
    }

    /// The dictionary for `ts`, if recorded.
    pub fn get(&self, ts: TimeStamp) -> Option<&DecodeDict> {
        self.dicts.get(ts.index()).map(Arc::as_ref)
    }

    /// A shared handle to the dictionary for `ts`, if recorded.
    pub fn get_arc(&self, ts: TimeStamp) -> Option<Arc<DecodeDict>> {
        self.dicts.get(ts.index()).cloned()
    }

    /// The most recent dictionary, if any.
    pub fn latest(&self) -> Option<&DecodeDict> {
        self.dicts.last().map(Arc::as_ref)
    }

    /// A shared handle to the most recent dictionary, if any.
    pub fn latest_arc(&self) -> Option<Arc<DecodeDict>> {
        self.dicts.last().cloned()
    }

    /// Number of dictionaries recorded (equals the number of re-encodings).
    pub fn len(&self) -> usize {
        self.dicts.len()
    }

    /// True when no re-encoding has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.dicts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::classify_back_edges;
    use crate::encode::{encode_graph, EncodeOptions};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    fn diamond() -> CallGraph {
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.add_edge(f(0), f(2), s(1), Dispatch::Direct);
        g.add_edge(f(1), f(3), s(2), Dispatch::Direct);
        g.add_edge(f(2), f(3), s(3), Dispatch::Direct);
        g
    }

    #[test]
    fn snapshot_freezes_encodings() {
        let mut g = diamond();
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let dict = DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap();
        assert_eq!(dict.max_id(), 1);
        assert_eq!(dict.edge_count(), 4);
        assert_eq!(dict.node_count(), 4);
        assert_eq!(dict.num_cc(f(3)), Some(2));
        assert_eq!(dict.num_cc(f(9)), None);
        let e = dict.get_edge(s(3), f(3)).unwrap();
        assert_eq!(e.caller, f(2));
        assert_eq!(e.encoding, 1);
        assert!(dict.get_edge(s(3), f(1)).is_none());
    }

    #[test]
    fn incoming_iterates_in_insertion_order() {
        let mut g = diamond();
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let dict = DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap();
        let callers: Vec<FunctionId> = dict.incoming(f(3)).map(|e| e.caller).collect();
        assert_eq!(callers, vec![f(1), f(2)]);
        assert_eq!(dict.incoming(f(0)).count(), 0);
    }

    #[test]
    fn back_edges_are_frozen_with_zero_encoding() {
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.add_edge(f(1), f(0), s(1), Dispatch::Direct);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let dict = DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap();
        let back = dict.get_edge(s(1), f(0)).unwrap();
        assert!(back.back);
        assert_eq!(back.encoding, 0);
    }

    #[test]
    fn overflowed_encoding_is_rejected() {
        let g = diamond();
        let mut enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        enc.overflow = true;
        assert_eq!(
            DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap_err(),
            DictError::Overflow
        );
    }

    #[test]
    fn store_enforces_timestamp_ordering() {
        let mut g = diamond();
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut store = DictStore::new();
        assert!(store.is_empty());
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::new(1)).unwrap());
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.get(TimeStamp::ZERO).unwrap().timestamp(),
            TimeStamp::ZERO
        );
        assert_eq!(store.latest().unwrap().timestamp(), TimeStamp::new(1));
        assert!(store.get(TimeStamp::new(5)).is_none());
    }

    #[test]
    fn store_clones_share_dictionaries() {
        let mut g = diamond();
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        let snapshot = store.clone();
        let a = store.get_arc(TimeStamp::ZERO).unwrap();
        let b = snapshot.latest_arc().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "clones must share dictionary storage");
    }

    #[test]
    #[should_panic(expected = "timestamp out of order")]
    fn store_rejects_out_of_order_push() {
        let mut g = diamond();
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::new(3)).unwrap());
    }

    #[test]
    fn dict_error_displays() {
        assert!(DictError::Overflow.to_string().contains("64-bit"));
    }
}
