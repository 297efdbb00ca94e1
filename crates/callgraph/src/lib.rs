//! Dynamic call-graph representation and context-encoding algorithms.
//!
//! This crate is the graph substrate of the DACCE reproduction (Li et al.,
//! *Dynamic and Adaptive Calling Context Encoding*, CGO 2014). It provides:
//!
//! * dense identifier newtypes for functions, call sites and edges
//!   ([`FunctionId`], [`CallSiteId`], [`EdgeId`]),
//! * an incrementally growable [`CallGraph`] that stores one node per
//!   function and one edge per `(call site, target)` pair,
//! * graph analyses ([`analysis`]): deterministic DFS back-edge
//!   identification, topological ordering of the acyclic (encoded) subgraph,
//!   and reachability,
//! * the Ball–Larus-style numbering used by both DACCE and the PCCE baseline
//!   ([`encode`]): `numCC` computation with 128-bit overflow detection and
//!   frequency-ordered edge-encoding assignment (the hottest incoming edge of
//!   every node is encoded `0` and needs no instrumentation),
//! * versioned decode dictionaries ([`dict`]): immutable snapshots of
//!   `(edge encodings, numCC, maxID)` tagged with the global re-encoding
//!   timestamp `gTimeStamp`, exactly as in Figure 6 of the paper,
//! * Graphviz export for debugging ([`dot`]).
//!
//! # Example
//!
//! Encode the call graph of Figure 1 of the paper and observe that only the
//! edge `C -> D` receives a non-zero encoding:
//!
//! ```
//! use dacce_callgraph::{CallGraph, CallSiteId, Dispatch, FunctionId};
//! use dacce_callgraph::encode::{encode_graph, EncodeOptions};
//!
//! let mut g = CallGraph::new();
//! let f: Vec<FunctionId> = (0..6).map(|i| {
//!     let id = FunctionId::new(i);
//!     g.ensure_node(id);
//!     id
//! }).collect();
//! let mut site = 0u32;
//! let mut call = |g: &mut CallGraph, from: usize, to: usize| {
//!     let s = CallSiteId::new(site);
//!     site += 1;
//!     g.add_edge(f[from], f[to], s, Dispatch::Direct);
//! };
//! call(&mut g, 0, 1); // A -> B
//! call(&mut g, 0, 2); // A -> C
//! call(&mut g, 1, 3); // B -> D
//! call(&mut g, 2, 3); // C -> D
//! call(&mut g, 3, 4); // D -> E
//! call(&mut g, 3, 5); // D -> F
//! let enc = encode_graph(&mut g, &[f[0]], &EncodeOptions::default());
//! assert_eq!(enc.max_id, 1); // D, E, F each have two contexts
//! ```

pub mod analysis;
pub mod dict;
pub mod dot;
pub mod encode;
pub mod graph;
pub mod ids;
pub mod paths;

pub use dict::{DecodeDict, DictEdge, DictStore, InEdge};
pub use encode::{EncodeOptions, Encoding};
pub use graph::{CallGraph, Dispatch, Edge, Node};
pub use ids::{CallSiteId, EdgeId, FunctionId, TimeStamp};
