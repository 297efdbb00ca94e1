//! Differential test for the dense re-encode pipeline.
//!
//! Back-edge classification, topological order, `numCC`/`En(e)` assignment
//! and the re-encode's site-patch install run over graph-local arrays. The
//! references below are the same algorithms over hash maps keyed by
//! function, edge and site — the layout the pipeline used before it went
//! dense. On random graphs (cycles, several roots, indirect sites with many
//! targets, heat with ties) both must agree on the back flags, DFS finish
//! order and reachability, the topological order, every `numCC` and edge
//! encoding, `maxID`, overflow, the conversion count, and `resolve` for
//! every `(site, callee)` pair against the reference site's code.
//!
//! `PROPTEST_CASES` sets the number of cases.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dacce_callgraph::analysis::{
    classify_back_edges, find_back_edges, topological_locals, BackEdgeAnalysis,
};
use dacce_callgraph::encode::{encode_graph, EncodeOptions, MAX_ENCODABLE_ID};
use dacce_callgraph::{CallGraph, CallSiteId, Dispatch, EdgeId, FunctionId};
use dacce_program::CostModel;

use crate::config::{CompressionMode, DacceConfig};
use crate::patch::{EdgeAction, IndirectPatch};
use crate::shared::{ResolvedSite, SharedState};

fn f(i: u32) -> FunctionId {
    FunctionId::new(i)
}

/// Back-edge DFS over hash-map colours.
fn reference_back_edges(graph: &CallGraph, roots: &[FunctionId]) -> BackEdgeAnalysis {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<FunctionId, Color> =
        graph.nodes().iter().map(|&f| (f, Color::White)).collect();
    let mut out = BackEdgeAnalysis::default();
    let mut stack: Vec<(FunctionId, usize)> = Vec::new();
    let mut start_points: Vec<FunctionId> = roots
        .iter()
        .copied()
        .filter(|&r| graph.contains_node(r))
        .collect();
    start_points.extend(graph.nodes().iter().copied());
    for start in start_points {
        if color.get(&start) != Some(&Color::White) {
            continue;
        }
        color.insert(start, Color::Grey);
        stack.push((start, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let outgoing = graph.outgoing(node);
            if *next < outgoing.len() {
                let eid = outgoing[*next];
                *next += 1;
                let target = graph.edge(eid).callee;
                match color[&target] {
                    Color::Grey => out.back_edges.push(eid),
                    Color::White => {
                        color.insert(target, Color::Grey);
                        stack.push((target, 0));
                    }
                    Color::Black => {}
                }
            } else {
                stack.pop();
                color.insert(node, Color::Black);
                out.finish_order.push(node);
            }
        }
    }
    let mut worklist: Vec<FunctionId> = roots
        .iter()
        .copied()
        .filter(|&r| graph.contains_node(r))
        .collect();
    out.reachable.extend(worklist.iter().copied());
    while let Some(f) = worklist.pop() {
        for &eid in graph.outgoing(f) {
            let t = graph.edge(eid).callee;
            if out.reachable.insert(t) {
                worklist.push(t);
            }
        }
    }
    out
}

/// Kahn's algorithm over hash-map in-degrees.
fn reference_topological_order(graph: &CallGraph) -> Vec<FunctionId> {
    let mut indegree: HashMap<FunctionId, usize> =
        graph.nodes().iter().map(|&f| (f, 0usize)).collect();
    for (_, e) in graph.edges() {
        if !e.back {
            *indegree.get_mut(&e.callee).unwrap() += 1;
        }
    }
    let mut ready: Vec<FunctionId> = graph
        .nodes()
        .iter()
        .copied()
        .filter(|f| indegree[f] == 0)
        .collect();
    let mut head = 0;
    while head < ready.len() {
        let f = ready[head];
        head += 1;
        for &eid in graph.outgoing(f) {
            let e = graph.edge(eid);
            if e.back {
                continue;
            }
            let d = indegree.get_mut(&e.callee).unwrap();
            *d -= 1;
            if *d == 0 {
                ready.push(e.callee);
            }
        }
    }
    ready
}

/// The reference encoding: `numCC` per function, `En(e)` per edge,
/// `maxID` and overflow.
struct ReferenceEncoding {
    num_cc: HashMap<FunctionId, u128>,
    edge_encoding: HashMap<EdgeId, u128>,
    max_id: u64,
    overflow: bool,
}

/// Ball–Larus numbering over hash maps, hottest incoming edge first.
fn reference_encode(graph: &CallGraph, heat: &HashMap<EdgeId, u64>) -> ReferenceEncoding {
    let mut num_cc: HashMap<FunctionId, u128> = HashMap::new();
    let mut edge_encoding: HashMap<EdgeId, u128> = HashMap::new();
    for node in reference_topological_order(graph) {
        let mut inc: Vec<EdgeId> = graph
            .incoming(node)
            .iter()
            .copied()
            .filter(|&e| !graph.edge(e).back)
            .collect();
        inc.sort_by_key(|e| {
            let h = heat.get(e).copied().unwrap_or(0);
            (std::cmp::Reverse(h), e.index())
        });
        let mut total: u128 = 0;
        for &eid in &inc {
            let caller_cc = num_cc.get(&graph.edge(eid).caller).copied().unwrap_or(1);
            edge_encoding.insert(eid, total);
            total = total.saturating_add(caller_cc);
        }
        num_cc.insert(node, if total == 0 { 1 } else { total });
    }
    let max_cc = num_cc.values().copied().max().unwrap_or(1);
    ReferenceEncoding {
        max_id: u64::try_from((max_cc - 1).min(MAX_ENCODABLE_ID)).unwrap(),
        overflow: max_cc - 1 > MAX_ENCODABLE_ID,
        num_cc,
        edge_encoding,
    }
}

/// One site's generated code as the reference install builds it.
#[derive(Clone, Debug)]
struct SiteState {
    tc_wrap: bool,
    patch: SitePatch,
}

/// A reference site's dispatch: one target, or an indirect site's chain.
#[derive(Clone, Debug)]
enum SitePatch {
    Direct(FunctionId, EdgeAction),
    Indirect(IndirectPatch),
}

/// What `state`'s code does for a call to `callee`, charged like the
/// runtime's dispatch; `None` when it traps.
fn lookup(state: &SiteState, cost: &CostModel, callee: FunctionId) -> Option<ResolvedSite> {
    let (action, dispatch_cost) = match &state.patch {
        SitePatch::Direct(target, action) => (*target == callee).then_some((*action, 0))?,
        SitePatch::Indirect(p) => {
            let (action, cmps, hashed) = p.lookup(callee)?;
            let cost = if hashed {
                cost.hash_lookup
            } else {
                u64::from(cmps) * cost.compare
            };
            (action, cost)
        }
    };
    Some(ResolvedSite {
        action,
        dispatch_cost,
        tc_wrap: state.tc_wrap,
    })
}

/// The re-encode's site-patch install, grouping edges per site in a hash
/// map. Returns every site's state and the number of indirect sites that
/// newly converted to hashing relative to `old`.
fn reference_install(
    graph: &CallGraph,
    enc: &ReferenceEncoding,
    heat: &HashMap<EdgeId, u64>,
    config: &DacceConfig,
    tail_fns: &HashSet<FunctionId>,
    old: &HashMap<CallSiteId, SiteState>,
) -> (HashMap<CallSiteId, SiteState>, u64) {
    let heat_of = |eid: EdgeId| heat.get(&eid).copied().unwrap_or(0);
    let action_for = |eid: EdgeId, back: bool| {
        if back {
            let compress = match config.compression {
                CompressionMode::Always => true,
                CompressionMode::Never => false,
                CompressionMode::Adaptive => heat_of(eid) >= config.compression_min_heat,
            };
            if compress {
                EdgeAction::UnencodedCompressed
            } else {
                EdgeAction::Unencoded
            }
        } else {
            EdgeAction::Encoded {
                delta: u64::try_from(enc.edge_encoding[&eid]).unwrap(),
            }
        }
    };
    let mut by_site: HashMap<CallSiteId, Vec<EdgeId>> = HashMap::new();
    for (eid, e) in graph.edges() {
        by_site.entry(e.site).or_default().push(eid);
    }
    let mut conversions = 0;
    let mut rebuilt = HashMap::new();
    for (site, eids) in by_site {
        let indirect = eids
            .iter()
            .any(|&eid| graph.edge(eid).dispatch == Dispatch::Indirect);
        let tc_wrap = config.handle_tail_calls
            && eids
                .iter()
                .any(|&eid| tail_fns.contains(&graph.edge(eid).callee));
        let patch = if indirect {
            let mut ordered: Vec<(u64, EdgeId)> =
                eids.iter().map(|&eid| (heat_of(eid), eid)).collect();
            ordered.sort_by_key(|&(h, eid)| (std::cmp::Reverse(h), eid.index()));
            let mut p = IndirectPatch::default();
            for &(_, eid) in &ordered {
                let e = graph.edge(eid);
                p.add_target(
                    e.callee,
                    action_for(eid, e.back),
                    config.indirect_inline_max,
                );
            }
            if p.hashed.is_some() {
                let was_hashed = matches!(
                    old.get(&site).map(|s| &s.patch),
                    Some(SitePatch::Indirect(o)) if o.hashed.is_some()
                );
                if !was_hashed {
                    conversions += 1;
                }
            }
            SitePatch::Indirect(p)
        } else {
            let e = graph.edge(eids[0]);
            SitePatch::Direct(e.callee, action_for(eids[0], e.back))
        };
        rebuilt.insert(site, SiteState { tc_wrap, patch });
    }
    (rebuilt, conversions)
}

/// Grows a random graph over `n` functions: recursion, indirect sites
/// that reach many callees, and site ids drawn out of edge order. A site
/// drawn again gains another callee (a direct site then has several edges,
/// so the first in insertion order decides its patch); `owners` keeps one
/// caller per site.
fn grow(
    rng: &mut SmallRng,
    g: &mut CallGraph,
    n: u32,
    owners: &mut HashMap<CallSiteId, FunctionId>,
) {
    for _ in 0..rng.gen_range(1..4 * n as usize) {
        let site = CallSiteId::new(rng.gen_range(0..256));
        let caller = *owners.entry(site).or_insert_with(|| f(rng.gen_range(0..n)));
        let (dispatch, targets) = match rng.gen_range(0u32..10) {
            0 | 1 => (Dispatch::Indirect, rng.gen_range(2u32..9)),
            2 => (Dispatch::Plt, 1),
            _ => (Dispatch::Direct, 1),
        };
        for _ in 0..targets {
            g.add_edge(caller, f(rng.gen_range(0..n)), site, dispatch);
        }
    }
}

/// Heat on a random subset of edges, from a small range so ties are
/// common, as the dense (by edge id) and reference (hash map) layouts.
fn random_heat(rng: &mut SmallRng, g: &CallGraph) -> (Vec<u64>, HashMap<EdgeId, u64>) {
    let mut dense = vec![0u64; g.edge_count()];
    let mut map = HashMap::new();
    for (eid, _) in g.edges() {
        if rng.gen_bool(0.6) {
            let h = rng.gen_range(0u64..4) * 8;
            dense[eid.index()] = h;
            map.insert(eid, h);
        }
    }
    (dense, map)
}

/// Checks one graph: analyses, encoding, and (when `sh` is given) the
/// install against the references. Returns the reference site states.
fn check_graph(
    rng: &mut SmallRng,
    g: &mut CallGraph,
    roots: &[FunctionId],
    sh: &mut SharedState,
    old: &HashMap<CallSiteId, SiteState>,
) -> HashMap<CallSiteId, SiteState> {
    let want = reference_back_edges(g, roots);
    let full = find_back_edges(g, roots);
    assert_eq!(full.back_edges, want.back_edges);
    assert_eq!(full.finish_order, want.finish_order);
    assert_eq!(full.reachable, want.reachable);
    assert_eq!(classify_back_edges(g, roots), want.back_edges);
    let flagged: Vec<EdgeId> = g
        .edges()
        .filter(|(_, e)| e.back)
        .map(|(eid, _)| eid)
        .collect();
    let mut want_flagged = want.back_edges.clone();
    want_flagged.sort_unstable();
    assert_eq!(flagged, want_flagged);
    let order: Vec<FunctionId> = topological_locals(g)
        .into_iter()
        .map(|l| g.nodes()[l as usize])
        .collect();
    assert_eq!(order, reference_topological_order(g));

    let (heat, heat_map) = random_heat(rng, g);
    let enc = encode_graph(g, roots, &EncodeOptions::with_heat(&heat));
    let reference = reference_encode(g, &heat_map);
    assert_eq!(
        (enc.max_id, enc.overflow),
        (reference.max_id, reference.overflow)
    );
    for (l, &func) in g.nodes().iter().enumerate() {
        assert_eq!(enc.num_cc(l as u32), reference.num_cc.get(&func).copied());
    }
    assert_eq!(enc.node_count(), reference.num_cc.len());
    for (eid, _) in g.edges() {
        assert_eq!(
            enc.encoding(eid),
            reference.edge_encoding.get(&eid).copied()
        );
    }

    // Install the encoding into a generation holding this graph.
    sh.current.graph = Arc::new(g.clone());
    let conversions = sh.current.install(&enc, &sh.config, &heat);
    let (sites, want_conversions) = reference_install(
        g,
        &reference,
        &heat_map,
        &sh.config,
        &sh.current.tail_fns,
        old,
    );
    assert_eq!(conversions, want_conversions);
    // Every (site, callee) pair resolves through the table like the
    // reference site's code, and only the reference's sites have records.
    let view = &sh.current.view;
    let probes: Vec<FunctionId> = g.nodes().iter().copied().chain([f(u32::MAX - 1)]).collect();
    for (&site, state) in &sites {
        for &callee in &probes {
            assert_eq!(
                view.resolve(site, callee),
                lookup(state, &view.cost, callee),
                "({site}, {callee})"
            );
        }
    }
    let compiled: HashSet<CallSiteId> = view.dispatch.iter_compiled().map(|(s, ..)| s).collect();
    assert_eq!(compiled, sites.keys().copied().collect());
    sites
}

/// A random configuration of the install's knobs.
fn random_config(rng: &mut SmallRng) -> DacceConfig {
    DacceConfig {
        compression: match rng.gen_range(0u32..3) {
            0 => CompressionMode::Always,
            1 => CompressionMode::Never,
            _ => CompressionMode::Adaptive,
        },
        compression_min_heat: rng.gen_range(0u64..32),
        indirect_inline_max: rng.gen_range(1usize..5),
        handle_tail_calls: rng.gen_bool(0.5),
        ..DacceConfig::default()
    }
}

proptest! {
    #[test]
    fn dense_pipeline_matches_hash_map_reference(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2u32..24);
        let roots: Vec<FunctionId> = (0..rng.gen_range(1u32..4)).map(|_| f(rng.gen_range(0..n))).collect();
        let mut sh = SharedState::new(random_config(&mut rng), CostModel::default());
        sh.attach_main(roots[0]);
        for _ in 0..rng.gen_range(0usize..3) {
            sh.current.tail_fns.insert(f(rng.gen_range(0..n)));
        }
        let mut g = CallGraph::new();
        for &r in &roots {
            g.ensure_node(r);
        }
        let mut owners = HashMap::new();
        grow(&mut rng, &mut g, n, &mut owners);
        let first = check_graph(&mut rng, &mut g, &roots, &mut sh, &HashMap::new());
        // A second generation over the grown graph: slots of known sites
        // stay, conversions count against the first generation's patches.
        grow(&mut rng, &mut g, n, &mut owners);
        check_graph(&mut rng, &mut g, &roots, &mut sh, &first);
        let slots: Vec<(CallSiteId, u32)> = sh
            .current
            .view
            .dispatch
            .iter_compiled()
            .map(|(site, slot, _)| (site, slot))
            .collect();
        let mut sorted = slots.clone();
        sorted.sort_by_key(|&(_, slot)| slot);
        // The first install allocated slots in ascending site order; the
        // second appended the new sites' slots in ascending site order.
        let first_len = first.len();
        prop_assert!(sorted[..first_len].windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(sorted[first_len..].windows(2).all(|w| w[0].0 < w[1].0));
    }
}

/// A ladder of diamonds overflows the 64-bit budget identically in both
/// layouts.
#[test]
fn overflow_matches_reference() {
    let mut g = CallGraph::new();
    let mut site = 0;
    for stage in 0..70u32 {
        let base = stage * 3;
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(
                f(base + a),
                f(base + b),
                CallSiteId::new(site),
                Dispatch::Direct,
            );
            site += 1;
        }
    }
    classify_back_edges(&mut g, &[f(0)]);
    let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
    let reference = reference_encode(&g, &HashMap::new());
    assert!(enc.overflow);
    assert_eq!(
        (enc.max_id, enc.overflow),
        (reference.max_id, reference.overflow)
    );
    assert_eq!(
        enc.max_num_cc(),
        reference.num_cc.values().copied().max().unwrap()
    );
}
