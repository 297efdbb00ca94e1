//! The context decoder — Algorithm 1 of the paper.
//!
//! Decoding walks one acyclic sub-path at a time, from the sampled function
//! back towards the thread root. An id greater than `maxID` signals that the
//! current sub-path was started by an unencoded (or recursive) edge whose
//! suspended context sits on the `ccStack`; the id is adjusted by
//! `maxID + 1` and the `onstack` flag set. Whenever the adjusted id reaches
//! 0 and `onstack` holds, the decoder first tries to match the current
//! function against the target of the top `ccStack` entry — the head of an
//! acyclic sub-path is always the target of the edge that suspended it, and
//! a sub-path cannot revisit its head (it is acyclic), so the match is
//! unambiguous. Compressed entries (repetition `count > 0`, §3.3) stand for
//! `count + 1` boundary instances with identical saved state; each pop
//! consumes one instance.
//!
//! The full context of a child thread is the decoded context of its parent
//! at spawn time concatenated with its own (§5.3); [`decode_full`] follows
//! the spawn links recursively.
//!
//! Decode terminates on any input, including hostile imported
//! dictionaries: an acyclic sub-path longer than the dictionary has
//! functions can only walk a cycle of encoded edges, and a path that
//! reaches [`MAX_DECODE_FRAMES`] frames at a ccStack boundary is rejected,
//! so neither a cleared back flag nor a huge compressed repetition count
//! can make the walk run away. The frame bound also applies to valid
//! contexts: one deeper than the bound (over four million frames of
//! recursion) returns [`DecodeError::TooDeep`] rather than a path.

use std::collections::HashMap;

use dacce_callgraph::{CallSiteId, DecodeDict, DictStore, FunctionId, TimeStamp};
use dacce_program::{ContextPath, PathStep};

use crate::ccstack::CcEntry;
use crate::context::EncodedContext;

/// Decoding failures. Any occurrence on a context produced by the engine,
/// other than [`DecodeError::TooDeep`], is a bug; the error carries enough
/// detail to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// No dictionary recorded for the context's timestamp.
    UnknownTimestamp(TimeStamp),
    /// A ccStack entry references a call site whose containing function is
    /// unknown.
    UnknownSiteOwner(CallSiteId),
    /// `onstack` is set but the ccStack is exhausted.
    CcStackUnderflow {
        /// The function being decoded when the stack ran dry.
        at: FunctionId,
    },
    /// No incoming encoded edge covers the current id.
    NoMatchingEdge {
        /// The function being decoded.
        at: FunctionId,
        /// The (adjusted) id that no edge range contains.
        id: u64,
    },
    /// An acyclic sub-path took more steps than the dictionary has
    /// functions, so its encoded edges close a cycle (a corrupted
    /// dictionary, e.g. an import with a cleared back flag).
    CyclicSubPath {
        /// The function reached when the step bound ran out.
        at: FunctionId,
    },
    /// The decoded path reached [`MAX_DECODE_FRAMES`] frames with a ccStack
    /// boundary still to cross. This is returned for valid contexts too:
    /// a recursion the ccStack compressed into a few entries can stand for
    /// more frames than the bound. A ccStack standing for
    /// `MAX_DECODE_FRAMES` or more boundary instances (entries plus
    /// compressed repetitions) is rejected before the walk.
    TooDeep,
}

/// The frame bound of decode: every context whose path has at most this
/// many frames decodes, and decode returns [`DecodeError::TooDeep`] instead
/// of crossing a ccStack boundary once it has built this many. Every
/// boundary instance (an entry or one of its compressed repetitions) adds
/// at least one frame, so a ccStack standing for this many instances is
/// rejected before the walk starts.
pub const MAX_DECODE_FRAMES: usize = 1 << 22;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownTimestamp(ts) => write!(f, "no decode dictionary for {ts}"),
            DecodeError::UnknownSiteOwner(cs) => write!(f, "unknown owner function of {cs}"),
            DecodeError::CcStackUnderflow { at } => {
                write!(f, "ccStack exhausted while decoding at {at}")
            }
            DecodeError::NoMatchingEdge { at, id } => {
                write!(f, "no incoming edge of {at} covers id {id}")
            }
            DecodeError::CyclicSubPath { at } => {
                write!(f, "encoded edges form a cycle through {at}")
            }
            DecodeError::TooDeep => {
                write!(f, "context exceeds {MAX_DECODE_FRAMES} frames")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes one thread-local context (no spawn prefix) into a root-first
/// path.
///
/// `owner` maps call sites to their containing function; the engine learns
/// this mapping when sites first trap (a binary implementation reads it off
/// the instruction address).
///
/// # Errors
///
/// Returns a [`DecodeError`] when the context is inconsistent with the
/// dictionary — which, for engine-produced contexts, indicates a bug — and
/// [`DecodeError::TooDeep`] when the context is deeper than
/// [`MAX_DECODE_FRAMES`] allows, which valid contexts of very deep or
/// long-running recursion can be.
pub fn decode_thread(
    dict: &DecodeDict,
    id: u64,
    leaf: FunctionId,
    root: FunctionId,
    cc: &[CcEntry],
    owner: &HashMap<CallSiteId, FunctionId>,
) -> Result<ContextPath, DecodeError> {
    let max_id = dict.max_id();
    // Every boundary instance adds a frame, so a ccStack standing for
    // `MAX_DECODE_FRAMES` or more instances would reach the bound at a
    // boundary: reject it before walking it.
    let instances = cc.iter().try_fold(0u64, |n, e| {
        n.checked_add(e.count)
            .and_then(|n| n.checked_add(1))
            .filter(|&n| n < MAX_DECODE_FRAMES as u64)
    });
    if instances.is_none() {
        return Err(DecodeError::TooDeep);
    }
    // An acyclic sub-path visits each function at most once.
    let sub_path_bound = dict.function_count();
    let mut sub_path_steps = 0usize;
    // The ccStack is read through a cursor: entries `cc[..depth]` remain,
    // and the top one still stands for `top_count + 1` boundary instances.
    let mut depth = cc.len();
    let mut top_count = cc.last().map_or(0, |e| e.count);

    // AdjustID (Algorithm 1, lines 1-4).
    let mut id = id;
    let mut onstack = false;
    let adjust = |id: &mut u64, onstack: &mut bool| {
        if *id > max_id {
            *id -= max_id + 1;
            *onstack = true;
        }
    };
    adjust(&mut id, &mut onstack);

    // Steps are built leaf-to-root; each step's `site` is the call site
    // through which its function was entered (filled in when the edge is
    // found). `cur_local` is `cur`'s dictionary-local index, looked up at
    // sub-path heads only: acyclic steps carry it along the matched edge.
    // The capacity covers a typical deep context without regrowing.
    let mut steps = Vec::with_capacity(64);
    steps.push(PathStep {
        site: None,
        func: leaf,
    });
    let mut cur = leaf;
    let mut cur_local = dict.local(leaf);

    loop {
        // Lines 9-25: match sub-path heads against the ccStack top.
        while id == 0 && onstack {
            let Some(top) = depth.checked_sub(1).map(|i| &cc[i]) else {
                return Err(DecodeError::CcStackUnderflow { at: cur });
            };
            if cur != top.target {
                break;
            }
            onstack = false;
            // A compressed entry stands for `count + 1` boundary instances
            // with *identical* saved state (that is what made compression
            // hit, §3.3); consume one instance per pop — the repeated
            // interior sub-paths then decode naturally, because each
            // restart sees the same id.
            if top_count > 0 {
                top_count -= 1;
            } else {
                depth -= 1;
                top_count = depth.checked_sub(1).map_or(0, |i| cc[i].count);
            }
            steps.last_mut().expect("steps never empty").site = Some(top.site);
            let Some(&caller) = owner.get(&top.site) else {
                return Err(DecodeError::UnknownSiteOwner(top.site));
            };
            if steps.len() >= MAX_DECODE_FRAMES {
                return Err(DecodeError::TooDeep);
            }
            sub_path_steps = 0;
            steps.push(PathStep {
                site: None,
                func: caller,
            });
            cur = caller;
            cur_local = dict.local(caller);
            id = top.id;
            adjust(&mut id, &mut onstack);
        }

        // Termination: back at the thread root with nothing suspended.
        if cur == root && id == 0 && !onstack && depth == 0 {
            break;
        }

        // Lines 26-33: one acyclic step through the encoded edges — the
        // first non-back incoming edge, in insertion order, whose range
        // covers the id.
        let found = cur_local.and_then(|l| {
            dict.in_edges(l)
                .iter()
                .find(|e| !e.back && e.lo <= id && id < e.hi)
        });
        let Some(e) = found else {
            return Err(DecodeError::NoMatchingEdge { at: cur, id });
        };
        sub_path_steps += 1;
        if sub_path_steps >= sub_path_bound {
            return Err(DecodeError::CyclicSubPath { at: cur });
        }
        steps.last_mut().expect("steps never empty").site = Some(e.site);
        steps.push(PathStep {
            site: None,
            func: e.caller,
        });
        cur = e.caller;
        cur_local = Some(e.caller_local);
        id -= e.lo;
    }

    // Reversing the leaf-to-root order yields the root-first path (the
    // root step's site stays `None`).
    steps.reverse();
    Ok(ContextPath(steps))
}

/// Decodes a full context, following spawn links so that a child thread's
/// path is prefixed with its creation context.
///
/// # Errors
///
/// Propagates any [`DecodeError`] from the thread-local decodes.
pub fn decode_full(
    ctx: &EncodedContext,
    dicts: &DictStore,
    owner: &HashMap<CallSiteId, FunctionId>,
) -> Result<ContextPath, DecodeError> {
    let dict = dicts
        .get(ctx.ts)
        .ok_or(DecodeError::UnknownTimestamp(ctx.ts))?;
    let own = decode_thread(dict, ctx.id, ctx.leaf, ctx.root, &ctx.cc, owner)?;
    match &ctx.spawn {
        None => Ok(own),
        Some(link) => {
            let parent = decode_full(&link.parent, dicts, owner)?;
            Ok(own.prepend(&parent, Some(link.site)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_callgraph::analysis::classify_back_edges;
    use dacce_callgraph::encode::{encode_graph, EncodeOptions};
    use dacce_callgraph::{CallGraph, Dispatch};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    /// Builds a dictionary from edges and returns it with the owner map.
    fn dict_of(
        edges: &[(u32, u32, u32)], // (caller, callee, site)
        roots: &[FunctionId],
    ) -> (DecodeDict, HashMap<CallSiteId, FunctionId>) {
        let mut g = CallGraph::new();
        let mut owner = HashMap::new();
        for &(a, b, cs) in edges {
            g.add_edge(f(a), f(b), s(cs), Dispatch::Direct);
            owner.insert(s(cs), f(a));
        }
        classify_back_edges(&mut g, roots);
        let enc = encode_graph(&g, roots, &EncodeOptions::default());
        (
            DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap(),
            owner,
        )
    }

    fn path(steps: &[(Option<u32>, u32)]) -> ContextPath {
        ContextPath(
            steps
                .iter()
                .map(|&(site, func)| PathStep {
                    site: site.map(s),
                    func: f(func),
                })
                .collect(),
        )
    }

    /// Figure 1 / §2.1: fully encoded diamond, no ccStack involved.
    #[test]
    fn decode_fully_encoded_diamond() {
        let (dict, owner) = dict_of(&[(0, 1, 0), (0, 2, 1), (1, 3, 2), (2, 3, 3)], &[f(0)]);
        // Path A->C->D has id = En(CD) = 1.
        let got = decode_thread(&dict, 1, f(3), f(0), &[], &owner).unwrap();
        assert_eq!(got, path(&[(None, 0), (Some(1), 2), (Some(3), 3)]));
        // Path A->B->D has id 0.
        let got = decode_thread(&dict, 0, f(3), f(0), &[], &owner).unwrap();
        assert_eq!(got, path(&[(None, 0), (Some(0), 1), (Some(2), 3)]));
    }

    /// Figure 2: edge A->D unencoded; context AD is id = maxID+1 with
    /// <0, A, D> on the stack.
    #[test]
    fn decode_fig2_unencoded_edge() {
        // Encoded graph: A->C (site 0), C->D (site 1). Unencoded A->D uses
        // site 2 which is absent from the dictionary.
        let (dict, mut owner) = dict_of(&[(0, 2, 0), (2, 3, 1)], &[f(0)]);
        owner.insert(s(2), f(0));
        assert_eq!(dict.max_id(), 0);
        let cc = [CcEntry {
            id: 0,
            site: s(2),
            target: f(3),
            count: 0,
        }];
        let got = decode_thread(&dict, 1, f(3), f(0), &cc, &owner).unwrap();
        assert_eq!(got, path(&[(None, 0), (Some(2), 3)]));
    }

    /// §3.1: two unencoded edges split A->B->C->D into three sub-paths.
    #[test]
    fn decode_two_unencoded_boundaries() {
        // Encoded: B->C (site 1). Unencoded: A->B (site 0), C->D (site 2).
        let (dict, mut owner) = dict_of(&[(1, 2, 1)], &[f(1)]);
        owner.insert(s(0), f(0));
        owner.insert(s(2), f(2));
        let max = dict.max_id();
        let cc = [
            CcEntry {
                id: 0,
                site: s(0),
                target: f(1),
                count: 0,
            },
            CcEntry {
                id: max + 1,
                site: s(2),
                target: f(3),
                count: 0,
            },
        ];
        let got = decode_thread(&dict, max + 1, f(3), f(0), &cc, &owner).unwrap();
        assert_eq!(
            got,
            path(&[(None, 0), (Some(0), 1), (Some(1), 2), (Some(2), 3)])
        );
    }

    /// §3.3 / Figure 5(a-c): recursion ADACDAD with unencoded AD and DA.
    #[test]
    fn decode_fig5_recursion_uncompressed() {
        // Encoded graph: A->C (site 0), C->D (site 1); boundary sites:
        // A->D = site 2, D->A = site 3.
        let (dict, mut owner) = dict_of(&[(0, 1, 0), (1, 3, 1)], &[f(0)]);
        owner.insert(s(2), f(0));
        owner.insert(s(3), f(3));
        // maxID is 0. Running A D A C D A D crosses four boundary edges
        // (AD, DA, DA, AD); each pushes the id held before the call and
        // restarts at maxID + 1, while the encoded A C D adds nothing. That
        // leaves id 1 at D over the ccStack <0,A,D> <1,D,A> <1,D,A> <1,A,D>,
        // the worked example of Figure 5(a-c) without compression.
        let m = dict.max_id();
        let cc = [
            CcEntry {
                id: 0,
                site: s(2),
                target: f(3),
                count: 0,
            },
            CcEntry {
                id: m + 1,
                site: s(3),
                target: f(0),
                count: 0,
            },
            CcEntry {
                id: m + 1,
                site: s(3),
                target: f(0),
                count: 0,
            },
            CcEntry {
                id: m + 1,
                site: s(2),
                target: f(3),
                count: 0,
            },
        ];
        // Decoding pops the four entries and walks C->D and A->C in between:
        // A D A C D A D, entered through sites 2, 3, 0, 1, 3, 2.
        let got = decode_thread(&dict, m + 1, f(3), f(0), &cc, &owner).unwrap();
        assert_eq!(
            got,
            path(&[
                (None, 0),
                (Some(2), 3),
                (Some(3), 0),
                (Some(0), 1),
                (Some(1), 3),
                (Some(3), 0),
                (Some(2), 3),
            ])
        );
    }

    /// Figure 5(d-f): after re-encoding, compressed recursion decodes with
    /// repetition expansion to A C D A D A D A D.
    #[test]
    fn decode_fig5_compressed_recursion() {
        // Encoded: A->C (site 0, En 0), C->D (site 1, En 1), A->D (site 2,
        // En 0). Back edge D->A = site 3 (in graph, flagged back).
        let mut g = CallGraph::new();
        let mut owner = HashMap::new();
        let mut edge_ids = Vec::new();
        for &(a, b, cs) in &[(0u32, 1u32, 0u32), (1, 3, 1), (0, 3, 2), (3, 0, 3)] {
            let (eid, _) = g.add_edge(f(a), f(b), s(cs), Dispatch::Direct);
            edge_ids.push(eid);
            owner.insert(s(cs), f(a));
        }
        classify_back_edges(&mut g, &[f(0)]);
        // The recursive path makes A->D the hot incoming edge of D; the
        // adaptive encoder gives it En 0, matching the paper's figure.
        let mut heat = vec![0u64; g.edge_count()];
        heat[edge_ids[2].index()] = 100;
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::with_heat(&heat));
        let dict = DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap();
        assert_eq!(dict.max_id(), 1);
        // Figure 5f final state: id = 2, ccStack (1,D,A,0) | (2,D,A,1).
        let cc = [
            CcEntry {
                id: 1,
                site: s(3),
                target: f(0),
                count: 0,
            },
            CcEntry {
                id: 2,
                site: s(3),
                target: f(0),
                count: 1,
            },
        ];
        let got = decode_thread(&dict, 2, f(3), f(0), &cc, &owner).unwrap();
        // A C D (A D) x3 = A C D A D A D A D.
        assert_eq!(
            got,
            path(&[
                (None, 0),
                (Some(0), 1),
                (Some(1), 3),
                (Some(3), 0),
                (Some(2), 3),
                (Some(3), 0),
                (Some(2), 3),
                (Some(3), 0),
                (Some(2), 3),
            ])
        );
    }

    /// Where the frame bound sits for valid input: a self-recursion the
    /// engine recorded as a compressed ccStack entry, with that entry's
    /// repetition count raised. Each boundary instance adds one frame; the
    /// deepest such context that decodes crosses `MAX_DECODE_FRAMES - 1`
    /// boundaries, one more instance is `TooDeep`.
    #[test]
    fn frame_bound_on_engine_compressed_recursion() {
        use crate::config::{CompressionMode, DacceConfig};
        use crate::engine::DacceEngine;
        use dacce_program::runtime::CallDispatch;
        use dacce_program::{CostModel, ThreadId};

        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            compression: CompressionMode::Always,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        for _ in 0..6 {
            e.call(
                ThreadId::MAIN,
                s(1),
                f(1),
                f(1),
                CallDispatch::Direct,
                false,
            );
        }
        let (ctx, _) = e.sample(ThreadId::MAIN);
        // One plain push from before compression applied, then one entry
        // with its repetitions: main, f1, then one f1 per instance.
        assert_eq!(ctx.cc.len(), 2);
        assert!(ctx.cc[1].count > 0, "recursion compressed: {ctx:?}");
        let with_instances = |instances: usize| {
            let mut c = ctx.clone();
            c.cc[1].count = instances as u64 - 2;
            e.decode(&c).map(|p| p.0.len())
        };
        assert_eq!(with_instances(7), Ok(9));
        assert_eq!(
            with_instances(MAX_DECODE_FRAMES - 1),
            Ok(MAX_DECODE_FRAMES + 1)
        );
        assert_eq!(with_instances(MAX_DECODE_FRAMES), Err(DecodeError::TooDeep));
        assert_eq!(
            with_instances(MAX_DECODE_FRAMES + 1),
            Err(DecodeError::TooDeep)
        );
    }

    /// §3.2 / Figure 3: indirect call boundary ACEI with id 7.
    #[test]
    fn decode_fig3_indirect_boundary() {
        // Reconstruct the figure's graph shape: A->B, A->C, B->D, C->D,
        // D->F, E->I with maxID 4 requires numCC(I)=5; we model the gist:
        // encoded sub-path E->I (En 2 within a graph of maxID 4) after an
        // unencoded C->E indirect edge. Using a simplified dictionary with
        // the same semantics: E->I encoded, boundary <0, C, E>.
        let (dict, mut owner) = dict_of(
            &[
                (0, 1, 0), // A->B
                (0, 2, 1), // A->C
                (1, 3, 2), // B->D
                (2, 3, 3), // C->D
                (3, 5, 4), // D->F
                (4, 6, 5), // E->I
            ],
            &[f(0), f(4)],
        );
        owner.insert(s(9), f(2)); // the indirect site in C targeting E
        let m = dict.max_id();
        let cc = [CcEntry {
            id: 0,
            site: s(9),
            target: f(4),
            count: 0,
        }];
        // Context A->C (id 0) | indirect to E | E->I: id = m+1 + En(EI).
        let en_ei = dict.get_edge(s(5), f(6)).unwrap().encoding;
        let got = decode_thread(&dict, m + 1 + en_ei, f(6), f(0), &cc, &owner).unwrap();
        assert_eq!(
            got,
            path(&[(None, 0), (Some(1), 2), (Some(9), 4), (Some(5), 6)])
        );
    }

    #[test]
    fn decode_errors_on_missing_dictionary() {
        let ctx = EncodedContext {
            ts: TimeStamp::new(3),
            id: 0,
            leaf: f(0),
            root: f(0),
            cc: vec![],
            spawn: None,
        };
        let dicts = DictStore::new();
        let owner = HashMap::new();
        assert_eq!(
            decode_full(&ctx, &dicts, &owner).unwrap_err(),
            DecodeError::UnknownTimestamp(TimeStamp::new(3))
        );
    }

    #[test]
    fn decode_errors_on_unknown_site_owner() {
        let (dict, _) = dict_of(&[(0, 1, 0)], &[f(0)]);
        let owner = HashMap::new(); // deliberately empty
        let cc = [CcEntry {
            id: 0,
            site: s(7),
            target: f(1),
            count: 0,
        }];
        let err = decode_thread(&dict, dict.max_id() + 1, f(1), f(0), &cc, &owner).unwrap_err();
        assert_eq!(err, DecodeError::UnknownSiteOwner(s(7)));
    }

    #[test]
    fn decode_errors_on_impossible_id() {
        let (dict, owner) = dict_of(&[(0, 1, 0)], &[f(0)]);
        // id 0 at node 1 decodes fine; id at node with no covering edge
        // errors. Node 0 with id != 0 has no incoming edge.
        let err = decode_thread(&dict, 0, f(9), f(0), &[], &owner).unwrap_err();
        assert!(matches!(err, DecodeError::NoMatchingEdge { .. }));
    }

    #[test]
    fn decode_errors_on_ccstack_underflow() {
        let (dict, owner) = dict_of(&[(0, 1, 0)], &[f(0)]);
        // onstack set (id > maxID) but empty ccStack and id adjusts to 0 at
        // a function that is not the root.
        let err = decode_thread(&dict, dict.max_id() + 1, f(1), f(0), &[], &owner).unwrap_err();
        assert!(matches!(err, DecodeError::CcStackUnderflow { .. }));
    }

    #[test]
    fn decode_full_prepends_spawn_contexts() {
        let mut g = CallGraph::new();
        let mut owner = HashMap::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        owner.insert(s(0), f(0));
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut dicts = DictStore::new();
        dicts.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());

        // Parent sampled inside f1 (path f0 -> f1); child rooted at f5.
        let parent = EncodedContext {
            ts: TimeStamp::ZERO,
            id: 0,
            leaf: f(1),
            root: f(0),
            cc: vec![],
            spawn: None,
        };
        let child = EncodedContext {
            ts: TimeStamp::ZERO,
            id: 0,
            leaf: f(5),
            root: f(5),
            cc: vec![],
            spawn: Some(crate::context::SpawnLink {
                site: s(9),
                parent: Box::new(parent),
            }),
        };
        let got = decode_full(&child, &dicts, &owner).unwrap();
        assert_eq!(got, path(&[(None, 0), (Some(0), 1), (Some(9), 5)]));
    }

    #[test]
    fn decode_error_display_is_informative() {
        let e = DecodeError::NoMatchingEdge { at: f(3), id: 7 };
        assert!(e.to_string().contains("f3"));
        assert!(e.to_string().contains('7'));
    }
}
