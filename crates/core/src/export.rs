//! Offline export of decode state and collected contexts.
//!
//! The deployment story of the paper is *record online, decode offline*:
//! the instrumented process only appends tiny encoded contexts to its log;
//! the decode dictionaries are dumped once (plus once per re-encoding) and
//! the expensive reconstruction happens in a separate analysis process.
//! This module provides that boundary as a plain-text, line-oriented
//! format (no external dependencies, stable across versions of this
//! crate):
//!
//! ```text
//! dacce-export v1
//! dict <ts> <maxID>
//! node <func> <numCC>
//! edge <caller> <callee> <site> <encoding> <back> <dispatch>
//! enddict
//! owner <site> <func>
//! dispatch <site> <slot> <kind> <target|-> <action|-> <tcwrap>
//! degraded <active> <traps> <retries> <spills> <spilledpeak> <poisonings> <slotfail> <batcherr>
//! degradednode <func>
//! superop <calls> <ccops> <compresshits> <ccpeak> <c:site:target|r ...>
//! sample <ts> <id> <leaf> <root> <cc-entries> | <spawn-site> <parent...>
//! ```
//!
//! `dispatch` lines dump the compiled dispatch table of the *current*
//! generation (one line per known target for polymorphic sites; `kind` is
//! `trap`, `mono` or `poly`; `action` is `enc:<delta>`, `cc` or `ccc`).
//! They let an offline verifier check the flat table edge-for-edge against
//! the latest dictionary (`dacce-lint --dispatch`).
//!
//! `superop` lines dump the compiled superop table of the current
//! generation: the call/return window (`c:<site>:<target>` and `r`
//! tokens) followed by the memoized net effect the runtime applies on a
//! hit. `dacce-lint --superops` re-folds each window event-by-event
//! through the exported dispatch records and rejects a net effect that
//! does not match.
//!
//! [`export_state`] dumps an engine's dictionaries and site-owner table;
//! [`export_samples`] appends contexts; [`import`] parses everything back
//! into an [`OfflineDecoder`] that can decode without the engine.

use std::collections::HashMap;
use std::fmt::Write as _;

use dacce_callgraph::dict::DictError;
use dacce_callgraph::{
    CallGraph, CallSiteId, DecodeDict, DictStore, Encoding, FunctionId, TimeStamp,
};
use dacce_program::ContextPath;

use crate::codec::{self, write_ctx, Lexer, ACTIONS, DISPATCH, DISPATCH_KINDS};
use crate::context::EncodedContext;
use crate::decode::{decode_full, DecodeError};
use crate::dispatch::CompiledDispatch;
use crate::engine::DacceEngine;
use crate::patch::EdgeAction;
use crate::stats::DegradedState;
use crate::superop::{SuperOp, WindowOp};

/// Header line of the export format.
pub const HEADER: &str = "dacce-export v1";

/// Errors from [`import`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// The header line is missing or has the wrong version.
    BadHeader,
    /// A line could not be parsed; carries the 1-based line number (0 when
    /// the input ends inside an open section) and a description.
    BadLine(usize, String),
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::BadHeader => write!(f, "missing or unsupported export header"),
            ImportError::BadLine(n, what) => write!(f, "line {n}: {what}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Serialises the engine's decode dictionaries and site owners.
pub fn export_state(engine: &DacceEngine) -> String {
    export_shared(&engine.shared, &engine.stats().degraded)
}

/// Serialises a [`crate::Tracker`]'s shared encoding state in the same
/// `dacce-export v1` format as [`export_state`]. Pending per-thread
/// deltas are absorbed first, so the dump reflects everything the tracker
/// has observed. Used by fleet tooling to compare a shared-lineage
/// tenant's decode state against a standalone twin.
pub fn export_tracker_state(tracker: &crate::Tracker) -> String {
    let degraded = tracker.stats().degraded;
    tracker.with_shared(|sh| export_shared(sh, &degraded))
}

/// The format body, over the shared state both fronts wrap.
pub(crate) fn export_shared(
    shared: &crate::shared::SharedState,
    degraded: &DegradedState,
) -> String {
    let view = &shared.current.view;
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    for ts_idx in 0..view.dicts.len() {
        let ts = TimeStamp::new(ts_idx as u32);
        let dict = view.dicts.get(ts).expect("indexed in range");
        let _ = writeln!(out, "dict {} {}", ts.raw(), dict.max_id());
        // Nodes: every function an edge touches, sorted, then the isolated
        // ones (e.g. `main` before any edge) in graph order.
        let mut nodes: Vec<FunctionId> = dict
            .edges()
            .iter()
            .flat_map(|e| [e.caller, e.callee])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let graph = shared.current.graph.nodes();
        let isolated = graph.iter().filter(|f| nodes.binary_search(f).is_err());
        for f in nodes.iter().chain(isolated) {
            if let Some(cc) = dict.num_cc(*f) {
                let _ = writeln!(out, "node {} {cc}", f.raw());
            }
        }
        for e in dict.edges() {
            let _ = write!(
                out,
                "edge {} {} {} {} {} ",
                e.caller.raw(),
                e.callee.raw(),
                e.site.raw(),
                e.encoding,
                u8::from(e.back),
            );
            DISPATCH.write(&mut out, e.dispatch);
            out.push('\n');
        }
        let _ = writeln!(out, "enddict");
    }
    let mut owners: Vec<(&CallSiteId, &FunctionId)> = view.site_owner.iter().collect();
    owners.sort_by_key(|(s, _)| s.raw());
    for (site, func) in owners {
        let _ = writeln!(out, "owner {} {}", site.raw(), func.raw());
    }
    // The compiled dispatch table of the current generation, one line per
    // resolvable target (polymorphic targets sorted for stable output).
    for (site, slot, cs) in view.dispatch.iter_compiled() {
        let mut line = |kind, payload: Option<(FunctionId, EdgeAction)>| {
            let _ = write!(out, "dispatch {} {slot} ", site.raw());
            DISPATCH_KINDS.write(&mut out, kind);
            match payload {
                Some((target, action)) => {
                    let _ = write!(out, " {} ", target.raw());
                    ACTIONS.write(&mut out, action);
                }
                None => out.push_str(" - -"),
            }
            let _ = writeln!(out, " {}", u8::from(cs.tc_wrap));
        };
        match cs.dispatch {
            CompiledDispatch::Trap => line(DispatchKind::Trap, None),
            CompiledDispatch::Mono { target, action } => {
                line(DispatchKind::Mono, Some((target, action)));
            }
            CompiledDispatch::Poly { index } => {
                let mut targets: Vec<(FunctionId, EdgeAction)> =
                    view.dispatch.poly_patch(index).targets().collect();
                targets.sort_by_key(|(t, _)| t.raw());
                for target in targets {
                    line(DispatchKind::Poly, Some(target));
                }
            }
        }
    }
    // The compiled superop table of the current generation: window trace
    // plus memoized net effect, one line per superop.
    for so in shared.superops.iter() {
        let _ = write!(
            out,
            "superop {} {} {} {}",
            so.calls, so.cc_ops, so.compress_hits, so.cc_peak
        );
        for op in &so.window {
            match *op {
                WindowOp::Call { site, target } => {
                    let _ = write!(out, " c:{}:{}", site.raw(), target.raw());
                }
                WindowOp::Ret => out.push_str(" r"),
            }
        }
        out.push('\n');
    }
    // Degraded-state record: lets offline tools audit a run that survived
    // injected faults (one `degradednode` line per demoted function).
    let d = degraded;
    if d.any() {
        let _ = writeln!(
            out,
            "degraded {} {} {} {} {} {} {} {}",
            u8::from(d.active),
            d.degraded_traps,
            d.reencode_retries,
            d.cc_spill_events,
            d.cc_spilled_peak,
            d.lock_poisonings,
            d.slot_failures,
            d.batch_errors,
        );
        for n in &d.trap_nodes {
            let _ = writeln!(out, "degradednode {n}");
        }
    }
    out
}

/// Serialises collected contexts, one `sample` line each.
pub fn export_samples<'a>(samples: impl IntoIterator<Item = &'a EncodedContext>) -> String {
    let mut out = String::new();
    for ctx in samples {
        out.push_str("sample ");
        write_ctx(&mut out, ctx);
        out.push('\n');
    }
    out
}

/// Kind of a [`DispatchRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// The site still traps into the runtime handler.
    Trap,
    /// Monomorphic: exactly one known target.
    Mono,
    /// Polymorphic: one record line per known target.
    Poly,
}

/// One line of the export's compiled dispatch table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The call site the record compiles.
    pub site: CallSiteId,
    /// The dense slot assigned to the site.
    pub slot: u32,
    /// Record kind.
    pub kind: DispatchKind,
    /// The resolved target (`None` for trap records).
    pub target: Option<FunctionId>,
    /// The action compiled for `target` (`None` for trap records).
    pub action: Option<EdgeAction>,
    /// §5.2 TcStack wrap flag of the site.
    pub tc_wrap: bool,
}

/// Offline decoding state reassembled from an export.
#[derive(Debug, Default)]
pub struct OfflineDecoder {
    dicts: DictStore,
    owners: HashMap<CallSiteId, FunctionId>,
    samples: Vec<EncodedContext>,
    dispatch: Vec<DispatchRecord>,
    superops: Vec<SuperOp>,
    degraded: DegradedState,
}

impl OfflineDecoder {
    /// The imported dictionaries.
    pub fn dicts(&self) -> &DictStore {
        &self.dicts
    }

    /// The imported samples, in input order.
    pub fn samples(&self) -> &[EncodedContext] {
        &self.samples
    }

    /// The imported call-site owner table.
    pub fn owners(&self) -> &HashMap<CallSiteId, FunctionId> {
        &self.owners
    }

    /// The imported compiled dispatch table, in input order.
    pub fn dispatch(&self) -> &[DispatchRecord] {
        &self.dispatch
    }

    /// The imported compiled superop table, in input order.
    pub fn superops(&self) -> &[SuperOp] {
        &self.superops
    }

    /// The imported degraded-state record (all-zero when the export
    /// carried none — the run saw no faults).
    pub fn degraded(&self) -> &DegradedState {
        &self.degraded
    }

    /// Decodes one context against the imported dictionaries.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for contexts inconsistent with the import.
    pub fn decode(&self, ctx: &EncodedContext) -> Result<ContextPath, DecodeError> {
        decode_full(ctx, &self.dicts, &self.owners)
    }
}

/// A dictionary being read: its `dict` header, graph and per-node `numCC`,
/// and the edge encodings in insertion order (graph edge `i` is entry `i`).
struct OpenDict {
    ts: TimeStamp,
    max_id: u64,
    graph: CallGraph,
    num_cc: Vec<(u32, u128)>,
    encodings: Vec<u64>,
}

impl OpenDict {
    fn finish(self) -> Result<DecodeDict, DictError> {
        let mut enc = Encoding::unassigned(&self.graph);
        enc.max_id = self.max_id;
        for (local, cc) in self.num_cc {
            enc.set_num_cc(local, cc);
        }
        for ((eid, e), en) in self.graph.edges().zip(self.encodings) {
            if !e.back {
                enc.set_encoding(eid, u128::from(en));
            }
        }
        DecodeDict::from_encoding(&self.graph, &enc, self.ts)
    }
}

/// Parses an export (state and/or samples, in any order after the header).
///
/// # Errors
///
/// Returns [`ImportError`] on malformed input: a bad header, a field that
/// does not parse at its width, a dictionary out of timestamp order or
/// left open, a repeated edge, or a record with leftover tokens.
pub fn import(text: &str) -> Result<OfflineDecoder, ImportError> {
    read_export(codec::records(text, HEADER))
}

/// Reads an export's records, `None` when its header line is wrong.
pub(crate) fn read_export<'a>(
    records: Option<impl Lexer<'a>>,
) -> Result<OfflineDecoder, ImportError> {
    let mut records = records.ok_or(ImportError::BadHeader)?;
    let mut out = OfflineDecoder::default();
    let mut open: Option<OpenDict> = None;
    while let Some((kw, mut f)) = records.next_record() {
        match kw {
            "dict" => {
                if open.is_some() {
                    return Err(f.error("dict inside an open dict"));
                }
                let ts: u32 = f.num("dict ts")?;
                if ts as usize != out.dicts.len() {
                    return Err(f.error(format!(
                        "dict ts {ts} out of order (expected {})",
                        out.dicts.len()
                    )));
                }
                open = Some(OpenDict {
                    ts: TimeStamp::new(ts),
                    max_id: f.num("dict maxID")?,
                    graph: CallGraph::new(),
                    num_cc: Vec::new(),
                    encodings: Vec::new(),
                });
            }
            "node" => {
                let d = open.as_mut().ok_or_else(|| f.error("node outside dict"))?;
                let func = FunctionId::new(f.num("node")?);
                let cc = f.num("numCC")?;
                d.graph.ensure_node(func);
                d.num_cc
                    .push((d.graph.local(func).expect("just added"), cc));
            }
            "edge" => {
                let d = open.as_mut().ok_or_else(|| f.error("edge outside dict"))?;
                let caller = FunctionId::new(f.num("caller")?);
                let callee = FunctionId::new(f.num("callee")?);
                let site = CallSiteId::new(f.num("site")?);
                let encoding = f.num("encoding")?;
                let back = f.flag("back")?;
                let dispatch = f.tag(&DISPATCH, "dispatch")?;
                let (eid, new) = d.graph.add_edge(caller, callee, site, dispatch);
                if !new {
                    return Err(f.error(format!("duplicate edge {site} -> {callee}")));
                }
                d.graph.edge_mut(eid).back = back;
                d.encodings.push(encoding);
            }
            "enddict" => {
                let d = open.take().ok_or_else(|| f.error("enddict without dict"))?;
                out.dicts
                    .push(d.finish().map_err(|e| f.error(e.to_string()))?);
            }
            "owner" => {
                let site = CallSiteId::new(f.num("owner site")?);
                out.owners
                    .insert(site, FunctionId::new(f.num("owner func")?));
            }
            "dispatch" => {
                let site = CallSiteId::new(f.num("dispatch site")?);
                let slot = f.num("dispatch slot")?;
                let kind = f.tag(&DISPATCH_KINDS, "dispatch kind")?;
                let target = match f.token("dispatch target")? {
                    "-" => None,
                    t => Some(FunctionId::new(f.parse(t, "dispatch target")?)),
                };
                let action = match f.token("dispatch action")? {
                    "-" => None,
                    a => Some(f.tagged(a, &ACTIONS, "dispatch action")?),
                };
                let want_payload = kind != DispatchKind::Trap;
                if target.is_some() != want_payload || action.is_some() != want_payload {
                    return Err(f.error("dispatch target/action must be '-' iff kind is trap"));
                }
                out.dispatch.push(DispatchRecord {
                    site,
                    slot,
                    kind,
                    target,
                    action,
                    tc_wrap: f.flag("dispatch tcwrap")?,
                });
            }
            "superop" => {
                let calls = f.num("superop calls")?;
                let cc_ops = f.num("superop ccops")?;
                let compress_hits = f.num("superop compresshits")?;
                let cc_peak = f.num("superop ccpeak")?;
                let mut window = Vec::new();
                while let Some(tok) = f.next_token() {
                    window.push(match tok {
                        "r" => WindowOp::Ret,
                        _ => f.split(tok, "superop token", |p| {
                            p.lit("c")?;
                            Some(WindowOp::Call {
                                site: CallSiteId::new(p.num()?),
                                target: FunctionId::new(p.num()?),
                            })
                        })?,
                    });
                }
                if window.is_empty() {
                    return Err(f.error("superop needs a window"));
                }
                out.superops.push(SuperOp {
                    window,
                    calls,
                    cc_ops,
                    compress_hits,
                    cc_peak,
                });
            }
            "degraded" => {
                let d = &mut out.degraded;
                d.active = f.flag("degraded active")?;
                for (counter, what) in [
                    (&mut d.degraded_traps, "degraded traps"),
                    (&mut d.reencode_retries, "degraded retries"),
                    (&mut d.cc_spill_events, "degraded spills"),
                    (&mut d.cc_spilled_peak, "degraded spilledpeak"),
                    (&mut d.lock_poisonings, "degraded poisonings"),
                    (&mut d.slot_failures, "degraded slotfail"),
                    (&mut d.batch_errors, "degraded batcherr"),
                ] {
                    *counter = f.num(what)?;
                }
            }
            "degradednode" => out.degraded.note_trap_node(f.num("degraded node")?),
            "sample" => out.samples.push(f.ctx()?),
            other => return Err(f.error(format!("unknown record {other}"))),
        }
        f.end()?;
    }
    match open {
        Some(_) => Err(ImportError::BadLine(0, "unterminated dict".into())),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{decode_all, random_mutation, record};
    use crate::codec::MAX_SPAWN_DEPTH;
    use crate::config::DacceConfig;
    use dacce_program::runtime::CallDispatch;
    use dacce_program::{CostModel, ThreadId};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    fn engine_with_history() -> DacceEngine {
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            keep_sample_log: true,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        let _ = e.call(
            ThreadId::MAIN,
            s(0),
            f(0),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let _ = e.sample(ThreadId::MAIN);
        let _ = e.call(
            ThreadId::MAIN,
            s(1),
            f(1),
            f(2),
            CallDispatch::Direct,
            false,
        );
        let _ = e.sample(ThreadId::MAIN);
        let _ = e.call(
            ThreadId::MAIN,
            s(2),
            f(2),
            f(2),
            CallDispatch::Direct,
            false,
        );
        let _ = e.sample(ThreadId::MAIN);
        e
    }

    #[test]
    fn export_import_roundtrip_decodes_identically() {
        let e = engine_with_history();
        let text = format!(
            "{}{}",
            export_state(&e),
            export_samples(e.sample_log().iter())
        );
        let offline = import(&text).expect("imports");
        assert_eq!(offline.dicts().len(), e.dicts().len());
        assert_eq!(offline.samples().len(), e.sample_log().len());
        for (orig, imported) in e.sample_log().iter().zip(offline.samples()) {
            assert_eq!(orig, imported, "sample round-trips structurally");
            let a = e.decode(orig).expect("engine decodes");
            let b = offline.decode(imported).expect("offline decodes");
            assert_eq!(a, b, "offline decode matches engine decode");
        }
    }

    #[test]
    fn dispatch_records_roundtrip() {
        let mut e = engine_with_history();
        // Add an indirect site with two targets so a poly record appears.
        let _ = e.call(
            ThreadId::MAIN,
            s(9),
            f(2),
            f(3),
            CallDispatch::Indirect,
            false,
        );
        let _ = e.ret(ThreadId::MAIN, s(9), f(2), f(3));
        let _ = e.call(
            ThreadId::MAIN,
            s(9),
            f(2),
            f(4),
            CallDispatch::Indirect,
            false,
        );
        let text = export_state(&e);
        let offline = import(&text).expect("imports");
        let records = offline.dispatch();
        assert!(!records.is_empty(), "export carries dispatch records");
        // One record per (site, target) pair for non-trap sites; the poly
        // site contributes one line per known target.
        let poly: Vec<_> = records
            .iter()
            .filter(|r| r.kind == DispatchKind::Poly)
            .collect();
        assert_eq!(poly.len(), 2, "both indirect targets exported");
        assert!(poly.iter().all(|r| r.site == s(9)));
        assert!(poly
            .iter()
            .all(|r| r.target.is_some() && r.action.is_some()));
        // Slots are stable per site: all lines of one site share a slot and
        // no two sites share one.
        let mut slot_of: HashMap<CallSiteId, u32> = HashMap::new();
        for r in records {
            match slot_of.get(&r.site) {
                Some(&slot) => assert_eq!(slot, r.slot, "slot consistent within site"),
                None => {
                    assert!(
                        slot_of.values().all(|&used| used != r.slot),
                        "slot unique across sites"
                    );
                    slot_of.insert(r.site, r.slot);
                }
            }
        }
        // Every record's action must agree with the engine's live resolution.
        for r in records.iter().filter(|r| r.kind != DispatchKind::Trap) {
            let resolved = e
                .shared
                .current
                .view
                .resolve(r.site, r.target.unwrap())
                .expect("record target resolves live");
            assert_eq!(resolved.action, r.action.unwrap());
            assert_eq!(resolved.tc_wrap, r.tc_wrap);
        }
    }

    #[test]
    fn malformed_dispatch_lines_are_rejected() {
        for bad in [
            "dacce-export v1\ndispatch 0 0 mono 1 enc:3\n", // 5 fields
            "dacce-export v1\ndispatch 0 0 wat 1 enc:3 0\n", // bad kind
            "dacce-export v1\ndispatch 0 0 mono - enc:3 0\n", // mono needs target
            "dacce-export v1\ndispatch 0 0 trap 1 enc:3 0\n", // trap forbids target
            "dacce-export v1\ndispatch 0 0 mono 1 huh 0\n", // bad action
            "dacce-export v1\ndispatch x 0 mono 1 enc:3 0\n", // bad site
        ] {
            assert!(import(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn spawned_contexts_roundtrip() {
        let mut e = engine_with_history();
        e.thread_start(ThreadId::new(7), f(9), Some((ThreadId::MAIN, s(5))));
        let _ = e.call(
            ThreadId::new(7),
            s(6),
            f(9),
            f(1),
            CallDispatch::Direct,
            false,
        );
        let (snap, _) = e.sample(ThreadId::new(7));
        assert!(snap.spawn.is_some());
        let text = format!("{}{}", export_state(&e), export_samples([&snap]));
        let offline = import(&text).expect("imports");
        let a = e.decode(&snap).expect("engine decodes");
        let b = offline
            .decode(&offline.samples()[0])
            .expect("offline decodes");
        assert_eq!(a, b);
    }

    #[test]
    fn degraded_state_roundtrips() {
        use crate::fault::FaultPlan;
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            fault: FaultPlan {
                max_id_cap: Some(0),
                ..FaultPlan::default()
            },
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        // Build a diamond (f0->f1->f3 and f0->f2->f3) so f3 has two
        // calling contexts and the encoding needs ids past the cap.
        let walk = [
            (s(0), f(0), f(1)),
            (s(1), f(1), f(3)),
            (s(2), f(0), f(2)),
            (s(3), f(2), f(3)),
        ];
        for chunk in walk.chunks(2) {
            for &(site, caller, callee) in chunk {
                let _ = e.call(
                    ThreadId::MAIN,
                    site,
                    caller,
                    callee,
                    CallDispatch::Direct,
                    false,
                );
            }
            for &(site, caller, callee) in chunk.iter().rev() {
                let _ = e.ret(ThreadId::MAIN, site, caller, callee);
            }
        }
        // Past exhaustion: new edges stay unencoded and are recorded as
        // degraded traps.
        let _ = e.call(
            ThreadId::MAIN,
            s(4),
            f(0),
            f(4),
            CallDispatch::Direct,
            false,
        );
        let _ = e.call(
            ThreadId::MAIN,
            s(5),
            f(4),
            f(5),
            CallDispatch::Direct,
            false,
        );
        let d = e.stats().degraded;
        assert!(d.active, "maxID cap 0 must force degraded mode");
        assert!(d.degraded_traps > 0, "post-exhaustion edges trap degraded");
        assert!(!d.trap_nodes.is_empty());
        let offline = import(&export_state(&e)).expect("imports");
        assert_eq!(offline.degraded(), &d, "degraded record round-trips");
    }

    #[test]
    fn superop_records_roundtrip() {
        let tracker = crate::Tracker::new();
        let main_fn = tracker.define_function("main");
        let callee = tracker.define_function("callee");
        let site = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        // Warm the site so the window resolves and compiles.
        th.run_batch(&[
            crate::BatchOp::Call {
                site,
                target: callee,
            },
            crate::BatchOp::Ret,
        ])
        .expect("warm batch runs");
        let window = vec![
            WindowOp::Call {
                site,
                target: callee,
            },
            WindowOp::Ret,
        ];
        assert_eq!(tracker.install_superops(std::slice::from_ref(&window)), 1);
        let offline = import(&export_tracker_state(&tracker)).expect("imports");
        assert_eq!(offline.superops().len(), 1, "superop line round-trips");
        let rec = &offline.superops()[0];
        assert_eq!(rec.window, window);
        assert_eq!(rec.calls, 1);
    }

    #[test]
    fn malformed_superop_lines_are_rejected() {
        for bad in [
            "dacce-export v1\nsuperop 1 2 3\n",         // missing ccpeak
            "dacce-export v1\nsuperop 1 2 3 4\n",       // empty window
            "dacce-export v1\nsuperop 1 2 3 4 x\n",     // bad token
            "dacce-export v1\nsuperop 1 2 3 4 c:1\n",   // token missing target
            "dacce-export v1\nsuperop 1 2 3 4 c:a:b\n", // non-numeric
        ] {
            assert!(import(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn malformed_degraded_lines_are_rejected() {
        for bad in [
            "dacce-export v1\ndegraded 1 2 3 4 5 6 7\n",   // 7 fields
            "dacce-export v1\ndegraded 1 2 3 4 5 6 7 x\n", // bad counter
            "dacce-export v1\ndegradednode nope\n",        // bad node id
        ] {
            assert!(import(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn import_rejects_bad_header() {
        assert_eq!(import("nope\n").unwrap_err(), ImportError::BadHeader);
        assert_eq!(import("").unwrap_err(), ImportError::BadHeader);
    }

    #[test]
    fn import_reports_line_numbers() {
        let text = format!("{HEADER}\nbogus record\n");
        let err = import(&text).unwrap_err();
        if let ImportError::BadLine(n, what) = err {
            assert_eq!(n, 2);
            assert!(what.contains("bogus"));
        } else {
            panic!("unexpected {err:?}");
        }
        let dict = "dict 0 0\nnode 0 1\nnode 1 1\nnode 2 1\nnode 3 1";
        // A spawn chain at the depth bound imports; one far past it is an
        // error, not a stack overflow.
        let links = |n: usize| " | 0 0 0 0 0".repeat(n);
        let deepest = format!("{HEADER}\nsample 0 0 0 0{}\n", links(MAX_SPAWN_DEPTH));
        let samples = import(&deepest)
            .expect("chain at the bound imports")
            .samples;
        assert_eq!(samples[0].spawn_depth(), MAX_SPAWN_DEPTH);
        for (body, line) in [
            // A dictionary out of timestamp order.
            ("dict 3 0\nenddict", 2),
            ("dict 0 0\nenddict\ndict 0 0\nenddict", 4),
            // Ids past u32::MAX, in a sample and in its ccStack entries.
            ("sample 4294967296 0 4294967297 0", 2),
            ("owner 0 0\nsample 0 0 1 0 0:4294967296:1:0", 3),
            ("sample 0 0 1 0 0:0:4294967297:0", 2),
            ("sample 0 0 1 0 | 4294967296 0 0 0 0", 2),
            // A repeated edge (same site and callee) inside one dict.
            (
                &format!(
                    "{dict}\nedge 0 1 0 0 0 direct\nedge 0 1 0 7 0 direct\n\
                     edge 1 2 1 1 0 direct\nedge 2 3 2 2 0 direct\nenddict"
                ),
                8,
            ),
            // Trailing tokens, non-strict flags, an open dict at the end.
            ("owner 0 0 9", 2),
            (&format!("{dict}\nedge 0 1 0 0 2 direct\nenddict"), 7),
            ("dispatch 0 0 trap - - 0 extra", 2),
            ("dispatch 0 0 trap - - 7", 2),
            ("degraded 2 0 0 0 0 0 0 0", 2),
            ("dict 0 0", 0),
            (&format!("sample 0 0 0 0{}", links(200_000)), 2),
            (&format!("sample 0 0 0 0{}", links(MAX_SPAWN_DEPTH + 1)), 2),
        ] {
            match import(&format!("{HEADER}\n{body}\n")) {
                Err(ImportError::BadLine(n, _)) => assert_eq!(n, line, "{body:?}"),
                other => panic!("{body:?}: expected a line-{line} error, got {other:?}"),
            }
        }
    }

    #[test]
    fn import_rejects_records_outside_dict() {
        let text = format!("{HEADER}\nnode 1 1\n");
        assert!(matches!(
            import(&text).unwrap_err(),
            ImportError::BadLine(2, _)
        ));
    }

    /// Function and site ids are untrusted u32s: a dictionary whose ids sit
    /// at the top of the range must import and decode without sizing
    /// anything by an id value.
    #[test]
    fn ids_near_u32_max_import_and_decode() {
        const M: u32 = u32::MAX;
        // Root R = M, X = M-2, Y = M-1 (two contexts: R->Y and R->X->Y),
        // and Z = M-3, entered from Y through the unencoded site M-6.
        let text = format!(
            "{HEADER}\n\
             dict 0 1\n\
             node {M} 1\n\
             node {x} 1\n\
             node {y} 2\n\
             edge {M} {y} {M} 0 0 direct\n\
             edge {M} {x} {sa} 0 0 direct\n\
             edge {x} {y} {sb} 1 0 direct\n\
             enddict\n\
             owner {M} {M}\n\
             owner {sa} {M}\n\
             owner {sb} {x}\n\
             owner {sc} {y}\n\
             sample 0 0 {y} {M}\n\
             sample 0 1 {y} {M}\n\
             sample 0 2 {z} {M} 1:{sc}:{z}:0\n\
             sample 0 0 {z} {M}\n\
             sample 0 2 {z} {M} 1:{unknown}:{z}:0\n\
             sample 0 2 {y} {M}\n",
            x = M - 2,
            y = M - 1,
            z = M - 3,
            sa = M - 4,
            sb = M - 5,
            sc = M - 6,
            unknown = M - 7,
        );
        let offline = import(&text).expect("imports");
        let dict = offline.dicts().get(TimeStamp::ZERO).expect("one dict");
        assert_eq!(dict.node_count(), 3);
        assert_eq!(dict.edge_count(), 3);
        assert_eq!(dict.num_cc(f(M - 1)), Some(2));
        assert_eq!(dict.get_edge(s(M - 5), f(M - 1)).unwrap().caller, f(M - 2));

        let path = |steps: &[(Option<u32>, u32)]| {
            ContextPath(
                steps
                    .iter()
                    .map(|&(site, func)| dacce_program::PathStep {
                        site: site.map(s),
                        func: f(func),
                    })
                    .collect(),
            )
        };
        let got: Vec<_> = offline
            .samples()
            .iter()
            .map(|c| offline.decode(c))
            .collect();
        assert_eq!(got[0], Ok(path(&[(None, M), (Some(M), M - 1)])));
        assert_eq!(
            got[1],
            Ok(path(&[
                (None, M),
                (Some(M - 4), M - 2),
                (Some(M - 5), M - 1)
            ]))
        );
        assert_eq!(
            got[2],
            Ok(path(&[
                (None, M),
                (Some(M - 4), M - 2),
                (Some(M - 5), M - 1),
                (Some(M - 6), M - 3),
            ]))
        );
        assert_eq!(
            got[3],
            Err(DecodeError::NoMatchingEdge {
                at: f(M - 3),
                id: 0
            })
        );
        assert_eq!(got[4], Err(DecodeError::UnknownSiteOwner(s(M - 7))));
        assert_eq!(got[5], Err(DecodeError::CcStackUnderflow { at: f(M - 1) }));
    }

    /// A dacce-export file whose cleared back flag closes a cycle of
    /// encoding-0 edges: decode must stop with a typed error instead of
    /// walking the cycle forever.
    #[test]
    fn cleared_back_flag_cycle_decodes_to_an_error() {
        // main(0) -> a(1) -> b(2) -> a, with b -> a inserted before
        // main -> a and its back flag cleared, so a's first incoming edge
        // covering id 0 leads back to b.
        let text = format!(
            "{HEADER}\n\
             dict 0 0\n\
             node 0 1\n\
             node 1 1\n\
             node 2 1\n\
             edge 1 2 1 0 0 direct\n\
             edge 2 1 2 0 0 direct\n\
             edge 0 1 0 0 0 direct\n\
             enddict\n\
             owner 0 0\n\
             owner 1 1\n\
             owner 2 2\n\
             sample 0 0 2 0\n"
        );
        let offline = import(&text).expect("imports");
        assert_eq!(
            offline.decode(&offline.samples()[0]),
            Err(DecodeError::CyclicSubPath { at: f(2) })
        );
    }

    /// A ccStack entry whose compressed repetition count is near
    /// `u64::MAX` stands for ~2^64 boundary instances: decode must reject
    /// it up front instead of popping them one by one.
    #[test]
    fn huge_compressed_count_decodes_to_an_error() {
        let text = format!(
            "{HEADER}\n\
             dict 0 0\n\
             node 0 1\n\
             node 1 1\n\
             edge 0 1 0 0 1 direct\n\
             enddict\n\
             owner 0 0\n\
             owner 1 1\n\
             sample 0 1 1 0 0:0:1:{count}\n\
             sample 0 1 1 0 0:0:1:{count} 0:0:1:{count}\n",
            count = u64::MAX - 1,
        );
        let offline = import(&text).expect("imports");
        for sample in offline.samples() {
            assert_eq!(offline.decode(sample), Err(DecodeError::TooDeep));
        }
    }

    proptest::proptest! {
        /// Exports with flipped back flags, grown compressed counts or a
        /// truncated, deleted or replaced byte always import to a typed
        /// error or decode every sample (and the run's journal) to a path
        /// or a typed error: nothing in the file can make decode run away.
        #[test]
        fn mutated_exports_always_finish_decoding(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let e = engine_with_history();
            let text = format!(
                "{}{}",
                export_state(&e),
                export_samples(e.sample_log().iter())
            );
            let mut mutated = String::new();
            for line in text.lines() {
                let mut fields: Vec<String> = line.split(' ').map(str::to_owned).collect();
                match fields[0].as_str() {
                    "edge" if fields.len() == 7 && rng.gen_bool(0.5) => {
                        fields[5] = if fields[5] == "1" { "0" } else { "1" }.to_owned();
                    }
                    "sample" => {
                        for field in fields.iter_mut().skip(5) {
                            let mut parts: Vec<&str> = field.split(':').collect();
                            if parts.len() == 4 && rng.gen_bool(0.5) {
                                let count = match rng.gen_range(0u32..3) {
                                    0 => u64::MAX,
                                    1 => rng.gen(),
                                    _ => rng.gen_range(0..8),
                                }
                                .to_string();
                                parts[3] = &count;
                                *field = parts.join(":");
                            }
                        }
                    }
                    _ => {}
                }
                mutated.push_str(&fields.join(" "));
                mutated.push('\n');
            }
            if let Ok(offline) = import(&mutated) {
                for sample in offline.samples() {
                    let _ = offline.decode(sample);
                }
            }
            // Byte-level damage to a recorded tracker export: a typed error,
            // or dictionaries its samples and journal decode against.
            let rec = record(seed);
            for _ in 0..16 {
                if let Ok(offline) = import(&random_mutation(&rec.export, &mut rng)) {
                    decode_all(&rec.journal, &offline);
                }
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ImportError::BadLine(3, "bad callee".into());
        assert!(e.to_string().contains("line 3"));
        assert!(ImportError::BadHeader.to_string().contains("header"));
    }
}
