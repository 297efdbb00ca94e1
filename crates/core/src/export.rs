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

use dacce_callgraph::{CallSiteId, DecodeDict, DictStore, Dispatch, FunctionId, TimeStamp};
use dacce_program::ContextPath;

use crate::ccstack::CcEntry;
use crate::context::{EncodedContext, SpawnLink};
use crate::decode::{decode_full, DecodeError};
use crate::dispatch::CompiledDispatch;
use crate::engine::DacceEngine;
use crate::patch::EdgeAction;
use crate::stats::DegradedState;
use crate::superop::WindowOp;

/// Header line of the export format.
pub const HEADER: &str = "dacce-export v1";

/// Errors from [`import`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImportError {
    /// The header line is missing or has the wrong version.
    BadHeader,
    /// A line could not be parsed; carries the 1-based line number and a
    /// description.
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

fn dispatch_tag(d: Dispatch) -> &'static str {
    match d {
        Dispatch::Direct => "direct",
        Dispatch::Indirect => "indirect",
        Dispatch::Plt => "plt",
        Dispatch::Spawn => "spawn",
    }
}

fn parse_dispatch(s: &str) -> Option<Dispatch> {
    Some(match s {
        "direct" => Dispatch::Direct,
        "indirect" => Dispatch::Indirect,
        "plt" => Dispatch::Plt,
        "spawn" => Dispatch::Spawn,
        _ => return None,
    })
}

fn action_tag(a: EdgeAction) -> String {
    match a {
        EdgeAction::Encoded { delta } => format!("enc:{delta}"),
        EdgeAction::Unencoded => "cc".into(),
        EdgeAction::UnencodedCompressed => "ccc".into(),
    }
}

fn parse_action(s: &str) -> Option<EdgeAction> {
    Some(match s {
        "cc" => EdgeAction::Unencoded,
        "ccc" => EdgeAction::UnencodedCompressed,
        _ => EdgeAction::Encoded {
            delta: s.strip_prefix("enc:")?.parse().ok()?,
        },
    })
}

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
        // Nodes: emit numCC for every function the dictionary knows.
        let mut nodes: Vec<FunctionId> = dict
            .edges()
            .iter()
            .flat_map(|e| [e.caller, e.callee])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for f in nodes {
            if let Some(cc) = dict.num_cc(f) {
                let _ = writeln!(out, "node {} {}", f.raw(), cc);
            }
        }
        // Also cover isolated nodes (e.g. `main` before any edge).
        for f in shared.current.graph.nodes() {
            if dict.num_cc(*f).is_some() && dict.incoming(*f).next().is_none() {
                let known = dict
                    .edges()
                    .iter()
                    .any(|e| e.caller == *f || e.callee == *f);
                if !known {
                    let _ = writeln!(
                        out,
                        "node {} {}",
                        f.raw(),
                        dict.num_cc(*f).expect("checked")
                    );
                }
            }
        }
        for e in dict.edges() {
            let _ = writeln!(
                out,
                "edge {} {} {} {} {} {}",
                e.caller.raw(),
                e.callee.raw(),
                e.site.raw(),
                e.encoding,
                u8::from(e.back),
                dispatch_tag(e.dispatch),
            );
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
        match cs.dispatch {
            CompiledDispatch::Trap => {
                let _ = writeln!(
                    out,
                    "dispatch {} {slot} trap - - {}",
                    site.raw(),
                    u8::from(cs.tc_wrap)
                );
            }
            CompiledDispatch::Mono { target, action } => {
                let _ = writeln!(
                    out,
                    "dispatch {} {slot} mono {} {} {}",
                    site.raw(),
                    target.raw(),
                    action_tag(action),
                    u8::from(cs.tc_wrap)
                );
            }
            CompiledDispatch::Poly { index } => {
                let mut targets: Vec<(FunctionId, EdgeAction)> =
                    view.dispatch.poly_patch(index).targets().collect();
                targets.sort_by_key(|(t, _)| t.raw());
                for (target, action) in targets {
                    let _ = writeln!(
                        out,
                        "dispatch {} {slot} poly {} {} {}",
                        site.raw(),
                        target.raw(),
                        action_tag(action),
                        u8::from(cs.tc_wrap)
                    );
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

pub(crate) fn write_ctx(out: &mut String, ctx: &EncodedContext) {
    let _ = write!(
        out,
        "{} {} {} {}",
        ctx.ts.raw(),
        ctx.id,
        ctx.leaf.raw(),
        ctx.root.raw()
    );
    for e in &ctx.cc {
        let _ = write!(
            out,
            " {}:{}:{}:{}",
            e.id,
            e.site.raw(),
            e.target.raw(),
            e.count
        );
    }
    if let Some(link) = &ctx.spawn {
        let _ = write!(out, " | {} ", link.site.raw());
        write_ctx(out, &link.parent);
    }
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

/// One line of the export's compiled superop table: the call/return
/// window plus the memoized net effect the runtime applies on a hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperOpRecord {
    /// The window trace the superop matches.
    pub window: Vec<WindowOp>,
    /// Call events the window covers.
    pub calls: u64,
    /// ccStack operations (pushes + pops) the window performs.
    pub cc_ops: u64,
    /// Compressed-recursion hits inside the window.
    pub compress_hits: u64,
    /// Peak ccStack depth inside the window, relative to entry.
    pub cc_peak: usize,
}

/// Offline decoding state reassembled from an export.
#[derive(Debug, Default)]
pub struct OfflineDecoder {
    dicts: DictStore,
    owners: HashMap<CallSiteId, FunctionId>,
    samples: Vec<EncodedContext>,
    dispatch: Vec<DispatchRecord>,
    superops: Vec<SuperOpRecord>,
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
    pub fn superops(&self) -> &[SuperOpRecord] {
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

pub(crate) fn parse_ctx(
    tokens: &mut std::iter::Peekable<std::str::SplitWhitespace<'_>>,
    lineno: usize,
) -> Result<EncodedContext, ImportError> {
    let mut next_num = |what: &str| -> Result<u64, ImportError> {
        tokens
            .next()
            .ok_or_else(|| ImportError::BadLine(lineno, format!("missing {what}")))?
            .parse::<u64>()
            .map_err(|_| ImportError::BadLine(lineno, format!("bad {what}")))
    };
    let ts = TimeStamp::new(next_num("ts")? as u32);
    let id = next_num("id")?;
    let leaf = FunctionId::new(next_num("leaf")? as u32);
    let root = FunctionId::new(next_num("root")? as u32);
    let mut cc = Vec::new();
    let mut spawn = None;
    while let Some(&tok) = tokens.peek() {
        if tok == "|" {
            tokens.next();
            let site = CallSiteId::new(
                tokens
                    .next()
                    .ok_or_else(|| ImportError::BadLine(lineno, "missing spawn site".into()))?
                    .parse::<u32>()
                    .map_err(|_| ImportError::BadLine(lineno, "bad spawn site".into()))?,
            );
            let parent = parse_ctx(tokens, lineno)?;
            spawn = Some(SpawnLink {
                site,
                parent: Box::new(parent),
            });
            break;
        }
        let tok = tokens.next().expect("peeked");
        let parts: Vec<&str> = tok.split(':').collect();
        if parts.len() != 4 {
            return Err(ImportError::BadLine(lineno, format!("bad cc entry {tok}")));
        }
        let nums: Result<Vec<u64>, _> = parts.iter().map(|p| p.parse::<u64>()).collect();
        let nums = nums.map_err(|_| ImportError::BadLine(lineno, format!("bad cc entry {tok}")))?;
        cc.push(CcEntry {
            id: nums[0],
            site: CallSiteId::new(nums[1] as u32),
            target: FunctionId::new(nums[2] as u32),
            count: nums[3],
        });
    }
    Ok(EncodedContext {
        ts,
        id,
        leaf,
        root,
        cc,
        spawn,
    })
}

/// Parses an export (state and/or samples, in any order after the header).
///
/// # Errors
///
/// Returns [`ImportError`] on malformed input.
pub fn import(text: &str) -> Result<OfflineDecoder, ImportError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(ImportError::BadHeader),
    }

    let mut out = OfflineDecoder::default();
    // Dictionary assembly state: timestamp, maxID, graph, numCC table, and
    // the edge encodings in insertion order.
    type DictState = (
        TimeStamp,
        u64,
        dacce_callgraph::CallGraph,
        HashMap<FunctionId, u128>,
        Vec<u64>,
    );
    let mut current: Option<DictState> = None;

    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace().peekable();
        let kind = tokens.next().expect("non-empty line");
        match kind {
            "dict" => {
                let ts: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad dict ts".into()))?;
                let max_id: u64 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad dict maxID".into()))?;
                current = Some((
                    TimeStamp::new(ts),
                    max_id,
                    dacce_callgraph::CallGraph::new(),
                    HashMap::new(),
                    Vec::new(),
                ));
            }
            "node" => {
                let (_, _, graph, num_cc, _) = current
                    .as_mut()
                    .ok_or_else(|| ImportError::BadLine(lineno, "node outside dict".into()))?;
                let f: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad node".into()))?;
                let cc: u128 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad numCC".into()))?;
                graph.ensure_node(FunctionId::new(f));
                num_cc.insert(FunctionId::new(f), cc);
            }
            "edge" => {
                let (_, _, graph, _, encodings) = current
                    .as_mut()
                    .ok_or_else(|| ImportError::BadLine(lineno, "edge outside dict".into()))?;
                let nums: Vec<&str> = tokens.by_ref().collect();
                if nums.len() != 6 {
                    return Err(ImportError::BadLine(lineno, "edge needs 6 fields".into()));
                }
                let caller: u32 = nums[0]
                    .parse()
                    .map_err(|_| ImportError::BadLine(lineno, "bad caller".into()))?;
                let callee: u32 = nums[1]
                    .parse()
                    .map_err(|_| ImportError::BadLine(lineno, "bad callee".into()))?;
                let site: u32 = nums[2]
                    .parse()
                    .map_err(|_| ImportError::BadLine(lineno, "bad site".into()))?;
                let _encoding: u64 = nums[3]
                    .parse()
                    .map_err(|_| ImportError::BadLine(lineno, "bad encoding".into()))?;
                let back = nums[4] == "1";
                let dispatch = parse_dispatch(nums[5])
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad dispatch".into()))?;
                let (eid, _) = graph.add_edge(
                    FunctionId::new(caller),
                    FunctionId::new(callee),
                    CallSiteId::new(site),
                    dispatch,
                );
                graph.edge_mut(eid).back = back;
                encodings.push(_encoding);
            }
            "enddict" => {
                let (ts, max_id, graph, num_cc, encodings) = current
                    .take()
                    .ok_or_else(|| ImportError::BadLine(lineno, "enddict without dict".into()))?;
                let mut enc = dacce_callgraph::encode::Encoding::unassigned(&graph);
                enc.max_id = max_id;
                for (f, cc) in num_cc {
                    enc.set_num_cc(graph.local(f).expect("node lines add a node"), cc);
                }
                for (i, (eid, e)) in graph.edges().enumerate() {
                    if !e.back {
                        enc.set_encoding(eid, u128::from(encodings[i]));
                    }
                }
                let dict = DecodeDict::from_encoding(&graph, &enc, ts)
                    .map_err(|e| ImportError::BadLine(lineno, e.to_string()))?;
                out.dicts.push(dict);
            }
            "owner" => {
                let site: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad owner site".into()))?;
                let func: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad owner func".into()))?;
                out.owners
                    .insert(CallSiteId::new(site), FunctionId::new(func));
            }
            "dispatch" => {
                let fields: Vec<&str> = tokens.by_ref().collect();
                if fields.len() != 6 {
                    return Err(ImportError::BadLine(
                        lineno,
                        "dispatch needs 6 fields".into(),
                    ));
                }
                let site: u32 = fields[0]
                    .parse()
                    .map_err(|_| ImportError::BadLine(lineno, "bad dispatch site".into()))?;
                let slot: u32 = fields[1]
                    .parse()
                    .map_err(|_| ImportError::BadLine(lineno, "bad dispatch slot".into()))?;
                let kind = match fields[2] {
                    "trap" => DispatchKind::Trap,
                    "mono" => DispatchKind::Mono,
                    "poly" => DispatchKind::Poly,
                    other => {
                        return Err(ImportError::BadLine(
                            lineno,
                            format!("bad dispatch kind {other}"),
                        ))
                    }
                };
                let target = match fields[3] {
                    "-" => None,
                    t => Some(FunctionId::new(t.parse().map_err(|_| {
                        ImportError::BadLine(lineno, "bad dispatch target".into())
                    })?)),
                };
                let action = match fields[4] {
                    "-" => None,
                    a => Some(parse_action(a).ok_or_else(|| {
                        ImportError::BadLine(lineno, format!("bad dispatch action {a}"))
                    })?),
                };
                let want_payload = kind != DispatchKind::Trap;
                if target.is_some() != want_payload || action.is_some() != want_payload {
                    return Err(ImportError::BadLine(
                        lineno,
                        "dispatch target/action must be '-' iff kind is trap".into(),
                    ));
                }
                let tc_wrap = fields[5] == "1";
                out.dispatch.push(DispatchRecord {
                    site: CallSiteId::new(site),
                    slot,
                    kind,
                    target,
                    action,
                    tc_wrap,
                });
            }
            "superop" => {
                let mut next_num = |what: &str| -> Result<u64, ImportError> {
                    tokens
                        .next()
                        .ok_or_else(|| ImportError::BadLine(lineno, format!("missing {what}")))?
                        .parse::<u64>()
                        .map_err(|_| ImportError::BadLine(lineno, format!("bad {what}")))
                };
                let calls = next_num("superop calls")?;
                let cc_ops = next_num("superop ccops")?;
                let compress_hits = next_num("superop compresshits")?;
                let cc_peak = next_num("superop ccpeak")? as usize;
                let mut window = Vec::new();
                for tok in tokens.by_ref() {
                    if tok == "r" {
                        window.push(WindowOp::Ret);
                        continue;
                    }
                    let rest = tok.strip_prefix("c:").ok_or_else(|| {
                        ImportError::BadLine(lineno, format!("bad superop token {tok}"))
                    })?;
                    let (site, target) = rest.split_once(':').ok_or_else(|| {
                        ImportError::BadLine(lineno, format!("bad superop token {tok}"))
                    })?;
                    let site: u32 = site.parse().map_err(|_| {
                        ImportError::BadLine(lineno, format!("bad superop site {tok}"))
                    })?;
                    let target: u32 = target.parse().map_err(|_| {
                        ImportError::BadLine(lineno, format!("bad superop target {tok}"))
                    })?;
                    window.push(WindowOp::Call {
                        site: CallSiteId::new(site),
                        target: FunctionId::new(target),
                    });
                }
                if window.is_empty() {
                    return Err(ImportError::BadLine(
                        lineno,
                        "superop needs a window".into(),
                    ));
                }
                out.superops.push(SuperOpRecord {
                    window,
                    calls,
                    cc_ops,
                    compress_hits,
                    cc_peak,
                });
            }
            "degraded" => {
                let fields: Vec<&str> = tokens.by_ref().collect();
                if fields.len() != 8 {
                    return Err(ImportError::BadLine(
                        lineno,
                        "degraded needs 8 fields".into(),
                    ));
                }
                let nums: Result<Vec<u64>, _> = fields.iter().map(|t| t.parse::<u64>()).collect();
                let nums =
                    nums.map_err(|_| ImportError::BadLine(lineno, "bad degraded counter".into()))?;
                out.degraded.active = nums[0] != 0;
                out.degraded.degraded_traps = nums[1];
                out.degraded.reencode_retries = nums[2];
                out.degraded.cc_spill_events = nums[3];
                out.degraded.cc_spilled_peak = nums[4];
                out.degraded.lock_poisonings = nums[5];
                out.degraded.slot_failures = nums[6];
                out.degraded.batch_errors = nums[7];
            }
            "degradednode" => {
                let n: u32 = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| ImportError::BadLine(lineno, "bad degraded node".into()))?;
                out.degraded.note_trap_node(n);
            }
            "sample" => {
                out.samples.push(parse_ctx(&mut tokens, lineno)?);
            }
            other => {
                return Err(ImportError::BadLine(
                    lineno,
                    format!("unknown record {other}"),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        /// Exports with flipped back flags and grown compressed counts
        /// always import to a typed error or decode every sample to a path
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
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ImportError::BadLine(3, "bad callee".into());
        assert!(e.to_string().contains("line 3"));
        assert!(ImportError::BadHeader.to_string().contains("header"));
    }
}
