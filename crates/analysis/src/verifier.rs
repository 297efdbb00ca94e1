//! Offline encoding verifier ("model checker" for Ball–Larus/DACCE
//! invariants).
//!
//! Given decode dictionaries plus the site-owner table, the verifier proves
//! the encoding invariants the runtime relies on and reports violations as
//! structured [`Diagnostic`]s. Rule catalogue:
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | `dict-monotone` | error | dictionary timestamps equal their store index (append-only `gTimeStamp`) |
//! | `owner-consistent` | error | every dictionary edge's caller owns its call site |
//! | `encoding-partition` | error | per node, the non-back incoming encodings partition `[0, numCC)` into caller-sized intervals (implies root-to-node path-id uniqueness and density) |
//! | `path-id-unique` | error | bounded exhaustive path enumeration finds no two acyclic paths with equal ids at a node |
//! | `unencoded-range` | error | `maxID = max numCC - 1`, so unencoded-edge ids land in `[maxID+1, 2*maxID+1]` without colliding with encoded ids |
//! | `hottest-zero` | warning | every join node has an incoming edge encoded 0 (the hottest edge after adaptive re-encoding) |
//! | `overflow-budget` | error | `2*maxID+1` and every path sum fit in 64 bits |
//! | `dispatch-table` | error | the exported compiled dispatch table agrees edge-for-edge with the latest dictionary (opt-in via [`verify_dispatch`] / `dacce-lint --dispatch`) |
//! | `superop-net-effect` | error | every exported superop re-folds — event-by-event over the compiled dispatch actions — to exactly the net effect it memoizes, and its window passes every compile-time refusal rule (opt-in via [`verify_superops`] / `dacce-lint --superops`) |
//! | `degraded-state` | error | the exported [`dacce::DegradedState`] arithmetic is internally consistent — traps recorded imply degraded mode, the trap counter covers every trap node, spill events and the spilled peak move together (opt-in via [`verify_degraded`] / `dacce-lint --degraded`) |
//! | `fleet-twin` | error | a shared-lineage tenant's export is identical — dictionaries, owners, compiled dispatch — to a standalone twin of the same program (opt-in via [`verify_fleet_twin`] / `dacce-lint --fleet`) |
//!
//! The partition check is the workhorse: if at every node the sorted
//! non-back incoming encodings are exactly the prefix sums of their
//! callers' `numCC` values and total `numCC(n)`, then by induction over the
//! acyclic (non-back) subgraph every root-to-node path has a distinct id in
//! `[0, numCC(n))` and every id is reachable — Ball–Larus minimality. The
//! path enumeration is a bounded secondary check that does not rely on that
//! induction.

use std::collections::HashMap;

use dacce::patch::EdgeAction;
use dacce::{DacceEngine, DispatchKind, OfflineDecoder, WindowOp};
use dacce_callgraph::encode::MAX_ENCODABLE_ID;
use dacce_callgraph::{CallSiteId, DecodeDict, DictEdge, DictStore, FunctionId, TimeStamp};

use crate::lint::{Diagnostic, Severity};

/// Cap on enumerated paths per dictionary in the `path-id-unique` check.
const MAX_PATHS: usize = 10_000;
/// Cap on DFS steps per dictionary in the `path-id-unique` check.
const MAX_STEPS: usize = 50_000;

/// Verifies every dictionary in `dicts` against `owners`.
///
/// Returns all findings, most severe first; an empty vector means every
/// invariant holds.
pub fn verify_dicts(
    dicts: &DictStore,
    owners: &HashMap<CallSiteId, FunctionId>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..dicts.len() {
        let ts = TimeStamp::new(u32::try_from(i).expect("dictionary count fits u32"));
        let Some(dict) = dicts.get(ts) else {
            out.push(Diagnostic {
                rule: "dict-monotone",
                severity: Severity::Error,
                ts: Some(ts),
                message: format!(
                    "store of length {} has no dictionary at index {i}",
                    dicts.len()
                ),
                witness: Vec::new(),
            });
            continue;
        };
        if dict.timestamp() != ts {
            out.push(Diagnostic {
                rule: "dict-monotone",
                severity: Severity::Error,
                ts: Some(ts),
                message: format!(
                    "dictionary at store index {i} is stamped ts={}",
                    dict.timestamp().raw()
                ),
                witness: Vec::new(),
            });
        }
        verify_dict(dict, owners, &mut out);
    }
    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    out
}

/// Verifies an imported engine-state export.
pub fn verify_export(decoder: &OfflineDecoder) -> Vec<Diagnostic> {
    verify_dicts(decoder.dicts(), decoder.owners())
}

/// Verifies a live engine's dictionaries.
pub fn verify_engine(engine: &DacceEngine) -> Vec<Diagnostic> {
    verify_dicts(engine.dicts(), engine.site_owner_map())
}

/// Cross-checks the export's compiled dispatch table (the flat slot-indexed
/// fast path) against the latest dictionary (the logical encoding), rule
/// `dispatch-table`:
///
/// * each compiled site uses exactly one slot, and no two sites share one;
/// * every latest-dictionary edge has a compiled record for its
///   `(site, callee)` pair — non-back edges must be compiled
///   `Encoded { delta }` with `delta` equal to the edge's encoding, back
///   edges must be compiled with a ccStack action. When the export records
///   slot refusals (`degraded … slotfail` above 0), an edge whose site has
///   no record at all is exempt: an injected slot cap starved that site,
///   which then traps on every call — sound, and accepted by the runtime's
///   own check;
/// * every compiled `Encoded` record corresponds to a latest-dictionary
///   non-back edge with the same encoding (stale deltas from an earlier
///   generation are the bug this rule exists to catch). Extra ccStack
///   records without a dictionary edge are allowed: traps patch sites
///   before the edge is frozen into a dictionary.
///
/// Exports produced before the flat dispatch table carry no records;
/// those return no findings.
pub fn verify_dispatch(decoder: &OfflineDecoder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let records = decoder.dispatch();
    if records.is_empty() {
        return out;
    }
    let ts = decoder.dicts().latest().map(DecodeDict::timestamp);
    let err = |message: String, witness: Vec<String>| Diagnostic {
        rule: "dispatch-table",
        severity: Severity::Error,
        ts,
        message,
        witness,
    };

    // Slot discipline: one slot per site, one site per slot.
    let mut slot_of: HashMap<CallSiteId, u32> = HashMap::new();
    let mut site_of: HashMap<u32, CallSiteId> = HashMap::new();
    for r in records {
        match slot_of.insert(r.site, r.slot) {
            Some(prev) if prev != r.slot => out.push(err(
                format!(
                    "site {} compiled with two slots ({prev} and {})",
                    r.site, r.slot
                ),
                Vec::new(),
            )),
            _ => {}
        }
        match site_of.insert(r.slot, r.site) {
            Some(prev) if prev != r.site => out.push(err(
                format!("slot {} shared by sites {prev} and {}", r.slot, r.site),
                Vec::new(),
            )),
            _ => {}
        }
    }

    // Index compiled actions by (site, target); trap records carry none.
    let mut compiled: HashMap<(CallSiteId, FunctionId), EdgeAction> = HashMap::new();
    for r in records {
        if let (Some(target), Some(action)) = (r.target, r.action) {
            if compiled.insert((r.site, target), action).is_some() {
                out.push(err(
                    format!("duplicate dispatch record for ({}, {target})", r.site),
                    Vec::new(),
                ));
            }
        } else if r.kind != DispatchKind::Trap {
            out.push(err(
                format!("non-trap record for {} lacks target/action", r.site),
                Vec::new(),
            ));
        }
    }

    let Some(latest) = decoder.dicts().latest() else {
        out.push(err(
            "dispatch records present but no dictionary to check against".into(),
            Vec::new(),
        ));
        return out;
    };

    // Edge-for-edge agreement with the latest (current-generation)
    // dictionary.
    let slot_starved = decoder.degraded().slot_failures > 0;
    let mut edge_of: HashMap<(CallSiteId, FunctionId), &DictEdge> = HashMap::new();
    for e in latest.edges() {
        edge_of.insert((e.site, e.callee), e);
        let Some(&action) = compiled.get(&(e.site, e.callee)) else {
            if slot_starved && !slot_of.contains_key(&e.site) {
                continue;
            }
            out.push(err(
                format!(
                    "dictionary edge {} --{}--> {} has no compiled dispatch record",
                    e.caller, e.site, e.callee
                ),
                Vec::new(),
            ));
            continue;
        };
        if e.back {
            if !action.uses_ccstack() {
                out.push(err(
                    format!(
                        "back edge {} --{}--> {} compiled as {action:?} instead of a \
                         ccStack action",
                        e.caller, e.site, e.callee
                    ),
                    Vec::new(),
                ));
            }
        } else if action != (EdgeAction::Encoded { delta: e.encoding }) {
            out.push(err(
                format!(
                    "edge {} --{}--> {} is encoded {} in the dictionary but compiled \
                     as {action:?}",
                    e.caller, e.site, e.callee, e.encoding
                ),
                Vec::new(),
            ));
        }
    }
    for (&(site, target), &action) in &compiled {
        if let EdgeAction::Encoded { delta } = action {
            if !edge_of.contains_key(&(site, target)) {
                out.push(err(
                    format!(
                        "compiled record ({site}, {target}) adds {delta} but the latest \
                         dictionary has no such edge"
                    ),
                    Vec::new(),
                ));
            }
        }
    }
    out
}

/// Validates the export's [`DegradedState`] arithmetic, rule
/// `degraded-state`:
///
/// * trap nodes or degraded traps recorded ⇒ degraded mode is active
///   (degradation accounting only runs once the engine entered degraded
///   mode);
/// * `degraded_traps >= trap_nodes.len()` — every demoted function was
///   recorded by at least one trap;
/// * `cc_spill_events` and `cc_spilled_peak` are zero or non-zero
///   together — a shed entry is resident in the heap region, and the
///   region only fills by shedding.
///
/// Exports from runs that never degraded return no findings.
///
/// [`DegradedState`]: dacce::DegradedState
pub fn verify_degraded(decoder: &OfflineDecoder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let d = decoder.degraded();
    let err = |message: String| Diagnostic {
        rule: "degraded-state",
        severity: Severity::Error,
        ts: None,
        message,
        witness: Vec::new(),
    };

    if !d.active && (!d.trap_nodes.is_empty() || d.degraded_traps > 0) {
        out.push(err(format!(
            "{} trap node(s) and {} degraded trap(s) recorded but degraded \
             mode is not active",
            d.trap_nodes.len(),
            d.degraded_traps
        )));
    }
    if d.degraded_traps < d.trap_nodes.len() as u64 {
        out.push(err(format!(
            "{} functions demoted to trap-everything but only {} degraded \
             trap(s) counted; each demotion is recorded by a trap",
            d.trap_nodes.len(),
            d.degraded_traps
        )));
    }
    if (d.cc_spill_events == 0) != (d.cc_spilled_peak == 0) {
        out.push(err(format!(
            "ccStack spill counters disagree: {} spill event(s) but a \
             spilled peak of {} entries",
            d.cc_spill_events, d.cc_spilled_peak
        )));
    }
    out
}

/// Symbolic context id used by the superop re-fold: the unknown id at
/// window entry plus a wrapping offset, or a concrete constant (a ccStack
/// push resets the id to `maxID + 1`). Mirrors the runtime compiler's
/// symbolic domain so the lint proves the same identity independently.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SymId {
    /// `entry + off` (wrapping).
    Entry(u64),
    /// The concrete value `off`.
    Const(u64),
}

impl SymId {
    fn add(self, d: u64) -> SymId {
        match self {
            SymId::Entry(off) => SymId::Entry(off.wrapping_add(d)),
            SymId::Const(off) => SymId::Const(off.wrapping_add(d)),
        }
    }

    fn sub(self, d: u64) -> SymId {
        match self {
            SymId::Entry(off) => SymId::Entry(off.wrapping_sub(d)),
            SymId::Const(off) => SymId::Const(off.wrapping_sub(d)),
        }
    }

    /// Value equality when decidable for every possible entry id: same
    /// variant compares offsets, mixed variants are undecidable.
    fn eq_decidable(self, other: SymId) -> Option<bool> {
        match (self, other) {
            (SymId::Entry(a), SymId::Entry(b)) | (SymId::Const(a), SymId::Const(b)) => Some(a == b),
            _ => None,
        }
    }
}

/// The bookkeeping deltas a superop window folds to.
struct SuperOpFold {
    calls: u64,
    cc_ops: u64,
    compress_hits: u64,
    cc_peak: usize,
}

/// Re-folds one exported window over the compiled dispatch actions,
/// applying the runtime compiler's refusal rules. `Err` carries the rule
/// that fired.
fn refold_window(
    actions: &HashMap<(CallSiteId, FunctionId), (EdgeAction, bool)>,
    max_id: u64,
    window: &[WindowOp],
) -> Result<SuperOpFold, String> {
    if window.len() < 2 {
        return Err("window is shorter than one call/return pair".into());
    }
    if !matches!(window[0], WindowOp::Call { .. }) {
        return Err("window does not start with a call".into());
    }

    // One symbolically pushed ccStack entry: (id, site, target, folded
    // compressed repetitions).
    let mut id = SymId::Entry(0);
    let mut cc: Vec<(SymId, CallSiteId, FunctionId, u64)> = Vec::new();
    let mut open: Vec<EdgeAction> = Vec::new();
    let mut fold = SuperOpFold {
        calls: 0,
        cc_ops: 0,
        compress_hits: 0,
        cc_peak: 0,
    };

    for &op in window {
        match op {
            WindowOp::Call { site, target } => {
                let Some(&(action, tc_wrap)) = actions.get(&(site, target)) else {
                    return Err(format!(
                        "site {site} -> {target} has no compiled dispatch action \
                         (the runtime never publishes a superop over a trapping site)"
                    ));
                };
                if tc_wrap {
                    return Err(format!("site {site} -> {target} is TcStack-wrapped"));
                }
                match action {
                    EdgeAction::Encoded { delta } => id = id.add(delta),
                    EdgeAction::Unencoded => {
                        fold.cc_ops += 1;
                        cc.push((id, site, target, 0));
                        fold.cc_peak = fold.cc_peak.max(cc.len());
                        id = SymId::Const(max_id + 1);
                    }
                    EdgeAction::UnencodedCompressed => {
                        fold.cc_ops += 1;
                        let Some(top) = cc.last_mut() else {
                            return Err("compressed push at relative ccStack depth 0".into());
                        };
                        let hit = if top.1 == site && top.2 == target {
                            top.0.eq_decidable(id).ok_or_else(|| {
                                "compressed-push id compare crosses symbolic bases".to_string()
                            })?
                        } else {
                            false
                        };
                        if hit {
                            top.3 += 1;
                            fold.compress_hits += 1;
                        } else {
                            cc.push((id, site, target, 0));
                            fold.cc_peak = fold.cc_peak.max(cc.len());
                        }
                        id = SymId::Const(max_id + 1);
                    }
                }
                open.push(action);
                fold.calls += 1;
            }
            WindowOp::Ret => {
                let Some(action) = open.pop() else {
                    return Err("unbalanced window: return without an open call".into());
                };
                match action {
                    EdgeAction::Encoded { delta } => id = id.sub(delta),
                    EdgeAction::Unencoded => {
                        fold.cc_ops += 1;
                        let Some(e) = cc.pop() else {
                            return Err("plain pop on an empty folded ccStack".into());
                        };
                        if e.3 != 0 {
                            return Err(
                                "plain pop would discard folded compressed repetitions".into()
                            );
                        }
                        id = e.0;
                    }
                    EdgeAction::UnencodedCompressed => {
                        fold.cc_ops += 1;
                        let Some(top) = cc.last_mut() else {
                            return Err("compressed pop on an empty folded ccStack".into());
                        };
                        id = top.0;
                        if top.3 > 0 {
                            top.3 -= 1;
                        } else {
                            cc.pop();
                        }
                    }
                }
            }
        }
    }

    if !open.is_empty() {
        return Err(format!(
            "unbalanced window: {} call(s) left open",
            open.len()
        ));
    }
    if !cc.is_empty() || id != SymId::Entry(0) {
        return Err("folded final state is not the identity".into());
    }
    Ok(fold)
}

/// Renders a window as the export's token sequence, the witness shape of
/// every `superop-net-effect` finding.
fn render_window(window: &[WindowOp]) -> String {
    let mut out = String::new();
    for op in window {
        if !out.is_empty() {
            out.push(' ');
        }
        match *op {
            WindowOp::Call { site, target } => {
                use std::fmt::Write as _;
                let _ = write!(out, "c:{}:{}", site.raw(), target.raw());
            }
            WindowOp::Ret => out.push('r'),
        }
    }
    out
}

/// Cross-checks the export's compiled superop table against the compiled
/// dispatch table (rule `superop-net-effect`, opt-in via
/// [`verify_superops`] / `dacce-lint --superops`).
///
/// Every exported superop is re-folded event-by-event over the dispatch
/// actions of its window, with an independent implementation of the
/// runtime compiler's symbolic fold. A record fails when
///
/// * any refusal rule fires — an unresolved or TcStack-wrapped site, a
///   compressed push at relative depth 0, an undecidable id compare, an
///   unbalanced window, or a folded final state that is not the identity.
///   The runtime never publishes such a window, so an exported one means
///   the table and the dispatch state are from different generations (the
///   stale-superop bug this rule exists to catch);
/// * the re-folded net effect (calls, ccStack ops, compression hits,
///   ccStack peak) disagrees with the memoized counters the record
///   carries — a tampered or bit-rotted net delta.
///
/// Each finding's witness is the offending window in the export's own
/// token syntax. Exports without superop lines return no findings.
pub fn verify_superops(decoder: &OfflineDecoder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let records = decoder.superops();
    if records.is_empty() {
        return out;
    }
    let ts = decoder.dicts().latest().map(DecodeDict::timestamp);
    // The concrete maxID only parameterises the post-push constant; every
    // decidable compare is between offsets of the same constant, so a
    // missing dictionary (maxID 0) cannot flip a hit/miss outcome.
    let max_id = decoder.dicts().latest().map_or(0, DecodeDict::max_id);
    let err = |message: String, witness: Vec<String>| Diagnostic {
        rule: "superop-net-effect",
        severity: Severity::Error,
        ts,
        message,
        witness,
    };

    let mut actions: HashMap<(CallSiteId, FunctionId), (EdgeAction, bool)> = HashMap::new();
    for r in decoder.dispatch() {
        if let (Some(target), Some(action)) = (r.target, r.action) {
            actions.insert((r.site, target), (action, r.tc_wrap));
        }
    }

    for (i, rec) in records.iter().enumerate() {
        let witness = vec![render_window(&rec.window)];
        match refold_window(&actions, max_id, &rec.window) {
            Err(why) => out.push(err(
                format!("superop {i} is not compilable under the exported dispatch table: {why}"),
                witness,
            )),
            Ok(fold) => {
                let recorded = (rec.calls, rec.cc_ops, rec.compress_hits, rec.cc_peak);
                let refolded = (fold.calls, fold.cc_ops, fold.compress_hits, fold.cc_peak);
                if recorded != refolded {
                    out.push(err(
                        format!(
                            "superop {i} memoizes calls={}/ccOps={}/compressHits={}/ccPeak={} \
                             but its window re-folds to calls={}/ccOps={}/compressHits={}/ccPeak={}",
                            recorded.0,
                            recorded.1,
                            recorded.2,
                            recorded.3,
                            refolded.0,
                            refolded.1,
                            refolded.2,
                            refolded.3,
                        ),
                        witness,
                    ));
                }
            }
        }
    }
    out
}

/// Cross-checks a shared-lineage tenant's export against its standalone
/// twin (rule `fleet-twin`, opt-in via `dacce-lint --fleet`).
///
/// A tenant that attached to an encoding lineage must be observationally
/// identical to a tracker that built the same program on its own: same
/// dictionary chain (per generation: `maxID`, every `numCC`, every frozen
/// edge with its encoding), same site-owner table, same compiled dispatch
/// table. Any drift means the shared snapshot and the standalone encode
/// path disagree — the copy-on-write machinery leaked state between
/// tenants or adopted a generation it should not have.
pub fn verify_fleet_twin(tenant: &OfflineDecoder, twin: &OfflineDecoder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut err = |ts: Option<TimeStamp>, message: String| {
        out.push(Diagnostic {
            rule: "fleet-twin",
            severity: Severity::Error,
            ts,
            message,
            witness: Vec::new(),
        });
    };

    if tenant.dicts().len() != twin.dicts().len() {
        err(
            None,
            format!(
                "tenant has {} dictionary generation(s), twin has {}",
                tenant.dicts().len(),
                twin.dicts().len()
            ),
        );
    }
    // Functions whose numCC must agree: every edge endpoint or site owner
    // either side knows (covers isolated nodes such as a pre-edge `main`).
    let mut funcs: Vec<FunctionId> = tenant
        .owners()
        .values()
        .chain(twin.owners().values())
        .copied()
        .collect();
    for dec in [tenant, twin] {
        for i in 0..dec.dicts().len() {
            let ts = TimeStamp::new(u32::try_from(i).expect("dictionary count fits u32"));
            if let Some(dict) = dec.dicts().get(ts) {
                funcs.extend(dict.edges().iter().flat_map(|e| [e.caller, e.callee]));
            }
        }
    }
    funcs.sort_unstable();
    funcs.dedup();

    for i in 0..tenant.dicts().len().min(twin.dicts().len()) {
        let ts = TimeStamp::new(u32::try_from(i).expect("dictionary count fits u32"));
        let (Some(a), Some(b)) = (tenant.dicts().get(ts), twin.dicts().get(ts)) else {
            continue;
        };
        if a.max_id() != b.max_id() {
            err(
                Some(ts),
                format!(
                    "maxID {} on the tenant, {} on the twin",
                    a.max_id(),
                    b.max_id()
                ),
            );
        }
        for &f in &funcs {
            if a.num_cc(f) != b.num_cc(f) {
                err(
                    Some(ts),
                    format!(
                        "numCC({f}) is {:?} on the tenant, {:?} on the twin",
                        a.num_cc(f),
                        b.num_cc(f)
                    ),
                );
            }
        }
        let key = |e: &DictEdge| (e.site, e.callee);
        let mut a_edges: Vec<&DictEdge> = a.edges().iter().collect();
        let mut b_edges: Vec<&DictEdge> = b.edges().iter().collect();
        a_edges.sort_by_key(|e| key(e));
        b_edges.sort_by_key(|e| key(e));
        let b_by_key: HashMap<(CallSiteId, FunctionId), &DictEdge> =
            b_edges.iter().map(|e| (key(e), *e)).collect();
        for e in &a_edges {
            match b_by_key.get(&key(e)) {
                None => err(
                    Some(ts),
                    format!(
                        "edge {} -> {} at {} frozen on the tenant but absent on the twin",
                        e.caller, e.callee, e.site
                    ),
                ),
                Some(t) if (t.caller, t.encoding, t.back) != (e.caller, e.encoding, e.back) => {
                    err(
                        Some(ts),
                        format!(
                            "edge {} -> {} at {} encodes {} (back={}) on the tenant \
                             but {} (back={}) on the twin",
                            e.caller, e.callee, e.site, e.encoding, e.back, t.encoding, t.back
                        ),
                    );
                }
                Some(_) => {}
            }
        }
        if b_edges.len() != a_edges.len() {
            err(
                Some(ts),
                format!(
                    "{} frozen edge(s) on the tenant, {} on the twin",
                    a_edges.len(),
                    b_edges.len()
                ),
            );
        }
    }

    if tenant.owners() != twin.owners() {
        err(
            None,
            format!(
                "site-owner tables differ: {} entries on the tenant, {} on the twin",
                tenant.owners().len(),
                twin.owners().len()
            ),
        );
    }

    // Slot indices are fast-path allocation order, which depends on compile
    // timing, not on the encoding — compare the semantic content only.
    let semantic = |dec: &OfflineDecoder| {
        let mut v: Vec<_> = dec
            .dispatch()
            .iter()
            .map(|r| (r.site, r.target, r.kind, r.action, r.tc_wrap))
            .collect();
        v.sort_by_key(|&(site, target, ..)| (site, target.map(FunctionId::raw)));
        v
    };
    let (a_disp, b_disp) = (semantic(tenant), semantic(twin));
    if a_disp != b_disp {
        err(
            None,
            format!(
                "compiled dispatch tables differ: {} record(s) on the tenant, {} on the twin",
                a_disp.len(),
                b_disp.len()
            ),
        );
    }
    out
}

fn verify_dict(
    dict: &DecodeDict,
    owners: &HashMap<CallSiteId, FunctionId>,
    out: &mut Vec<Diagnostic>,
) {
    let ts = Some(dict.timestamp());

    // owner-consistent: every frozen edge agrees with the owner table.
    for e in dict.edges() {
        if owners.get(&e.site) != Some(&e.caller) {
            out.push(Diagnostic {
                rule: "owner-consistent",
                severity: Severity::Error,
                ts,
                message: format!(
                    "edge {} -> {} at {} but site owner table says {}",
                    e.caller,
                    e.callee,
                    e.site,
                    owners
                        .get(&e.site)
                        .map_or_else(|| "<missing>".to_string(), ToString::to_string)
                ),
                witness: Vec::new(),
            });
        }
    }

    // Group non-back incoming edges per callee once.
    let mut nodes: Vec<FunctionId> = Vec::new();
    let mut incoming: HashMap<FunctionId, Vec<&DictEdge>> = HashMap::new();
    for e in dict.edges() {
        if incoming.entry(e.callee).or_default().is_empty() {
            nodes.push(e.callee);
        }
        if !e.back {
            incoming.get_mut(&e.callee).expect("just inserted").push(e);
        }
        if let std::collections::hash_map::Entry::Vacant(slot) = incoming.entry(e.caller) {
            slot.insert(Vec::new());
            nodes.push(e.caller);
        }
    }
    nodes.sort_by_key(|n| n.raw());
    nodes.dedup();

    let mut max_cc: u64 = 0;
    for &n in &nodes {
        let Some(cc) = dict.num_cc(n) else {
            out.push(Diagnostic {
                rule: "encoding-partition",
                severity: Severity::Error,
                ts,
                message: format!("node {n} appears in edges but has no numCC"),
                witness: Vec::new(),
            });
            continue;
        };
        max_cc = max_cc.max(cc);
        check_partition(dict, n, cc, &incoming, ts, out);
    }

    // unencoded-range: maxID must equal max numCC - 1 so the unencoded band
    // [maxID+1, 2*maxID+1] starts right above the greatest encodable id.
    let expected_max_id = max_cc.saturating_sub(1);
    if !nodes.is_empty() && dict.max_id() != expected_max_id {
        out.push(Diagnostic {
            rule: "unencoded-range",
            severity: Severity::Error,
            ts,
            message: format!(
                "maxID is {} but the greatest numCC is {max_cc}; unencoded ids in \
                 [{}, {}] would not sit flush above the encodable range",
                dict.max_id(),
                dict.max_id() + 1,
                2 * dict.max_id() + 1
            ),
            witness: Vec::new(),
        });
    }

    // overflow-budget: 2*maxID+1 must fit in u64.
    if u128::from(dict.max_id()) > MAX_ENCODABLE_ID {
        out.push(Diagnostic {
            rule: "overflow-budget",
            severity: Severity::Error,
            ts,
            message: format!(
                "maxID {} exceeds the 64-bit budget ({MAX_ENCODABLE_ID}); \
                 2*maxID+1 overflows",
                dict.max_id()
            ),
            witness: Vec::new(),
        });
    }

    enumerate_paths(dict, &nodes, &incoming, ts, out);
}

/// Per-node interval-partition check: sorted non-back incoming encodings
/// must be the exact prefix sums of their callers' `numCC` values, summing
/// to `numCC(n)`.
fn check_partition(
    dict: &DecodeDict,
    n: FunctionId,
    cc: u64,
    incoming: &HashMap<FunctionId, Vec<&DictEdge>>,
    ts: Option<TimeStamp>,
    out: &mut Vec<Diagnostic>,
) {
    let mut ins: Vec<&DictEdge> = incoming.get(&n).cloned().unwrap_or_default();
    if ins.is_empty() {
        // Heads (and nodes whose every incoming edge is a back edge) carry
        // exactly one context.
        if cc != 1 {
            out.push(Diagnostic {
                rule: "encoding-partition",
                severity: Severity::Error,
                ts,
                message: format!("{n} has no non-back incoming edges but numCC {cc} != 1"),
                witness: Vec::new(),
            });
        }
        return;
    }
    ins.sort_by_key(|e| e.encoding);
    if ins[0].encoding != 0 {
        out.push(Diagnostic {
            rule: "hottest-zero",
            severity: Severity::Warning,
            ts,
            message: format!(
                "{n} has no incoming edge encoded 0; the hottest incoming edge \
                 should be zero-weight after re-encoding"
            ),
            witness: witness_path(dict, incoming, ins[0]),
        });
    }
    let mut expect: u128 = 0;
    for e in &ins {
        if u128::from(e.encoding) != expect {
            out.push(Diagnostic {
                rule: "encoding-partition",
                severity: Severity::Error,
                ts,
                message: format!(
                    "incoming encodings of {n} do not partition [0, {cc}): edge \
                     from {} at {} is encoded {} where {expect} was expected",
                    e.caller, e.site, e.encoding
                ),
                witness: witness_path(dict, incoming, e),
            });
            return;
        }
        expect += u128::from(dict.num_cc(e.caller).unwrap_or(1));
    }
    if expect != u128::from(cc) {
        out.push(Diagnostic {
            rule: "encoding-partition",
            severity: Severity::Error,
            ts,
            message: format!("incoming intervals of {n} cover [0, {expect}) but numCC is {cc}"),
            witness: witness_path(dict, incoming, ins[ins.len() - 1]),
        });
    }
}

/// Bounded exhaustive enumeration of acyclic (non-back) root-to-node paths,
/// asserting no two distinct paths reach a node with the same id and that
/// no path sum overflows.
fn enumerate_paths(
    dict: &DecodeDict,
    nodes: &[FunctionId],
    incoming: &HashMap<FunctionId, Vec<&DictEdge>>,
    ts: Option<TimeStamp>,
    out: &mut Vec<Diagnostic>,
) {
    let mut outgoing: HashMap<FunctionId, Vec<&DictEdge>> = HashMap::new();
    for e in dict.edges() {
        if !e.back {
            outgoing.entry(e.caller).or_default().push(e);
        }
    }
    let heads: Vec<FunctionId> = nodes
        .iter()
        .copied()
        .filter(|n| incoming.get(n).is_none_or(Vec::is_empty))
        .collect();

    let mut seen: HashMap<(FunctionId, u128), Vec<String>> = HashMap::new();
    let mut paths = 0usize;
    let mut steps = 0usize;
    for &head in &heads {
        // DFS stack of (node, id-so-far, rendered path).
        let mut stack: Vec<(FunctionId, u128, Vec<String>)> =
            vec![(head, 0, vec![head.to_string()])];
        while let Some((node, id, path)) = stack.pop() {
            steps += 1;
            if paths >= MAX_PATHS || steps >= MAX_STEPS {
                return; // bounded check: silently stop past the cap
            }
            paths += 1;
            if id > u128::from(u64::MAX) {
                out.push(Diagnostic {
                    rule: "overflow-budget",
                    severity: Severity::Error,
                    ts,
                    message: format!("path id {id} at {node} overflows 64 bits"),
                    witness: path,
                });
                continue;
            }
            if let Some(prev) = seen.get(&(node, id)) {
                if *prev != path {
                    out.push(Diagnostic {
                        rule: "path-id-unique",
                        severity: Severity::Error,
                        ts,
                        message: format!("two distinct paths reach {node} with id {id}"),
                        witness: vec![prev.join(" "), path.join(" ")],
                    });
                    continue;
                }
            } else {
                seen.insert((node, id), path.clone());
            }
            for e in outgoing.get(&node).into_iter().flatten() {
                let mut next = path.clone();
                next.push(format!("--{}/+{}--> {}", e.site, e.encoding, e.callee));
                stack.push((e.callee, id + u128::from(e.encoding), next));
            }
        }
    }
}

/// Verifies a recorded decode journal (`dacce-journal v1`, see
/// `dacce::fragment`) for fragment-parallel decodability:
///
/// * the document parses (rule `fragment-journal`);
/// * every seam seed equals the replayed exit state of the preceding
///   fragment, so the parallel decoder's stitch pass proves every seam
///   without serial fallbacks (rule `fragment-seam`).
///
/// Seam verification is self-contained — effects replay without the
/// dictionaries — so no export file is needed.
#[must_use]
pub fn verify_fragments(text: &str) -> Vec<Diagnostic> {
    let journal = match dacce::DecodeJournal::parse(text) {
        Ok(j) => j,
        Err(e) => {
            return vec![Diagnostic {
                rule: "fragment-journal",
                severity: Severity::Error,
                ts: None,
                message: format!("malformed decode journal: {e}"),
                witness: Vec::new(),
            }]
        }
    };
    dacce::verify_seams(&journal)
        .into_iter()
        .map(|message| Diagnostic {
            rule: "fragment-seam",
            severity: Severity::Error,
            ts: None,
            message,
            witness: Vec::new(),
        })
        .collect()
}

/// Builds a root-to-node witness path ending in `last` by walking up the
/// first non-back incoming edge of each caller.
fn witness_path(
    dict: &DecodeDict,
    incoming: &HashMap<FunctionId, Vec<&DictEdge>>,
    last: &DictEdge,
) -> Vec<String> {
    let mut hops: Vec<&DictEdge> = vec![last];
    let mut at = last.caller;
    let mut guard = 0usize;
    while let Some(e) = incoming.get(&at).and_then(|v| v.first()) {
        hops.push(e);
        at = e.caller;
        guard += 1;
        if guard > dict.edge_count() {
            break; // corrupted dictionaries may cycle through "non-back" edges
        }
    }
    let mut rendered = vec![at.to_string()];
    for e in hops.iter().rev() {
        rendered.push(format!("--{}/+{}--> {}", e.site, e.encoding, e.callee));
    }
    vec![rendered.join(" ")]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacce_callgraph::analysis::classify_back_edges;
    use dacce_callgraph::encode::encode_graph;
    use dacce_callgraph::{CallGraph, Dispatch, EncodeOptions};

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }
    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    fn diamond_store() -> (DictStore, HashMap<CallSiteId, FunctionId>) {
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.add_edge(f(0), f(2), s(1), Dispatch::Direct);
        g.add_edge(f(1), f(3), s(2), Dispatch::Direct);
        g.add_edge(f(2), f(3), s(3), Dispatch::Direct);
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        let owners = HashMap::from([(s(0), f(0)), (s(1), f(0)), (s(2), f(1)), (s(3), f(2))]);
        (store, owners)
    }

    #[test]
    fn valid_diamond_is_clean() {
        let (store, owners) = diamond_store();
        let diags = verify_dicts(&store, &owners);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn wrong_owner_is_reported() {
        let (store, mut owners) = diamond_store();
        owners.insert(s(3), f(1));
        let diags = verify_dicts(&store, &owners);
        assert!(diags
            .iter()
            .any(|d| d.rule == "owner-consistent" && d.is_error()));
    }

    #[test]
    fn duplicated_encoding_yields_partition_error_with_witness() {
        // Hand-build a dictionary where both edges into f3 are encoded 0 —
        // the classic duplicated-weight corruption. numCC(f3) stays 2, so
        // id 0 is ambiguous.
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.add_edge(f(0), f(2), s(1), Dispatch::Direct);
        g.add_edge(f(1), f(3), s(2), Dispatch::Direct);
        g.add_edge(f(2), f(3), s(3), Dispatch::Direct);
        classify_back_edges(&mut g, &[f(0)]);
        let mut enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let dup = g.edge_id(s(3), f(3)).unwrap();
        enc.set_encoding(dup, 0);
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        let owners = HashMap::from([(s(0), f(0)), (s(1), f(0)), (s(2), f(1)), (s(3), f(2))]);
        let diags = verify_dicts(&store, &owners);
        let partition = diags
            .iter()
            .find(|d| d.rule == "encoding-partition")
            .expect("partition violation detected");
        assert!(partition.is_error());
        assert!(!partition.witness.is_empty(), "witness path expected");
        assert!(partition.witness[0].contains("f3"));
        assert!(
            diags.iter().any(|d| d.rule == "path-id-unique"),
            "path enumeration should also find the id collision: {diags:?}"
        );
    }

    #[test]
    fn missing_zero_encoding_is_a_warning() {
        // Single edge into f1 encoded 1 instead of 0: partition error and
        // hottest-zero warning.
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        classify_back_edges(&mut g, &[f(0)]);
        let mut enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let eid = g.edge_id(s(0), f(1)).unwrap();
        enc.set_encoding(eid, 1);
        enc.set_num_cc(g.local(f(1)).unwrap(), 2);
        enc.max_id = 1;
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        let owners = HashMap::from([(s(0), f(0))]);
        let diags = verify_dicts(&store, &owners);
        assert!(diags
            .iter()
            .any(|d| d.rule == "hottest-zero" && d.severity == Severity::Warning));
        assert!(diags.iter().any(|d| d.rule == "encoding-partition"));
        // Errors sort before warnings.
        assert!(diags[0].is_error());
    }

    #[test]
    fn wrong_max_id_breaks_unencoded_range() {
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.add_edge(f(0), f(1), s(1), Dispatch::Direct);
        classify_back_edges(&mut g, &[f(0)]);
        let mut enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        assert_eq!(enc.max_id, 1);
        enc.max_id = 7; // unencoded band shifted away from the encodable range
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        let owners = HashMap::from([(s(0), f(0)), (s(1), f(0))]);
        let diags = verify_dicts(&store, &owners);
        assert!(diags
            .iter()
            .any(|d| d.rule == "unencoded-range" && d.is_error()));
    }

    fn exported_engine_text() -> String {
        use dacce::{export_state, DacceConfig};
        use dacce_program::runtime::CallDispatch;
        use dacce_program::{CostModel, ThreadId};
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for i in 0..4u32 {
            let caller = if i == 0 { f(0) } else { f(i) };
            let _ = e.call(
                ThreadId::MAIN,
                s(i),
                caller,
                f(i + 1),
                CallDispatch::Direct,
                false,
            );
        }
        // An indirect site with two targets exercises poly records.
        let _ = e.call(
            ThreadId::MAIN,
            s(9),
            f(4),
            f(6),
            CallDispatch::Indirect,
            false,
        );
        let _ = e.ret(ThreadId::MAIN, s(9), f(4), f(6));
        let _ = e.call(
            ThreadId::MAIN,
            s(9),
            f(4),
            f(7),
            CallDispatch::Indirect,
            false,
        );
        export_state(&e)
    }

    #[test]
    fn dispatch_table_agreement_is_clean() {
        let text = exported_engine_text();
        let decoder = dacce::import(&text).expect("imports");
        assert!(
            !decoder.dispatch().is_empty(),
            "export must carry dispatch records"
        );
        let diags = verify_dispatch(&decoder);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn stale_dispatch_delta_is_detected() {
        let text = exported_engine_text();
        let mut done = false;
        let corrupted: String = text
            .lines()
            .map(|l| {
                if !done && l.starts_with("dispatch") && l.contains("enc:") {
                    done = true;
                    let pos = l.find("enc:").unwrap();
                    let rest = &l[pos + 4..];
                    let end = rest.find(' ').unwrap_or(rest.len());
                    let delta: u64 = rest[..end].parse().unwrap();
                    format!("{}enc:{}{}", &l[..pos], delta + 17, &rest[end..])
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(done, "export must contain an encoded dispatch record");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_dispatch(&decoder);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "dispatch-table" && d.is_error()),
            "stale delta must be reported: {diags:?}"
        );
    }

    #[test]
    fn shared_dispatch_slot_is_detected() {
        let text = exported_engine_text();
        // Rewrite every dispatch slot to 0 so distinct sites collide.
        let corrupted: String = text
            .lines()
            .map(|l| {
                if l.starts_with("dispatch") {
                    let mut parts: Vec<&str> = l.split(' ').collect();
                    parts[2] = "0";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_dispatch(&decoder);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "dispatch-table" && d.message.contains("shared by sites")),
            "slot collision must be reported: {diags:?}"
        );
    }

    fn degraded_engine_text() -> String {
        use dacce::{export_state, DacceConfig, FaultPlan};
        use dacce_program::runtime::CallDispatch;
        use dacce_program::{CostModel, ThreadId};
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
        // A diamond gives f3 two contexts, so maxID >= 1 exceeds the cap
        // and the first re-encode degrades; the extra edges afterwards
        // become degraded trap nodes.
        for &(site, caller, callee) in &[(0, 0, 1), (1, 1, 3), (2, 0, 2), (3, 2, 3)] {
            let _ = e.call(
                ThreadId::MAIN,
                s(site),
                f(caller),
                f(callee),
                CallDispatch::Direct,
                false,
            );
            let _ = e.ret(ThreadId::MAIN, s(site), f(caller), f(callee));
        }
        for i in 4..6u32 {
            let _ = e.call(
                ThreadId::MAIN,
                s(i),
                f(0),
                f(i),
                CallDispatch::Direct,
                false,
            );
            let _ = e.ret(ThreadId::MAIN, s(i), f(0), f(i));
        }
        let text = export_state(&e);
        assert!(
            text.lines().any(|l| l.starts_with("degraded ")),
            "run must actually degrade"
        );
        text
    }

    /// An export of a run whose dispatch-slot cap starved some sites: the
    /// latest dictionary has edges at sites without any record.
    fn slot_starved_engine_text() -> String {
        use dacce::{export_state, DacceConfig, FaultPlan};
        use dacce_program::runtime::CallDispatch;
        use dacce_program::{CostModel, ThreadId};
        let cfg = DacceConfig {
            edge_threshold: 4,
            min_events_between_reencodes: 1,
            fault: FaultPlan {
                dispatch_slot_cap: Some(2),
                ..FaultPlan::default()
            },
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(f(0));
        e.thread_start(ThreadId::MAIN, f(0), None);
        for round in 0..2 {
            for i in 0..4u32 {
                let dispatch = if i == 3 {
                    CallDispatch::Indirect
                } else {
                    CallDispatch::Direct
                };
                let callee = f(i + 1 + round * u32::from(i == 3));
                let _ = e.call(ThreadId::MAIN, s(i), f(0), callee, dispatch, false);
                let _ = e.ret(ThreadId::MAIN, s(i), f(0), callee);
            }
        }
        let text = export_state(&e);
        assert!(e.stats().reencodes >= 1, "run must re-encode");
        assert!(
            e.stats().degraded.slot_failures > 0,
            "cap must starve sites"
        );
        text
    }

    #[test]
    fn slot_starved_export_is_clean() {
        let decoder = dacce::import(&slot_starved_engine_text()).expect("imports");
        let records: std::collections::HashSet<CallSiteId> =
            decoder.dispatch().iter().map(|r| r.site).collect();
        let latest = decoder.dicts().latest().unwrap();
        assert!(
            latest.edges().iter().any(|e| !records.contains(&e.site)),
            "some dictionary edge must sit at a starved site"
        );
        let diags = verify_dispatch(&decoder);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn slot_starved_export_still_checks_compiled_sites() {
        // Retarget one compiled record: its dictionary edge now lacks a
        // record although the site has one, which no cap explains.
        let text = slot_starved_engine_text();
        let mut done = false;
        let corrupted: String = text
            .lines()
            .map(|l| {
                if !done && l.starts_with("dispatch") && l.contains("enc:") {
                    done = true;
                    let mut parts: Vec<&str> = l.split(' ').collect();
                    parts[4] = "4000";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(done, "export must contain an encoded dispatch record");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_dispatch(&decoder);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("has no compiled dispatch record")),
            "missing record at a compiled site must be reported: {diags:?}"
        );
    }

    #[test]
    fn consistent_degraded_state_is_clean() {
        let decoder = dacce::import(&degraded_engine_text()).expect("imports");
        assert!(decoder.degraded().active, "degraded state roundtrips");
        let diags = verify_degraded(&decoder);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn inactive_degraded_state_with_traps_is_reported() {
        // Flip the `active` flag off while trap nodes remain exported.
        let corrupted: String = degraded_engine_text()
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("degraded 1 ") {
                    format!("degraded 0 {rest}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_degraded(&decoder);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "degraded-state" && d.message.contains("not active")),
            "inactive-with-traps must be reported: {diags:?}"
        );
    }

    #[test]
    fn undercounted_degraded_traps_are_reported() {
        // Zero the degraded-trap counter while trap nodes remain.
        let corrupted: String = degraded_engine_text()
            .lines()
            .map(|l| {
                if l.starts_with("degraded ") {
                    let mut parts: Vec<&str> = l.split(' ').collect();
                    parts[2] = "0";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_degraded(&decoder);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "degraded-state" && d.message.contains("demoted")),
            "undercounted traps must be reported: {diags:?}"
        );
    }

    #[test]
    fn mismatched_spill_counters_are_reported() {
        // Events without a peak: peak is field 5 (0-indexed) after the rule
        // name — degraded <active> <traps> <retries> <spills> <peak> ...
        let corrupted: String = degraded_engine_text()
            .lines()
            .map(|l| {
                if l.starts_with("degraded ") {
                    let mut parts: Vec<&str> = l.split(' ').collect();
                    parts[4] = "3";
                    parts[5] = "0";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_degraded(&decoder);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "degraded-state" && d.message.contains("spill")),
            "spill-counter mismatch must be reported: {diags:?}"
        );
    }

    fn fleet_chain_def() -> dacce_fleet::ProgramDef {
        use dacce_fleet::DefEdge;
        dacce_fleet::ProgramDef {
            functions: vec!["main".into(), "a".into(), "b".into(), "c".into()],
            main: 0,
            call_sites: 3,
            edges: (0..3)
                .map(|d| DefEdge {
                    caller: d,
                    callee: d + 1,
                    site: d,
                    indirect: false,
                })
                .collect(),
            tail_fns: vec![],
            extra_roots: vec![],
        }
    }

    fn fleet_config() -> dacce::DacceConfig {
        dacce::DacceConfig {
            edge_threshold: 1,
            min_events_between_reencodes: 1,
            ..dacce::DacceConfig::default()
        }
    }

    /// The standalone twin of a fleet founder: same declarations, same warm
    /// seed, no lineage attached.
    fn standalone_twin(def: &dacce_fleet::ProgramDef) -> dacce::Tracker {
        let twin = dacce::Tracker::with_config(fleet_config());
        for name in &def.functions {
            let _ = twin.define_function(name);
        }
        for _ in 0..def.call_sites {
            let _ = twin.define_call_site();
        }
        let _ = twin.warm_start(def.main_fn(), &def.seed());
        twin
    }

    #[test]
    fn fleet_tenant_export_matches_standalone_twin() {
        use dacce::export_tracker_state;
        use dacce_fleet::Fleet;
        let def = fleet_chain_def();
        let fleet = Fleet::with_config(fleet_config());
        let _founder = fleet.register("svc-0", &def);
        let attached = fleet.register("svc-1", &def);
        let tenant = fleet.tracker(attached).expect("registered");

        let tenant_dec =
            dacce::import(&export_tracker_state(&tenant)).expect("tenant export imports");
        let twin_dec = dacce::import(&export_tracker_state(&standalone_twin(&def)))
            .expect("twin export imports");
        let diags = verify_fleet_twin(&tenant_dec, &twin_dec);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
        // The shared-lineage export also passes the full per-file audit.
        let own = verify_export(&tenant_dec);
        assert!(own.is_empty(), "tenant export unsound: {own:?}");
    }

    #[test]
    fn fleet_twin_flags_a_diverged_tenant() {
        use dacce::export_tracker_state;
        use dacce_fleet::Fleet;
        let def = fleet_chain_def();
        let fleet = Fleet::with_config(fleet_config());
        let _founder = fleet.register("svc-0", &def);
        let attached = fleet.register("svc-1", &def);
        let tenant = fleet.tracker(attached).expect("registered");

        // Diverge the tenant: discover an edge the twin never sees, then
        // let the fleet run the tenant's re-encode so the new edge freezes.
        let wild = tenant.define_function("wild");
        let wild_site = tenant.define_call_site();
        {
            let thread = tenant.register_thread(def.main_fn());
            drop(thread.call(wild_site, wild));
        }
        let _ = fleet.reencode(attached);
        fleet.poll();

        let tenant_dec =
            dacce::import(&export_tracker_state(&tenant)).expect("tenant export imports");
        let twin_dec = dacce::import(&export_tracker_state(&standalone_twin(&def)))
            .expect("twin export imports");
        let diags = verify_fleet_twin(&tenant_dec, &twin_dec);
        assert!(
            diags.iter().any(|d| d.rule == "fleet-twin" && d.is_error()),
            "diverged tenant must not pass the twin check: {diags:?}"
        );
    }

    /// Exports a tracker whose published snapshot carries a compiled
    /// superop (a nested two-call round plus a recursive self-call) so
    /// the superop lines sit next to the dispatch records they were
    /// compiled under.
    fn superop_tracker_text() -> String {
        use dacce::{export_tracker_state, BatchOp, Tracker};
        let tracker = Tracker::new();
        let main_fn = tracker.define_function("main");
        let a = tracker.define_function("a");
        let b = tracker.define_function("b");
        let sa = tracker.define_call_site();
        let sb = tracker.define_call_site();
        let th = tracker.register_thread(main_fn);
        th.run_batch(&[
            BatchOp::Call {
                site: sa,
                target: a,
            },
            BatchOp::Call {
                site: sb,
                target: b,
            },
            BatchOp::Ret,
            BatchOp::Ret,
        ])
        .expect("warm batch runs");
        let window = vec![
            WindowOp::Call {
                site: sa,
                target: a,
            },
            WindowOp::Call {
                site: sb,
                target: b,
            },
            WindowOp::Ret,
            WindowOp::Ret,
        ];
        assert_eq!(tracker.install_superops(&[window]), 1, "window compiles");
        export_tracker_state(&tracker)
    }

    #[test]
    fn superop_table_agreement_is_clean() {
        let text = superop_tracker_text();
        let decoder = dacce::import(&text).expect("imports");
        assert!(
            !decoder.superops().is_empty(),
            "export must carry superop records"
        );
        let diags = verify_superops(&decoder);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn tampered_superop_net_delta_is_detected() {
        let text = superop_tracker_text();
        // Bump the memoized call count of the first superop line: the
        // window still folds, but to different counters.
        let mut done = false;
        let corrupted: String = text
            .lines()
            .map(|l| {
                if !done && l.starts_with("superop ") {
                    done = true;
                    let mut parts: Vec<String> = l.split(' ').map(str::to_string).collect();
                    let calls: u64 = parts[1].parse().unwrap();
                    parts[1] = (calls + 7).to_string();
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(done, "export must contain a superop line");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_superops(&decoder);
        let hit = diags
            .iter()
            .find(|d| d.rule == "superop-net-effect" && d.is_error())
            .expect("tampered net delta must be reported");
        assert!(
            hit.message.contains("re-folds to"),
            "finding names the counter disagreement: {hit:?}"
        );
        assert!(
            hit.witness
                .iter()
                .any(|w| w.contains("c:") && w.contains('r')),
            "finding carries the witness window: {hit:?}"
        );
    }

    #[test]
    fn superop_over_unresolved_site_is_detected() {
        let text = superop_tracker_text();
        // Rewrite the first call token of the first superop window to a
        // site/target pair the dispatch table never compiled: the re-fold
        // must refuse, which on an exported record means the table is
        // stale relative to the dispatch state.
        let mut done = false;
        let corrupted: String = text
            .lines()
            .map(|l| {
                if !done && l.starts_with("superop ") {
                    done = true;
                    let mut parts: Vec<String> = l.split(' ').map(str::to_string).collect();
                    parts[5] = "c:97:97".to_string();
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(done, "export must contain a superop line");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_superops(&decoder);
        assert!(
            diags.iter().any(|d| d.rule == "superop-net-effect"
                && d.is_error()
                && d.message.contains("not compilable")),
            "stale superop must be reported: {diags:?}"
        );
    }

    #[test]
    fn unbalanced_superop_window_is_detected() {
        let text = superop_tracker_text();
        // Append an extra return to the first superop window: the fold
        // pops past the window's own calls, a refusal the runtime
        // compiler would never let through.
        let mut done = false;
        let corrupted: String = text
            .lines()
            .map(|l| {
                if !done && l.starts_with("superop ") {
                    done = true;
                    format!("{l} r")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(done, "export must contain a superop line");
        let decoder = dacce::import(&corrupted).expect("still imports");
        let diags = verify_superops(&decoder);
        assert!(
            diags.iter().any(|d| d.rule == "superop-net-effect"
                && d.is_error()
                && d.message.contains("not compilable")),
            "unbalanced window must be reported: {diags:?}"
        );
    }

    #[test]
    fn export_without_superops_has_no_superop_findings() {
        let text = exported_engine_text();
        let decoder = dacce::import(&text).expect("imports");
        assert!(decoder.superops().is_empty());
        assert!(verify_superops(&decoder).is_empty());
    }

    #[test]
    fn back_edges_are_exempt_from_partition() {
        let mut g = CallGraph::new();
        g.add_edge(f(0), f(1), s(0), Dispatch::Direct);
        g.add_edge(f(1), f(1), s(1), Dispatch::Direct); // self recursion
        classify_back_edges(&mut g, &[f(0)]);
        let enc = encode_graph(&g, &[f(0)], &EncodeOptions::default());
        let mut store = DictStore::new();
        store.push(DecodeDict::from_encoding(&g, &enc, TimeStamp::ZERO).unwrap());
        let owners = HashMap::from([(s(0), f(0)), (s(1), f(1))]);
        let diags = verify_dicts(&store, &owners);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    /// A hand-built two-fragment journal: the seam falls at op 3, where
    /// the replayed state is back to the entry state.
    fn fragment_journal(seam_id: u64) -> dacce::DecodeJournal {
        use dacce::{DecodeJournal, EncodedContext, JournalOp, JournalThread, SeamSeed};
        let entry = EncodedContext {
            ts: TimeStamp::ZERO,
            id: 0,
            leaf: f(0),
            root: f(0),
            cc: Vec::new(),
            spawn: None,
        };
        let seam_ctx = EncodedContext {
            id: seam_id,
            ..entry.clone()
        };
        DecodeJournal {
            threads: vec![JournalThread {
                tid: 0,
                entry,
                ops: vec![
                    JournalOp::CallArith {
                        site: s(0),
                        target: f(1),
                        delta: 5,
                    },
                    JournalOp::Sample,
                    JournalOp::RetArith {
                        caller: f(0),
                        delta: 5,
                    },
                    JournalOp::CallArith {
                        site: s(0),
                        target: f(1),
                        delta: 5,
                    },
                    JournalOp::Sample,
                    JournalOp::RetArith {
                        caller: f(0),
                        delta: 5,
                    },
                ],
                seams: vec![SeamSeed {
                    at: 3,
                    ctx: seam_ctx,
                }],
            }],
        }
    }

    #[test]
    fn clean_journal_has_no_fragment_findings() {
        let text = fragment_journal(0).to_text();
        let diags = verify_fragments(&text);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn corrupt_seam_seed_is_flagged() {
        let text = fragment_journal(99).to_text();
        let diags = verify_fragments(&text);
        assert!(!diags.is_empty(), "corrupt seed must be reported");
        for d in &diags {
            assert_eq!(d.rule, "fragment-seam");
            assert!(d.is_error());
        }
    }

    #[test]
    fn malformed_journal_is_flagged() {
        let diags = verify_fragments("not a journal");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "fragment-journal");
        assert!(diags[0].is_error());
    }
}
