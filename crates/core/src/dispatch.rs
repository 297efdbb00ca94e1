//! Dense, slot-indexed dispatch tables — the flattened fast path.
//!
//! The logical patch table ([`crate::patch::PatchTable`]) hashes
//! `CallSiteId -> SiteState`, which means every already-encoded call pays a
//! SipHash probe. This module compiles that table into flat vectors so the
//! steady-state `resolve()` is two bounds-checked array indexes:
//!
//! * `slots[site.index()]` maps the (dense) call-site id space to compact
//!   `u32` slots. A slot is allocated the first time a site is compiled
//!   (trap-time discovery or a re-encoding rebuild) and is **stable across
//!   generations** — re-encodings recompile the records in place, so
//!   per-thread structures keyed by slot (the indirect-call inline cache)
//!   stay meaningful.
//! * `sites[slot]` holds one [`CompiledSite`] record: the dispatch kind,
//!   the resolved action for monomorphic sites, and the TcStack-wrap flag,
//!   packed into one cache-friendly record.
//! * `poly[index]` stores the compare chain / hash table of polymorphic
//!   (indirect) sites out of line, so the common monomorphic record stays
//!   small.
//!
//! Like the patch table, the compiled table is copy-on-write `Arc`s: the
//! slow path recompiles affected records under the shared lock (cloning a
//! vector only when a published snapshot still shares it) and snapshots
//! hand read-only clones to reader threads in O(1).

use std::sync::Arc;

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::CostModel;

use crate::patch::{EdgeAction, IndirectPatch, PatchTable, SitePatch, SiteState};
use crate::shared::ResolvedSite;

/// Sentinel for an unallocated slot. `NO_SLOT as usize` is far beyond any
/// real `sites` length, so `resolve` needs no explicit sentinel branch —
/// the bounds check rejects it.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Dispatch kind of one compiled site record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CompiledDispatch {
    /// The site still traps (slot allocated, nothing compiled yet).
    Trap,
    /// Monomorphic: a single known target and its action, resolved with one
    /// compare.
    Mono {
        /// The only known callee.
        target: FunctionId,
        /// The action the generated code executes for it.
        action: EdgeAction,
    },
    /// Polymorphic (indirect site): targets dispatch through
    /// `poly[index]`'s compare chain / hash table.
    Poly {
        /// Index into the out-of-line polymorphic table.
        index: u32,
    },
}

/// One site's compiled record: everything `resolve` needs in one read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CompiledSite {
    /// How the site dispatches.
    pub(crate) dispatch: CompiledDispatch,
    /// §5.2: the site wraps its frames with a TcStack save/restore.
    pub(crate) tc_wrap: bool,
}

impl CompiledSite {
    /// The state of a freshly allocated slot.
    pub(crate) const TRAP: CompiledSite = CompiledSite {
        dispatch: CompiledDispatch::Trap,
        tc_wrap: false,
    };
}

/// The compiled, slot-indexed view of the patch table.
#[derive(Clone, Debug, Default)]
pub(crate) struct DispatchTable {
    /// `site.index() -> slot` ([`NO_SLOT`] when unallocated).
    slots: Arc<Vec<u32>>,
    /// `slot -> compiled record`.
    sites: Arc<Vec<CompiledSite>>,
    /// Out-of-line dispatch state of polymorphic sites.
    poly: Arc<Vec<IndirectPatch>>,
    /// Injected slot-allocation cap (fault injection); `None` = unbounded.
    slot_cap: Option<u32>,
    /// Allocation requests the cap refused. A refused site stays
    /// un-compiled and traps on every call — sound, just slow.
    slot_failures: u64,
}

/// Compiles one site's logical patch state; `poly_index` places an
/// indirect site's patch in the poly table and returns its index.
fn compile(state: &SiteState, poly_index: impl FnOnce(&IndirectPatch) -> u32) -> CompiledSite {
    let dispatch = match &state.patch {
        SitePatch::Trap => CompiledDispatch::Trap,
        SitePatch::Direct(target, action) => CompiledDispatch::Mono {
            target: *target,
            action: *action,
        },
        SitePatch::Indirect(p) => CompiledDispatch::Poly {
            index: poly_index(p),
        },
    };
    CompiledSite {
        dispatch,
        tc_wrap: state.tc_wrap,
    }
}

/// Appends `p` to the poly table and returns its index.
fn push_poly(poly: &mut Vec<IndirectPatch>, p: &IndirectPatch) -> u32 {
    poly.push(p.clone());
    u32::try_from(poly.len() - 1).expect("poly count fits in u32")
}

impl DispatchTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Arms the injected slot-allocation cap.
    pub(crate) fn set_slot_cap(&mut self, cap: Option<u32>) {
        self.slot_cap = cap;
    }

    /// Allocation requests refused by the injected cap so far.
    pub(crate) fn slot_failures(&self) -> u64 {
        self.slot_failures
    }

    /// The slot assigned to `site`, allocating one on first touch. Clones
    /// the underlying vectors iff a snapshot still shares them. `None`
    /// when the injected cap refused the allocation — the site then has
    /// no compiled record and keeps trapping.
    fn ensure_slot(&mut self, site: CallSiteId) -> Option<u32> {
        let idx = site.index();
        if self.slots.get(idx).copied().unwrap_or(NO_SLOT) == NO_SLOT {
            if let Some(cap) = self.slot_cap {
                if self.sites.len() as u64 >= u64::from(cap) {
                    self.slot_failures += 1;
                    return None;
                }
            }
        }
        let slots = Arc::make_mut(&mut self.slots);
        if idx >= slots.len() {
            slots.resize(idx + 1, NO_SLOT);
        }
        if slots[idx] == NO_SLOT {
            let sites = Arc::make_mut(&mut self.sites);
            let slot = u32::try_from(sites.len()).expect("slot count fits in u32");
            sites.push(CompiledSite::TRAP);
            slots[idx] = slot;
        }
        Some(slots[idx])
    }

    /// Recompiles one site's record from its logical patch state. Called
    /// from the trap slow path after the patch table changed; keeps the
    /// compiled table in lock step without a full rebuild. Returns
    /// `false` when the injected slot cap refused the site a record.
    pub(crate) fn sync_site(&mut self, site: CallSiteId, state: &SiteState) -> bool {
        let Some(slot) = self.ensure_slot(site) else {
            return false;
        };
        let slot = slot as usize;
        let old = self.sites[slot].dispatch;
        let compiled = compile(state, |p| {
            // Reuse the slot's existing poly entry when it has one; a site
            // flipping from Mono to Poly allocates a fresh one (any orphan
            // is reclaimed by the next full rebuild).
            let poly = Arc::make_mut(&mut self.poly);
            match old {
                CompiledDispatch::Poly { index } => {
                    poly[index as usize] = p.clone();
                    index
                }
                _ => push_poly(poly, p),
            }
        });
        Arc::make_mut(&mut self.sites)[slot] = compiled;
        true
    }

    /// Recompiles the whole table from the logical patch table (after a
    /// re-encoding or warm start regenerated every site). Existing slot
    /// assignments are preserved — slots are stable across generations —
    /// sites without a slot get one in ascending site order, and orphaned
    /// poly entries are dropped.
    pub(crate) fn rebuild(&mut self, patches: &PatchTable) {
        let mut slots: Vec<u32> = self.slots.as_ref().clone();
        let mut sites: Vec<CompiledSite> = vec![CompiledSite::TRAP; self.sites.len()];
        let mut poly: Vec<IndirectPatch> = Vec::new();
        for (site, state) in patches.iter() {
            let idx = site.index();
            if idx >= slots.len() {
                slots.resize(idx + 1, NO_SLOT);
            }
            if slots[idx] == NO_SLOT {
                if let Some(cap) = self.slot_cap {
                    if sites.len() as u64 >= u64::from(cap) {
                        self.slot_failures += 1;
                        continue;
                    }
                }
                slots[idx] = u32::try_from(sites.len()).expect("slot count fits in u32");
                sites.push(CompiledSite::TRAP);
            }
            sites[slots[idx] as usize] = compile(state, |p| push_poly(&mut poly, p));
        }
        self.slots = Arc::new(slots);
        self.sites = Arc::new(sites);
        self.poly = Arc::new(poly);
    }

    /// The compiled record of `site` plus its slot, or `None` when the
    /// site never compiled. This is the first half of [`Self::resolve`],
    /// split out so callers with a per-thread inline cache can intercept
    /// the polymorphic case.
    #[inline]
    pub(crate) fn entry(&self, site: CallSiteId) -> Option<(u32, CompiledSite)> {
        let slot = *self.slots.get(site.index())?;
        let cs = *self.sites.get(slot as usize)?;
        Some((slot, cs))
    }

    /// Resolves a known target of polymorphic record `index` through its
    /// compare chain / hash table, charging the modelled dispatch cost.
    #[inline]
    pub(crate) fn poly_resolve(
        &self,
        index: u32,
        callee: FunctionId,
        cost: &CostModel,
        tc_wrap: bool,
    ) -> Option<ResolvedSite> {
        let (action, cmps, hashed) = self.poly[index as usize].lookup(callee)?;
        let dispatch_cost = if hashed {
            cost.hash_lookup
        } else {
            u64::from(cmps) * cost.compare
        };
        Some(ResolvedSite {
            action,
            dispatch_cost,
            tc_wrap,
        })
    }

    /// Resolves `(site, callee)`: two bounds-checked array indexes plus one
    /// compare for monomorphic sites; the poly fallback for indirect ones.
    /// `None` means the site (or this target) traps.
    #[inline]
    pub(crate) fn resolve(
        &self,
        site: CallSiteId,
        callee: FunctionId,
        cost: &CostModel,
    ) -> Option<ResolvedSite> {
        let slot = *self.slots.get(site.index())?;
        let cs = self.sites.get(slot as usize)?;
        match cs.dispatch {
            CompiledDispatch::Trap => None,
            CompiledDispatch::Mono { target, action } => {
                (target == callee).then_some(ResolvedSite {
                    action,
                    dispatch_cost: 0,
                    tc_wrap: cs.tc_wrap,
                })
            }
            CompiledDispatch::Poly { index } => self.poly_resolve(index, callee, cost, cs.tc_wrap),
        }
    }

    /// `(allocated slots, site-id span)`: how many compiled records exist
    /// versus the dense index space the slot vector covers. The ratio is
    /// the dispatch-table occupancy surfaced through the obs layer.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        (self.sites.len() as u64, self.slots.len() as u64)
    }

    /// Iterates every allocated `(site, slot, record)` in site order.
    pub(crate) fn iter_compiled(
        &self,
    ) -> impl Iterator<Item = (CallSiteId, u32, &CompiledSite)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(idx, &slot)| {
                if slot == NO_SLOT {
                    return None;
                }
                let cs = &self.sites[slot as usize];
                Some((CallSiteId::new(idx as u32), slot, cs))
            })
    }

    /// The out-of-line state of polymorphic record `index`.
    pub(crate) fn poly_patch(&self, index: u32) -> &IndirectPatch {
        &self.poly[index as usize]
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
    fn cost() -> CostModel {
        CostModel::default()
    }

    fn direct_state(target: FunctionId, action: EdgeAction) -> SiteState {
        SiteState {
            tc_wrap: false,
            patch: SitePatch::Direct(target, action),
        }
    }

    #[test]
    fn unknown_sites_resolve_to_none() {
        let t = DispatchTable::new();
        assert!(t.resolve(s(3), f(1), &cost()).is_none());
        assert!(t.entry(s(3)).is_none());
        assert_eq!(t.occupancy(), (0, 0));
    }

    #[test]
    fn mono_site_resolves_with_zero_dispatch_cost() {
        let mut t = DispatchTable::new();
        t.sync_site(s(5), &direct_state(f(2), EdgeAction::Encoded { delta: 7 }));
        let r = t.resolve(s(5), f(2), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 7 });
        assert_eq!(r.dispatch_cost, 0);
        assert!(!r.tc_wrap);
        assert!(
            t.resolve(s(5), f(3), &cost()).is_none(),
            "wrong target traps"
        );
        assert_eq!(t.occupancy(), (1, 6), "one slot over a span of 6 ids");
    }

    #[test]
    fn slots_are_stable_across_rebuilds() {
        let mut t = DispatchTable::new();
        t.sync_site(s(9), &direct_state(f(1), EdgeAction::Unencoded));
        t.sync_site(s(2), &direct_state(f(4), EdgeAction::Unencoded));
        let slot9 = t.entry(s(9)).unwrap().0;
        let slot2 = t.entry(s(2)).unwrap().0;
        assert_ne!(slot9, slot2);

        let mut patches = PatchTable::new();
        patches.site_mut(s(9)).patch = SitePatch::Direct(f(1), EdgeAction::Encoded { delta: 3 });
        patches.site_mut(s(2)).patch = SitePatch::Direct(f(4), EdgeAction::Encoded { delta: 1 });
        t.rebuild(&patches);
        assert_eq!(t.entry(s(9)).unwrap().0, slot9, "slot survives rebuild");
        assert_eq!(t.entry(s(2)).unwrap().0, slot2);
        let r = t.resolve(s(9), f(1), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 3 });
    }

    #[test]
    fn poly_sites_charge_chain_and_hash_costs() {
        let mut p = IndirectPatch::default();
        p.add_target(f(1), EdgeAction::Encoded { delta: 0 }, 4);
        p.add_target(f(2), EdgeAction::Encoded { delta: 5 }, 4);
        let state = SiteState {
            tc_wrap: true,
            patch: SitePatch::Indirect(p),
        };
        let mut t = DispatchTable::new();
        t.sync_site(s(0), &state);
        let r = t.resolve(s(0), f(2), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 5 });
        assert_eq!(r.dispatch_cost, 2 * cost().compare);
        assert!(r.tc_wrap);
        assert!(
            t.resolve(s(0), f(9), &cost()).is_none(),
            "unknown target traps"
        );

        // Past the inline threshold the chain converts to a hash.
        let mut p = IndirectPatch::default();
        for i in 0..5 {
            p.add_target(f(i), EdgeAction::Unencoded, 3);
        }
        t.sync_site(
            s(0),
            &SiteState {
                tc_wrap: false,
                patch: SitePatch::Indirect(p),
            },
        );
        let r = t.resolve(s(0), f(4), &cost()).unwrap();
        assert_eq!(r.dispatch_cost, cost().hash_lookup);
    }

    #[test]
    fn sync_reuses_poly_entry_and_rebuild_drops_orphans() {
        let mut p = IndirectPatch::default();
        p.add_target(f(1), EdgeAction::Unencoded, 4);
        let mut t = DispatchTable::new();
        t.sync_site(
            s(0),
            &SiteState {
                tc_wrap: false,
                patch: SitePatch::Indirect(p.clone()),
            },
        );
        let (_, cs) = t.entry(s(0)).unwrap();
        let CompiledDispatch::Poly { index } = cs.dispatch else {
            panic!("expected poly record");
        };
        // A second sync with more targets reuses the same entry.
        p.add_target(f(2), EdgeAction::Unencoded, 4);
        t.sync_site(
            s(0),
            &SiteState {
                tc_wrap: false,
                patch: SitePatch::Indirect(p),
            },
        );
        let (_, cs) = t.entry(s(0)).unwrap();
        assert_eq!(cs.dispatch, CompiledDispatch::Poly { index });
        assert_eq!(t.poly_patch(index).target_count(), 2);

        // Flipping to direct leaves an orphan; a rebuild reclaims it.
        t.sync_site(s(0), &direct_state(f(1), EdgeAction::Unencoded));
        let mut patches = PatchTable::new();
        patches.site_mut(s(0)).patch = SitePatch::Direct(f(1), EdgeAction::Unencoded);
        t.rebuild(&patches);
        assert_eq!(t.poly.len(), 0, "rebuild drops orphaned poly entries");
    }

    #[test]
    fn copy_on_write_isolates_snapshots() {
        let mut t = DispatchTable::new();
        t.sync_site(s(1), &direct_state(f(1), EdgeAction::Encoded { delta: 2 }));
        let snapshot = t.clone();
        t.sync_site(s(1), &direct_state(f(1), EdgeAction::Encoded { delta: 9 }));
        t.sync_site(s(7), &direct_state(f(3), EdgeAction::Unencoded));
        let r = snapshot.resolve(s(1), f(1), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 2 });
        assert!(snapshot.entry(s(7)).is_none());
    }

    #[test]
    fn slot_cap_starves_late_sites_but_keeps_early_ones() {
        let mut t = DispatchTable::new();
        t.set_slot_cap(Some(2));
        assert!(t.sync_site(s(0), &direct_state(f(1), EdgeAction::Unencoded)));
        assert!(t.sync_site(s(1), &direct_state(f(2), EdgeAction::Unencoded)));
        // Third distinct site is refused a slot; re-syncing an existing
        // site still works.
        assert!(!t.sync_site(s(2), &direct_state(f(3), EdgeAction::Unencoded)));
        assert!(t.sync_site(s(0), &direct_state(f(1), EdgeAction::Encoded { delta: 4 })));
        assert_eq!(t.slot_failures(), 1);
        assert!(t.entry(s(2)).is_none(), "starved site has no record");
        assert!(t.resolve(s(2), f(3), &cost()).is_none(), "starved = trap");
        let r = t.resolve(s(0), f(1), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 4 });

        // A rebuild preserves the starvation and counts refusals.
        let mut patches = PatchTable::new();
        patches.site_mut(s(0)).patch = SitePatch::Direct(f(1), EdgeAction::Encoded { delta: 9 });
        patches.site_mut(s(1)).patch = SitePatch::Direct(f(2), EdgeAction::Unencoded);
        patches.site_mut(s(2)).patch = SitePatch::Direct(f(3), EdgeAction::Unencoded);
        t.rebuild(&patches);
        assert!(t.entry(s(2)).is_none());
        assert_eq!(t.slot_failures(), 2);
        assert_eq!(t.occupancy().0, 2);
    }

    #[test]
    fn iter_compiled_walks_sites_in_order() {
        let mut t = DispatchTable::new();
        t.sync_site(s(4), &direct_state(f(1), EdgeAction::Unencoded));
        t.sync_site(s(1), &direct_state(f(2), EdgeAction::Unencoded));
        let sites: Vec<CallSiteId> = t.iter_compiled().map(|(site, _, _)| site).collect();
        assert_eq!(sites, vec![s(1), s(4)]);
    }
}
