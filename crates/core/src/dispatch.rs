//! The dispatch table: the one record of what every call site's generated
//! code runs.
//!
//! DACCE patches each call site in place (§3): the code at a site *is* its
//! state. This module holds that code as data, slot-indexed so the
//! steady-state `resolve()` is two bounds-checked array indexes:
//!
//! * `slots[site.index()]` maps the (dense) call-site id space to compact
//!   `u32` slots. A slot is allocated the first time a site is patched
//!   (trap-time discovery or a re-encoding) and is **stable across
//!   generations** — a re-encoding rewrites the records in place, so
//!   per-thread structures keyed by slot (the indirect-call inline cache)
//!   stay meaningful.
//! * `sites[slot]` holds one [`CompiledSite`] record: the dispatch kind,
//!   the action for monomorphic sites, and the TcStack-wrap flag, packed
//!   into one cache-friendly record.
//! * `poly[index]` stores the compare chain / hash table of polymorphic
//!   (indirect) sites out of line, so the common monomorphic record stays
//!   small.
//!
//! The trap handler patches one record ([`DispatchTable::patch`]); a
//! re-encoding writes every record of a fresh table
//! ([`DispatchTable::regenerated`], [`DispatchTable::put`]). A site the
//! injected slot cap refuses a slot keeps a lock-only *starved* record
//! that `resolve` never sees — it traps on every call — but that the trap
//! handler, the re-encoding and the triggers read and patch like any
//! other.
//!
//! Every part is a copy-on-write `Arc`: the slow path patches records
//! under the shared lock (cloning a vector only when a published snapshot
//! still shares it) and snapshots hand read-only clones to reader threads
//! in O(1).

use std::collections::HashMap;
use std::sync::Arc;

use dacce_callgraph::{CallSiteId, FunctionId};
use dacce_program::CostModel;

use crate::patch::{EdgeAction, IndirectPatch};
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

/// What one trap-time patch left at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Patched {
    /// The site's TcStack-wrap flag after the patch.
    pub(crate) tc_wrap: bool,
    /// Known targets at the site (1 for a monomorphic site).
    pub(crate) targets: u32,
    /// The patch converted an indirect site's compare chain to a hash.
    pub(crate) converted: bool,
}

/// The slot-indexed table of every call site's generated code.
#[derive(Clone, Debug, Default)]
pub(crate) struct DispatchTable {
    /// `site.index() -> slot` ([`NO_SLOT`] when unallocated).
    slots: Arc<Vec<u32>>,
    /// `slot -> compiled record`.
    sites: Arc<Vec<CompiledSite>>,
    /// Out-of-line dispatch state of polymorphic sites (starved ones too).
    poly: Arc<Vec<IndirectPatch>>,
    /// Injected slot-allocation cap (fault injection); `None` = unbounded.
    slot_cap: Option<u32>,
    /// Allocation requests the cap refused, one per touch of a starved
    /// site.
    slot_failures: u64,
    /// Records of the sites the cap refused a slot. `resolve` never reads
    /// them, so such a site traps on every call — sound, just slow.
    starved: Arc<HashMap<CallSiteId, CompiledSite>>,
}

impl DispatchTable {
    /// Arms the injected slot-allocation cap.
    pub(crate) fn set_slot_cap(&mut self, cap: Option<u32>) {
        self.slot_cap = cap;
    }

    /// Allocation requests refused by the injected cap so far.
    pub(crate) fn slot_failures(&self) -> u64 {
        self.slot_failures
    }

    /// `site`'s record for patching, next to the poly table: its slot's
    /// record (a trap record in a new slot on first touch), or its starved
    /// record when the cap refuses it a slot (each refusal counts). Clones
    /// a vector iff a snapshot still shares it.
    fn record_mut(
        &mut self,
        site: CallSiteId,
    ) -> (&mut CompiledSite, &mut Arc<Vec<IndirectPatch>>) {
        let idx = site.index();
        let mut slot = self.slots.get(idx).copied().unwrap_or(NO_SLOT);
        if slot == NO_SLOT {
            if self
                .slot_cap
                .is_some_and(|cap| self.sites.len() as u64 >= u64::from(cap))
            {
                self.slot_failures += 1;
                let starved = Arc::make_mut(&mut self.starved);
                return (
                    starved.entry(site).or_insert(CompiledSite::TRAP),
                    &mut self.poly,
                );
            }
            // A site starved under an adopted table's cap keeps its record.
            let mut rec = CompiledSite::TRAP;
            if self.starved.contains_key(&site) {
                rec = Arc::make_mut(&mut self.starved)
                    .remove(&site)
                    .unwrap_or(rec);
            }
            let sites = Arc::make_mut(&mut self.sites);
            slot = u32::try_from(sites.len()).expect("slot count fits in u32");
            sites.push(rec);
            let slots = Arc::make_mut(&mut self.slots);
            if idx >= slots.len() {
                slots.resize(idx + 1, NO_SLOT);
            }
            slots[idx] = slot;
        }
        (
            &mut Arc::make_mut(&mut self.sites)[slot as usize],
            &mut self.poly,
        )
    }

    /// The trap handler's patch (§3): `site` now runs `action` for
    /// `callee`, directly or — for an `indirect` site — as one more target
    /// of its compare chain (a hash table past `inline_max` targets).
    /// `tc_wrap` only ever sets the site's wrap flag.
    pub(crate) fn patch(
        &mut self,
        site: CallSiteId,
        callee: FunctionId,
        action: EdgeAction,
        indirect: bool,
        tc_wrap: bool,
        inline_max: usize,
    ) -> Patched {
        let (rec, poly) = self.record_mut(site);
        rec.tc_wrap |= tc_wrap;
        let mut out = Patched {
            tc_wrap: rec.tc_wrap,
            targets: 1,
            converted: false,
        };
        if indirect {
            let poly = Arc::make_mut(poly);
            let index = match rec.dispatch {
                CompiledDispatch::Poly { index } => index,
                // A site turning polymorphic takes a fresh entry; the next
                // re-encoding drops any orphan.
                _ => push_poly(poly, IndirectPatch::default()),
            };
            let p = &mut poly[index as usize];
            let before = p.hashed.is_some();
            p.add_target(callee, action, inline_max);
            out.converted = !before && p.hashed.is_some();
            out.targets = p.target_count() as u32;
            rec.dispatch = CompiledDispatch::Poly { index };
        } else {
            rec.dispatch = CompiledDispatch::Mono {
                target: callee,
                action,
            };
        }
        out
    }

    /// Sets the TcStack-wrap flag of `site` if it has a record.
    pub(crate) fn wrap(&mut self, site: CallSiteId) {
        if self.record(site).is_some() {
            self.record_mut(site).0.tc_wrap = true;
        }
    }

    /// A table for a re-encoding to fill with [`Self::put`]: the same
    /// slots, cap and refusal count, every slot back to a trap record, and
    /// no poly or starved records (orphaned poly entries are dropped).
    pub(crate) fn regenerated(&self) -> Self {
        DispatchTable {
            sites: Arc::new(vec![CompiledSite::TRAP; self.sites.len()]),
            poly: Arc::default(),
            starved: Arc::default(),
            ..self.clone()
        }
    }

    /// Moves `p` into the poly table; the returned dispatch refers to it.
    pub(crate) fn push_poly(&mut self, p: IndirectPatch) -> CompiledDispatch {
        CompiledDispatch::Poly {
            index: push_poly(Arc::make_mut(&mut self.poly), p),
        }
    }

    /// Writes `site`'s record. Sites without a slot get one in call order
    /// (a re-encoding puts in ascending site order), unless the cap
    /// starves them.
    pub(crate) fn put(&mut self, site: CallSiteId, record: CompiledSite) {
        let idx = site.index();
        if idx >= self.slots.len() {
            // The slot vector spans every site written, starved ones too.
            Arc::make_mut(&mut self.slots).resize(idx + 1, NO_SLOT);
        }
        *self.record_mut(site).0 = record;
    }

    /// `site`'s record, starved or not: what its generated code runs.
    fn record(&self, site: CallSiteId) -> Option<CompiledSite> {
        self.entry(site)
            .map(|(_, cs)| cs)
            .or_else(|| self.starved.get(&site).copied())
    }

    /// The action `site` runs for `callee`, starved sites included; `None`
    /// when it traps to discover `callee`.
    pub(crate) fn action(&self, site: CallSiteId, callee: FunctionId) -> Option<EdgeAction> {
        match self.record(site)?.dispatch {
            CompiledDispatch::Trap => None,
            CompiledDispatch::Mono { target, action } => (target == callee).then_some(action),
            CompiledDispatch::Poly { index } => {
                self.poly[index as usize].lookup(callee).map(|(a, _, _)| a)
            }
        }
    }

    /// True when `site` dispatches through a hash table, starved sites
    /// included.
    pub(crate) fn hashes(&self, site: CallSiteId) -> bool {
        matches!(
            self.record(site).map(|r| r.dispatch),
            Some(CompiledDispatch::Poly { index }) if self.poly[index as usize].hashed.is_some()
        )
    }

    /// The sites the cap starved of a slot.
    pub(crate) fn starved(&self) -> impl Iterator<Item = CallSiteId> + '_ {
        self.starved.keys().copied()
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

/// Appends `p` to the poly table and returns its index.
fn push_poly(poly: &mut Vec<IndirectPatch>, p: IndirectPatch) -> u32 {
    poly.push(p);
    u32::try_from(poly.len() - 1).expect("poly count fits in u32")
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

    /// A trap-time patch of a direct site.
    fn direct(t: &mut DispatchTable, site: u32, target: u32, action: EdgeAction) -> Patched {
        t.patch(s(site), f(target), action, false, false, 4)
    }

    /// A re-encoding of `t` writing one monomorphic record per entry.
    fn regenerate(t: &DispatchTable, records: &[(u32, u32, EdgeAction)]) -> DispatchTable {
        let mut next = t.regenerated();
        for &(site, target, action) in records {
            let dispatch = CompiledDispatch::Mono {
                target: f(target),
                action,
            };
            next.put(
                s(site),
                CompiledSite {
                    dispatch,
                    tc_wrap: false,
                },
            );
        }
        next
    }

    #[test]
    fn unknown_sites_resolve_to_none() {
        let t = DispatchTable::default();
        assert!(t.resolve(s(3), f(1), &cost()).is_none());
        assert!(t.entry(s(3)).is_none());
        assert_eq!(t.occupancy(), (0, 0));
    }

    #[test]
    fn mono_site_resolves_with_zero_dispatch_cost() {
        let mut t = DispatchTable::default();
        let patched = direct(&mut t, 5, 2, EdgeAction::Encoded { delta: 7 });
        assert_eq!(patched.targets, 1);
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
    fn slots_are_stable_across_regenerations() {
        let mut t = DispatchTable::default();
        direct(&mut t, 9, 1, EdgeAction::Unencoded);
        direct(&mut t, 2, 4, EdgeAction::Unencoded);
        let slot9 = t.entry(s(9)).unwrap().0;
        let slot2 = t.entry(s(2)).unwrap().0;
        assert_ne!(slot9, slot2);

        let t = regenerate(
            &t,
            &[
                (2, 4, EdgeAction::Encoded { delta: 1 }),
                (9, 1, EdgeAction::Encoded { delta: 3 }),
            ],
        );
        assert_eq!(t.entry(s(9)).unwrap().0, slot9, "slot survives");
        assert_eq!(t.entry(s(2)).unwrap().0, slot2);
        let r = t.resolve(s(9), f(1), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 3 });
    }

    #[test]
    fn poly_sites_charge_chain_and_hash_costs() {
        let mut t = DispatchTable::default();
        t.patch(s(0), f(1), EdgeAction::Encoded { delta: 0 }, true, true, 4);
        let patched = t.patch(s(0), f(2), EdgeAction::Encoded { delta: 5 }, true, false, 4);
        assert_eq!(patched.targets, 2);
        assert!(patched.tc_wrap, "the wrap flag only ever sets");
        let r = t.resolve(s(0), f(2), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 5 });
        assert_eq!(r.dispatch_cost, 2 * cost().compare);
        assert!(r.tc_wrap);
        assert!(
            t.resolve(s(0), f(9), &cost()).is_none(),
            "unknown target traps"
        );

        // Past the inline threshold the chain converts to a hash, once.
        let converted: Vec<bool> = (0..5)
            .map(|i| {
                t.patch(s(1), f(i), EdgeAction::Unencoded, true, false, 3)
                    .converted
            })
            .collect();
        assert_eq!(converted, [false, false, false, true, false]);
        assert!(t.hashes(s(1)) && !t.hashes(s(0)));
        let r = t.resolve(s(1), f(4), &cost()).unwrap();
        assert_eq!(r.dispatch_cost, cost().hash_lookup);
    }

    #[test]
    fn patch_reuses_poly_entry_and_regeneration_drops_orphans() {
        let mut t = DispatchTable::default();
        t.patch(s(0), f(1), EdgeAction::Unencoded, true, false, 4);
        let (_, cs) = t.entry(s(0)).unwrap();
        let CompiledDispatch::Poly { index } = cs.dispatch else {
            panic!("expected poly record");
        };
        // A second target joins the same entry.
        t.patch(s(0), f(2), EdgeAction::Unencoded, true, false, 4);
        let (_, cs) = t.entry(s(0)).unwrap();
        assert_eq!(cs.dispatch, CompiledDispatch::Poly { index });
        assert_eq!(t.poly_patch(index).target_count(), 2);

        // Flipping to direct leaves an orphan; a re-encoding drops it.
        direct(&mut t, 0, 1, EdgeAction::Unencoded);
        assert_eq!(t.poly.len(), 1);
        let t = regenerate(&t, &[(0, 1, EdgeAction::Unencoded)]);
        assert_eq!(t.poly.len(), 0, "regeneration drops orphaned poly entries");
    }

    #[test]
    fn copy_on_write_isolates_snapshots() {
        let mut t = DispatchTable::default();
        direct(&mut t, 1, 1, EdgeAction::Encoded { delta: 2 });
        let snapshot = t.clone();
        direct(&mut t, 1, 1, EdgeAction::Encoded { delta: 9 });
        direct(&mut t, 7, 3, EdgeAction::Unencoded);
        t.wrap(s(1));
        let r = snapshot.resolve(s(1), f(1), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 2 });
        assert!(!r.tc_wrap);
        assert!(snapshot.entry(s(7)).is_none());
        assert!(t.resolve(s(1), f(1), &cost()).unwrap().tc_wrap);
    }

    #[test]
    fn wrap_touches_only_sites_with_records() {
        let mut t = DispatchTable::default();
        t.wrap(s(3));
        assert!(t.entry(s(3)).is_none(), "wrap never allocates");
        assert_eq!(t.occupancy(), (0, 0));
    }

    #[test]
    fn slot_cap_starves_late_sites_but_keeps_patching_them() {
        let mut t = DispatchTable::default();
        t.set_slot_cap(Some(2));
        direct(&mut t, 0, 1, EdgeAction::Unencoded);
        direct(&mut t, 1, 2, EdgeAction::Unencoded);
        // The third distinct site is refused a slot; re-patching an
        // existing site still works.
        t.patch(s(2), f(3), EdgeAction::Unencoded, true, false, 1);
        direct(&mut t, 0, 1, EdgeAction::Encoded { delta: 4 });
        assert_eq!(t.slot_failures(), 1);
        assert!(t.entry(s(2)).is_none(), "starved site has no slot");
        assert!(t.resolve(s(2), f(3), &cost()).is_none(), "starved = trap");
        let r = t.resolve(s(0), f(1), &cost()).unwrap();
        assert_eq!(r.action, EdgeAction::Encoded { delta: 4 });

        // Its starved record keeps every patch: each touch is a refusal.
        let patched = t.patch(s(2), f(4), EdgeAction::Unencoded, true, true, 1);
        assert_eq!((patched.targets, patched.tc_wrap), (2, true));
        assert!(patched.converted && t.hashes(s(2)));
        t.wrap(s(2));
        assert_eq!(t.slot_failures(), 3);
        assert_eq!(t.action(s(2), f(4)), Some(EdgeAction::Unencoded));
        assert_eq!(t.starved().collect::<Vec<_>>(), [s(2)]);

        // A re-encoding keeps the starvation, counts the refusal and
        // still sizes the slot vector to the starved site.
        let t = regenerate(
            &t,
            &[
                (0, 1, EdgeAction::Encoded { delta: 9 }),
                (1, 2, EdgeAction::Unencoded),
                (5, 3, EdgeAction::Encoded { delta: 1 }),
            ],
        );
        assert!(t.entry(s(5)).is_none());
        assert_eq!(t.slot_failures(), 4);
        assert_eq!(t.occupancy(), (2, 6));
        assert_eq!(t.starved().collect::<Vec<_>>(), [s(5)]);
        assert_eq!(t.action(s(5), f(3)), Some(EdgeAction::Encoded { delta: 1 }));
    }

    #[test]
    fn lifting_the_cap_moves_a_starved_record_into_a_slot() {
        let mut t = DispatchTable::default();
        t.set_slot_cap(Some(0));
        t.patch(s(4), f(1), EdgeAction::Unencoded, false, true, 4);
        assert!(t.entry(s(4)).is_none());
        t.set_slot_cap(None);
        t.wrap(s(4));
        let r = t.resolve(s(4), f(1), &cost()).unwrap();
        assert_eq!((r.action, r.tc_wrap), (EdgeAction::Unencoded, true));
        assert_eq!(t.starved().count(), 0);
    }

    #[test]
    fn iter_compiled_walks_sites_in_order() {
        let mut t = DispatchTable::default();
        direct(&mut t, 4, 1, EdgeAction::Unencoded);
        direct(&mut t, 1, 2, EdgeAction::Unencoded);
        let sites: Vec<CallSiteId> = t.iter_compiled().map(|(site, _, _)| site).collect();
        assert_eq!(sites, vec![s(1), s(4)]);
    }
}
