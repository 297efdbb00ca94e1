//! Per-call-site patch states.
//!
//! DACCE is built on dynamic binary instrumentation: every call site starts
//! as a trap into the runtime handler and is progressively patched with the
//! cheapest instrumentation its role allows (§3). This module models the
//! generated code as data: a [`SiteState`] describes exactly which operations
//! execute before and after the call instruction at one site.

use std::collections::HashMap;
use std::sync::Arc;

use dacce_callgraph::{CallSiteId, FunctionId};

/// What the generated code does for one concrete call edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeAction {
    /// Figure 2b: push `<id, cs, target>`, set `id = maxID + 1`; restore by
    /// popping.
    Unencoded,
    /// Figure 5e: like [`EdgeAction::Unencoded`] but compressing repetitive
    /// boundaries with a counter.
    UnencodedCompressed,
    /// Encoded edge: `id += delta` before, `id -= delta` after. A delta of 0
    /// emits no code at all — the adaptive goal for hot edges.
    Encoded {
        /// `En(e)` for this edge.
        delta: u64,
    },
}

impl EdgeAction {
    /// True when the action touches the ccStack.
    pub fn uses_ccstack(self) -> bool {
        matches!(
            self,
            EdgeAction::Unencoded | EdgeAction::UnencodedCompressed
        )
    }
}

/// Instrumentation of an indirect call site (§3.2).
///
/// Known targets are dispatched either through an inline compare chain
/// (Figure 3d) ordered hottest-first, or through a hash table (Figure 4)
/// once the chain exceeds the configured threshold. Unknown targets fall
/// through to the runtime handler.
#[derive(Clone, Debug, Default)]
pub struct IndirectPatch {
    /// Inline compare chain in evaluation order.
    pub inline: Vec<(FunctionId, EdgeAction)>,
    /// Hash-table dispatch; `Some` once the target count crossed the
    /// threshold.
    pub hashed: Option<HashMap<FunctionId, EdgeAction>>,
}

impl IndirectPatch {
    /// Looks up the action for `target` and the number of inline
    /// comparisons executed to find it (`None` if unknown). The second
    /// component of the `Some` payload is `(comparisons, used_hash)`.
    pub fn lookup(&self, target: FunctionId) -> Option<(EdgeAction, u32, bool)> {
        for (i, (t, a)) in self.inline.iter().enumerate() {
            if *t == target {
                return Some((*a, i as u32 + 1, false));
            }
        }
        if let Some(h) = &self.hashed {
            if let Some(a) = h.get(&target) {
                return Some((*a, self.inline.len() as u32, true));
            }
        }
        None
    }

    /// Number of known targets.
    pub fn target_count(&self) -> usize {
        self.inline.len() + self.hashed.as_ref().map_or(0, HashMap::len)
    }

    /// Iterates every known `(target, action)` pair: the compare chain in
    /// evaluation order, then the hash table in unspecified order.
    pub fn targets(&self) -> impl Iterator<Item = (FunctionId, EdgeAction)> + '_ {
        self.inline.iter().copied().chain(
            self.hashed
                .iter()
                .flat_map(|h| h.iter().map(|(t, a)| (*t, *a))),
        )
    }

    /// Registers a newly discovered target with the given action, keeping it
    /// in the hash table when one exists or appending to the chain.
    pub fn add_target(&mut self, target: FunctionId, action: EdgeAction, inline_max: usize) {
        if let Some(h) = &mut self.hashed {
            h.insert(target, action);
            return;
        }
        self.inline.push((target, action));
        if self.inline.len() > inline_max {
            let h: HashMap<FunctionId, EdgeAction> = self.inline.drain(..).collect();
            self.hashed = Some(h);
        }
    }
}

/// Dispatch portion of a site's generated code.
#[derive(Clone, Debug)]
pub enum SitePatch {
    /// Never executed: the call instruction is replaced by a trap into the
    /// runtime handler.
    Trap,
    /// Direct (or PLT-resolved) call with a single known target.
    Direct(FunctionId, EdgeAction),
    /// Indirect call with runtime target dispatch.
    Indirect(IndirectPatch),
}

/// Full instrumentation state of one call site.
#[derive(Clone, Debug)]
pub struct SiteState {
    /// §5.2: save the encoding context absolutely before the call and
    /// restore it after, because the callee contains tail calls.
    pub tc_wrap: bool,
    /// The dispatch/action code.
    pub patch: SitePatch,
}

impl SiteState {
    /// The initial state of every site.
    pub fn trap() -> Self {
        SiteState {
            tc_wrap: false,
            patch: SitePatch::Trap,
        }
    }
}

impl Default for SiteState {
    fn default() -> Self {
        Self::trap()
    }
}

/// Copy-on-write table of every call site's instrumentation state.
///
/// The table is the shared half of the "generated code": the slow path
/// mutates it under the engine lock (via [`Arc::make_mut`], cloning only
/// when a published snapshot still references the old version), while
/// snapshots hand read-only clones to reader threads in O(1).
#[derive(Clone, Debug, Default)]
pub struct PatchTable {
    sites: Arc<HashMap<CallSiteId, SiteState>>,
}

impl PatchTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The state of `site`, if it ever trapped.
    pub fn get(&self, site: CallSiteId) -> Option<&SiteState> {
        self.sites.get(&site)
    }

    /// Mutable access to `site`'s state, inserting the initial trap state
    /// on first touch. Clones the underlying map iff a snapshot still
    /// shares it.
    pub fn site_mut(&mut self, site: CallSiteId) -> &mut SiteState {
        Arc::make_mut(&mut self.sites).entry(site).or_default()
    }

    /// Mutable access to `site`'s state only if it already exists (never
    /// inserts). Clones the underlying map iff a snapshot still shares it.
    pub fn existing_mut(&mut self, site: CallSiteId) -> Option<&mut SiteState> {
        if !self.sites.contains_key(&site) {
            return None;
        }
        Arc::make_mut(&mut self.sites).get_mut(&site)
    }

    /// Replaces the whole table (used when a re-encoding regenerates every
    /// site's code).
    pub fn replace_all(&mut self, sites: HashMap<CallSiteId, SiteState>) {
        self.sites = Arc::new(sites);
    }

    /// Iterates over all known sites in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&CallSiteId, &SiteState)> {
        self.sites.iter()
    }

    /// Number of sites that have trapped at least once.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when no site has trapped yet.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// True when no other table shares this one's sites, so the next
    /// mutation patches in place instead of copying.
    #[cfg(test)]
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.sites) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::new(i)
    }

    #[test]
    fn edge_action_classification() {
        assert!(EdgeAction::Unencoded.uses_ccstack());
        assert!(EdgeAction::UnencodedCompressed.uses_ccstack());
        assert!(!EdgeAction::Encoded { delta: 3 }.uses_ccstack());
    }

    #[test]
    fn inline_chain_lookup_counts_comparisons() {
        let mut p = IndirectPatch::default();
        p.add_target(f(1), EdgeAction::Encoded { delta: 0 }, 4);
        p.add_target(f(2), EdgeAction::Encoded { delta: 5 }, 4);
        let (a, cmps, hashed) = p.lookup(f(2)).unwrap();
        assert_eq!(a, EdgeAction::Encoded { delta: 5 });
        assert_eq!(cmps, 2);
        assert!(!hashed);
        assert!(p.lookup(f(9)).is_none());
        assert_eq!(p.target_count(), 2);
    }

    #[test]
    fn chain_converts_to_hash_beyond_threshold() {
        let mut p = IndirectPatch::default();
        for i in 0..5 {
            p.add_target(f(i), EdgeAction::Unencoded, 3);
        }
        assert!(p.hashed.is_some(), "chain must convert past inline_max");
        assert!(p.inline.is_empty());
        assert_eq!(p.target_count(), 5);
        let (_, cmps, hashed) = p.lookup(f(4)).unwrap();
        assert!(hashed);
        assert_eq!(cmps, 0, "no inline comparisons remain");
        // New targets go straight to the hash.
        p.add_target(f(9), EdgeAction::Unencoded, 3);
        assert_eq!(p.target_count(), 6);
    }

    #[test]
    fn site_state_defaults_to_trap() {
        let s = SiteState::default();
        assert!(!s.tc_wrap);
        assert!(matches!(s.patch, SitePatch::Trap));
    }

    #[test]
    fn patch_table_copy_on_write() {
        let site = CallSiteId::new(7);
        let mut table = PatchTable::new();
        assert!(table.is_empty());
        table.site_mut(site).patch = SitePatch::Direct(f(1), EdgeAction::Encoded { delta: 2 });
        let snapshot = table.clone();
        // Mutating after a snapshot was taken must not leak into it.
        table.site_mut(site).patch = SitePatch::Trap;
        table.site_mut(CallSiteId::new(8)).tc_wrap = true;
        assert!(matches!(
            snapshot.get(site).unwrap().patch,
            SitePatch::Direct(_, _)
        ));
        assert!(snapshot.get(CallSiteId::new(8)).is_none());
        assert_eq!(table.len(), 2);
        assert_eq!(snapshot.len(), 1);
    }
}
