//! The instrumentation patched into call sites.
//!
//! DACCE is built on dynamic binary instrumentation: every call site starts
//! as a trap into the runtime handler and is progressively patched with the
//! cheapest instrumentation its role allows (§3). An [`EdgeAction`] is what
//! the generated code does around one call edge; an [`IndirectPatch`] is
//! an indirect site's target dispatch. The dispatch table
//! (`crate::dispatch`) holds every site's patched code.

use std::collections::HashMap;

use dacce_callgraph::FunctionId;

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

    /// Registers a target with the given action, keeping it in the hash
    /// table when one exists or appending to the chain. A target already
    /// held (a slot-starved site traps on every call) has its action
    /// updated in place.
    pub fn add_target(&mut self, target: FunctionId, action: EdgeAction, inline_max: usize) {
        if let Some(h) = &mut self.hashed {
            h.insert(target, action);
            return;
        }
        if let Some(known) = self.inline.iter_mut().find(|(t, _)| *t == target) {
            known.1 = action;
            return;
        }
        self.inline.push((target, action));
        if self.inline.len() > inline_max {
            let h: HashMap<FunctionId, EdgeAction> = self.inline.drain(..).collect();
            self.hashed = Some(h);
        }
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
}
