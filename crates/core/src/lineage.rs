//! Shared encoding lineages: content-addressed, refcounted encoding state
//! shared by every runtime instance executing the same program.
//!
//! A fleet of tenants running identical programs should not each pay for
//! graph discovery and re-encoding. An [`EncodingLineage`] owns one
//! encoding `Generation` — graph, dictionaries, dispatch table —
//! outside any single engine, keyed by a content hash
//! over the program's function/edge definition stream. Tenants *attach*
//! (adopting the generation as one value, O(1) thanks to `Arc`-backed
//! innards), *adopt* newer generations published by whichever attached
//! tenant re-encoded first, and *diverge* (copy-on-write) the moment their
//! own dynamic discovery grows an edge the lineage does not have.
//!
//! Linearisation: all publishes and adoptions happen under the lineage's
//! state lock, and the generation counter is bumped inside that critical
//! section — so the dictionary history observed along one lineage is a
//! single linear chain and lazily migrating tenants can always decode
//! old samples against the shared [`DictStore`]. Lock order is
//! tenant-shared-state before lineage-state; the lineage lock never
//! wraps a tenant lock.
//!
//! Degraded tenants never publish: only a [`ReencodeOutcome::Applied`]
//! re-encode writes into the lineage, so injected faults (id-space caps,
//! generation aborts) stay contained to the tenant that hit them.
//!
//! [`ReencodeOutcome::Applied`]: crate::shared::ReencodeOutcome

use std::sync::Arc;

use crate::sync::{protocol, AtomicU64, Mutex, MutexGuard, Ordering};

use crate::shared::Generation;
use crate::warm::WarmStartReport;

/// One lineage generation: the encoding [`Generation`] an attaching tenant
/// adopts (and a publishing tenant writes back), plus the founding warm
/// start. Per-instance trigger state, statistics and observability stay
/// with the tenant. Cloning is cheap: the generation is `Arc`-backed.
#[derive(Clone, Debug)]
pub(crate) struct LineageState {
    pub(crate) current: Generation,
    /// Fingerprint and report of the founding warm start, if any. Adopted
    /// by attaching tenants so a repeated identical `warm_start` on them
    /// is recognised as idempotent instead of double-seeding.
    pub(crate) warm: Option<(u64, WarmStartReport)>,
    /// Generation of this state; kept in lock step with the owner's
    /// atomic mirror *inside* the state critical section so readers
    /// always observe a consistent `(state, generation)` pair.
    pub(crate) generation: u64,
}

#[derive(Debug)]
struct LineageInner {
    hash: u64,
    /// Lock-free mirror of `state.generation` for cheap staleness checks
    /// on tenant fast paths (one Acquire load; the authoritative value
    /// lives inside the state lock).
    generation: AtomicU64,
    /// Registry-managed refcount of attached tenants.
    attached: AtomicU64,
    /// Tenants that split off this lineage (copy-on-write divergence).
    divergences: AtomicU64,
    state: Mutex<LineageState>,
}

/// A shared, refcounted, content-addressed encoding lineage. Clones share
/// the same underlying lineage (`Arc` semantics).
#[derive(Clone, Debug)]
pub struct EncodingLineage {
    inner: Arc<LineageInner>,
}

impl EncodingLineage {
    /// Founds a lineage at generation 0 from a tenant's exported state.
    pub(crate) fn found(hash: u64, mut state: LineageState) -> Self {
        state.generation = 0;
        EncodingLineage {
            inner: Arc::new(LineageInner {
                hash,
                generation: AtomicU64::new(0),
                attached: AtomicU64::new(0),
                divergences: AtomicU64::new(0),
                state: Mutex::new(state),
            }),
        }
    }

    /// The content hash this lineage is addressed by.
    pub fn content_hash(&self) -> u64 {
        self.inner.hash
    }

    /// The latest published generation (0 is the founding state).
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(protocol::LINEAGE_GEN_CHECK)
    }

    /// Number of tenants currently attached (registry-managed refcount).
    pub fn attached(&self) -> u64 {
        self.inner.attached.load(Ordering::Relaxed)
    }

    /// Number of tenants that diverged (copy-on-write) off this lineage.
    pub fn divergences(&self) -> u64 {
        self.inner.divergences.load(Ordering::Relaxed)
    }

    /// Increments the attached-tenant refcount.
    pub fn attach(&self) {
        self.inner.attached.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the attached-tenant refcount; returns the count of
    /// tenants still attached so a registry can drop the lineage at zero.
    pub fn detach(&self) -> u64 {
        let prev = self.inner.attached.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "detach without a matching attach");
        prev.saturating_sub(1)
    }

    pub(crate) fn note_divergence(&self) {
        self.inner.divergences.fetch_add(1, Ordering::Relaxed);
    }

    /// Locks the lineage state. The shim mutex has no poisoning (the
    /// state is only ever replaced wholesale, never left half-written, so
    /// a panicking holder cannot leave it inconsistent).
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, LineageState> {
        self.inner.state.lock()
    }

    /// A consistent `(state, generation)` copy of the latest generation.
    pub(crate) fn current(&self) -> LineageState {
        self.lock_state().clone()
    }

    /// Publishes `state` as the next generation. The caller must hold the
    /// state lock (`guard`) across its decision to publish so generations
    /// form one linear chain. Returns the new generation.
    pub(crate) fn publish_into(&self, guard: &mut LineageState, mut state: LineageState) -> u64 {
        let generation = guard.generation + 1;
        state.generation = generation;
        *guard = state;
        self.inner
            .generation
            .store(generation, protocol::LINEAGE_GEN_PUBLISH);
        generation
    }
}
