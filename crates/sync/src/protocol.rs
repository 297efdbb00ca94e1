//! Named `Ordering` constants for every release/acquire pair in the
//! runtime's lock-free protocols.
//!
//! Production call sites use these constants instead of `Ordering`
//! literals, and the `dacce-mc` bounded protocol models are parameterised
//! over the same constants — so what the checker explores is what the
//! runtime runs. Each constant documents the *pair* it belongs to and the
//! proof obligation it discharges; `DESIGN.md` ("Memory model & proof
//! obligations") maps every pair to the `dacce-mc` model that checks it.

use super::Ordering;

// ---------------------------------------------------------------------
// Protocol 1 — snapshot publish vs. fast-path read (core/tracker.rs).
// ---------------------------------------------------------------------

/// `TrackerInner::republish`'s store of the publication epoch, sequenced
/// after the new snapshot (the current `Generation`'s thread-read part,
/// the `EncodingView`) is written into `published`. Pairs
/// with [`EPOCH_CHECK`]: Release so a reader that observes the new epoch
/// also observes the snapshot contents it advertises.
pub const EPOCH_PUBLISH: Ordering = Ordering::Release;

/// The fast path's per-event revalidation load of the publication epoch
/// (`ThreadHandle::refresh`). Pairs with [`EPOCH_PUBLISH`]: Acquire so
/// everything the publisher wrote before bumping the epoch — dispatch
/// table, dictionaries, `maxID` — is visible once the bump is observed.
pub const EPOCH_CHECK: Ordering = Ordering::Acquire;

// ---------------------------------------------------------------------
// Protocol 2 — lazy migration vs. re-encode (core/tracker.rs,
// core/fastpath.rs). A re-encode publishes a new dictionary generation
// *inside* the snapshot, so the migration handshake rides on the same
// [`EPOCH_PUBLISH`]/[`EPOCH_CHECK`] pair: the Acquire that reveals the
// epoch bump also reveals the new `DictStore` the migrating thread
// decodes against. No additional atomic exists by design — the dacce-mc
// `migration-vs-reencode` model checks exactly this shared dependence.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Protocol 3 — inline-cache invalidation vs. republish (core/thread.rs).
// The per-thread inline cache stamps entries with the snapshot epoch and
// piggybacks on the same pair: a hit is valid only while the cached epoch
// equals the Acquire-loaded current epoch.
// ---------------------------------------------------------------------

/// The epoch load that validates an inline-cache hit (identical site to
/// [`EPOCH_CHECK`]; named separately because the obligation it discharges
/// — "no stale cached target crosses a republish" — is its own model).
pub const ICACHE_EPOCH_CHECK: Ordering = Ordering::Acquire;

// ---------------------------------------------------------------------
// Protocol 4 — ring write vs. drain (obs/ring.rs seqlock).
// ---------------------------------------------------------------------

/// Writer marks a slot busy (odd stamp) before touching its words. Pairs
/// with [`RING_STAMP_VALIDATE`]: Release so a drainer that reads the odd
/// stamp rejects the slot rather than consuming half-written words.
pub const RING_STAMP_BUSY: Ordering = Ordering::Release;

/// Writer publishes a slot (even stamp) after writing its words. Pairs
/// with [`RING_STAMP_VALIDATE`]: Release so the words are visible to any
/// drainer that observes the published stamp.
pub const RING_STAMP_PUBLISH: Ordering = Ordering::Release;

/// Writer advances `head` after publishing the slot. Pairs with
/// [`RING_HEAD_READ`]: Release so a drainer that observes the new head
/// sees the published stamp and words behind it.
pub const RING_HEAD_PUBLISH: Ordering = Ordering::Release;

/// Drainer's load of `head` at the start of a drain. Pairs with
/// [`RING_HEAD_PUBLISH`].
pub const RING_HEAD_READ: Ordering = Ordering::Acquire;

/// Drainer's first stamp read, opening the seqlock read section. Pairs
/// with [`RING_STAMP_BUSY`] / [`RING_STAMP_PUBLISH`].
pub const RING_STAMP_VALIDATE: Ordering = Ordering::Acquire;

/// The slot word loads/stores inside the seqlock section. Relaxed by
/// design: torn values are *discarded* by the validating re-read, never
/// consumed, so the words themselves carry no ordering.
pub const RING_WORD_ACCESS: Ordering = Ordering::Relaxed;

/// The fence between the drainer's word reads and its validating stamp
/// re-read. Acquire so the re-read cannot be satisfied before the word
/// reads it validates.
pub const RING_VALIDATE_FENCE: Ordering = Ordering::Acquire;

/// The validating stamp re-read closing the read section. Relaxed — the
/// preceding [`RING_VALIDATE_FENCE`] supplies the ordering.
pub const RING_STAMP_RECHECK: Ordering = Ordering::Relaxed;

// ---------------------------------------------------------------------
// Protocol 5 — lineage adopt vs. copy-on-write split (core/lineage.rs).
// ---------------------------------------------------------------------

/// `EncodingLineage::publish_into`'s store of the lock-free generation
/// mirror, executed inside the state critical section after the new
/// `LineageState` (one whole `Generation`) is written. Pairs with
/// [`LINEAGE_GEN_CHECK`]: Release
/// so the mirror never advertises a generation whose state a subsequent
/// locked read could miss.
pub const LINEAGE_GEN_PUBLISH: Ordering = Ordering::Release;

/// Tenant fast paths' staleness check of the generation mirror
/// (`EncodingLineage::generation`), taken without the state lock. Pairs
/// with [`LINEAGE_GEN_PUBLISH`].
pub const LINEAGE_GEN_CHECK: Ordering = Ordering::Acquire;

// ---------------------------------------------------------------------
// Unordered bookkeeping.
// ---------------------------------------------------------------------

/// Monotone statistics and bookkeeping counters (slow-lock counts, shard
/// counters, journal drop totals, …). Relaxed: each is read as a lone
/// figure, never as a proxy for other memory being visible.
pub const STAT_COUNTER: Ordering = Ordering::Relaxed;
