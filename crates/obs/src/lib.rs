//! Runtime observability for the DACCE reproduction.
//!
//! Four pieces, designed so the encoded fast path pays at most one
//! relaxed atomic load while the journal is idle:
//!
//! - **Event journal** ([`Journal`]): typed lifecycle events
//!   ([`EventKind`]) recorded into per-writer, fixed-capacity, lock-free
//!   ring buffers ([`ring::EventRing`]) with overwrite-oldest semantics,
//!   drained on demand into one stream ordered by a global sequence
//!   number. Streams round-trip through JSON ([`events_to_json`] /
//!   [`events_from_json`]) and replay into aggregate counters
//!   ([`JournalAggregates`]) comparable with the engine's `DacceStats`.
//! - **Metrics registry** ([`MetricsRegistry`]): sharded counters and
//!   log₂-bucketed histograms plus the per-generation dictionary table,
//!   snapshotted into plain data ([`MetricsSnapshot`]) and exported as
//!   JSON or Prometheus-style text.
//! - **Fleet pump** ([`FleetPump`]): merges many runtimes' drained
//!   metrics and journals into one labeled surface — per-tenant
//!   `tenant="…"` Prometheus series plus `dacce_fleet_` aggregates.
//! - **Continuous profiler** ([`profiler`]): the deterministic
//!   budget-bounded [`Sampler`] behind `Sample` events, the re-encode
//!   [`SpanTimeline`] with its pause histogram, and collapsed-stack
//!   [`FlameGraph`] export with lineage-keyed fleet merge.
//! - The `dacce` core crate wires them into the engine unconditionally
//!   (the journal starts runtime-disabled); the `dacce-top` binary renders
//!   them live (`--fleet` for the multi-tenant view).
//!
//! This crate depends only on `dacce-sync` and contains no `unsafe`.

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod fleet;
pub mod journal;
pub mod metrics;
pub mod postmortem;
pub mod profiler;
pub mod ring;

pub use event::{events_from_json, events_to_json, EventKind, EventRecord};
pub use fleet::{FleetMember, FleetPump};
pub use journal::{
    Journal, JournalAggregates, JournalBatch, JournalConfig, JournalWriter, CC_OVERFLOW_WATERMARK,
};
pub use metrics::{
    Counter, GenerationInfo, Histogram, HistogramSnapshot, IdHeadroom, MetricsRegistry,
    MetricsSnapshot,
};
pub use postmortem::Postmortem;
pub use profiler::{merge_by_lineage, FlameGraph, ReencodeSpan, Sampler, SpanTimeline};
