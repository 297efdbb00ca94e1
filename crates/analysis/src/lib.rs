//! # dacce-analyze — static analysis and encoding verification for DACCE
//!
//! Three cooperating passes over the `dacce-program` model and exported
//! engine state:
//!
//! 1. **Sound static call graph** ([`graph`], [`passes`]) — the
//!    over-approximate whole-program graph (generalized from
//!    `pcce::pointsto`) plus SCC condensation, ahead-of-time back-edge
//!    classification, tail-call reachability and per-site indirect-target
//!    cardinality estimates.
//! 2. **Encoding verifier** ([`verifier`], [`lint`]) — proves the
//!    Ball–Larus/DACCE invariants of every decode dictionary (path-id
//!    uniqueness, unencoded-id range correctness, hottest-edge zero
//!    weight, overflow freedom, timestamp monotonicity) and reports
//!    violations as structured diagnostics with witness paths.
//! 3. **Warm start** ([`warm`]) — converts the static graph into a
//!    [`dacce::WarmStartSeed`] that pre-seeds the dynamic engine, removing
//!    first-invocation traps.
//!
//! The `dacce-lint` binary in this crate audits `dacce-export v1` engine
//! state files with the verifier and is wired into CI over the workload
//! suite; it also validates flight-recorder postmortem dumps
//! ([`postmortem`], `--postmortem`). The `dacce-flame` binary merges
//! collapsed-stack flame exports and decodes journal JSON into them.

#![warn(missing_docs)]

pub mod graph;
pub mod lint;
pub mod metrics;
pub mod passes;
pub mod postmortem;
pub mod verifier;
pub mod warm;

pub use graph::{build_static_graph, StaticGraph};
pub use lint::{Diagnostic, Severity};
pub use metrics::{verify_metrics, PromDoc, PromSample};
pub use passes::{analyze, StaticAnalysis, TailAnalysis};
pub use postmortem::{verify_postmortem, Postmortem};
pub use verifier::{verify_dicts, verify_engine, verify_export};
pub use warm::warm_seed;
