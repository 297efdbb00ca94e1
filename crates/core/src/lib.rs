//! # DACCE — Dynamic and Adaptive Calling Context Encoding
//!
//! A from-scratch reproduction of Li, Wang, Wu, Hsu and Xu, *Dynamic and
//! Adaptive Calling Context Encoding* (CGO 2014). DACCE encodes the calling
//! context of every thread into a single integer `id` plus a small auxiliary
//! stack, by instrumenting call sites with add/subtract operations — and,
//! unlike static encoders such as PCCE, it discovers the call graph at
//! runtime, works on incomplete graphs, and adapts its encodings to the
//! program's observed behaviour.
//!
//! ## Architecture
//!
//! * [`engine::DacceEngine`] — the core: dynamic call graph, dispatch table
//!   (the "generated code"), per-thread contexts, versioned decode
//!   dictionaries, the runtime handler (§3) and adaptive re-encoding (§4).
//! * [`decode`] — Algorithm 1, including compressed-recursion expansion and
//!   thread-spawn chaining.
//! * [`runtime::DacceRuntime`] — adapter driving the engine from the
//!   `dacce-program` interpreter (the evaluation vehicle).
//! * [`tracker::Tracker`] — an embeddable API for instrumenting real Rust
//!   programs: RAII call guards, thread-local contexts, sampling and
//!   decoding (the analog of preloading `dacce.so`).
//!
//! ## Quick example
//!
//! ```
//! use dacce::tracker::Tracker;
//!
//! let tracker = Tracker::new();
//! let main_fn = tracker.define_function("main");
//! let work_fn = tracker.define_function("work");
//! let site = tracker.define_call_site();
//!
//! let thread = tracker.register_thread(main_fn);
//! {
//!     let _guard = thread.call(site, work_fn);
//!     let ctx = thread.sample();
//!     let path = tracker.decode(&ctx).expect("decodes");
//!     assert_eq!(tracker.format_path(&path), "main -> work");
//! }
//! ```

pub mod ccstack;
mod codec;
pub mod config;
pub mod context;
pub mod decode;
#[cfg(test)]
mod dense_differential;
pub(crate) mod dispatch;
pub mod engine;
pub mod export;
pub(crate) mod fastpath;
pub mod fault;
pub mod fragment;
pub mod lineage;
pub mod observe;
pub mod patch;
pub mod profile;
pub mod reencode;
pub mod runtime;
pub(crate) mod shared;
pub mod stats;
pub mod superop;
pub mod sync;
pub mod thread;
pub mod tracker;
pub mod verify;
pub mod warm;

pub use ccstack::{CcEntry, CcStack};
pub use config::{CompressionMode, DacceConfig};
pub use context::{EncodedContext, SpawnLink};
pub use decode::{decode_full, decode_thread, DecodeError};
pub use engine::DacceEngine;
pub use export::{
    export_samples, export_state, export_tracker_state, import, DispatchKind, DispatchRecord,
    ImportError, OfflineDecoder,
};
pub use fault::FaultPlan;
pub use fragment::{
    decode_parallel, decode_serial, verify_seams, DecodeJournal, DecodedStream, FragmentError,
    JournalOp, JournalThread, ParallelDecodeReport, SeamSeed, StateSig, ThreadRecorder,
};
pub use lineage::EncodingLineage;
pub use observe::Observability;
pub use profile::HotContextProfile;
pub use runtime::DacceRuntime;
pub use stats::{DacceStats, DegradedState, ProgressPoint};
pub use superop::{SuperOp, WindowOp};
pub use tracker::{BatchError, BatchErrorKind, BatchOp, TaskContext, Tracker};
pub use warm::{SeedEdge, WarmStartReport, WarmStartSeed};
