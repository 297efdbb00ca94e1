//! The synchronisation shim every lock-free protocol in this crate (and
//! `dacce-obs`, `dacce-fleet`) routes through.
//!
//! Re-exports [`dacce_sync`]: with the `mc` feature off these names are
//! direct std / `parking_lot` re-exports (zero cost); with it on they are
//! hook-instrumented wrappers reporting each operation and its declared
//! [`dacce_sync::Ordering`] to a registered [`dacce_sync::SyncHook`]. The
//! [`dacce_sync::protocol`] module names the orderings of every release/acquire pair — the same
//! constants the `dacce-mc` bounded protocol models check.

pub use dacce_sync::*;
