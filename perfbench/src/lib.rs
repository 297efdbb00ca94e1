//! End-to-end and per-layer benchmark of the DACCE tracker.
//!
//! One run replays one workload — a recorded trace generated from a seed
//! — through the public tracker API for a fixed time: set-up, encode
//! (`run_batch` windows and guards), queries (`sample()` +
//! `Tracker::decode()`) and the offline journal decode (`parse` →
//! `import` → `decode_serial`). Every query and every offline decode
//! point is checked against the trace's shadow stack. An untraced run
//! reports the e2e metrics; a traced run wraps every library call in a
//! span and reports per-layer self time and counts. See `README.md`.

pub mod bench;
pub mod drive;
pub mod plan;
pub mod stats;
pub mod trace;
