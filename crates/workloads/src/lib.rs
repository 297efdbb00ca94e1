//! Synthetic benchmark suite and experiment driver.
//!
//! The paper evaluates DACCE on SPEC CPU2006 (ref inputs) and PARSEC 2.1
//! (native inputs). Those binaries cannot be reproduced in a Rust library,
//! so this crate generates *analog* workloads: synthetic programs whose
//! call-graph structure and dynamic behaviour are parameterised per
//! benchmark to reproduce the relative characteristics of Table 1 — graph
//! sizes, encoding-space demands (including PCCE overflow on the
//! `perlbench`/`gcc` analogs), ccStack traffic from recursion and indirect
//! calls, call density, tail calls, lazily loaded libraries, phase changes
//! and threading (PARSEC).
//!
//! * [`spec::BenchSpec`] — the per-benchmark parameter set, built from
//!   composable structural motifs;
//! * [`genprog`] — deterministic program generation from a spec;
//! * [`suite`] — the 29 SPEC CPU2006 analog specs and 12 PARSEC 2.1 analog
//!   specs;
//! * [`driver`] — runs profiling/PCCE/DACCE (and the related-work
//!   baselines) over a spec and collects everything the tables and figures
//!   need.

pub mod batch;
pub mod chaos;
pub mod characterize;
pub mod driver;
pub mod families;
pub mod genprog;
pub mod journal;
pub mod spec;
pub mod suite;
pub mod superops;

pub use batch::{replay_guarded, ReplayStep, ReplayVisitor, WorkloadTrace};
pub use chaos::{
    chaos_trace, replay_sampled, replay_sampled_superops, run_all_presets, run_chaos_plan,
    ChaosOutcome, ChaosReplay,
};
pub use characterize::{characterize, ProgramShape};
pub use driver::{
    interp_config, program_of, run_benchmark, run_dacce_only, run_dacce_runtime, run_dacce_warm,
    run_with, BenchOutcome, DriverConfig,
};
pub use families::{family_names, family_trace, family_traces};
pub use genprog::generate_program;
pub use journal::{balanced_boundaries, record_journal, RecordedRun};
pub use spec::{BenchSpec, Suite};
pub use suite::{all_benchmarks, parsec_benchmarks, spec2006_benchmarks};
pub use superops::{leaf_weights, mine_windows};
