//! Decode-journal recording: drive the tracker over a recorded workload
//! trace one op at a time (the replay loop of [`crate::batch`] with a
//! window of 0), record the per-op state effect each event applied
//! (verified against the live state, see [`dacce::ThreadRecorder`]), and
//! place seam seeds at balanced-frame boundaries so the journal splits
//! into independently decodable fragments.
//!
//! Seam placement uses the chaos replay's window classification: a call
//! whose matching return lands within 16 ops is a *short* frame; a seam
//! may only be cut where no short frame is open, i.e. at the boundaries
//! the chaos replay would also flush at — every open frame at a seam is a
//! deep spine frame. Combined with the seam-every cadence this yields
//! fragments of roughly uniform op count, which is what the parallel
//! decoder's work-stealing queue wants.

use dacce::tracker::{ThreadHandle, Tracker};
use dacce::{export_tracker_state, DacceConfig, DacceStats, DecodeJournal, ThreadRecorder};
use dacce_program::{PathStep, ThreadId};

use crate::batch::{
    matching_returns, replay_guarded, ReplayStep, ReplayVisitor, TraceOp, WorkloadTrace,
};
use crate::chaos::CHAOS_WINDOW;

/// A decode point is journaled every this many replayed ops per thread;
/// the chaos harness samples at the same cadence. Prime, so the cadence
/// drifts across window boundaries.
pub const JOURNAL_SAMPLE_EVERY: u64 = 127;

/// Default seam cadence: one fragment seed roughly every this many ops.
pub const DEFAULT_SEAM_EVERY: usize = 512;

/// Everything one recording pass produced: the journal, the matching
/// offline export (dictionaries for every generation, site owners), and
/// recording diagnostics.
#[derive(Debug)]
pub struct RecordedRun {
    /// The per-thread effect journal with seam seeds.
    pub journal: DecodeJournal,
    /// The tracker's offline export (feed to [`dacce::import`]).
    pub export: String,
    /// Full-state resync records the recorder had to fall back to
    /// (generation migrations, inexpressible deltas).
    pub resyncs: u64,
    /// Final tracker statistics of the recording run.
    pub stats: DacceStats,
}

/// For each op index, whether a seam may be cut *after* it: true when no
/// short frame (one closing within `window` ops of its call) is open.
///
/// # Panics
///
/// Panics on a return with no open call (recorded streams are balanced).
#[must_use]
pub fn balanced_boundaries(ops: &[TraceOp], window: usize) -> Vec<bool> {
    let match_ret = matching_returns(ops);
    // Where each open short frame returns, innermost last.
    let mut short_ends = Vec::new();
    (0..ops.len())
        .map(|i| {
            if match_ret[i] - i < window {
                short_ends.push(match_ret[i]);
            } else if short_ends.last() == Some(&i) {
                short_ends.pop();
            }
            short_ends.is_empty()
        })
        .collect()
}

/// Records each guard op of a replay into the thread's
/// [`ThreadRecorder`], with a decode point every [`JOURNAL_SAMPLE_EVERY`]
/// ops and at thread exit, and a seam at the first balanced boundary
/// once `seam_every` ops have passed since the last one.
#[derive(Default)]
struct JournalWriter {
    seam_every: usize,
    journal: DecodeJournal,
    resyncs: u64,
    rec: Option<ThreadRecorder>,
    eligible: Vec<bool>,
    next_sample: u64,
    since_seam: usize,
}

impl ReplayVisitor for JournalWriter {
    fn start(&mut self, tid: ThreadId, th: &ThreadHandle, ops: &[TraceOp]) {
        self.eligible = balanced_boundaries(ops, CHAOS_WINDOW);
        self.rec = Some(ThreadRecorder::new(tid.raw().into(), th.context()));
        self.next_sample = JOURNAL_SAMPLE_EVERY;
        self.since_seam = 0;
    }

    fn step(&mut self, th: &ThreadHandle, step: ReplayStep, done: usize, _: &[PathStep]) {
        let rec = self.rec.as_mut().expect("thread started");
        match step {
            ReplayStep::Call { site, target } => {
                rec.on_call(site, target, &th.state_sig(), || th.context());
            }
            ReplayStep::Ret => rec.on_ret(&th.state_sig(), || th.context()),
            ReplayStep::Batch => unreachable!("journal replays guard every op"),
        }
        if done as u64 >= self.next_sample {
            self.next_sample += JOURNAL_SAMPLE_EVERY;
            rec.on_sample();
        }
        self.since_seam += 1;
        if self.since_seam >= self.seam_every && self.eligible[done - 1] {
            self.since_seam = 0;
            rec.seam(|| th.context());
        }
    }

    fn end(&mut self, _: &ThreadHandle, done: usize, _: &[PathStep]) {
        let mut rec = self.rec.take().expect("thread started");
        // A decode point at thread exit: short-lived threads (fewer ops
        // than the sample cadence) still contribute to the decoded
        // stream — thread-churn workloads are all exit samples.
        if done > 0 {
            rec.on_sample();
        }
        self.resyncs += rec.resyncs();
        self.journal.threads.push(rec.finish());
        // Drop the flags with the thread they describe.
        self.eligible = Vec::new();
    }
}

/// Replays `trace` through a fresh tracker under `config`, recording the
/// verified effect journal with a seam seed roughly every `seam_every`
/// ops (at the next balanced boundary), a decode point every
/// [`JOURNAL_SAMPLE_EVERY`] ops and at each thread's exit, and the
/// offline export captured after the run.
///
/// # Panics
///
/// Panics on traces whose returns do not match an open call (recorded
/// traces are always balanced per thread).
#[must_use]
pub fn record_journal(
    trace: &WorkloadTrace,
    config: DacceConfig,
    seam_every: usize,
) -> RecordedRun {
    let tracker = Tracker::with_config(config);
    let mut writer = JournalWriter {
        seam_every,
        ..JournalWriter::default()
    };
    replay_guarded(&tracker, trace, &mut writer);
    let stats = tracker.stats();
    let export = export_tracker_state(&tracker);
    RecordedRun {
        journal: writer.journal,
        export,
        resyncs: writer.resyncs,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::chaos_trace;
    use crate::driver::DriverConfig;
    use crate::spec::BenchSpec;
    use dacce::{decode_parallel, decode_serial, import};

    fn tiny_trace() -> WorkloadTrace {
        chaos_trace(
            &BenchSpec::tiny("journal-smoke", 3),
            &DriverConfig {
                scale: 0.05,
                ..DriverConfig::default()
            },
        )
    }

    #[test]
    fn boundaries_only_open_on_the_spine() {
        let trace = tiny_trace();
        for ops in trace.traces.values() {
            let eligible = balanced_boundaries(ops, CHAOS_WINDOW);
            assert_eq!(eligible.len(), ops.len());
            // The end of a balanced stream is always eligible.
            if let Some(last) = eligible.last() {
                assert!(last);
            }
        }
    }

    #[test]
    fn recorded_journal_replays_and_splits() {
        let run = record_journal(&tiny_trace(), DacceConfig::default(), 256);
        assert!(run.journal.samples() > 4, "cadence produces samples");
        assert!(run.journal.seams() > 0, "cadence produces seams");
        let dec = import(&run.export).expect("export parses");
        let serial = decode_serial(&run.journal, &dec).expect("journal replays");
        assert_eq!(serial.lines.len(), run.journal.samples());
        let (par, report) = decode_parallel(&run.journal, &dec, 2).expect("parallel replays");
        assert_eq!(par, serial, "parallel decode must match serial");
        assert_eq!(report.seam_failures, 0);
        assert_eq!(report.fallback_fragments, 0);
        assert_eq!(
            report.seams_verified,
            report.fragments - run.journal.threads.len()
        );
    }

    #[test]
    fn journal_text_round_trips_through_the_export_format() {
        let run = record_journal(&tiny_trace(), DacceConfig::default(), 256);
        let text = run.journal.to_text();
        let back = DecodeJournal::parse(&text).expect("parses");
        assert_eq!(back, run.journal);
    }
}
