//! Spans for the traced run.
//!
//! A span records one public call into a layer: its name, start, end, the
//! span that caused it (the round) and the round it belongs to. Spans of
//! a round are kept in memory while the round runs and folded into
//! per-layer totals when it ends; the spans of the first rounds are kept
//! whole and written out when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// A layer boundary the benchmark times from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A whole round (the region an untraced run times).
    Round,
    /// `Tracker::with_config`.
    TrackerNew,
    /// `define_function` / `define_call_site` over the whole id table.
    DefineIds,
    /// `register_thread` / `register_spawned_thread`.
    Register,
    /// `ThreadHandle::run_batch`.
    RunBatch,
    /// A run of consecutive guard calls and guard drops.
    Guard,
    /// `ThreadHandle::sample`.
    Sample,
    /// `Tracker::decode`.
    Decode,
    /// `Tracker::check_invariants`.
    CheckInvariants,
    /// `Tracker::stats`.
    Stats,
    /// `Tracker::profiler_profile`.
    ProfilerProfile,
    /// `workloads::leaf_weights` + `workloads::mine_windows`.
    Mine,
    /// `Tracker::install_superops`.
    Install,
    /// `Tracker::request_reencode`.
    ForcedReencode,
    /// `DecodeJournal::parse`.
    Parse,
    /// `dacce::import`.
    Import,
    /// `dacce::decode_serial`.
    DecodeSerial,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 17;

impl Layer {
    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::TrackerNew => "tracker.new",
            Layer::DefineIds => "tracker.define_ids",
            Layer::Register => "tracker.register",
            Layer::RunBatch => "tracker.run_batch",
            Layer::Guard => "tracker.guard",
            Layer::Sample => "tracker.sample",
            Layer::Decode => "tracker.decode",
            Layer::CheckInvariants => "tracker.check_invariants",
            Layer::Stats => "tracker.stats",
            Layer::ProfilerProfile => "tracker.profiler_profile",
            Layer::Mine => "superop.mine",
            Layer::Install => "superop.install",
            Layer::ForcedReencode => "reencode.forced",
            Layer::Parse => "fragment.parse",
            Layer::Import => "export.import",
            Layer::DecodeSerial => "fragment.decode_serial",
        }
    }
}

/// What a round measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Tracker set-up.
    Setup,
    /// Encode and query: the replay of the workload.
    Encode,
    /// Parse, import and serial decode of the journal.
    Offline,
    /// Audits and counter reads between timed rounds.
    Check,
}

/// Number of [`Phase`]s.
pub const PHASES: usize = 4;

impl Phase {
    /// The phase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Encode => "encode",
            Phase::Offline => "offline",
            Phase::Check => "check",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Index of the causing span within its round: 0, the round, for
    /// every layer span (`u32::MAX` for the round itself).
    pub parent: u32,
    /// Round id.
    pub round: u32,
    /// Units of work inside the span (ops for batches and guard runs).
    pub ops: u32,
    /// Whether `slow_path_locks()` advanced during the call.
    pub slow: bool,
}

/// Per-layer totals of one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans.
    pub count: u64,
    /// Units of work.
    pub ops: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the part child spans cover (the
    /// round's unattributed time; a layer span's whole duration).
    pub self_ns: u64,
    /// Summed duration of spans during which the slow path was taken.
    pub slow_ns: u64,
}

/// Spans kept whole for the dump (the rest are only folded into totals).
const KEEP_SPANS: usize = 20_000;

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    phase: Phase,
    round: u32,
    kept: Vec<(Phase, Span)>,
    /// Totals by phase and layer.
    pub totals: [[LayerTotals; LAYERS]; PHASES],
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            phase: Phase::Check,
            round: 0,
            kept: Vec::new(),
            totals: [[LayerTotals::default(); LAYERS]; PHASES],
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a round of `phase`; its root span starts now.
    pub fn begin(&mut self, phase: Phase) {
        debug_assert!(self.spans.is_empty(), "rounds do not nest");
        self.phase = phase;
        let now = self.now();
        self.spans.push(Span {
            layer: Layer::Round,
            start: now,
            end: now,
            parent: u32::MAX,
            round: self.round,
            ops: 0,
            slow: false,
        });
    }

    /// Records a child span of the open round.
    #[inline]
    pub fn span(&mut self, layer: Layer, start: u64, end: u64, ops: u32, slow: bool) {
        self.spans.push(Span {
            layer,
            start,
            end,
            parent: 0,
            round: self.round,
            ops,
            slow,
        });
    }

    /// Times `f` as a child span of the open round.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, ops: u32, f: impl FnOnce() -> R) -> R {
        let s = self.now();
        let r = f();
        let e = self.now();
        self.span(layer, s, e, ops, false);
        r
    }

    /// Closes the open round now and folds its spans into the totals.
    /// Child spans do not nest, so a child's self time is its duration and
    /// the round's is its duration minus its children's.
    /// Returns the round's duration.
    pub fn end(&mut self) -> u64 {
        let now = self.now();
        self.spans[0].end = now;
        let children: u64 = self.spans[1..].iter().map(|s| s.end - s.start).sum();
        let round_ns = now - self.spans[0].start;
        let phase = self.phase as usize;
        for (i, s) in self.spans.iter().enumerate() {
            let t = &mut self.totals[phase][s.layer as usize];
            let dur = s.end - s.start;
            t.count += 1;
            t.ops += u64::from(s.ops);
            t.total_ns += dur;
            t.self_ns += if i == 0 {
                round_ns.saturating_sub(children)
            } else {
                dur
            };
            if s.slow {
                t.slow_ns += dur;
            }
        }
        if self.kept.len() + self.spans.len() <= KEEP_SPANS {
            let ph = self.phase;
            self.kept.extend(self.spans.iter().map(|&s| (ph, s)));
        }
        self.spans.clear();
        self.round += 1;
        round_ns
    }

    /// Totals of one layer in one phase.
    pub fn get(&self, phase: Phase, layer: Layer) -> LayerTotals {
        self.totals[phase as usize][layer as usize]
    }

    /// Totals of one layer over every phase.
    pub fn all(&self, layer: Layer) -> LayerTotals {
        let mut out = LayerTotals::default();
        for p in &self.totals {
            let t = p[layer as usize];
            out.count += t.count;
            out.ops += t.ops;
            out.total_ns += t.total_ns;
            out.self_ns += t.self_ns;
            out.slow_ns += t.slow_ns;
        }
        out
    }

    /// The kept spans as tab-separated text:
    /// `round phase span parent name start_ns end_ns ops slow`.
    pub fn dump(&self) -> String {
        let mut out =
            String::from("round\tphase\tspan\tparent\tname\tstart_ns\tend_ns\tops\tslow\n");
        let mut idx = 0u32;
        let mut cur = u32::MAX;
        for (ph, s) in &self.kept {
            if s.round != cur {
                cur = s.round;
                idx = 0;
            }
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{idx}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.round,
                ph.name(),
                s.layer.name(),
                s.start,
                s.end,
                s.ops,
                u8::from(s.slow)
            );
            idx += 1;
        }
        out
    }
}
