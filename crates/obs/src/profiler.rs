//! Continuous-profiling primitives: the deterministic sampler, the
//! re-encode span timeline, and collapsed-stack flame graphs.
//!
//! The paper's point is that encoded contexts make context capture cheap
//! enough for *always-on* sampled profiling. This module holds the parts
//! of that story that are pure data — no engine types, no clocks:
//!
//! - [`Sampler`]: a per-thread, event-count-driven sampler. A configured
//!   stride is jittered with a seeded xorshift so samples do not phase-lock
//!   with loop bodies, and a budget-bounded controller backs the effective
//!   stride off when a window produces more samples than its budget.
//!   Everything is deterministic in `(stride, seed, budget)` and the tick
//!   sequence — no wall clock, no global state — which is what makes the
//!   differential profile tests possible.
//! - [`SpanTimeline`]: stitches `ReencodeBegin`/`ReencodeEnd` journal
//!   events into spans with phase attribution and a pause histogram — the
//!   metric the concurrent incremental re-encoding item is gated on.
//! - [`FlameGraph`]: weighted collapsed stacks in the common
//!   `a;b;c weight` text format plus a JSON rendering, with merge keyed
//!   by content-addressed lineage hash so shared-lineage tenants
//!   aggregate under one key.

use std::collections::BTreeMap;

use crate::event::{EventKind, EventRecord};
use crate::metrics::{Histogram, HistogramSnapshot};

/// Number of base strides per adaptation window of the rate controller.
const WINDOW_STRIDES: u64 = 16;

/// Hard cap on how far the controller may back off: the effective stride
/// never exceeds `base_stride << MAX_BACKOFF_SHIFT`.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// A deterministic, budget-bounded event-count sampler.
///
/// One instance lives per thread. Every encoding event (a call, in this
/// runtime) ticks the sampler; when the jittered countdown reaches zero
/// the tick fires and returns the number of events the sample stands for
/// (its weight). A stride of 0 disables the sampler entirely: ticks cost
/// one branch and never fire.
///
/// # Example
///
/// ```
/// use dacce_obs::profiler::Sampler;
///
/// let mut s = Sampler::new(50, 7, 64);
/// let fired: u32 = (0..1000).filter(|_| s.tick().is_some()).count() as u32;
/// assert!(fired >= 10 && fired <= 30, "~1000/50 samples, got {fired}");
/// assert!(Sampler::new(0, 7, 64).tick().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Sampler {
    /// Configured base stride; 0 disables the sampler.
    stride: u64,
    /// Current backed-off stride (≥ `stride`).
    effective: u64,
    /// xorshift64 state; never zero.
    rng: u64,
    /// Events until the next fire.
    countdown: u64,
    /// Gap length the running countdown was drawn with (the weight the
    /// next fire reports).
    gap: u64,
    /// Events ticked in the current adaptation window.
    window_events: u64,
    /// Samples fired in the current adaptation window.
    window_samples: u64,
    /// Max samples per window before the controller backs off; 0 means
    /// unbounded (the controller is inert).
    budget: u64,
    /// Total samples fired.
    taken: u64,
    /// Events ticked up to the last fire; the in-flight remainder is
    /// `gap - countdown` (see [`Sampler::seen`]). Keeping this fire-side
    /// leaves the per-tick hot path a single decrement and branch.
    seen: u64,
}

impl Sampler {
    /// Creates a sampler with the given base `stride` (0 = disabled),
    /// jitter `seed`, and per-window sample `budget` (0 = unbounded).
    #[must_use]
    pub fn new(stride: u64, seed: u64, budget: u64) -> Sampler {
        let mut s = Sampler {
            stride,
            effective: stride.max(1),
            rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            countdown: 0,
            gap: 0,
            window_events: 0,
            window_samples: 0,
            budget,
            taken: 0,
            seen: 0,
        };
        if stride > 0 {
            s.rearm();
        }
        s
    }

    /// Whether the sampler can ever fire.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.stride > 0
    }

    /// The configured base stride.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The current backed-off stride (equals the base stride until the
    /// budget controller intervenes).
    #[must_use]
    pub fn effective_stride(&self) -> u64 {
        self.effective
    }

    /// Total samples fired so far.
    #[must_use]
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Total events ticked so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen + (self.gap - self.countdown)
    }

    /// Events left until the next fire (0 when disabled).
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.countdown
    }

    /// Advances the sampler past `n` events at once without firing —
    /// batch drivers hoist the per-event tick when a whole batch fits
    /// inside the current gap. Callers must ensure `n < remaining()`;
    /// larger skips are clamped to stop one event short of the fire (a
    /// `debug_assert` catches the misuse), which would desynchronise the
    /// schedule from an equivalent tick sequence.
    pub fn skip(&mut self, n: u64) {
        if self.stride == 0 || n == 0 {
            return;
        }
        debug_assert!(n < self.countdown, "skip({n}) reaches a fire");
        self.countdown -= n.min(self.countdown.saturating_sub(1));
    }

    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Draws the next jittered gap and arms the countdown with it.
    fn rearm(&mut self) {
        let span = (self.effective / 2).max(1);
        let offset = self.next_rng() % span;
        self.gap = (self.effective - span / 2 + offset).max(1);
        self.countdown = self.gap;
    }

    /// Rolls the adaptation window if due: over budget doubles the
    /// effective stride (bounded), under half budget halves it back
    /// toward the configured stride.
    fn maybe_adapt(&mut self) {
        if self.window_events < WINDOW_STRIDES * self.stride {
            return;
        }
        if self.budget > 0 {
            if self.window_samples > self.budget {
                let cap = self.stride << MAX_BACKOFF_SHIFT;
                self.effective = (self.effective * 2).min(cap.max(self.stride));
            } else if self.window_samples * 2 <= self.budget && self.effective > self.stride {
                self.effective = (self.effective / 2).max(self.stride);
            }
        }
        self.window_events = 0;
        self.window_samples = 0;
    }

    /// Advances the sampler by one event. Returns the sample weight (the
    /// gap this fire closes, in events) when the sample fires.
    ///
    /// The non-firing path — all but ~1/stride of calls — is one branch,
    /// one decrement and one branch; all bookkeeping lives on the fire
    /// path, reconstructed from the consumed gap.
    #[inline]
    pub fn tick(&mut self) -> Option<u64> {
        if self.stride == 0 {
            return None;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        Some(self.fire())
    }

    /// The sample just fired: settle the gap's worth of tick bookkeeping,
    /// adapt if a window closed, and re-arm.
    #[cold]
    fn fire(&mut self) -> u64 {
        let weight = self.gap;
        self.seen += weight;
        self.window_events += weight;
        self.taken += 1;
        self.window_samples += 1;
        self.maybe_adapt();
        self.rearm();
        weight
    }
}

/// FNV-1a over a stream of `u64` values, folded to 32 bits — the ccStack
/// fingerprint stamped on `Sample` events. Stable across runs and
/// platforms; collisions only cost correlation precision, never
/// correctness.
#[must_use]
pub fn fingerprint64(values: impl IntoIterator<Item = u64>) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    #[allow(clippy::cast_possible_truncation)]
    {
        (h ^ (h >> 32)) as u32
    }
}

/// One stitched re-encode span: a `ReencodeBegin` matched with the next
/// `ReencodeEnd` on the same thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReencodeSpan {
    /// Thread that ran the re-encode.
    pub tid: u32,
    /// Generation being superseded (from the begin event).
    pub from_generation: u32,
    /// Generation in force after the attempt (from the end event).
    pub to_generation: u32,
    /// Whether the new encoding was published.
    pub applied: bool,
    /// Abstract cost charged for the attempt.
    pub cost: u64,
    /// Sequence numbers bounding the span.
    pub begin_seq: u64,
    /// End-event sequence number.
    pub end_seq: u64,
    /// Journal-epoch nanoseconds at begin.
    pub begin_nanos: u64,
    /// Journal-epoch nanoseconds at end.
    pub end_nanos: u64,
}

impl ReencodeSpan {
    /// Wall-clock pause the span represents (what threads blocked on the
    /// shared state during the re-encode experience).
    #[must_use]
    pub fn pause_ns(&self) -> u64 {
        self.end_nanos.saturating_sub(self.begin_nanos)
    }

    /// Phase attribution: what the attempt amounted to.
    #[must_use]
    pub fn phase(&self) -> &'static str {
        if self.applied {
            "applied"
        } else {
            "aborted"
        }
    }
}

/// Re-encode spans stitched out of a journal stream, plus the begin/end
/// events that could not be paired (lost halves from ring overwrites).
#[derive(Clone, Debug, Default)]
pub struct SpanTimeline {
    /// Stitched spans, ascending by begin sequence number.
    pub spans: Vec<ReencodeSpan>,
    /// `ReencodeBegin` events whose end was never seen.
    pub unmatched_begins: u64,
    /// `ReencodeEnd` events whose begin was never seen.
    pub unmatched_ends: u64,
}

impl SpanTimeline {
    /// Stitches begin/end events from a seq-ordered stream into spans.
    /// Pairing is per-thread: a begin matches the next end on the same
    /// tid. Re-encodes never nest in this runtime, so an unmatched begin
    /// followed by another begin on the same thread means the first end
    /// was dropped — the stale begin is discarded and counted.
    #[must_use]
    pub fn stitch(events: &[EventRecord]) -> SpanTimeline {
        let mut open: BTreeMap<u32, (u32, u64, u64)> = BTreeMap::new();
        let mut timeline = SpanTimeline::default();
        for ev in events {
            match ev.kind {
                EventKind::ReencodeBegin { generation }
                    if open
                        .insert(ev.tid, (generation, ev.seq, ev.nanos))
                        .is_some() =>
                {
                    timeline.unmatched_begins += 1;
                }
                EventKind::ReencodeEnd {
                    generation,
                    applied,
                    cost,
                    ..
                } => match open.remove(&ev.tid) {
                    Some((from_generation, begin_seq, begin_nanos)) => {
                        timeline.spans.push(ReencodeSpan {
                            tid: ev.tid,
                            from_generation,
                            to_generation: generation,
                            applied,
                            cost,
                            begin_seq,
                            end_seq: ev.seq,
                            begin_nanos,
                            end_nanos: ev.nanos,
                        });
                    }
                    None => timeline.unmatched_ends += 1,
                },
                _ => {}
            }
        }
        timeline.unmatched_begins += open.len() as u64;
        timeline.spans.sort_unstable_by_key(|s| s.begin_seq);
        timeline
    }

    /// Log₂ histogram of span pauses in nanoseconds.
    #[must_use]
    pub fn pause_histogram(&self) -> HistogramSnapshot {
        let h = Histogram::default();
        for span in &self.spans {
            h.observe(span.pause_ns());
        }
        h.snapshot()
    }

    /// `(applied, aborted)` span counts.
    #[must_use]
    pub fn phase_counts(&self) -> (u64, u64) {
        let applied = self.spans.iter().filter(|s| s.applied).count() as u64;
        (applied, self.spans.len() as u64 - applied)
    }

    /// The last `n` spans (most recent by begin seq), oldest first.
    #[must_use]
    pub fn last(&self, n: usize) -> &[ReencodeSpan] {
        let start = self.spans.len().saturating_sub(n);
        &self.spans[start..]
    }
}

/// Collapsed-stack flame graph: weighted stacks keyed `root;…;leaf`,
/// tagged with the content-addressed lineage hash of the encoding that
/// produced them so fleet-wide merges aggregate shared-lineage tenants
/// under one key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlameGraph {
    /// Content hash of the encoding lineage the samples decode under
    /// (0 when unknown / not lineage-tracked).
    pub lineage: u64,
    folds: BTreeMap<String, u64>,
}

/// Header prefix of the collapsed-stack text format.
const FLAME_HEADER: &str = "# dacce-flame v1 lineage=";

impl FlameGraph {
    /// An empty graph tagged with `lineage`.
    #[must_use]
    pub fn new(lineage: u64) -> FlameGraph {
        FlameGraph {
            lineage,
            folds: BTreeMap::new(),
        }
    }

    /// Adds one stack (root first) with the given weight, saturating at
    /// `u64::MAX`. Frame names are sanitised: `;`, whitespace and control
    /// characters become `_` so the collapsed text format stays parseable.
    pub fn add<S: AsRef<str>>(&mut self, frames: &[S], weight: u64) {
        if frames.is_empty() || weight == 0 {
            return;
        }
        let key = frames
            .iter()
            .map(|f| sanitise_frame(f.as_ref()))
            .collect::<Vec<_>>()
            .join(";");
        let w = self.folds.entry(key).or_insert(0);
        *w = w.saturating_add(weight);
    }

    /// Total weight across all stacks, saturating at `u64::MAX` (only a
    /// graph built by [`FlameGraph::add`] can get there: parsing and
    /// merging refuse totals past it).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.folds.values().fold(0, |sum, &w| sum.saturating_add(w))
    }

    /// Number of distinct stacks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// True when no stack has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// The folded `(stack, weight)` rows, ascending by stack key.
    pub fn folds(&self) -> impl Iterator<Item = (&str, u64)> {
        self.folds.iter().map(|(k, &w)| (k.as_str(), w))
    }

    /// Merges another graph's stacks into this one. The lineage tag is
    /// kept when equal and zeroed when the graphs disagree (a mixed
    /// merge no longer content-addresses one encoding history).
    ///
    /// # Errors
    /// Returns a description, leaving `self` unchanged, when the merged
    /// total weight would exceed `u64::MAX`.
    pub fn merge(&mut self, other: &FlameGraph) -> Result<(), String> {
        // Every stack's weight is at most its graph's total, so a merged
        // total that fits means no per-stack sum can overflow either.
        if self.total().checked_add(other.total()).is_none() {
            return Err(String::from("merged flame weights exceed u64::MAX"));
        }
        if self.lineage != other.lineage {
            self.lineage = 0;
        }
        for (k, &w) in &other.folds {
            *self.folds.entry(k.clone()).or_insert(0) += w;
        }
        Ok(())
    }

    /// Renders the graph in the collapsed-stack text format understood
    /// by standard flamegraph tooling, preceded by a lineage header:
    ///
    /// ```text
    /// # dacce-flame v1 lineage=00000000deadbeef
    /// main;parse 12
    /// main;run;step 40
    /// ```
    #[must_use]
    pub fn to_collapsed(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{FLAME_HEADER}{:016x}\n", self.lineage);
        for (stack, weight) in &self.folds {
            let _ = writeln!(out, "{stack} {weight}");
        }
        out
    }

    /// Renders the graph as a JSON object:
    /// `{"lineage":"…","total":N,"stacks":[{"stack":"a;b","weight":N}…]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"lineage\":\"{:016x}\",\"total\":{},\"stacks\":[",
            self.lineage,
            self.total()
        );
        for (i, (stack, weight)) in self.folds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{{\"stack\":\"{stack}\",\"weight\":{weight}}}");
        }
        out.push_str("\n]}");
        out
    }

    /// Parses the collapsed-stack text produced by
    /// [`FlameGraph::to_collapsed`].
    ///
    /// # Errors
    /// Returns a description of the first malformed line, or of the
    /// first line that takes the file's total weight past `u64::MAX`.
    pub fn parse(text: &str) -> Result<FlameGraph, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty flame file")?;
        let lineage_hex = header
            .strip_prefix(FLAME_HEADER)
            .ok_or_else(|| format!("missing `{FLAME_HEADER}` header, got: {header}"))?;
        let lineage = u64::from_str_radix(lineage_hex.trim(), 16)
            .map_err(|_| format!("bad lineage hex `{lineage_hex}`"))?;
        let mut graph = FlameGraph::new(lineage);
        let mut total = 0u64;
        for line in lines {
            if line.starts_with('#') {
                continue;
            }
            let (stack, weight) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed flame line: {line}"))?;
            let weight: u64 = weight
                .trim()
                .parse()
                .map_err(|_| format!("bad weight in flame line: {line}"))?;
            if stack.is_empty() {
                return Err(format!("empty stack in flame line: {line}"));
            }
            // The total bounds every stack's sum, so checking it suffices.
            total = total
                .checked_add(weight)
                .ok_or_else(|| format!("total weight exceeds u64::MAX at flame line: {line}"))?;
            *graph.folds.entry(stack.to_string()).or_insert(0) += weight;
        }
        Ok(graph)
    }
}

fn sanitise_frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Fleet-wide merge: groups graphs by lineage hash and merges each
/// group, returning one graph per distinct lineage, ascending by hash.
/// Shared-lineage tenants therefore aggregate under one key.
///
/// # Errors
/// Returns a description when a group's total weight exceeds `u64::MAX`.
pub fn merge_by_lineage(
    graphs: impl IntoIterator<Item = FlameGraph>,
) -> Result<Vec<FlameGraph>, String> {
    let mut by_lineage: BTreeMap<u64, FlameGraph> = BTreeMap::new();
    for g in graphs {
        match by_lineage.get_mut(&g.lineage) {
            Some(acc) => acc.merge(&g)?,
            None => {
                by_lineage.insert(g.lineage, g);
            }
        }
    }
    Ok(by_lineage.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_in_its_parameters() {
        let mut a = Sampler::new(97, 42, 8);
        let mut b = Sampler::new(97, 42, 8);
        let fires_a: Vec<(u64, Option<u64>)> = (0..5000).map(|i| (i, a.tick())).collect();
        let fires_b: Vec<(u64, Option<u64>)> = (0..5000).map(|i| (i, b.tick())).collect();
        assert_eq!(fires_a, fires_b);
        assert!(a.taken() > 0);
        let mut c = Sampler::new(97, 43, 8);
        let fires_c: Vec<(u64, Option<u64>)> = (0..5000).map(|i| (i, c.tick())).collect();
        assert_ne!(fires_a, fires_c, "different seed, different jitter");
    }

    #[test]
    fn sampler_stride_zero_never_fires() {
        let mut s = Sampler::new(0, 123, 8);
        assert!(!s.is_enabled());
        for _ in 0..10_000 {
            assert!(s.tick().is_none());
        }
        assert_eq!(s.taken(), 0);
        assert_eq!(s.seen(), 0);
    }

    #[test]
    fn sampler_weights_cover_the_event_stream() {
        let mut s = Sampler::new(50, 9, 0);
        let mut weight_sum = 0;
        for _ in 0..10_000 {
            if let Some(w) = s.tick() {
                // Jitter stays within half a stride of the effective rate.
                assert!((25..=75).contains(&w), "gap {w} out of jitter bounds");
                weight_sum += w;
            }
        }
        // Total weight equals the events consumed by completed gaps.
        assert!(weight_sum <= s.seen());
        assert!(weight_sum + 75 >= s.seen());
    }

    #[test]
    fn sampler_budget_backs_off_and_recovers() {
        // Budget 1 sample per 16-stride window forces immediate backoff.
        let mut s = Sampler::new(10, 5, 1);
        for _ in 0..100_000 {
            s.tick();
        }
        assert!(
            s.effective_stride() > 10,
            "controller never backed off: {}",
            s.effective_stride()
        );
        assert!(s.effective_stride() <= 10 << MAX_BACKOFF_SHIFT);
        // An unbounded budget never adapts.
        let mut free = Sampler::new(10, 5, 0);
        for _ in 0..100_000 {
            free.tick();
        }
        assert_eq!(free.effective_stride(), 10);
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        assert_eq!(fingerprint64([1, 2, 3]), fingerprint64([1, 2, 3]));
        assert_ne!(fingerprint64([1, 2, 3]), fingerprint64([3, 2, 1]));
        assert_ne!(fingerprint64([]), fingerprint64([0]));
    }

    fn ev(seq: u64, tid: u32, kind: EventKind) -> EventRecord {
        EventRecord {
            seq,
            nanos: seq * 100,
            tid,
            kind,
        }
    }

    #[test]
    fn timeline_stitches_interleaved_threads() {
        let events = vec![
            ev(1, 0, EventKind::ReencodeBegin { generation: 1 }),
            ev(2, 1, EventKind::ReencodeBegin { generation: 1 }),
            ev(
                3,
                1,
                EventKind::ReencodeEnd {
                    generation: 2,
                    applied: true,
                    cost: 10,
                    nodes: 4,
                    edges: 3,
                    max_id: 9,
                },
            ),
            ev(
                4,
                0,
                EventKind::ReencodeEnd {
                    generation: 1,
                    applied: false,
                    cost: 3,
                    nodes: 0,
                    edges: 0,
                    max_id: 0,
                },
            ),
        ];
        let tl = SpanTimeline::stitch(&events);
        assert_eq!(tl.spans.len(), 2);
        assert_eq!(tl.unmatched_begins, 0);
        assert_eq!(tl.unmatched_ends, 0);
        assert_eq!(tl.spans[0].tid, 0);
        assert_eq!(tl.spans[0].pause_ns(), 300);
        assert_eq!(tl.spans[0].phase(), "aborted");
        assert_eq!(tl.spans[1].tid, 1);
        assert_eq!(tl.spans[1].phase(), "applied");
        assert_eq!(tl.phase_counts(), (1, 1));
        assert_eq!(tl.pause_histogram().count, 2);
        assert_eq!(tl.last(1)[0].tid, 1);
    }

    #[test]
    fn timeline_counts_lost_halves() {
        let events = vec![
            ev(1, 0, EventKind::ReencodeBegin { generation: 1 }),
            ev(2, 0, EventKind::ReencodeBegin { generation: 2 }),
            ev(
                3,
                7,
                EventKind::ReencodeEnd {
                    generation: 9,
                    applied: true,
                    cost: 1,
                    nodes: 1,
                    edges: 1,
                    max_id: 1,
                },
            ),
        ];
        let tl = SpanTimeline::stitch(&events);
        assert!(tl.spans.is_empty());
        // First begin evicted by the second, second never closed.
        assert_eq!(tl.unmatched_begins, 2);
        assert_eq!(tl.unmatched_ends, 1);
    }

    #[test]
    fn flame_roundtrips_collapsed_text() {
        let mut g = FlameGraph::new(0xdead_beef);
        g.add(&["main", "run", "step"], 40);
        g.add(&["main", "parse"], 12);
        g.add(&["main", "parse"], 3);
        g.add(&["weird name", "semi;colon"], 1);
        let text = g.to_collapsed();
        let back = FlameGraph::parse(&text).expect("parse");
        assert_eq!(back, g);
        assert_eq!(back.total(), 56);
        assert_eq!(back.len(), 3);
        assert!(text.contains("weird_name;semi_colon 1"));
        assert!(g.to_json().contains("\"total\":56"));
        assert!(FlameGraph::parse("").is_err());
        assert!(FlameGraph::parse("no header\nmain 1").is_err());
        // Weight sums past u64::MAX are errors, for one stack or across
        // stacks; a total of exactly u64::MAX still parses.
        let header = "# dacce-flame v1 lineage=0000000000000001\n";
        let max = u64::MAX;
        assert!(FlameGraph::parse(&format!("{header}m;a {max}\nm;a 1\n")).is_err());
        assert!(FlameGraph::parse(&format!("{header}m;a {max}\nm;b 1\n")).is_err());
        let full = FlameGraph::parse(&format!("{header}m;a {}\nm;b 1\n", max - 1));
        assert_eq!(full.map(|g| g.total()), Ok(max));
        // Stacks added past u64::MAX saturate instead of wrapping.
        let mut sat = FlameGraph::new(0);
        sat.add(&["m", "a"], max);
        sat.add(&["m", "a"], 1);
        sat.add(&["m", "b"], max);
        assert_eq!(sat.total(), max);
    }

    /// Every truncation, single-byte deletion and single-byte replacement
    /// of a rendered flame file parses or fails with a description, and
    /// merging any mutant that parses with the original or the previous
    /// such mutant finishes either way.
    #[test]
    fn every_single_byte_mutation_is_a_typed_error() {
        let mut g = FlameGraph::new(0x00c0_ffee_dead_beef);
        g.add(&["main", "run", "step"], 40);
        g.add(&["main", "parse"], 12);
        g.add(&["main", "io"], u64::MAX / 2);
        let text = g.to_collapsed();
        let mut previous = g.clone();
        let mut check = |mutant: String| {
            if let Ok(parsed) = FlameGraph::parse(&mutant) {
                let _ = previous.clone().merge(&parsed);
                let _ = g.clone().merge(&parsed);
                let _ = parsed.clone().merge(&g);
                let _ = (parsed.total(), parsed.to_json(), parsed.to_collapsed());
                previous = parsed;
            }
        };
        for i in 0..text.len() {
            check(text[..i].to_string());
            check(format!("{}{}", &text[..i], &text[i + 1..]));
            for c in ["é", "9", ";", " ", "\n", "#", "-", "18446744073709551616"] {
                check(format!("{}{c}{}", &text[..i], &text[i + 1..]));
            }
        }
    }

    #[test]
    fn lineage_merge_groups_shared_lineages() {
        let mut a = FlameGraph::new(1);
        a.add(&["m", "x"], 5);
        let mut b = FlameGraph::new(1);
        b.add(&["m", "x"], 7);
        b.add(&["m", "y"], 2);
        let mut c = FlameGraph::new(2);
        c.add(&["m"], 1);
        let merged = merge_by_lineage([a, b, c]).expect("totals fit");
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].lineage, 1);
        assert_eq!(merged[0].total(), 14);
        assert_eq!(
            merged[0].folds().find(|&(k, _)| k == "m;x").map(|f| f.1),
            Some(12)
        );
        assert_eq!(merged[1].lineage, 2);
        // Cross-lineage merge drops the content address.
        let mut mixed = merged[0].clone();
        mixed.merge(&merged[1]).expect("totals fit");
        assert_eq!(mixed.lineage, 0);
        assert_eq!(mixed.total(), 15);
        // A merge past u64::MAX is refused and leaves the graph as it was.
        let mut big = FlameGraph::new(1);
        big.add(&["m", "x"], u64::MAX - 1);
        let before = big.clone();
        assert!(big.merge(&merged[0]).is_err());
        assert_eq!(big, before);
        let mut other = FlameGraph::new(1);
        other.add(&["m", "y"], 2);
        assert!(big.merge(&other).is_err());
        assert!(merge_by_lineage([before, other]).is_err());
    }
}
