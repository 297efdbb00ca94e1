//! Summaries: the e2e metrics of an untraced run and the per-layer
//! metrics of a traced one.

use std::collections::BTreeMap;

use crate::bench::{LayerExtras, Metric};
use crate::trace::{Layer, Phase, Tracer};

/// One measured round.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// `setup`, `encode` or `offline`.
    pub kind: &'static str,
    /// Round duration (set-up time for set-ups).
    pub ns: u64,
    /// Units of work: events (encode), journal ops (offline).
    pub work: u64,
    /// Encode rounds: time in call and return events.
    pub encode_ns: u64,
}

/// The slow-side share a run reports of per-round rates (their slow
/// decile) and of per-block p50 latencies (their slow decile, quantile
/// `1 - SLOW`), so host-speed bursts covering up to nine tenths of a run
/// do not move them.
pub const SLOW: f64 = 0.1;

/// The quantile a run reports of per-block p99 latencies (their slow
/// quartile). A block's p99 already sits in the tail, where a short stall
/// lands; the slow decile of those picks up the stalls, and spread more
/// across runs than the slow quartile.
pub const SLOW_TAIL: f64 = 0.75;

/// `run_batch` latencies per block.
pub const BATCH_BLOCK: usize = 5_000;

/// Query latencies per block.
pub const QUERY_BLOCK: usize = 2_000;

/// Latency percentiles over consecutive blocks of at least `min` samples
/// (at least 1,000, so each block's p99 has ten samples beyond it). Rounds
/// fold in as they end, so memory stays constant however many rounds a
/// run makes.
#[derive(Debug)]
pub struct LatencyBlocks {
    min: usize,
    open: Vec<u64>,
    /// `(p50, p99)` of each closed block.
    pub blocks: Vec<(f64, f64)>,
}

impl LatencyBlocks {
    /// Blocks of at least `min` samples.
    pub fn new(min: usize) -> Self {
        LatencyBlocks {
            min,
            open: Vec::with_capacity(2 * min),
            blocks: Vec::new(),
        }
    }

    /// Adds one round's latencies.
    pub fn add(&mut self, ns: &[u64]) {
        self.open.extend_from_slice(ns);
        if self.open.len() >= self.min {
            self.close();
        }
    }

    fn close(&mut self) {
        self.open.sort_unstable();
        self.blocks
            .push((quantile_ns(&self.open, 0.5), quantile_ns(&self.open, 0.99)));
        self.open.clear();
    }

    /// The slow decile of the blocks' p50 and the slow quartile of their
    /// p99 (a run too short to fill a block gets one block of what it has).
    pub fn summary(&mut self) -> (f64, f64) {
        if self.blocks.is_empty() && !self.open.is_empty() {
            self.close();
        }
        let p50 = sorted(self.blocks.iter().map(|b| b.0).collect());
        let p99 = sorted(self.blocks.iter().map(|b| b.1).collect());
        (quantile(&p50, 1.0 - SLOW), quantile(&p99, SLOW_TAIL))
    }
}

/// The `q`-quantile of `len` sorted values read through `at`, by linear
/// interpolation (0 when empty).
fn interpolate(len: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let (a, b) = (at(lo), at(pos.ceil() as usize));
    a + (b - a) * (pos - lo as f64)
}

/// The `q`-quantile of sorted `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    interpolate(v.len(), q, |i| v[i])
}

/// The `q`-quantile of sorted nanosecond samples.
pub fn quantile_ns(v: &[u64], q: f64) -> f64 {
    interpolate(v.len(), q, |i| v[i] as f64)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The e2e metrics of an untraced run.
pub fn end_to_end(
    rounds: &[Round],
    batches: (f64, f64),
    queries: (f64, f64),
    hwm_kb: u64,
) -> Vec<Metric> {
    let of = |kind: &'static str| rounds.iter().filter(move |r| r.kind == kind);
    let setup = sorted(of("setup").map(|r| r.ns as f64).collect());
    let encode = sorted(
        of("encode")
            .map(|r| r.work as f64 * 1e3 / r.encode_ns as f64)
            .collect(),
    );
    let offline = sorted(
        of("offline")
            .map(|r| r.work as f64 * 1e3 / r.ns as f64)
            .collect(),
    );
    vec![
        metric("setup_s", quantile(&setup, 0.5) / 1e9, "s"),
        metric("encode_mev_s", quantile(&encode, SLOW), "Mev/s"),
        metric("batch_p50_us", batches.0 / 1e3, "us"),
        metric("batch_p99_us", batches.1 / 1e3, "us"),
        metric("query_p50_ns", queries.0, "ns"),
        metric("query_p99_ns", queries.1, "ns"),
        metric("offline_mops_s", quantile(&offline, SLOW), "Mops/s"),
        metric("peak_rss_mb", hwm_kb as f64 / 1024.0, "MB"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(tr: &Tracer, c: &BTreeMap<String, u64>, x: &LayerExtras<'_>) -> Vec<Metric> {
    let enc = |l| tr.get(Phase::Encode, l);
    let batch = enc(Layer::RunBatch);
    let guard = enc(Layer::Guard);
    let sample = enc(Layer::Sample);
    let decode = enc(Layer::Decode);
    let register = tr.all(Layer::Register);
    let mine = tr.get(Phase::Setup, Layer::Mine);
    let install = tr.get(Phase::Setup, Layer::Install);
    let parse = tr.get(Phase::Offline, Layer::Parse);
    let import = tr.get(Phase::Offline, Layer::Import);
    let decode_serial = tr.get(Phase::Offline, Layer::DecodeSerial);
    // Server-steady: adaptive-path counts per set-up, fast-path counts per
    // timed round. Episode workloads: everything per episode.
    let count = |k: &str| {
        let setup_side = matches!(
            k,
            "patch.traps"
                | "reencode.count"
                | "reencode.cost_units"
                | "tracker.slow_locks"
                | "dispatch.hash_conversions"
                | "superop.installed"
        );
        let keys = if setup_side {
            [format!("setup.{k}"), format!("episode.{k}")]
        } else {
            [format!("round.{k}"), format!("episode.{k}")]
        };
        keys.iter().find_map(|k| c.get(k)).copied().unwrap_or(0) as f64
    };
    let mut round_total = 0u64;
    let mut round_self = 0u64;
    for p in [Phase::Setup, Phase::Encode, Phase::Offline] {
        let r = tr.get(p, Layer::Round);
        round_total += r.total_ns;
        round_self += r.self_ns;
    }
    let median = |v: &[f64]| quantile(&sorted(v.to_vec()), 0.5);
    let forced: Vec<f64> = x.forced_ns.iter().map(|&n| n as f64).collect();
    vec![
        metric(
            "tracker.run_batch.ns_per_op",
            ratio(batch.self_ns as f64, batch.ops as f64),
            "ns",
        ),
        metric(
            "tracker.run_batch.slow_share",
            ratio(batch.slow_ns as f64, batch.total_ns as f64),
            "ratio",
        ),
        metric("patch.traps", count("patch.traps"), "count"),
        metric("tracker.slow_locks", count("tracker.slow_locks"), "count"),
        metric("reencode.count", count("reencode.count"), "count"),
        metric("reencode.cost_units", count("reencode.cost_units"), "count"),
        metric("reencode.forced_us", median(&forced) / 1e3, "us"),
        metric(
            "tracker.guard.ns_per_op",
            ratio(guard.self_ns as f64, guard.ops as f64),
            "ns",
        ),
        metric(
            "dispatch.icache_hit_ratio",
            ratio(
                count("dispatch.icache_hits"),
                count("dispatch.icache_hits") + count("dispatch.icache_misses"),
            ),
            "ratio",
        ),
        metric(
            "dispatch.hash_conversions",
            count("dispatch.hash_conversions"),
            "count",
        ),
        metric(
            "superop.hit_ratio",
            ratio(
                count("superop.hits"),
                count("superop.hits") + count("superop.misses"),
            ),
            "ratio",
        ),
        metric("superop.installed", count("superop.installed"), "count"),
        metric(
            "superop.mine_ms",
            ratio(mine.total_ns as f64, mine.count as f64) / 1e6,
            "ms",
        ),
        metric(
            "superop.install_ms",
            ratio(install.total_ns as f64, install.count as f64) / 1e6,
            "ms",
        ),
        metric(
            "ccstack.ops_per_event",
            ratio(count("ccstack.ops"), x.events_per_pass as f64),
            "ratio",
        ),
        metric(
            "ccstack.compress_hits",
            count("ccstack.compress_hits"),
            "count",
        ),
        metric(
            "tracker.register.us",
            ratio(register.self_ns as f64, register.count as f64) / 1e3,
            "us",
        ),
        metric("obs.ring.kb_per_thread", x.ring_kb, "kB"),
        metric(
            "tracker.sample.ns",
            ratio(sample.self_ns as f64, sample.count as f64),
            "ns",
        ),
        metric(
            "tracker.decode.ns",
            ratio(decode.self_ns as f64, decode.count as f64),
            "ns",
        ),
        metric(
            "decode.depth_mean",
            ratio(x.depth.0 as f64, x.depth.1 as f64),
            "frames",
        ),
        metric(
            "fragment.parse.ms",
            ratio(parse.total_ns as f64, parse.count as f64) / 1e6,
            "ms",
        ),
        metric(
            "export.import.ms",
            ratio(import.total_ns as f64, import.count as f64) / 1e6,
            "ms",
        ),
        metric(
            "fragment.decode_serial.ns_per_op",
            ratio(decode_serial.self_ns as f64, decode_serial.ops as f64),
            "ns",
        ),
        metric(
            "traced.unattributed_share",
            ratio(round_self as f64, round_total as f64),
            "ratio",
        ),
        metric(
            "traced.overhead_share",
            ratio(median(x.traced_ns), median(x.twin_ns)) - 1.0,
            "ratio",
        ),
    ]
}
