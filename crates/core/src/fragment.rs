//! Fragment-parallel offline decode.
//!
//! A [`DecodeJournal`] is a per-thread stream of *state effects* recorded
//! from a live [`crate::tracker::Tracker`] run: every call/return event is
//! journaled as the delta it applied to the thread's encoding state
//! (`id` arithmetic, ccStack push/pop, compressed-recursion count bump),
//! and anything the delta grammar cannot express — a lazy migration after
//! a re-encode generation bump, a TcStack absolute restore — is journaled
//! as a full-state [`JournalOp::Resync`] record. The recorder verifies
//! every derived effect against the live thread state *at record time*
//! (see [`ThreadRecorder`]), so replaying the journal from the entry state
//! reproduces the runtime's encoding states exactly, op for op.
//!
//! That exactness is what makes the journal splittable. At balanced-frame
//! boundaries the recorder emits [`SeamSeed`]s — the complete encoding
//! state (generation timestamp, `id`, ccStack, leaf, spawn link) at that
//! op index. [`decode_parallel`] cuts the stream at the seams, replays
//! the fragments concurrently on a worker pool, each from its own seed,
//! and then runs an explicit seam-verification pass: a fragment's seed is
//! *proven* iff it equals the verified exit state of the previous
//! fragment (the entry state proves fragment 0 by definition). A fragment
//! whose seed cannot be proven — a corrupted seam record, a fragment that
//! failed mid-replay — is re-decoded serially from the last verified
//! state, so the parallel output is byte-identical to [`decode_serial`]
//! in every case; the fallback only costs throughput. The proof chain
//! crosses re-encode generation bumps and degraded/sub-path-band records
//! unchanged, because seeds are complete states, not deltas.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use dacce_callgraph::{CallSiteId, FunctionId, TimeStamp};

use crate::ccstack::CcEntry;
use crate::codec::{self, push_decimal, write_ctx, Lexer};
use crate::context::EncodedContext;
use crate::export::{ImportError, OfflineDecoder};

/// Header line of the journal format.
pub(crate) const HEADER: &str = "dacce-journal v1";

/// One journaled event of a thread: a call or return together with the
/// verified effect it had on the thread's encoding state, a decode point,
/// or a full-state resync. The effect kind is part of the variant, so an
/// op takes 24 bytes (a journal holds millions of them).
#[derive(Clone, Debug, PartialEq)]
pub enum JournalOp {
    /// A call through `site` to `target` on an encoded edge: `id` moved by
    /// `delta` (wrapping).
    CallArith {
        /// The call site.
        site: CallSiteId,
        /// The callee.
        target: FunctionId,
        /// Wrapping increment applied to `id`.
        delta: u64,
    },
    /// A call on an unencoded edge: the pre-call `id` was pushed with the
    /// site and target, and `id` became `id` (the sub-path band start,
    /// `maxID+1` of the generation that executed the call).
    CallPush {
        /// The call site.
        site: CallSiteId,
        /// The callee.
        target: FunctionId,
        /// The `id` value after the push.
        id: u64,
    },
    /// A compressed-recursion hit: the top entry's repetition count was
    /// bumped instead of pushing a duplicate.
    CallCompress {
        /// The call site.
        site: CallSiteId,
        /// The callee.
        target: FunctionId,
        /// The `id` value after the compressed push.
        id: u64,
    },
    /// A return to `caller` over an encoded edge: `id` moved back by
    /// `delta` (wrapping).
    RetArith {
        /// The function control returned to.
        caller: FunctionId,
        /// Wrapping decrement applied to `id`.
        delta: u64,
    },
    /// A return over an unencoded edge: the top ccStack entry was popped
    /// and its saved `id` restored.
    RetPop {
        /// The function control returned to.
        caller: FunctionId,
    },
    /// A compressed-recursion unwind: the top entry's repetition count was
    /// decremented (staying on the same entry).
    RetUncompress {
        /// The function control returned to.
        caller: FunctionId,
    },
    /// A decode point: the replayed state is decoded and emitted here.
    Sample,
    /// A full-state resynchronisation: the live state stopped being
    /// expressible as a delta (lazy migration after a re-encode, TcStack
    /// absolute restore, ...). Replay adopts the recorded state verbatim.
    /// Boxed: resyncs are rare, and the state inline would more than
    /// double every op.
    Resync(Box<EncodedContext>),
}

// A journal holds millions of ops: a variant that carries more than 16
// bytes inline must be boxed, like `Resync`.
const _: () = assert!(std::mem::size_of::<JournalOp>() <= 24);

/// A fragment boundary seed: the complete encoding state before op `at`.
#[derive(Clone, Debug, PartialEq)]
pub struct SeamSeed {
    /// Op index the seed applies before (`0 < at <= ops.len()`).
    pub at: usize,
    /// The complete encoding state at the seam.
    pub ctx: EncodedContext,
}

/// One thread's journal: entry state, effect ops and seam seeds.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalThread {
    /// The recorded thread's identifier (journal-local).
    pub tid: u64,
    /// The complete encoding state when recording began (carries the
    /// spawn link for threads registered as spawned).
    pub entry: EncodedContext,
    /// The effect stream.
    pub ops: Vec<JournalOp>,
    /// Seam seeds, strictly increasing in `at`.
    pub seams: Vec<SeamSeed>,
}

/// A recorded multi-thread decode journal (`dacce-journal v1`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecodeJournal {
    /// Per-thread journals, in recording order.
    pub threads: Vec<JournalThread>,
}

/// An O(1) probe of the state components a single call/return event can
/// change: generation, `id`, ccStack depth and top entry, and the leaf
/// (current) function. Interior ccStack entries never change without the
/// depth or the generation changing, so matching a signature after
/// applying a candidate effect proves the full state.
#[derive(Clone, Debug, PartialEq)]
pub struct StateSig {
    /// Published generation timestamp the state decodes against.
    pub ts: TimeStamp,
    /// The context id.
    pub id: u64,
    /// ccStack depth.
    pub depth: usize,
    /// The top ccStack entry, if any.
    pub top: Option<CcEntry>,
    /// The currently executing function.
    pub leaf: FunctionId,
}

/// The signature of a full state.
#[must_use]
pub fn sig_of(ctx: &EncodedContext) -> StateSig {
    StateSig {
        ts: ctx.ts,
        id: ctx.id,
        depth: ctx.cc.len(),
        top: ctx.cc.last().copied(),
        leaf: ctx.leaf,
    }
}

fn sig_matches(st: &EncodedContext, sig: &StateSig) -> bool {
    st.ts == sig.ts
        && st.id == sig.id
        && st.cc.len() == sig.depth
        && st.cc.last() == sig.top.as_ref()
        && st.leaf == sig.leaf
}

/// A replay error: the journal is internally inconsistent (an effect does
/// not apply to the state it was recorded against).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentError {
    /// The thread the error occurred in.
    pub tid: u64,
    /// The op index that failed to apply.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread {} op {}: {}", self.tid, self.at, self.msg)
    }
}

impl std::error::Error for FragmentError {}

/// Applies one journaled op to a replayed state.
///
/// # Errors
///
/// Fails when the effect is inconsistent with the state (corrupt or
/// mis-recorded journal) — e.g. a `RetPop` on an empty ccStack or a
/// `CallCompress` whose top entry does not match the recorded edge.
pub fn apply_op(st: &mut EncodedContext, op: &JournalOp) -> Result<(), String> {
    match *op {
        JournalOp::CallArith { target, delta, .. } => {
            st.id = st.id.wrapping_add(delta);
            st.leaf = target;
        }
        JournalOp::CallPush { site, target, id } => {
            st.cc.push(CcEntry {
                id: st.id,
                site,
                target,
                count: 0,
            });
            st.id = id;
            st.leaf = target;
        }
        JournalOp::CallCompress { site, target, id } => {
            let prev_id = st.id;
            let top = st
                .cc
                .last_mut()
                .ok_or_else(|| "compress on empty ccStack".to_string())?;
            if top.site != site || top.target != target || top.id != prev_id {
                return Err(format!(
                    "compress does not match top entry {}:{}:{}",
                    top.id, top.site, top.target
                ));
            }
            top.count = top
                .count
                .checked_add(1)
                .ok_or_else(|| "compress count overflows".to_string())?;
            st.id = id;
            st.leaf = target;
        }
        JournalOp::RetArith { caller, delta } => {
            st.id = st.id.wrapping_sub(delta);
            st.leaf = caller;
        }
        JournalOp::RetPop { caller } => {
            let e = st
                .cc
                .pop()
                .ok_or_else(|| "pop on empty ccStack".to_string())?;
            st.id = e.id;
            st.leaf = caller;
        }
        JournalOp::RetUncompress { caller } => {
            let top = st
                .cc
                .last_mut()
                .ok_or_else(|| "uncompress on empty ccStack".to_string())?;
            if top.count == 0 {
                return Err("uncompress on uncompressed entry".to_string());
            }
            top.count -= 1;
            st.id = top.id;
            st.leaf = caller;
        }
        JournalOp::Sample => {}
        JournalOp::Resync(ref ctx) => st.clone_from(ctx),
    }
    Ok(())
}

/// Records one thread's effect journal against its live tracker state.
///
/// The caller drives the tracker (guards, batches are not supported — the
/// recorder needs per-op state signatures) and reports each event together
/// with the post-op [`StateSig`] and a lazy full-state capture. The
/// recorder derives the candidate effect from its replayed state, applies
/// it and verifies the signature; on any mismatch (migration, TcStack
/// restore, anything unforeseen) it falls back to a [`JournalOp::Resync`]
/// with the full captured state. The journal is therefore *verified at
/// record time*: serial replay reproduces the live states exactly.
#[derive(Debug)]
pub struct ThreadRecorder {
    tid: u64,
    entry: EncodedContext,
    sim: EncodedContext,
    ops: Vec<JournalOp>,
    seams: Vec<SeamSeed>,
    resyncs: u64,
}

impl ThreadRecorder {
    /// Starts recording a thread whose current (entry) state is `entry`.
    #[must_use]
    pub fn new(tid: u64, entry: EncodedContext) -> Self {
        ThreadRecorder {
            tid,
            sim: entry.clone(),
            entry,
            ops: Vec::new(),
            seams: Vec::new(),
            resyncs: 0,
        }
    }

    /// The replayed (simulated) state after the last recorded op.
    #[must_use]
    pub fn state(&self) -> &EncodedContext {
        &self.sim
    }

    /// Full-state resyncs recorded so far.
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    fn resync(&mut self, full: impl FnOnce() -> EncodedContext) {
        let ctx = full();
        self.sim = ctx.clone();
        self.ops.push(JournalOp::Resync(Box::new(ctx)));
        self.resyncs += 1;
    }

    /// Records a call event. `after` is the thread's state signature
    /// *after* the call executed; `full` captures the complete state and
    /// is only invoked when the effect cannot be expressed as a delta.
    pub fn on_call(
        &mut self,
        site: CallSiteId,
        target: FunctionId,
        after: &StateSig,
        full: impl FnOnce() -> EncodedContext,
    ) {
        let op = if after.depth != self.sim.cc.len() {
            JournalOp::CallPush {
                site,
                target,
                id: after.id,
            }
        } else if after.top.as_ref() != self.sim.cc.last() {
            JournalOp::CallCompress {
                site,
                target,
                id: after.id,
            }
        } else {
            JournalOp::CallArith {
                site,
                target,
                delta: after.id.wrapping_sub(self.sim.id),
            }
        };
        if apply_op(&mut self.sim, &op).is_ok() && sig_matches(&self.sim, after) {
            self.ops.push(op);
        } else {
            self.resync(full);
        }
    }

    /// Records a return event. The caller function is taken from the
    /// post-op signature's leaf.
    pub fn on_ret(&mut self, after: &StateSig, full: impl FnOnce() -> EncodedContext) {
        let caller = after.leaf;
        let op = if after.depth != self.sim.cc.len() {
            JournalOp::RetPop { caller }
        } else if after.top.as_ref() != self.sim.cc.last() {
            JournalOp::RetUncompress { caller }
        } else {
            JournalOp::RetArith {
                caller,
                delta: self.sim.id.wrapping_sub(after.id),
            }
        };
        if apply_op(&mut self.sim, &op).is_ok() && sig_matches(&self.sim, after) {
            self.ops.push(op);
        } else {
            self.resync(full);
        }
    }

    /// Records a decode point: replaying the journal decodes the state
    /// reached here.
    pub fn on_sample(&mut self) {
        self.ops.push(JournalOp::Sample);
    }

    /// Emits a seam seed at the current op index. The full state is
    /// captured and cross-checked against the replayed state; a mismatch
    /// (which the signature verification should have made impossible) is
    /// self-healed with a [`JournalOp::Resync`] so the seed is correct by
    /// construction either way.
    pub fn seam(&mut self, full: impl FnOnce() -> EncodedContext) {
        let ctx = full();
        if ctx != self.sim {
            self.sim = ctx.clone();
            self.ops.push(JournalOp::Resync(Box::new(ctx.clone())));
            self.resyncs += 1;
        }
        if self.ops.is_empty() {
            return; // the entry state already seeds op 0
        }
        let at = self.ops.len();
        if self.seams.last().is_some_and(|s| s.at == at) {
            return;
        }
        self.seams.push(SeamSeed { at, ctx });
    }

    /// Finishes recording and returns the thread journal.
    #[must_use]
    pub fn finish(self) -> JournalThread {
        JournalThread {
            tid: self.tid,
            entry: self.entry,
            ops: self.ops,
            seams: self.seams,
        }
    }
}

impl DecodeJournal {
    /// Total ops across all threads.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// Total decode points across all threads.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.ops)
            .filter(|op| matches!(op, JournalOp::Sample))
            .count()
    }

    /// Total seam seeds across all threads.
    #[must_use]
    pub fn seams(&self) -> usize {
        self.threads.iter().map(|t| t.seams.len()).sum()
    }

    /// Serialises the journal as `dacce-journal v1` text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("{HEADER}\n");
        for t in &self.threads {
            let _ = write!(out, "thread {} ", t.tid);
            write_ctx(&mut out, &t.entry);
            out.push('\n');
            for s in &t.seams {
                let _ = write!(out, "seam {} ", s.at);
                write_ctx(&mut out, &s.ctx);
                out.push('\n');
            }
            for op in &t.ops {
                let _ = match op {
                    JournalOp::CallArith {
                        site,
                        target,
                        delta,
                    } => write!(out, "op c {} {} a{delta}", site.raw(), target.raw()),
                    JournalOp::CallPush { site, target, id } => {
                        write!(out, "op c {} {} p{id}", site.raw(), target.raw())
                    }
                    JournalOp::CallCompress { site, target, id } => {
                        write!(out, "op c {} {} k{id}", site.raw(), target.raw())
                    }
                    JournalOp::RetArith { caller, delta } => {
                        write!(out, "op r {} a{delta}", caller.raw())
                    }
                    JournalOp::RetPop { caller } => write!(out, "op r {} o", caller.raw()),
                    JournalOp::RetUncompress { caller } => write!(out, "op r {} u", caller.raw()),
                    JournalOp::Sample => write!(out, "op s"),
                    JournalOp::Resync(ctx) => {
                        out.push_str("op g ");
                        write_ctx(&mut out, ctx);
                        Ok(())
                    }
                };
                out.push('\n');
            }
            out.push_str("end\n");
        }
        out
    }

    /// Parses `dacce-journal v1` text.
    ///
    /// # Errors
    ///
    /// Returns [`ImportError`] on malformed input (line 0 when the input
    /// ends inside a thread section).
    pub fn parse(text: &str) -> Result<DecodeJournal, ImportError> {
        Self::read(codec::records(text, HEADER))
    }

    /// Reads a journal's records, `None` when its header line is wrong.
    pub(crate) fn read<'a, L: Lexer<'a>>(records: Option<L>) -> Result<DecodeJournal, ImportError> {
        let mut records =
            records.ok_or_else(|| ImportError::BadLine(1, format!("missing {HEADER} header")))?;
        let mut journal = DecodeJournal::default();
        let mut cur: Option<JournalThread> = None;
        while let Some((kw, mut f)) = records.next_record() {
            match kw {
                "op" => {
                    let t = cur.as_mut().ok_or_else(|| f.error("op outside thread"))?;
                    let op = match f.token("op kind")? {
                        "c" => {
                            let site = CallSiteId::new(f.num("call site")?);
                            let target = FunctionId::new(f.num("call target")?);
                            let tok = f.token("call effect")?;
                            let effect = tok.split_at_checked(1);
                            match effect.and_then(|(tag, n)| Some((tag, L::read(n)?))) {
                                Some(("a", delta)) => JournalOp::CallArith {
                                    site,
                                    target,
                                    delta,
                                },
                                Some(("p", id)) => JournalOp::CallPush { site, target, id },
                                Some(("k", id)) => JournalOp::CallCompress { site, target, id },
                                _ => return Err(f.bad("call effect", tok)),
                            }
                        }
                        "r" => {
                            let caller = FunctionId::new(f.num("ret caller")?);
                            match f.token("ret effect")? {
                                "o" => JournalOp::RetPop { caller },
                                "u" => JournalOp::RetUncompress { caller },
                                tok => match tok.strip_prefix('a').and_then(L::read) {
                                    Some(delta) => JournalOp::RetArith { caller, delta },
                                    None => return Err(f.bad("ret effect", tok)),
                                },
                            }
                        }
                        "s" => JournalOp::Sample,
                        "g" => JournalOp::Resync(Box::new(f.ctx()?)),
                        kind => return Err(f.error(format!("unknown op kind {kind}"))),
                    };
                    t.ops.push(op);
                }
                "thread" => {
                    if cur.is_some() {
                        return Err(f.error("thread inside open thread section"));
                    }
                    cur = Some(JournalThread {
                        tid: f.num("thread id")?,
                        entry: f.ctx()?,
                        ops: Vec::new(),
                        seams: Vec::new(),
                    });
                }
                "seam" => {
                    let t = cur.as_mut().ok_or_else(|| f.error("seam outside thread"))?;
                    let at = f.num("seam index")?;
                    let ctx = f.ctx()?;
                    if t.seams.last().is_some_and(|s| s.at >= at) || at == 0 {
                        return Err(f.error("seam indices must be strictly increasing"));
                    }
                    t.seams.push(SeamSeed { at, ctx });
                }
                "end" => {
                    let t = cur.take().ok_or_else(|| f.error("end outside thread"))?;
                    if t.seams.last().is_some_and(|s| s.at > t.ops.len()) {
                        return Err(f.error("seam index past end of ops"));
                    }
                    journal.threads.push(t);
                }
                other => return Err(f.error(format!("unknown journal line {other}"))),
            }
            f.end()?;
        }
        match cur {
            Some(_) => Err(ImportError::BadLine(
                0,
                "unterminated thread section".into(),
            )),
            None => Ok(journal),
        }
    }
}

/// The decoded context stream of a journal: one line per decode point, in
/// deterministic thread-major, op-ordered order. Serial and parallel
/// decode produce byte-identical streams.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedStream {
    /// `"<tid>#<k>: <path>"` lines (`decode-error <e>` for contexts the
    /// dictionaries cannot decode — recorded faithfully, not dropped).
    pub lines: Vec<String>,
}

/// Renders a decode point as `<tid>#<k>: <path>`, the path as
/// `ContextPath::display` with `Display` names writes it, into one string
/// sized up front.
fn render_sample(tid: u64, k: usize, st: &EncodedContext, dec: &OfflineDecoder) -> String {
    let path = match dec.decode(st) {
        Ok(path) => path,
        Err(e) => return format!("{tid}#{k}: decode-error {e}"),
    };
    let mut out = String::with_capacity(24 + 18 * path.0.len());
    push_decimal(&mut out, tid);
    out.push('#');
    push_decimal(&mut out, k as u64);
    out.push_str(": ");
    for (i, step) in path.0.iter().enumerate() {
        if i > 0 {
            match step.site {
                Some(site) => {
                    out.push_str(" -(");
                    out.push_str(CallSiteId::TAG);
                    push_decimal(&mut out, site.raw().into());
                    out.push_str(")-> ");
                }
                None => out.push_str(" -> "),
            }
        }
        out.push_str(FunctionId::TAG);
        push_decimal(&mut out, step.func.raw().into());
    }
    out
}

/// Replays and decodes the whole journal on the calling thread.
///
/// # Errors
///
/// Fails only on an internally inconsistent journal (an effect that does
/// not apply); sample contexts the dictionaries cannot decode are emitted
/// as `decode-error` lines instead.
pub fn decode_serial(
    journal: &DecodeJournal,
    dec: &OfflineDecoder,
) -> Result<DecodedStream, FragmentError> {
    let mut lines = Vec::new();
    for t in &journal.threads {
        let mut st = t.entry.clone();
        let mut k = 0usize;
        for (i, op) in t.ops.iter().enumerate() {
            apply_op(&mut st, op).map_err(|msg| FragmentError {
                tid: t.tid,
                at: i,
                msg,
            })?;
            if matches!(op, JournalOp::Sample) {
                lines.push(render_sample(t.tid, k, &st, dec));
                k += 1;
            }
        }
    }
    Ok(DecodedStream { lines })
}

/// What one parallel decode did: fragment, seam-proof and fallback
/// accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelDecodeReport {
    /// Worker threads used.
    pub workers: usize,
    /// Fragments the journal was cut into.
    pub fragments: usize,
    /// Seams whose seed matched the verified exit state of the previous
    /// fragment.
    pub seams_verified: usize,
    /// Seams whose seed could not be proven (seed mismatch).
    pub seam_failures: usize,
    /// Fragments re-decoded serially (unproven seed or fragment replay
    /// error).
    pub fallback_fragments: usize,
    /// Decode points emitted.
    pub samples: usize,
    /// Ops replayed.
    pub ops: usize,
}

struct Fragment<'a> {
    thread: usize,
    start: usize,
    end: usize,
    seed: &'a EncodedContext,
    /// Decode points preceding this fragment in its thread (fixes the
    /// sample ordinals without cross-fragment communication).
    first_sample: usize,
}

struct FragOut {
    lines: Vec<String>,
    exit: EncodedContext,
    err: Option<FragmentError>,
}

fn replay_fragment(
    tid: u64,
    ops: &[JournalOp],
    start: usize,
    seed: EncodedContext,
    mut k: usize,
    dec: &OfflineDecoder,
) -> FragOut {
    let mut st = seed;
    let mut lines = Vec::new();
    for (off, op) in ops.iter().enumerate() {
        if let Err(msg) = apply_op(&mut st, op) {
            return FragOut {
                lines,
                exit: st,
                err: Some(FragmentError {
                    tid,
                    at: start + off,
                    msg,
                }),
            };
        }
        if matches!(op, JournalOp::Sample) {
            lines.push(render_sample(tid, k, &st, dec));
            k += 1;
        }
    }
    FragOut {
        lines,
        exit: st,
        err: None,
    }
}

/// Replays and decodes the journal on `workers` threads, cutting each
/// thread's op stream at its seam seeds and stitching the fragments back
/// together under the seam-verification pass described in the module
/// docs.
///
/// # Errors
///
/// Fails only when a fragment fails to replay *and* its serial fallback
/// (from the verified state) fails too — i.e. the journal itself is
/// inconsistent, exactly when [`decode_serial`] fails.
pub fn decode_parallel(
    journal: &DecodeJournal,
    dec: &OfflineDecoder,
    workers: usize,
) -> Result<(DecodedStream, ParallelDecodeReport), FragmentError> {
    let workers = workers.max(1);

    // Cut every thread at its seams.
    let mut fragments: Vec<Fragment<'_>> = Vec::new();
    for (ti, t) in journal.threads.iter().enumerate() {
        let mut start = 0usize;
        let mut seed = &t.entry;
        let mut first_sample = 0usize;
        for s in &t.seams {
            let at = s.at.min(t.ops.len());
            if at > start {
                fragments.push(Fragment {
                    thread: ti,
                    start,
                    end: at,
                    seed,
                    first_sample,
                });
                first_sample += t.ops[start..at]
                    .iter()
                    .filter(|op| matches!(op, JournalOp::Sample))
                    .count();
                start = at;
            }
            seed = &s.ctx;
        }
        if start < t.ops.len() || t.ops.is_empty() {
            fragments.push(Fragment {
                thread: ti,
                start,
                end: t.ops.len(),
                seed,
                first_sample,
            });
        }
    }

    // Replay fragments concurrently; a shared atomic index is the queue.
    let n = fragments.len();
    let next = AtomicUsize::new(0);
    let mut outs: Vec<Option<FragOut>> = Vec::with_capacity(n);
    outs.resize_with(n, || None);
    std::thread::scope(|scope| {
        let fragments = &fragments;
        let next = &next;
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let f = &fragments[i];
                    let t = &journal.threads[f.thread];
                    mine.push((
                        i,
                        replay_fragment(
                            t.tid,
                            &t.ops[f.start..f.end],
                            f.start,
                            f.seed.clone(),
                            f.first_sample,
                            dec,
                        ),
                    ));
                }
                mine
            }));
        }
        for h in handles {
            for (i, out) in h.join().expect("decode worker panicked") {
                outs[i] = Some(out);
            }
        }
    });

    // Stitch: walk each thread's fragments in order, proving every seed
    // against the verified exit state of the previous fragment and
    // falling back to serial replay from the verified state otherwise.
    let mut report = ParallelDecodeReport {
        workers,
        fragments: n,
        ops: journal.ops(),
        ..ParallelDecodeReport::default()
    };
    let mut lines = Vec::new();
    let mut thread_state: Vec<Option<EncodedContext>> = journal
        .threads
        .iter()
        .map(|t| Some(t.entry.clone()))
        .collect();
    for (i, f) in fragments.iter().enumerate() {
        let t = &journal.threads[f.thread];
        let verified = thread_state[f.thread].take().expect("state threaded");
        let out = outs[i].take().expect("fragment replayed");
        let proven = *f.seed == verified;
        if f.start > 0 {
            if proven {
                report.seams_verified += 1;
            } else {
                report.seam_failures += 1;
            }
        }
        let exit = if proven && out.err.is_none() {
            lines.extend(out.lines);
            out.exit
        } else {
            report.fallback_fragments += 1;
            let fb = replay_fragment(
                t.tid,
                &t.ops[f.start..f.end],
                f.start,
                verified,
                f.first_sample,
                dec,
            );
            if let Some(err) = fb.err {
                return Err(err);
            }
            lines.extend(fb.lines);
            fb.exit
        };
        thread_state[f.thread] = Some(exit);
    }
    report.samples = lines.len();
    Ok((DecodedStream { lines }, report))
}

/// Independently verifies a journal's seam chain against an export: every
/// fragment is replayed from its seed and its exit state compared with the
/// next seed. Returns one message per violation (empty = all seams
/// proven). Replay errors inside a fragment are reported on the seam they
/// invalidate.
#[must_use]
pub fn verify_seams(journal: &DecodeJournal) -> Vec<String> {
    let mut problems = Vec::new();
    for t in &journal.threads {
        let mut st = t.entry.clone();
        let mut from = 0usize;
        for (si, s) in t.seams.iter().enumerate() {
            let at = s.at.min(t.ops.len());
            let mut broken = None;
            for (off, op) in t.ops[from..at].iter().enumerate() {
                if let Err(msg) = apply_op(&mut st, op) {
                    broken = Some(format!("op {} failed: {msg}", from + off));
                    break;
                }
            }
            if let Some(msg) = broken {
                problems.push(format!(
                    "thread {} seam {si} (op {at}): fragment replay broke before the seam: {msg}",
                    t.tid
                ));
                st = s.ctx.clone(); // resume the chain from the seed
            } else if st != s.ctx {
                problems.push(format!(
                    "thread {} seam {si} (op {at}): exit state does not match the seam seed \
                     (exit ts {} id {} depth {}, seed ts {} id {} depth {})",
                    t.tid,
                    st.ts.raw(),
                    st.id,
                    st.cc.len(),
                    s.ctx.ts.raw(),
                    s.ctx.id,
                    s.ctx.cc.len(),
                ));
                st = s.ctx.clone();
            }
            from = at;
        }
        for (off, op) in t.ops[from..].iter().enumerate() {
            if let Err(msg) = apply_op(&mut st, op) {
                problems.push(format!(
                    "thread {} tail fragment: op {} failed: {msg}",
                    t.tid,
                    from + off
                ));
                break;
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SpawnLink;

    fn ctx(ts: u32, id: u64, leaf: u32, cc: &[(u64, u32, u32, u64)]) -> EncodedContext {
        EncodedContext {
            ts: TimeStamp::new(ts),
            id,
            leaf: FunctionId::new(leaf),
            root: FunctionId::new(0),
            cc: cc
                .iter()
                .map(|&(id, s, t, n)| CcEntry {
                    id,
                    site: CallSiteId::new(s),
                    target: FunctionId::new(t),
                    count: n,
                })
                .collect(),
            spawn: None,
        }
    }

    #[test]
    fn text_round_trip_preserves_everything() {
        let mut parent = ctx(0, 3, 1, &[]);
        parent.spawn = None;
        let mut entry = ctx(1, 7, 2, &[(3, 1, 2, 0), (9, 4, 5, 2)]);
        entry.spawn = Some(SpawnLink {
            site: CallSiteId::new(8),
            parent: Box::new(parent),
        });
        let journal = DecodeJournal {
            threads: vec![JournalThread {
                tid: 4,
                entry,
                ops: vec![
                    JournalOp::CallArith {
                        site: CallSiteId::new(1),
                        target: FunctionId::new(3),
                        delta: 2,
                    },
                    JournalOp::Sample,
                    JournalOp::CallPush {
                        site: CallSiteId::new(2),
                        target: FunctionId::new(4),
                        id: 11,
                    },
                    JournalOp::CallCompress {
                        site: CallSiteId::new(2),
                        target: FunctionId::new(4),
                        id: 11,
                    },
                    JournalOp::RetUncompress {
                        caller: FunctionId::new(4),
                    },
                    JournalOp::RetPop {
                        caller: FunctionId::new(3),
                    },
                    JournalOp::Resync(Box::new(ctx(2, 1, 3, &[(5, 6, 7, 0)]))),
                    JournalOp::RetArith {
                        caller: FunctionId::new(0),
                        delta: 1,
                    },
                ],
                seams: vec![SeamSeed {
                    at: 2,
                    ctx: ctx(1, 9, 3, &[(3, 1, 2, 0)]),
                }],
            }],
        };
        let text = journal.to_text();
        let back = DecodeJournal::parse(&text).expect("parses");
        assert_eq!(back, journal);
    }

    #[test]
    fn parse_rejects_malformed_journals() {
        assert!(DecodeJournal::parse("nope").is_err());
        assert!(DecodeJournal::parse("dacce-journal v1\nop s\n").is_err());
        assert!(DecodeJournal::parse("dacce-journal v1\nthread 0 0 0 0 0\n").is_err());
        assert!(
            DecodeJournal::parse("dacce-journal v1\nthread 0 0 0 0 0\nop c 1 2 z9\nend\n").is_err()
        );
        assert!(
            DecodeJournal::parse("dacce-journal v1\nthread 0 0 0 0 0\nseam 0 0 0 0 0\nend\n")
                .is_err()
        );
        for (body, line) in [
            // An effect token that starts with a multi-byte character.
            ("op c 1 2 \u{e9}", 3),
            ("op r 1 \u{e9}5", 3),
            // Ids past u32::MAX inside a context.
            ("op g 4294967296 0 0 0", 3),
            ("op g 0 0 0 0 0:4294967296:1:0", 3),
            // Trailing tokens and effects with leftovers.
            ("op s 1", 3),
            ("op c 1 2 a5 a6", 3),
            ("op r 1 o5", 3),
            ("end 1\nend", 3),
            // A resync context with a spawn chain far past the bound.
            (
                &format!("op g 0 0 0 0{}", " | 0 0 0 0 0".repeat(200_000)),
                3,
            ),
        ] {
            let text = format!("dacce-journal v1\nthread 0 0 0 0 0\n{body}\nend\n");
            match DecodeJournal::parse(&text) {
                Err(ImportError::BadLine(n, _)) => assert_eq!(n, line, "{body:?}"),
                other => panic!("{body:?}: expected a line-{line} error, got {other:?}"),
            }
        }
    }

    #[test]
    fn effects_apply_and_reject_inconsistency() {
        let mut st = ctx(0, 5, 1, &[]);
        let push = JournalOp::CallPush {
            site: CallSiteId::new(1),
            target: FunctionId::new(2),
            id: 9,
        };
        apply_op(&mut st, &push).unwrap();
        assert_eq!(st.id, 9);
        assert_eq!(st.cc.len(), 1);
        assert_eq!(st.cc[0].id, 5);
        // compress must match the top edge and the saved id
        let bad = JournalOp::CallCompress {
            site: CallSiteId::new(3),
            target: FunctionId::new(2),
            id: 9,
        };
        assert!(apply_op(&mut st, &bad).is_err());
        let pop = JournalOp::RetPop {
            caller: FunctionId::new(1),
        };
        apply_op(&mut st, &pop).unwrap();
        assert_eq!(st.id, 5);
        assert!(apply_op(&mut st, &pop).is_err());
        let un = JournalOp::RetUncompress {
            caller: FunctionId::new(1),
        };
        assert!(apply_op(&mut st, &un).is_err());
        // a compressed count at u64::MAX cannot take another repetition
        let mut st = ctx(0, 5, 2, &[(5, 1, 2, u64::MAX)]);
        let compress = JournalOp::CallCompress {
            site: CallSiteId::new(1),
            target: FunctionId::new(2),
            id: 9,
        };
        assert!(apply_op(&mut st, &compress).is_err());
    }

    #[test]
    fn recorder_falls_back_to_resync_on_unexplained_state() {
        let entry = ctx(0, 0, 0, &[]);
        let mut rec = ThreadRecorder::new(0, entry);
        // A state whose generation moved: no delta explains it.
        let after = ctx(1, 4, 2, &[]);
        rec.on_call(
            CallSiteId::new(0),
            FunctionId::new(2),
            &sig_of(&after),
            || after.clone(),
        );
        assert_eq!(rec.resyncs(), 1);
        let t = rec.finish();
        assert_eq!(t.ops, vec![JournalOp::Resync(Box::new(after))]);
    }

    #[test]
    fn seam_verification_flags_a_tampered_seed() {
        let entry = ctx(0, 0, 0, &[]);
        let mut rec = ThreadRecorder::new(0, entry);
        let a = ctx(0, 2, 1, &[]);
        rec.on_call(CallSiteId::new(0), FunctionId::new(1), &sig_of(&a), || {
            a.clone()
        });
        rec.seam(|| a.clone());
        let b = ctx(0, 0, 0, &[]);
        rec.on_ret(&sig_of(&b), || b.clone());
        let mut t = rec.finish();
        assert!(verify_seams(&DecodeJournal {
            threads: vec![t.clone()]
        })
        .is_empty());
        t.seams[0].ctx.id = 99;
        let problems = verify_seams(&DecodeJournal { threads: vec![t] });
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("does not match"), "{problems:?}");
    }
}
