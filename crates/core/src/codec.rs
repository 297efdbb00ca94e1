//! The artifact record codec behind `dacce-export v1` and
//! `dacce-journal v1`: the one place that knows how an artifact line is
//! split, typed and reported.
//!
//! Both formats are line records: an exact header line, then one
//! `<keyword> <field>...` record per line, fields separated by ASCII
//! whitespace, blank lines skipped. [`records`] walks the lines and hands
//! each record's [`Fields`] to the format's reader, which types every field
//! at its width (`u32` ids, `u64` ids and counts, `u128` `numCC`), reads
//! flags as a strict `0`/`1` and tags through a [`Tags`] table, and ends
//! with [`Fields::end`], which rejects leftover tokens. A malformed field
//! is an [`ImportError::BadLine`] carrying the 1-based line number (0 when
//! the input ends inside an open section). Reading allocates nothing per
//! line or token beyond the records it builds.

use std::fmt::Write as _;
use std::mem::discriminant;
use std::str::{FromStr, Split, SplitAsciiWhitespace};

use dacce_callgraph::{CallSiteId, Dispatch, FunctionId, TimeStamp};

use crate::ccstack::CcEntry;
use crate::context::{EncodedContext, SpawnLink};
use crate::export::{DispatchKind, ImportError};
use crate::fragment::{CallEffect, RetEffect};
use crate::patch::EdgeAction;

/// The most spawn links one encoded context may carry when read back. A
/// deeper chain is rejected: the context's derived `Drop`, `Clone` and
/// `PartialEq`, [`write_ctx`] and the decoder all recurse once per link.
pub(crate) const MAX_SPAWN_DEPTH: usize = 1024;

/// A tag table shared by a writer and its reader: one row per variant,
/// holding its tag and a template value. A variant that carries a number
/// is written `<tag><number>`; `num` exposes that number.
pub(crate) struct Tags<T: 'static> {
    rows: &'static [(&'static str, T)],
    num: fn(&mut T) -> Option<&mut u64>,
}

impl<T: Copy> Tags<T> {
    /// Appends `v`'s token.
    pub(crate) fn write(&self, out: &mut String, mut v: T) {
        let (tag, _) = self
            .rows
            .iter()
            .find(|(_, row)| discriminant(row) == discriminant(&v))
            .expect("every variant has a row");
        out.push_str(tag);
        if let Some(n) = (self.num)(&mut v) {
            let _ = write!(out, "{n}");
        }
    }

    fn read(&self, tok: &str) -> Option<T> {
        self.rows.iter().find_map(|&(tag, mut v)| {
            let rest = tok.strip_prefix(tag)?;
            match (self.num)(&mut v) {
                Some(n) => *n = rest.parse().ok()?,
                None if !rest.is_empty() => return None,
                None => {}
            }
            Some(v)
        })
    }
}

/// Edge dispatch kinds (`edge` records).
pub(crate) const DISPATCH: Tags<Dispatch> = Tags {
    rows: &[
        ("direct", Dispatch::Direct),
        ("indirect", Dispatch::Indirect),
        ("plt", Dispatch::Plt),
        ("spawn", Dispatch::Spawn),
    ],
    num: |_| None,
};

/// Compiled edge actions (`dispatch` records).
pub(crate) const ACTIONS: Tags<EdgeAction> = Tags {
    rows: &[
        ("enc:", EdgeAction::Encoded { delta: 0 }),
        ("cc", EdgeAction::Unencoded),
        ("ccc", EdgeAction::UnencodedCompressed),
    ],
    num: |a| match a {
        EdgeAction::Encoded { delta } => Some(delta),
        _ => None,
    },
};

/// Compiled dispatch record kinds (`dispatch` records).
pub(crate) const DISPATCH_KINDS: Tags<DispatchKind> = Tags {
    rows: &[
        ("trap", DispatchKind::Trap),
        ("mono", DispatchKind::Mono),
        ("poly", DispatchKind::Poly),
    ],
    num: |_| None,
};

/// Journaled call effects (`op c` records).
pub(crate) const CALL_EFFECTS: Tags<CallEffect> = Tags {
    rows: &[
        ("a", CallEffect::Arith { delta: 0 }),
        ("p", CallEffect::Push { id: 0 }),
        ("k", CallEffect::Compress { id: 0 }),
    ],
    num: |e| match e {
        CallEffect::Arith { delta: n }
        | CallEffect::Push { id: n }
        | CallEffect::Compress { id: n } => Some(n),
    },
};

/// Journaled return effects (`op r` records).
pub(crate) const RET_EFFECTS: Tags<RetEffect> = Tags {
    rows: &[
        ("a", RetEffect::Arith { delta: 0 }),
        ("o", RetEffect::Pop),
        ("u", RetEffect::Uncompress),
    ],
    num: |e| match e {
        RetEffect::Arith { delta } => Some(delta),
        _ => None,
    },
};

/// Walks an artifact's records after checking its header line: yields the
/// keyword and field reader of every non-blank line, numbered from 1 (the
/// header). `None` when the first line is not exactly `header`.
pub(crate) fn records<'a>(
    text: &'a str,
    header: &str,
) -> Option<impl Iterator<Item = (&'a str, Fields<'a>)>> {
    let mut lines = text.lines();
    (lines.next()? == header).then(|| {
        lines.enumerate().filter_map(|(i, line)| {
            let mut fields = Fields {
                tokens: line.split_ascii_whitespace(),
                line: i + 2,
            };
            Some((fields.tokens.next()?, fields))
        })
    })
}

/// The fields of one record, read left to right.
pub(crate) struct Fields<'a> {
    tokens: SplitAsciiWhitespace<'a>,
    line: usize,
}

impl<'a> Fields<'a> {
    /// An error on this record's line.
    pub(crate) fn error(&self, what: impl Into<String>) -> ImportError {
        ImportError::BadLine(self.line, what.into())
    }

    /// The next raw token, if any.
    pub(crate) fn next_token(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }

    /// The next raw token; `what` names it in the error when missing.
    pub(crate) fn token(&mut self, what: &str) -> Result<&'a str, ImportError> {
        self.tokens
            .next()
            .ok_or_else(|| self.error(format!("missing {what}")))
    }

    /// Types a token already taken from this record.
    pub(crate) fn parse<T: FromStr>(&self, tok: &str, what: &str) -> Result<T, ImportError> {
        tok.parse()
            .map_err(|_| self.error(format!("bad {what} {tok}")))
    }

    /// The next field as a number of type `T`.
    pub(crate) fn num<T: FromStr>(&mut self, what: &str) -> Result<T, ImportError> {
        let tok = self.token(what)?;
        self.parse(tok, what)
    }

    /// The next field as a strict `0`/`1` flag.
    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, ImportError> {
        match self.token(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            tok => Err(self.error(format!("bad {what} {tok} (want 0 or 1)"))),
        }
    }

    /// Reads a token already taken from this record through a tag table.
    pub(crate) fn tagged<T: Copy>(
        &self,
        tok: &str,
        tags: &Tags<T>,
        what: &str,
    ) -> Result<T, ImportError> {
        tags.read(tok)
            .ok_or_else(|| self.error(format!("bad {what} {tok}")))
    }

    /// The next field, read through a tag table.
    pub(crate) fn tag<T: Copy>(&mut self, tags: &Tags<T>, what: &str) -> Result<T, ImportError> {
        let tok = self.token(what)?;
        self.tagged(tok, tags, what)
    }

    /// Reads a `:`-separated token: `read` types its parts in order, and
    /// every part must be used.
    pub(crate) fn split<T>(
        &self,
        tok: &'a str,
        what: &str,
        read: impl FnOnce(&mut Parts<'a>) -> Option<T>,
    ) -> Result<T, ImportError> {
        let mut parts = Parts(tok.split(':'));
        read(&mut parts)
            .filter(|_| parts.0.next().is_none())
            .ok_or_else(|| self.error(format!("bad {what} {tok}")))
    }

    /// Reads the rest of the record as an encoded context:
    /// `<ts> <id> <leaf> <root> <id:site:target:count>* [| <spawn-site> <context>]`.
    /// The spawn chain is read in a loop, and a chain of more than
    /// [`MAX_SPAWN_DEPTH`] links is an error.
    pub(crate) fn ctx(&mut self) -> Result<EncodedContext, ImportError> {
        // The contexts read so far, each with the spawn site that links it
        // to the next one (its parent).
        let mut children: Vec<(EncodedContext, CallSiteId)> = Vec::new();
        let mut ctx = loop {
            let mut ctx = EncodedContext {
                ts: TimeStamp::new(self.num("ts")?),
                id: self.num("id")?,
                leaf: FunctionId::new(self.num("leaf")?),
                root: FunctionId::new(self.num("root")?),
                cc: Vec::new(),
                spawn: None,
            };
            let mut linked = false;
            while let Some(tok) = self.tokens.next() {
                if tok == "|" {
                    linked = true;
                    break;
                }
                ctx.cc.push(self.split(tok, "cc entry", |p| {
                    Some(CcEntry {
                        id: p.num()?,
                        site: CallSiteId::new(p.num()?),
                        target: FunctionId::new(p.num()?),
                        count: p.num()?,
                    })
                })?);
            }
            if !linked {
                break ctx;
            }
            if children.len() == MAX_SPAWN_DEPTH {
                return Err(self.error(format!("spawn chain longer than {MAX_SPAWN_DEPTH} links")));
            }
            children.push((ctx, CallSiteId::new(self.num("spawn site")?)));
        };
        while let Some((mut child, site)) = children.pop() {
            child.spawn = Some(SpawnLink {
                site,
                parent: Box::new(ctx),
            });
            ctx = child;
        }
        Ok(ctx)
    }

    /// Finishes the record: any token left over is an error.
    pub(crate) fn end(mut self) -> Result<(), ImportError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(tok) => Err(self.error(format!("trailing token {tok}"))),
        }
    }
}

/// The `:`-separated parts of one token.
pub(crate) struct Parts<'a>(Split<'a, char>);

impl Parts<'_> {
    /// The next part as a number of type `T`.
    pub(crate) fn num<T: FromStr>(&mut self) -> Option<T> {
        self.0.next()?.parse().ok()
    }

    /// The next part, which must be exactly `lit`.
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        (self.0.next()? == lit).then_some(())
    }
}

/// Writes an encoded context in the grammar [`Fields::ctx`] reads.
pub(crate) fn write_ctx(out: &mut String, ctx: &EncodedContext) {
    let _ = write!(
        out,
        "{} {} {} {}",
        ctx.ts.raw(),
        ctx.id,
        ctx.leaf.raw(),
        ctx.root.raw()
    );
    for e in &ctx.cc {
        let _ = write!(
            out,
            " {}:{}:{}:{}",
            e.id,
            e.site.raw(),
            e.target.raw(),
            e.count
        );
    }
    if let Some(link) = &ctx.spawn {
        let _ = write!(out, " | {} ", link.site.raw());
        write_ctx(out, &link.parent);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::config::DacceConfig;
    use crate::export::{export_samples, export_tracker_state, import, OfflineDecoder};
    use crate::fault::FaultPlan;
    use crate::fragment::{decode_parallel, decode_serial, DecodeJournal, ThreadRecorder};
    use crate::superop::WindowOp;
    use crate::tracker::{ThreadHandle, Tracker};

    /// A recorded tracker run: its export with the samples appended, and
    /// the effect journal of its threads.
    pub(crate) struct Recording {
        pub(crate) tracker: Tracker,
        pub(crate) export: String,
        pub(crate) samples: Vec<EncodedContext>,
        pub(crate) journal: DecodeJournal,
    }

    /// Drives a random script through one thread while recording it: each
    /// function calls its successor and itself through direct sites and
    /// any function through an indirect one, so recursion, polymorphic
    /// sites and re-encodes all occur.
    fn drive(
        th: &ThreadHandle,
        root: usize,
        funcs: &[FunctionId],
        sites: &[[CallSiteId; 3]],
        rng: &mut SmallRng,
        rec: &mut Recording,
    ) {
        let tid = u64::from(th.id().raw());
        let mut recorder = ThreadRecorder::new(tid, th.context());
        let mut stack = vec![root];
        let mut guards = Vec::new();
        for _ in 0..rng.gen_range(20u32..80) {
            match rng.gen_range(0u32..10) {
                0..=4 if guards.len() < 16 => {
                    let caller = *stack.last().expect("root");
                    let (site, callee) = match rng.gen_range(0u32..3) {
                        0 => (sites[caller][0], (caller + 1) % funcs.len()),
                        1 => (sites[caller][1], caller),
                        _ => (sites[caller][2], rng.gen_range(0..funcs.len())),
                    };
                    guards.push(if site == sites[caller][2] {
                        th.call_indirect(site, funcs[callee])
                    } else {
                        th.call(site, funcs[callee])
                    });
                    stack.push(callee);
                    recorder.on_call(site, funcs[callee], &th.state_sig(), || th.context());
                }
                5..=7 if !guards.is_empty() => {
                    drop(guards.pop());
                    stack.pop();
                    recorder.on_ret(&th.state_sig(), || th.context());
                }
                8 => {
                    recorder.on_sample();
                    rec.samples.push(th.context());
                }
                _ => recorder.seam(|| th.context()),
            }
        }
        while let Some(guard) = guards.pop() {
            drop(guard);
            recorder.on_ret(&th.state_sig(), || th.context());
        }
        rec.journal.threads.push(recorder.finish());
    }

    /// Records a random two-thread run (the second spawned from the
    /// first), sometimes under a `maxID` cap so degraded records appear.
    pub(crate) fn record(seed: u64) -> Recording {
        let mut rng = SmallRng::seed_from_u64(seed);
        let fault = if rng.gen_bool(0.3) {
            FaultPlan {
                max_id_cap: Some(rng.gen_range(0..4)),
                ..FaultPlan::default()
            }
        } else {
            FaultPlan::default()
        };
        let tracker = Tracker::with_config(DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 4,
            fault,
            ..DacceConfig::default()
        });
        let funcs: Vec<FunctionId> = (0..5)
            .map(|i| tracker.define_function(&format!("f{i}")))
            .collect();
        let sites: Vec<[CallSiteId; 3]> = funcs
            .iter()
            .map(|_| [(); 3].map(|()| tracker.define_call_site()))
            .collect();
        let mut rec = Recording {
            export: String::new(),
            samples: Vec::new(),
            journal: DecodeJournal::default(),
            tracker,
        };
        // A second handle on the same tracker, since `drive` borrows `rec`.
        let tracker = rec.tracker.clone();
        let main = tracker.register_thread(funcs[0]);
        drive(&main, 0, &funcs, &sites, &mut rng, &mut rec);
        let spawn_site = tracker.define_call_site();
        let child = tracker.register_spawned_thread(funcs[1], &main, spawn_site);
        drive(&child, 1, &funcs, &sites, &mut rng, &mut rec);
        let window = vec![
            WindowOp::Call {
                site: sites[0][0],
                target: funcs[1],
            },
            WindowOp::Ret,
        ];
        tracker.install_superops(&[window]);
        rec.export = format!(
            "{}{}",
            export_tracker_state(&tracker),
            export_samples(&rec.samples)
        );
        rec
    }

    /// Replacement characters: a multi-byte one, digits and the format's
    /// separators.
    const REPLACEMENTS: [char; 8] = ['é', '9', '0', ' ', ':', '|', '-', '\n'];

    /// Every truncation, single-byte deletion and single-byte replacement
    /// of an ASCII `text`, then every numeric token set to `u32::MAX + 1`.
    fn mutations(text: &str) -> impl Iterator<Item = String> + '_ {
        let at = |i: usize, with: &str| format!("{}{with}{}", &text[..i], &text[i + 1..]);
        let tokens = text
            .match_indices(|c: char| c.is_ascii_whitespace())
            .map(|(i, _)| i + 1)
            .chain([0]);
        (0..text.len())
            .flat_map(move |i| {
                let edits = REPLACEMENTS
                    .iter()
                    .map(move |c| at(i, c.encode_utf8(&mut [0; 4])));
                [text[..i].to_string(), at(i, "")].into_iter().chain(edits)
            })
            .chain(tokens.filter_map(move |start| {
                let len = text[start..].find(|c: char| !c.is_ascii_digit())?;
                (len > 0).then(|| format!("{}4294967296{}", &text[..start], &text[start + len..]))
            }))
    }

    /// One random mutation from [`mutations`]' families.
    pub(crate) fn random_mutation(text: &str, rng: &mut SmallRng) -> String {
        let i = rng.gen_range(0..text.len());
        match rng.gen_range(0u32..3) {
            0 => text[..i].to_string(),
            1 => format!("{}{}", &text[..i], &text[i + 1..]),
            _ => {
                let c = REPLACEMENTS[rng.gen_range(0..REPLACEMENTS.len())];
                format!("{}{c}{}", &text[..i], &text[i + 1..])
            }
        }
    }

    /// Decodes everything a parsed artifact pair carries; it must finish.
    pub(crate) fn decode_all(journal: &DecodeJournal, dec: &OfflineDecoder) {
        for sample in dec.samples() {
            let _ = dec.decode(sample);
        }
        let _ = decode_serial(journal, dec);
    }

    #[test]
    fn every_single_byte_mutation_is_a_typed_error_or_decodes() {
        let rec = record(7);
        let dec = import(&rec.export).expect("export imports");
        for text in mutations(&rec.export) {
            if let Ok(mutated) = import(&text) {
                decode_all(&rec.journal, &mutated);
            }
        }
        for text in mutations(&rec.journal.to_text()) {
            if let Ok(journal) = DecodeJournal::parse(&text) {
                decode_all(&journal, &dec);
            }
        }
    }

    proptest::proptest! {
        /// Recorded journals and exports parse back to what was written.
        #[test]
        fn recorded_artifacts_roundtrip(seed in 0u64..u64::MAX) {
            let rec = record(seed);
            proptest::prop_assert_eq!(
                &DecodeJournal::parse(&rec.journal.to_text()).expect("journal parses"),
                &rec.journal
            );
            let dec = import(&rec.export).expect("export imports");
            proptest::prop_assert_eq!(dec.samples(), &rec.samples[..]);
            proptest::prop_assert_eq!(dec.degraded(), &rec.tracker.stats().degraded);
            rec.tracker.with_shared(|sh| {
                let view = &sh.current.view;
                assert_eq!(dec.owners(), &*view.site_owner);
                assert_eq!(dec.dicts().len(), view.dicts.len());
                for ts in 0..view.dicts.len() {
                    let ts = TimeStamp::new(ts as u32);
                    let (a, b) = (dec.dicts().get(ts).unwrap(), view.dicts.get(ts).unwrap());
                    assert_eq!((a.max_id(), a.edges()), (b.max_id(), b.edges()));
                    for f in sh.current.graph.nodes() {
                        assert_eq!(a.num_cc(*f), b.num_cc(*f));
                    }
                }
                let mut want = Vec::new();
                for (site, slot, cs) in view.dispatch.iter_compiled() {
                    use crate::dispatch::CompiledDispatch as C;
                    use crate::export::{DispatchKind as K, DispatchRecord};
                    let mut targets: Vec<_> = match cs.dispatch {
                        C::Trap => vec![(K::Trap, None)],
                        C::Mono { target, action } => vec![(K::Mono, Some((target, action)))],
                        C::Poly { index } => view
                            .dispatch
                            .poly_patch(index)
                            .targets()
                            .map(|t| (K::Poly, Some(t)))
                            .collect(),
                    };
                    targets.sort_by_key(|(_, t)| t.map(|(f, _)| f.raw()));
                    want.extend(targets.into_iter().map(|(kind, t)| DispatchRecord {
                        site,
                        slot,
                        kind,
                        target: t.map(|(f, _)| f),
                        action: t.map(|(_, a)| a),
                        tc_wrap: cs.tc_wrap,
                    }));
                }
                assert_eq!(dec.dispatch(), &want[..]);
                let superops: Vec<_> = sh.superops.iter().cloned().collect();
                assert_eq!(dec.superops(), &superops[..]);
            });
        }

        /// Randomly mutated journals parse to a typed error or replay, in
        /// series and in parallel, to the end.
        #[test]
        fn mutated_journals_always_finish_decoding(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let rec = record(seed);
            let dec = import(&rec.export).expect("export imports");
            let text = rec.journal.to_text();
            for _ in 0..16 {
                if let Ok(journal) = DecodeJournal::parse(&random_mutation(&text, &mut rng)) {
                    decode_all(&journal, &dec);
                    let _ = decode_parallel(&journal, &dec, 2);
                }
            }
        }
    }
}
