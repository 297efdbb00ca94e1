//! The artifact record codec behind `dacce-export v1` and
//! `dacce-journal v1`: the one place that knows how an artifact line is
//! split, typed and reported.
//!
//! Both formats are line records: an exact header line, then one
//! `<keyword> <field>...` record per line, fields separated by ASCII
//! whitespace, blank lines skipped. [`records`] checks the header and
//! hands the format's reader a cursor over the records; each record's
//! [`Fields`] types every field at its width (`u32` ids, `u64` ids and
//! counts, `u128` `numCC`), reads flags as a strict `0`/`1` and tags
//! through a [`Tags`] table, and ends with [`Fields::end`], which rejects
//! leftover tokens. A malformed field is an [`ImportError::BadLine`]
//! carrying the 1-based line number (0 when the input ends inside an open
//! section).
//!
//! The text is read by [`Bytes`], a cursor that walks the bytes once:
//! tokens are found and numbers typed as the cursor passes, with no
//! per-line or per-token allocation beyond the records it builds. The
//! [`Lexer`] trait it implements is the seam the tests use to run the same
//! readers on the `str` tokenizer it replaced (`lines`,
//! `split_ascii_whitespace`, `FromStr`) and check that both accept the
//! same language.

use std::fmt::Write as _;
use std::marker::PhantomData;
use std::mem::discriminant;
use std::str::FromStr;

use dacce_callgraph::{CallSiteId, Dispatch, FunctionId, TimeStamp};

use crate::ccstack::CcEntry;
use crate::context::{EncodedContext, SpawnLink};
use crate::export::{DispatchKind, ImportError};
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

    fn read<'a, L: Lexer<'a>>(&self, tok: &str) -> Option<T> {
        self.rows.iter().find_map(|&(tag, mut v)| {
            let rest = tok.strip_prefix(tag)?;
            match (self.num)(&mut v) {
                Some(n) => *n = L::read(rest)?,
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

/// Splits an artifact into records and fields and types its numbers: the
/// part of the codec that sees the text. The readers run on [`Bytes`];
/// the tests run the same readers on the `str` tokenizer it replaced and
/// compare.
pub(crate) trait Lexer<'a> {
    /// Moves to the next line that holds a token and returns that token,
    /// the record's keyword.
    fn record(&mut self) -> Option<&'a str>;

    /// The number of the current record's line, from 1 (the header).
    fn line(&self) -> usize;

    /// The current record's next token.
    fn token(&mut self) -> Option<&'a str>;

    /// The current record's next token as a number of type `T`, or the
    /// token itself when it is not one.
    fn num<T: Num>(&mut self) -> Option<Result<T, &'a str>>;

    /// Types a token as a number of type `T`.
    fn read<T: Num>(tok: &str) -> Option<T> {
        T::read(tok)
    }

    /// The next record: its keyword and a reader over the rest of its
    /// line. Blank lines are skipped, and so is whatever the reader of the
    /// previous record left unread.
    #[inline(always)]
    #[allow(clippy::inline_always)] // see `Bytes`
    fn next_record(&mut self) -> Option<(&'a str, Fields<'_, Self>)>
    where
        Self: Sized,
    {
        let kw = self.record()?;
        Some((kw, Fields(self)))
    }
}

/// Checks an artifact's header line and returns a cursor over its
/// records; `None` when the first line is not exactly `header`.
pub(crate) fn records<'a>(text: &'a str, header: &str) -> Option<Bytes<'a>> {
    let (first, end) = match text.find('\n') {
        // A `\r\n` ending counts as a line end; a `\r` elsewhere is a byte
        // of the line.
        Some(nl) => (text[..nl].strip_suffix('\r').unwrap_or(&text[..nl]), nl),
        None if text.is_empty() => return None,
        None => (text, text.len()),
    };
    (first == header).then_some(Bytes {
        text,
        pos: end,
        line: 1,
    })
}

/// The byte cursor the readers run on. A record is a line; its fields are
/// runs of bytes other than ASCII whitespace, separated by runs of space,
/// tab, carriage return or form feed, so a CRLF line reads like an LF one.
/// A number is one or more ASCII digits after an optional `+`. The
/// per-token methods here and in [`Fields`] are forced inline: a journal
/// makes millions of calls to them, and left out of line they cost about
/// a tenth of the parse.
pub(crate) struct Bytes<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// Number of the line `pos` is in.
    line: usize,
}

/// ASCII whitespace other than the line feed: the separator of fields
/// within a record.
fn is_blank(b: u8) -> bool {
    b != b'\n' && b.is_ascii_whitespace()
}

#[allow(clippy::inline_always)] // see `Bytes`
impl Bytes<'_> {
    /// Skips the blanks before the next token; returns where it starts.
    #[inline(always)]
    fn skip_blanks(&mut self) -> usize {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos).is_some_and(|&b| is_blank(b)) {
            self.pos += 1;
        }
        self.pos
    }
}

#[allow(clippy::inline_always)] // see `Bytes`
impl<'a> Lexer<'a> for Bytes<'a> {
    #[inline(always)]
    fn record(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        loop {
            let nl = bytes[self.pos..].iter().position(|&b| b == b'\n')?;
            self.pos += nl + 1;
            self.line += 1;
            if let Some(kw) = self.token() {
                return Some(kw);
            }
        }
    }

    fn line(&self) -> usize {
        self.line
    }

    #[inline(always)]
    fn token(&mut self) -> Option<&'a str> {
        let start = self.skip_blanks();
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        // A token starts and ends next to ASCII whitespace or the text's
        // ends, so it is on character boundaries.
        (start < self.pos).then(|| &self.text[start..self.pos])
    }

    /// Plain digits are typed as they are scanned; any other token goes
    /// through [`Num::read`].
    #[inline(always)]
    fn num<T: Num>(&mut self) -> Option<Result<T, &'a str>> {
        let start = self.skip_blanks();
        let bytes = self.text.as_bytes();
        let (mut at, mut n) = (start, T::ZERO);
        while let Some(v) = bytes.get(at).and_then(|&b| n.push(b)) {
            n = v;
            at += 1;
        }
        if at > start && bytes.get(at).is_none_or(u8::is_ascii_whitespace) {
            self.pos = at;
            return Some(Ok(n));
        }
        let tok = self.token()?;
        Some(T::read(tok).ok_or(tok))
    }
}

/// A number type a field is read at: decimal digits after an optional
/// `+`, with overflow past the type's range an error (the language of
/// `FromStr` for unsigned integers).
pub(crate) trait Num: Copy + FromStr {
    /// Zero, the value before the first digit.
    const ZERO: Self;

    /// `self * 10` plus the digit `b`, or `None` when `b` is not an ASCII
    /// digit or the result is past the type's range.
    fn push(self, b: u8) -> Option<Self>;

    /// Reads `tok`, or `None` when it is not a number of this width.
    fn read(tok: &str) -> Option<Self> {
        let b = tok.as_bytes();
        let digits = b.strip_prefix(b"+").unwrap_or(b);
        if digits.is_empty() {
            return None;
        }
        digits.iter().try_fold(Self::ZERO, |n, &b| n.push(b))
    }
}

macro_rules! num {
    ($($t:ty),*) => {$(
        impl Num for $t {
            const ZERO: $t = 0;

            #[inline]
            fn push(self, b: u8) -> Option<$t> {
                let d = b.wrapping_sub(b'0');
                if d < 10 {
                    self.checked_mul(10)?.checked_add(<$t>::from(d))
                } else {
                    None
                }
            }
        }
    )*};
}

num!(u32, u64, u128, usize);

/// The fields of one record, read left to right.
pub(crate) struct Fields<'r, L>(&'r mut L);

#[allow(clippy::inline_always)] // see `Bytes`
impl<'a, L: Lexer<'a>> Fields<'_, L> {
    /// An error on this record's line.
    pub(crate) fn error(&self, what: impl Into<String>) -> ImportError {
        ImportError::BadLine(self.0.line(), what.into())
    }

    /// The error for a field `what` that is not there.
    #[cold]
    fn missing(&self, what: &str) -> ImportError {
        self.error(format!("missing {what}"))
    }

    /// The error for a field `what` that is not what it should be.
    #[cold]
    pub(crate) fn bad(&self, what: &str, tok: &str) -> ImportError {
        self.error(format!("bad {what} {tok}"))
    }

    /// The next raw token, if any.
    #[inline(always)]
    pub(crate) fn next_token(&mut self) -> Option<&'a str> {
        self.0.token()
    }

    /// The next raw token; `what` names it in the error when missing.
    #[inline(always)]
    pub(crate) fn token(&mut self, what: &str) -> Result<&'a str, ImportError> {
        self.next_token().ok_or_else(|| self.missing(what))
    }

    /// Types a token already taken from this record.
    pub(crate) fn parse<T: Num>(&self, tok: &str, what: &str) -> Result<T, ImportError> {
        L::read(tok).ok_or_else(|| self.bad(what, tok))
    }

    /// The next field as a number of type `T`.
    #[inline(always)]
    pub(crate) fn num<T: Num>(&mut self, what: &str) -> Result<T, ImportError> {
        match self.0.num() {
            Some(Ok(n)) => Ok(n),
            Some(Err(tok)) => Err(self.bad(what, tok)),
            None => Err(self.missing(what)),
        }
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
        tags.read::<L>(tok).ok_or_else(|| self.bad(what, tok))
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
        read: impl FnOnce(&mut Parts<'a, L>) -> Option<T>,
    ) -> Result<T, ImportError> {
        let mut parts = Parts(Some(tok), PhantomData);
        read(&mut parts)
            .filter(|_| parts.0.is_none())
            .ok_or_else(|| self.bad(what, tok))
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
            while let Some(tok) = self.next_token() {
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
    #[inline(always)]
    pub(crate) fn end(mut self) -> Result<(), ImportError> {
        match self.next_token() {
            None => Ok(()),
            Some(tok) => Err(self.error(format!("trailing token {tok}"))),
        }
    }
}

/// The `:`-separated parts of one token; `None` once the last part is
/// taken.
pub(crate) struct Parts<'a, L>(Option<&'a str>, PhantomData<L>);

impl<'a, L: Lexer<'a>> Parts<'a, L> {
    fn next_part(&mut self) -> Option<&'a str> {
        let rest = self.0.take()?;
        match rest.bytes().position(|b| b == b':') {
            Some(i) => {
                self.0 = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => Some(rest),
        }
    }

    /// The next part as a number of type `T`.
    pub(crate) fn num<T: Num>(&mut self) -> Option<T> {
        L::read(self.next_part()?)
    }

    /// The next part, which must be exactly `lit`.
    pub(crate) fn lit(&mut self, lit: &str) -> Option<()> {
        (self.next_part()? == lit).then_some(())
    }
}

/// Appends `n` in decimal, as `Display` writes it.
pub(crate) fn push_decimal(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
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

    use std::iter::Enumerate;
    use std::str::{Lines, SplitAsciiWhitespace};

    use super::*;
    use crate::config::DacceConfig;
    use crate::export::{
        export_samples, export_tracker_state, import, read_export, OfflineDecoder,
        HEADER as EXPORT_HEADER,
    };
    use crate::fault::FaultPlan;
    use crate::fragment::{
        decode_parallel, decode_serial, DecodeJournal, JournalOp, ThreadRecorder,
        HEADER as JOURNAL_HEADER,
    };
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

    /// The `str` tokenizer the byte cursor replaced, kept as the reference
    /// of the differential tests: `lines`, `split_ascii_whitespace` and
    /// `FromStr`.
    struct StrLexer<'a> {
        lines: Enumerate<Lines<'a>>,
        tokens: SplitAsciiWhitespace<'a>,
        line: usize,
    }

    fn str_records<'a>(text: &'a str, header: &str) -> Option<StrLexer<'a>> {
        let mut lines = text.lines();
        (lines.next()? == header).then(|| StrLexer {
            lines: lines.enumerate(),
            tokens: "".split_ascii_whitespace(),
            line: 1,
        })
    }

    impl<'a> Lexer<'a> for StrLexer<'a> {
        fn record(&mut self) -> Option<&'a str> {
            loop {
                let (i, line) = self.lines.next()?;
                self.line = i + 2;
                self.tokens = line.split_ascii_whitespace();
                if let Some(kw) = self.tokens.next() {
                    return Some(kw);
                }
            }
        }

        fn line(&self) -> usize {
            self.line
        }

        fn token(&mut self) -> Option<&'a str> {
            self.tokens.next()
        }

        fn num<T: Num>(&mut self) -> Option<Result<T, &'a str>> {
            let tok = self.tokens.next()?;
            Some(Self::read(tok).ok_or(tok))
        }

        fn read<T: Num>(tok: &str) -> Option<T> {
            tok.parse().ok()
        }
    }

    /// Reads `text` as a journal and as an export, through the byte cursor
    /// and through the reference: both must give the same value or the
    /// same error. Returns the byte cursor's results.
    fn read_both_ways(
        text: &str,
    ) -> (
        Result<DecodeJournal, ImportError>,
        Result<OfflineDecoder, ImportError>,
    ) {
        let journal = DecodeJournal::parse(text);
        let reference = DecodeJournal::read(str_records(text, JOURNAL_HEADER));
        assert_eq!(journal, reference, "journal readers disagree on {text:?}");
        let export = import(text);
        match (&export, read_export(str_records(text, EXPORT_HEADER))) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.samples(), b.samples());
                assert_eq!(a.owners(), b.owners());
                assert_eq!(a.dispatch(), b.dispatch());
                assert_eq!(a.superops(), b.superops());
                assert_eq!(a.degraded(), b.degraded());
                assert_eq!(a.dicts().len(), b.dicts().len());
                for ts in 0..a.dicts().len() {
                    let ts = TimeStamp::new(ts as u32);
                    let (x, y) = (a.dicts().get(ts).unwrap(), b.dicts().get(ts).unwrap());
                    assert_eq!(
                        (x.timestamp(), x.max_id(), x.edges(), x.node_count()),
                        (y.timestamp(), y.max_id(), y.edges(), y.node_count())
                    );
                    let funcs = x.edges().iter().flat_map(|e| [e.caller, e.callee]);
                    for f in funcs.chain((0..256).map(FunctionId::new)) {
                        assert_eq!(x.num_cc(f), y.num_cc(f));
                    }
                }
            }
            (a, b) => assert_eq!(a.as_ref().err(), b.err().as_ref(), "{text:?}"),
        }
        (journal, export)
    }

    #[test]
    fn byte_reader_agrees_with_the_reference_on_edge_cases() {
        let journal = |body: &str| format!("{JOURNAL_HEADER}\nthread 0 0 0 0 0\n{body}\nend\n");
        fn line<T: std::fmt::Debug>(r: Result<T, ImportError>) -> usize {
            match r {
                Err(ImportError::BadLine(n, _)) => n,
                other => panic!("expected a line error, got {other:?}"),
            }
        }
        // `+`-signed numbers are numbers, in fields, effects and parts.
        let (ok, _) = read_both_ways(&journal(
            "op c +1 +2 a+3\nop r +4 a+5\nop g +0 +1 +2 +3 +4:+5:+6:+7",
        ));
        let ops = &ok.expect("signed numbers read").threads[0].ops;
        assert_eq!(
            ops[0],
            JournalOp::CallArith {
                site: CallSiteId::new(1),
                target: FunctionId::new(2),
                delta: 3
            }
        );
        assert_eq!(line(read_both_ways(&journal("op c + 2 a3")).0), 3);
        assert_eq!(line(read_both_ways(&journal("op c -1 2 a3")).0), 3);
        // Tabs, CRLF, form feeds and blank lines separate like spaces.
        let spaced = format!(
            "{JOURNAL_HEADER}\r\n\r\n\tthread\t0 0\x0c0 0 0\r\n\n  op s  \r\nop\tc 1 2 a3\r\nend"
        );
        let (ok, _) = read_both_ways(&spaced);
        assert_eq!(ok.expect("whitespace variants read").ops(), 2);
        // A vertical tab is not ASCII whitespace: it is part of a token.
        assert_eq!(line(read_both_ways(&journal("op\x0bs")).0), 3);
        // A bare CR ends no line, and a header needs its exact line.
        assert!(read_both_ways(&format!("{JOURNAL_HEADER}\r")).0.is_err());
        assert!(read_both_ways(&format!("{JOURNAL_HEADER} \n")).0.is_err());
        assert!(read_both_ways("").0.is_err());
        // Widths: u32::MAX + 1 and u64::MAX + 1 overflow, the maxima read.
        assert!(
            read_both_ways(&journal("op c 4294967295 1 a18446744073709551615"))
                .0
                .is_ok()
        );
        assert_eq!(line(read_both_ways(&journal("op c 4294967296 1 a1")).0), 3);
        assert_eq!(
            line(read_both_ways(&journal("op r 1 a18446744073709551616")).0),
            3
        );
        assert_eq!(
            line(read_both_ways(&journal("op g 0 18446744073709551616 0 0")).0),
            3
        );
        // A u128 `numCC` at its bound and one past it.
        for cc in [u128::MAX.to_string(), format!("{}0", u128::MAX)] {
            let text = format!("{EXPORT_HEADER}\ndict 0 0\nnode 0 {cc}\nenddict\n");
            match read_both_ways(&text).1 {
                Ok(_) => {}
                Err(ImportError::BadLine(n, _)) => assert!(n == 3 || n == 4, "{n}"),
                Err(e) => panic!("{e:?}"),
            }
        }
        let past = format!(
            "{EXPORT_HEADER}\ndict 0 0\nnode 0 {}0\nenddict\n",
            u128::MAX
        );
        assert!(matches!(
            read_both_ways(&past).1,
            Err(ImportError::BadLine(3, _))
        ));
        // A truncated `id:site:target` cc entry and an extra part.
        assert_eq!(line(read_both_ways(&journal("op g 0 0 0 0 1:2:3")).0), 3);
        assert_eq!(line(read_both_ways(&journal("op g 0 0 0 0 1:2:3:4:")).0), 3);
        assert_eq!(
            line(read_both_ways(&format!("{EXPORT_HEADER}\nsample 0 0 0 0 1:2:")).1),
            2
        );
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

        /// The byte cursor and the reference read recorded and randomly
        /// mutated journals and exports alike: the same value, or the same
        /// error on the same line. Besides the shared mutations, one byte
        /// is sometimes replaced by a sign or a whitespace variant.
        #[test]
        fn byte_reader_agrees_with_the_reference(seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let rec = record(seed);
            for text in [rec.journal.to_text(), rec.export] {
                let _ = read_both_ways(&text);
                for _ in 0..16 {
                    let mut mutated = random_mutation(&text, &mut rng);
                    if rng.gen_bool(0.5) {
                        let i = rng.gen_range(0..mutated.len().max(1));
                        if mutated.is_char_boundary(i) && mutated.is_char_boundary(i + 1) {
                            let c: char = ['+', '\t', '\r', '\x0b', '\x0c'][rng.gen_range(0..5usize)];
                            mutated.replace_range(i..=i, c.encode_utf8(&mut [0; 4]));
                        }
                    }
                    let _ = read_both_ways(&mutated);
                }
            }
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
