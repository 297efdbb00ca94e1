//! The flight-recorder postmortem document (`dacce-postmortem v1`): its
//! writer and its reader, over one set of key and header definitions.
//!
//! The runtime dumps a postmortem when it first enters degraded mode,
//! exhausts its re-encode retries, or is asked to. The dump is a small
//! versioned text document: a `key=value` header, the `[degraded]`
//! counters, the `[generations]` table and the last re-encode `[spans]`
//! (CSV, headed by their column names), and the peeked journal `[events]`
//! as JSON. [`Postmortem::parse`] enforces only structure;
//! `dacce-lint --postmortem` checks the values.

use std::fmt::Write as _;

use crate::event::{events_from_json, events_to_json, EventRecord};
use crate::metrics::GenerationInfo;

/// Re-encode spans a postmortem keeps (the last ones of the timeline).
pub const MAX_SPANS: usize = 32;

const HEADER: &str = "# dacce-postmortem v1";
/// Header keys after `reason`, in document order.
const HEADER_KEYS: [&str; 5] = ["generation", "max_id", "spans", "events", "dropped"];
/// `[degraded]` counter keys, in document order.
pub const DEGRADED_KEYS: [&str; 9] = [
    "active",
    "trap_nodes",
    "degraded_traps",
    "reencode_retries",
    "cc_spill_events",
    "cc_spilled_peak",
    "lock_poisonings",
    "slot_failures",
    "batch_errors",
];

/// The next cell of a CSV row, typed at its column's width.
fn cell<T: std::str::FromStr>(
    cells: &mut std::str::Split<'_, char>,
    line: &str,
    header: &str,
) -> Result<T, String> {
    let c = cells
        .next()
        .ok_or_else(|| format!("row {line:?} has fewer fields than `{header}`"))?;
    c.parse()
        .map_err(|_| format!("bad field {c:?} in row {line:?}"))
}

/// Makes a struct a CSV table row: its listed fields, in order, are the
/// columns, and their names are the table's CSV header line.
macro_rules! csv_row {
    ($row:ident { $($col:ident: $ty:ty,)* }) => {
        impl $row {
            const HEADER: &'static [&'static str] = &[$(stringify!($col)),*];

            fn cells(&self) -> Vec<u64> {
                vec![$(u64::from(self.$col)),*]
            }

            fn parse(line: &str) -> Result<Self, String> {
                let header = Self::HEADER.join(",");
                let mut cells = line.split(',');
                let row = $row { $($col: cell(&mut cells, line, &header)?,)* };
                match cells.next() {
                    None => Ok(row),
                    Some(_) => Err(format!("row {line:?} has more fields than `{header}`")),
                }
            }
        }
    };
}

csv_row!(GenerationInfo {
    generation: u32,
    nodes: u32,
    edges: u32,
    max_id: u64,
    cost: u64,
});

/// One row of the `[spans]` table: a re-encode span, with its pause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Thread that ran the re-encode.
    pub tid: u64,
    /// Generation the span started from.
    pub from: u64,
    /// Generation the span ended at.
    pub to: u64,
    /// 1 when the re-encode applied, 0 when it aborted.
    pub applied: u64,
    /// Cost charged for the span.
    pub cost: u64,
    /// Journal sequence number of the begin event.
    pub begin_seq: u64,
    /// Journal sequence number of the end event.
    pub end_seq: u64,
    /// Wall-clock pause attributed to the span, in nanoseconds.
    pub pause_ns: u64,
}

csv_row!(SpanRow {
    tid: u64,
    from: u64,
    to: u64,
    applied: u64,
    cost: u64,
    begin_seq: u64,
    end_seq: u64,
    pause_ns: u64,
});

/// A `dacce-postmortem v1` document.
#[derive(Clone, Debug, PartialEq)]
pub struct Postmortem {
    /// Why the dump was captured (e.g. `degraded-entry`).
    pub reason: String,
    /// Encoding generation at capture time.
    pub generation: u64,
    /// `maxID` at capture time.
    pub max_id: u64,
    /// Declared number of span rows.
    pub spans_declared: u64,
    /// Declared number of journal events.
    pub events_declared: u64,
    /// Events the journal had dropped by capture time.
    pub dropped: u64,
    /// The `[degraded]` counters, one per [`DEGRADED_KEYS`] entry.
    pub degraded: [u64; 9],
    /// The `[generations]` table rows.
    pub generations: Vec<GenerationInfo>,
    /// The `[spans]` table rows.
    pub spans: Vec<SpanRow>,
    /// The `[events]` journal records.
    pub events: Vec<EventRecord>,
}

fn value<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    line.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| format!("expected `{key}=...`, found {line:?}"))
}

fn number(line: &str, key: &str) -> Result<u64, String> {
    let v = value(line, key)?;
    v.parse()
        .map_err(|_| format!("`{key}` is not an unsigned integer: {v:?}"))
}

fn write_table(s: &mut String, header: &[&str], rows: impl Iterator<Item = Vec<u64>>) {
    let _ = writeln!(s, "{}", header.join(","));
    for row in rows {
        let cells: Vec<String> = row.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "{}", cells.join(","));
    }
}

impl Postmortem {
    /// The value of one `[degraded]` counter, if `key` names one.
    #[must_use]
    pub fn degraded_counter(&self, key: &str) -> Option<u64> {
        let i = DEGRADED_KEYS.iter().position(|k| *k == key)?;
        Some(self.degraded[i])
    }

    /// Renders the document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("{HEADER}\nreason={}\n", self.reason);
        let header = [
            self.generation,
            self.max_id,
            self.spans_declared,
            self.events_declared,
            self.dropped,
        ];
        for (key, v) in HEADER_KEYS.iter().zip(header) {
            let _ = writeln!(s, "{key}={v}");
        }
        s.push_str("[degraded]\n");
        for (key, v) in DEGRADED_KEYS.iter().zip(self.degraded) {
            let _ = writeln!(s, "{key}={v}");
        }
        s.push_str("[generations]\n");
        let generations = self.generations.iter().map(GenerationInfo::cells);
        write_table(&mut s, GenerationInfo::HEADER, generations);
        s.push_str("[spans]\n");
        write_table(
            &mut s,
            SpanRow::HEADER,
            self.spans.iter().map(SpanRow::cells),
        );
        let _ = writeln!(s, "[events]\n{}", events_to_json(&self.events));
        s
    }

    /// Parses a document, or explains why it is malformed. Only structure
    /// is enforced: version header, keys in order, section order, exact
    /// CSV headers, parseable events JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn parse(text: &str) -> Result<Postmortem, String> {
        let mut lines = text.lines();
        let first = lines.next().ok_or("empty postmortem document")?;
        if first != HEADER {
            return Err(format!("missing `{HEADER}` header, found {first:?}"));
        }
        let mut next = || lines.next().ok_or("document truncated".to_string());
        let expect = |line: &str, want: &str| {
            (line == want)
                .then_some(())
                .ok_or_else(|| format!("expected `{want}`, found {line:?}"))
        };

        let reason = value(next()?, "reason")?.to_string();
        let mut header = [0u64; 5];
        for (slot, key) in header.iter_mut().zip(HEADER_KEYS) {
            *slot = number(next()?, key)?;
        }
        let [generation, max_id, spans_declared, events_declared, dropped] = header;
        expect(next()?, "[degraded]")?;
        let mut degraded = [0u64; 9];
        for (slot, key) in degraded.iter_mut().zip(DEGRADED_KEYS) {
            *slot = number(next()?, key)?;
        }
        expect(next()?, "[generations]")?;
        expect(next()?, &GenerationInfo::HEADER.join(","))?;
        let mut generations = Vec::new();
        loop {
            match next()? {
                "[spans]" => break,
                line => generations.push(GenerationInfo::parse(line)?),
            }
        }
        expect(next()?, &SpanRow::HEADER.join(","))?;
        let mut spans = Vec::new();
        loop {
            match next()? {
                "[events]" => break,
                line => spans.push(SpanRow::parse(line)?),
            }
        }
        let events = events_from_json(&lines.collect::<Vec<_>>().join("\n"))?;
        Ok(Postmortem {
            reason,
            generation,
            max_id,
            spans_declared,
            events_declared,
            dropped,
            degraded,
            generations,
            spans,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    /// A document whose every value is drawn from `seed`.
    fn doc(seed: u64) -> Postmortem {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let generations = (0..next(4))
            .map(|generation| GenerationInfo {
                generation: generation as u32,
                nodes: next(9) as u32,
                edges: next(9) as u32,
                max_id: next(1 << 40),
                cost: next(500),
            })
            .collect();
        let spans: Vec<SpanRow> = (0..next(4))
            .map(|tid| SpanRow {
                tid,
                from: 1,
                to: 2,
                applied: next(2),
                cost: next(99),
                begin_seq: 4,
                end_seq: 9,
                pause_ns: next(1 << 20),
            })
            .collect();
        let events: Vec<EventRecord> = (0..next(5))
            .map(|seq| EventRecord {
                seq,
                nanos: next(1 << 30),
                tid: next(3) as u32,
                kind: match next(3) {
                    0 => EventKind::ReencodeBegin {
                        generation: next(9) as u32,
                    },
                    1 => EventKind::CcPush {
                        depth: next(64) as u32,
                    },
                    _ => EventKind::Trap {
                        site: next(99) as u32,
                        caller: next(9) as u32,
                        callee: next(9) as u32,
                    },
                },
            })
            .collect();
        Postmortem {
            reason: ["degraded-entry", "operator-requested"][next(2) as usize].to_string(),
            generation: next(9),
            max_id: next(u64::MAX),
            spans_declared: spans.len() as u64,
            events_declared: events.len() as u64,
            dropped: next(3),
            degraded: [(); 9].map(|()| next(1000)),
            generations,
            spans,
            events,
        }
    }

    /// Every truncation, single-byte deletion and single-byte replacement
    /// of a rendered document parses or fails with a description.
    #[test]
    fn every_single_byte_mutation_is_a_typed_error() {
        let text = doc(3).render();
        for i in 0..text.len() {
            let _ = Postmortem::parse(&text[..i]);
            let _ = Postmortem::parse(&format!("{}{}", &text[..i], &text[i + 1..]));
            for c in ['é', '9', ',', '=', '\n', '['] {
                let _ = Postmortem::parse(&format!("{}{c}{}", &text[..i], &text[i + 1..]));
            }
        }
    }

    proptest::proptest! {
        /// A document parses back to the values it was rendered from.
        #[test]
        fn rendered_documents_roundtrip(seed in 0u64..u64::MAX) {
            let pm = doc(seed);
            proptest::prop_assert_eq!(Postmortem::parse(&pm.render()), Ok(pm));
        }
    }
}
