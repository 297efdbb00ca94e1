//! Validator for the flight-recorder postmortem format (`dacce-postmortem v1`).
//!
//! The document and its reader live in [`dacce_obs::postmortem`]; this
//! module parses a dump with [`Postmortem::parse`] and checks its internal
//! consistency, reporting findings as [`Diagnostic`]s under three rules:
//!
//! - `postmortem-format` — the document is structurally well-formed:
//!   version header, required keys in order, section order, exact CSV
//!   headers, parseable events JSON.
//! - `postmortem-spans` — the span table matches its declared count, is
//!   bounded by the recorder's window, and every row is a valid stitched
//!   span (`applied` is a flag, `begin_seq < end_seq`).
//! - `postmortem-consistent` — declared totals match the body: event
//!   count, monotone generation table, and the last generation row does
//!   not run ahead of the header's generation/max-id.

pub use dacce_obs::postmortem::Postmortem;
use dacce_obs::postmortem::MAX_SPANS;

use crate::lint::{Diagnostic, Severity};

/// Validates a postmortem document end to end: parses it (reporting any
/// structural problem under `postmortem-format`) and, when it parses,
/// checks the span table (`postmortem-spans`) and cross-section
/// consistency (`postmortem-consistent`).
#[must_use]
pub fn verify_postmortem(text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut err = |rule: &'static str, message: String| {
        out.push(Diagnostic {
            rule,
            severity: Severity::Error,
            ts: None,
            message,
            witness: Vec::new(),
        });
    };
    let pm = match Postmortem::parse(text) {
        Ok(pm) => pm,
        Err(e) => {
            err("postmortem-format", e);
            return out;
        }
    };

    // --- postmortem-spans -------------------------------------------------
    if pm.spans.len() as u64 != pm.spans_declared {
        err(
            "postmortem-spans",
            format!(
                "header declares spans={} but the table has {} rows",
                pm.spans_declared,
                pm.spans.len()
            ),
        );
    }
    if pm.spans.len() > MAX_SPANS {
        err(
            "postmortem-spans",
            format!(
                "span table has {} rows; the recorder keeps at most {MAX_SPANS}",
                pm.spans.len()
            ),
        );
    }
    for (i, span) in pm.spans.iter().enumerate() {
        if span.applied > 1 {
            err(
                "postmortem-spans",
                format!("span row {i}: applied={} is not a 0/1 flag", span.applied),
            );
        }
        if span.begin_seq >= span.end_seq {
            err(
                "postmortem-spans",
                format!(
                    "span row {i}: begin_seq={} does not precede end_seq={}",
                    span.begin_seq, span.end_seq
                ),
            );
        }
        if span.applied == 1 && span.to < span.from {
            err(
                "postmortem-spans",
                format!(
                    "span row {i}: applied re-encode moves generation backwards ({} -> {})",
                    span.from, span.to
                ),
            );
        }
    }

    // --- postmortem-consistent --------------------------------------------
    if pm.events.len() as u64 != pm.events_declared {
        err(
            "postmortem-consistent",
            format!(
                "header declares events={} but {} parsed from [events]",
                pm.events_declared,
                pm.events.len()
            ),
        );
    }
    if let Some(active) = pm.degraded_counter("active") {
        if active > 1 {
            err(
                "postmortem-consistent",
                format!("[degraded] active={active} is not a 0/1 flag"),
            );
        }
    }
    for pair in pm.generations.windows(2) {
        if pair[1].generation <= pair[0].generation {
            err(
                "postmortem-consistent",
                format!(
                    "[generations] not strictly increasing: {} then {}",
                    pair[0].generation, pair[1].generation
                ),
            );
        }
        if pair[1].max_id < pair[0].max_id {
            err(
                "postmortem-consistent",
                format!(
                    "[generations] max_id shrinks across re-encodes: {} then {}",
                    pair[0].max_id, pair[1].max_id
                ),
            );
        }
    }
    if let Some(last) = pm.generations.last() {
        if u64::from(last.generation) > pm.generation {
            err(
                "postmortem-consistent",
                format!(
                    "last [generations] row is generation {} but the header captured generation {}",
                    last.generation, pm.generation
                ),
            );
        }
        if last.max_id > pm.max_id {
            err(
                "postmortem-consistent",
                format!(
                    "last [generations] row has max_id {} above the header's {}",
                    last.max_id, pm.max_id
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_doc() -> String {
        concat!(
            "# dacce-postmortem v1\n",
            "reason=degraded-entry\n",
            "generation=2\n",
            "max_id=40\n",
            "spans=1\n",
            "events=2\n",
            "dropped=0\n",
            "[degraded]\n",
            "active=1\n",
            "trap_nodes=3\n",
            "degraded_traps=7\n",
            "reencode_retries=2\n",
            "cc_spill_events=0\n",
            "cc_spilled_peak=0\n",
            "lock_poisonings=0\n",
            "slot_failures=0\n",
            "batch_errors=0\n",
            "[generations]\n",
            "generation,nodes,edges,max_id,cost\n",
            "1,4,5,17,120\n",
            "2,6,9,40,310\n",
            "[spans]\n",
            "tid,from,to,applied,cost,begin_seq,end_seq,pause_ns\n",
            "0,1,2,1,310,5,9,1200\n",
            "[events]\n",
            "[\n",
            "{\"seq\":5,\"nanos\":100,\"tid\":0,\"event\":\"reencode_begin\",\"generation\":1},\n",
            "{\"seq\":9,\"nanos\":1300,\"tid\":0,\"event\":\"reencode_end\",\"generation\":2,",
            "\"applied\":1,\"cost\":310,\"nodes\":6,\"edges\":9,\"max_id\":40}\n",
            "]\n",
        )
        .to_string()
    }

    #[test]
    fn valid_document_parses_clean() {
        let doc = valid_doc();
        let pm = Postmortem::parse(&doc).expect("parses");
        assert_eq!(pm.reason, "degraded-entry");
        assert_eq!(pm.generation, 2);
        assert_eq!(pm.spans.len(), 1);
        assert_eq!(pm.events.len(), 2);
        assert_eq!(pm.degraded_counter("trap_nodes"), Some(3));
        assert!(verify_postmortem(&doc).is_empty());
    }

    #[test]
    fn missing_header_is_a_format_error() {
        let doc = valid_doc().replace("# dacce-postmortem v1", "# dacce-postmortem v2");
        let findings = verify_postmortem(&doc);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "postmortem-format");
        assert!(findings[0].is_error());
    }

    #[test]
    fn wrong_csv_header_is_a_format_error() {
        let doc = valid_doc().replace(
            "tid,from,to,applied,cost,begin_seq,end_seq,pause_ns",
            "tid,from,to",
        );
        let findings = verify_postmortem(&doc);
        assert_eq!(findings[0].rule, "postmortem-format");
    }

    #[test]
    fn garbled_events_json_is_a_format_error() {
        let doc = valid_doc().replace("\"event\":\"reencode_begin\"", "\"event\":\"nonsense\"");
        let findings = verify_postmortem(&doc);
        assert_eq!(findings[0].rule, "postmortem-format");
    }

    #[test]
    fn span_count_mismatch_is_reported() {
        let doc = valid_doc().replace("spans=1", "spans=3");
        let findings = verify_postmortem(&doc);
        assert!(findings
            .iter()
            .any(|d| d.rule == "postmortem-spans" && d.message.contains("spans=3")));
    }

    #[test]
    fn inverted_span_sequence_is_reported() {
        let doc = valid_doc().replace("0,1,2,1,310,5,9,1200", "0,1,2,1,310,9,5,1200");
        let findings = verify_postmortem(&doc);
        assert!(findings
            .iter()
            .any(|d| d.rule == "postmortem-spans" && d.message.contains("begin_seq")));
    }

    #[test]
    fn event_count_mismatch_is_reported() {
        let doc = valid_doc().replace("events=2", "events=5");
        let findings = verify_postmortem(&doc);
        assert!(findings
            .iter()
            .any(|d| d.rule == "postmortem-consistent" && d.message.contains("events=5")));
    }

    #[test]
    fn non_monotone_generation_table_is_reported() {
        let doc = valid_doc().replace("2,6,9,40,310", "1,6,9,40,310");
        let findings = verify_postmortem(&doc);
        assert!(findings
            .iter()
            .any(|d| d.rule == "postmortem-consistent" && d.message.contains("strictly")));
    }

    #[test]
    fn generation_table_ahead_of_header_is_reported() {
        let doc = valid_doc().replace("generation=2", "generation=1");
        let findings = verify_postmortem(&doc);
        assert!(findings
            .iter()
            .any(|d| d.rule == "postmortem-consistent" && d.message.contains("captured")));
    }

    /// A dump produced by the live engine validates clean end to end.
    #[test]
    fn engine_forced_dump_round_trips() {
        use dacce::{DacceConfig, DacceEngine};
        use dacce_callgraph::{CallSiteId, FunctionId};
        use dacce_program::runtime::CallDispatch;
        use dacce_program::{CostModel, ThreadId};
        let cfg = DacceConfig {
            edge_threshold: 2,
            min_events_between_reencodes: 1,
            profiler_stride: 3,
            ..DacceConfig::default()
        };
        let mut e = DacceEngine::new(cfg, CostModel::default());
        e.attach_main(FunctionId::new(0));
        e.thread_start(ThreadId::MAIN, FunctionId::new(0), None);
        for _round in 0..6u32 {
            for i in 0..4u32 {
                let caller = if i == 0 { 0 } else { i };
                let _ = e.call(
                    ThreadId::MAIN,
                    CallSiteId::new(i),
                    FunctionId::new(caller),
                    FunctionId::new(i + 1),
                    CallDispatch::Direct,
                    false,
                );
            }
            for i in (0..4u32).rev() {
                let caller = if i == 0 { 0 } else { i };
                let _ = e.ret(
                    ThreadId::MAIN,
                    CallSiteId::new(i),
                    FunctionId::new(caller),
                    FunctionId::new(i + 1),
                );
            }
        }
        e.force_postmortem("unit-test");
        let doc = e.postmortem().expect("dump captured").to_string();
        let pm = Postmortem::parse(&doc).expect("engine dump parses");
        assert_eq!(pm.reason, "unit-test");
        let findings = verify_postmortem(&doc);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }
}
