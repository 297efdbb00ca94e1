//! `dacce-flame` — merge collapsed-stack flame exports offline.
//!
//! Usage: `dacce-flame [--export <export-file>] [--lineage <hex>] [--json] [--out <file>] <input>...`
//!
//! Each input is either a collapsed-stack flame file (`# dacce-flame v1`,
//! as written by `dacce-top --flame`) or a journal event dump (the JSON
//! array written by `dacce-top --journal-out`). Flame files are parsed
//! directly. Journal dumps are decoded: every `sample` event whose
//! context was fully encoded (depth 0 — no ccStack suspension) is
//! resolved against the `dacce-export v1` state given with `--export`
//! into a root-first frame stack `f<root>;…;f<leaf>`; deeper samples
//! cannot be reconstructed from the event alone and are counted as
//! skipped on stderr. Journal-derived stacks are tagged with the
//! `--lineage` hex hash when given (so fleet merges key correctly), 0
//! otherwise.
//!
//! All inputs are merged into one graph: the lineage tag survives when
//! every input agrees and is zeroed on mixed merges. The result is
//! written to `--out` (or stdout) in collapsed-stack text, or as JSON
//! with `--json`. Exits 2 on usage, IO or parse errors.

use std::process::ExitCode;

use dacce::{EncodedContext, OfflineDecoder};
use dacce_callgraph::{FunctionId, TimeStamp};
use dacce_obs::{events_from_json, EventKind, FlameGraph};

fn usage() -> ExitCode {
    eprintln!(
        "usage: dacce-flame [--export <export-file>] [--lineage <hex>] [--json] \
         [--out <file>] <flame-or-journal-file>..."
    );
    ExitCode::from(2)
}

/// Decodes the `sample` events of a journal dump into a flame graph.
/// Returns the graph plus how many samples were skipped (suspended
/// contexts or decode failures).
fn flame_from_journal(
    text: &str,
    decoder: Option<&OfflineDecoder>,
    lineage: u64,
) -> Result<(FlameGraph, usize), String> {
    let events = events_from_json(text)?;
    let mut graph = FlameGraph::new(lineage);
    let mut skipped = 0usize;
    for ev in &events {
        let EventKind::Sample {
            generation,
            id,
            leaf,
            root,
            weight,
            depth,
            ..
        } = ev.kind
        else {
            continue;
        };
        let Some(decoder) = decoder else {
            return Err("journal input needs --export <export-file> to decode samples".into());
        };
        if depth != 0 {
            // The event only carries the ccStack depth, not its entries;
            // a suspended context cannot be reconstructed offline.
            skipped += 1;
            continue;
        }
        let ctx = EncodedContext {
            ts: TimeStamp::new(generation),
            id,
            leaf: FunctionId::new(leaf),
            root: FunctionId::new(root),
            cc: Vec::new(),
            spawn: None,
        };
        match decoder.decode(&ctx) {
            Ok(path) => {
                let frames: Vec<String> = path.0.iter().map(|s| s.func.to_string()).collect();
                graph.add(&frames, u64::from(weight));
            }
            Err(_) => skipped += 1,
        }
    }
    Ok((graph, skipped))
}

fn main() -> ExitCode {
    let mut export: Option<String> = None;
    let mut lineage = 0u64;
    let mut json = false;
    let mut out: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--export" => match args.next() {
                Some(path) => export = Some(path),
                None => return usage(),
            },
            "--lineage" => match args.next().map(|h| u64::from_str_radix(&h, 16)) {
                Some(Ok(h)) => lineage = h,
                _ => return usage(),
            },
            "--json" => json = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => return usage(),
            },
            _ => inputs.push(arg),
        }
    }
    if inputs.is_empty() {
        return usage();
    }

    let decoder: Option<OfflineDecoder> = match &export {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match dacce::import(&text) {
                Ok(d) => Some(d),
                Err(e) => {
                    eprintln!("{path}: cannot import: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let mut merged: Option<FlameGraph> = None;
    let mut skipped_total = 0usize;
    for input in &inputs {
        let text = match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{input}: cannot read: {e}");
                return ExitCode::from(2);
            }
        };
        let parsed = if text.starts_with("# dacce-flame v1") {
            FlameGraph::parse(&text)
        } else {
            flame_from_journal(&text, decoder.as_ref(), lineage).map(|(graph, skipped)| {
                if skipped > 0 {
                    eprintln!("{input}: {skipped} suspended/undecodable sample(s) skipped");
                    skipped_total += skipped;
                }
                graph
            })
        };
        let graph = match parsed {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{input}: {e}");
                return ExitCode::from(2);
            }
        };
        match &mut merged {
            None => merged = Some(graph),
            Some(m) => {
                if let Err(e) = m.merge(&graph) {
                    eprintln!("{input}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let merged = merged.expect("at least one input");

    let rendered = if json {
        merged.to_json()
    } else {
        merged.to_collapsed()
    };
    match &out {
        None => print!("{rendered}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("{path}: cannot write: {e}");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "dacce-flame: {} input(s), {} stack(s), total weight {}, lineage {:016x}{}",
        inputs.len(),
        merged.len(),
        merged.total(),
        merged.lineage,
        if skipped_total > 0 {
            format!(", {skipped_total} sample(s) skipped")
        } else {
            String::new()
        }
    );
    ExitCode::SUCCESS
}
