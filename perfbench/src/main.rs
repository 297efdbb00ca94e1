//! Command-line entry point of the benchmark.
//!
//! ```text
//! dacce-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the e2e metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The line before
//! it records provenance, input size and the per-layer counts. Exits 1
//! when any checked operation failed, 2 on bad arguments. A traced run
//! writes its kept spans into `$PERFBENCH_OUT_DIR` when that is set.

use std::fmt::Write as _;
use std::process::ExitCode;

use dacce_perfbench::bench::{run, Options};
use dacce_perfbench::plan::Workload;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: dacce-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// A JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values as measured, non-finite ones as 0.
fn jn(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = Options {
        seconds,
        traced,
        ..Options::new(workload, seed)
    };
    let report = run(&opts);

    if let (Ok(dir), Some(spans)) = (std::env::var("PERFBENCH_OUT_DIR"), &report.spans) {
        let path = format!("{dir}/{}-seed{seed}.spans.tsv", workload.name());
        if let Err(e) = std::fs::write(&path, spans) {
            eprintln!("warning: cannot write spans to {path}: {e}");
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let kv = |m: &mut dyn Iterator<Item = (&str, u64)>| {
        m.map(|(k, v)| format!("{}: {v}", js(k)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"size\": {}, \"seconds\": {}, \
         \"traced\": {traced}, \"nproc\": {nproc}, \"commit\": {}, \"source_digest\": {}, \
         \"malloc_trim_threshold\": {}, \"malloc_mmap_threshold\": {}, \
         \"load_peak_rss_mb\": {}, \"peak_rss_reset\": {}, \
         \"provenance\": \"measured\"}}, \"input\": {{{}}}, \"counts\": {{{}}}}}",
        js(workload.name()),
        jn(opts.size),
        jn(seconds),
        js(&env("PERFBENCH_COMMIT")),
        js(&env("PERFBENCH_SOURCE_DIGEST")),
        js(&env("MALLOC_TRIM_THRESHOLD_")),
        js(&env("MALLOC_MMAP_THRESHOLD_")),
        jn(report.load_peak_kb as f64 / 1024.0),
        report.peak_reset,
        kv(&mut report.input.iter().map(|(k, v)| (*k, *v))),
        kv(&mut report.counts.iter().map(|(k, v)| (k.as_str(), *v)))
    );
    if let Some(first) = &report.checks.first {
        eprintln!("first failure: {first}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                js(m.name),
                jn(m.value),
                js(m.unit)
            )
        })
        .collect();
    let correct = report.checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.attempted,
        report.checks.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
