//! The oracle catches a wrong context: corrupting one expected query
//! context or one expected offline decode line must turn into a failed
//! operation, while the uncorrupted input passes.

use dacce_perfbench::bench::{prepare, run_prepared, Options, Prepared};
use dacce_perfbench::plan::Workload;
use dacce_program::PathStep;

fn quick(workload: Workload) -> (Options, Prepared) {
    let opts = Options {
        seconds: 0.05,
        size: 0.05,
        ..Options::new(workload, 7)
    };
    let prep = prepare(opts.workload, opts.seed, opts.size);
    (opts, prep)
}

#[test]
fn clean_input_passes_every_check() {
    for w in Workload::ALL {
        let (opts, prep) = quick(w);
        let report = run_prepared(&opts, &prep);
        assert_eq!(
            report.checks.failed,
            0,
            "{}: {:?}",
            w.name(),
            report.checks.first
        );
        assert!(report.checks.attempted > 0);
    }
}

#[test]
fn corrupted_query_context_is_caught() {
    let (opts, mut prep) = quick(Workload::ServerSteady);
    let worker = &mut prep.plan.threads[1];
    let extra = *worker.expected[0].0.last().expect("non-empty context");
    worker.expected[0].0.push(PathStep {
        site: extra.site,
        func: extra.func,
    });
    let report = run_prepared(&opts, &prep);
    assert!(report.checks.failed > 0, "the corrupted context must fail");
    let first = report.checks.first.expect("a failure is described");
    assert!(first.contains("query 0"), "{first}");
}

#[test]
fn corrupted_offline_line_is_caught() {
    let (opts, mut prep) = quick(Workload::PerlbenchAdaptive);
    prep.journal_lines[3].push_str(" -> f0");
    let report = run_prepared(&opts, &prep);
    assert!(report.checks.failed > 0, "the corrupted line must fail");
    let first = report.checks.first.expect("a failure is described");
    assert!(first.contains("offline decode"), "{first}");
}
