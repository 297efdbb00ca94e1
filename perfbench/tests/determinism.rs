//! Behaviour is deterministic: on a reduced input, two runs with the same
//! seed report identical per-layer counts, and each workload exercises
//! what it was chosen for.

use dacce_perfbench::bench::{run, Options, Report};
use dacce_perfbench::plan::Workload;

fn reduced(workload: Workload, traced: bool) -> Report {
    let opts = Options {
        seconds: 0.05,
        size: 0.05,
        traced,
        ..Options::new(workload, 3)
    };
    let report = run(&opts);
    assert_eq!(
        report.checks.failed,
        0,
        "{}: {:?}",
        workload.name(),
        report.checks.first
    );
    report
}

#[test]
fn same_seed_runs_repeat_their_counts() {
    for w in Workload::ALL {
        let a = reduced(w, false);
        let b = reduced(w, true);
        assert!(!a.counts.is_empty());
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert_eq!(a.input, b.input, "{}", w.name());
    }
}

#[test]
fn workloads_exercise_their_layers() {
    let server = reduced(Workload::ServerSteady, false).counts;
    assert_eq!(server["round.patch.traps"], 0);
    assert_eq!(server["round.reencode.count"], 0);
    assert!(server["round.superop.hits"] > 0);
    assert!(server["setup.superop.installed"] > 0);

    let perl = reduced(Workload::PerlbenchAdaptive, false).counts;
    assert!(perl["episode.patch.traps"] > 0);
    assert!(perl["episode.reencode.count"] > 0);
    assert_eq!(perl["episode.superop.hits"], 0);

    let churn = reduced(Workload::ThreadChurn, false);
    // Every thread but the first is spawned, and each decoded with its
    // creation context.
    assert_eq!(
        churn.counts["episode.threads.spawned_decoded"],
        churn.input["threads"] - 1
    );
    assert!(churn.input["threads"] > 2);
}

#[test]
fn traced_run_reports_every_layer() {
    for w in Workload::ALL {
        let report = reduced(w, true);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        for want in [
            "tracker.run_batch.ns_per_op",
            "traced.unattributed_share",
            "fragment.decode_serial.ns_per_op",
        ] {
            assert!(names.contains(&want), "{}: {want} missing", w.name());
        }
        assert!(report.spans.is_some_and(|s| s.lines().count() > 1));
    }
}
