//! Regenerates **Figure 10** of the paper: cumulative distributions of the
//! call-stack depth and the ccStack depth at sample points, for four
//! representative benchmarks.
//!
//! The paper's observations to reproduce: for most programs
//! (`459.GemsFDTD` is the exemplar) the ccStack is essentially always
//! empty while the call stack has moderate depth; `445.gobmk` has
//! non-trivial ccStack depth from frequent recursion; `483.xalancbmk` has
//! very deep call stacks (thousands of frames; ~7200 to cover 90% in the
//! paper) while compressed recursion keeps the ccStack orders of magnitude
//! shallower.
//!
//! ```text
//! cargo run -p dacce-bench --release --bin figure10 [-- --scale 1.0]
//! ```

use dacce_bench::Options;
use dacce_metrics::{Cdf, Table};
use dacce_workloads::{all_benchmarks, run_benchmark, DriverConfig};

const SELECTED: [&str; 4] = ["x264", "445.gobmk", "459.GemsFDTD", "483.xalancbmk"];

fn main() {
    let opts = Options::from_args();
    let cfg = DriverConfig {
        scale: opts.scale,
        ..DriverConfig::default()
    };

    let mut csv = Table::new(["benchmark", "kind", "depth", "cumulative"]);
    for name in SELECTED {
        let spec = all_benchmarks()
            .into_iter()
            .find(|s| s.name == name)
            .expect("selected benchmark exists");
        let out = run_benchmark(&spec, &cfg);

        let call_stack = Cdf::new(out.dacce_report.sample_depths.clone());
        let cc_stack = Cdf::from_counts(&out.dacce_stats.cc_depths);

        println!("\nFigure 10 — {name}: cumulative stack-depth distributions");
        println!(
            "call stack: max {}, 50% at {}, 90% at {}, 99% at {}",
            call_stack.max(),
            call_stack.depth_covering(0.5),
            call_stack.depth_covering(0.9),
            call_stack.depth_covering(0.99),
        );
        println!(
            "ccStack (adaptive encoding): max {}, 50% at {}, 90% at {}, 99% at {}",
            cc_stack.max(),
            cc_stack.depth_covering(0.5),
            cc_stack.depth_covering(0.9),
            cc_stack.depth_covering(0.99),
        );

        let mut t = Table::new(["depth", "call stack", "ccStack"]);
        for (d, frac) in call_stack.series(12) {
            t.row([
                d.to_string(),
                format!("{:.1}%", frac * 100.0),
                format!("{:.1}%", cc_stack.at(d) * 100.0),
            ]);
        }
        println!("{}", t.render());

        for (kind, cdf) in [("call_stack", &call_stack), ("ccstack", &cc_stack)] {
            for (d, frac) in cdf.series(24) {
                csv.row([
                    name.to_string(),
                    kind.to_string(),
                    d.to_string(),
                    format!("{frac:.4}"),
                ]);
            }
        }
    }

    let path = opts.write_csv("figure10.csv", &csv.to_csv());
    println!("\nCSV written to {}", path.display());
}
