//! Renders a [`MetricsSnapshot`] as JSON and Prometheus-style text.
//!
//! Both writers are hand-rolled (no serde in the dependency closure). The
//! JSON form nests histograms and the generation table; the Prometheus
//! form flattens everything into `dacce_*` series with `HELP`/`TYPE`
//! headers, cumulative `_bucket{le=...}` histogram series, and a
//! `generation` label on the dictionary table gauges.

use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"traps\": {},", self.traps);
        let _ = writeln!(s, "  \"edges_discovered\": {},", self.edges_discovered);
        let _ = writeln!(s, "  \"sites_patched\": {},", self.sites_patched);
        let _ = writeln!(s, "  \"reencodes\": {},", self.reencodes);
        let _ = writeln!(s, "  \"reencode_aborts\": {},", self.reencode_aborts);
        let _ = writeln!(s, "  \"migrations\": {},", self.migrations);
        let _ = writeln!(s, "  \"cc_overflows\": {},", self.cc_overflows);
        let _ = writeln!(s, "  \"samples\": {},", self.samples);
        let _ = writeln!(s, "  \"profiler_samples\": {},", self.profiler_samples);
        let _ = writeln!(
            s,
            "  \"profiler_sample_weight\": {},",
            self.profiler_sample_weight
        );
        let _ = writeln!(s, "  \"warm_seeded_edges\": {},", self.warm_seeded_edges);
        let _ = writeln!(s, "  \"warm_pruned_edges\": {},", self.warm_pruned_edges);
        let _ = writeln!(s, "  \"icache_hits\": {},", self.icache_hits);
        let _ = writeln!(s, "  \"icache_misses\": {},", self.icache_misses);
        let _ = writeln!(s, "  \"superop_hits\": {},", self.superop_hits);
        let _ = writeln!(s, "  \"superop_misses\": {},", self.superop_misses);
        let _ = writeln!(
            s,
            "  \"superop_invalidations\": {},",
            self.superop_invalidations
        );
        let _ = writeln!(
            s,
            "  \"superop_republishes\": {},",
            self.superop_republishes
        );
        let _ = writeln!(s, "  \"superop_compiled\": {},", self.superop_compiled);
        let _ = writeln!(s, "  \"superop_candidates\": {},", self.superop_candidates);
        let _ = writeln!(s, "  \"degraded_traps\": {},", self.degraded_traps);
        let _ = writeln!(s, "  \"reencode_retries\": {},", self.reencode_retries);
        let _ = writeln!(s, "  \"cc_spills\": {},", self.cc_spills);
        let _ = writeln!(s, "  \"lock_poisonings\": {},", self.lock_poisonings);
        let _ = writeln!(s, "  \"slot_failures\": {},", self.slot_failures);
        let _ = writeln!(s, "  \"lineage_adoptions\": {},", self.lineage_adoptions);
        let _ = writeln!(s, "  \"lineage_publishes\": {},", self.lineage_publishes);
        let _ = writeln!(
            s,
            "  \"lineage_divergences\": {},",
            self.lineage_divergences
        );
        let _ = writeln!(s, "  \"dispatch_slots\": {},", self.dispatch_slots);
        let _ = writeln!(s, "  \"dispatch_span\": {},", self.dispatch_span);
        let _ = writeln!(s, "  \"journal_dropped\": {},", self.journal_dropped);
        let _ = writeln!(
            s,
            "  \"id_headroom\": {{\"max_id\": {}, \"bits_used\": {}, \"bits_spare\": {}}},",
            self.id_headroom.max_id, self.id_headroom.bits_used, self.id_headroom.bits_spare
        );
        s.push_str("  \"generations\": [");
        for (i, g) in self.generations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"generation\": {}, \"nodes\": {}, \"edges\": {}, \"max_id\": {}, \"cost\": {}}}",
                g.generation, g.nodes, g.edges, g.max_id, g.cost
            );
        }
        if self.generations.is_empty() {
            s.push_str("],\n");
        } else {
            s.push_str("\n  ],\n");
        }
        json_histogram(&mut s, "trap_ns", &self.trap_ns, true);
        json_histogram(&mut s, "reencode_cost", &self.reencode_cost, true);
        json_histogram(&mut s, "cc_depth", &self.cc_depth, true);
        json_histogram(&mut s, "sampled_ids", &self.sampled_ids, false);
        s.push_str("}\n");
        s
    }

    /// Renders the snapshot as Prometheus-style exposition text.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let counters: [(&str, &str, u64); 27] = [
            ("dacce_traps_total", "Cold-start traps handled", self.traps),
            (
                "dacce_edges_discovered_total",
                "New call edges added to the dynamic graph",
                self.edges_discovered,
            ),
            (
                "dacce_sites_patched_total",
                "Call sites (re)patched",
                self.sites_patched,
            ),
            (
                "dacce_reencodes_total",
                "Re-encode attempts, applied or aborted",
                self.reencodes,
            ),
            (
                "dacce_reencode_aborts_total",
                "Re-encode attempts aborted on overflow",
                self.reencode_aborts,
            ),
            (
                "dacce_migrations_total",
                "Threads lazily migrated across generations",
                self.migrations,
            ),
            (
                "dacce_cc_overflows_total",
                "New ccStack high-water marks at or above the watermark",
                self.cc_overflows,
            ),
            ("dacce_samples_total", "Context samples taken", self.samples),
            (
                "dacce_profiler_samples_total",
                "Continuous-profiler samples captured",
                self.profiler_samples,
            ),
            (
                "dacce_profiler_sample_weight_total",
                "Events represented by profiler samples",
                self.profiler_sample_weight,
            ),
            (
                "dacce_warm_seeded_edges_total",
                "Warm-start edges seeded",
                self.warm_seeded_edges,
            ),
            (
                "dacce_warm_pruned_edges_total",
                "Warm-start edges pruned for id budget",
                self.warm_pruned_edges,
            ),
            (
                "dacce_icache_hits_total",
                "Indirect-call inline-cache hits",
                self.icache_hits,
            ),
            (
                "dacce_icache_misses_total",
                "Indirect-call inline-cache misses",
                self.icache_misses,
            ),
            (
                "dacce_superop_hits_total",
                "Superop windows executed as memoized net effects",
                self.superop_hits,
            ),
            (
                "dacce_superop_misses_total",
                "Superop probes that fell back to the per-event loop",
                self.superop_misses,
            ),
            (
                "dacce_superop_invalidations_total",
                "Compiled superops dropped on republish",
                self.superop_invalidations,
            ),
            (
                "dacce_superop_republishes_total",
                "Snapshot publications (superop epoch boundaries)",
                self.superop_republishes,
            ),
            (
                "dacce_degraded_traps_total",
                "Traps taken on degraded trap-everything nodes",
                self.degraded_traps,
            ),
            (
                "dacce_reencode_retries_total",
                "Re-encode attempts re-armed after an abort",
                self.reencode_retries,
            ),
            (
                "dacce_cc_spills_total",
                "ccStack watermark-shedding spill events",
                self.cc_spills,
            ),
            (
                "dacce_lock_poisonings_total",
                "Slow-path lock acquisitions recovered from poisoning",
                self.lock_poisonings,
            ),
            (
                "dacce_slot_failures_total",
                "Dispatch-slot allocations refused by an injected cap",
                self.slot_failures,
            ),
            (
                "dacce_lineage_adoptions_total",
                "Shared-lineage generations adopted instead of re-encoding",
                self.lineage_adoptions,
            ),
            (
                "dacce_lineage_publishes_total",
                "Applied re-encodings published into a shared lineage",
                self.lineage_publishes,
            ),
            (
                "dacce_lineage_divergences_total",
                "Tenants diverged copy-on-write off their shared lineage",
                self.lineage_divergences,
            ),
            (
                "dacce_journal_dropped_total",
                "Journal records lost to ring overwrites",
                self.journal_dropped,
            ),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} counter");
            let _ = writeln!(s, "{name} {value}");
        }
        let gauges: [(&str, &str, u64); 8] = [
            (
                "dacce_dictionaries",
                "Encoding generations with a live decode dictionary",
                self.generations.len() as u64,
            ),
            (
                "dacce_max_id",
                "maxID of the current encoding generation",
                self.id_headroom.max_id,
            ),
            (
                "dacce_id_bits_used",
                "Bits needed to represent the current maxID",
                u64::from(self.id_headroom.bits_used),
            ),
            (
                "dacce_id_bits_spare",
                "Bits of u64 headroom before context ids overflow",
                u64::from(self.id_headroom.bits_spare),
            ),
            (
                "dacce_dispatch_slots",
                "Allocated dispatch-table slots (compiled sites)",
                self.dispatch_slots,
            ),
            (
                "dacce_dispatch_span",
                "Site-id index range the dispatch slot vector spans",
                self.dispatch_span,
            ),
            (
                "dacce_superop_table_size",
                "Superops compiled into the latest published snapshot",
                self.superop_compiled,
            ),
            (
                "dacce_superop_candidates",
                "Candidate windows installed for superop compilation",
                self.superop_candidates,
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} gauge");
            let _ = writeln!(s, "{name} {value}");
        }
        for (name, help) in [
            ("dacce_dict_nodes", "Nodes per encoding generation"),
            ("dacce_dict_edges", "Edges per encoding generation"),
            ("dacce_dict_max_id", "maxID per encoding generation"),
        ] {
            let _ = writeln!(s, "# HELP {name} {help}");
            let _ = writeln!(s, "# TYPE {name} gauge");
            for g in &self.generations {
                let value = match name {
                    "dacce_dict_nodes" => u64::from(g.nodes),
                    "dacce_dict_edges" => u64::from(g.edges),
                    _ => g.max_id,
                };
                let _ = writeln!(s, "{name}{{generation=\"{}\"}} {value}", g.generation);
            }
        }
        prom_histogram(
            &mut s,
            "dacce_trap_ns",
            "Trap-handling latency in nanoseconds",
            &self.trap_ns,
        );
        prom_histogram(
            &mut s,
            "dacce_reencode_cost",
            "Abstract cost per re-encode attempt",
            &self.reencode_cost,
        );
        prom_histogram(
            &mut s,
            "dacce_cc_depth",
            "ccStack depth at sample points",
            &self.cc_depth,
        );
        prom_histogram(
            &mut s,
            "dacce_sampled_ids",
            "Context ids observed at sample points",
            &self.sampled_ids,
        );
        s
    }
}

fn json_histogram(s: &mut String, name: &str, h: &HistogramSnapshot, trailing_comma: bool) {
    let _ = write!(
        s,
        "  \"{name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \
         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
        h.count,
        h.sum,
        h.max,
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99)
    );
    for (i, (le, n)) in h.nonzero_buckets().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{{\"le\": {le}, \"count\": {n}}}");
    }
    s.push_str("]}");
    if trailing_comma {
        s.push(',');
    }
    s.push('\n');
}

fn prom_histogram(s: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    let _ = writeln!(s, "# HELP {name} {help}");
    let _ = writeln!(s, "# TYPE {name} histogram");
    let mut cumulative = 0;
    for (le, n) in h.nonzero_buckets() {
        cumulative += n;
        if le == u64::MAX {
            let _ = writeln!(s, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        } else {
            let _ = writeln!(s, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
    }
    if cumulative < h.count {
        cumulative = h.count;
    }
    let _ = writeln!(s, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(s, "{name}_sum {}", h.sum);
    let _ = writeln!(s, "{name}_count {}", h.count);
    let _ = writeln!(s, "{name}_max {}", h.max);
    // Percentile summaries from the log2 buckets (upper-bound estimates),
    // so dashboards need not reimplement the quantile walk.
    let _ = writeln!(s, "{name}_p50 {}", h.quantile(0.50));
    let _ = writeln!(s, "{name}_p95 {}", h.quantile(0.95));
    let _ = writeln!(s, "{name}_p99 {}", h.quantile(0.99));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::metrics::{GenerationInfo, MetricsRegistry};

    fn populated() -> MetricsSnapshot {
        let reg = MetricsRegistry::default();
        reg.edges_discovered.add(10);
        reg.on_reencode(true, 20);
        reg.on_reencode(true, 33);
        reg.on_trap(Duration::from_nanos(1500));
        reg.on_trap(Duration::from_nanos(900));
        reg.cc_depth.observe(4);
        reg.superop_hits.add(3);
        reg.superop_misses.add(1);
        reg.superop_republishes.add(2);
        reg.record_superops(5, 9);
        reg.record_generation(GenerationInfo {
            generation: 1,
            nodes: 8,
            edges: 10,
            max_id: 40,
            cost: 0,
        });
        reg.record_generation(GenerationInfo {
            generation: 2,
            nodes: 9,
            edges: 14,
            max_id: 70,
            cost: 33,
        });
        reg.snapshot()
    }

    #[test]
    fn json_is_balanced_and_contains_fields() {
        let json = populated().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"traps\": 2"));
        assert!(json.contains("\"reencodes\": 2"));
        assert!(json.contains("\"generation\": 2"));
        assert!(json.contains("\"trap_ns\""));
        // Both trap_ns observations land in log2 buckets bounded by 1023
        // and 2047; the quantile reports the bucket upper bound.
        assert!(json.contains("\"p50\": 1023"));
        assert!(json.contains("\"p99\": 1500"));
    }

    #[test]
    fn empty_snapshot_json_is_balanced() {
        let json = MetricsSnapshot::default().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn prometheus_contains_series_and_labels() {
        let text = populated().to_prometheus();
        assert!(text.contains("dacce_traps_total 2"));
        assert!(text.contains("dacce_dictionaries 2"));
        assert!(text.contains("dacce_superop_hits_total 3"));
        assert!(text.contains("dacce_superop_misses_total 1"));
        assert!(text.contains("dacce_superop_invalidations_total 0"));
        assert!(text.contains("dacce_superop_republishes_total 2"));
        assert!(text.contains("dacce_superop_table_size 5"));
        assert!(text.contains("dacce_superop_candidates 9"));
        assert!(text.contains("dacce_dict_edges{generation=\"2\"} 14"));
        assert!(text.contains("dacce_trap_ns_count 2"));
        assert!(text.contains("dacce_trap_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dacce_trap_ns_p50 "));
        assert!(text.contains("dacce_trap_ns_p95 "));
        assert!(text.contains("dacce_trap_ns_p99 1500"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in line: {line}"
            );
            assert!(parts.next().is_some());
        }
    }
}
