//! The per-layer metric set of a traced run. Every workload reports every
//! metric, in this order; a layer the workload does not exercise reads 0.

use crate::measure::{micros, millis, Outcome, Samples, Tracer};
use crate::redrive::Redriver;

/// Index build time is reported in bands of this many levels.
pub const LEVEL_BAND: u32 = 8;
/// Bands `1-8, 9-16, …, 41-48` cover the DBLP stand-in's 42 levels.
pub const LEVEL_BANDS: u32 = 6;

/// Span names of the in-process index query replay, per query kind.
pub const QUERY_SPANS: [(&str, &str); 4] = [
    ("index.query.containing", "index.query_p50_us.containing"),
    (
        "index.query.max_connectivity",
        "index.query_p50_us.max_connectivity",
    ),
    (
        "index.query.connectivity_number",
        "index.query_p50_us.connectivity_number",
    ),
    ("index.query.top_k", "index.query_p50_us.top_k"),
];

/// Values measured outside the tracer (counts, sizes and client-side
/// timings) that the report needs next to the spans.
#[derive(Default)]
pub struct Counts<'a> {
    pub edge_lines: f64,
    pub duplicates: f64,
    pub load_peak_bytes: f64,
    pub redrive: Option<&'a Redriver>,
    pub index_nodes: f64,
    pub index_bytes: f64,
    pub work_items_after_setup: f64,
    pub qos_hit_rate: f64,
    pub qos_coalesced: f64,
    pub response_bytes: f64,
    pub transport_p50_us: f64,
    pub repair_rebuilt_frac: f64,
    pub repaired_nodes: f64,
    pub overhead: f64,
}

fn median_of(tr: &Tracer, name: &str, scale: fn(std::time::Duration) -> f64) -> f64 {
    let mut s = Samples::new();
    s.extend(tr.durations(name).map(scale));
    s.median()
}

pub fn report(out: &mut Outcome, tr: &Tracer, c: &Counts<'_>) {
    let ms = |name: &str| millis(tr.total(name));
    let default_stats = kvcc::EnumerationStats::default();
    let stats = c.redrive.map_or(&default_stats, |rd| &rd.stats);

    out.layer("load.busy_ms", ms("load"), "ms");
    out.layer("load.edge_lines", c.edge_lines, "count");
    out.layer("load.duplicates", c.duplicates, "count");
    out.layer("load.peak_bytes", c.load_peak_bytes, "B");
    out.layer("kcsr.open_ms", ms("kcsr.open"), "ms");
    out.layer("kcore.busy_ms", ms("kcore"), "ms");
    out.layer(
        "kcore.removed",
        stats.kcore_removed_vertices as f64,
        "count",
    );
    out.layer("certificate.busy_ms", ms("certificate"), "ms");
    out.layer("certificate.edges", stats.certificate_edges as f64, "count");
    out.layer("side_vertex.busy_ms", ms("side_vertex"), "ms");
    out.layer(
        "side_vertex.strong",
        stats.strong_side_vertices as f64,
        "count",
    );
    out.layer("global_cut.calls", stats.global_cut_calls as f64, "count");
    out.layer(
        "global_cut.self_ms",
        millis(tr.self_total("global_cut")),
        "ms",
    );
    out.layer("sweep.tested", stats.tested_vertices as f64, "count");
    out.layer(
        "sweep.pruned",
        (stats.pruned_neighbor_rule1 + stats.pruned_neighbor_rule2 + stats.pruned_group_sweep)
            as f64,
        "count",
    );
    out.layer("sweep.tested_frac", stats.proportion_tested(), "fraction");
    out.layer(
        "sweep.phase2_pairs",
        stats.phase2_pairs_tested as f64,
        "count",
    );
    out.layer("flow.probes", stats.loc_cut_flow_calls as f64, "count");
    out.layer(
        "flow.probe_p50_ms",
        median_of(tr, "flow.probe", millis),
        "ms",
    );
    out.layer("flow.rebuild_ms", ms("flow.rebuild"), "ms");
    out.layer("partition.calls", stats.partitions as f64, "count");
    out.layer("partition.busy_ms", ms("partition"), "ms");
    out.layer(
        "enumerate.work_items",
        stats.work_items_executed as f64,
        "count",
    );
    out.layer("enumerate.extract_ms", ms("extract"), "ms");
    out.layer(
        "enumerate.peak_memory_bytes",
        c.redrive.map_or(0, |rd| rd.peak_memory_bytes) as f64,
        "B",
    );

    out.layer("index.build_ms", ms("index.build"), "ms");
    let mut bands = vec![0.0; LEVEL_BANDS as usize];
    for span in tr.spans().iter().filter(|s| s.name == "index.level") {
        let band = ((span.request.max(1) - 1) / LEVEL_BAND as u64).min(LEVEL_BANDS as u64 - 1);
        bands[band as usize] += millis(span.duration());
    }
    for (i, value) in bands.into_iter().enumerate() {
        let first = i as u32 * LEVEL_BAND + 1;
        let name = format!("index.level_ms.k{:02}_{:02}", first, first + LEVEL_BAND - 1);
        out.layer(&name, value, "ms");
    }
    out.layer("index.nodes", c.index_nodes, "count");
    out.layer("index.bytes", c.index_bytes, "B");
    for (span, metric) in QUERY_SPANS {
        out.layer(metric, median_of(tr, span, micros), "us");
    }

    let mut handle = Samples::new();
    handle.extend(tr.durations("handle_frame").map(micros));
    out.layer("engine.handle_p50_us", handle.median(), "us");
    out.layer("engine.handle_p99_us", handle.percentile(99.0), "us");
    out.layer(
        "engine.apply_ms",
        median_of(tr, "handle_frame.apply", millis),
        "ms",
    );
    out.layer(
        "engine.work_items_after_setup",
        c.work_items_after_setup,
        "count",
    );
    out.layer("qos.hit_rate", c.qos_hit_rate, "fraction");
    out.layer("qos.coalesced", c.qos_coalesced, "count");
    out.layer("wire.decode_us", median_of(tr, "wire.decode", micros), "us");
    out.layer("wire.encode_us", median_of(tr, "wire.encode", micros), "us");
    out.layer("wire.response_bytes", c.response_bytes, "B");
    out.layer("wire.transport_p50_us", c.transport_p50_us, "us");
    out.layer("delta.apply_ms", median_of(tr, "delta.apply", millis), "ms");
    out.layer(
        "index.repair_rebuilt_frac",
        c.repair_rebuilt_frac,
        "fraction",
    );
    out.layer("index.repaired_nodes", c.repaired_nodes, "count");
    out.layer("trace.spans", tr.spans().len() as f64, "count");
    out.layer("trace.overhead_frac", c.overhead, "fraction");
}

/// Every per-layer metric name, in report order (what `BENCHMARK.json`
/// declares).
#[cfg(test)]
pub fn names() -> Vec<String> {
    let mut out = Outcome::default();
    report(
        &mut out,
        &Tracer::new(std::time::Instant::now(), 0, false),
        &Counts::default(),
    );
    out.per_layer.into_iter().map(|m| m.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_is_named_once() {
        let names = names();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
        assert!(names.contains(&"index.level_ms.k41_48".to_string()));
    }
}
