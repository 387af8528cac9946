//! `batch`: one analyst enumerating a large sparse graph — edge-list text to
//! CSR, then `enumerate_kvccs` (VCCE*, one thread) at k = 1 and k = 4.

use std::time::Instant;

use kvcc::{enumerate_kvccs, KVertexConnectedComponent, KvccOptions, KvccResult};
use kvcc_datasets::StreamConfig;
use kvcc_graph::load::IngestedGraph;
use kvcc_graph::{write_kcsr_file, GraphView, MappedCsr, StreamingEdgeListLoader, VertexId};

use crate::inputs;
use crate::measure::{components_checksum, millis, peak_rss_mib, secs, Outcome, Samples, Tracer};
use crate::redrive::{Redriver, REPLAY};
use crate::{layers, RunConfig, TempFile};

/// The two levels the analyst asks for.
const K_LIGHT: u32 = 1;
const K_HEAVY: u32 = 4;

pub fn run(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let ring = inputs::ring_config(cfg.seed, 0, cfg.smoke);
    let text = inputs::ring_text(&ring);
    out.note(format!(
        "input: community ring, {} communities x {} vertices, {} edge lines ({} bytes of text)",
        ring.communities,
        ring.community_size,
        ring.num_edge_lines(),
        text.len()
    ));

    // Set-up: edge-list text to CSR, several times; the median is reported.
    let loader = StreamingEdgeListLoader::new();
    let mut setup = Samples::new();
    let mut ingested = None;
    for _ in 0..cfg.setup_reps() {
        drop(ingested.take());
        let start = Instant::now();
        let loaded = loader.load_reader(&text[..]);
        setup.push(secs(start.elapsed()));
        ingested = Some(loaded.map_err(|e| format!("ingest failed: {e}"))?);
    }
    let ingested = ingested.expect("at least one set-up repetition");
    let graph = &ingested.graph;
    let expected = certified_answer(out, &ingested, &ring);

    let options = KvccOptions::default();
    let check = |out: &mut Outcome,
                 k: u32,
                 result: &Result<KvccResult, kvcc::KvccError>,
                 want: Option<u64>| {
        let sum = result
            .as_ref()
            .ok()
            .map(|r| components_checksum(r.components()));
        out.check(sum.is_some() && sum == want, || {
            format!("k={k}: checksum {sum:?}, expected {want:?}")
        });
    };

    // The timed phase alternates k = 4 (heavy: a single GLOBAL-CUT* call)
    // with stretches of k = 1 (light, on the seed's ring) that together fill
    // the run's seconds, so a slow spell of the machine touches few of
    // either's samples. Each k = 4 runs on its own ring — the seed's, then
    // variants drawn from the same seed, ingested untimed — because the probe
    // work moves by a fifth from ring to ring and one run should average it.
    let mut heavy = Samples::new();
    let mut light = Samples::new();
    let mut heavy_result = None;
    let mut light_result = None;
    let mut light_time = std::time::Duration::ZERO;
    let reps = cfg.heavy_reps();
    for rep in 0..reps {
        let variant;
        let (target, want) = if rep == 0 {
            (graph, expected)
        } else {
            let ring = inputs::ring_config(cfg.seed, rep as u64, cfg.smoke);
            let loaded = loader
                .load_reader(&inputs::ring_text(&ring)[..])
                .map_err(|e| format!("ingest failed: {e}"))?;
            let want = certified_answer(out, &loaded, &ring);
            variant = loaded;
            (&variant.graph, want)
        };
        let start = Instant::now();
        let result = enumerate_kvccs(target, K_HEAVY, &options);
        heavy.push(secs(start.elapsed()));
        check(out, K_HEAVY, &result, want);
        let result = result.map_err(|e| format!("k={K_HEAVY}: {e}"))?;
        if rep == 0 {
            heavy_result = Some(result);
        }

        let stretch_end = cfg.seconds.mul_f64((rep + 1) as f64 / reps as f64);
        while light_time < stretch_end {
            let start = Instant::now();
            let result = enumerate_kvccs(graph, K_LIGHT, &options);
            let took = start.elapsed();
            light_time += took;
            light.push(millis(took));
            check(out, K_LIGHT, &result, expected);
            light_result = result.ok().or(light_result);
        }
    }
    let rss = peak_rss_mib().unwrap_or(0.0);
    let heavy_result = heavy_result.expect("at least one k=4 repetition");
    let heavy_on_seed_ring = heavy.values()[0];
    let light_result = light_result.ok_or("k=1 never succeeded")?;

    let stats = heavy_result.stats();
    out.note(format!(
        "enum_k1_s {:.4} (median of {}), enum_k4_s {:.4} (median over rings {:?}), setup (ingest) median {:.4} s of {}",
        light.median() / 1e3,
        light.len(),
        heavy.median(),
        heavy.values(),
        setup.median(),
        setup.len()
    ));
    out.note(format!(
        "shape (seed's ring): k=4 global_cut.calls {} partition.calls {} flow.probes {} components {}; k=1 components {}",
        stats.global_cut_calls,
        stats.partitions,
        stats.loc_cut_flow_calls,
        heavy_result.num_components(),
        light_result.num_components()
    ));

    out.e2e("setup_s", setup.median(), "s");
    out.e2e("heavy_op_s", heavy.median(), "s");
    out.e2e("light_op_p50_ms", light.median(), "ms");
    out.e2e("light_op_tail_ms", light.tail(), "ms");
    out.e2e(
        "light_ops_per_s",
        light.len() as f64 / secs(light_time),
        "1/s",
    );
    out.e2e("peak_rss_mb", rss, "MiB");

    if cfg.trace {
        let runs = [
            (K_LIGHT, &light_result, None),
            (K_HEAVY, &heavy_result, Some(heavy_on_seed_ring)),
        ];
        traced(cfg, out, &text, &ring, &ingested, runs)?;
    }
    Ok(())
}

/// The checksum the ring's certificate proves for both levels, counting the
/// check; `None` (a failed check) when the certificate does not hold.
fn certified_answer(
    out: &mut Outcome,
    ingested: &IngestedGraph,
    ring: &StreamConfig,
) -> Option<u64> {
    let answer = ring_answer(ingested, ring, K_HEAVY.max(K_LIGHT));
    out.check(answer.is_ok(), || format!("ring certificate: {answer:?}"));
    answer.ok()
}

/// The k-VCCs the ring generator guarantees for every `k` up to `max_k`,
/// proved on the graph as ingested rather than assumed: each community holds
/// its circulant skeleton `C(size; 1..=span)`, which is `2·span`-connected,
/// and every pair of ring-adjacent communities is joined by at least `max_k`
/// vertex-disjoint bridges. Removing fewer than `max_k` vertices then leaves
/// every community connected and every adjacent pair joined, so the whole
/// graph is one `max_k`-VCC (and one component at every smaller `k`).
/// Returns the checksum of that single component.
fn ring_answer(ingested: &IngestedGraph, ring: &StreamConfig, max_k: u32) -> Result<u64, String> {
    let g = &ingested.graph;
    let n = g.num_vertices();
    let (size, span, communities) = (ring.community_size, ring.skeleton_span, ring.communities);
    if n != ring.num_vertices() || n <= max_k as usize {
        return Err(format!("{n} vertices"));
    }
    if (max_k as usize) > 2 * span || size < 2 * span + 2 {
        return Err("the skeleton does not certify this k".into());
    }
    let mut internal = vec![VertexId::MAX; n];
    for (v, &external) in ingested.external_ids.iter().enumerate() {
        let slot = internal
            .get_mut(external as usize)
            .ok_or_else(|| format!("external id {external} out of range"))?;
        *slot = v as VertexId;
    }
    for c in 0..communities {
        for i in 0..size {
            let u = internal[c * size + i];
            for d in 1..=span {
                let v = internal[c * size + (i + d) % size];
                if !g.has_edge(u, v) {
                    return Err(format!("community {c} lacks skeleton edge {i}+{d}"));
                }
            }
        }
    }
    if communities > 1 {
        let community_of = |v: VertexId| ingested.external_ids[v as usize] as usize / size;
        let mut used = vec![false; n];
        for c in 0..communities {
            let next = (c + 1) % communities;
            used.iter_mut().for_each(|u| *u = false);
            let mut matched = 0;
            for i in 0..size {
                let a = internal[c * size + i];
                if let Some(&b) = g
                    .neighbors(a)
                    .iter()
                    .find(|&&b| community_of(b) == next && !used[b as usize])
                {
                    used[b as usize] = true;
                    matched += 1;
                }
            }
            if matched < max_k as usize {
                return Err(format!(
                    "communities {c}-{next}: {matched} disjoint bridges"
                ));
            }
        }
    }
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    Ok(components_checksum(&[KVertexConnectedComponent::new(all)]))
}

/// The traced run: re-ingest and reopen under spans, re-drive Algorithm 1
/// from its public pieces at both levels (its checksum must equal
/// `enumerate_kvccs`'s), and sample flow probes.
fn traced(
    cfg: &RunConfig,
    out: &mut Outcome,
    text: &[u8],
    ring: &StreamConfig,
    ingested: &IngestedGraph,
    runs: [(u32, &KvccResult, Option<f64>); 2],
) -> Result<(), String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0, true);
    let reloaded = tr
        .span("load", 0, |_| {
            StreamingEdgeListLoader::new().load_reader(text)
        })
        .map_err(|e| format!("traced ingest failed: {e}"))?;

    let kcsr = TempFile::new(cfg, "batch.kcsr");
    write_kcsr_file(&ingested.graph, kcsr.path()).map_err(|e| format!("KCSR write: {e}"))?;
    let mapped = tr
        .span("kcsr.open", 0, |_| MappedCsr::open(kcsr.path()))
        .map_err(|e| format!("KCSR open: {e}"))?;
    out.check(mapped.num_edges() == ingested.graph.num_edges(), || {
        "KCSR round trip".into()
    });

    let mut rd = Redriver::new(KvccOptions::default());
    let mut overhead = 0.0;
    for (k, library, untraced) in runs {
        let before = rd.stats.clone();
        let replay_before = tr.total(REPLAY);
        let start = Instant::now();
        let components = rd.enumerate(&ingested.graph, k, &mut tr)?;
        let traced_time = start
            .elapsed()
            .saturating_sub(tr.total(REPLAY) - replay_before);
        let (got, want) = (
            components_checksum(&components),
            components_checksum(library.components()),
        );
        out.check(got == want, || {
            format!("re-driven k={k} checksum {got:#x} != enumerate_kvccs {want:#x}")
        });
        if let Some(untraced) = untraced {
            overhead = secs(traced_time) / untraced - 1.0;
        }
        let lib = library.stats();
        out.note(format!(
            "re-driven k={k}: checksum {}, global_cut.calls {} (library {}), flow.probes {} (library {})",
            if got == want { "equal" } else { "DIFFERENT" },
            rd.stats.global_cut_calls - before.global_cut_calls,
            lib.global_cut_calls,
            rd.stats.loc_cut_flow_calls - before.loc_cut_flow_calls,
            lib.loc_cut_flow_calls
        ));
    }
    rd.sample_probes(cfg.probe_samples(), &mut tr);
    out.note("flow.probe_p50_ms and flow.rebuild_ms are replays on the k=4 cut input".into());

    layers::report(
        out,
        &tr,
        &layers::Counts {
            edge_lines: ring.num_edge_lines() as f64,
            duplicates: reloaded.stats.duplicates as f64,
            load_peak_bytes: reloaded.peak_bytes as f64,
            redrive: Some(&rd),
            overhead,
            ..layers::Counts::default()
        },
    );
    out.note(format!(
        "trace: {} spans, overhead {:.2}% (re-driven k=4 vs enumerate_kvccs)",
        tr.spans().len(),
        overhead * 100.0
    ));
    cfg.write_trace(&tr);
    Ok(())
}
