//! Scheduling parity and cooperative-cancellation acceptance suite.
//!
//! The parallel runtime (workers sharing one locked LIFO stack) is a pure
//! *scheduling* change: on the planted-partition, Fig. 1 and collaboration
//! suites, and on a planted graph whose k = 4 worklist drains 223 items,
//! every thread count ({2, 3, 8}) must report the **byte-identical**
//! component set and identical deterministic statistics counters to the
//! sequential reference. Deadlines are the second contract:
//! pre-expired and mid-run budgets interrupt with
//! `ServiceError::DeadlineExceeded` (code 5) / `KvccError::Interrupted`,
//! never a panic or a poisoned scratch, and the engine stays fully usable
//! afterwards.

use std::time::{Duration, Instant};

use kvcc::{enumerate_kvccs, Budget, KvccError, KvccOptions};
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::figure1::figure1_graph;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_graph::UndirectedGraph;
use kvcc_service::{
    EngineConfig, QueryRequest, QueryResponse, Request, RequestBody, Response, ResponseBody,
    ServiceEngine, ServiceError,
};

/// The dataset suites the acceptance criteria name.
fn suites() -> Vec<(String, UndirectedGraph, u32)> {
    let planted = planted_communities(&PlantedConfig {
        num_communities: 6,
        chain_length: 3,
        community_size: (9, 12),
        background_vertices: 300,
        seed: 91,
        ..PlantedConfig::default()
    });
    let collab = collaboration_graph(&CollaborationConfig {
        num_groups: 5,
        group_size: (6, 8),
        pendant_collaborators: 10,
        ..CollaborationConfig::default()
    });
    // 120 blocks: the k = 4 worklist runs 223 items and 110 partitions, so
    // the workers pop many items, some of them created by another worker.
    let long_worklist = planted_communities(&PlantedConfig {
        num_communities: 120,
        chain_length: 3,
        community_size: (9, 12),
        background_vertices: 600,
        seed: 91,
        ..PlantedConfig::default()
    });
    vec![
        ("planted".to_string(), planted.graph, 4),
        ("figure1".to_string(), figure1_graph().graph, 3),
        ("collaboration".to_string(), collab.graph, 3),
        ("long worklist".to_string(), long_worklist.graph, 4),
    ]
}

#[test]
fn parallel_matches_sequential_byte_for_byte() {
    for (name, g, k_max) in suites() {
        for k in 2..=k_max {
            let sequential = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            for threads in [2usize, 3, 8] {
                let opts = KvccOptions::default().with_threads(threads);
                let run = enumerate_kvccs(&g, k, &opts).unwrap();
                let label = format!("{name}, k {k}, {threads} threads");
                assert_eq!(run.components(), sequential.components(), "{label}");
                // Deterministic counters: the processed item set is
                // scheduling-independent.
                let (s, p) = (sequential.stats(), run.stats());
                assert_eq!(p.global_cut_calls, s.global_cut_calls, "{label}");
                assert_eq!(p.partitions, s.partitions, "{label}");
                assert_eq!(p.loc_cut_flow_calls, s.loc_cut_flow_calls, "{label}");
                assert_eq!(p.tested_vertices, s.tested_vertices, "{label}");
                assert_eq!(
                    p.kcore_removed_vertices, s.kcore_removed_vertices,
                    "{label}"
                );
                assert_eq!(p.work_items_executed, s.work_items_executed, "{label}");
                assert!(p.steals <= p.work_items_executed, "{label}");
                assert!(!p.cancelled, "{label}");
            }
        }
    }
}

/// A workload that runs far longer than the deadlines armed against it
/// (several chained overlapping communities force a deep partition
/// cascade).
fn heavy_workload() -> (UndirectedGraph, u32) {
    let planted = planted_communities(&PlantedConfig {
        num_communities: 48,
        chain_length: 48,
        community_size: (18, 22),
        background_vertices: 6_000,
        background_edges_per_vertex: 4,
        seed: 23,
        ..PlantedConfig::default()
    });
    (planted.graph, 4)
}

#[test]
fn pre_expired_and_mid_run_deadlines_return_code_5_and_leave_the_engine_reusable() {
    let (g, k) = heavy_workload();

    // Reference answer + how long the full enumeration takes unbudgeted.
    let started = Instant::now();
    let reference = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
    let full_runtime = started.elapsed();

    let engine = ServiceEngine::new(EngineConfig::default());
    let id = engine.load_graph("skewed", &g);
    let enumerate = QueryRequest::EnumerateKvccs { graph: id, k };

    // Pre-expired deadline: interrupted before any work, code 5.
    let pre_expired = Request {
        request_id: 1,
        deadline_hint_ms: Some(0),
        body: RequestBody::Query(enumerate.clone()),
    };
    match engine.execute_request(&pre_expired).body {
        ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 5),
        other => panic!("expected code 5, got {other:?}"),
    }

    // Mid-run deadline: the workload runs ≥ 10× longer than the hint, so the
    // interrupt genuinely lands mid-enumeration; the response must still be
    // the stable deadline code, and it must come back well before a full
    // run's worth of wall clock.
    let hint_ms = 5u32;
    assert!(
        full_runtime >= Duration::from_millis(10 * hint_ms as u64),
        "workload too small to prove a mid-run interrupt ({full_runtime:?})"
    );
    let mid_run = Request {
        request_id: 2,
        deadline_hint_ms: Some(hint_ms),
        body: RequestBody::Query(enumerate.clone()),
    };
    let started = Instant::now();
    let response = engine.execute_request(&mid_run);
    let interrupted_after = started.elapsed();
    match response.body {
        ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 5),
        other => panic!("expected code 5, got {other:?}"),
    }
    assert!(
        interrupted_after < full_runtime,
        "time-to-interrupt {interrupted_after:?} must beat the full run {full_runtime:?}"
    );
    // The frame path reports the identical contract.
    let frame = engine.handle_frame(&pre_expired.to_bytes());
    match Response::from_bytes(&frame).unwrap().body {
        ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 5),
        other => panic!("expected code 5 over bytes, got {other:?}"),
    }

    // Cancelled runs are visible in the slot's scheduling telemetry.
    match engine.execute(&QueryRequest::GraphStats { graph: id }) {
        QueryResponse::Stats { scheduling, .. } => {
            assert!(scheduling.cancelled_runs >= 1, "{scheduling:?}")
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // No poisoned scratch: the same engine completes the same query
    // un-deadlined and answers exactly the library result.
    match engine.execute(&enumerate) {
        QueryResponse::Components(components) => {
            assert_eq!(components, reference.components().to_vec())
        }
        other => panic!("engine unusable after an interrupt: {other:?}"),
    }
}

#[test]
fn batch_deadlines_interrupt_between_and_inside_requests() {
    let (g, k) = heavy_workload();
    let engine = ServiceEngine::new(EngineConfig::default());
    let id = engine.load_graph("skewed", &g);
    // One long enumeration followed by cheap queries: the first request is
    // interrupted *inside*, the rest are rejected *between* requests — all
    // with code 5, none panicking.
    let batch = Request {
        request_id: 3,
        deadline_hint_ms: Some(5),
        body: RequestBody::Batch(vec![
            QueryRequest::EnumerateKvccs { graph: id, k },
            QueryRequest::GraphStats { graph: id },
            QueryRequest::GlobalCutProbe { graph: id, k },
        ]),
    };
    match engine.execute_request(&batch).body {
        ResponseBody::Batch(responses) => {
            assert_eq!(responses.len(), 3);
            assert!(matches!(
                &responses[0],
                QueryResponse::Error(ServiceError::DeadlineExceeded)
            ));
            for r in &responses[1..] {
                // Cheap requests may sneak in before expiry on a fast box,
                // but anything that *was* rejected must use code 5.
                if let QueryResponse::Error(e) = r {
                    assert_eq!(e.code(), 5);
                }
            }
        }
        other => panic!("expected a batch, got {other:?}"),
    }
    // The engine remains usable for the whole vocabulary afterwards.
    assert!(matches!(
        engine.execute(&QueryRequest::GraphStats { graph: id }),
        QueryResponse::Stats { .. }
    ));
}

#[test]
fn library_level_cancellation_is_deterministic_and_reusable() {
    let (g, k) = heavy_workload();
    // A cancelled token (no deadline) interrupts the parallel runtime.
    let budget = Budget::cancellable();
    budget.cancel();
    let opts = KvccOptions::default().with_threads(3).with_budget(budget);
    match enumerate_kvccs(&g, k, &opts) {
        Err(KvccError::Interrupted { stats }) => {
            assert!(stats.cancelled);
            assert_eq!(stats.work_items_executed, 0);
        }
        other => panic!("expected an interrupt, got {other:?}"),
    }
    // A mid-run deadline reports partial progress in the carried stats.
    let opts = KvccOptions::default()
        .with_threads(3)
        .with_budget(Budget::with_timeout(Duration::from_millis(5)));
    match enumerate_kvccs(&g, k, &opts) {
        Err(KvccError::Interrupted { stats }) => {
            assert!(stats.cancelled);
            assert!(stats.elapsed > Duration::ZERO);
        }
        other => panic!("expected a mid-run interrupt, got {other:?}"),
    }
}
