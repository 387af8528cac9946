//! Query-serving QoS parity: the v6 cache/coalescing/admission layer must
//! be *observationally free*.
//!
//! The contract under test is exact: a response served from the result
//! cache, from a coalesced in-flight execution, or through the admission
//! controller is **byte-identical** to a fresh uncached execution — across
//! every query kind, every [`OrderingPolicy`], the in-process path, the
//! framed-byte path ([`ServiceEngine::handle_frame`]) and a real TCP
//! socket. Epoch keying makes invalidation exact (zero stale hits after an
//! update batch), coalescing collapses identical concurrent queries onto
//! one execution (counter-asserted), failed executions propagate to every
//! waiter instead of wedging them, and overload shedding answers with the
//! retryable [`ServiceError::Overloaded`] without corrupting engine state.

use std::sync::{Arc, Barrier};

use kvcc::RankBy;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_graph::{EdgeUpdate, UndirectedGraph};
use kvcc_service::{
    call, AdmissionConfig, EngineConfig, GraphId, OrderingPolicy, QosConfig, QueryRequest,
    QueryResponse, Request, RequestBody, Response, ResponseBody, ServiceEngine, ServiceError,
    SocketOptions, TcpTransport,
};

/// A moderate multi-community graph: enough structure that every query kind
/// has a non-trivial answer, small enough to execute the full vocabulary
/// under four ordering policies.
fn suite_graph() -> UndirectedGraph {
    planted_communities(&PlantedConfig {
        num_communities: 4,
        chain_length: 2,
        community_size: (8, 10),
        background_vertices: 120,
        seed: 0x905,
        ..PlantedConfig::default()
    })
    .graph
}

/// A graph whose `k = 3` enumeration takes long enough that threads
/// released together reliably coalesce onto the leader's execution.
fn heavy_graph() -> UndirectedGraph {
    planted_communities(&PlantedConfig {
        num_communities: 10,
        chain_length: 2,
        community_size: (18, 22),
        background_vertices: 900,
        seed: 0xC0A1,
        ..PlantedConfig::default()
    })
    .graph
}

/// A graph whose `k = 3` enumeration runs long enough (0.22–0.42 s in a
/// release build on a 2-vCPU VM) that a 20 ms deadline reliably interrupts
/// the leader *after* every waiter has joined its flight. The doomed
/// execution is deadline-capped, so tests never pay the full enumeration
/// cost.
///
/// One chain of 300 planted blocks, consecutive blocks sharing two
/// vertices, with no background: `k = 3` splits off one block per
/// `GLOBAL-CUT*` call, 599 calls over shrinking copies of the chain. The
/// run time lies in those calls and their partitions, not in the 1,182
/// flow probes, so faster probes do not undercut the deadline.
fn doomed_graph() -> UndirectedGraph {
    planted_communities(&PlantedConfig {
        num_communities: 300,
        chain_length: 300,
        community_size: (30, 36),
        background_vertices: 0,
        attachment_edges_per_community: 0,
        seed: 0xD003,
        ..PlantedConfig::default()
    })
    .graph
}

/// An engine with the QoS layer armed for serving (cache + coalescing).
fn qos_engine(ordering: OrderingPolicy) -> ServiceEngine {
    ServiceEngine::new(EngineConfig {
        ordering,
        qos: QosConfig::serving(),
        ..EngineConfig::default()
    })
}

/// The full cacheable query vocabulary, including canonicalization twins:
/// the symmetric pairwise queries appear in both vertex orders, which must
/// share one cache entry.
fn vocabulary(id: GraphId, n: u32) -> Vec<QueryRequest> {
    vec![
        QueryRequest::EnumerateKvccs { graph: id, k: 2 },
        QueryRequest::EnumerateKvccs { graph: id, k: 3 },
        QueryRequest::KvccsContaining {
            graph: id,
            seed: 0,
            k: 2,
        },
        QueryRequest::KvccsContaining {
            graph: id,
            seed: n / 2,
            k: 3,
        },
        QueryRequest::MaxConnectivity {
            graph: id,
            u: 1,
            v: n - 1,
        },
        QueryRequest::MaxConnectivity {
            graph: id,
            u: n - 1,
            v: 1,
        },
        QueryRequest::VertexConnectivityNumber { graph: id, v: 2 },
        QueryRequest::GlobalCutProbe { graph: id, k: 2 },
        QueryRequest::LocalConnectivity {
            graph: id,
            u: 0,
            v: 3,
            limit: 4,
        },
        QueryRequest::LocalConnectivity {
            graph: id,
            u: 3,
            v: 0,
            limit: 4,
        },
        QueryRequest::TopKComponents {
            graph: id,
            rank_by: RankBy::Size,
            page_size: 4,
            cursor: None,
        },
    ]
}

#[test]
fn cached_responses_are_byte_identical_to_fresh_across_kinds_and_orderings() {
    let graph = suite_graph();
    let n = graph.num_vertices() as u32;
    for ordering in [OrderingPolicy::Preserve, OrderingPolicy::Hybrid] {
        // Reference: the same engine configuration with QoS fully disabled.
        let reference = ServiceEngine::new(EngineConfig {
            ordering,
            ..EngineConfig::default()
        });
        let ref_id = reference.load_graph("suite", &graph);
        let serving = qos_engine(ordering);
        let id = serving.load_graph("suite", &graph);
        assert_eq!(ref_id, id, "both engines assign the first slot");

        for (i, query) in vocabulary(id, n).iter().enumerate() {
            let frame = Request::query(i as u64 + 1, query.clone()).to_bytes();
            let fresh = reference.handle_frame(&frame);
            let first = serving.handle_frame(&frame);
            assert_eq!(
                first, fresh,
                "{ordering:?}: first (executing) pass must match the uncached engine"
            );
            let second = serving.handle_frame(&frame);
            assert_eq!(
                second, fresh,
                "{ordering:?}: cache hit must serve byte-identical frames"
            );
        }

        // Counter shape: 9 distinct canonical keys execute once each; the
        // two symmetric twins hit on the first pass, all 11 on the second.
        let qos = serving.qos_stats();
        assert_eq!(
            (qos.cache_misses, qos.cache_hits, qos.coalesced, qos.shed),
            (9, 13, 0, 0),
            "{ordering:?}: canonicalized keys collapse symmetric twins"
        );
    }
}

#[test]
fn stats_queries_are_never_cached_and_report_the_qos_counters() {
    let engine = qos_engine(OrderingPolicy::Preserve);
    let id = engine.load_graph("suite", &suite_graph());
    // Warm some counters so the snapshot embedded in `Stats` is non-trivial.
    for _ in 0..2 {
        engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k: 2 });
    }
    let before = engine.qos_stats();
    assert_eq!((before.cache_misses, before.cache_hits), (1, 1));
    for _ in 0..2 {
        match engine.execute(&QueryRequest::GraphStats { graph: id }) {
            QueryResponse::Stats { qos, .. } => assert_eq!(qos, before),
            other => panic!("expected Stats, got {other:?}"),
        }
    }
    // Stats executions moved no QoS counter: never cached, never coalesced.
    assert_eq!(engine.qos_stats(), before);
}

#[test]
fn epoch_bump_invalidates_every_cached_entry_with_zero_stale_hits() {
    // Two triangles joined by a bridge; the update batch deletes the bridge
    // and fuses the triangles through two fresh edges instead.
    let before = UndirectedGraph::from_edges(
        6,
        vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    )
    .unwrap();
    let batch = vec![
        EdgeUpdate::delete(2, 3),
        EdgeUpdate::insert(0, 3),
        EdgeUpdate::insert(1, 4),
    ];
    let after = UndirectedGraph::from_edges(
        6,
        vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (0, 3),
            (1, 4),
        ],
    )
    .unwrap();

    let engine = qos_engine(OrderingPolicy::Preserve);
    let id = engine.load_graph("live", &before);
    let queries = [
        QueryRequest::EnumerateKvccs { graph: id, k: 2 },
        QueryRequest::KvccsContaining {
            graph: id,
            seed: 4,
            k: 2,
        },
        QueryRequest::MaxConnectivity {
            graph: id,
            u: 0,
            v: 5,
        },
        QueryRequest::VertexConnectivityNumber { graph: id, v: 3 },
        QueryRequest::LocalConnectivity {
            graph: id,
            u: 0,
            v: 5,
            limit: 3,
        },
    ];
    // Populate the epoch-0 cache and prove it serves hits.
    for pass in 0..2 {
        for (i, q) in queries.iter().enumerate() {
            let frame = Request::query(i as u64 + 1, q.clone()).to_bytes();
            let _ = engine.handle_frame(&frame);
            let _ = pass;
        }
    }
    assert_eq!(engine.qos_stats().cache_hits, queries.len() as u64);

    engine.apply_updates(id, &batch).unwrap();

    // Every post-update answer must match a fresh engine that loaded the
    // updated graph from scratch — and none may come from the cache.
    let fresh_engine = ServiceEngine::new(EngineConfig::default());
    let fresh_id = fresh_engine.load_graph("fresh", &after);
    assert_eq!(fresh_id, id);
    let hits_before = engine.qos_stats().cache_hits;
    for (i, q) in queries.iter().enumerate() {
        let frame = Request::query(i as u64 + 100, q.clone()).to_bytes();
        assert_eq!(
            engine.handle_frame(&frame),
            fresh_engine.handle_frame(&frame),
            "query {i} after the update must match a from-scratch load"
        );
    }
    assert_eq!(
        engine.qos_stats().cache_hits,
        hits_before,
        "no epoch-0 entry may be served at epoch 1"
    );
    // The epoch-1 entries cache normally from here on.
    for (i, q) in queries.iter().enumerate() {
        let _ = engine.handle_frame(&Request::query(i as u64 + 200, q.clone()).to_bytes());
    }
    assert_eq!(
        engine.qos_stats().cache_hits,
        hits_before + queries.len() as u64
    );
    match engine.execute(&QueryRequest::GraphStats { graph: id }) {
        QueryResponse::Stats { epoch, .. } => assert_eq!(epoch, 1),
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn concurrent_identical_queries_coalesce_onto_one_execution() {
    let engine = Arc::new(qos_engine(OrderingPolicy::Preserve));
    let id = engine.load_graph("heavy", &heavy_graph());
    let query = QueryRequest::EnumerateKvccs { graph: id, k: 3 };

    const CALLERS: usize = 6;
    let barrier = Barrier::new(CALLERS);
    let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let query = query.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    engine.execute(&query)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        matches!(&responses[0], QueryResponse::Components(c) if !c.is_empty()),
        "the coalesced answer is a real enumeration"
    );
    // Every caller gets byte-identical frames, not merely equal values.
    let leader_bytes = Response {
        request_id: 7,
        body: ResponseBody::Query(responses[0].clone()),
    }
    .to_bytes();
    for r in &responses {
        let bytes = Response {
            request_id: 7,
            body: ResponseBody::Query(r.clone()),
        }
        .to_bytes();
        assert_eq!(bytes, leader_bytes, "waiter responses are byte-identical");
    }
    let qos = engine.qos_stats();
    assert_eq!(qos.cache_misses, 1, "exactly one execution ran");
    assert_eq!(
        qos.cache_hits + qos.coalesced,
        (CALLERS - 1) as u64,
        "every other caller was served by the leader or its cached result"
    );
}

#[test]
fn failed_executions_propagate_their_error_to_every_waiter() {
    let engine = Arc::new(qos_engine(OrderingPolicy::Preserve));
    let id = engine.load_graph("doomed", &doomed_graph());
    let query = QueryRequest::EnumerateKvccs { graph: id, k: 3 };

    // Every caller submits the same doomed envelope: the deadline hint is
    // far below the enumeration's runtime, so the leader's execution is
    // interrupted mid-flight and its error must fan out to all waiters.
    const CALLERS: usize = 5;
    let barrier = Barrier::new(CALLERS);
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let query = query.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    engine.execute_request(&Request {
                        request_id: i as u64,
                        deadline_hint_ms: Some(20),
                        body: RequestBody::Query(query),
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for response in &responses {
        assert_eq!(
            response.body,
            ResponseBody::Query(QueryResponse::Error(ServiceError::DeadlineExceeded)),
            "the leader's failure reaches every coalesced waiter"
        );
    }
    let qos = engine.qos_stats();
    assert_eq!(qos.cache_misses, 1, "the doomed execution ran exactly once");
    assert_eq!(qos.cache_hits, 0, "errors are never served from the cache");

    // The failure was propagated, not cached: the same doomed request
    // executes again from scratch (a miss, never a hit) instead of being
    // answered from a poisoned cache entry.
    let retry = engine.execute_request(&Request {
        request_id: 99,
        deadline_hint_ms: Some(20),
        body: RequestBody::Query(query.clone()),
    });
    assert_eq!(
        retry.body,
        ResponseBody::Query(QueryResponse::Error(ServiceError::DeadlineExceeded))
    );
    let qos = engine.qos_stats();
    assert_eq!(qos.cache_misses, 2, "the retry was a fresh execution");
    assert_eq!(qos.cache_hits, 0, "the error was never cached");

    // And the engine is not wedged: an undeadlined cheap probe on the same
    // graph still serves a real answer.
    let probe = engine.execute(&QueryRequest::LocalConnectivity {
        graph: id,
        u: 0,
        v: 1,
        limit: 3,
    });
    assert!(matches!(probe, QueryResponse::Connectivity(_)));
}

#[test]
fn overload_shedding_is_retryable_and_never_corrupts_engine_state() {
    let graph = suite_graph();
    let reference = ServiceEngine::new(EngineConfig::default());
    let ref_id = reference.load_graph("suite", &graph);
    // Admission armed with an absurd prior (one second per cost unit): any
    // deadlined flow query is predicted infeasible and shed up front. Cache
    // and coalescing stay off so the shed path is observed in isolation.
    let engine = ServiceEngine::new(EngineConfig {
        qos: QosConfig {
            admission: Some(AdmissionConfig {
                initial_ns_per_cost: 1e9,
                ewma_alpha: 0.5,
                ..AdmissionConfig::default()
            }),
            ..QosConfig::default()
        },
        ..EngineConfig::default()
    });
    let id = engine.load_graph("suite", &graph);
    assert_eq!(ref_id, id);
    let query = QueryRequest::EnumerateKvccs { graph: id, k: 2 };

    // Deadlined request: shed before execution with the retryable code.
    let doomed = Request {
        request_id: 5,
        deadline_hint_ms: Some(50),
        body: RequestBody::Query(query.clone()),
    };
    let response = Response::from_bytes(&engine.handle_frame(&doomed.to_bytes())).unwrap();
    match response.body {
        ResponseBody::Query(QueryResponse::Error(e)) => {
            assert_eq!(e, ServiceError::Overloaded);
            assert!(e.is_retryable(), "shed work is safe to retry elsewhere");
        }
        other => panic!("expected an Overloaded error, got {other:?}"),
    }
    assert_eq!(engine.qos_stats().shed, 1);

    // Shedding left the engine fully intact: the undeadlined retry is
    // byte-identical to an engine that never shed anything, and the
    // observed executions retrain the EWMA away from the absurd prior
    // (halving it per observation at `ewma_alpha: 0.5`) until a realistic
    // deadline is admitted instead of shed.
    let retry = Request::query(6, query.clone()).to_bytes();
    assert_eq!(engine.handle_frame(&retry), reference.handle_frame(&retry));
    for _ in 0..10 {
        let _ = engine.handle_frame(&retry);
    }
    let generous = Request {
        request_id: 7,
        deadline_hint_ms: Some(60_000),
        body: RequestBody::Query(query),
    }
    .to_bytes();
    assert_eq!(
        engine.handle_frame(&generous),
        reference.handle_frame(
            &Request {
                request_id: 7,
                deadline_hint_ms: None,
                body: match Request::from_bytes(&generous).unwrap().body {
                    RequestBody::Query(q) => RequestBody::Query(q),
                    _ => unreachable!(),
                },
            }
            .to_bytes()
        ),
        "a trained model admits feasible deadlines"
    );
    assert_eq!(engine.qos_stats().shed, 1, "no further shedding");
}

#[test]
fn cache_hits_serve_byte_identical_frames_over_a_real_socket() {
    let engine = Arc::new(qos_engine(OrderingPolicy::Preserve));
    let graph = suite_graph();
    let id = engine.load_graph("suite", &graph);
    let reference = ServiceEngine::new(EngineConfig::default());
    reference.load_graph("suite", &graph);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_engine = Arc::clone(&engine);
    let serving = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let transport = TcpTransport::from_stream(stream, SocketOptions::default()).unwrap();
        server_engine.serve(&transport).unwrap();
    });

    let client = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
    let request = Request::query(
        31,
        QueryRequest::KvccsContaining {
            graph: id,
            seed: 3,
            k: 2,
        },
    );
    let expected = Response {
        request_id: 31,
        body: ResponseBody::Query(reference.execute(&QueryRequest::KvccsContaining {
            graph: id,
            seed: 3,
            k: 2,
        })),
    };
    let first = call(&client, &request).unwrap();
    let second = call(&client, &request).unwrap();
    assert_eq!(first, expected, "socket path matches uncached in-process");
    assert_eq!(second, expected, "socket cache hit is byte-identical");
    let qos = engine.qos_stats();
    assert_eq!((qos.cache_misses, qos.cache_hits), (1, 1));
    drop(client);
    serving.join().unwrap();
}
