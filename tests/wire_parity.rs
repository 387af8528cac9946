//! Protocol-v2 wire parity and robustness.
//!
//! Three families of cross-crate checks:
//!
//! * **round-trips** — every request/response shape survives
//!   `to_bytes`/`from_bytes` unchanged, and frames reassemble across
//!   arbitrary chunk boundaries;
//! * **hostile bytes** — randomized fuzz: truncations, single-byte
//!   mutations and pure garbage must be *rejected or reinterpreted*, never
//!   panic, for the message codec, the work-item/index formats and the
//!   frame decoder;
//! * **byte-driven parity** — a shard worker fed purely over
//!   [`Transport`] frames reproduces the whole-graph enumeration
//!   byte-identically, a served engine answers framed batches exactly like
//!   the in-process path, and `TopKComponents` pagination returns every
//!   component exactly once with parity against `components_at`.

use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_graph::UndirectedGraph;
use kvcc_service::wire::frame::{encode_frame, FrameDecoder};
use kvcc_service::{
    call, run_shard_worker, CsrWorkItem, EngineConfig, GraphId, KvccOptions, LoopbackTransport,
    OrderingPolicy, PageCursor, QosStats, QueryRequest, QueryResponse, RankBy, RankedEntry,
    Request, RequestBody, Response, ResponseBody, SchedulingStats, ServiceEngine, ServiceError,
};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Two triangles sharing vertex 2 plus an unrelated K4 on {5,6,7,8}.
fn mixed_graph() -> UndirectedGraph {
    let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
    for i in 5..9u32 {
        for j in (i + 1)..9 {
            edges.push((i, j));
        }
    }
    UndirectedGraph::from_edges(9, edges).unwrap()
}

/// A larger §6.4-style workload for the sharded and pagination checks.
fn collab() -> UndirectedGraph {
    collaboration_graph(&CollaborationConfig {
        num_groups: 5,
        group_size: (6, 9),
        pendant_collaborators: 10,
        ..CollaborationConfig::default()
    })
    .graph
}

fn sample_item() -> CsrWorkItem {
    let graph =
        kvcc_service::CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .unwrap();
    CsrWorkItem::new(graph, vec![10, 11, 12, 13, 14])
}

/// Every request shape of the v2 vocabulary.
fn all_requests() -> Vec<Request> {
    let id = GraphId(3);
    let mut queries = vec![
        QueryRequest::EnumerateKvccs { graph: id, k: 4 },
        QueryRequest::KvccsContaining {
            graph: id,
            seed: 1,
            k: 4,
        },
        QueryRequest::MaxConnectivity {
            graph: id,
            u: 0,
            v: 100,
        },
        QueryRequest::VertexConnectivityNumber { graph: id, v: 2 },
        QueryRequest::GlobalCutProbe { graph: id, k: 3 },
        QueryRequest::LocalConnectivity {
            graph: id,
            u: 0,
            v: 1,
            limit: 8,
        },
        QueryRequest::GraphStats { graph: id },
    ];
    for rank_by in RankBy::ALL {
        queries.push(QueryRequest::TopKComponents {
            graph: id,
            rank_by,
            page_size: 7,
            cursor: None,
        });
    }
    queries.push(QueryRequest::TopKComponents {
        graph: id,
        rank_by: RankBy::Density,
        page_size: 1,
        cursor: Some(
            PageCursor {
                graph: id,
                rank_by: RankBy::Density,
                offset: 4,
                num_nodes: 11,
                epoch: 3,
            }
            .to_bytes(),
        ),
    });
    let mut requests: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| Request {
            request_id: i as u64,
            deadline_hint_ms: (i % 2 == 0).then_some(i as u32 * 100),
            body: RequestBody::Query(q.clone()),
        })
        .collect();
    requests.push(Request {
        request_id: u64::MAX,
        deadline_hint_ms: Some(u32::MAX),
        body: RequestBody::Batch(queries),
    });
    requests.push(Request {
        request_id: 1 << 40,
        deadline_hint_ms: None,
        body: RequestBody::WorkItem {
            k: 2,
            item: sample_item(),
        },
    });
    requests.push(Request {
        request_id: 77,
        deadline_hint_ms: None,
        body: RequestBody::Handshake {
            token: "hunter2".into(),
        },
    });
    requests
}

/// Every response shape of the v2 vocabulary.
fn all_responses() -> Vec<Response> {
    use kvcc_service::KVertexConnectedComponent as Comp;
    let errors = vec![
        ServiceError::UnknownGraph { graph: GraphId(9) },
        ServiceError::VertexOutOfRange { vertex: 42 },
        ServiceError::Enumeration("k too large".into()),
        ServiceError::InvalidCursor {
            reason: "stale".into(),
        },
        ServiceError::DeadlineExceeded,
        ServiceError::Unsupported {
            what: "queries".into(),
        },
        ServiceError::MalformedRequest {
            reason: "bad tag".into(),
        },
        ServiceError::Transport {
            reason: "peer gone".into(),
        },
        ServiceError::Overloaded,
        ServiceError::Unauthorized,
    ];
    let mut bodies = vec![
        QueryResponse::Components(vec![]),
        QueryResponse::Components(vec![
            Comp::new(vec![0, 1, 2]),
            Comp::new(vec![1_000_000, 2_000_000]),
        ]),
        QueryResponse::Connectivity(0),
        QueryResponse::Connectivity(u32::MAX),
        QueryResponse::Cut(None),
        QueryResponse::Cut(Some(vec![])),
        QueryResponse::Cut(Some(vec![7, 9, 4_000_000])),
        QueryResponse::Stats {
            num_vertices: 1_000_000,
            num_edges: 123_456_789,
            indexed: true,
            max_k: 17,
            ordering: OrderingPolicy::Hybrid,
            depth_limit: Some(3),
            scheduling: SchedulingStats {
                work_items: 1_000,
                steals: u64::MAX,
                splits: 0,
                cancelled_runs: 3,
                retries: 12,
                requeues: 4,
                quarantines: 1,
                reinstatements: 1,
                local_fallbacks: 2,
                update_batches: 5,
                update_edges: 90,
                update_rebuilds: 1,
                compactions: 2,
            },
            epoch: 5,
            qos: QosStats {
                cache_hits: 12,
                cache_misses: 3,
                coalesced: 7,
                shed: 1,
                queue_depth: 4,
            },
        },
        QueryResponse::Page {
            entries: vec![
                RankedEntry {
                    k: 4,
                    internal_edges: 10,
                    component: Comp::new(vec![1, 2, 3, 4, 5]),
                },
                RankedEntry {
                    k: 1,
                    internal_edges: 1,
                    component: Comp::new(vec![8, 9]),
                },
            ],
            next_cursor: Some(
                PageCursor {
                    graph: GraphId(1),
                    rank_by: RankBy::Size,
                    offset: 2,
                    num_nodes: 40,
                    epoch: 0,
                }
                .to_bytes(),
            ),
        },
        QueryResponse::Page {
            entries: vec![],
            next_cursor: None,
        },
        QueryResponse::HandshakeOk,
    ];
    bodies.extend(errors.into_iter().map(QueryResponse::Error));
    let mut responses: Vec<Response> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| Response {
            request_id: i as u64 * 7,
            body: ResponseBody::Query(b.clone()),
        })
        .collect();
    responses.push(Response {
        request_id: 0,
        body: ResponseBody::Batch(bodies),
    });
    responses
}

#[test]
fn every_message_shape_roundtrips() {
    for request in all_requests() {
        let bytes = request.to_bytes();
        assert_eq!(Request::from_bytes(&bytes).unwrap(), request);
        assert!(Response::from_bytes(&bytes).is_err(), "kind is checked");
    }
    for response in all_responses() {
        let bytes = response.to_bytes();
        assert_eq!(Response::from_bytes(&bytes).unwrap(), response);
        assert!(Request::from_bytes(&bytes).is_err(), "kind is checked");
    }
}

#[test]
fn randomized_fuzz_never_panics() {
    let mut rng = XorShift(0xF00D_F00D);
    let requests = all_requests();
    let responses = all_responses();
    let corpora: Vec<Vec<u8>> = requests
        .iter()
        .map(Request::to_bytes)
        .chain(responses.iter().map(Response::to_bytes))
        .collect();

    // Truncations of valid buffers: every strict prefix must be rejected
    // (the formats end with an exact-consumption check, so a prefix can
    // never be a valid message).
    for buf in &corpora {
        for cut in 0..buf.len() {
            assert!(Request::from_bytes(&buf[..cut]).is_err());
            assert!(Response::from_bytes(&buf[..cut]).is_err());
        }
    }

    // Single-byte mutations: decoding may succeed (a changed id is still a
    // valid message) but must never panic, and a successful decode must
    // re-encode to a decodable buffer (no incoherent structures escape).
    for round in 0..4_000 {
        let buf = &corpora[(round % corpora.len() as u64) as usize];
        let mut mutated = buf.clone();
        let at = rng.below(mutated.len() as u64) as usize;
        mutated[at] ^= (1 + rng.below(255)) as u8;
        if let Ok(request) = Request::from_bytes(&mutated) {
            assert!(Request::from_bytes(&request.to_bytes()).is_ok());
        }
        if let Ok(response) = Response::from_bytes(&mutated) {
            assert!(Response::from_bytes(&response.to_bytes()).is_ok());
        }
    }

    // Pure garbage (with a valid-looking header so decoding reaches deep):
    // reject, never panic, for every wire format in the crate.
    for _ in 0..2_000 {
        let len = rng.below(200) as usize;
        let mut garbage: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = Request::from_bytes(&garbage);
        let _ = Response::from_bytes(&garbage);
        let _ = CsrWorkItem::from_bytes(&garbage);
        let _ = kvcc_service::ConnectivityIndex::from_bytes(&garbage);
        let _ = PageCursor::from_bytes(&garbage);
        if garbage.len() >= 6 {
            garbage[..4].copy_from_slice(b"KRPC");
            garbage[4] = 2;
            garbage[5] %= 2;
            let _ = Request::from_bytes(&garbage);
            let _ = Response::from_bytes(&garbage);
            garbage[..4].copy_from_slice(b"KWRK");
            let _ = CsrWorkItem::from_bytes(&garbage);
            garbage[..4].copy_from_slice(b"KIDX");
            let _ = kvcc_service::ConnectivityIndex::from_bytes(&garbage);
            garbage[..4].copy_from_slice(b"KCUR");
            let _ = PageCursor::from_bytes(&garbage);
        }
    }
}

#[test]
fn frames_survive_arbitrary_chunking() {
    let mut rng = XorShift(0xBEEF);
    let payloads: Vec<Vec<u8>> = all_requests().iter().map(Request::to_bytes).collect();
    let mut stream = Vec::new();
    for p in &payloads {
        stream.extend_from_slice(&encode_frame(p).unwrap());
    }
    for round in 0..50 {
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut at = 0usize;
        while at < stream.len() {
            let chunk = 1 + rng.below(97) as usize;
            let end = (at + chunk).min(stream.len());
            decoder.push(&stream[at..end]);
            at = end;
            while let Some(frame) = decoder.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, payloads, "round {round}");
        assert_eq!(decoder.pending_bytes(), 0);
    }
    // A hostile length prefix poisons the stream instead of allocating.
    let mut decoder = FrameDecoder::new();
    decoder.push(&0xFFFF_FFFFu32.to_le_bytes());
    assert!(decoder.next_frame().is_err());
}

#[test]
fn shard_workers_over_frames_reproduce_the_enumeration_byte_identically() {
    for (name, graph) in [("mixed", mixed_graph()), ("collab", collab())] {
        let engine = ServiceEngine::new(EngineConfig {
            ordering: OrderingPolicy::Hybrid,
            ..EngineConfig::default()
        });
        let id = engine.load_graph(name, &graph);
        for k in 1..=3u32 {
            // Two shard workers, each living on the far side of a loopback
            // transport: nothing crosses except length-prefixed frames.
            let (client_a, server_a) = LoopbackTransport::pair();
            let (client_b, server_b) = LoopbackTransport::pair();
            let workers: Vec<_> = [server_a, server_b]
                .into_iter()
                .map(|server| {
                    std::thread::spawn(move || {
                        run_shard_worker(&server, &KvccOptions::default()).unwrap()
                    })
                })
                .collect();
            let sharded = engine
                .enumerate_sharded(id, k, &[&client_a, &client_b])
                .unwrap();
            drop((client_a, client_b));
            let served: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
            assert_eq!(served, engine.partition_work(id, k).unwrap().len());

            // Byte-identical to the in-process engine answer: compare the
            // *encoded* responses, not just the values.
            let direct = match engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }) {
                QueryResponse::Components(c) => c,
                other => panic!("expected components, got {other:?}"),
            };
            let as_response = |components| Response {
                request_id: 1,
                body: ResponseBody::Query(QueryResponse::Components(components)),
            };
            assert_eq!(
                as_response(sharded).to_bytes(),
                as_response(direct).to_bytes(),
                "{name}, k = {k}"
            );
        }
    }
}

#[test]
fn served_engine_answers_framed_batches_like_the_in_process_path() {
    let graph = mixed_graph();
    let engine = std::sync::Arc::new(ServiceEngine::new(EngineConfig::default()));
    let id = engine.load_graph("mixed", &graph);
    let queries: Vec<QueryRequest> = (0..graph.num_vertices() as u32)
        .map(|seed| QueryRequest::KvccsContaining {
            graph: id,
            seed,
            k: 2,
        })
        .chain([
            QueryRequest::GraphStats { graph: id },
            QueryRequest::MaxConnectivity {
                graph: id,
                u: 5,
                v: 8,
            },
        ])
        .collect();
    let expected = engine.execute_batch(&queries);

    let (client, server) = LoopbackTransport::pair();
    let server_engine = std::sync::Arc::clone(&engine);
    let serving = std::thread::spawn(move || server_engine.serve(&server).unwrap());
    let response = call(
        &client,
        &Request {
            request_id: 99,
            deadline_hint_ms: None,
            body: RequestBody::Batch(queries),
        },
    )
    .unwrap();
    assert_eq!(response.request_id, 99);
    assert_eq!(response.body, ResponseBody::Batch(expected));
    drop(client);
    serving.join().unwrap();
}

#[test]
fn topk_pagination_returns_every_component_exactly_once() {
    for ordering in [OrderingPolicy::Preserve, OrderingPolicy::Hybrid] {
        let graph = collab();
        let engine = ServiceEngine::new(EngineConfig {
            ordering,
            ..EngineConfig::default()
        });
        let id = engine.load_graph("collab", &graph);

        // Reference: the union of `components_at` over every level, i.e.
        // every node of the index forest, via the enumeration query path.
        let mut reference: Vec<(u32, Vec<u32>)> = Vec::new();
        let max_k = match engine.execute(&QueryRequest::GraphStats { graph: id }) {
            QueryResponse::Stats { .. } => {
                // Force the index, then read its depth.
                engine.build_index(id).unwrap();
                match engine.execute(&QueryRequest::GraphStats { graph: id }) {
                    QueryResponse::Stats { max_k, .. } => max_k,
                    other => panic!("expected stats, got {other:?}"),
                }
            }
            other => panic!("expected stats, got {other:?}"),
        };
        assert!(max_k >= 3, "collab suite has deep structure");
        for k in 1..=max_k {
            match engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }) {
                QueryResponse::Components(components) => {
                    reference.extend(components.into_iter().map(|c| (k, c.vertices().to_vec())))
                }
                other => panic!("expected components, got {other:?}"),
            }
        }
        reference.sort();

        for rank_by in RankBy::ALL {
            for page_size in [1u32, 3, 7, 10_000] {
                let mut collected: Vec<(u32, Vec<u32>)> = Vec::new();
                let mut cursor: Option<Vec<u8>> = None;
                let mut pages = 0;
                loop {
                    let response = engine.execute(&QueryRequest::TopKComponents {
                        graph: id,
                        rank_by,
                        page_size,
                        cursor: cursor.clone(),
                    });
                    let (entries, next) = match response {
                        QueryResponse::Page {
                            entries,
                            next_cursor,
                        } => (entries, next_cursor),
                        other => panic!("expected a page, got {other:?}"),
                    };
                    pages += 1;
                    assert!(
                        entries.len() <= page_size as usize,
                        "pages never exceed page_size"
                    );
                    // Within and across pages the ranking key never
                    // increases (ties allowed).
                    collected.extend(
                        entries
                            .iter()
                            .map(|e| (e.k, e.component.vertices().to_vec())),
                    );
                    for pair in entries.windows(2) {
                        let not_increasing = match rank_by {
                            RankBy::K => pair[0].k >= pair[1].k,
                            RankBy::Size => pair[0].size() >= pair[1].size(),
                            RankBy::Density => pair[0].density() >= pair[1].density() - 1e-12,
                        };
                        assert!(not_increasing, "{rank_by:?}: ranking order violated");
                    }
                    match next {
                        Some(next) => cursor = Some(next),
                        None => break,
                    }
                }
                assert_eq!(
                    pages,
                    (reference.len() as u32).div_ceil(page_size).max(1),
                    "{ordering:?}/{rank_by:?}/{page_size}: page count"
                );
                // Exactly-once coverage with parity against components_at:
                // same multiset of (k, members) pairs, no duplicates, no
                // omissions.
                collected.sort();
                assert_eq!(
                    collected, reference,
                    "{ordering:?}/{rank_by:?}/{page_size}: coverage"
                );
            }
        }
    }
}

#[test]
fn topk_pages_are_identical_across_ordering_policies() {
    // The slot ranks in external (loaded-id) space with content tie-breaks,
    // so pages — entries *and* cursors — must be byte-identical whatever
    // layout the engine stores the graph in (the PR 3 response invariant).
    let graph = collab();
    let reference_pages = |ordering: OrderingPolicy| {
        let engine = ServiceEngine::new(EngineConfig {
            ordering,
            ..EngineConfig::default()
        });
        let id = engine.load_graph("collab", &graph);
        let mut pages = Vec::new();
        for rank_by in RankBy::ALL {
            let mut cursor: Option<Vec<u8>> = None;
            loop {
                match engine.execute(&QueryRequest::TopKComponents {
                    graph: id,
                    rank_by,
                    page_size: 3,
                    cursor: cursor.take(),
                }) {
                    QueryResponse::Page {
                        entries,
                        next_cursor,
                    } => {
                        pages.push((rank_by, entries, next_cursor.clone()));
                        match next_cursor {
                            Some(next) => cursor = Some(next),
                            None => break,
                        }
                    }
                    other => panic!("expected a page, got {other:?}"),
                }
            }
        }
        pages
    };
    assert_eq!(
        reference_pages(OrderingPolicy::Hybrid),
        reference_pages(OrderingPolicy::Preserve)
    );
}

#[test]
fn hostile_cursors_are_rejected_with_the_stable_code() {
    let engine = ServiceEngine::new(EngineConfig::default());
    let id = engine.load_graph("mixed", &mixed_graph());
    engine.build_index(id).unwrap();
    let page = |cursor: Option<Vec<u8>>, rank_by| {
        engine.execute(&QueryRequest::TopKComponents {
            graph: id,
            rank_by,
            page_size: 2,
            cursor,
        })
    };
    let expect_invalid = |response: QueryResponse| match response {
        QueryResponse::Error(e) => assert_eq!(e.code(), 4, "{e}"),
        other => panic!("expected an invalid-cursor error, got {other:?}"),
    };

    // A real cursor from the first page…
    let good = match page(None, RankBy::Size) {
        QueryResponse::Page {
            next_cursor: Some(c),
            ..
        } => c,
        other => panic!("expected a continued page, got {other:?}"),
    };
    // …replayed against a different ranking.
    expect_invalid(page(Some(good.clone()), RankBy::Density));
    // Truncated, mutated magic, and garbage cursors.
    expect_invalid(page(Some(good[..good.len() - 1].to_vec()), RankBy::Size));
    let mut bad_magic = good.clone();
    bad_magic[0] = b'Z';
    expect_invalid(page(Some(bad_magic), RankBy::Size));
    expect_invalid(page(Some(vec![1, 2, 3]), RankBy::Size));
    // A fingerprint from a different index (node count off by one).
    let mut stale = PageCursor::from_bytes(&good).unwrap();
    stale.num_nodes += 1;
    expect_invalid(page(Some(stale.to_bytes()), RankBy::Size));
    // An offset beyond the end.
    let mut beyond = PageCursor::from_bytes(&good).unwrap();
    beyond.offset = beyond.num_nodes + 1;
    expect_invalid(page(Some(beyond.to_bytes()), RankBy::Size));
    // Replay against a *different graph* whose index has the same node
    // count (the same graph loaded twice): the graph id in the cursor must
    // reject it — an identical fingerprint is not enough.
    let twin = engine.load_graph("mixed-twin", &mixed_graph());
    engine.build_index(twin).unwrap();
    match engine.execute(&QueryRequest::TopKComponents {
        graph: twin,
        rank_by: RankBy::Size,
        page_size: 2,
        cursor: Some(good.clone()),
    }) {
        QueryResponse::Error(e) => assert_eq!(e.code(), 4, "{e}"),
        other => panic!("expected an invalid-cursor error, got {other:?}"),
    }
    // page_size 0 is a malformed request, not a crash or an infinite page.
    match engine.execute(&QueryRequest::TopKComponents {
        graph: id,
        rank_by: RankBy::Size,
        page_size: 0,
        cursor: None,
    }) {
        QueryResponse::Error(e) => assert_eq!(e.code(), 7, "{e}"),
        other => panic!("expected a malformed-request error, got {other:?}"),
    }
}

#[test]
fn work_item_and_index_wire_formats_use_the_shared_codec_economically() {
    // The v2 varint formats must beat their fixed-width v1 equivalents on a
    // real workload — that is the point of sharing the codec.
    let planted = planted_communities(&PlantedConfig {
        num_communities: 4,
        chain_length: 2,
        community_size: (8, 10),
        background_vertices: 250,
        seed: 77,
        ..PlantedConfig::default()
    });
    let engine = ServiceEngine::new(EngineConfig::default());
    let id = engine.load_graph("planted", &planted.graph);
    let items = engine.partition_work(id, 2).unwrap();
    assert!(!items.is_empty());
    for item in &items {
        let bytes = item.to_bytes();
        assert_eq!(&CsrWorkItem::from_bytes(&bytes).unwrap(), item);
        let g = item.graph();
        let fixed_v1 = 9 // work-item header
            + 13 + 4 * (g.num_vertices() + 1) + 8 * g.num_edges() // CSR v1
            + 4 + 4 * item.to_original().len(); // id map
        assert!(
            bytes.len() < fixed_v1,
            "work item: varint {} vs fixed {fixed_v1}",
            bytes.len()
        );
    }
    let index_bytes = engine.index_bytes(id).unwrap();
    let index = kvcc_service::ConnectivityIndex::from_bytes(&index_bytes).unwrap();
    let fixed_v1: usize = 17
        + index
            .ranked_components(RankBy::Size, index.num_nodes())
            .iter()
            .map(|e| 12 + 4 * e.component.len())
            .sum::<usize>();
    assert!(
        index_bytes.len() < fixed_v1,
        "index: varint {} vs fixed {fixed_v1}",
        index_bytes.len()
    );
}
