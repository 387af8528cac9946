//! Chaos parity: the self-healing shard coordinator must produce
//! **byte-identical** output to the in-process enumeration under every
//! seeded fault schedule.
//!
//! The suites wrap the shard transports in [`FaultTransport`] (seeded,
//! reproducible — see `kvcc_service::wire::faults`) and assert four things:
//!
//! * **parity under chaos** — drops, delays, single-bit corruption,
//!   truncation and mixed schedules across several seeds never change the
//!   merged components, only the failure-handling counters;
//! * **requeue on worker death** — a worker killed mid-item has its
//!   in-flight work requeued and the run still completes with parity;
//! * **graceful degradation** — with every worker dead (or no workers at
//!   all) the coordinator finishes locally, with parity;
//! * **health transitions** — a deterministic failure burst quarantines a
//!   worker, a later probe reinstates it, and the counters record both.
//!
//! Plus the multi-process story end to end: fleets over real TCP and Unix
//! sockets served by a [`ShardPool`], including a chaotic TCP fleet.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::time::Duration;

use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_graph::UndirectedGraph;
use kvcc_service::{
    run_shard_worker, CoordinatorConfig, EngineConfig, FaultPlan, FaultTransport, FleetOutcome,
    GraphId, KvccOptions, LoopbackTransport, OrderingPolicy, QueryRequest, QueryResponse, Response,
    ResponseBody, ServiceEngine, ShardPool, SocketOptions, TcpTransport, Transport, UnixTransport,
};

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

/// A §6.4-style workload for the socket round-trips.
fn collab() -> UndirectedGraph {
    collaboration_graph(&CollaborationConfig {
        num_groups: 6,
        group_size: (6, 9),
        pendant_collaborators: 10,
        ..CollaborationConfig::default()
    })
    .graph
}

/// Eight disjoint cliques (sizes 4–7): the k-core splits into eight
/// components, so `partition_work` is guaranteed to hand the fleet a real
/// multi-item worklist — the scheduling the chaos suites are about.
fn many_cliques() -> UndirectedGraph {
    let mut edges = Vec::new();
    let mut base = 0u32;
    for size in [4u32, 5, 6, 7, 4, 5, 6, 7] {
        for i in 0..size {
            for j in (i + 1)..size {
                edges.push((base + i, base + j));
            }
        }
        base += size;
    }
    UndirectedGraph::from_edges(base as usize, edges).unwrap()
}

fn engine_with(name: &str, graph: &UndirectedGraph) -> (ServiceEngine, GraphId) {
    let engine = ServiceEngine::new(EngineConfig {
        ordering: OrderingPolicy::Hybrid,
        ..EngineConfig::default()
    });
    let id = engine.load_graph(name, graph);
    (engine, id)
}

/// Asserts the sharded outcome is byte-identical to the engine's own
/// answer (encoded responses compared, not just values).
fn assert_parity(engine: &ServiceEngine, id: GraphId, k: u32, outcome: &FleetOutcome, label: &str) {
    let direct = match engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }) {
        QueryResponse::Components(c) => c,
        other => panic!("expected components, got {other:?}"),
    };
    let as_response = |components| Response {
        request_id: 1,
        body: ResponseBody::Query(QueryResponse::Components(components)),
    };
    assert_eq!(
        as_response(outcome.components.clone()).to_bytes(),
        as_response(direct).to_bytes(),
        "fleet output diverged from the in-process enumeration ({label})"
    );
}

/// A coordinator config tight enough to exercise timeouts within test time.
fn snappy() -> CoordinatorConfig {
    CoordinatorConfig {
        item_timeout: Duration::from_millis(60),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        probe_delay: Duration::from_millis(5),
        ..CoordinatorConfig::default()
    }
}

/// Runs a fleet of `plans.len()` chaotic loopback workers to completion and
/// returns the outcome. Worker threads are joined (their transports may end
/// in any state under chaos, so their results are deliberately ignored).
fn run_chaotic_fleet(
    engine: &ServiceEngine,
    id: GraphId,
    k: u32,
    plans: &[FaultPlan],
    config: &CoordinatorConfig,
) -> FleetOutcome {
    let mut clients = Vec::new();
    let mut workers = Vec::new();
    for plan in plans {
        let (client, server) = LoopbackTransport::pair();
        clients.push(FaultTransport::new(client, *plan));
        workers.push(std::thread::spawn(move || {
            let _ = run_shard_worker(&server, &KvccOptions::default());
        }));
    }
    let shards: Vec<&dyn Transport> = clients.iter().map(|c| c as &dyn Transport).collect();
    let outcome = engine
        .enumerate_sharded_with(id, k, &shards, config)
        .expect("chaotic fleets still complete");
    drop(shards);
    drop(clients);
    for worker in workers {
        worker.join().unwrap();
    }
    outcome
}

#[test]
fn parity_holds_under_seeded_drop_delay_corrupt_and_truncate_schedules() {
    let graph = many_cliques();
    let (engine, id) = engine_with("cliques", &graph);
    let schedules: Vec<(&str, FaultPlan)> = vec![
        (
            "drops",
            FaultPlan {
                drop_per_mille: 250,
                ..FaultPlan::default()
            },
        ),
        (
            "delays",
            FaultPlan {
                delay_per_mille: 400,
                delay: Duration::from_millis(3),
                ..FaultPlan::default()
            },
        ),
        (
            "corruption",
            FaultPlan {
                corrupt_per_mille: 250,
                ..FaultPlan::default()
            },
        ),
        (
            "truncation",
            FaultPlan {
                truncate_per_mille: 250,
                ..FaultPlan::default()
            },
        ),
        (
            "everything at once",
            FaultPlan {
                drop_per_mille: 120,
                delay_per_mille: 120,
                delay: Duration::from_millis(2),
                corrupt_per_mille: 120,
                truncate_per_mille: 120,
                ..FaultPlan::default()
            },
        ),
    ];
    for (label, plan) in schedules {
        for seed in [1u64, 7, 1234] {
            // One chaotic worker, one clean worker: the fleet as a whole
            // stays able to make remote progress under every schedule.
            let plans = [FaultPlan { seed, ..plan }, FaultPlan::default()];
            let outcome = run_chaotic_fleet(&engine, id, 2, &plans, &snappy());
            assert_parity(&engine, id, 2, &outcome, &format!("{label}, seed {seed}"));
        }
    }
}

#[test]
fn an_injected_fault_is_repaired_and_counted() {
    // Deterministic single-fault schedule: the very first request frame is
    // swallowed, so exactly one item must time out and be retried.
    let graph = mixed_graph();
    let (engine, id) = engine_with("mixed", &graph);
    let plans = [FaultPlan {
        fail_first_sends: 1,
        ..FaultPlan::default()
    }];
    let outcome = run_chaotic_fleet(&engine, id, 2, &plans, &snappy());
    assert_parity(&engine, id, 2, &outcome, "first send dropped");
    assert!(
        outcome.stats.retries >= 1 && outcome.stats.timeouts >= 1,
        "the dropped request must surface as a timeout retry: {:?}",
        outcome.stats
    );
    // The repair is visible in the slot's wire-level scheduling telemetry.
    match engine.execute(&QueryRequest::GraphStats { graph: id }) {
        QueryResponse::Stats { scheduling, .. } => {
            assert!(
                scheduling.retries >= 1,
                "stats lost the retry: {scheduling:?}"
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn a_worker_killed_mid_item_has_its_work_requeued() {
    let graph = many_cliques();
    let (engine, id) = engine_with("cliques", &graph);
    // The only worker's connection dies after exactly one request frame is
    // accepted: that item is mid-flight (its response can never arrive), so
    // it — and the item whose send hit the dead socket — must be requeued
    // and finished by the coordinator's degradation path.
    let plans = [FaultPlan {
        disconnect_after_sends: Some(1),
        ..FaultPlan::default()
    }];
    let outcome = run_chaotic_fleet(&engine, id, 2, &plans, &snappy());
    assert_parity(&engine, id, 2, &outcome, "worker killed mid-item");
    assert_eq!(outcome.stats.worker_deaths, 1, "{:?}", outcome.stats);
    assert!(
        outcome.stats.requeues >= 2,
        "the in-flight item and the failed send must requeue: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.local_fallbacks >= 1,
        "with the fleet gone the requeued items finish locally: {:?}",
        outcome.stats
    );
}

#[test]
fn an_entirely_dead_fleet_degrades_to_local_execution() {
    let graph = mixed_graph();
    let (engine, id) = engine_with("mixed", &graph);
    // Both "workers" are connections to peers that hung up immediately.
    let mut clients = Vec::new();
    for _ in 0..2 {
        let (client, server) = LoopbackTransport::pair();
        drop(server);
        clients.push(client);
    }
    let shards: Vec<&dyn Transport> = clients.iter().map(|c| c as &dyn Transport).collect();
    let outcome = engine
        .enumerate_sharded_with(id, 2, &shards, &snappy())
        .expect("local fallback completes the run");
    assert_parity(&engine, id, 2, &outcome, "all workers dead");
    assert_eq!(outcome.stats.worker_deaths, 2);
    assert!(
        outcome.stats.local_fallbacks >= 1,
        "someone must have finished the items: {:?}",
        outcome.stats
    );

    // Without local fallback the same situation is an error, not a hang.
    let strict = CoordinatorConfig {
        local_fallback: false,
        ..snappy()
    };
    assert!(engine
        .enumerate_sharded_with(id, 2, &shards, &strict)
        .is_err());
}

#[test]
fn a_failure_burst_quarantines_the_worker_and_a_probe_reinstates_it() {
    let graph = many_cliques();
    let (engine, id) = engine_with("cliques", &graph);
    // The first 6 request frames vanish: enough consecutive timeouts to
    // cross the quarantine threshold and to eat the first probes; once the
    // burst is spent, a probe lands and the worker must be reinstated.
    let plans = [FaultPlan {
        fail_first_sends: 6,
        ..FaultPlan::default()
    }];
    let config = CoordinatorConfig {
        max_attempts: 10, // the burst must not exhaust items into local fallback
        ..snappy()
    };
    let outcome = run_chaotic_fleet(&engine, id, 2, &plans, &config);
    assert_parity(&engine, id, 2, &outcome, "quarantine and reinstatement");
    assert!(
        outcome.stats.quarantines >= 1,
        "six consecutive losses must quarantine: {:?}",
        outcome.stats
    );
    assert!(
        outcome.stats.reinstatements >= 1,
        "a successful probe must reinstate: {:?}",
        outcome.stats
    );
}

#[test]
fn a_tcp_fleet_through_a_shard_pool_reproduces_the_enumeration() {
    let graph = collab();
    let (engine, id) = engine_with("collab", &graph);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let pool = ShardPool::serve_tcp(
        listener,
        SocketOptions::default(),
        KvccOptions::default(),
        8,
        None,
    )
    .unwrap();
    let addr = pool.local_addr().unwrap();
    for k in 1..=3u32 {
        let connections: Vec<TcpTransport> = (0..3)
            .map(|_| TcpTransport::connect(addr, SocketOptions::default()).unwrap())
            .collect();
        let shards: Vec<&dyn Transport> = connections.iter().map(|c| c as &dyn Transport).collect();
        let outcome = engine
            .enumerate_sharded_with(id, k, &shards, &CoordinatorConfig::default())
            .unwrap();
        assert_parity(&engine, id, k, &outcome, &format!("tcp fleet, k = {k}"));
        assert_eq!(
            outcome.stats.local_fallbacks, 0,
            "a healthy socket fleet needs no degradation"
        );
    }
    assert!(pool.items_served() > 0, "the pool really did the work");
}

#[test]
fn a_chaotic_tcp_fleet_still_reaches_parity() {
    let graph = many_cliques();
    let (engine, id) = engine_with("cliques", &graph);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let pool = ShardPool::serve_tcp(
        listener,
        SocketOptions::default(),
        KvccOptions::default(),
        8,
        None,
    )
    .unwrap();
    let addr = pool.local_addr().unwrap();
    let chaotic = FaultTransport::new(
        TcpTransport::connect(addr, SocketOptions::default()).unwrap(),
        FaultPlan {
            seed: 99,
            drop_per_mille: 200,
            corrupt_per_mille: 150,
            ..FaultPlan::default()
        },
    );
    let clean = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
    let outcome = engine
        .enumerate_sharded_with(id, 2, &[&chaotic, &clean], &snappy())
        .unwrap();
    assert_parity(&engine, id, 2, &outcome, "chaotic tcp fleet");
}

#[test]
fn a_unix_socket_fleet_reproduces_the_enumeration() {
    let graph = mixed_graph();
    let (engine, id) = engine_with("mixed", &graph);
    let dir = std::env::temp_dir().join(format!("kvcc-fleet-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let pool = ShardPool::serve_unix(
        listener,
        SocketOptions::default(),
        KvccOptions::default(),
        4,
        None,
    )
    .unwrap();
    let connections: Vec<UnixTransport> = (0..2)
        .map(|_| UnixTransport::connect(&path, SocketOptions::default()).unwrap())
        .collect();
    let shards: Vec<&dyn Transport> = connections.iter().map(|c| c as &dyn Transport).collect();
    let outcome = engine
        .enumerate_sharded_with(id, 2, &shards, &CoordinatorConfig::default())
        .unwrap();
    assert_parity(&engine, id, 2, &outcome, "unix fleet");
    drop(shards);
    drop(connections);
    drop(pool);
    let _ = std::fs::remove_file(&path);
}
