//! The self-healing shard coordinator: distributed `KVCC-ENUM` that
//! survives worker failure.
//!
//! [`run_fleet`] drives a set of self-contained work items
//! ([`CsrWorkItem`], produced by
//! [`crate::ServiceEngine::partition_work`]) across a fleet of shard
//! workers, each reachable through a [`Transport`]. Unlike the PR 4
//! ship-everything-then-collect loop, the coordinator is built for a world
//! where frames get dropped, delayed, corrupted and whole workers die
//! mid-item:
//!
//! * **pipelining** — each worker keeps up to
//!   [`CoordinatorConfig::max_outstanding_per_worker`] items in flight, so
//!   one slow item doesn't idle the connection;
//! * **per-item deadlines** — an item unanswered within
//!   [`CoordinatorConfig::item_timeout`] is requeued (exponential backoff,
//!   capped attempts) and re-sent, to this worker or a healthier one;
//! * **health tracking** — consecutive failures quarantine a worker;
//!   quarantined workers are probed with a real queued item and reinstated
//!   on success; a closed transport retires the worker for good and its
//!   in-flight items are requeued onto the surviving fleet;
//! * **graceful degradation** — an item that exhausts its retry budget, or
//!   a fleet that is entirely gone, falls back to *local* execution on the
//!   coordinator, so the enumeration always completes.
//!
//! All of this is **safe by construction**: work items are idempotent pure
//! functions of their bytes, every result lands in a per-item slot (first
//! completion wins, duplicates from retried items are discarded), and the
//! final merge sorts the union — so the output is byte-identical to the
//! in-process enumeration under *every* fault schedule, which
//! `tests/fleet_parity.rs` asserts against the seeded chaos harness
//! ([`crate::wire::faults`]). The price of resilience is only ever paid in
//! the [`FleetStats`] counters, never in the answer.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use kvcc::{KVertexConnectedComponent, KvccOptions};

use crate::protocol::{QueryResponse, Request, RequestBody, Response, ResponseBody, ServiceError};
use crate::wire::transport::{backoff, Transport, TransportError};
use crate::wire::{run_work_item, CsrWorkItem};

/// Failure-handling knobs of the shard coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Maximum work items concurrently in flight per worker connection.
    pub max_outstanding_per_worker: usize,
    /// Per-item response deadline; an unanswered item is requeued and the
    /// worker charged with a failure.
    pub item_timeout: Duration,
    /// Total send attempts per item across the whole fleet before the
    /// coordinator gives up on remote execution and runs the item locally
    /// (or fails, when [`CoordinatorConfig::local_fallback`] is off).
    pub max_attempts: u32,
    /// Backoff before retry `a` of an item is `backoff_base << (a - 1)`,
    /// capped at [`CoordinatorConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the per-item exponential backoff.
    pub backoff_cap: Duration,
    /// Consecutive failures after which a worker is quarantined (its
    /// in-flight items are requeued and it stops receiving regular work).
    pub quarantine_after: u32,
    /// Delay before a quarantined worker is probed with one queued item;
    /// doubles per failed probe (capped at 8× so reinstatement stays
    /// reachable).
    pub probe_delay: Duration,
    /// Degrade to local execution for items whose retry budget is spent and
    /// when the whole fleet is dead or absent. With `false` those
    /// situations fail the run instead.
    pub local_fallback: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            max_outstanding_per_worker: 4,
            item_timeout: Duration::from_secs(2),
            max_attempts: 4,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            quarantine_after: 3,
            probe_delay: Duration::from_millis(25),
            local_fallback: true,
        }
    }
}

/// What the coordinator had to do to finish one sharded enumeration. Purely
/// observational: none of these counters influence the merged output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Work items shipped at least once.
    pub items_total: u64,
    /// Re-sends after a retryable failure (timeout, in-flight corruption,
    /// retryable peer error).
    pub retries: u64,
    /// In-flight items pulled off a dead or quarantined worker and requeued
    /// onto the rest of the fleet.
    pub requeues: u64,
    /// Per-item deadlines that expired.
    pub timeouts: u64,
    /// Worker quarantine transitions.
    pub quarantines: u64,
    /// Quarantined workers reinstated by a successful probe.
    pub reinstatements: u64,
    /// Workers retired for good (transport closed or frame stream
    /// poisoned).
    pub worker_deaths: u64,
    /// Items completed by local execution on the coordinator (retry budget
    /// exhausted, or no live workers left).
    pub local_fallbacks: u64,
}

/// A finished sharded enumeration: the merged components (byte-identical to
/// the in-process path) plus the failure-handling record.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The merged, sorted component set.
    pub components: Vec<KVertexConnectedComponent>,
    /// What it took to get there.
    pub stats: FleetStats,
}

/// An item waiting (or waiting again) to be shipped.
struct Pending {
    idx: usize,
    /// Send attempts already spent on this item.
    attempts: u32,
    /// Earliest instant the item may be re-sent (exponential backoff).
    not_before: Instant,
}

/// Shared coordinator state; one mutex, worker threads park on the condvar.
struct Inner {
    queue: VecDeque<Pending>,
    /// One slot per item; the first completion wins, so a retried item that
    /// eventually completes twice contributes exactly once.
    results: Vec<Option<Vec<KVertexConnectedComponent>>>,
    completed: usize,
    /// First terminal error any worker saw; ends the run.
    terminal: Option<ServiceError>,
    next_request_id: u64,
    stats: FleetStats,
}

struct Shared<'a> {
    items: &'a [CsrWorkItem],
    k: u32,
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl Shared<'_> {
    fn store_result(&self, idx: usize, components: Vec<KVertexConnectedComponent>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.results[idx].is_none() {
            inner.results[idx] = Some(components);
            inner.completed += 1;
            if inner.completed == self.items.len() {
                self.ready.notify_all();
            }
        }
    }

    fn requeue(&self, inner: &mut Inner, idx: usize, attempts: u32, config: &CoordinatorConfig) {
        inner.queue.push_back(Pending {
            idx,
            attempts,
            not_before: Instant::now() + backoff(config.backoff_base, config.backoff_cap, attempts),
        });
        self.ready.notify_all();
    }
}

/// One item this worker has shipped and is waiting on.
struct InFlight {
    id: u64,
    idx: usize,
    /// Attempts including this one.
    attempts: u32,
    deadline: Instant,
}

/// Per-worker connection state machine.
struct WorkerState<'a, 'b> {
    shared: &'a Shared<'b>,
    transport: &'a dyn Transport,
    config: &'a CoordinatorConfig,
    options: &'a KvccOptions,
    in_flight: VecDeque<InFlight>,
    consecutive_failures: u32,
    quarantined: bool,
    probe_round: u32,
    probe_at: Instant,
}

/// What a worker-loop iteration decided to do next.
enum Step {
    /// Run this attempt-capped item locally, then continue.
    Local(Pending),
    /// Ship these items (request id, pending entry).
    Send(Vec<(u64, Pending)>),
    /// Nothing to send; wait for a response to in-flight work.
    Receive,
    /// The run is over (all items done, or a terminal error was recorded).
    Done,
}

impl<'b> WorkerState<'_, 'b> {
    /// Charges the worker with one failure and applies the health state
    /// machine: quarantine on the configured streak (requeueing everything
    /// in flight), exponential probe backoff while quarantined.
    fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        let now = Instant::now();
        if self.quarantined {
            self.probe_round = (self.probe_round + 1).min(3);
            self.probe_at = now + self.config.probe_delay * (1 << self.probe_round);
        } else if self.consecutive_failures >= self.config.quarantine_after {
            self.quarantined = true;
            self.probe_round = 0;
            self.probe_at = now + self.config.probe_delay;
            let mut inner = self.shared.inner.lock().unwrap();
            inner.stats.quarantines += 1;
            inner.stats.requeues += self.in_flight.len() as u64;
            while let Some(entry) = self.in_flight.pop_front() {
                self.shared
                    .requeue(&mut inner, entry.idx, entry.attempts, self.config);
            }
        }
    }

    /// Marks the worker healthy again after any successfully decoded,
    /// attributable response.
    fn record_success(&mut self) {
        self.consecutive_failures = 0;
        if self.quarantined {
            self.quarantined = false;
            self.probe_round = 0;
            self.shared.inner.lock().unwrap().stats.reinstatements += 1;
        }
    }

    /// Requeues everything in flight and retires the worker (transport
    /// closed or unusable). The surviving fleet — or the local fallback —
    /// picks the items up.
    fn die(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.stats.worker_deaths += 1;
        inner.stats.requeues += self.in_flight.len() as u64;
        while let Some(entry) = self.in_flight.pop_front() {
            self.shared
                .requeue(&mut inner, entry.idx, entry.attempts, self.config);
        }
    }

    /// Requeues one failed in-flight entry for another try.
    fn retry_entry(&mut self, entry: InFlight) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.stats.retries += 1;
        self.shared
            .requeue(&mut inner, entry.idx, entry.attempts, self.config);
    }

    /// Decides the next action under the shared lock, parking on the
    /// condvar while there is nothing to do.
    fn next_step(&mut self) -> Step {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if inner.terminal.is_some() || inner.completed == self.shared.items.len() {
                return Step::Done;
            }
            let now = Instant::now();
            // A quarantined worker sends at most one probe item, and only
            // once its probe delay has passed and nothing is outstanding.
            let capacity = if self.quarantined {
                usize::from(now >= self.probe_at && self.in_flight.is_empty())
            } else {
                self.config
                    .max_outstanding_per_worker
                    .saturating_sub(self.in_flight.len())
            };
            let mut to_send = Vec::new();
            while to_send.len() < capacity {
                let Some(pos) = inner.queue.iter().position(|p| p.not_before <= now) else {
                    break;
                };
                let pending = inner.queue.remove(pos).expect("position just found");
                if pending.attempts >= self.config.max_attempts {
                    // Retry budget spent: this item never goes on the wire
                    // again. Hand the batch built so far back to the queue —
                    // those entries are already dequeued and would otherwise
                    // be lost (their ids are simply never used; stale-id
                    // handling covers a worker that somehow answers one).
                    for (_, p) in to_send.drain(..).rev() {
                        inner.queue.push_front(p);
                    }
                    self.shared.ready.notify_all();
                    // Degrade to local execution (or fail the run).
                    if self.config.local_fallback {
                        return Step::Local(pending);
                    }
                    inner.terminal = Some(ServiceError::Transport {
                        reason: format!(
                            "work item {} exhausted its {} attempts and local fallback is disabled",
                            pending.idx, self.config.max_attempts
                        ),
                    });
                    self.shared.ready.notify_all();
                    return Step::Done;
                }
                let id = inner.next_request_id;
                inner.next_request_id += 1;
                to_send.push((id, pending));
            }
            if !to_send.is_empty() {
                return Step::Send(to_send);
            }
            if !self.in_flight.is_empty() && !self.quarantined {
                return Step::Receive;
            }
            // Nothing to ship and nothing we may wait on productively:
            // park briefly (bounded, so backoffs and probe delays are
            // re-examined without a dedicated timer thread).
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(inner, Duration::from_millis(2))
                .unwrap();
            inner = guard;
            if self.quarantined && !self.in_flight.is_empty() {
                return Step::Receive; // a probe is outstanding
            }
        }
    }

    /// Ships one item; `true` while the connection is usable.
    fn send_one(&mut self, id: u64, pending: Pending) -> bool {
        let request = Request {
            request_id: id,
            deadline_hint_ms: None,
            body: RequestBody::WorkItem {
                k: self.shared.k,
                item: self.shared.items[pending.idx].clone(),
            },
        };
        let attempts = pending.attempts + 1;
        match self.transport.send(&request.to_bytes()) {
            Ok(()) => {
                self.in_flight.push_back(InFlight {
                    id,
                    idx: pending.idx,
                    attempts,
                    deadline: Instant::now() + self.config.item_timeout,
                });
                true
            }
            Err(TransportError::TimedOut) => {
                let mut inner = self.shared.inner.lock().unwrap();
                inner.stats.retries += 1;
                self.shared
                    .requeue(&mut inner, pending.idx, attempts, self.config);
                drop(inner);
                self.record_failure();
                true
            }
            Err(_fatal) => {
                let mut inner = self.shared.inner.lock().unwrap();
                inner.stats.requeues += 1;
                self.shared
                    .requeue(&mut inner, pending.idx, pending.attempts, self.config);
                drop(inner);
                self.die();
                false
            }
        }
    }

    /// Requeues every in-flight item whose deadline has passed; `true` when
    /// at least one expired.
    fn expire_overdue(&mut self) -> bool {
        let now = Instant::now();
        let mut expired_any = false;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].deadline <= now {
                let entry = self.in_flight.remove(i).expect("index in range");
                {
                    let mut inner = self.shared.inner.lock().unwrap();
                    inner.stats.timeouts += 1;
                    inner.stats.retries += 1;
                    self.shared
                        .requeue(&mut inner, entry.idx, entry.attempts, self.config);
                }
                self.record_failure();
                expired_any = true;
            } else {
                i += 1;
            }
        }
        expired_any
    }

    /// Waits (boundedly) for one response and applies it; `true` while the
    /// connection is usable.
    fn receive_one(&mut self) -> bool {
        if self.expire_overdue() {
            return true; // re-plan: the queue changed and we may be quarantined now
        }
        let Some(earliest) = self.in_flight.iter().map(|e| e.deadline).min() else {
            return true;
        };
        let wait = earliest
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        match self.transport.recv_timeout(wait) {
            Ok(Some(frame)) => {
                self.apply_frame(&frame);
                true
            }
            Err(TransportError::TimedOut) => {
                self.expire_overdue();
                true
            }
            Ok(None) | Err(_) => {
                self.die();
                false
            }
        }
    }

    /// Applies one received frame to the in-flight set.
    fn apply_frame(&mut self, frame: &[u8]) {
        let Ok(response) = Response::from_bytes(frame) else {
            // The response was corrupted in flight: the frame cannot be
            // attributed by id, but responses arrive in request order on
            // these ordered transports, so charge the oldest outstanding
            // item. Misattribution only costs a duplicate execution, never
            // a wrong answer (results are slotted per item).
            if let Some(entry) = self.in_flight.pop_front() {
                self.retry_entry(entry);
            }
            self.record_failure();
            return;
        };
        let position = self
            .in_flight
            .iter()
            .position(|e| e.id == response.request_id);
        let Some(position) = position else {
            if response.request_id == 0 {
                // The *worker* answered "malformed request": our frame was
                // mangled on the way out. Same oldest-first attribution.
                if let Some(entry) = self.in_flight.pop_front() {
                    self.retry_entry(entry);
                }
                self.record_failure();
            }
            // A stale id (answer to an attempt we already timed out and
            // requeued): drop it — its item either completed elsewhere or
            // will — but it does prove the worker is alive.
            return;
        };
        let entry = self.in_flight.remove(position).expect("position in range");
        match response.body {
            ResponseBody::Query(QueryResponse::Components(components)) => {
                self.shared.store_result(entry.idx, components);
                self.record_success();
            }
            ResponseBody::Query(QueryResponse::Error(e)) => {
                if e.is_retryable() {
                    self.retry_entry(entry);
                    self.record_failure();
                } else {
                    let mut inner = self.shared.inner.lock().unwrap();
                    if inner.terminal.is_none() {
                        inner.terminal = Some(e);
                    }
                    self.shared.ready.notify_all();
                }
            }
            _ => {
                // A shape the worker should never answer an item with:
                // treat as in-flight corruption.
                self.retry_entry(entry);
                self.record_failure();
            }
        }
    }

    /// Runs one item locally on the coordinator (retry budget exhausted).
    fn run_local(&mut self, pending: Pending) {
        self.shared.inner.lock().unwrap().stats.local_fallbacks += 1;
        execute_local(self.shared, pending.idx, self.options);
    }

    fn run(&mut self) {
        loop {
            match self.next_step() {
                Step::Done => return,
                Step::Local(pending) => self.run_local(pending),
                Step::Send(batch) => {
                    let mut batch = batch.into_iter();
                    while let Some((id, pending)) = batch.next() {
                        if !self.send_one(id, pending) {
                            // Transport died mid-batch. `send_one` requeued
                            // the item it was holding and `die` requeued the
                            // in-flight set; the unsent remainder of the
                            // batch must go back too, or the fleet loses it.
                            let rest: Vec<Pending> = batch.map(|(_, p)| p).collect();
                            if !rest.is_empty() {
                                let mut inner = self.shared.inner.lock().unwrap();
                                inner.stats.requeues += rest.len() as u64;
                                for p in rest {
                                    self.shared
                                        .requeue(&mut inner, p.idx, p.attempts, self.config);
                                }
                            }
                            return;
                        }
                    }
                }
                Step::Receive => {
                    if !self.receive_one() {
                        return;
                    }
                }
            }
        }
    }
}

/// Enumerates one item on the coordinator and stores its result. Local
/// execution is the same pure function the shards run
/// ([`run_work_item`]), so degraded runs stay byte-identical.
fn execute_local(shared: &Shared<'_>, idx: usize, options: &KvccOptions) {
    match run_work_item(&shared.items[idx], shared.k, options) {
        Ok(components) => shared.store_result(idx, components),
        Err(e) => {
            let mut inner = shared.inner.lock().unwrap();
            if inner.terminal.is_none() {
                inner.terminal = Some(e.into());
            }
            shared.ready.notify_all();
        }
    }
}

/// Drives `items` to completion across the shard fleet and merges the
/// results; the engine-facing entry point behind
/// [`crate::ServiceEngine::enumerate_sharded`]. See the module docs for the
/// failure model.
pub fn run_fleet(
    items: &[CsrWorkItem],
    k: u32,
    shards: &[&dyn Transport],
    options: &KvccOptions,
    config: &CoordinatorConfig,
) -> Result<FleetOutcome, ServiceError> {
    if shards.is_empty() && !config.local_fallback {
        return Err(ServiceError::Transport {
            reason: "no shard transports supplied and local fallback is disabled".into(),
        });
    }
    let shared = Shared {
        items,
        k,
        inner: Mutex::new(Inner {
            queue: items
                .iter()
                .enumerate()
                .map(|(idx, _)| Pending {
                    idx,
                    attempts: 0,
                    not_before: Instant::now(),
                })
                .collect(),
            results: vec![None; items.len()],
            completed: 0,
            terminal: None,
            next_request_id: 1,
            stats: FleetStats {
                items_total: items.len() as u64,
                ..FleetStats::default()
            },
        }),
        ready: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for &transport in shards {
            let shared = &shared;
            scope.spawn(move || {
                WorkerState {
                    shared,
                    transport,
                    config,
                    options,
                    in_flight: VecDeque::new(),
                    consecutive_failures: 0,
                    quarantined: false,
                    probe_round: 0,
                    probe_at: Instant::now(),
                }
                .run();
            });
        }
    });

    // Every worker is gone (normally: run complete; degraded: all dead).
    // Whatever is still incomplete is finished locally — the fleet-is-gone
    // degradation the config promises.
    let mut inner = shared.inner.lock().unwrap();
    if let Some(e) = inner.terminal.take() {
        return Err(e);
    }
    let leftover: Vec<usize> = (0..items.len())
        .filter(|&idx| inner.results[idx].is_none())
        .collect();
    if !leftover.is_empty() {
        if !config.local_fallback {
            return Err(ServiceError::Transport {
                reason: format!(
                    "{} work items unfinished after every shard worker died",
                    leftover.len()
                ),
            });
        }
        inner.stats.local_fallbacks += leftover.len() as u64;
        drop(inner);
        for idx in leftover {
            execute_local(&shared, idx, options);
        }
        inner = shared.inner.lock().unwrap();
        if let Some(e) = inner.terminal.take() {
            return Err(e);
        }
    }

    let stats = inner.stats;
    let mut components: Vec<KVertexConnectedComponent> = Vec::new();
    for slot in inner.results.iter_mut() {
        components.extend(slot.take().expect("all items completed"));
    }
    components.sort();
    Ok(FleetOutcome { components, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::transport::{run_shard_worker, LoopbackTransport};
    use kvcc_graph::CsrGraph;

    fn items_n(n: u32) -> Vec<CsrWorkItem> {
        // Independent triangles-with-a-shared-vertex items, disjoint
        // original id ranges.
        (0..n)
            .map(|i| {
                let graph =
                    CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                        .unwrap();
                CsrWorkItem::new(graph, (0..5).map(|v| 100 * i + v).collect())
            })
            .collect()
    }

    fn items() -> Vec<CsrWorkItem> {
        items_n(2)
    }

    fn expected_from(items: &[CsrWorkItem]) -> Vec<KVertexConnectedComponent> {
        let mut all: Vec<KVertexConnectedComponent> = items
            .iter()
            .flat_map(|item| run_work_item(item, 2, &KvccOptions::default()).unwrap())
            .collect();
        all.sort();
        all
    }

    fn expected() -> Vec<KVertexConnectedComponent> {
        expected_from(&items())
    }

    #[test]
    fn healthy_fleet_completes_without_any_failure_handling() {
        let fleet = items();
        let (client, server) = LoopbackTransport::pair();
        let worker =
            std::thread::spawn(move || run_shard_worker(&server, &KvccOptions::default()).unwrap());
        let outcome = run_fleet(
            &fleet,
            2,
            &[&client],
            &KvccOptions::default(),
            &CoordinatorConfig::default(),
        )
        .unwrap();
        drop(client);
        assert_eq!(worker.join().unwrap(), 2);
        assert_eq!(outcome.components, expected());
        assert_eq!(
            outcome.stats,
            FleetStats {
                items_total: 2,
                ..FleetStats::default()
            },
            "a clean run must not record any failure handling"
        );
    }

    #[test]
    fn empty_fleet_degrades_to_local_execution() {
        let fleet = items();
        let outcome = run_fleet(
            &fleet,
            2,
            &[],
            &KvccOptions::default(),
            &CoordinatorConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.components, expected());
        assert_eq!(outcome.stats.local_fallbacks, 2);

        let strict = CoordinatorConfig {
            local_fallback: false,
            ..CoordinatorConfig::default()
        };
        assert!(run_fleet(&fleet, 2, &[], &KvccOptions::default(), &strict).is_err());
    }

    #[test]
    fn dead_worker_items_requeue_and_finish_locally() {
        let fleet = items();
        // The "worker" hangs up immediately: every send fails Closed.
        let (client, server) = LoopbackTransport::pair();
        drop(server);
        let outcome = run_fleet(
            &fleet,
            2,
            &[&client],
            &KvccOptions::default(),
            &CoordinatorConfig {
                item_timeout: Duration::from_millis(50),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.components, expected());
        assert_eq!(outcome.stats.worker_deaths, 1);
        assert_eq!(outcome.stats.local_fallbacks, 2);
    }

    /// A transport whose first send succeeds and every later one fails
    /// fatally; receives always time out. Forces the fatal-mid-batch path.
    struct DiesOnSecondSend {
        sends: std::sync::atomic::AtomicU32,
    }

    impl Transport for DiesOnSecondSend {
        fn send(&self, _frame: &[u8]) -> Result<(), TransportError> {
            if self
                .sends
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                == 0
            {
                Ok(())
            } else {
                Err(TransportError::Closed)
            }
        }

        fn recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
            Ok(None)
        }

        fn recv_timeout(&self, _timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
            Err(TransportError::TimedOut)
        }
    }

    #[test]
    fn exhausted_item_does_not_drop_the_batch_built_before_it() {
        // Planning dequeues a fresh item, then hits a retry-exhausted one.
        // The Step::Local return must put the already-dequeued fresh item
        // back on the queue, or its result slot never fills and the run
        // hangs.
        let fleet = items();
        let config = CoordinatorConfig::default();
        let now = Instant::now();
        let shared = Shared {
            items: &fleet,
            k: 2,
            inner: Mutex::new(Inner {
                queue: VecDeque::from([
                    Pending {
                        idx: 0,
                        attempts: 0,
                        not_before: now,
                    },
                    Pending {
                        idx: 1,
                        attempts: config.max_attempts,
                        not_before: now,
                    },
                ]),
                results: vec![None; fleet.len()],
                completed: 0,
                terminal: None,
                next_request_id: 1,
                stats: FleetStats::default(),
            }),
            ready: Condvar::new(),
        };
        let transport = DiesOnSecondSend {
            sends: std::sync::atomic::AtomicU32::new(0),
        };
        let options = KvccOptions::default();
        let mut worker = WorkerState {
            shared: &shared,
            transport: &transport,
            config: &config,
            options: &options,
            in_flight: VecDeque::new(),
            consecutive_failures: 0,
            quarantined: false,
            probe_round: 0,
            probe_at: now,
        };
        match worker.next_step() {
            Step::Local(pending) => assert_eq!(pending.idx, 1, "the exhausted item runs locally"),
            _ => panic!("expected the exhausted item to degrade to local execution"),
        }
        let inner = shared.inner.lock().unwrap();
        assert_eq!(
            inner.queue.iter().map(|p| p.idx).collect::<Vec<_>>(),
            vec![0],
            "the batch entry dequeued before the exhausted item must return to the queue"
        );
    }

    #[test]
    fn fatal_send_mid_batch_requeues_the_unsent_remainder() {
        // Three items go out as one batch; the transport dies on the second
        // send. The first (in flight) and second (being sent) are requeued
        // by die()/send_one — the third must be requeued too, not dropped.
        let fleet = items_n(3);
        let transport = DiesOnSecondSend {
            sends: std::sync::atomic::AtomicU32::new(0),
        };
        let outcome = run_fleet(
            &fleet,
            2,
            &[&transport],
            &KvccOptions::default(),
            &CoordinatorConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.components, expected_from(&fleet));
        assert_eq!(outcome.stats.worker_deaths, 1);
        assert_eq!(
            outcome.stats.requeues, 3,
            "in-flight item + failed send + unsent remainder must all requeue"
        );
        assert_eq!(outcome.stats.local_fallbacks, 3);
    }

    #[test]
    fn no_items_is_a_clean_empty_run() {
        let outcome = run_fleet(
            &[],
            3,
            &[],
            &KvccOptions::default(),
            &CoordinatorConfig::default(),
        )
        .unwrap();
        assert!(outcome.components.is_empty());
        assert_eq!(outcome.stats, FleetStats::default());
    }
}
