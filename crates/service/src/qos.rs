//! Query-serving QoS (protocol v6): one keyed table for cached answers and
//! executions in flight, and cost-model admission control with overload
//! shedding.
//!
//! Both parts sit inside [`crate::ServiceEngine`]'s single query funnel,
//! so every wire path — in-process calls, framed bytes, sockets — observes
//! identical semantics. The funnel looks the graph slot up once per query:
//! that slot is the snapshot the query runs on, and its mutation epoch goes
//! into the query's key, so every answer is cached under the epoch it was
//! computed at.
//!
//! * **The answer table** — one table keyed by `(graph, epoch,
//!   canonicalized query bytes)` ([`CacheKey`]) whose entry is either a
//!   published answer or an execution in flight. One lookup under one lock
//!   returns a hit, waits on the execution in flight (coalescing identical
//!   concurrent queries), or makes the caller the *leader*. When the
//!   leader publishes, its entry becomes a cached answer — or is removed if
//!   the answer is an error or heavier than the byte budget — and every
//!   waiter receives a clone of the leader's answer, errors included. A
//!   waiter keeps its own deadline: it waits no longer than that deadline
//!   (answering `DeadlineExceeded` past it), and one that receives its
//!   leader's `DeadlineExceeded` with more time left than it waited looks
//!   the key up again (the engine's front door decides this). A leader that
//!   dies without publishing wakes its waiters with an error instead of
//!   wedging them. Published answers are bounded by an entry
//!   count and a byte budget with exact LRU eviction; in-flight entries
//!   are never evicted and count toward neither budget. Answers are kept as
//!   decoded protocol values and re-encoded by the same deterministic codec
//!   as fresh executions, so a hit is byte-identical to a miss on every
//!   transport. Invalidation is free: an applied update batch advances the
//!   slot epoch embedded in the key, so answers from the previous epoch
//!   simply stop being addressable and age out of the LRU.
//! * **[`AdmissionController`]** — estimates a request's work with the
//!   PR 5 scheduling cost model (`split_cost = |E| + k·|V|`), converts it
//!   to predicted wall-clock via an online EWMA of observed
//!   nanoseconds-per-cost-unit, and sheds requests
//!   ([`ServiceError::Overloaded`](crate::ServiceError::Overloaded),
//!   retryable) that cannot meet their `deadline_hint_ms` — instead of
//!   burning a core to interrupt them late. Concurrency is capped by
//!   permits backed by a bounded wait queue with shed-on-full semantics.
//!
//! Everything here is off by default ([`QosConfig::default`] ==
//! [`QosConfig::disabled`]): the engine's pre-v6 behaviour — every request
//! executes, deadlines interrupt mid-run with code 5 — is unchanged until a
//! deployment opts in (e.g. [`QosConfig::serving`]).

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::protocol::{GraphId, QosStats, QueryRequest, QueryResponse};
use crate::wire::message::encode_query;

/// Locks a mutex, recovering the data from a poisoned lock: the QoS
/// bookkeeping must stay usable after a worker panicked mid-query (the
/// counters are monotone telemetry, never invariants a panic can break).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning of the engine's QoS layer (see the module docs). The default is
/// fully disabled; [`QosConfig::serving`] is a reasonable starting point for
/// a query-serving deployment.
#[derive(Clone, Debug, Default)]
pub struct QosConfig {
    /// Maximum cached answers; `0` disarms the answer table (no caching and
    /// no coalescing).
    pub cache_max_entries: usize,
    /// Byte budget of the cached answers (estimated response payload
    /// bytes); `0` disarms the answer table. A single response larger than
    /// the whole budget is served, and handed to every caller waiting on
    /// its execution, but never cached.
    pub cache_max_bytes: usize,
    /// Admission control; `None` admits everything (pre-v6 behaviour).
    pub admission: Option<AdmissionConfig>,
}

impl QosConfig {
    /// Everything off — the engine behaves exactly as before protocol v6.
    pub fn disabled() -> Self {
        QosConfig::default()
    }

    /// Cache and coalescing on with moderate budgets, admission off. Admission
    /// stays opt-in because it changes the deadline contract: an armed
    /// controller answers predicted-infeasible requests with `Overloaded`
    /// *before* execution, where the base engine would run them and
    /// interrupt mid-flight with `DeadlineExceeded`.
    pub fn serving() -> Self {
        QosConfig {
            cache_max_entries: 4096,
            cache_max_bytes: 64 << 20,
            admission: None,
        }
    }

    /// Whether the answer table is armed: both budgets non-zero. Caching
    /// and coalescing are armed together.
    pub fn cache_enabled(&self) -> bool {
        self.cache_max_entries > 0 && self.cache_max_bytes > 0
    }
}

/// Tuning of the [`AdmissionController`].
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Requests allowed to execute concurrently through the controller.
    pub max_concurrent: usize,
    /// Requests allowed to wait for a permit beyond `max_concurrent`;
    /// arrivals past this bound are shed immediately.
    pub max_queued: usize,
    /// EWMA smoothing factor in `(0, 1]` for the observed
    /// nanoseconds-per-cost-unit (higher adapts faster).
    pub ewma_alpha: f64,
    /// Prior nanoseconds-per-cost-unit before the first observation. `0.0`
    /// starts optimistic: nothing is predicted infeasible until real
    /// executions have been measured.
    pub initial_ns_per_cost: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_queued: 64,
            ewma_alpha: 0.2,
            initial_ns_per_cost: 0.0,
        }
    }
}

/// The answer table's key: a graph handle, the mutation epoch of the slot
/// the query runs on, and the query's canonical wire encoding.
///
/// Keying on the wire bytes makes two requests collide exactly when they
/// decode to the same query; symmetric vertex pairs
/// ([`QueryRequest::MaxConnectivity`], [`QueryRequest::LocalConnectivity`])
/// are canonicalized to `u <= v` first, so `κ(u, v)` and `κ(v, u)` share
/// one entry. The epoch is what makes invalidation free — an update batch
/// bumps it, and every pre-update entry becomes unaddressable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Target graph handle.
    pub graph: GraphId,
    /// Mutation epoch of the slot the lookup resolved.
    pub epoch: u64,
    /// Canonical wire encoding of the query.
    pub query: Vec<u8>,
}

impl CacheKey {
    /// Builds the key for a query against a slot at `epoch`.
    pub fn new(query: &QueryRequest, epoch: u64) -> Self {
        let canonical = canonicalize(query);
        let mut bytes = Vec::with_capacity(16);
        encode_query(canonical.as_ref().unwrap_or(query), &mut bytes);
        CacheKey {
            graph: query.graph(),
            epoch,
            query: bytes,
        }
    }
}

/// The canonical form of a query whose answer is symmetric in a vertex
/// pair, or `None` when the query is already canonical.
fn canonicalize(query: &QueryRequest) -> Option<QueryRequest> {
    match *query {
        QueryRequest::MaxConnectivity { graph, u, v } if u > v => {
            Some(QueryRequest::MaxConnectivity { graph, u: v, v: u })
        }
        QueryRequest::LocalConnectivity { graph, u, v, limit } if u > v => {
            Some(QueryRequest::LocalConnectivity {
                graph,
                u: v,
                v: u,
                limit,
            })
        }
        _ => None,
    }
}

/// Whether a query's successful answer is a deterministic function of
/// `(graph, epoch, query)` and may be cached / coalesced.
/// [`QueryRequest::GraphStats`] is excluded: its scheduling and QoS
/// counters move with every request.
pub fn cacheable(query: &QueryRequest) -> bool {
    !matches!(query, QueryRequest::GraphStats { .. })
}

/// Estimated payload bytes of a response for the cache's byte budget: the
/// dominant id lists at wire width plus small per-value overheads. An
/// estimate, not an exact encoding — the budget bounds memory, it does not
/// meter it.
pub fn response_weight(response: &QueryResponse) -> usize {
    match response {
        QueryResponse::Components(components) => {
            16 + components.iter().map(|c| 16 + 4 * c.len()).sum::<usize>()
        }
        QueryResponse::Connectivity(_) => 8,
        QueryResponse::Cut(cut) => match cut {
            None => 8,
            Some(vertices) => 16 + 4 * vertices.len(),
        },
        QueryResponse::Page {
            entries,
            next_cursor,
        } => {
            16 + entries
                .iter()
                .map(|e| 24 + 4 * e.component.len())
                .sum::<usize>()
                + next_cursor.as_ref().map_or(0, |c| c.len())
        }
        // Never cached; weighed only so the function is total.
        QueryResponse::Stats { .. }
        | QueryResponse::Updated { .. }
        | QueryResponse::Error(_)
        | QueryResponse::Loaded { .. }
        | QueryResponse::HandshakeOk => 64,
    }
}

/// Why a coalesced waiter received no answer: its leader was dropped (it
/// panicked or was torn down) without publishing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Poisoned;

/// One entry of an [`AnswerTable`].
enum Entry<V> {
    /// An answer an earlier execution published: it counts toward both
    /// budgets and sits in the recency order under `stamp`.
    Published { value: V, weight: usize, stamp: u64 },
    /// An execution in flight: never evicted, and outside both budgets.
    InFlight(Arc<Flight<V>>),
}

/// Where the callers waiting on an execution in flight receive its answer.
struct Flight<V> {
    answer: Mutex<Option<Result<V, Poisoned>>>,
    settled: Condvar,
}

impl<V: Clone> Flight<V> {
    fn settle(&self, answer: Result<V, Poisoned>) {
        *lock_recover(&self.answer) = Some(answer);
        self.settled.notify_all();
    }

    /// The flight's answer, waited for until `deadline`; `None` when the
    /// deadline passes first.
    fn wait(&self, deadline: Option<Instant>) -> Option<Result<V, Poisoned>> {
        let unsettled = |answer: &mut Option<Result<V, Poisoned>>| answer.is_none();
        let answer = lock_recover(&self.answer);
        let answer = match deadline {
            None => self
                .settled
                .wait_while(answer, unsettled)
                .unwrap_or_else(PoisonError::into_inner),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let waited = self.settled.wait_timeout_while(answer, left, unsettled);
                waited.unwrap_or_else(PoisonError::into_inner).0
            }
        };
        answer.clone()
    }
}

struct TableInner<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Recency order of the published entries: stamp → key, oldest first.
    /// Stamps are unique (the clock only moves forward), so this is an
    /// exact LRU list with `O(log n)` touch and evict.
    lru: BTreeMap<u64, K>,
    clock: u64,
    /// Summed weight of the published entries.
    bytes: usize,
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// The engine's one table of answers: each key holds either an answer an
/// earlier execution published or an execution still in flight.
///
/// One [`AnswerTable::lookup`] takes one lock and counts exactly one of
/// three outcomes: a published answer is a *hit*; an execution in flight is
/// waited on (*coalesced*), until it settles or the waiter's own deadline
/// passes; a missing key makes the caller the *leader* of a new execution
/// (a *miss*), so misses equal real executions. Published
/// answers are bounded by an entry count *and* a byte budget with exact
/// LRU eviction; in-flight entries are never evicted and count toward
/// neither budget.
pub(crate) struct AnswerTable<K, V> {
    max_entries: usize,
    max_bytes: usize,
    inner: Mutex<TableInner<K, V>>,
}

/// What one [`AnswerTable::lookup`] returns.
pub(crate) enum Lookup<'a, K: Hash + Eq + Clone, V: Clone> {
    /// A published answer, or (a clone of) the answer of the execution in
    /// flight this caller waited on — [`Poisoned`] if its leader died
    /// before publishing.
    Answer(Result<V, Poisoned>),
    /// The caller's own deadline passed while it waited on the execution
    /// in flight, which goes on for its leader and other waiters.
    Expired,
    /// No entry: this caller executes, then [`Lead::publish`]es.
    Lead(Lead<'a, K, V>),
}

/// The leader's obligation token: publish the answer, or on drop remove
/// the entry and wake the waiters with [`Poisoned`], so a leader that dies
/// mid-execution never wedges them.
pub(crate) struct Lead<'a, K: Hash + Eq + Clone, V: Clone> {
    table: &'a AnswerTable<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    published: bool,
}

impl<K: Hash + Eq + Clone, V: Clone> Lead<'_, K, V> {
    /// Publishes the execution's answer under one lock: the entry becomes a
    /// cached answer of `weight`, or is removed when `weight` is `None` (an
    /// answer never cached, such as an error) or heavier than the whole
    /// byte budget. Then every waiter is woken with a clone of `value`.
    pub(crate) fn publish(mut self, value: &V, weight: Option<usize>) {
        self.published = true;
        let keep = weight.filter(|&weight| weight <= self.table.max_bytes);
        self.table
            .retire(&self.key, keep.map(|weight| (value, weight)));
        self.flight.settle(Ok(value.clone()));
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        // Dropped without publishing: this is what runs during a panic
        // unwind, and it keeps the waiters from wedging.
        if !self.published {
            self.table.retire(&self.key, None);
            self.flight.settle(Err(Poisoned));
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> AnswerTable<K, V> {
    /// An empty table with the given budgets for published answers.
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        AnswerTable {
            max_entries,
            max_bytes,
            inner: Mutex::new(TableInner {
                entries: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                coalesced: 0,
            }),
        }
    }

    /// Looks `key` up: returns a published answer (refreshing its
    /// recency), waits for the execution in flight until the caller's own
    /// `deadline` and returns its answer, or makes this caller the leader.
    pub(crate) fn lookup(&self, key: &K, deadline: Option<Instant>) -> Lookup<'_, K, V> {
        let flight = {
            let mut guard = lock_recover(&self.inner);
            let inner = &mut *guard;
            match inner.entries.get_mut(key) {
                Some(Entry::Published { value, stamp, .. }) => {
                    inner.lru.remove(stamp);
                    inner.clock += 1;
                    *stamp = inner.clock;
                    inner.lru.insert(*stamp, key.clone());
                    inner.hits += 1;
                    return Lookup::Answer(Ok(value.clone()));
                }
                Some(Entry::InFlight(flight)) => {
                    inner.coalesced += 1;
                    Arc::clone(flight)
                }
                None => {
                    let flight = Arc::new(Flight {
                        answer: Mutex::new(None),
                        settled: Condvar::new(),
                    });
                    let entry = Entry::InFlight(Arc::clone(&flight));
                    inner.entries.insert(key.clone(), entry);
                    inner.misses += 1;
                    return Lookup::Lead(Lead {
                        table: self,
                        key: key.clone(),
                        flight,
                        published: false,
                    });
                }
            }
        };
        flight
            .wait(deadline)
            .map_or(Lookup::Expired, Lookup::Answer)
    }

    /// Removes the in-flight entry of `key`, and publishes `keep` in its
    /// place, evicting least-recently-used published answers until both
    /// budgets hold.
    fn retire(&self, key: &K, keep: Option<(&V, usize)>) {
        let mut guard = lock_recover(&self.inner);
        let inner = &mut *guard;
        inner.entries.remove(key);
        let Some((value, weight)) = keep else {
            return;
        };
        inner.clock += 1;
        let stamp = inner.clock;
        inner.bytes += weight;
        inner.lru.insert(stamp, key.clone());
        let entry = Entry::Published {
            value: value.clone(),
            weight,
            stamp,
        };
        inner.entries.insert(key.clone(), entry);
        while inner.lru.len() > self.max_entries || inner.bytes > self.max_bytes {
            let Some((_, victim)) = inner.lru.pop_first() else {
                break;
            };
            if let Some(Entry::Published { weight, .. }) = inner.entries.remove(&victim) {
                inner.bytes -= weight;
            }
        }
    }

    /// Hits, misses and coalesced waiters so far.
    pub(crate) fn counts(&self) -> (u64, u64, u64) {
        let inner = lock_recover(&self.inner);
        (inner.hits, inner.misses, inner.coalesced)
    }
}

/// The admission verdict when a request is not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shed {
    /// Predicted wall-clock exceeds the request's remaining deadline under
    /// the current cost model.
    DeadlineInfeasible,
    /// The bounded admission queue is full (or the deadline expired while
    /// queued).
    QueueFull,
}

struct AdmissionState {
    active: usize,
    queued: usize,
}

/// Cost-model admission control: permits + a bounded wait queue + an online
/// EWMA translating [`kvcc::split_cost`] units into predicted nanoseconds.
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<AdmissionState>,
    cv: Condvar,
    /// `f64` bits of the EWMA'd nanoseconds-per-cost-unit; `0.0` = untrained.
    ns_per_cost_bits: AtomicU64,
    shed: AtomicU64,
}

/// A granted execution slot; dropping it releases the permit and wakes one
/// queued waiter.
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = lock_recover(&self.controller.state);
        state.active -= 1;
        drop(state);
        self.controller.cv.notify_one();
    }
}

impl AdmissionController {
    /// A controller with the given tuning.
    pub fn new(config: AdmissionConfig) -> Self {
        let prior = config.initial_ns_per_cost.max(0.0);
        AdmissionController {
            config,
            state: Mutex::new(AdmissionState {
                active: 0,
                queued: 0,
            }),
            cv: Condvar::new(),
            ns_per_cost_bits: AtomicU64::new(prior.to_bits()),
            shed: AtomicU64::new(0),
        }
    }

    /// The current EWMA'd nanoseconds-per-cost-unit (`0.0` untrained).
    pub fn ns_per_cost(&self) -> f64 {
        f64::from_bits(self.ns_per_cost_bits.load(Ordering::Relaxed))
    }

    /// Predicted wall-clock of a request costing `cost` units.
    pub fn predicted(&self, cost: u64) -> Duration {
        Duration::from_nanos((cost as f64 * self.ns_per_cost()) as u64)
    }

    /// Requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests currently parked in the wait queue.
    pub fn queue_depth(&self) -> u64 {
        lock_recover(&self.state).queued as u64
    }

    fn shed_with(&self, reason: Shed) -> Result<AdmissionPermit<'_>, Shed> {
        self.shed.fetch_add(1, Ordering::Relaxed);
        Err(reason)
    }

    /// Requests a permit for a `cost`-unit execution due by `deadline`.
    ///
    /// Sheds immediately when the cost model predicts the work cannot
    /// finish before the deadline, or when the wait queue is full; blocks
    /// (up to the deadline) while the queue has room but all permits are
    /// taken. `Ok` grants a permit released on drop.
    pub fn admit(&self, cost: u64, deadline: Option<Instant>) -> Result<AdmissionPermit<'_>, Shed> {
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if self.predicted(cost) > remaining {
                return self.shed_with(Shed::DeadlineInfeasible);
            }
        }
        let mut state = lock_recover(&self.state);
        if state.active < self.config.max_concurrent {
            state.active += 1;
            return Ok(AdmissionPermit { controller: self });
        }
        if state.queued >= self.config.max_queued {
            drop(state);
            return self.shed_with(Shed::QueueFull);
        }
        state.queued += 1;
        loop {
            if state.active < self.config.max_concurrent {
                state.queued -= 1;
                state.active += 1;
                return Ok(AdmissionPermit { controller: self });
            }
            match deadline {
                None => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        // The deadline lapsed while queued: the request can
                        // no longer be served in time, so it is shed (the
                        // retryable verdict — the queue, not the request,
                        // was the problem).
                        state.queued -= 1;
                        drop(state);
                        return self.shed_with(Shed::QueueFull);
                    }
                    state = self
                        .cv
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Feeds one observed execution back into the cost model.
    pub fn observe(&self, cost: u64, elapsed: Duration) {
        let sample = elapsed.as_nanos() as f64 / cost.max(1) as f64;
        let alpha = self.config.ewma_alpha.clamp(f64::EPSILON, 1.0);
        loop {
            let current_bits = self.ns_per_cost_bits.load(Ordering::Relaxed);
            let current = f64::from_bits(current_bits);
            let next = if current == 0.0 {
                sample
            } else {
                alpha * sample + (1.0 - alpha) * current
            };
            if self
                .ns_per_cost_bits
                .compare_exchange(
                    current_bits,
                    next.to_bits(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
        }
    }
}

/// The engine's assembled QoS layer: the answer table (`None` unless the
/// cache is armed) and the admission controller (`None` unless armed).
pub(crate) struct QosLayer {
    pub(crate) answers: Option<AnswerTable<CacheKey, QueryResponse>>,
    pub(crate) admission: Option<AdmissionController>,
}

impl QosLayer {
    pub(crate) fn new(config: &QosConfig) -> Self {
        QosLayer {
            answers: config
                .cache_enabled()
                .then(|| AnswerTable::new(config.cache_max_entries, config.cache_max_bytes)),
            admission: config.admission.clone().map(AdmissionController::new),
        }
    }

    /// The engine-wide counters reported in `Stats` responses.
    pub(crate) fn snapshot(&self) -> QosStats {
        let (cache_hits, cache_misses, coalesced) =
            self.answers.as_ref().map_or((0, 0, 0), AnswerTable::counts);
        QosStats {
            cache_hits,
            cache_misses,
            coalesced,
            shed: self.admission.as_ref().map_or(0, |a| a.shed_count()),
            queue_depth: self.admission.as_ref().map_or(0, |a| a.queue_depth()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Leads `key`, which must be absent, and publishes `value` at `weight`.
    fn put<V: Clone>(table: &AnswerTable<u32, V>, key: u32, value: V, weight: usize) {
        let Lookup::Lead(lead) = table.lookup(&key, None) else {
            panic!("key {key} must be absent");
        };
        lead.publish(&value, Some(weight));
    }

    /// The published answer of `key`, or `None` when the lookup led (the
    /// dropped lead removes its entry again).
    fn get<V: Clone>(table: &AnswerTable<u32, V>, key: u32) -> Option<V> {
        match table.lookup(&key, None) {
            Lookup::Answer(answer) => Some(answer.expect("a published answer")),
            Lookup::Lead(_) => None,
            Lookup::Expired => panic!("a caller without a deadline never expires"),
        }
    }

    /// What a caller without a deadline receives from the execution of
    /// `key` in flight.
    fn wait_on(table: &AnswerTable<u32, u32>, key: u32) -> Result<u32, Poisoned> {
        match table.lookup(&key, None) {
            Lookup::Answer(answer) => answer,
            Lookup::Lead(_) => panic!("key {key} must be in flight"),
            Lookup::Expired => panic!("a caller without a deadline never expires"),
        }
    }

    /// All entries, the published ones, and the bytes these weigh.
    fn sizes<V>(table: &AnswerTable<u32, V>) -> (usize, usize, usize) {
        let inner = lock_recover(&table.inner);
        (inner.entries.len(), inner.lru.len(), inner.bytes)
    }

    /// Leads `key`, waits (by progress, not by time) until `waiters`
    /// threads wait on its execution, publishes `value` at `weight`, and
    /// returns what each waiter received.
    fn publish_to_waiters(
        table: &AnswerTable<u32, u32>,
        key: u32,
        waiters: usize,
        value: u32,
        weight: Option<usize>,
    ) -> Vec<Result<u32, Poisoned>> {
        let Lookup::Lead(lead) = table.lookup(&key, None) else {
            panic!("first caller must lead");
        };
        let coalesced = table.counts().2;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..waiters)
                .map(|_| scope.spawn(|| wait_on(table, key)))
                .collect();
            // A waiter that stopped early panicked; joining it reports why.
            while table.counts().2 < coalesced + waiters as u64
                && !handles.iter().any(|h| h.is_finished())
            {
                std::thread::yield_now();
            }
            lead.publish(&value, weight);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn cache_counts_hits_evicts_lru_and_respects_both_budgets() {
        let table: AnswerTable<u32, String> = AnswerTable::new(2, 100);
        put(&table, 1, "one".into(), 10);
        put(&table, 2, "two".into(), 10);
        assert_eq!(get(&table, 1), Some("one".into())); // 1 is now most recent
        put(&table, 3, "three".into(), 10); // entry budget evicts LRU = 2
        assert_eq!(get(&table, 2), None);
        assert_eq!(get(&table, 1), Some("one".into()));
        assert_eq!(get(&table, 3), Some("three".into()));
        assert_eq!(sizes(&table), (2, 2, 20));
        // Every lookup counts one outcome: three hits, and a miss for each
        // of the four leads (three puts and the lookup of evicted 2).
        assert_eq!(table.counts(), (3, 4, 0));

        // Byte budget: an 95-weight entry forces everything else out.
        put(&table, 4, "big".into(), 95);
        assert_eq!(sizes(&table), (1, 1, 95));
        assert_eq!(get(&table, 4), Some("big".into()));
        // Heavier than the whole budget: served but never cached, and it
        // evicts nothing.
        put(&table, 5, "huge".into(), 101);
        assert_eq!(get(&table, 5), None);
        assert_eq!(sizes(&table), (1, 1, 95));
        // A key evicted and published again is weighed once, at its new
        // weight: 6 pushes 4 out, and 4 comes back at 50.
        put(&table, 6, "six".into(), 50);
        put(&table, 4, "big2".into(), 50);
        assert_eq!(sizes(&table), (2, 2, 100));
        assert_eq!(get(&table, 4), Some("big2".into()));
    }

    #[test]
    fn cache_with_zero_budget_is_inert() {
        let none: AnswerTable<u32, u32> = AnswerTable::new(0, 100);
        put(&none, 1, 1, 1);
        assert_eq!(get(&none, 1), None);
        assert_eq!(sizes(&none), (0, 0, 0));
    }

    #[test]
    fn single_flight_coalesces_waiters_onto_the_leader() {
        let table: AnswerTable<u32, u32> = AnswerTable::new(8, 100);
        let waiters = 4;
        // Published uncached, the answer still reaches every waiter.
        let answers = publish_to_waiters(&table, 7, waiters, 42, None);
        assert_eq!(answers, vec![Ok(42); waiters]);
        assert_eq!(table.counts(), (0, 1, waiters as u64));
        // The entry went with publication: the next caller leads anew.
        assert!(matches!(table.lookup(&7, None), Lookup::Lead(_)));
    }

    #[test]
    fn a_dead_leader_poisons_waiters_instead_of_wedging_them() {
        let table: AnswerTable<u32, u32> = AnswerTable::new(8, 100);
        let Lookup::Lead(lead) = table.lookup(&1, None) else {
            panic!("first caller must lead");
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| wait_on(&table, 1));
            while table.counts().2 < 1 && !waiter.is_finished() {
                std::thread::yield_now();
            }
            drop(lead); // died without publishing
            assert_eq!(waiter.join().unwrap(), Err(Poisoned));
        });
        // Poisoning removes the entry too: the next caller leads anew.
        assert_eq!(sizes(&table), (0, 0, 0));
        assert!(matches!(table.lookup(&1, None), Lookup::Lead(_)));
    }

    #[test]
    fn a_lookup_after_the_leader_publishes_is_a_hit_and_leads_nothing() {
        let table: AnswerTable<u32, u32> = AnswerTable::new(8, 100);
        let answers = publish_to_waiters(&table, 3, 2, 30, Some(8));
        assert_eq!(answers, vec![Ok(30); 2]);
        assert_eq!(sizes(&table), (1, 1, 8));
        assert_eq!(get(&table, 3), Some(30));
        assert_eq!(table.counts(), (1, 1, 2), "one execution, then a hit");
    }

    #[test]
    fn an_error_or_overweight_answer_wakes_its_waiters_and_leaves_no_entry() {
        let table: AnswerTable<u32, u32> = AnswerTable::new(8, 100);
        // `None` is how the engine publishes an error; 101 exceeds the
        // whole byte budget.
        for (key, weight) in [(1, None), (2, Some(101))] {
            let answers = publish_to_waiters(&table, key, 3, 5, weight);
            assert_eq!(answers, vec![Ok(5); 3], "{weight:?}");
            assert_eq!(sizes(&table), (0, 0, 0), "{weight:?}");
        }
        assert_eq!(table.counts(), (0, 2, 6));
        assert!(matches!(table.lookup(&2, None), Lookup::Lead(_)));
    }

    #[test]
    fn a_waiter_leaves_at_its_own_deadline_and_the_flight_goes_on() {
        let table: AnswerTable<u32, u32> = AnswerTable::new(8, 100);
        let Lookup::Lead(lead) = table.lookup(&1, None) else {
            panic!("first caller must lead");
        };
        // A waiter whose deadline has passed leaves at once, counted as
        // coalesced, and the entry stays in flight for its leader.
        let past = Instant::now();
        assert!(matches!(table.lookup(&1, Some(past)), Lookup::Expired));
        assert_eq!(table.counts(), (0, 1, 1));
        assert_eq!(sizes(&table), (1, 0, 0));
        // One with time left receives the answer.
        let later = Instant::now() + Duration::from_secs(60);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match table.lookup(&1, Some(later)) {
                Lookup::Answer(answer) => answer,
                Lookup::Lead(_) => panic!("key 1 must be in flight"),
                Lookup::Expired => panic!("the deadline is a minute away"),
            });
            while table.counts().2 < 2 && !waiter.is_finished() {
                std::thread::yield_now();
            }
            lead.publish(&10, Some(8));
            assert_eq!(waiter.join().unwrap(), Ok(10));
        });
        assert_eq!(get(&table, 1), Some(10));
        assert_eq!(table.counts(), (1, 1, 2));
    }

    #[test]
    fn lru_pressure_never_evicts_an_in_flight_entry() {
        let table: AnswerTable<u32, u32> = AnswerTable::new(1, 10);
        let Lookup::Lead(lead) = table.lookup(&1, None) else {
            panic!("first caller must lead");
        };
        // Each publication fills a budget, so each evicts the one before;
        // the entry in flight takes no part in either budget.
        put(&table, 2, 20, 5);
        put(&table, 3, 30, 10);
        put(&table, 4, 40, 10);
        assert_eq!(sizes(&table), (2, 1, 10));
        assert_eq!(get(&table, 4), Some(40));
        std::thread::scope(|scope| {
            // A lead here would mean the entry in flight was evicted.
            let waiter = scope.spawn(|| wait_on(&table, 1));
            while table.counts().2 < 1 && !waiter.is_finished() {
                std::thread::yield_now();
            }
            lead.publish(&10, Some(10));
            assert_eq!(waiter.join().unwrap(), Ok(10));
        });
        // Published, it is the most recent answer and evicts 4.
        assert_eq!(sizes(&table), (1, 1, 10));
        assert_eq!(get(&table, 1), Some(10));
    }

    #[test]
    fn admission_sheds_on_full_queue_and_releases_permits_on_drop() {
        let controller = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 0,
            ..AdmissionConfig::default()
        });
        let permit = controller.admit(1, None).expect("first caller admitted");
        assert_eq!(controller.admit(1, None).err(), Some(Shed::QueueFull));
        assert_eq!(controller.shed_count(), 1);
        drop(permit);
        let again = controller.admit(1, None).expect("permit was released");
        drop(again);
    }

    #[test]
    fn admission_queues_up_to_the_bound_then_sheds() {
        let controller = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            max_queued: 1,
            ..AdmissionConfig::default()
        });
        let permit = controller.admit(1, None).expect("admitted");
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let controller = &controller;
            let barrier = &barrier;
            let queued = scope.spawn(move || {
                barrier.wait();
                let permit = controller.admit(1, None).expect("queued then admitted");
                drop(permit);
            });
            barrier.wait();
            // Progress-wait until the spawned caller is parked in the queue,
            // then observe shed-on-full and release the permit.
            while controller.queue_depth() < 1 {
                std::thread::yield_now();
            }
            assert_eq!(controller.admit(1, None).err(), Some(Shed::QueueFull));
            drop(permit);
            queued.join().unwrap();
        });
        assert_eq!(controller.queue_depth(), 0);
        assert_eq!(controller.shed_count(), 1);
    }

    #[test]
    fn admission_sheds_deadline_infeasible_work_without_executing() {
        let controller = AdmissionController::new(AdmissionConfig {
            initial_ns_per_cost: 1e6, // a trained-slow model: 1ms per unit
            ..AdmissionConfig::default()
        });
        let deadline = Instant::now() + Duration::from_millis(10);
        // 1e6 units × 1e6 ns/unit = ~17 minutes predicted ≫ 10ms remaining.
        assert_eq!(
            controller.admit(1_000_000, Some(deadline)).err(),
            Some(Shed::DeadlineInfeasible)
        );
        assert_eq!(controller.shed_count(), 1);
        // The same cost with no deadline sails through.
        assert!(controller.admit(1_000_000, None).is_ok());
    }

    #[test]
    fn ewma_trains_from_observations() {
        let controller = AdmissionController::new(AdmissionConfig {
            ewma_alpha: 0.5,
            ..AdmissionConfig::default()
        });
        assert_eq!(controller.ns_per_cost(), 0.0);
        // First observation seeds the model outright.
        controller.observe(100, Duration::from_micros(100));
        assert_eq!(controller.ns_per_cost(), 1000.0);
        // Later observations blend by alpha.
        controller.observe(100, Duration::from_micros(300));
        assert_eq!(controller.ns_per_cost(), 2000.0);
        assert_eq!(controller.predicted(1000), Duration::from_micros(2000));
    }

    #[test]
    fn cache_keys_canonicalize_symmetric_pairs_and_embed_the_epoch() {
        let g = GraphId(3);
        let a = CacheKey::new(
            &QueryRequest::MaxConnectivity {
                graph: g,
                u: 5,
                v: 2,
            },
            1,
        );
        let b = CacheKey::new(
            &QueryRequest::MaxConnectivity {
                graph: g,
                u: 2,
                v: 5,
            },
            1,
        );
        assert_eq!(a, b);
        let c = CacheKey::new(
            &QueryRequest::MaxConnectivity {
                graph: g,
                u: 2,
                v: 5,
            },
            2,
        );
        assert_ne!(a, c, "an epoch bump must change the key");
        let d = CacheKey::new(
            &QueryRequest::LocalConnectivity {
                graph: g,
                u: 9,
                v: 1,
                limit: 4,
            },
            0,
        );
        let e = CacheKey::new(
            &QueryRequest::LocalConnectivity {
                graph: g,
                u: 1,
                v: 9,
                limit: 4,
            },
            0,
        );
        assert_eq!(d, e);
        // Asymmetric queries are untouched.
        let f1 = CacheKey::new(
            &QueryRequest::KvccsContaining {
                graph: g,
                seed: 4,
                k: 3,
            },
            0,
        );
        let f2 = CacheKey::new(
            &QueryRequest::KvccsContaining {
                graph: g,
                seed: 3,
                k: 4,
            },
            0,
        );
        assert_ne!(f1, f2);
    }

    #[test]
    fn graph_stats_is_never_cacheable() {
        assert!(!cacheable(&QueryRequest::GraphStats { graph: GraphId(0) }));
        assert!(cacheable(&QueryRequest::EnumerateKvccs {
            graph: GraphId(0),
            k: 2
        }));
    }
}
