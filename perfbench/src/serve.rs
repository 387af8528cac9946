//! `serve` and `churn`: the §6.4 query use over TCP. A `ServiceEngine` with
//! the QoS serving preset answers a closed loop of index-served reads;
//! `churn` adds a connection sending `ApplyUpdates` batches. Every response
//! is checked, after the timed phase, against an in-process engine with QoS
//! off at the same mutation epoch.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use kvcc::{ConnectivityIndex, KVertexConnectedComponent, KvccOptions};
use kvcc_graph::kcore::degeneracy;
use kvcc_graph::{
    write_kcsr_file, CsrGraph, DeltaGraph, EdgeUpdate, GraphView, MappedCsr,
    StreamingEdgeListLoader,
};
use kvcc_service::{
    call_with, CallOptions, EngineConfig, GraphId, LoadFormat, PageCursor, QosConfig, QueryRequest,
    QueryResponse, Request, RequestBody, Response, ResponseBody, ServiceEngine, SocketOptions,
    TcpTransport, Transport, TransportError,
};

use crate::affinity;
use crate::inputs::{self, ReadMix, ReadOp};
use crate::layers;
use crate::measure::{
    components_checksum, fnv1a, micros, peak_rss_mib, secs, Outcome, Samples, Tracer,
};
use crate::redrive::{Redriver, REPLAY};
use crate::{RunConfig, TempFile};

/// The one graph every engine of a run holds.
const GRAPH: GraphId = GraphId(0);
/// The cold-start query whose answer needs the full index.
const FIRST_QUERY: QueryRequest = QueryRequest::VertexConnectivityNumber { graph: GRAPH, v: 0 };
/// Update batches generated for `churn`; a run sends as many as its seconds
/// allow (a full rebuild takes seconds, so a handful).
const UPDATE_BATCHES: usize = 24;
/// Frames per connection the traced server keeps for the wire replays, and
/// reads replayed against the in-process index.
const RECORDED_FRAMES: usize = 20_000;

/// One attempt, no retries: a slow success must not hide a failure.
fn read_options() -> CallOptions {
    CallOptions {
        timeout: Some(Duration::from_secs(10)),
        max_attempts: 1,
        ..CallOptions::default()
    }
}

fn update_options() -> CallOptions {
    CallOptions {
        timeout: Some(Duration::from_secs(120)),
        ..read_options()
    }
}

fn serving_config() -> EngineConfig {
    EngineConfig {
        qos: QosConfig::serving(),
        ..EngineConfig::default()
    }
}

/// Canonical bytes of a request with its id cleared: equal requests share
/// one reference answer.
fn request_key(body: RequestBody) -> Vec<u8> {
    Request {
        request_id: 0,
        deadline_hint_ms: None,
        body,
    }
    .to_bytes()
}

fn response_hash(body: ResponseBody) -> u64 {
    fnv1a(
        &Response {
            request_id: 0,
            body,
        }
        .to_bytes(),
    )
}

/// One read as the client saw it: the request, the hash of the answer (when
/// the transport delivered one), the epochs the server may have answered it
/// at, when it was sent (since its log's origin) and the round trip.
struct Observation {
    key: Vec<u8>,
    hash: u64,
    delivered: bool,
    error: bool,
    lo: u64,
    hi: u64,
    sent_us: f64,
    rtt_us: f64,
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if rest.len() < n {
        return None;
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Some(head)
}

fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(rest, 8)?.try_into().ok()?))
}

impl Observation {
    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(&(self.key.len() as u32).to_le_bytes())?;
        out.write_all(&self.key)?;
        out.write_all(&self.hash.to_le_bytes())?;
        out.write_all(&[self.delivered as u8 | (self.error as u8) << 1])?;
        out.write_all(&self.lo.to_le_bytes())?;
        out.write_all(&self.hi.to_le_bytes())?;
        out.write_all(&self.sent_us.to_le_bytes())?;
        out.write_all(&self.rtt_us.to_le_bytes())
    }

    fn read_all(mut rest: &[u8]) -> Option<Vec<Observation>> {
        let mut all = Vec::new();
        while !rest.is_empty() {
            let len = u32::from_le_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
            let key = take(&mut rest, len)?.to_vec();
            let hash = take_u64(&mut rest)?;
            let flags = take(&mut rest, 1)?[0];
            all.push(Observation {
                key,
                hash,
                delivered: flags & 1 != 0,
                error: flags & 2 != 0,
                lo: take_u64(&mut rest)?,
                hi: take_u64(&mut rest)?,
                sent_us: f64::from_bits(take_u64(&mut rest)?),
                rtt_us: f64::from_bits(take_u64(&mut rest)?),
            });
        }
        Some(all)
    }
}

/// Equal stretches of the timed phase the read metrics are taken over.
const WINDOWS: usize = 20;

/// The read metrics of a run: its timed phase (`span_us` long) is cut into
/// [`WINDOWS`] equal stretches, each stretch gets the median and the
/// supported tail of the round trips sent in it and its completed reads per
/// second, and the run reports the lower quartile of the stretches' median
/// and tail (ms) and the upper quartile of their rates. A shared 2-vCPU
/// virtual machine ran a third or more slower for seconds at a time; a
/// median over the whole run then fell on whichever side of the two speeds
/// held more than half of the run, and moved by a third between runs.
/// Stretches without a read are skipped.
fn windowed(observations: &[Observation], span_us: f64) -> (f64, f64, f64) {
    let width_us = span_us / WINDOWS as f64;
    let mut stretches = vec![(Samples::new(), 0usize); WINDOWS];
    for o in observations {
        let at = ((o.sent_us / width_us) as usize).min(WINDOWS - 1);
        stretches[at].0.push(o.rtt_us / 1e3);
        stretches[at].1 += !o.error as usize;
    }
    let (mut p50, mut tail, mut rate) = (Samples::new(), Samples::new(), Samples::new());
    for (mut rtts, completed) in stretches {
        if rtts.values().is_empty() {
            continue;
        }
        p50.push(rtts.median());
        tail.push(rtts.tail());
        rate.push(completed as f64 / (width_us / 1e6));
    }
    (
        p50.percentile(25.0),
        tail.percentile(25.0),
        rate.percentile(75.0),
    )
}

/// Update batches sent and acknowledged so far; a read sent after `acked`
/// was `a` and answered before `sent` exceeded `b` saw an epoch in `a..=b`.
#[derive(Default)]
struct Epochs {
    sent: AtomicU64,
    acked: AtomicU64,
}

/// A read connection's log. During the timed phase observations are
/// spooled to a scratch file, so the harness's own memory does not grow
/// with throughput and show up in `peak_rss_mb`; [`ReaderLog::load`] reads
/// them back afterwards.
struct ReaderLog {
    spool: TempFile,
    writer: Option<BufWriter<File>>,
    spool_error: Option<String>,
    observations: Vec<Observation>,
    first_error: Option<String>,
    /// When the reads began and ended.
    origin: Instant,
    end: Option<Instant>,
    /// Whether the client thread was pinned to the read CPU.
    pinned: bool,
}

impl ReaderLog {
    fn create(cfg: &RunConfig, name: &str) -> Result<ReaderLog, String> {
        let spool = TempFile::new(cfg, name);
        let file = File::create(spool.path())
            .map_err(|e| format!("cannot create {}: {e}", spool.path().display()))?;
        Ok(ReaderLog {
            spool,
            writer: Some(BufWriter::with_capacity(1 << 16, file)),
            spool_error: None,
            observations: Vec::new(),
            first_error: None,
            origin: Instant::now(),
            end: None,
            pinned: false,
        })
    }

    fn push(&mut self, observation: Observation) {
        if let Some(writer) = &mut self.writer {
            if let Err(e) = observation.write(writer) {
                self.spool_error = Some(format!("spool write: {e}"));
                self.writer = None;
            }
        }
    }

    fn load(&mut self) -> Result<(), String> {
        if let Some(writer) = self.writer.take() {
            writer
                .into_inner()
                .map_err(|e| format!("spool flush: {}", e.error()))?;
        }
        if let Some(e) = &self.spool_error {
            return Err(e.clone());
        }
        let bytes = std::fs::read(self.spool.path()).map_err(|e| format!("spool read: {e}"))?;
        self.observations = Observation::read_all(&bytes).ok_or("spool is truncated")?;
        Ok(())
    }
}

#[derive(Default)]
struct UpdaterLog {
    rtt_s: Vec<f64>,
    hashes: Vec<u64>,
    repaired_nodes: Vec<f64>,
    rebuilt: u64,
    failed: Option<String>,
}

/// What the traced server recorded on one connection.
#[derive(Debug)]
struct ConnTrace {
    tracer: Tracer,
    frames: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The server side of a run: each connection is served on its own thread,
/// by `ServiceEngine::serve`, or in the traced run by the same receive →
/// `handle_frame` → send loop with a span around `handle_frame`. A
/// connection is accepted as soon as its client has connected, before any
/// clock starts, so no accept wait falls inside a timed interval.
struct Server {
    listener: TcpListener,
    plan: ConnPlan,
    threads: Vec<JoinHandle<Result<ConnTrace, String>>>,
}

/// How the server treats its connections. Connection 0 carries the set-up
/// requests; `update_conn` the writer's batches; every other one is a read
/// connection. The read and write connections are served on `cpu`, the
/// read client's CPU, so in `churn` the rebuilds and the reads share it.
#[derive(Clone, Copy)]
struct ConnPlan {
    /// Span origin when the run is traced.
    traced: Option<Instant>,
    update_conn: Option<usize>,
    cpu: Option<usize>,
}

impl Server {
    fn bind(plan: ConnPlan) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok(Server {
            listener,
            plan,
            threads: Vec::new(),
        })
    }

    /// Connects a client and accepts the server side of its connection.
    /// The kernel completes a loopback connection before `accept` is called,
    /// so the blocking accept returns at once.
    fn connect(&self) -> Result<(TcpTransport, TcpStream), String> {
        let addr = self
            .listener
            .local_addr()
            .map_err(|e| format!("bind: {e}"))?;
        let client = TcpTransport::connect(addr, SocketOptions::default())
            .map_err(|e| format!("connect: {e}"))?;
        let (stream, _) = self.listener.accept().map_err(|e| format!("accept: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("accepted socket: {e}"))?;
        Ok((client, stream))
    }

    /// Serves `stream` on a new thread as the next connection.
    fn serve(&mut self, engine: &Arc<ServiceEngine>, stream: TcpStream) {
        let (engine, conn, plan) = (Arc::clone(engine), self.threads.len(), self.plan);
        self.threads.push(thread::spawn(move || {
            serve_connection(&engine, stream, conn, plan)
        }));
    }

    /// Waits for every connection to close and returns what was recorded.
    fn finish(self) -> Result<Vec<ConnTrace>, String> {
        self.threads
            .into_iter()
            .map(|t| {
                t.join()
                    .map_err(|_| "a connection thread panicked".to_string())?
            })
            .collect()
    }
}

fn serve_connection(
    engine: &ServiceEngine,
    stream: TcpStream,
    conn: usize,
    plan: ConnPlan,
) -> Result<ConnTrace, String> {
    let transport = TcpTransport::from_stream(stream, SocketOptions::default())
        .map_err(|e| format!("transport: {e}"))?;
    if let Some(cpu) = plan.cpu.filter(|_| conn != 0) {
        affinity::pin_current_thread(cpu);
    }
    let Some(origin) = plan.traced else {
        engine
            .serve(&transport)
            .map_err(|e| format!("serve: {e}"))?;
        return Ok(ConnTrace {
            tracer: Tracer::new(Instant::now(), 0, false),
            frames: Vec::new(),
        });
    };
    let name = match conn {
        0 => "handle_frame.admin",
        c if Some(c) == plan.update_conn => "handle_frame.apply",
        _ => "handle_frame",
    };
    let mut tracer = Tracer::new(origin, conn as u32 + 1, true);
    let mut frames = Vec::new();
    let mut seq = 0;
    let closed = |e: TransportError| format!("connection {conn}: {e}");
    while let Some(frame) = transport.recv().map_err(closed)? {
        seq += 1;
        let reply = tracer.span(name, seq, |_| engine.handle_frame(&frame));
        transport.send(&reply).map_err(closed)?;
        if frames.len() < RECORDED_FRAMES {
            frames.push((frame, reply));
        }
    }
    Ok(ConnTrace { tracer, frames })
}

/// One checked request on `transport`; returns the answer when the
/// transport delivered one.
fn read_once(
    transport: &TcpTransport,
    id: u64,
    query: QueryRequest,
    epochs: &Epochs,
    log: &mut ReaderLog,
) -> Option<QueryResponse> {
    let key = request_key(RequestBody::Query(query.clone()));
    let lo = epochs.acked.load(Ordering::SeqCst);
    let start = Instant::now();
    let result = call_with(transport, &Request::query(id, query), &read_options());
    let rtt_us = micros(start.elapsed());
    let hi = epochs.sent.load(Ordering::SeqCst);
    let mut observation = Observation {
        key,
        hash: 0,
        delivered: false,
        error: true,
        lo,
        hi,
        sent_us: micros(start.saturating_duration_since(log.origin)),
        rtt_us,
    };
    let answer = match result {
        Ok(mut response) => {
            response.request_id = 0;
            observation.delivered = true;
            observation.hash = fnv1a(&response.to_bytes());
            match response.body {
                ResponseBody::Query(QueryResponse::Error(e)) => {
                    log.first_error.get_or_insert_with(|| format!("{e}"));
                    None
                }
                ResponseBody::Query(answer) => {
                    observation.error = false;
                    Some(answer)
                }
                ResponseBody::Batch(_) => None,
            }
        }
        Err(e) => {
            log.first_error
                .get_or_insert_with(|| format!("transport: {e}"));
            None
        }
    };
    log.push(observation);
    answer
}

/// The closed loop of one read connection: the next request goes out when
/// the previous answer is in.
fn reader(
    transport: &TcpTransport,
    mut mix: ReadMix,
    deadline: Instant,
    epochs: &Epochs,
    mut log: ReaderLog,
    cpu: Option<usize>,
) -> ReaderLog {
    log.pinned = cpu.is_some_and(affinity::pin_current_thread);
    log.origin = Instant::now();
    let mut seq = 0u64;
    let mut next_id = || {
        seq += 1;
        (1 << 40) | seq
    };
    while Instant::now() < deadline {
        match mix.next_op() {
            ReadOp::Containing { seed, k } => {
                let q = QueryRequest::KvccsContaining {
                    graph: GRAPH,
                    seed,
                    k,
                };
                read_once(transport, next_id(), q, epochs, &mut log);
            }
            ReadOp::MaxConnectivity { u, v } => {
                let q = QueryRequest::MaxConnectivity { graph: GRAPH, u, v };
                read_once(transport, next_id(), q, epochs, &mut log);
            }
            ReadOp::ConnectivityNumber { v } => {
                let q = QueryRequest::VertexConnectivityNumber { graph: GRAPH, v };
                read_once(transport, next_id(), q, epochs, &mut log);
            }
            ReadOp::TopK {
                rank_by,
                page_size,
                pages,
            } => {
                let mut cursor = None;
                for _ in 0..pages {
                    let q = QueryRequest::TopKComponents {
                        graph: GRAPH,
                        rank_by,
                        page_size,
                        cursor: cursor.take(),
                    };
                    match read_once(transport, next_id(), q, epochs, &mut log) {
                        Some(QueryResponse::Page {
                            next_cursor: Some(next),
                            ..
                        }) => cursor = Some(next),
                        _ => break,
                    }
                }
            }
        }
    }
    log.end = Some(Instant::now());
    log
}

/// The write connection of `churn`: batches back to back until the
/// deadline, each one round trip.
fn updater(
    transport: &TcpTransport,
    batches: &[Vec<EdgeUpdate>],
    deadline: Instant,
    epochs: &Epochs,
) -> UpdaterLog {
    let mut log = UpdaterLog::default();
    for (i, batch) in batches.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        epochs.sent.fetch_add(1, Ordering::SeqCst);
        let request = Request {
            request_id: (1 << 62) | i as u64,
            deadline_hint_ms: None,
            body: RequestBody::ApplyUpdates {
                graph: GRAPH,
                updates: batch.clone(),
            },
        };
        let start = Instant::now();
        let result = call_with(transport, &request, &update_options());
        log.rtt_s.push(secs(start.elapsed()));
        match result {
            Ok(response) => {
                if let ResponseBody::Query(QueryResponse::Updated {
                    repaired_nodes,
                    rebuilt,
                    ..
                }) = &response.body
                {
                    log.repaired_nodes.push(*repaired_nodes as f64);
                    log.rebuilt += *rebuilt as u64;
                } else {
                    log.failed = Some(format!("update {i} answered {:?}", response.body));
                }
                log.hashes.push(response_hash(response.body));
                epochs.acked.fetch_add(1, Ordering::SeqCst);
                if log.failed.is_some() {
                    break;
                }
            }
            Err(e) => {
                log.failed = Some(format!("update {i}: {e}"));
                break;
            }
        }
    }
    log
}

/// What a cold start needs: the connection plan, the `LoadGraph` request
/// and the graph's size to check its answer against.
struct ColdStarts {
    plan: ConnPlan,
    load_request: Request,
    num_vertices: usize,
    num_edges: usize,
}

/// A started engine, serving its set-up connection.
struct ColdStart {
    engine: Arc<ServiceEngine>,
    server: Server,
    admin: TcpTransport,
}

impl ColdStarts {
    /// A fresh engine on a fresh server, timed into `setup` from the
    /// engine's start to the `Loaded` answer. The connection is up before
    /// the clock starts, so the time is the engine's start, serving the
    /// connection and the load round trip.
    fn start(&self, setup: &mut Samples, out: &mut Outcome) -> Result<ColdStart, String> {
        let mut server = Server::bind(self.plan)?;
        let (admin, stream) = server.connect()?;
        let start = Instant::now();
        let engine = Arc::new(ServiceEngine::new(serving_config()));
        server.serve(&engine, stream);
        let loaded = call_with(&admin, &self.load_request, &read_options());
        setup.push(secs(start.elapsed()));
        let (n, m) = (self.num_vertices as u64, self.num_edges as u64);
        out.check(
            matches!(&loaded, Ok(Response { body: ResponseBody::Query(QueryResponse::Loaded {
                graph, num_vertices, num_edges, zero_copy: true, .. }), .. })
                if *graph == GRAPH && *num_vertices == n && *num_edges == m),
            || format!("LoadGraph answered {loaded:?}"),
        );
        Ok(ColdStart {
            engine,
            server,
            admin,
        })
    }

    /// `count` cold starts, each closed again.
    fn burst(&self, count: usize, setup: &mut Samples, out: &mut Outcome) -> Result<(), String> {
        for _ in 0..count {
            self.start(setup, out)?.close()?;
        }
        Ok(())
    }
}

impl ColdStart {
    fn close(self) -> Result<(), String> {
        drop(self.admin);
        self.server.finish().map(drop)
    }
}

fn work_items(engine: &ServiceEngine) -> u64 {
    match engine.execute(&QueryRequest::GraphStats { graph: GRAPH }) {
        QueryResponse::Stats { scheduling, .. } => scheduling.work_items,
        _ => 0,
    }
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, churn: bool) -> Result<(), String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0, cfg.trace);

    // Input, before timing: the DBLP stand-in as edge-list text, ingested to
    // CSR and persisted as KCSR for the engine to load.
    let text = inputs::dblp_text(inputs::dblp_scale(cfg.smoke));
    let ingested = tr
        .span("load", 0, |_| {
            StreamingEdgeListLoader::new().load_reader(&text[..])
        })
        .map_err(|e| format!("ingest failed: {e}"))?;
    let csr = &ingested.graph;
    let kcsr = TempFile::new(cfg, "serve.kcsr");
    write_kcsr_file(csr, kcsr.path()).map_err(|e| format!("KCSR write: {e}"))?;
    let (n, m, max_k) = (csr.num_vertices(), csr.num_edges(), degeneracy(csr));
    // One read connection, its client and server threads pinned to one CPU
    // (see `affinity`): a request's round trip on an otherwise idle server.
    // `churn` adds the writer's connection, whose server thread (the
    // rebuilds) is pinned to the same CPU, so reads compete with it.
    let connections = if churn { 2 } else { 1 };
    out.note(format!(
        "input: DBLP stand-in, {n} vertices, {m} edges, degeneracy {max_k}; {connections} client connection(s)"
    ));

    // Set-up: engine start to the `Loaded` answer, repeated; some
    // repetitions also time the first answer, which builds the index.
    let reps = cfg.setup_reps();
    let first_answer_reps = cfg.first_answer_reps();
    let plan = ConnPlan {
        traced: cfg.trace.then_some(origin),
        update_conn: churn.then_some(2),
        cpu: affinity::allowed_cpus().first().copied(),
    };

    let load_request = Request {
        request_id: 1,
        deadline_hint_ms: None,
        body: RequestBody::LoadGraph {
            name: "dblp".into(),
            path: kcsr.path().to_string_lossy().into_owned(),
            format: LoadFormat::Kcsr,
        },
    };
    let cold = ColdStarts {
        plan,
        load_request,
        num_vertices: n,
        num_edges: m,
    };
    let mut setup = Samples::new();
    let mut first_answer = Samples::new();
    let mut first_answers = ReaderLog::create(cfg, "first-answers.spool")?;
    // The cold starts come in bursts seconds apart: one ending in each
    // first answer (an index build of seconds), one after the timed phase
    // and one after the answer checks. The host slows for seconds at a
    // time, so one slow spell moves only the burst it falls on. The last
    // set-up burst keeps its engine for the timed phase.
    let burst = (reps / (first_answer_reps + 2)).max(1);
    let mut live = None;
    for b in 0..first_answer_reps {
        cold.burst(burst - 1, &mut setup, out)?;
        let started = cold.start(&mut setup, out)?;
        let start = Instant::now();
        read_once(
            &started.admin,
            2,
            FIRST_QUERY,
            &Epochs::default(),
            &mut first_answers,
        );
        first_answer.push(secs(start.elapsed()));
        if b + 1 == first_answer_reps {
            live = Some(started);
        } else {
            started.close()?;
        }
    }
    let ColdStart {
        engine,
        mut server,
        admin,
    } = live.expect("at least one set-up repetition");

    // The timed phase: the read connection (and `churn`'s writer), in the
    // order the server numbers them.
    let mut connect = || -> Result<TcpTransport, String> {
        let (client, stream) = server.connect()?;
        server.serve(&engine, stream);
        Ok(client)
    };
    let read_client = connect()?;
    let write_client = if churn { Some(connect()?) } else { None };
    let batches = if churn {
        inputs::update_batches(csr, cfg.seed, UPDATE_BATCHES)
    } else {
        Vec::new()
    };
    let mix = ReadMix::new(cfg.seed, n, max_k, if churn { 1 } else { 4 });
    let log = ReaderLog::create(cfg, "reads.spool")?;
    let qos_before = engine.qos_stats();
    let work_before = work_items(&engine);
    let epochs = Epochs::default();
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let (mut reads_log, updater_log) = thread::scope(|s| {
        let (epochs, batches, read_client) = (&epochs, &batches, &read_client);
        let cpu = plan.cpu;
        let reading = s.spawn(move || reader(read_client, mix, deadline, epochs, log, cpu));
        let writing = write_client
            .as_ref()
            .map(|client| s.spawn(move || updater(client, batches, deadline, epochs)));
        let written = writing.map(|h| h.join().expect("updater thread panicked"));
        (
            reading.join().expect("reader thread panicked"),
            written.unwrap_or_default(),
        )
    });
    let window = reads_log.end.unwrap_or(deadline).duration_since(start);
    let rss = peak_rss_mib().unwrap_or(0.0);
    let qos_after = engine.qos_stats();
    let work_after = work_items(&engine);
    drop((read_client, write_client, admin));
    let conn_traces = server.finish()?;
    cold.burst(burst, &mut setup, out)?;
    reads_log.load()?;
    first_answers.load()?;

    // Latency and throughput of the reads.
    let mut reads = Samples::new();
    reads.extend(reads_log.observations.iter().map(|o| o.rtt_us / 1e3));
    let completed = reads_log.observations.iter().filter(|o| !o.error).count();
    let mut updates = Samples::new();
    updates.extend(updater_log.rtt_s.iter().copied());
    let heavy = if churn {
        updates.median()
    } else {
        first_answer.median()
    };
    let (p50, p99) = (reads.median(), reads.percentile(99.0));
    let read_span = reads_log
        .end
        .unwrap_or(deadline)
        .saturating_duration_since(reads_log.origin);
    let (window_p50, window_tail, window_rate) =
        windowed(&reads_log.observations, micros(read_span));

    // Answers, outside the timed region.
    let applied = updater_log.hashes.len();
    out.note(match (plan.cpu, reads_log.pinned) {
        (Some(cpu), true) => format!(
            "read connection{} pinned to CPU {cpu}",
            if churn {
                " and writer's server thread"
            } else {
                ""
            }
        ),
        _ => "read connection NOT pinned (no CPU affinity)".into(),
    });
    for log in [&first_answers, &reads_log] {
        if let Some(e) = &log.first_error {
            out.note(format!("first read error: {e}"));
        }
    }
    let observations: Vec<&Observation> = first_answers
        .observations
        .iter()
        .chain(&reads_log.observations)
        .collect();
    let reference = ServiceEngine::new(EngineConfig::default());
    let report = reference
        .load_from_path("dblp", kcsr.path(), LoadFormat::Kcsr)
        .map_err(|e| format!("reference load: {e}"))?;
    out.check(report.graph == GRAPH, || "reference graph id".into());
    if let Some(reason) = &updater_log.failed {
        out.check(false, || reason.clone());
    }
    verify(
        &reference,
        &observations,
        &batches[..applied],
        &updater_log.hashes,
        out,
    );
    cold.burst(reps.saturating_sub(setup.len()), &mut setup, out)?;

    out.note(format!(
        "whole run: query_p50_us {:.1} query_p99_us {:.1} ({} reads, {} beyond p99), query_qps {:.1}; over {WINDOWS} stretches: p50 {:.1} us, tail {:.1} us, {:.1} reads/s; first answer (index build) median {:.4} s of {}",
        p50 * 1e3,
        p99 * 1e3,
        reads.len(),
        reads.beyond(99.0),
        completed as f64 / secs(window),
        window_p50 * 1e3,
        window_tail * 1e3,
        window_rate,
        first_answer.median(),
        first_answer.len()
    ));
    let mut repaired = Samples::new();
    repaired.extend(updater_log.repaired_nodes.iter().copied());
    if churn {
        out.note(format!(
            "update_p50_ms {:.1} ({} batches of 16), rebuilt {} of {}, repaired_nodes median {}",
            updates.median() * 1e3,
            updates.len(),
            updater_log.rebuilt,
            applied,
            repaired.median()
        ));
    }
    let distinct: HashSet<&[u8]> = reads_log
        .observations
        .iter()
        .map(|o| o.key.as_slice())
        .collect();
    out.note(format!(
        "shape: {:.3} of reads repeat an earlier request; qos hits {} misses {} coalesced {}; enumeration work items after set-up {}; error_rate {:.6}",
        1.0 - distinct.len() as f64 / reads.len().max(1) as f64,
        qos_after.cache_hits - qos_before.cache_hits,
        qos_after.cache_misses - qos_before.cache_misses,
        qos_after.coalesced - qos_before.coalesced,
        work_after - work_before,
        out.failed as f64 / out.attempted.max(1) as f64
    ));

    out.e2e("setup_s", setup.median(), "s");
    out.e2e("heavy_op_s", heavy, "s");
    out.e2e("light_op_p50_ms", window_p50, "ms");
    out.e2e("light_op_tail_ms", window_tail, "ms");
    out.e2e("light_ops_per_s", window_rate, "1/s");
    out.e2e("peak_rss_mb", rss, "MiB");

    if cfg.trace {
        let hits = (qos_after.cache_hits - qos_before.cache_hits) as f64;
        let misses = (qos_after.cache_misses - qos_before.cache_misses) as f64;
        let counts = layers::Counts {
            edge_lines: m as f64,
            duplicates: ingested.stats.duplicates as f64,
            load_peak_bytes: ingested.peak_bytes as f64,
            work_items_after_setup: (work_after - work_before) as f64,
            qos_hit_rate: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            qos_coalesced: (qos_after.coalesced - qos_before.coalesced) as f64,
            repair_rebuilt_frac: if applied > 0 {
                updater_log.rebuilt as f64 / applied as f64
            } else {
                0.0
            },
            repaired_nodes: repaired.median(),
            ..layers::Counts::default()
        };
        traced(
            cfg,
            out,
            tr,
            csr,
            &kcsr,
            conn_traces,
            &reads_log,
            &batches[..applied],
            counts,
        )?;
    }
    Ok(())
}

/// Every observed answer must equal the reference engine's answer at one of
/// the epochs the request could have seen; update answers must match batch
/// by batch. The reference replays the same batches in order.
fn verify(
    reference: &ServiceEngine,
    observations: &[&Observation],
    batches: &[Vec<EdgeUpdate>],
    update_hashes: &[u64],
    out: &mut Outcome,
) {
    let mut matched = vec![false; observations.len()];
    for epoch in 0..=batches.len() {
        if epoch > 0 {
            let body = reference
                .execute_request(&Request {
                    request_id: 0,
                    deadline_hint_ms: None,
                    body: RequestBody::ApplyUpdates {
                        graph: GRAPH,
                        updates: batches[epoch - 1].clone(),
                    },
                })
                .body;
            let same = response_hash(body) == update_hashes[epoch - 1];
            out.check(same, || {
                format!("update {epoch} answer differs from the reference")
            });
        }
        let mut memo: HashMap<&[u8], u64> = HashMap::new();
        for (i, o) in observations.iter().enumerate() {
            if matched[i] || !o.delivered || o.lo > epoch as u64 || o.hi < epoch as u64 {
                continue;
            }
            let want = *memo.entry(&o.key).or_insert_with(|| {
                let request = Request::from_bytes(&o.key).expect("keys are encoded requests");
                response_hash(reference.execute_request(&request).body)
            });
            matched[i] = want == o.hash;
        }
    }
    for (o, ok) in observations.iter().zip(matched) {
        out.check(ok && !o.error, || {
            let request = Request::from_bytes(&o.key).map(|r| r.body);
            format!(
                "{request:?}: {} (epochs {}..={})",
                match (o.delivered, ok) {
                    (false, _) => "failed in transport",
                    (true, true) => "error answer",
                    (true, false) => "differs from the reference",
                },
                o.lo,
                o.hi
            )
        });
    }
}

/// The traced run's extra measurements: KCSR open, client/server time split,
/// wire replays, the index build split per level by re-driving
/// `build_hierarchy`'s loop, index query replays and delta replays.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &RunConfig,
    out: &mut Outcome,
    mut tr: Tracer,
    csr: &CsrGraph,
    kcsr: &TempFile,
    conn_traces: Vec<ConnTrace>,
    reads_log: &ReaderLog,
    applied: &[Vec<EdgeUpdate>],
    mut counts: layers::Counts<'_>,
) -> Result<(), String> {
    let mapped = tr
        .span("kcsr.open", 0, |_| MappedCsr::open(kcsr.path()))
        .map_err(|e| format!("KCSR open: {e}"))?;
    out.check(mapped.num_edges() == csr.num_edges(), || {
        "KCSR round trip".into()
    });

    // Connection 0 carried the set-up requests, connection 1 the reads.
    let read_conn = conn_traces
        .get(1)
        .ok_or("the read connection left no trace")?;

    // Client round trip minus server handling, request by request (both
    // sides of the connection see the same request order).
    let mut transport = Samples::new();
    let handled = read_conn.tracer.durations("handle_frame").map(micros);
    let rtts = reads_log.observations.iter().map(|o| o.rtt_us);
    transport.extend(rtts.zip(handled).map(|(rtt, h)| rtt - h));
    counts.transport_p50_us = transport.median();

    // Wire codec replays over the recorded read frames.
    let mut response_bytes = Samples::new();
    for (request, response) in &read_conn.frames {
        response_bytes.push(response.len() as f64);
        let decoded = tr.span("wire.decode", 0, |_| Request::from_bytes(request));
        std::hint::black_box(decoded.is_ok());
        if let Ok(reply) = Response::from_bytes(response) {
            let bytes = tr.span("wire.encode", 0, |_| reply.to_bytes());
            std::hint::black_box(bytes.len());
        }
    }
    counts.response_bytes = response_bytes.mean();

    // The index: one in-process build, then the same hierarchy re-driven
    // level by level from public pieces; the two must agree.
    let options = KvccOptions::default();
    let index = tr
        .span("index.build", 0, |_| {
            ConnectivityIndex::build(csr, None, &options)
        })
        .map_err(|e| format!("index build: {e}"))?;
    counts.index_nodes = index.num_nodes() as f64;
    counts.index_bytes = index.memory_bytes() as f64;
    let mut rd = Redriver::new(options);
    let replay_before = tr.total(REPLAY);
    let start = Instant::now();
    let mut previous: Vec<KVertexConnectedComponent> = Vec::new();
    let mut map = Vec::new();
    let mut levels_equal = true;
    let mut levels = 0;
    for k in 1..=degeneracy(csr).max(1) {
        let level = tr.span("index.level", k as u64, |tr| -> Result<_, String> {
            if k == 1 {
                return rd.enumerate(csr, 1, tr);
            }
            let mut components = Vec::new();
            for parent in previous.iter().filter(|p| p.len() > k as usize) {
                let sub = tr.span("extract", 0, |_| {
                    CsrGraph::extract_induced(csr, parent.vertices(), &mut map)
                });
                for c in rd.enumerate(&sub, k, tr)? {
                    let mapped = c.vertices().iter().map(|&l| parent.vertices()[l as usize]);
                    components.push(KVertexConnectedComponent::new(mapped.collect()));
                }
            }
            components.sort();
            Ok(components)
        })?;
        if level.is_empty() {
            break;
        }
        levels += 1;
        levels_equal &= components_checksum(&level) == components_checksum(index.components_at(k));
        previous = level;
    }
    let redriven = start
        .elapsed()
        .saturating_sub(tr.total(REPLAY) - replay_before);
    out.check(levels_equal && levels == index.max_k(), || {
        format!(
            "re-driven hierarchy ({levels} levels) differs from the index ({} levels)",
            index.max_k()
        )
    });
    let built = secs(tr.total("index.build"));
    counts.overhead = secs(redriven) / built - 1.0;
    rd.sample_probes(cfg.probe_samples(), &mut tr);

    // Index query replays of the recorded read mix.
    for o in reads_log.observations.iter().take(RECORDED_FRAMES) {
        let Ok(Request {
            body: RequestBody::Query(query),
            ..
        }) = Request::from_bytes(&o.key)
        else {
            continue;
        };
        match query {
            QueryRequest::KvccsContaining { seed, k, .. } => {
                let hits = tr.span(layers::QUERY_SPANS[0].0, 0, |_| {
                    index.kvccs_containing(seed, k)
                });
                std::hint::black_box(hits.map(|h| h.len()).ok());
            }
            QueryRequest::MaxConnectivity { u, v, .. } => {
                let value = tr.span(layers::QUERY_SPANS[1].0, 0, |_| {
                    index.max_connectivity(u, v)
                });
                std::hint::black_box(value.ok());
            }
            QueryRequest::VertexConnectivityNumber { v, .. } => {
                let value = tr.span(layers::QUERY_SPANS[2].0, 0, |_| {
                    index.max_connectivity_of(v)
                });
                std::hint::black_box(value);
            }
            QueryRequest::TopKComponents {
                rank_by,
                page_size,
                cursor,
                ..
            } => {
                let offset = cursor
                    .and_then(|c| PageCursor::from_bytes(&c).ok())
                    .map_or(0, |c| c.offset as usize);
                let page = tr.span(layers::QUERY_SPANS[3].0, 0, |_| {
                    index.ranked_page(rank_by, offset, page_size as usize).len()
                });
                std::hint::black_box(page);
            }
            _ => {}
        }
    }

    // The overlay cost of each applied batch, replayed on a fresh overlay.
    let mut delta = DeltaGraph::new(csr.clone());
    for batch in applied {
        let stats = tr.span("delta.apply", 0, |_| delta.apply(batch));
        out.check(stats.is_ok(), || "delta replay".into());
    }

    for conn in conn_traces {
        tr.absorb(conn.tracer);
    }
    let counts = layers::Counts {
        redrive: Some(&rd),
        ..counts
    };
    layers::report(out, &tr, &counts);
    out.note(format!(
        "re-driven hierarchy: {levels} levels, checksum {}; global_cut.calls {}, flow.probes {}, partition.calls {}",
        if levels_equal { "equal" } else { "DIFFERENT" },
        rd.stats.global_cut_calls,
        rd.stats.loc_cut_flow_calls,
        rd.stats.partitions
    ));
    out.note(format!(
        "trace: {} spans, overhead {:.2}% (re-driven hierarchy vs ConnectivityIndex::build)",
        tr.spans().len(),
        counts.overhead * 100.0
    ));
    cfg.write_trace(&tr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(sent_us: f64, rtt_us: f64) -> Observation {
        Observation {
            key: Vec::new(),
            hash: 0,
            delivered: true,
            error: false,
            lo: 0,
            hi: 0,
            sent_us,
            rtt_us,
        }
    }

    #[test]
    fn read_metrics_take_quartiles_over_stretches() {
        // 20 stretches of 1 ms: stretch i holds i + 1 reads of (i + 1) us
        // each, so its median and tail are (i + 1) us and its rate is
        // (i + 1) reads per ms.
        let reads: Vec<Observation> = (0..WINDOWS)
            .flat_map(|i| (0..=i).map(move |_| read(i as f64 * 1e3 + 10.0, (i + 1) as f64)))
            .collect();
        let (p50, tail, rate) = windowed(&reads, WINDOWS as f64 * 1e3);
        // Nearest rank over 20 values: the 5th lowest and the 15th.
        assert_eq!((p50, tail), (5e-3, 5e-3));
        assert_eq!(rate, 15e3);
        // A read sent after the span ends counts in the last stretch; an
        // empty stretch is skipped, not read as zero.
        let late = [read(0.0, 2.0), read(50e3, 4.0)];
        assert_eq!(windowed(&late, 20e3).0, 2e-3);
    }

    #[test]
    fn observations_survive_the_spool() {
        let o = Observation {
            key: vec![1, 2, 3],
            hash: 7,
            delivered: true,
            error: true,
            lo: 1,
            hi: 2,
            sent_us: 12.5,
            rtt_us: 3.25,
        };
        let mut bytes = Vec::new();
        o.write(&mut bytes).unwrap();
        o.write(&mut bytes).unwrap();
        let back = Observation::read_all(&bytes).expect("decodes");
        assert_eq!(back.len(), 2);
        let b = &back[1];
        assert_eq!(
            (
                &b.key[..],
                b.hash,
                b.delivered,
                b.error,
                b.lo,
                b.hi,
                b.sent_us,
                b.rtt_us
            ),
            (&o.key[..], 7, true, true, 1, 2, 12.5, 3.25)
        );
        assert!(Observation::read_all(&bytes[..bytes.len() - 1]).is_none());
    }
}
