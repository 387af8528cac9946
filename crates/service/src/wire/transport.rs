//! Frame transports: the [`Transport`] trait, the in-process loopback
//! implementation, the frame boundary every server shares, and the
//! byte-driven shard worker.
//!
//! A [`Transport`] moves whole protocol frames between two peers. The
//! contract is deliberately narrow — blocking send, blocking receive (with a
//! bounded-wait variant), closed-channel signalling — so a socket, a pipe or
//! a message queue can implement it with a handful of lines; every
//! implementation must put the shared length-prefixed frame format
//! ([`crate::wire::frame`]) on the wire so peers with different transports
//! still interoperate. Real sockets live in [`crate::wire::socket`]; the
//! fault-injection decorator in [`crate::wire::faults`].
//!
//! [`LoopbackTransport::pair`] is the reference implementation: two
//! endpoints connected by in-process byte streams. It is *not* a shortcut
//! that hands `Vec<u8>`s across — sends append [`encode_frame`] bytes to a
//! shared stream and receives reassemble frames through a [`FrameDecoder`],
//! so the loopback exercises the exact same byte path a network transport
//! would, chunk boundaries and all.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use kvcc::{Budget, KvccOptions};

use crate::protocol::{QueryResponse, Request, RequestBody, Response, ResponseBody, ServiceError};
use crate::wire::frame::{encode_frame, FrameDecoder};
use crate::wire::{run_work_item, CsrWorkItem};

/// Why a transport operation failed.
///
/// The split matters to retry logic: [`TransportError::TimedOut`] is
/// *retryable* — the connection is still aligned and a resend is safe —
/// while [`TransportError::Closed`] and [`TransportError::Malformed`] are
/// fatal for the connection (the peer is gone, or the byte stream lost
/// frame alignment), so recovery means moving the work to another peer, not
/// resending here. [`TransportError::is_retryable`] encodes that rule once
/// for every caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint is gone (clean close, reset, refused connection);
    /// no more frames will ever arrive on this transport.
    Closed,
    /// A bounded-wait operation ran out of time with the connection still
    /// healthy; the caller may retry on the same transport.
    TimedOut,
    /// The byte stream violated the frame format (e.g. an oversized length
    /// prefix, see [`crate::wire::frame::FrameError`]); frame boundaries are
    /// unrecoverable and the connection is unusable.
    Malformed(String),
}

impl TransportError {
    /// Whether the *same* transport remains usable and the failed operation
    /// may simply be retried (timeouts), as opposed to connection-fatal
    /// failures where the work must move to a different peer.
    pub const fn is_retryable(&self) -> bool {
        matches!(self, TransportError::TimedOut)
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed by the peer"),
            TransportError::TimedOut => write!(f, "transport operation timed out"),
            TransportError::Malformed(reason) => write!(f, "malformed frame stream: {reason}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for ServiceError {
    fn from(value: TransportError) -> Self {
        ServiceError::Transport {
            reason: value.to_string(),
        }
    }
}

/// A bidirectional, frame-oriented connection between two peers.
///
/// Implementations must carry frames in the shared length-prefixed format
/// ([`crate::wire::frame`]) on their underlying byte stream. Methods take
/// `&self` so one endpoint can be shared by reference; implementations are
/// expected to serialise concurrent sends internally.
pub trait Transport: Send + Sync {
    /// Sends one frame payload (a protocol message). Blocks only for
    /// transport-internal locking (and, on socket transports, the
    /// configured write timeout), not for the peer to read.
    fn send(&self, frame: &[u8]) -> Result<(), TransportError>;

    /// Receives the next frame payload, blocking until one arrives. Returns
    /// `Ok(None)` when the peer closed cleanly and every buffered frame has
    /// been drained.
    fn recv(&self) -> Result<Option<Vec<u8>>, TransportError>;

    /// Like [`Transport::recv`], but gives up with
    /// [`TransportError::TimedOut`] once `timeout` has elapsed without a
    /// complete frame. The wait is cooperative, not destructive: bytes of a
    /// partially received frame stay buffered, so a later call resumes the
    /// reassembly exactly where this one stopped.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError>;
}

/// One direction of the loopback: a byte stream plus the receiving side's
/// frame reassembly, guarded by a mutex + condvar for blocking receives.
struct Channel {
    state: Mutex<ChannelState>,
    ready: Condvar,
}

struct ChannelState {
    decoder: FrameDecoder,
    closed: bool,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Channel {
            state: Mutex::new(ChannelState {
                decoder: FrameDecoder::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// The in-process loopback transport; see the module docs. Construct pairs
/// with [`LoopbackTransport::pair`].
pub struct LoopbackTransport {
    /// Frames we read (written by the peer).
    incoming: Arc<Channel>,
    /// Frames we write (read by the peer).
    outgoing: Arc<Channel>,
}

impl LoopbackTransport {
    /// Creates a connected pair of endpoints. Frames sent on one come out of
    /// the other, in order, after passing through the real frame byte
    /// format. Dropping either endpoint closes both directions.
    pub fn pair() -> (LoopbackTransport, LoopbackTransport) {
        let a_to_b = Channel::new();
        let b_to_a = Channel::new();
        (
            LoopbackTransport {
                incoming: Arc::clone(&b_to_a),
                outgoing: Arc::clone(&a_to_b),
            },
            LoopbackTransport {
                incoming: a_to_b,
                outgoing: b_to_a,
            },
        )
    }

    fn recv_inner(&self, deadline: Option<Instant>) -> Result<Option<Vec<u8>>, TransportError> {
        let mut state = self.incoming.state.lock().unwrap();
        loop {
            match state.decoder.next_frame() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {
                    if state.closed {
                        return Ok(None);
                    }
                    state = match deadline {
                        None => self.incoming.ready.wait(state).unwrap(),
                        Some(deadline) => {
                            let remaining = time_left(deadline)?;
                            self.incoming
                                .ready
                                .wait_timeout(state, remaining)
                                .unwrap()
                                .0
                        }
                    };
                }
                Err(error) => return Err(TransportError::Malformed(error.to_string())),
            }
        }
    }
}

impl Transport for LoopbackTransport {
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        let mut state = self.outgoing.state.lock().unwrap();
        if state.closed {
            return Err(TransportError::Closed);
        }
        // Ship the real wire bytes: length prefix + payload, reassembled by
        // the peer's FrameDecoder exactly as a socket receiver would.
        let framed = encode_frame(frame).map_err(|e| TransportError::Malformed(e.to_string()))?;
        state.decoder.push(&framed);
        drop(state);
        self.outgoing.ready.notify_all();
        Ok(())
    }

    fn recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.recv_inner(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        self.recv_inner(Some(Instant::now() + timeout))
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        // Wake a peer blocked in recv (it drains buffered frames first) and
        // fail our own half so a later send errors instead of queueing into
        // the void.
        self.outgoing.close();
        self.incoming.close();
    }
}

/// Tuning for [`call_with`]: bounded waits and retry behaviour of the
/// simple request/response client pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallOptions {
    /// Per-attempt deadline for the response. `None` blocks forever (the
    /// pre-timeout behaviour; only sensible against an in-process peer that
    /// is guaranteed to answer).
    pub timeout: Option<Duration>,
    /// Total attempts (first try + retries) on retryable failures: a
    /// response deadline expiring ([`TransportError::TimedOut`]) or the peer
    /// answering a *retryable* [`ServiceError`]
    /// ([`ServiceError::is_retryable`] — e.g. a request corrupted in
    /// flight). Connection-fatal transport errors are never retried here;
    /// the caller must reconnect or fail over.
    pub max_attempts: u32,
    /// Sleep before retry `i` is `backoff_base << (i - 1)`, capped at
    /// [`CallOptions::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the exponential backoff.
    pub backoff_cap: Duration,
}

impl Default for CallOptions {
    /// 30 s per-attempt timeout, 3 attempts, 10 ms base backoff: a silent
    /// peer surfaces as [`TransportError::TimedOut`] instead of hanging the
    /// caller forever.
    fn default() -> Self {
        CallOptions {
            timeout: Some(Duration::from_secs(30)),
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// The doubling backoff before retry number `retry` (1-based) that
/// [`call_with`] and the shard coordinator share: `base << (retry - 1)`,
/// capped at `cap`.
pub(crate) fn backoff(base: Duration, cap: Duration, retry: u32) -> Duration {
    let shift = retry.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << shift).min(cap)
}

/// The time left before `deadline`, or [`TransportError::TimedOut`] once
/// none is: the one bounded-wait rule of every transport.
pub(crate) fn time_left(deadline: Instant) -> Result<Duration, TransportError> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or(TransportError::TimedOut)
}

/// Sends `request` and blocks for the next response frame — the minimal
/// client call pattern, with the default [`CallOptions`] (bounded wait plus
/// retries on retryable failures). See [`call_with`].
pub fn call(transport: &dyn Transport, request: &Request) -> Result<Response, TransportError> {
    call_with(transport, request, &CallOptions::default())
}

/// Sends `request` and waits (boundedly) for its response, retrying
/// retryable failures per `options`.
///
/// Responses are matched by the echoed [`Request::request_id`]; a stale
/// response with a different id (e.g. the answer to a previous attempt that
/// timed out) is drained and ignored rather than misattributed, which is
/// safe because requests are idempotent. A response that does not decode is
/// treated like a retryable corruption. The retryable-vs-terminal split for
/// peer-reported errors is [`ServiceError::is_retryable`] — the same
/// classification the shard coordinator uses — so e.g. a
/// [`ServiceError::MalformedRequest`] (our bytes were mangled in flight)
/// re-sends, while a [`ServiceError::DeadlineExceeded`] comes straight
/// back to the caller.
pub fn call_with(
    transport: &dyn Transport,
    request: &Request,
    options: &CallOptions,
) -> Result<Response, TransportError> {
    let attempts = options.max_attempts.max(1);
    let mut last_error = TransportError::TimedOut;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff(options.backoff_base, options.backoff_cap, attempt));
        }
        transport.send(&request.to_bytes())?;
        let deadline = options.timeout.map(|t| Instant::now() + t);
        loop {
            let frame = match deadline {
                None => transport.recv(),
                Some(deadline) => time_left(deadline).and_then(|left| transport.recv_timeout(left)),
            };
            match frame {
                Ok(Some(frame)) => match Response::from_bytes(&frame) {
                    Ok(response) if response.request_id == request.request_id => {
                        match &response.body {
                            ResponseBody::Query(QueryResponse::Error(e))
                                if e.is_retryable() && attempt + 1 < attempts =>
                            {
                                last_error = TransportError::TimedOut;
                                break; // next attempt re-sends the request
                            }
                            _ => return Ok(response),
                        }
                    }
                    // Stale answer to an earlier attempt, or a frame whose
                    // id was corrupted en route: keep waiting for ours.
                    Ok(_) | Err(_) => continue,
                },
                Ok(None) => return Err(TransportError::Closed),
                Err(TransportError::TimedOut) => {
                    last_error = TransportError::TimedOut;
                    break;
                }
                Err(fatal) => return Err(fatal),
            }
        }
    }
    Err(last_error)
}

/// Performs the protocol-v6 auth handshake on a fresh connection: sends
/// [`RequestBody::Handshake`] carrying `token` and waits for the verdict.
///
/// Token-less endpoints (the engine's [`crate::ServiceEngine::serve`] loop,
/// an unarmed shard worker) answer
/// [`QueryResponse::HandshakeOk`] as a
/// no-op, so clients can handshake unconditionally. A `--token`-armed
/// `kvcc-shardd` answers [`ServiceError::Unauthorized`] and closes the
/// connection on a mismatch — a clean, decodable rejection instead of a
/// protocol desync.
pub fn authenticate(transport: &dyn Transport, token: &str) -> Result<(), ServiceError> {
    let request = Request {
        request_id: 0,
        deadline_hint_ms: None,
        body: RequestBody::Handshake {
            token: token.to_string(),
        },
    };
    let options = CallOptions {
        // A rejected handshake closes the connection server-side; there is
        // nothing a resend on this transport could fix.
        max_attempts: 1,
        ..CallOptions::default()
    };
    let response = call_with(transport, &request, &options)?;
    match response.body {
        ResponseBody::Query(QueryResponse::HandshakeOk) => Ok(()),
        ResponseBody::Query(QueryResponse::Error(e)) => Err(e),
        other => Err(ServiceError::Transport {
            reason: format!("unexpected handshake response: {other:?}"),
        }),
    }
}

/// The frame boundary every server shares: decodes one request frame,
/// answers it with `dispatch`, and encodes the response frame. Undecodable
/// frames — including frames whose envelope checksum shows they were
/// corrupted in flight — are answered with
/// [`ServiceError::MalformedRequest`] under request id 0 (none could be
/// read), never dropped: a client always gets one response frame per request
/// frame. [`crate::ServiceEngine::handle_frame`] and [`run_shard_worker`]
/// differ only in `dispatch`.
pub(crate) fn answer_frame(frame: &[u8], dispatch: impl FnOnce(&Request) -> Response) -> Vec<u8> {
    let response = match Request::from_bytes(frame) {
        Ok(request) => dispatch(&request),
        Err(e) => Response {
            request_id: 0,
            body: ResponseBody::Query(QueryResponse::Error(ServiceError::MalformedRequest {
                reason: e.to_string(),
            })),
        },
    };
    response.to_bytes()
}

/// The answer to a work item that the engine and the shard worker share:
/// the item's k-VCCs in loaded ids under `budget`, or the error that
/// stopped the enumeration.
pub(crate) fn answer_work_item(
    item: &CsrWorkItem,
    k: u32,
    options: &KvccOptions,
    budget: Budget,
) -> QueryResponse {
    match run_work_item(item, k, &options.clone().with_budget(budget)) {
        Ok(components) => QueryResponse::Components(components),
        Err(e) => QueryResponse::Error(e.into()),
    }
}

/// The receive loop every server shares: [`answer_frame`] for each request
/// frame, in order, until the peer closes the transport.
pub(crate) fn serve_frames(
    transport: &dyn Transport,
    mut dispatch: impl FnMut(&Request) -> Response,
) -> Result<(), TransportError> {
    while let Some(frame) = transport.recv()? {
        transport.send(&answer_frame(&frame, &mut dispatch))?;
    }
    Ok(())
}

/// Runs a shard worker: a loop that serves [`RequestBody::WorkItem`]
/// enumeration requests **purely over bytes** until the peer closes the
/// transport. Returns the number of work items served.
///
/// The worker holds no engine and no shared graph memory — everything it
/// enumerates arrived inside a frame, which is what makes the shard side of
/// `KVCC-ENUM` deployable in a separate process or machine. A
/// [`Request::deadline_hint_ms`] on a work-item frame becomes a real
/// [`kvcc::Budget`] threaded into the enumeration, so a shard interrupts mid-item
/// and answers [`ServiceError::DeadlineExceeded`] exactly like the engine
/// does. Engine-level queries ([`RequestBody::Query`] /
/// [`RequestBody::Batch`]) and graph loads ([`RequestBody::LoadGraph`] — a
/// shard has no slots, and honouring host-side paths from the wire would be
/// a hole besides) are answered with [`ServiceError::Unsupported`].
/// Frames cross the same boundary and receive loop as
/// [`crate::ServiceEngine::serve`], so an undecodable frame gets the
/// engine's own [`ServiceError::MalformedRequest`] reply, byte for byte.
pub fn run_shard_worker(
    transport: &dyn Transport,
    options: &KvccOptions,
) -> Result<usize, TransportError> {
    let mut served = 0usize;
    serve_frames(transport, |request| {
        let body = match &request.body {
            RequestBody::WorkItem { k, item } => {
                served += 1;
                answer_work_item(item, *k, options, request.budget())
            }
            // A token-less worker accepts any handshake as a no-op (clients
            // handshake unconditionally); token *checking* happens in the
            // accept path of a `--token`-armed `kvcc-shardd` before this
            // loop ever starts.
            RequestBody::Handshake { .. } => QueryResponse::HandshakeOk,
            RequestBody::Query(_)
            | RequestBody::Batch(_)
            | RequestBody::LoadGraph { .. }
            | RequestBody::ApplyUpdates { .. } => QueryResponse::Error(ServiceError::Unsupported {
                what: "engine queries (this endpoint only runs work items)".into(),
            }),
        };
        Response {
            request_id: request.request_id,
            body: ResponseBody::Query(body),
        }
    })?;
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{GraphId, QueryRequest};
    use crate::wire::CsrWorkItem;
    use crate::{EngineConfig, ServiceEngine};
    use kvcc_graph::CsrGraph;

    #[test]
    fn loopback_carries_frames_both_ways() {
        let (a, b) = LoopbackTransport::pair();
        a.send(b"ping").unwrap();
        a.send(b"pong").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"ping");
        b.send(b"reply").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"pong");
        assert_eq!(a.recv().unwrap().unwrap(), b"reply");
        drop(b);
        assert_eq!(a.recv().unwrap(), None, "peer gone, stream drained");
        assert_eq!(a.send(b"x"), Err(TransportError::Closed));
    }

    #[test]
    fn recv_timeout_expires_on_a_silent_peer_without_losing_bytes() {
        let (a, b) = LoopbackTransport::pair();
        let before = Instant::now();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::TimedOut)
        );
        assert!(before.elapsed() >= Duration::from_millis(20));
        assert!(TransportError::TimedOut.is_retryable());
        assert!(!TransportError::Closed.is_retryable());
        // The timeout is non-destructive: a frame sent afterwards arrives.
        b.send(b"late").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(100)).unwrap().unwrap(),
            b"late"
        );
    }

    #[test]
    fn call_times_out_instead_of_blocking_forever() {
        let (client, _server) = LoopbackTransport::pair();
        let options = CallOptions {
            timeout: Some(Duration::from_millis(5)),
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let request = Request::query(1, QueryRequest::GraphStats { graph: GraphId(0) });
        assert_eq!(
            call_with(&client, &request, &options),
            Err(TransportError::TimedOut)
        );
    }

    #[test]
    fn backoff_grows_and_caps() {
        let options = CallOptions {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            ..CallOptions::default()
        };
        let call_backoff = |retry| backoff(options.backoff_base, options.backoff_cap, retry);
        assert_eq!(call_backoff(1), Duration::from_millis(10));
        assert_eq!(call_backoff(2), Duration::from_millis(20));
        assert_eq!(call_backoff(3), Duration::from_millis(35));
        assert_eq!(call_backoff(30), Duration::from_millis(35));
        // The coordinator's defaults: 2, 4, 8, 16, 32, then capped at 50 ms.
        let fleet = crate::CoordinatorConfig::default();
        let fleet_ms: Vec<u128> = (1..=8)
            .map(|retry| backoff(fleet.backoff_base, fleet.backoff_cap, retry).as_millis())
            .collect();
        assert_eq!(fleet_ms, [2, 4, 8, 16, 32, 50, 50, 50]);
    }

    #[test]
    fn shard_worker_runs_items_and_rejects_queries() {
        let graph =
            CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        let item = CsrWorkItem::new(graph, vec![10, 11, 12, 13, 14]);
        let (client, server) = LoopbackTransport::pair();
        let worker =
            std::thread::spawn(move || run_shard_worker(&server, &KvccOptions::default()).unwrap());

        let ok = call(
            &client,
            &Request {
                request_id: 5,
                deadline_hint_ms: None,
                body: RequestBody::WorkItem { k: 2, item },
            },
        )
        .unwrap();
        match ok.body {
            ResponseBody::Query(QueryResponse::Components(c)) => {
                assert_eq!(c.len(), 2);
                assert_eq!(c[0].vertices(), &[10, 11, 12]);
            }
            other => panic!("expected components, got {other:?}"),
        }

        let unsupported = call(
            &client,
            &Request::query(6, QueryRequest::GraphStats { graph: GraphId(0) }),
        )
        .unwrap();
        match unsupported.body {
            ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 6),
            other => panic!("expected an unsupported error, got {other:?}"),
        }

        // An undecodable frame gets a malformed-request error, id 0.
        client.send(b"garbage").unwrap();
        let frame = client.recv().unwrap().unwrap();
        let response = Response::from_bytes(&frame).unwrap();
        assert_eq!(response.request_id, 0);
        match response.body {
            ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 7),
            other => panic!("expected a malformed-request error, got {other:?}"),
        }
        // The shard and the engine cross one frame boundary: the reply is
        // the engine's, byte for byte, for garbage and for an empty frame.
        let engine = ServiceEngine::new(EngineConfig::default());
        assert_eq!(frame, engine.handle_frame(b"garbage"));
        client.send(b"").unwrap();
        assert_eq!(client.recv().unwrap().unwrap(), engine.handle_frame(b""));

        drop(client);
        assert_eq!(worker.join().unwrap(), 1, "one work item served");
    }
}
