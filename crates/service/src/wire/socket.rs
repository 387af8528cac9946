//! Real socket transports and the multi-process shard worker pool.
//!
//! [`TcpTransport`] and [`UnixTransport`] put the shared frame format
//! ([`crate::wire::frame`]) on actual OS sockets, implementing the same
//! [`Transport`] trait the in-process loopback does — so the coordinator,
//! the chaos decorator and the parity tests run unchanged over a network.
//! Both are thin instantiations of one generic [`StreamTransport`]: a
//! reader half (stream clone + [`FrameDecoder`]) and a writer half, each
//! behind its own mutex so sends and receives never block each other.
//!
//! [`ShardPool`] is the serving side: it accepts connections on a listener
//! and runs [`run_shard_worker`] on a thread per connection — the
//! in-process stand-in for the `kvcc-shardd` daemon (which is exactly this
//! type behind a CLI), and what integration tests spawn to get a real
//! multi-socket fleet without leaving the test process.
//!
//! Timeouts ([`SocketOptions`]) are mapped onto [`TransportError`]s so the
//! retry classification stays uniform: `WouldBlock`/`TimedOut` I/O errors
//! become the retryable [`TransportError::TimedOut`], everything else —
//! reset, refused, broken pipe — becomes the fatal
//! [`TransportError::Closed`].

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kvcc::KvccOptions;

use crate::protocol::{QueryResponse, Request, RequestBody, Response, ResponseBody, ServiceError};
use crate::wire::frame::{encode_frame, FrameDecoder};
use crate::wire::transport::{run_shard_worker, time_left, Transport, TransportError};

/// Socket behaviour knobs shared by the TCP and Unix transports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SocketOptions {
    /// Deadline for establishing a TCP connection (Unix sockets connect
    /// locally and ignore it).
    pub connect_timeout: Duration,
    /// Per-read deadline applied to plain [`Transport::recv`] calls; `None`
    /// blocks until the peer sends or closes.
    /// ([`Transport::recv_timeout`] always uses its own bound.)
    pub read_timeout: Option<Duration>,
    /// Deadline for pushing a frame into the send buffer; a peer that
    /// stops draining its socket surfaces as a retryable timeout instead
    /// of a forever-blocked sender.
    pub write_timeout: Option<Duration>,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

fn map_io(e: &io::Error) -> TransportError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TransportError::TimedOut,
        _ => TransportError::Closed,
    }
}

/// The stream operations [`StreamTransport`] needs, implemented by both
/// socket families. (Not public: the public surface is the two aliases.)
pub trait SocketStream: Read + Write + Send + Sized {
    /// Clones the handle so reads and writes get independent halves.
    fn duplicate(&self) -> io::Result<Self>;
    /// Sets the per-read deadline (`None` blocks).
    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Sets the per-write deadline (`None` blocks).
    fn set_write_deadline(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl SocketStream for TcpStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn set_write_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(timeout)
    }
}

impl SocketStream for UnixStream {
    fn duplicate(&self) -> io::Result<Self> {
        self.try_clone()
    }
    fn set_read_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
    fn set_write_deadline(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_write_timeout(timeout)
    }
}

/// Reader half: the stream clone plus frame reassembly state.
struct ReadHalf<S> {
    stream: S,
    decoder: FrameDecoder,
    /// The peer has closed; drain buffered frames, then report `None`.
    eof: bool,
    /// The read timeout currently armed on the socket, to skip redundant
    /// setsockopt calls on the hot path.
    armed: Option<Option<Duration>>,
}

/// A [`Transport`] over any [`SocketStream`]; see the module docs.
pub struct StreamTransport<S: SocketStream> {
    reader: Mutex<ReadHalf<S>>,
    writer: Mutex<S>,
    options: SocketOptions,
}

impl<S: SocketStream> StreamTransport<S> {
    /// Wraps a connected stream.
    pub fn from_stream(stream: S, options: SocketOptions) -> io::Result<Self> {
        let reader = stream.duplicate()?;
        stream.set_write_deadline(options.write_timeout)?;
        Ok(StreamTransport {
            reader: Mutex::new(ReadHalf {
                stream: reader,
                decoder: FrameDecoder::new(),
                eof: false,
                armed: None,
            }),
            writer: Mutex::new(stream),
            options,
        })
    }

    fn recv_inner(&self, deadline: Option<Instant>) -> Result<Option<Vec<u8>>, TransportError> {
        let mut half = self.reader.lock().unwrap();
        let mut chunk = [0u8; 8192];
        loop {
            match half.decoder.next_frame() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Err(poison) => return Err(TransportError::Malformed(poison.to_string())),
                Ok(None) => {}
            }
            if half.eof {
                return Ok(None);
            }
            let per_read = match deadline {
                // set_read_timeout(Some(0)) is an error in std; clamp up.
                Some(deadline) => Some(time_left(deadline)?.max(Duration::from_millis(1))),
                None => self.options.read_timeout,
            };
            if half.armed != Some(per_read) {
                half.stream
                    .set_read_deadline(per_read)
                    .map_err(|e| map_io(&e))?;
                half.armed = Some(per_read);
            }
            match half.stream.read(&mut chunk) {
                Ok(0) => half.eof = true,
                Ok(n) => half.decoder.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(map_io(&e)),
            }
        }
    }
}

impl<S: SocketStream> Transport for StreamTransport<S> {
    fn send(&self, frame: &[u8]) -> Result<(), TransportError> {
        let framed = encode_frame(frame).map_err(|e| TransportError::Malformed(e.to_string()))?;
        let mut stream = self.writer.lock().unwrap();
        stream.write_all(&framed).map_err(|e| map_io(&e))?;
        stream.flush().map_err(|e| map_io(&e))
    }

    fn recv(&self) -> Result<Option<Vec<u8>>, TransportError> {
        self.recv_inner(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        self.recv_inner(Some(Instant::now() + timeout))
    }
}

/// The frame transport over TCP.
pub type TcpTransport = StreamTransport<TcpStream>;

/// The frame transport over Unix domain sockets — same wire format, no IP
/// stack, for co-located worker processes.
pub type UnixTransport = StreamTransport<UnixStream>;

impl TcpTransport {
    /// Connects to a shard worker with the configured connect timeout and
    /// `TCP_NODELAY` (frames are small; latency beats batching here).
    pub fn connect(addr: impl ToSocketAddrs, options: SocketOptions) -> io::Result<TcpTransport> {
        let mut last = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, options.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return TcpTransport::from_stream(stream, options);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }
}

impl UnixTransport {
    /// Connects to a shard worker's Unix socket.
    pub fn connect(path: impl AsRef<std::path::Path>, options: SocketOptions) -> io::Result<Self> {
        UnixTransport::from_stream(UnixStream::connect(path)?, options)
    }
}

/// Where a [`ShardPool`] listens, kept so shutdown can self-connect to
/// unblock the accept loop.
enum PoolAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

/// A serving worker pool: accepts connections and runs [`run_shard_worker`]
/// on a thread per connection, up to a connection cap. This is the
/// in-process form of the `kvcc-shardd` daemon.
pub struct ShardPool {
    addr: PoolAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

/// Enforces the shared-secret handshake on a fresh connection of a
/// `--token`-armed pool. The first frame must be a decodable
/// [`RequestBody::Handshake`] carrying the matching token; anything else —
/// wrong token, a different request kind, undecodable bytes — is answered
/// with a clean [`ServiceError::Unauthorized`] frame (never a silent drop or
/// a protocol desync) and the connection is closed. Returns whether the
/// worker loop may start.
fn gate_connection(transport: &dyn Transport, token: &str) -> bool {
    let Ok(Some(frame)) = transport.recv() else {
        return false;
    };
    let (request_id, verdict) = match Request::from_bytes(&frame) {
        Ok(request) => match &request.body {
            RequestBody::Handshake { token: offered } => (request.request_id, offered == token),
            _ => (request.request_id, false),
        },
        Err(_) => (0, false),
    };
    let body = if verdict {
        QueryResponse::HandshakeOk
    } else {
        QueryResponse::Error(ServiceError::Unauthorized)
    };
    let response = Response {
        request_id,
        body: ResponseBody::Query(body),
    };
    transport.send(&response.to_bytes()).is_ok() && verdict
}

/// Accept loop shared by both socket families. `accept` yields transports
/// until the listener errors or the shutdown flag is seen.
fn accept_loop<T: Transport + 'static>(
    shutdown: &AtomicBool,
    served: &Arc<AtomicU64>,
    max_connections: usize,
    options: &KvccOptions,
    token: Option<&str>,
    mut accept: impl FnMut() -> io::Result<T>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        let Ok(transport) = accept() else {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            // A persistent accept error (e.g. EMFILE) must not spin hot;
            // back off briefly before retrying.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Reserve the slot atomically (increment, then undo when over the
        // cap) so concurrent accept loops can never admit past the cap.
        if active.fetch_add(1, Ordering::Relaxed) >= max_connections {
            active.fetch_sub(1, Ordering::Relaxed);
            continue; // over the cap: drop the connection (peer sees Closed)
        }
        let served = Arc::clone(served);
        let active = Arc::clone(&active);
        let options = options.clone();
        let token = token.map(str::to_string);
        std::thread::spawn(move || {
            let authorized = match &token {
                Some(token) => gate_connection(&transport, token),
                None => true,
            };
            if authorized {
                if let Ok(count) = run_shard_worker(&transport, &options) {
                    served.fetch_add(count as u64, Ordering::Relaxed);
                }
            }
            active.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

impl ShardPool {
    /// Serves shard workers on a bound TCP listener.
    ///
    /// With a `token`, every connection must open with a matching
    /// [`RequestBody::Handshake`] frame before any work item is served;
    /// mismatches are answered [`ServiceError::Unauthorized`] and the
    /// connection is closed. This is the in-process form of
    /// `kvcc-shardd --token`. See [`crate::wire::transport::authenticate`]
    /// for the client side.
    pub fn serve_tcp(
        listener: TcpListener,
        socket_options: SocketOptions,
        worker_options: KvccOptions,
        max_connections: usize,
        token: Option<String>,
    ) -> io::Result<ShardPool> {
        let addr = PoolAddr::Tcp(listener.local_addr()?);
        Ok(ShardPool::spawn(
            addr,
            worker_options,
            max_connections,
            token,
            move || {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                TcpTransport::from_stream(stream, socket_options)
            },
        ))
    }

    /// Serves shard workers on a bound Unix-socket listener; same contract
    /// as [`ShardPool::serve_tcp`].
    pub fn serve_unix(
        listener: UnixListener,
        socket_options: SocketOptions,
        worker_options: KvccOptions,
        max_connections: usize,
        token: Option<String>,
    ) -> io::Result<ShardPool> {
        let path = listener
            .local_addr()?
            .as_pathname()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "shard pools need a pathname-bound unix listener",
                )
            })?
            .to_path_buf();
        Ok(ShardPool::spawn(
            PoolAddr::Unix(path),
            worker_options,
            max_connections,
            token,
            move || UnixTransport::from_stream(listener.accept()?.0, socket_options),
        ))
    }

    /// Starts the accept thread over `accept`, the one part (with `addr`)
    /// in which the socket families differ.
    fn spawn<T: Transport + 'static>(
        addr: PoolAddr,
        worker_options: KvccOptions,
        max_connections: usize,
        token: Option<String>,
        accept: impl FnMut() -> io::Result<T> + Send + 'static,
    ) -> ShardPool {
        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                accept_loop(
                    &shutdown,
                    &served,
                    max_connections,
                    &worker_options,
                    token.as_deref(),
                    accept,
                );
            })
        };
        ShardPool {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            served,
        }
    }

    /// The TCP address the pool accepts on (`None` for Unix-socket pools).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.addr {
            PoolAddr::Tcp(addr) => Some(*addr),
            PoolAddr::Unix(_) => None,
        }
    }

    /// Total work items served across all connections so far.
    pub fn items_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops accepting and joins the accept thread. Connections already
    /// being served run until their peers hang up.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        match &self.addr {
            PoolAddr::Tcp(addr) => {
                let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
            }
            PoolAddr::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{QueryResponse, Request, RequestBody, Response, ResponseBody};
    use crate::wire::transport::call;
    use crate::wire::CsrWorkItem;
    use kvcc_graph::CsrGraph;

    fn work_item() -> CsrWorkItem {
        let graph =
            CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        CsrWorkItem::new(graph, vec![10, 11, 12, 13, 14])
    }

    fn expect_components(response: &Response) -> usize {
        match &response.body {
            ResponseBody::Query(QueryResponse::Components(c)) => c.len(),
            other => panic!("expected components, got {other:?}"),
        }
    }

    #[test]
    fn tcp_round_trip_through_a_shard_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ShardPool::serve_tcp(
            listener,
            SocketOptions::default(),
            KvccOptions::default(),
            4,
            None,
        )
        .unwrap();
        let addr = pool.local_addr().unwrap();
        let transport = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
        let response = call(
            &transport,
            &Request {
                request_id: 9,
                deadline_hint_ms: None,
                body: RequestBody::WorkItem {
                    k: 2,
                    item: work_item(),
                },
            },
        )
        .unwrap();
        assert_eq!(response.request_id, 9);
        assert_eq!(expect_components(&response), 2);
        drop(transport);
    }

    #[test]
    fn unix_round_trip_through_a_shard_pool() {
        let dir = std::env::temp_dir().join(format!("kvcc-shardd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("worker.sock");
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
        let transport = UnixTransport::connect(&path, SocketOptions::default()).unwrap();
        let response = call(
            &transport,
            &Request {
                request_id: 3,
                deadline_hint_ms: None,
                body: RequestBody::WorkItem {
                    k: 2,
                    item: work_item(),
                },
            },
        )
        .unwrap();
        assert_eq!(expect_components(&response), 2);
        drop(transport);
        drop(pool);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn token_armed_pool_rejects_mismatches_and_serves_after_handshake() {
        use crate::wire::transport::{authenticate, call_with, CallOptions};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let pool = ShardPool::serve_tcp(
            listener,
            SocketOptions::default(),
            KvccOptions::default(),
            4,
            Some("hunter2".into()),
        )
        .unwrap();
        let addr = pool.local_addr().unwrap();

        // Wrong token: a clean, decodable Unauthorized — not a desync.
        let bad = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
        assert_eq!(authenticate(&bad, "wrong"), Err(ServiceError::Unauthorized));

        // Skipping the handshake entirely is rejected the same way, with
        // the offending request's id echoed.
        let sneaky = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
        let rejected = call_with(
            &sneaky,
            &Request {
                request_id: 8,
                deadline_hint_ms: None,
                body: RequestBody::WorkItem {
                    k: 2,
                    item: work_item(),
                },
            },
            &CallOptions {
                max_attempts: 1,
                ..CallOptions::default()
            },
        )
        .unwrap();
        assert_eq!(rejected.request_id, 8);
        match rejected.body {
            ResponseBody::Query(QueryResponse::Error(ServiceError::Unauthorized)) => {}
            other => panic!("expected unauthorized, got {other:?}"),
        }

        // The right token opens the connection for real work.
        let good = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
        authenticate(&good, "hunter2").unwrap();
        let response = call(
            &good,
            &Request {
                request_id: 2,
                deadline_hint_ms: None,
                body: RequestBody::WorkItem {
                    k: 2,
                    item: work_item(),
                },
            },
        )
        .unwrap();
        assert_eq!(expect_components(&response), 2);
    }

    #[test]
    fn recv_timeout_fires_on_a_silent_tcp_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept but never answer.
        let silent = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let transport = TcpTransport::connect(addr, SocketOptions::default()).unwrap();
        let _held = silent.join().unwrap().unwrap();
        assert_eq!(
            transport.recv_timeout(Duration::from_millis(25)),
            Err(TransportError::TimedOut)
        );
        // Retryable by classification — the connection is still fine.
        assert!(TransportError::TimedOut.is_retryable());
    }

    #[test]
    fn refused_connection_is_an_error_not_a_hang() {
        // Bind-then-drop leaves a port nothing listens on.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(TcpTransport::connect(addr, SocketOptions::default()).is_err());
    }
}
