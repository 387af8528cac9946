//! `kvcc-shardd` — a standalone shard-worker daemon.
//!
//! Listens on a TCP address (`--listen`) or a Unix socket (`--unix`) and
//! serves `KVCC-ENUM` work items over the framed wire protocol: each
//! accepted connection gets a thread running the byte-driven shard worker
//! loop, so a coordinator process ([`kvcc_service::ServiceEngine::
//! enumerate_sharded`] over [`kvcc_service::TcpTransport`]s) can spread an
//! enumeration across real processes and machines. The daemon holds no
//! graph state — every item arrives self-contained inside a frame — which
//! is what makes it safe to kill and restart at any time: the coordinator
//! requeues whatever the dead worker was holding.
//!
//! ```text
//! kvcc-shardd --listen 0.0.0.0:7311 --threads 4 --max-connections 64
//! kvcc-shardd --unix /run/kvcc/shard.sock --token s3cret
//! ```

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::process::ExitCode;

use kvcc_service::{KvccOptions, ShardPool, SocketOptions};

/// Parsed command line.
struct Args {
    listen: Option<String>,
    unix: Option<String>,
    threads: usize,
    max_connections: usize,
    token: Option<String>,
}

fn usage() -> &'static str {
    "usage: kvcc-shardd (--listen ADDR | --unix PATH) [--threads N] [--max-connections N] [--token SECRET]\n\
     \n\
     Serves k-VCC enumeration work items over the framed wire protocol.\n\
     \n\
     options:\n\
     \x20 --listen ADDR          TCP address to accept on (e.g. 127.0.0.1:7311)\n\
     \x20 --unix PATH            Unix socket path to accept on\n\
     \x20 --threads N            worker threads per enumeration (default 1; 0 = all cores)\n\
     \x20 --max-connections N    concurrent connection cap (default 64)\n\
     \x20 --token SECRET         require a matching handshake frame on every\n\
     \x20                        connection before serving (mismatch: clean\n\
     \x20                        'unauthorized' error, connection closed)"
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        unix: None,
        threads: 1,
        max_connections: 64,
        token: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = Some(value("--listen")?),
            "--unix" => args.unix = Some(value("--unix")?),
            "--token" => args.token = Some(value("--token")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a non-negative integer".to_string())?;
            }
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|_| "--max-connections needs a positive integer".to_string())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    match (&args.listen, &args.unix) {
        (None, None) => Err("one of --listen or --unix is required".into()),
        (Some(_), Some(_)) => Err("--listen and --unix are mutually exclusive".into()),
        _ if args.max_connections == 0 => Err("--max-connections must be at least 1".into()),
        _ => Ok(args),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("kvcc-shardd: {message}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let options = KvccOptions::default().with_threads(args.threads);
    let socket_options = SocketOptions::default();
    let pool = if let Some(addr) = &args.listen {
        match TcpListener::bind(addr) {
            Ok(listener) => {
                match ShardPool::serve_tcp(
                    listener,
                    socket_options,
                    options,
                    args.max_connections,
                    args.token.clone(),
                ) {
                    Ok(pool) => {
                        eprintln!(
                            "kvcc-shardd: serving on tcp://{} (max {} connections{})",
                            pool.local_addr().expect("tcp pool has an address"),
                            args.max_connections,
                            if args.token.is_some() {
                                ", token-gated"
                            } else {
                                ""
                            }
                        );
                        pool
                    }
                    Err(e) => {
                        eprintln!("kvcc-shardd: failed to start the pool: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("kvcc-shardd: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let path = args.unix.as_deref().expect("parse guarantees one mode");
        match UnixListener::bind(path) {
            Ok(listener) => {
                match ShardPool::serve_unix(
                    listener,
                    socket_options,
                    options,
                    args.max_connections,
                    args.token.clone(),
                ) {
                    Ok(pool) => {
                        eprintln!(
                            "kvcc-shardd: serving on unix:{path} (max {} connections{})",
                            args.max_connections,
                            if args.token.is_some() {
                                ", token-gated"
                            } else {
                                ""
                            }
                        );
                        pool
                    }
                    Err(e) => {
                        eprintln!("kvcc-shardd: failed to start the pool: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("kvcc-shardd: cannot bind {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // Serve until killed; the accept thread owns the listener. Parking the
    // main thread (instead of joining) keeps shutdown-by-signal trivial.
    loop {
        std::thread::park();
        // A spurious unpark changes nothing; report liveness and park again.
        eprintln!("kvcc-shardd: {} work items served", pool.items_served());
    }
}
