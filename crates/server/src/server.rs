//! The TCP front end: listener, bounded worker pool, request
//! dispatch, graceful shutdown.
//!
//! Threading model: one non-blocking accept loop feeds accepted
//! connections into a bounded crossbeam channel; `workers` threads
//! each own one connection at a time and run its request loop to
//! completion (connection-per-worker, queued overflow). When the
//! queue is full the connection is refused with a `Busy` frame rather
//! than left to time out. Dispatch is wrapped in `catch_unwind` so a
//! panic that escapes the RAE runtime downgrades to an `Internal`
//! error response instead of wedging a pool thread.
//!
//! Shutdown: [`Server::request_shutdown`] (or the `Shutdown` admin
//! op, or SIGINT via [`sigint_installed`]) flips a flag; the accept
//! loop rejects new and queued connections with a `ShuttingDown`
//! frame, workers finish the request in flight (and give up on a
//! frame the client has only half sent) and then say
//! `ShuttingDown` before closing, and [`Server::shutdown`] joins
//! everything and flushes/unmounts every volume.

use crate::volume::{Volume, VolumeManager, VolumeSpec};
use crate::wire::{
    self, effect_from_code, site_from_code, status_code, write_frame, AdminOp, FsOp, Reply,
    Request, Response, ServerError,
};
use rae_faults::{BugSpec, Trigger};
use rae_telemetry::EventKind;
use rae_vfs::FsError;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker pool and transport knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time; arriving
    /// connections beyond `workers + queue` get a `Busy` frame).
    pub workers: usize,
    /// Bounded connection queue depth in front of the pool.
    pub queue: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 8,
            queue: 16,
        }
    }
}

/// What a graceful shutdown drained and flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests served over the server's lifetime.
    pub requests: u64,
    /// Volumes flushed and unmounted.
    pub volumes_unmounted: usize,
    /// Whether every volume unmounted cleanly (sole-owner unmount, no
    /// flush errors).
    pub all_clean: bool,
}

struct Shared {
    manager: Arc<VolumeManager>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
}

/// A running storage server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving volumes
    /// from `manager`.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(
        addr: &str,
        manager: Arc<VolumeManager>,
        config: &ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            manager,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let (tx, rx) = crossbeam::channel::bounded::<TcpStream>(config.queue.max(1));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rae-server-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn worker")
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("rae-server-accept".to_string())
            .spawn(move || accept_loop(&listener, &tx, &accept_shared))
            .expect("spawn accept loop");
        Ok(Server {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The volume manager behind this server.
    #[must_use]
    pub fn manager(&self) -> &Arc<VolumeManager> {
        &self.shared.manager
    }

    /// Flip the shutdown flag: stop accepting, start draining. The
    /// first flip (only) records [`EventKind::ShutdownBegin`] so the
    /// timeline marks where the drain started.
    pub fn request_shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            self.shared
                .manager
                .telemetry()
                .event(EventKind::ShutdownBegin, 1, 0, 0);
        }
    }

    /// Whether shutdown has been requested (by us, a client's
    /// `Shutdown` op, or a signal path that called
    /// [`Server::request_shutdown`]).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests served so far.
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: drain in-flight requests, join the pool,
    /// flush and unmount every volume.
    ///
    /// # Errors
    ///
    /// Volume flush failures (the pool is already down and every
    /// volume has still been retired when this returns an error).
    pub fn shutdown(mut self) -> Result<ShutdownReport, FsError> {
        self.request_shutdown();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let connections = self.shared.connections.load(Ordering::Relaxed);
        let requests = self.shared.requests.load(Ordering::Relaxed);
        let unmounted = self.shared.manager.unmount_all();
        let (volumes_unmounted, all_clean) = match &unmounted {
            Ok((n, clean)) => (*n, *clean),
            Err(_) => (0, false),
        };
        self.shared.manager.telemetry().event(
            EventKind::ServerShutdown,
            connections,
            volumes_unmounted as u64,
            0,
        );
        unmounted?;
        Ok(ShutdownReport {
            connections,
            requests,
            volumes_unmounted,
            all_clean,
        })
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &crossbeam::channel::Sender<TcpStream>,
    shared: &Shared,
) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
                let t = shared.manager.telemetry();
                t.event(EventKind::ClientConnected, conn, 0, 0);
                let _ = stream.set_nodelay(true);
                if shared.shutdown.load(Ordering::SeqCst) {
                    t.event(EventKind::ConnAccepted, conn, 0, 0);
                    refuse(stream, &ServerError::ShuttingDown);
                    return;
                }
                match tx.try_send(stream) {
                    Ok(()) => t.event(EventKind::ConnAccepted, conn, 1, 0),
                    Err(err) => {
                        // queue full (or workers gone): refuse politely
                        t.event(EventKind::ConnAccepted, conn, 0, 0);
                        let stream = match err {
                            crossbeam::channel::TrySendError::Full(s)
                            | crossbeam::channel::TrySendError::Disconnected(s) => s,
                        };
                        refuse(stream, &ServerError::Busy);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn refuse(stream: TcpStream, err: &ServerError) {
    let mut stream = stream;
    let _ = write_frame(&mut stream, &Response::ServerErr(err.clone()).encode());
}

fn worker_loop(rx: &crossbeam::channel::Receiver<TcpStream>, shared: &Shared) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(stream) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    refuse(stream, &ServerError::ShuttingDown);
                    continue;
                }
                serve_connection(stream, shared);
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // drain whatever is still queued, then exit
                    while let Ok(stream) = rx.try_recv() {
                        refuse(stream, &ServerError::ShuttingDown);
                    }
                    return;
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // a short read timeout lets the worker look at the shutdown flag
    // while it waits, between frames and inside one
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let running = || !shared.shutdown.load(Ordering::SeqCst);
    let mut served = 0u64;
    // ConnClosed reason codes: 0 eof, 1 transport error, 2 shutdown,
    // 3 bad frame (see the EventKind schema table); the connection's
    // last word, if any, goes out just before it closes
    let (close_reason, last_word) = loop {
        if !running() {
            break (2, Some(ServerError::ShuttingDown));
        }
        let body = match wire::read_frame(&mut stream, running) {
            Ok(Some(body)) => body,
            Ok(None) => break (0, None),
            Err(e) if e.kind() == ErrorKind::TimedOut => {
                break (2, Some(ServerError::ShuttingDown));
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => break (3, Some(bad_frame(e))),
            Err(_) => break (1, None),
        };
        // a malformed frame poisons the stream position: answer once,
        // then close the connection
        let (request, ctx) = match Request::decode_traced(&body) {
            Ok(decoded) => decoded,
            Err(e) => break (3, Some(bad_frame(e.0))),
        };
        served += 1;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        // The trace id travels the rest of the way through the
        // per-thread cell: every flight-recorder event the request's
        // layers record is stamped with it.
        if let Some(ctx) = ctx {
            rae_telemetry::set_current_trace(ctx.trace_id);
        }
        let response = handle_request(request, shared);
        rae_telemetry::clear_current_trace();
        if write_frame(&mut stream, &response.encode()).is_err() {
            break (1, None);
        }
    };
    if let Some(err) = last_word {
        let _ = write_frame(&mut stream, &Response::ServerErr(err).encode());
    }
    let t = shared.manager.telemetry();
    t.event(EventKind::ClientDisconnected, 0, served, 0);
    t.event(EventKind::ConnClosed, served, close_reason, 0);
}

fn bad_frame(reason: impl ToString) -> ServerError {
    ServerError::BadFrame {
        reason: reason.to_string(),
    }
}

fn handle_request(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Ping => Response::Ok(Reply::Pong),
        Request::Negotiate { version } => {
            Response::Ok(Reply::Version(version.min(wire::PROTOCOL_VERSION)))
        }
        Request::Fs { volume, op } => {
            let Some(vol) = shared.manager.get(volume) else {
                return Response::ServerErr(ServerError::NoSuchVolume { volume });
            };
            let class = Volume::class_of(&op);
            if let Err(e) = vol.charge(Volume::bytes_of(&op)) {
                let t = shared.manager.telemetry();
                t.event(EventKind::QuotaExceeded, u64::from(volume), class.code(), 0);
                t.event(
                    EventKind::QuotaRefused,
                    u64::from(volume),
                    vol.ops_used(),
                    vol.bytes_used(),
                );
                return Response::ServerErr(e);
            }
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| vol.apply(&op)));
            vol.observe_request(class, t0.elapsed().as_nanos() as u64);
            match result {
                Ok(Ok(reply)) => Response::Ok(reply),
                Ok(Err(e)) => Response::Err(e),
                // RAE catches injected panics at its API boundary; this
                // is the server's own backstop so a pool thread can
                // never die of one that slips through
                Err(_) => Response::Err(FsError::Internal {
                    detail: "request dispatch panicked".to_string(),
                }),
            }
        }
        Request::Admin(op) => handle_admin(op, shared),
    }
}

fn handle_admin(op: AdminOp, shared: &Shared) -> Response {
    let manager = &shared.manager;
    match op {
        AdminOp::CreateVolume {
            name,
            blocks,
            inodes,
            journal,
            max_ops,
            max_bytes,
        } => {
            let spec = VolumeSpec {
                name,
                blocks,
                inodes,
                journal,
                quota: crate::volume::QuotaSpec { max_ops, max_bytes },
            };
            match manager.create(&spec) {
                Ok(id) => Response::Ok(Reply::VolumeId(id)),
                Err(e) => Response::Err(e),
            }
        }
        AdminOp::UnmountVolume { volume } => match manager.unmount(volume) {
            Ok(clean) => Response::Ok(Reply::Status(u8::from(!clean))),
            Err(FsError::NotFound) => Response::ServerErr(ServerError::NoSuchVolume { volume }),
            Err(e) => Response::Err(e),
        },
        AdminOp::ListVolumes => Response::Ok(Reply::Volumes(manager.list())),
        AdminOp::VolumeStats { volume } => match manager.get(volume) {
            Some(vol) => Response::Ok(Reply::Str(vol.stats_json())),
            None => Response::ServerErr(ServerError::NoSuchVolume { volume }),
        },
        AdminOp::InjectFault {
            volume,
            site,
            effect,
            nth,
        } => {
            let Some(vol) = manager.get(volume) else {
                return Response::ServerErr(ServerError::NoSuchVolume { volume });
            };
            let (Some(site), Some(effect)) = (site_from_code(site), effect_from_code(effect))
            else {
                return Response::ServerErr(ServerError::BadFrame {
                    reason: "inject site/effect code".to_string(),
                });
            };
            let id = vol.next_bug_id();
            let trigger = if nth == 0 {
                Trigger::Always
            } else {
                Trigger::NthMatch(nth)
            };
            vol.faults().arm(BugSpec::new(
                id,
                format!("wire-injected-{id}"),
                site,
                trigger,
                effect,
            ));
            Response::Ok(Reply::BugId(id))
        }
        AdminOp::ForceRecover { volume } => match manager.get(volume) {
            Some(vol) => Response::Ok(Reply::Status(status_code(vol.force_recover()))),
            None => Response::ServerErr(ServerError::NoSuchVolume { volume }),
        },
        AdminOp::ServerStats => {
            let vols = manager.list();
            let handles: Vec<_> = vols.iter().filter_map(|v| manager.get(v.id)).collect();
            let pairs: Vec<(&str, &rae::RaeFs, crate::volume::TenantCounters)> = handles
                .iter()
                .map(|v| (v.name.as_str(), v.fs(), v.tenant_counters()))
                .collect();
            Response::Ok(Reply::Str(crate::volume::volumes_stats_json(&pairs)))
        }
        AdminOp::Shutdown => {
            if !shared.shutdown.swap(true, Ordering::SeqCst) {
                manager.telemetry().event(EventKind::ShutdownBegin, 0, 0, 0);
            }
            Response::Ok(Reply::Unit)
        }
        AdminOp::Scrape { json } => Response::Ok(Reply::Str(if json {
            manager.scrape_json()
        } else {
            manager.scrape_prometheus()
        })),
    }
}

/// Validate that an `FsOp` is reachable from the wire (used by the
/// protocol fuzz tests; `Request::decode` already rejects the
/// non-servable opcodes).
#[must_use]
pub fn is_servable(op: &FsOp) -> bool {
    !matches!(
        op.kind(),
        rae_vfs::OpKind::Create | rae_vfs::OpKind::Mount | rae_vfs::OpKind::RestoreFd
    )
}

// ---------------------------------------------------------------------
// SIGINT plumbing for the CLI `serve` command.
//
// The vendor tree has no `libc` crate, so the one C symbol needed is
// declared directly. The handler only stores to an `AtomicBool`,
// which is async-signal-safe.

#[cfg(unix)]
#[allow(unsafe_code)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TRIGGERED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub fn install() -> bool {
        const SIGINT: i32 = 2;
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: installing a handler that only touches an atomic.
        let prev = unsafe { signal(SIGINT, on_sigint as *const () as usize) };
        prev != SIG_ERR
    }

    pub fn triggered() -> bool {
        TRIGGERED.load(Ordering::SeqCst)
    }
}

/// Install a SIGINT handler that records the signal (the CLI `serve`
/// loop polls [`sigint_triggered`] and runs a graceful shutdown).
/// Returns whether installation succeeded; on non-Unix targets this
/// is a no-op returning `false`.
pub fn sigint_installed() -> bool {
    #[cfg(unix)]
    {
        sigint::install()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// Whether SIGINT has arrived since [`sigint_installed`].
#[must_use]
pub fn sigint_triggered() -> bool {
    #[cfg(unix)]
    {
        sigint::triggered()
    }
    #[cfg(not(unix))]
    {
        false
    }
}
