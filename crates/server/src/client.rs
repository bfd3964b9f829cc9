//! A blocking typed client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at
//! a time (the protocol is strictly request/response per connection;
//! concurrency comes from opening more connections, which is exactly
//! what the load generator does).

use crate::wire::{
    read_frame, write_frame, AdminOp, FsOp, Reply, Request, Response, ServerError, VolumeInfo,
    PROTOCOL_VERSION,
};
use rae_telemetry::TraceCtx;
use rae_vfs::{DirEntry, Fd, FileStat, FsError, FsGeometryInfo, OpenFlags, SetAttr};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The volume's filesystem refused the operation.
    Fs(FsError),
    /// The service refused the request (quota, shutdown, bad frame…).
    Server(ServerError),
    /// Transport failure (connection reset, refused, truncated frame).
    Io(std::io::Error),
    /// The peer answered with a frame the client cannot interpret
    /// (codec mismatch or an unexpected reply variant).
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Fs(e) => write!(f, "filesystem error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FsError> for ClientError {
    fn from(e: FsError) -> ClientError {
        ClientError::Fs(e)
    }
}

impl ClientError {
    /// Whether the failure is the server refusing service (quota or
    /// shutdown) rather than an operation outcome.
    #[must_use]
    pub fn is_service_refusal(&self) -> bool {
        matches!(
            self,
            ClientError::Server(ServerError::QuotaExceeded { .. })
                | ClientError::Server(ServerError::ShuttingDown)
                | ClientError::Server(ServerError::Busy)
        )
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// One connection to the storage server.
pub struct Client {
    stream: TcpStream,
    /// Trace context stamped on every subsequent request frame (v2
    /// extension). `None` — the default — emits plain v1 frames.
    trace: Option<TraceCtx>,
    /// Peer protocol version, if negotiated. Setting a trace context
    /// without a negotiated v2 peer is allowed but will be rejected by
    /// v1 servers.
    peer_version: Option<u32>,
}

impl Client {
    /// Connect to the server.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            trace: None,
            peer_version: None,
        })
    }

    /// Negotiate the protocol version with the server. Returns the
    /// version both sides speak: v1 peers reject the probe frame, which
    /// this treats as a clean v1 answer (trace contexts then stay off
    /// the wire). Ping/negotiate frames themselves are never traced.
    ///
    /// # Errors
    ///
    /// Transport failures only; an old server is not an error.
    pub fn negotiate(&mut self) -> ClientResult<u32> {
        match self.call(&Request::Negotiate {
            version: PROTOCOL_VERSION,
        }) {
            Ok(Response::Ok(Reply::Version(v))) => {
                let v = v.min(PROTOCOL_VERSION);
                self.peer_version = Some(v);
                Ok(v)
            }
            // A v1 server answers the unknown opcode with a server
            // error (bad frame / unsupported); treat it as "speaks v1".
            Ok(_) => {
                self.peer_version = Some(1);
                Ok(1)
            }
            Err(ClientError::Io(e)) => Err(ClientError::Io(e)),
            Err(_) => {
                self.peer_version = Some(1);
                Ok(1)
            }
        }
    }

    /// The negotiated peer version, if [`Client::negotiate`] ran.
    #[must_use]
    pub fn peer_version(&self) -> Option<u32> {
        self.peer_version
    }

    /// Attach a trace context to every subsequent request (or clear
    /// it with `None`). Ignored — left off the wire — when the peer
    /// negotiated v1.
    pub fn set_trace(&mut self, ctx: Option<TraceCtx>) {
        self.trace = ctx;
    }

    /// Issue one raw request and read its response.
    ///
    /// # Errors
    ///
    /// Transport and decode failures (filesystem/server errors are
    /// *values* here; the typed wrappers turn them into errors).
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        let ctx = match self.peer_version {
            Some(v) if v >= 2 => self.trace,
            Some(_) => None,
            None => self.trace,
        };
        write_frame(&mut self.stream, &request.encode_traced(ctx))?;
        // the socket has no read timeout, so the reader never asks
        // whether to keep waiting
        let Some(body) = read_frame(&mut self.stream, || true)? else {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        };
        Response::decode(&body).map_err(|e| ClientError::Protocol(e.0))
    }

    fn expect(&mut self, request: &Request) -> ClientResult<Reply> {
        match self.call(request)? {
            Response::Ok(reply) => Ok(reply),
            Response::Err(e) => Err(ClientError::Fs(e)),
            Response::ServerErr(e) => Err(ClientError::Server(e)),
        }
    }

    fn fs(&mut self, volume: u32, op: FsOp) -> ClientResult<Reply> {
        self.expect(&Request::Fs { volume, op })
    }

    /// Connectivity probe.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.expect(&Request::Ping)? {
            Reply::Pong => Ok(()),
            _ => Err(ClientError::Protocol("expected pong")),
        }
    }

    /// Open a file on `volume`.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn open(&mut self, volume: u32, path: &str, flags: OpenFlags) -> ClientResult<Fd> {
        match self.fs(
            volume,
            FsOp::Open {
                path: path.to_string(),
                flags,
            },
        )? {
            Reply::Fd(fd) => Ok(Fd(fd)),
            _ => Err(ClientError::Protocol("expected fd")),
        }
    }

    /// Close a descriptor.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn close(&mut self, volume: u32, fd: Fd) -> ClientResult<()> {
        self.unit(volume, FsOp::Close { fd })
    }

    /// Read up to `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn read(&mut self, volume: u32, fd: Fd, offset: u64, len: u32) -> ClientResult<Vec<u8>> {
        match self.fs(volume, FsOp::Read { fd, offset, len })? {
            Reply::Data(data) => Ok(data),
            _ => Err(ClientError::Protocol("expected data")),
        }
    }

    /// Write `data` at `offset`; returns bytes accepted.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn write(&mut self, volume: u32, fd: Fd, offset: u64, data: &[u8]) -> ClientResult<u32> {
        match self.fs(
            volume,
            FsOp::Write {
                fd,
                offset,
                data: data.to_vec(),
            },
        )? {
            Reply::Written(n) => Ok(n),
            _ => Err(ClientError::Protocol("expected written")),
        }
    }

    /// Truncate/extend to `size`.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn truncate(&mut self, volume: u32, fd: Fd, size: u64) -> ClientResult<()> {
        self.unit(volume, FsOp::Truncate { fd, size })
    }

    /// Apply attribute changes.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn setattr(&mut self, volume: u32, path: &str, attr: SetAttr) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::SetAttr {
                path: path.to_string(),
                attr,
            },
        )
    }

    /// Make one file durable.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn fsync(&mut self, volume: u32, fd: Fd) -> ClientResult<()> {
        self.unit(volume, FsOp::Fsync { fd })
    }

    /// Make the whole volume durable.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn sync(&mut self, volume: u32) -> ClientResult<()> {
        self.unit(volume, FsOp::Sync)
    }

    /// Create a directory.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn mkdir(&mut self, volume: u32, path: &str) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::Mkdir {
                path: path.to_string(),
            },
        )
    }

    /// Remove an empty directory.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn rmdir(&mut self, volume: u32, path: &str) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::Rmdir {
                path: path.to_string(),
            },
        )
    }

    /// Remove a file or symlink.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn unlink(&mut self, volume: u32, path: &str) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::Unlink {
                path: path.to_string(),
            },
        )
    }

    /// Rename.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn rename(&mut self, volume: u32, from: &str, to: &str) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::Rename {
                from: from.to_string(),
                to: to.to_string(),
            },
        )
    }

    /// Hard link.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn link(&mut self, volume: u32, existing: &str, new: &str) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::Link {
                existing: existing.to_string(),
                new: new.to_string(),
            },
        )
    }

    /// Symbolic link.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn symlink(&mut self, volume: u32, target: &str, linkpath: &str) -> ClientResult<()> {
        self.unit(
            volume,
            FsOp::Symlink {
                target: target.to_string(),
                linkpath: linkpath.to_string(),
            },
        )
    }

    /// Read a symlink's target.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn readlink(&mut self, volume: u32, path: &str) -> ClientResult<String> {
        match self.fs(
            volume,
            FsOp::Readlink {
                path: path.to_string(),
            },
        )? {
            Reply::Str(s) => Ok(s),
            _ => Err(ClientError::Protocol("expected string")),
        }
    }

    /// Stat by path.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn stat(&mut self, volume: u32, path: &str) -> ClientResult<FileStat> {
        match self.fs(
            volume,
            FsOp::Stat {
                path: path.to_string(),
            },
        )? {
            Reply::Stat(st) => Ok(st),
            _ => Err(ClientError::Protocol("expected stat")),
        }
    }

    /// Stat by descriptor.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn fstat(&mut self, volume: u32, fd: Fd) -> ClientResult<FileStat> {
        match self.fs(volume, FsOp::Fstat { fd })? {
            Reply::Stat(st) => Ok(st),
            _ => Err(ClientError::Protocol("expected stat")),
        }
    }

    /// List a directory.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn readdir(&mut self, volume: u32, path: &str) -> ClientResult<Vec<DirEntry>> {
        match self.fs(
            volume,
            FsOp::Readdir {
                path: path.to_string(),
            },
        )? {
            Reply::Entries(entries) => Ok(entries),
            _ => Err(ClientError::Protocol("expected entries")),
        }
    }

    /// Volume geometry/free-space summary.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn statfs(&mut self, volume: u32) -> ClientResult<FsGeometryInfo> {
        match self.fs(volume, FsOp::Statfs)? {
            Reply::Geometry(g) => Ok(g),
            _ => Err(ClientError::Protocol("expected geometry")),
        }
    }

    // -- admin ---------------------------------------------------------

    /// Create, format, and mount a new volume; returns its id.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    #[allow(clippy::too_many_arguments)]
    pub fn create_volume(
        &mut self,
        name: &str,
        blocks: u32,
        inodes: u32,
        journal: u32,
        max_ops: u64,
        max_bytes: u64,
    ) -> ClientResult<u32> {
        match self.expect(&Request::Admin(AdminOp::CreateVolume {
            name: name.to_string(),
            blocks,
            inodes,
            journal,
            max_ops,
            max_bytes,
        }))? {
            Reply::VolumeId(id) => Ok(id),
            _ => Err(ClientError::Protocol("expected volume id")),
        }
    }

    /// Flush and unmount one volume. Returns `true` if clean.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn unmount_volume(&mut self, volume: u32) -> ClientResult<bool> {
        match self.expect(&Request::Admin(AdminOp::UnmountVolume { volume }))? {
            Reply::Status(dirty) => Ok(dirty == 0),
            _ => Err(ClientError::Protocol("expected status")),
        }
    }

    /// List mounted volumes.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn list_volumes(&mut self) -> ClientResult<Vec<VolumeInfo>> {
        match self.expect(&Request::Admin(AdminOp::ListVolumes))? {
            Reply::Volumes(vols) => Ok(vols),
            _ => Err(ClientError::Protocol("expected volumes")),
        }
    }

    /// Per-volume stats JSON.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn volume_stats(&mut self, volume: u32) -> ClientResult<String> {
        match self.expect(&Request::Admin(AdminOp::VolumeStats { volume }))? {
            Reply::Str(json) => Ok(json),
            _ => Err(ClientError::Protocol("expected stats json")),
        }
    }

    /// Arm an injected bug on one volume; returns the bug id.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn inject_fault(
        &mut self,
        volume: u32,
        site: u8,
        effect: u8,
        nth: u64,
    ) -> ClientResult<u32> {
        match self.expect(&Request::Admin(AdminOp::InjectFault {
            volume,
            site,
            effect,
            nth,
        }))? {
            Reply::BugId(id) => Ok(id),
            _ => Err(ClientError::Protocol("expected bug id")),
        }
    }

    /// Trigger a recovery cycle; returns the volume's status code.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn force_recover(&mut self, volume: u32) -> ClientResult<u8> {
        match self.expect(&Request::Admin(AdminOp::ForceRecover { volume }))? {
            Reply::Status(code) => Ok(code),
            _ => Err(ClientError::Protocol("expected status")),
        }
    }

    /// Server-wide stats JSON (all volumes keyed by name).
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn server_stats(&mut self) -> ClientResult<String> {
        match self.expect(&Request::Admin(AdminOp::ServerStats))? {
            Reply::Str(json) => Ok(json),
            _ => Err(ClientError::Protocol("expected stats json")),
        }
    }

    /// Scrape the per-tenant metrics plane: Prometheus text exposition
    /// format by default, the JSON mirror with `json = true`.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn scrape(&mut self, json: bool) -> ClientResult<String> {
        match self.expect(&Request::Admin(AdminOp::Scrape { json }))? {
            Reply::Str(text) => Ok(text),
            _ => Err(ClientError::Protocol("expected metrics text")),
        }
    }

    /// Ask the server to begin a graceful shutdown.
    ///
    /// # Errors
    ///
    /// [`ClientError`].
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        match self.expect(&Request::Admin(AdminOp::Shutdown))? {
            Reply::Unit => Ok(()),
            _ => Err(ClientError::Protocol("expected unit")),
        }
    }

    fn unit(&mut self, volume: u32, op: FsOp) -> ClientResult<()> {
        match self.fs(volume, op)? {
            Reply::Unit => Ok(()),
            _ => Err(ClientError::Protocol("expected unit")),
        }
    }
}
