//! The length-prefixed binary wire protocol.
//!
//! Every message is a *frame*: a little-endian `u32` body length
//! followed by that many body bytes, capped at [`MAX_FRAME_LEN`].
//! [`write_frame`] sends prefix and body in one write, and both ends
//! read with [`read_frame`], which lets the caller give up on a frame
//! whenever a read times out (the server's workers do at shutdown).
//! Request bodies start with a one-byte opcode; filesystem operations
//! reuse [`rae_vfs::OpKind::code`] as their opcode so the wire
//! vocabulary and the recorded-operation vocabulary cannot drift
//! apart, admin operations start at [`ADMIN_OPCODE_BASE`], and
//! [`PING_OPCODE`] is a connectivity probe.
//!
//! Response bodies start with a one-byte tag: `0` success (a typed
//! [`Reply`]), `1` a specified-or-runtime [`FsError`] (variant code +
//! errno + payload — see [`encode_fs_error`]), `2` a [`ServerError`]
//! (quota, shutdown, bad frame…). The `FsError` mapping is an
//! exhaustive `match` in both directions so adding a variant breaks
//! the build here instead of silently becoming a generic `EIO` on the
//! wire.
//!
//! All integers are little-endian. Strings are `u16`-length-prefixed
//! UTF-8; data blobs are `u32`-length-prefixed.
//!
//! **Protocol v2 — trace-context frame extension.** A client that has
//! negotiated [`PROTOCOL_VERSION`] >= 2 (via [`NEGOTIATE_OPCODE`]) may
//! set [`TRACE_FLAG`] on a request opcode; the flagged opcode is then
//! followed by an 8-byte trace id and a 1-byte span counter before the
//! normal v1 body ([`Request::encode_traced`] /
//! [`Request::decode_traced`]). The flag bit never collides with a
//! valid v1 opcode, so a v1 server rejects a flagged frame as an
//! unknown opcode instead of misreading it — which is exactly how a
//! new client detects an old server and falls back to untraced frames.

use rae_telemetry::TraceCtx;
use rae_vfs::{
    DirEntry, Fd, FileStat, FileType, FsError, FsGeometryInfo, FsStatus, InodeNo, OpKind,
    OpenFlags, SetAttr,
};
use std::io::{Read, Write};

/// Hard cap on a frame body. A volume's block size is 4 KiB and the
/// load generator writes whole files, so 1 MiB leaves ample headroom
/// while bounding what a malicious length prefix can make the server
/// allocate.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// First admin opcode (fs opcodes occupy the [`OpKind::ALL`] range).
pub const ADMIN_OPCODE_BASE: u8 = 64;

/// Opcode of the connectivity probe.
pub const PING_OPCODE: u8 = 255;

/// Highest protocol version this build speaks. Version 1 is the
/// original untraced frame format; version 2 adds the [`TRACE_FLAG`]
/// frame extension.
pub const PROTOCOL_VERSION: u32 = 2;

/// Opcode of the version-negotiation request ([`Request::Negotiate`]).
/// A v1 server rejects it as an unknown opcode, which tells a v2
/// client to stay on the v1 frame format.
pub const NEGOTIATE_OPCODE: u8 = 254;

/// Opcode flag bit marking a traced frame: `opcode | TRACE_FLAG`
/// followed by a `u64` trace id and a `u8` span counter, then the
/// unmodified v1 body. Valid v1 opcodes never carry this bit
/// ([`PING_OPCODE`] and [`NEGOTIATE_OPCODE`] are matched before the
/// flag is tested).
pub const TRACE_FLAG: u8 = 0x80;

/// A malformed body: which field failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// frame I/O

/// Write one frame (length prefix + body) in one `write_all`, so that
/// on a `TCP_NODELAY` socket the frame leaves in one segment and the
/// reader wakes once for it.
///
/// # Errors
///
/// I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME_LEN);
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame body. Returns `Ok(None)` on clean EOF (the peer
/// closed between frames).
///
/// Every read that times out (a socket with a read timeout) asks
/// `keep_waiting` whether to go on, wherever in the frame it is; on
/// `false` the frame is abandoned with `TimedOut`. A reader with no
/// timeout never calls it.
///
/// # Errors
///
/// `UnexpectedEof` for a truncated frame, `InvalidData` for an
/// oversized length prefix, `TimedOut` for an abandoned frame, plus
/// transport errors.
pub fn read_frame(
    r: &mut impl Read,
    mut keep_waiting: impl FnMut() -> bool,
) -> std::io::Result<Option<Vec<u8>>> {
    let truncated = || std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
    let mut hdr = [0u8; 4];
    match fill(r, &mut hdr, &mut keep_waiting)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(truncated()),
    }
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    let mut body = vec![0u8; len];
    if fill(r, &mut body, &mut keep_waiting)? < len {
        return Err(truncated());
    }
    Ok(Some(body))
}

/// Read into `buf` until it is full or the peer closes; returns how
/// many bytes arrived.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    keep_waiting: &mut impl FnMut() -> bool,
) -> std::io::Result<usize> {
    use std::io::ErrorKind;
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !keep_waiting() {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "frame abandoned while waiting for the peer",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

// ---------------------------------------------------------------------
// body encode/decode primitives

/// Byte-at-a-time decoder over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError(what))?;
        if end > self.buf.len() {
            return Err(DecodeError(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.u16(what)? as usize;
        let b = self.take(len, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError(what))
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32(what)? as usize;
        Ok(self.take(len, what)?.to_vec())
    }

    fn done(&self, what: &'static str) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError(what))
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------
// status / site / effect code tables

/// Wire code of an [`FsStatus`].
#[must_use]
pub fn status_code(s: FsStatus) -> u8 {
    match s {
        FsStatus::Active => 0,
        FsStatus::Quiesced => 1,
        FsStatus::Degraded => 2,
        FsStatus::Failed => 3,
    }
}

/// Printable name of a status wire code.
#[must_use]
pub fn status_name(code: u8) -> &'static str {
    match code {
        0 => "active",
        1 => "quiesced",
        2 => "degraded",
        3 => "failed",
        _ => "?",
    }
}

/// Decode a fault-injection site code (index into
/// [`rae_faults::Site::ALL`]).
#[must_use]
pub fn site_from_code(code: u8) -> Option<rae_faults::Site> {
    rae_faults::Site::ALL.get(code as usize).copied()
}

/// Wire code of a fault-injection site.
#[must_use]
pub fn site_code(site: rae_faults::Site) -> u8 {
    rae_faults::Site::ALL
        .iter()
        .position(|&s| s == site)
        .unwrap_or(0) as u8
}

/// Decode a fault effect code.
#[must_use]
pub fn effect_from_code(code: u8) -> Option<rae_faults::Effect> {
    use rae_faults::Effect;
    match code {
        0 => Some(Effect::DetectedError),
        1 => Some(Effect::Panic),
        2 => Some(Effect::Warn),
        3 => Some(Effect::SilentWrongResult),
        4 => Some(Effect::CorruptMetadata),
        _ => None,
    }
}

/// Wire code of a fault effect.
#[must_use]
pub fn effect_code(effect: rae_faults::Effect) -> u8 {
    use rae_faults::Effect;
    match effect {
        Effect::DetectedError => 0,
        Effect::Panic => 1,
        Effect::Warn => 2,
        Effect::SilentWrongResult => 3,
        Effect::CorruptMetadata => 4,
    }
}

// ---------------------------------------------------------------------
// requests

/// A filesystem operation addressed at one volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsOp {
    /// Open (and possibly create) a file.
    Open {
        /// Absolute path.
        path: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// Close a descriptor.
    Close {
        /// Descriptor.
        fd: Fd,
    },
    /// Read `len` bytes at `offset`.
    Read {
        /// Descriptor.
        fd: Fd,
        /// Byte offset.
        offset: u64,
        /// Read length (bounded by [`MAX_FRAME_LEN`] minus framing).
        len: u32,
    },
    /// Write `data` at `offset`.
    Write {
        /// Descriptor.
        fd: Fd,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Truncate/extend to `size`.
    Truncate {
        /// Descriptor.
        fd: Fd,
        /// New size.
        size: u64,
    },
    /// Apply attribute changes.
    SetAttr {
        /// Absolute path.
        path: String,
        /// Changes.
        attr: SetAttr,
    },
    /// Make one file durable.
    Fsync {
        /// Descriptor.
        fd: Fd,
    },
    /// Make the whole volume durable.
    Sync,
    /// Create a directory.
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Absolute path.
        path: String,
    },
    /// Remove a file or symlink.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Hard link.
    Link {
        /// Existing file.
        existing: String,
        /// New link path.
        new: String,
    },
    /// Symbolic link.
    Symlink {
        /// Link target text.
        target: String,
        /// Link path.
        linkpath: String,
    },
    /// Read a symlink's target.
    Readlink {
        /// Absolute path.
        path: String,
    },
    /// Stat by path.
    Stat {
        /// Absolute path.
        path: String,
    },
    /// Stat by descriptor.
    Fstat {
        /// Descriptor.
        fd: Fd,
    },
    /// List a directory.
    Readdir {
        /// Absolute path.
        path: String,
    },
    /// Volume geometry/free-space summary.
    Statfs,
}

impl FsOp {
    /// The [`OpKind`] (and therefore the wire opcode) of this
    /// operation.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            FsOp::Open { .. } => OpKind::Open,
            FsOp::Close { .. } => OpKind::Close,
            FsOp::Read { .. } => OpKind::Read,
            FsOp::Write { .. } => OpKind::Write,
            FsOp::Truncate { .. } => OpKind::Truncate,
            FsOp::SetAttr { .. } => OpKind::SetAttr,
            FsOp::Fsync { .. } => OpKind::Fsync,
            FsOp::Sync => OpKind::Sync,
            FsOp::Mkdir { .. } => OpKind::Mkdir,
            FsOp::Rmdir { .. } => OpKind::Rmdir,
            FsOp::Unlink { .. } => OpKind::Unlink,
            FsOp::Rename { .. } => OpKind::Rename,
            FsOp::Link { .. } => OpKind::Link,
            FsOp::Symlink { .. } => OpKind::Symlink,
            FsOp::Readlink { .. } => OpKind::Readlink,
            FsOp::Stat { .. } => OpKind::Stat,
            FsOp::Fstat { .. } => OpKind::Fstat,
            FsOp::Readdir { .. } => OpKind::Readdir,
            FsOp::Statfs => OpKind::Statfs,
        }
    }
}

/// A management operation (volume lifecycle, introspection, faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminOp {
    /// Create, format, and mount a new volume.
    CreateVolume {
        /// Tenant-visible volume name.
        name: String,
        /// Device size in 4 KiB blocks.
        blocks: u32,
        /// Inode count.
        inodes: u32,
        /// Journal size in blocks.
        journal: u32,
        /// Op quota (0 = unlimited).
        max_ops: u64,
        /// Byte quota for data I/O (0 = unlimited).
        max_bytes: u64,
    },
    /// Flush and unmount one volume.
    UnmountVolume {
        /// Volume id.
        volume: u32,
    },
    /// List mounted volumes.
    ListVolumes,
    /// Per-volume stats (RAE counters + request histograms) as JSON.
    VolumeStats {
        /// Volume id.
        volume: u32,
    },
    /// Arm an injected bug on one volume's fault registry.
    InjectFault {
        /// Volume id.
        volume: u32,
        /// Site wire code ([`site_from_code`]).
        site: u8,
        /// Effect wire code ([`effect_from_code`]).
        effect: u8,
        /// `NthMatch(nth)`; 0 means `Always`.
        nth: u64,
    },
    /// Trigger a recovery cycle on one volume (arms a one-shot
    /// detected error and pokes the volume), returning its status.
    ForceRecover {
        /// Volume id.
        volume: u32,
    },
    /// Server-wide stats (all volumes keyed by name) as JSON.
    ServerStats,
    /// Ask the server to begin a graceful shutdown.
    Shutdown,
    /// Export the per-tenant metrics plane: every volume's telemetry
    /// snapshot plus server-wide counters, as Prometheus text format
    /// (`json = false`) or JSON (`json = true`).
    Scrape {
        /// Response format: Prometheus text exposition or JSON.
        json: bool,
    },
}

impl AdminOp {
    fn opcode(&self) -> u8 {
        ADMIN_OPCODE_BASE
            + match self {
                AdminOp::CreateVolume { .. } => 0,
                AdminOp::UnmountVolume { .. } => 1,
                AdminOp::ListVolumes => 2,
                AdminOp::VolumeStats { .. } => 3,
                AdminOp::InjectFault { .. } => 4,
                AdminOp::ForceRecover { .. } => 5,
                AdminOp::ServerStats => 6,
                AdminOp::Shutdown => 7,
                AdminOp::Scrape { .. } => 8,
            }
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A filesystem operation on `volume`.
    Fs {
        /// Target volume id.
        volume: u32,
        /// The operation.
        op: FsOp,
    },
    /// A management operation.
    Admin(AdminOp),
    /// Connectivity probe.
    Ping,
    /// Protocol version negotiation (v2+): the client offers the
    /// highest version it speaks, the server answers
    /// [`Reply::Version`] with the version to use. Only
    /// [`Request::decode_traced`] accepts it — a v1 server's
    /// [`Request::decode`] rejects the opcode, signalling "old server".
    Negotiate {
        /// Highest protocol version the client speaks.
        version: u32,
    },
}

impl Request {
    /// Encode into a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// The opcode byte (without [`TRACE_FLAG`]).
    fn opcode(&self) -> u8 {
        match self {
            Request::Ping => PING_OPCODE,
            Request::Negotiate { .. } => NEGOTIATE_OPCODE,
            Request::Fs { op, .. } => op.kind().code(),
            Request::Admin(op) => op.opcode(),
        }
    }

    /// Append the fields that follow the opcode.
    fn put_fields(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => {}
            Request::Negotiate { version } => out.extend_from_slice(&version.to_le_bytes()),
            Request::Fs { volume, op } => {
                out.extend_from_slice(&volume.to_le_bytes());
                match op {
                    FsOp::Open { path, flags } => {
                        put_str(out, path);
                        out.extend_from_slice(&flags.bits().to_le_bytes());
                    }
                    FsOp::Close { fd } | FsOp::Fsync { fd } | FsOp::Fstat { fd } => {
                        out.extend_from_slice(&fd.0.to_le_bytes());
                    }
                    FsOp::Read { fd, offset, len } => {
                        out.extend_from_slice(&fd.0.to_le_bytes());
                        out.extend_from_slice(&offset.to_le_bytes());
                        out.extend_from_slice(&len.to_le_bytes());
                    }
                    FsOp::Write { fd, offset, data } => {
                        out.extend_from_slice(&fd.0.to_le_bytes());
                        out.extend_from_slice(&offset.to_le_bytes());
                        put_bytes(out, data);
                    }
                    FsOp::Truncate { fd, size } => {
                        out.extend_from_slice(&fd.0.to_le_bytes());
                        out.extend_from_slice(&size.to_le_bytes());
                    }
                    FsOp::SetAttr { path, attr } => {
                        put_str(out, path);
                        put_opt_u64(out, attr.size);
                        put_opt_u64(out, attr.mtime);
                    }
                    FsOp::Sync | FsOp::Statfs => {}
                    FsOp::Mkdir { path }
                    | FsOp::Rmdir { path }
                    | FsOp::Unlink { path }
                    | FsOp::Readlink { path }
                    | FsOp::Stat { path }
                    | FsOp::Readdir { path } => put_str(out, path),
                    FsOp::Rename { from: a, to: b }
                    | FsOp::Link {
                        existing: a,
                        new: b,
                    }
                    | FsOp::Symlink {
                        target: a,
                        linkpath: b,
                    } => {
                        put_str(out, a);
                        put_str(out, b);
                    }
                }
            }
            Request::Admin(op) => match op {
                AdminOp::CreateVolume {
                    name,
                    blocks,
                    inodes,
                    journal,
                    max_ops,
                    max_bytes,
                } => {
                    put_str(out, name);
                    out.extend_from_slice(&blocks.to_le_bytes());
                    out.extend_from_slice(&inodes.to_le_bytes());
                    out.extend_from_slice(&journal.to_le_bytes());
                    out.extend_from_slice(&max_ops.to_le_bytes());
                    out.extend_from_slice(&max_bytes.to_le_bytes());
                }
                AdminOp::UnmountVolume { volume }
                | AdminOp::VolumeStats { volume }
                | AdminOp::ForceRecover { volume } => {
                    out.extend_from_slice(&volume.to_le_bytes());
                }
                AdminOp::InjectFault {
                    volume,
                    site,
                    effect,
                    nth,
                } => {
                    out.extend_from_slice(&volume.to_le_bytes());
                    out.push(*site);
                    out.push(*effect);
                    out.extend_from_slice(&nth.to_le_bytes());
                }
                AdminOp::Scrape { json } => out.push(u8::from(*json)),
                AdminOp::ListVolumes | AdminOp::ServerStats | AdminOp::Shutdown => {}
            },
        }
    }

    /// Decode a frame body.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for unknown opcodes, truncated fields, trailing
    /// garbage, or invalid field values (bad flag bits, non-UTF-8
    /// strings).
    pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
        let mut c = Cursor::new(body);
        let opcode = c.u8("opcode")?;
        Request::decode_fields(opcode, &mut c)
    }

    /// Decode the v1 fields that follow `opcode`, through the end of
    /// the body.
    fn decode_fields(opcode: u8, c: &mut Cursor<'_>) -> Result<Request, DecodeError> {
        if opcode == PING_OPCODE {
            c.done("ping")?;
            return Ok(Request::Ping);
        }
        if opcode >= ADMIN_OPCODE_BASE {
            let op = match opcode - ADMIN_OPCODE_BASE {
                0 => AdminOp::CreateVolume {
                    name: c.str("create_volume.name")?,
                    blocks: c.u32("create_volume.blocks")?,
                    inodes: c.u32("create_volume.inodes")?,
                    journal: c.u32("create_volume.journal")?,
                    max_ops: c.u64("create_volume.max_ops")?,
                    max_bytes: c.u64("create_volume.max_bytes")?,
                },
                1 => AdminOp::UnmountVolume {
                    volume: c.u32("unmount.volume")?,
                },
                2 => AdminOp::ListVolumes,
                3 => AdminOp::VolumeStats {
                    volume: c.u32("volume_stats.volume")?,
                },
                4 => AdminOp::InjectFault {
                    volume: c.u32("inject.volume")?,
                    site: c.u8("inject.site")?,
                    effect: c.u8("inject.effect")?,
                    nth: c.u64("inject.nth")?,
                },
                5 => AdminOp::ForceRecover {
                    volume: c.u32("force_recover.volume")?,
                },
                6 => AdminOp::ServerStats,
                7 => AdminOp::Shutdown,
                8 => AdminOp::Scrape {
                    json: match c.u8("scrape.format")? {
                        0 => false,
                        1 => true,
                        _ => return Err(DecodeError("scrape.format")),
                    },
                },
                _ => return Err(DecodeError("unknown admin opcode")),
            };
            c.done("admin trailing bytes")?;
            return Ok(Request::Admin(op));
        }
        let Some(kind) = OpKind::from_code(opcode) else {
            return Err(DecodeError("unknown opcode"));
        };
        let volume = c.u32("volume id")?;
        let op = match kind {
            OpKind::Open => FsOp::Open {
                path: c.str("open.path")?,
                flags: OpenFlags::from_bits(c.u32("open.flags")?)
                    .ok_or(DecodeError("open.flags bits"))?,
            },
            OpKind::Close => FsOp::Close {
                fd: Fd(c.u32("close.fd")?),
            },
            OpKind::Read => FsOp::Read {
                fd: Fd(c.u32("read.fd")?),
                offset: c.u64("read.offset")?,
                len: c.u32("read.len")?,
            },
            OpKind::Write => FsOp::Write {
                fd: Fd(c.u32("write.fd")?),
                offset: c.u64("write.offset")?,
                data: c.bytes("write.data")?,
            },
            OpKind::Truncate => FsOp::Truncate {
                fd: Fd(c.u32("truncate.fd")?),
                size: c.u64("truncate.size")?,
            },
            OpKind::SetAttr => FsOp::SetAttr {
                path: c.str("setattr.path")?,
                attr: SetAttr {
                    size: take_opt_u64(c, "setattr.size")?,
                    mtime: take_opt_u64(c, "setattr.mtime")?,
                },
            },
            OpKind::Fsync => FsOp::Fsync {
                fd: Fd(c.u32("fsync.fd")?),
            },
            OpKind::Sync => FsOp::Sync,
            OpKind::Mkdir => FsOp::Mkdir {
                path: c.str("mkdir.path")?,
            },
            OpKind::Rmdir => FsOp::Rmdir {
                path: c.str("rmdir.path")?,
            },
            OpKind::Unlink => FsOp::Unlink {
                path: c.str("unlink.path")?,
            },
            OpKind::Rename => FsOp::Rename {
                from: c.str("rename.from")?,
                to: c.str("rename.to")?,
            },
            OpKind::Link => FsOp::Link {
                existing: c.str("link.existing")?,
                new: c.str("link.new")?,
            },
            OpKind::Symlink => FsOp::Symlink {
                target: c.str("symlink.target")?,
                linkpath: c.str("symlink.linkpath")?,
            },
            OpKind::Readlink => FsOp::Readlink {
                path: c.str("readlink.path")?,
            },
            OpKind::Stat => FsOp::Stat {
                path: c.str("stat.path")?,
            },
            OpKind::Fstat => FsOp::Fstat {
                fd: Fd(c.u32("fstat.fd")?),
            },
            OpKind::Readdir => FsOp::Readdir {
                path: c.str("readdir.path")?,
            },
            OpKind::Statfs => FsOp::Statfs,
            // Create is subsumed by Open+CREATE on the wire; Mount and
            // RestoreFd are RAE-internal record kinds, not client ops.
            OpKind::Create | OpKind::Mount | OpKind::RestoreFd => {
                return Err(DecodeError("opcode not servable"))
            }
        };
        c.done("fs trailing bytes")?;
        Ok(Request::Fs { volume, op })
    }

    /// Encode into a frame body, attaching `ctx` as the v2 trace
    /// extension. With `ctx = None` (or for the control frames `Ping`
    /// and `Negotiate`, which carry no trace) this is exactly
    /// [`Request::encode`]. Only send traced frames to a server that
    /// negotiated [`PROTOCOL_VERSION`] >= 2.
    #[must_use]
    pub fn encode_traced(&self, ctx: Option<TraceCtx>) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match ctx {
            Some(ctx) if !matches!(self, Request::Ping | Request::Negotiate { .. }) => {
                out.push(self.opcode() | TRACE_FLAG);
                out.extend_from_slice(&ctx.trace_id.to_le_bytes());
                out.push(ctx.span);
            }
            _ => out.push(self.opcode()),
        }
        self.put_fields(&mut out);
        out
    }

    /// Decode a frame body accepting both v1 frames and the v2 trace
    /// extension (the *new-server* decoder; [`Request::decode`] is the
    /// v1-only decoder an old server effectively runs).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] as [`Request::decode`], plus truncated trace
    /// prefixes and malformed negotiation frames.
    pub fn decode_traced(body: &[u8]) -> Result<(Request, Option<TraceCtx>), DecodeError> {
        let mut c = Cursor::new(body);
        let opcode = c.u8("empty frame")?;
        if opcode == NEGOTIATE_OPCODE {
            let version = c.u32("negotiate.version")?;
            c.done("negotiate trailing bytes")?;
            return Ok((Request::Negotiate { version }, None));
        }
        if opcode == PING_OPCODE || opcode & TRACE_FLAG == 0 {
            return Ok((Request::decode_fields(opcode, &mut c)?, None));
        }
        let trace_id = c.u64("traced frame truncated")?;
        let span = c.u8("traced frame truncated")?;
        let request = Request::decode_fields(opcode & !TRACE_FLAG, &mut c)?;
        Ok((request, Some(TraceCtx { trace_id, span })))
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn take_opt_u64(c: &mut Cursor<'_>, what: &'static str) -> Result<Option<u64>, DecodeError> {
    match c.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(c.u64(what)?)),
        _ => Err(DecodeError(what)),
    }
}

// ---------------------------------------------------------------------
// replies

/// One mounted volume, as listed by `ListVolumes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeInfo {
    /// Volume id (wire address).
    pub id: u32,
    /// Tenant-visible name.
    pub name: String,
    /// Status wire code ([`status_name`]).
    pub status: u8,
}

/// The success payload of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// No payload.
    Unit,
    /// Answer to [`Request::Ping`].
    Pong,
    /// A descriptor (open).
    Fd(u32),
    /// File data (read).
    Data(Vec<u8>),
    /// Bytes accepted (write).
    Written(u32),
    /// A string payload (readlink, stats JSON).
    Str(String),
    /// A stat result.
    Stat(FileStat),
    /// A directory listing.
    Entries(Vec<DirEntry>),
    /// A statfs result.
    Geometry(FsGeometryInfo),
    /// A freshly created volume's id.
    VolumeId(u32),
    /// The volume listing.
    Volumes(Vec<VolumeInfo>),
    /// An armed bug's id (inject-fault).
    BugId(u32),
    /// A volume status code (force-recover, unmount).
    Status(u8),
    /// The negotiated protocol version (answer to
    /// [`Request::Negotiate`]).
    Version(u32),
}

const REPLY_UNIT: u8 = 0;
const REPLY_PONG: u8 = 1;
const REPLY_FD: u8 = 2;
const REPLY_DATA: u8 = 3;
const REPLY_WRITTEN: u8 = 4;
const REPLY_STR: u8 = 5;
const REPLY_STAT: u8 = 6;
const REPLY_ENTRIES: u8 = 7;
const REPLY_GEOMETRY: u8 = 8;
const REPLY_VOLUME_ID: u8 = 9;
const REPLY_VOLUMES: u8 = 10;
const REPLY_BUG_ID: u8 = 11;
const REPLY_STATUS: u8 = 12;
const REPLY_VERSION: u8 = 13;

fn put_stat(out: &mut Vec<u8>, st: &FileStat) {
    out.extend_from_slice(&st.ino.0.to_le_bytes());
    out.push(st.ftype.as_u8());
    out.extend_from_slice(&st.size.to_le_bytes());
    out.extend_from_slice(&st.nlink.to_le_bytes());
    out.extend_from_slice(&st.blocks.to_le_bytes());
    out.extend_from_slice(&st.mtime.to_le_bytes());
    out.extend_from_slice(&st.ctime.to_le_bytes());
}

fn take_stat(c: &mut Cursor<'_>) -> Result<FileStat, DecodeError> {
    Ok(FileStat {
        ino: InodeNo(c.u32("stat.ino")?),
        ftype: FileType::from_u8(c.u8("stat.ftype")?).ok_or(DecodeError("stat.ftype"))?,
        size: c.u64("stat.size")?,
        nlink: c.u32("stat.nlink")?,
        blocks: c.u64("stat.blocks")?,
        mtime: c.u64("stat.mtime")?,
        ctime: c.u64("stat.ctime")?,
    })
}

// ---------------------------------------------------------------------
// errors

/// Service-level failures (distinct from filesystem errors: the target
/// volume's filesystem never saw the request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The tenant exhausted its op or byte quota.
    QuotaExceeded {
        /// The volume whose quota tripped.
        volume: u32,
    },
    /// The server is draining for shutdown; no new work accepted.
    ShuttingDown,
    /// No volume with that id is mounted.
    NoSuchVolume {
        /// The offending id.
        volume: u32,
    },
    /// The request frame failed to decode; the connection closes.
    BadFrame {
        /// Which field failed.
        reason: String,
    },
    /// The opcode is valid but not servable over the wire.
    Unsupported {
        /// The offending opcode.
        opcode: u8,
    },
    /// The connection queue is full; try again.
    Busy,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::QuotaExceeded { volume } => write!(f, "quota exceeded on volume {volume}"),
            ServerError::ShuttingDown => write!(f, "server shutting down"),
            ServerError::NoSuchVolume { volume } => write!(f, "no such volume {volume}"),
            ServerError::BadFrame { reason } => write!(f, "bad frame: {reason}"),
            ServerError::Unsupported { opcode } => write!(f, "unsupported opcode {opcode}"),
            ServerError::Busy => write!(f, "server busy"),
        }
    }
}

impl std::error::Error for ServerError {}

const SERVER_ERR_QUOTA: u8 = 1;
const SERVER_ERR_SHUTDOWN: u8 = 2;
const SERVER_ERR_NO_VOLUME: u8 = 3;
const SERVER_ERR_BAD_FRAME: u8 = 4;
const SERVER_ERR_UNSUPPORTED: u8 = 5;
const SERVER_ERR_BUSY: u8 = 6;

/// Encode an [`FsError`] onto the wire: `u16` variant code, `u16`
/// errno, `u32` aux (bug id), and two strings (check/detail).
///
/// The match is exhaustive *without* a wildcard arm on purpose: a new
/// `FsError` variant fails compilation here, forcing a conscious wire
/// assignment instead of a silent fallback.
fn encode_fs_error(out: &mut Vec<u8>, e: &FsError) {
    let (code, aux, s1, s2): (u16, u32, &str, &str) = match e {
        FsError::NotFound => (1, 0, "", ""),
        FsError::Exists => (2, 0, "", ""),
        FsError::NotDir => (3, 0, "", ""),
        FsError::IsDir => (4, 0, "", ""),
        FsError::NotEmpty => (5, 0, "", ""),
        FsError::NoSpace => (6, 0, "", ""),
        FsError::NoInodes => (7, 0, "", ""),
        FsError::InvalidArgument => (8, 0, "", ""),
        FsError::NameTooLong => (9, 0, "", ""),
        FsError::TooManyOpenFiles => (10, 0, "", ""),
        FsError::BadFd => (11, 0, "", ""),
        FsError::BadAccessMode => (12, 0, "", ""),
        FsError::TooManyLinks => (13, 0, "", ""),
        FsError::FileTooBig => (14, 0, "", ""),
        FsError::ReadOnly => (15, 0, "", ""),
        FsError::Busy => (16, 0, "", ""),
        FsError::RenameLoop => (17, 0, "", ""),
        FsError::IoFailed { detail } => (18, 0, "", detail),
        FsError::Corrupted { detail } => (19, 0, "", detail),
        FsError::DetectedBug { bug_id } => (20, *bug_id, "", ""),
        FsError::CheckFailed { check, detail } => (21, 0, check, detail),
        FsError::Internal { detail } => (22, 0, "", detail),
        FsError::RecoveryFailed { detail } => (23, 0, "", detail),
    };
    out.extend_from_slice(&code.to_le_bytes());
    out.extend_from_slice(&(e.errno() as u16).to_le_bytes());
    out.extend_from_slice(&aux.to_le_bytes());
    put_str(out, s1);
    put_str(out, s2);
}

fn decode_fs_error(c: &mut Cursor<'_>) -> Result<FsError, DecodeError> {
    let code = c.u16("fs_error.code")?;
    let _errno = c.u16("fs_error.errno")?;
    let aux = c.u32("fs_error.aux")?;
    let s1 = c.str("fs_error.check")?;
    let s2 = c.str("fs_error.detail")?;
    Ok(match code {
        1 => FsError::NotFound,
        2 => FsError::Exists,
        3 => FsError::NotDir,
        4 => FsError::IsDir,
        5 => FsError::NotEmpty,
        6 => FsError::NoSpace,
        7 => FsError::NoInodes,
        8 => FsError::InvalidArgument,
        9 => FsError::NameTooLong,
        10 => FsError::TooManyOpenFiles,
        11 => FsError::BadFd,
        12 => FsError::BadAccessMode,
        13 => FsError::TooManyLinks,
        14 => FsError::FileTooBig,
        15 => FsError::ReadOnly,
        16 => FsError::Busy,
        17 => FsError::RenameLoop,
        18 => FsError::IoFailed { detail: s2 },
        19 => FsError::Corrupted { detail: s2 },
        20 => FsError::DetectedBug { bug_id: aux },
        21 => FsError::CheckFailed {
            check: s1,
            detail: s2,
        },
        22 => FsError::Internal { detail: s2 },
        23 => FsError::RecoveryFailed { detail: s2 },
        _ => return Err(DecodeError("fs_error.code unknown")),
    })
}

// ---------------------------------------------------------------------
// responses

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success.
    Ok(Reply),
    /// The volume's filesystem refused (or failed) the operation.
    Err(FsError),
    /// The service refused the request before it reached a filesystem.
    ServerErr(ServerError),
}

const RESP_OK: u8 = 0;
const RESP_FS_ERR: u8 = 1;
const RESP_SERVER_ERR: u8 = 2;

impl Response {
    /// Encode into a frame body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::Ok(reply) => {
                out.push(RESP_OK);
                match reply {
                    Reply::Unit => out.push(REPLY_UNIT),
                    Reply::Pong => out.push(REPLY_PONG),
                    Reply::Fd(fd) => {
                        out.push(REPLY_FD);
                        out.extend_from_slice(&fd.to_le_bytes());
                    }
                    Reply::Data(data) => {
                        out.push(REPLY_DATA);
                        put_bytes(&mut out, data);
                    }
                    Reply::Written(n) => {
                        out.push(REPLY_WRITTEN);
                        out.extend_from_slice(&n.to_le_bytes());
                    }
                    Reply::Str(s) => {
                        out.push(REPLY_STR);
                        put_bytes(&mut out, s.as_bytes());
                    }
                    Reply::Stat(st) => {
                        out.push(REPLY_STAT);
                        put_stat(&mut out, st);
                    }
                    Reply::Entries(entries) => {
                        out.push(REPLY_ENTRIES);
                        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                        for e in entries {
                            out.extend_from_slice(&e.ino.0.to_le_bytes());
                            out.push(e.ftype.as_u8());
                            put_str(&mut out, &e.name);
                        }
                    }
                    Reply::Geometry(g) => {
                        out.push(REPLY_GEOMETRY);
                        out.extend_from_slice(&g.block_size.to_le_bytes());
                        out.extend_from_slice(&g.total_blocks.to_le_bytes());
                        out.extend_from_slice(&g.free_blocks.to_le_bytes());
                        out.extend_from_slice(&g.total_inodes.to_le_bytes());
                        out.extend_from_slice(&g.free_inodes.to_le_bytes());
                    }
                    Reply::VolumeId(id) => {
                        out.push(REPLY_VOLUME_ID);
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                    Reply::Volumes(vols) => {
                        out.push(REPLY_VOLUMES);
                        out.extend_from_slice(&(vols.len() as u32).to_le_bytes());
                        for v in vols {
                            out.extend_from_slice(&v.id.to_le_bytes());
                            put_str(&mut out, &v.name);
                            out.push(v.status);
                        }
                    }
                    Reply::BugId(id) => {
                        out.push(REPLY_BUG_ID);
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                    Reply::Status(s) => {
                        out.push(REPLY_STATUS);
                        out.push(*s);
                    }
                    Reply::Version(v) => {
                        out.push(REPLY_VERSION);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Response::Err(e) => {
                out.push(RESP_FS_ERR);
                encode_fs_error(&mut out, e);
            }
            Response::ServerErr(e) => {
                out.push(RESP_SERVER_ERR);
                match e {
                    ServerError::QuotaExceeded { volume } => {
                        out.push(SERVER_ERR_QUOTA);
                        out.extend_from_slice(&volume.to_le_bytes());
                    }
                    ServerError::ShuttingDown => out.push(SERVER_ERR_SHUTDOWN),
                    ServerError::NoSuchVolume { volume } => {
                        out.push(SERVER_ERR_NO_VOLUME);
                        out.extend_from_slice(&volume.to_le_bytes());
                    }
                    ServerError::BadFrame { reason } => {
                        out.push(SERVER_ERR_BAD_FRAME);
                        put_str(&mut out, reason);
                    }
                    ServerError::Unsupported { opcode } => {
                        out.push(SERVER_ERR_UNSUPPORTED);
                        out.push(*opcode);
                    }
                    ServerError::Busy => out.push(SERVER_ERR_BUSY),
                }
            }
        }
        out
    }

    /// Decode a frame body.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on unknown tags, truncated fields, or trailing
    /// garbage.
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8("response tag")? {
            RESP_OK => {
                let reply = match c.u8("reply tag")? {
                    REPLY_UNIT => Reply::Unit,
                    REPLY_PONG => Reply::Pong,
                    REPLY_FD => Reply::Fd(c.u32("reply.fd")?),
                    REPLY_DATA => Reply::Data(c.bytes("reply.data")?),
                    REPLY_WRITTEN => Reply::Written(c.u32("reply.written")?),
                    REPLY_STR => Reply::Str(
                        String::from_utf8(c.bytes("reply.str")?)
                            .map_err(|_| DecodeError("reply.str utf8"))?,
                    ),
                    REPLY_STAT => Reply::Stat(take_stat(&mut c)?),
                    REPLY_ENTRIES => {
                        let n = c.u32("reply.entries.count")?;
                        let mut entries = Vec::new();
                        for _ in 0..n {
                            entries.push(DirEntry {
                                ino: InodeNo(c.u32("reply.entry.ino")?),
                                ftype: FileType::from_u8(c.u8("reply.entry.ftype")?)
                                    .ok_or(DecodeError("reply.entry.ftype"))?,
                                name: c.str("reply.entry.name")?,
                            });
                        }
                        Reply::Entries(entries)
                    }
                    REPLY_GEOMETRY => Reply::Geometry(FsGeometryInfo {
                        block_size: c.u32("reply.geo.block_size")?,
                        total_blocks: c.u64("reply.geo.total_blocks")?,
                        free_blocks: c.u64("reply.geo.free_blocks")?,
                        total_inodes: c.u64("reply.geo.total_inodes")?,
                        free_inodes: c.u64("reply.geo.free_inodes")?,
                    }),
                    REPLY_VOLUME_ID => Reply::VolumeId(c.u32("reply.volume_id")?),
                    REPLY_VOLUMES => {
                        let n = c.u32("reply.volumes.count")?;
                        let mut vols = Vec::new();
                        for _ in 0..n {
                            vols.push(VolumeInfo {
                                id: c.u32("reply.volume.id")?,
                                name: c.str("reply.volume.name")?,
                                status: c.u8("reply.volume.status")?,
                            });
                        }
                        Reply::Volumes(vols)
                    }
                    REPLY_BUG_ID => Reply::BugId(c.u32("reply.bug_id")?),
                    REPLY_STATUS => Reply::Status(c.u8("reply.status")?),
                    REPLY_VERSION => Reply::Version(c.u32("reply.version")?),
                    _ => return Err(DecodeError("unknown reply tag")),
                };
                Response::Ok(reply)
            }
            RESP_FS_ERR => Response::Err(decode_fs_error(&mut c)?),
            RESP_SERVER_ERR => {
                let e = match c.u8("server_error tag")? {
                    SERVER_ERR_QUOTA => ServerError::QuotaExceeded {
                        volume: c.u32("server_error.volume")?,
                    },
                    SERVER_ERR_SHUTDOWN => ServerError::ShuttingDown,
                    SERVER_ERR_NO_VOLUME => ServerError::NoSuchVolume {
                        volume: c.u32("server_error.volume")?,
                    },
                    SERVER_ERR_BAD_FRAME => ServerError::BadFrame {
                        reason: c.str("server_error.reason")?,
                    },
                    SERVER_ERR_UNSUPPORTED => ServerError::Unsupported {
                        opcode: c.u8("server_error.opcode")?,
                    },
                    SERVER_ERR_BUSY => ServerError::Busy,
                    _ => return Err(DecodeError("unknown server_error tag")),
                };
                Response::ServerErr(e)
            }
            _ => return Err(DecodeError("unknown response tag")),
        };
        c.done("response trailing bytes")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `FsError` variant, with representative payloads.
    fn all_fs_errors() -> Vec<FsError> {
        vec![
            FsError::NotFound,
            FsError::Exists,
            FsError::NotDir,
            FsError::IsDir,
            FsError::NotEmpty,
            FsError::NoSpace,
            FsError::NoInodes,
            FsError::InvalidArgument,
            FsError::NameTooLong,
            FsError::TooManyOpenFiles,
            FsError::BadFd,
            FsError::BadAccessMode,
            FsError::TooManyLinks,
            FsError::FileTooBig,
            FsError::ReadOnly,
            FsError::Busy,
            FsError::RenameLoop,
            FsError::IoFailed {
                detail: "block 7 write".into(),
            },
            FsError::Corrupted {
                detail: "bad magic".into(),
            },
            FsError::DetectedBug { bug_id: 42 },
            FsError::CheckFailed {
                check: "inode.size_vs_blocks".into(),
                detail: "size 9000 blocks 0".into(),
            },
            FsError::Internal {
                detail: "lock order".into(),
            },
            FsError::RecoveryFailed {
                detail: "shadow diverged".into(),
            },
        ]
    }

    #[test]
    fn fs_error_round_trip_and_wire_errno_match() {
        let errors = all_fs_errors();
        // one variant per declaration: if this count drifts the list
        // above is missing a case (the encode match itself is already
        // compile-time exhaustive)
        assert_eq!(errors.len(), 23);
        for e in errors {
            let body = Response::Err(e.clone()).encode();
            let decoded = Response::decode(&body).expect("decode");
            assert_eq!(decoded, Response::Err(e.clone()), "round trip");
            // wire errno (bytes 3..5: tag, u16 code, then u16 errno)
            let errno = u16::from_le_bytes([body[3], body[4]]);
            assert_eq!(i32::from(errno), e.errno(), "wire errno for {e:?}");
        }
    }

    #[test]
    fn fs_error_codes_are_dense_and_stable() {
        for (i, e) in all_fs_errors().iter().enumerate() {
            let body = Response::Err(e.clone()).encode();
            let code = u16::from_le_bytes([body[1], body[2]]);
            assert_eq!(code as usize, i + 1, "{e:?} code moved");
        }
    }

    #[test]
    fn request_round_trips_for_every_fs_op() {
        let ops = vec![
            FsOp::Open {
                path: "/a/b".into(),
                flags: OpenFlags::RDWR | OpenFlags::CREATE,
            },
            FsOp::Close { fd: Fd(3) },
            FsOp::Read {
                fd: Fd(4),
                offset: 8192,
                len: 4096,
            },
            FsOp::Write {
                fd: Fd(5),
                offset: 0,
                data: vec![1, 2, 3, 255],
            },
            FsOp::Truncate {
                fd: Fd(6),
                size: 100,
            },
            FsOp::SetAttr {
                path: "/f".into(),
                attr: SetAttr {
                    size: Some(10),
                    mtime: None,
                },
            },
            FsOp::Fsync { fd: Fd(7) },
            FsOp::Sync,
            FsOp::Mkdir { path: "/d".into() },
            FsOp::Rmdir { path: "/d".into() },
            FsOp::Unlink { path: "/f".into() },
            FsOp::Rename {
                from: "/a".into(),
                to: "/b".into(),
            },
            FsOp::Link {
                existing: "/a".into(),
                new: "/b".into(),
            },
            FsOp::Symlink {
                target: "/t".into(),
                linkpath: "/l".into(),
            },
            FsOp::Readlink { path: "/l".into() },
            FsOp::Stat { path: "/f".into() },
            FsOp::Fstat { fd: Fd(8) },
            FsOp::Readdir { path: "/".into() },
            FsOp::Statfs,
        ];
        for op in ops {
            let req = Request::Fs { volume: 7, op };
            let body = req.encode();
            assert_eq!(Request::decode(&body).expect("decode"), req);
        }
    }

    #[test]
    fn request_round_trips_for_every_admin_op() {
        let ops = vec![
            AdminOp::CreateVolume {
                name: "tenant-a".into(),
                blocks: 4096,
                inodes: 1024,
                journal: 256,
                max_ops: 1000,
                max_bytes: 1 << 20,
            },
            AdminOp::UnmountVolume { volume: 3 },
            AdminOp::ListVolumes,
            AdminOp::VolumeStats { volume: 1 },
            AdminOp::InjectFault {
                volume: 2,
                site: site_code(rae_faults::Site::PathLookup),
                effect: effect_code(rae_faults::Effect::Panic),
                nth: 1,
            },
            AdminOp::ForceRecover { volume: 0 },
            AdminOp::ServerStats,
            AdminOp::Shutdown,
            AdminOp::Scrape { json: false },
            AdminOp::Scrape { json: true },
        ];
        for op in ops {
            let req = Request::Admin(op);
            let body = req.encode();
            assert_eq!(Request::decode(&body).expect("decode"), req);
        }
        let body = Request::Ping.encode();
        assert_eq!(Request::decode(&body).expect("decode"), Request::Ping);
    }

    #[test]
    fn reply_round_trips_for_every_variant() {
        let replies = vec![
            Reply::Unit,
            Reply::Pong,
            Reply::Fd(9),
            Reply::Data(vec![0, 1, 2]),
            Reply::Written(4096),
            Reply::Str("/target".into()),
            Reply::Stat(FileStat {
                ino: InodeNo(5),
                ftype: FileType::Regular,
                size: 123,
                nlink: 2,
                blocks: 1,
                mtime: 7,
                ctime: 8,
            }),
            Reply::Entries(vec![DirEntry {
                ino: InodeNo(2),
                ftype: FileType::Directory,
                name: "docs".into(),
            }]),
            Reply::Geometry(FsGeometryInfo {
                block_size: 4096,
                total_blocks: 100,
                free_blocks: 50,
                total_inodes: 64,
                free_inodes: 32,
            }),
            Reply::VolumeId(3),
            Reply::Volumes(vec![VolumeInfo {
                id: 0,
                name: "vol0".into(),
                status: 0,
            }]),
            Reply::BugId(9001),
            Reply::Status(2),
            Reply::Version(2),
        ];
        for r in replies {
            let resp = Response::Ok(r);
            let body = resp.encode();
            assert_eq!(Response::decode(&body).expect("decode"), resp);
        }
    }

    #[test]
    fn server_error_round_trips() {
        let errors = vec![
            ServerError::QuotaExceeded { volume: 4 },
            ServerError::ShuttingDown,
            ServerError::NoSuchVolume { volume: 99 },
            ServerError::BadFrame {
                reason: "opcode".into(),
            },
            ServerError::Unsupported { opcode: 20 },
            ServerError::Busy,
        ];
        for e in errors {
            let resp = Response::ServerErr(e);
            let body = resp.encode();
            assert_eq!(Response::decode(&body).expect("decode"), resp);
        }
    }

    #[test]
    fn malformed_bodies_error_cleanly() {
        // empty body
        assert!(Request::decode(&[]).is_err());
        // unknown opcode (fs range but unassigned)
        assert!(Request::decode(&[63, 0, 0, 0, 0]).is_err());
        // non-servable opcodes: Create, Mount, RestoreFd
        for kind in [OpKind::Create, OpKind::Mount, OpKind::RestoreFd] {
            assert_eq!(
                Request::decode(&[kind.code(), 0, 0, 0, 0]),
                Err(DecodeError("opcode not servable"))
            );
        }
        // truncated: open with no path
        assert!(Request::decode(&[OpKind::Open.code(), 0, 0, 0, 0]).is_err());
        // trailing garbage after a valid op
        let mut body = Request::Fs {
            volume: 0,
            op: FsOp::Sync,
        }
        .encode();
        body.push(0xFF);
        assert!(Request::decode(&body).is_err());
        // string length prefix pointing past the end
        let mut bad = vec![OpKind::Mkdir.code(), 0, 0, 0, 0];
        bad.extend_from_slice(&u16::MAX.to_le_bytes());
        bad.extend_from_slice(b"abc");
        assert!(Request::decode(&bad).is_err());
        // bad open flag bits
        let mut bad = vec![OpKind::Open.code(), 0, 0, 0, 0];
        put_str(&mut bad, "/f");
        bad.extend_from_slice(&0xdead_0000u32.to_le_bytes());
        assert!(Request::decode(&bad).is_err());
        // responses: unknown tags
        assert!(Response::decode(&[]).is_err());
        assert!(Response::decode(&[9]).is_err());
        assert!(Response::decode(&[0, 200]).is_err());
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let hdr = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut buf: &[u8] = &hdr;
        let err = read_frame(&mut buf, || true).expect_err("oversized accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        // header promises 10 bytes, body delivers 3
        let mut data = 10u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[1, 2, 3]);
        let mut r: &[u8] = &data;
        let err = read_frame(&mut r, || true).expect_err("truncated accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // clean EOF between frames is None
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty, || true).expect("eof"), None);
    }

    #[test]
    fn frame_write_read_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r: &[u8] = &buf;
        assert_eq!(read_frame(&mut r, || true).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, || true).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, || true).unwrap(), None);
    }

    #[test]
    fn frame_is_one_write() {
        /// Counts `write` calls and keeps what they wrote.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for body in [Vec::new(), b"hello".to_vec(), vec![7u8; 4096 + 4]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &body).unwrap();
            assert_eq!(
                w.writes,
                1,
                "a {}-byte frame took {} writes",
                body.len(),
                w.writes
            );
            let mut want = (body.len() as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&body);
            assert_eq!(w.bytes, want);
        }
    }

    #[test]
    fn abandoned_frame_is_timed_out_wherever_it_stops() {
        /// Hands out its bytes, then times out forever.
        struct Stalls<'a>(&'a [u8]);
        impl Read for Stalls<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut frame = 8u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&[1, 2, 3]);
        // idle, half a header, a header and half a body: each waits as
        // long as it is told to, then gives up
        for sent in [0, 2, 7] {
            let mut asked = 0;
            let err = read_frame(&mut Stalls(&frame[..sent]), || {
                asked += 1;
                asked < 3
            })
            .expect_err("a stalled frame was accepted");
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "sent={sent}");
            assert_eq!(asked, 3, "sent={sent}");
        }
    }

    #[test]
    fn status_codes_round_trip() {
        for s in [
            FsStatus::Active,
            FsStatus::Quiesced,
            FsStatus::Degraded,
            FsStatus::Failed,
        ] {
            assert_ne!(status_name(status_code(s)), "?");
        }
        assert_eq!(status_name(200), "?");
    }

    #[test]
    fn site_and_effect_codes_round_trip() {
        for (i, site) in rae_faults::Site::ALL.iter().enumerate() {
            assert_eq!(site_code(*site) as usize, i);
            assert_eq!(site_from_code(i as u8), Some(*site));
        }
        assert_eq!(site_from_code(200), None);
        for code in 0..5u8 {
            let e = effect_from_code(code).expect("effect");
            assert_eq!(effect_code(e), code);
        }
        assert_eq!(effect_from_code(5), None);
    }

    #[test]
    fn traced_frames_round_trip_with_and_without_context() {
        let req = Request::Fs {
            volume: 3,
            op: FsOp::Write {
                fd: Fd(7),
                offset: 4096,
                data: vec![1, 2, 3],
            },
        };
        let ctx = TraceCtx {
            trace_id: 0xdead_beef_cafe,
            span: 2,
        };
        let body = req.encode_traced(Some(ctx));
        assert_eq!(body[0] & TRACE_FLAG, TRACE_FLAG, "opcode carries the flag");
        assert_eq!(
            Request::decode_traced(&body).expect("traced decode"),
            (req.clone(), Some(ctx))
        );
        // without a context the traced encoder emits a plain v1 frame
        let plain = req.encode_traced(None);
        assert_eq!(plain, req.encode());
        assert_eq!(
            Request::decode_traced(&plain).expect("v1 via traced decoder"),
            (req, None)
        );
        // control frames never carry the extension even with a context
        let ping = Request::Ping.encode_traced(Some(ctx));
        assert_eq!(ping, Request::Ping.encode());
    }

    #[test]
    fn old_server_rejects_v2_frames_cleanly() {
        // an old (v1) server runs Request::decode; both the negotiation
        // probe and a flagged frame must fail as unknown opcodes rather
        // than be misread as some other request
        let hello = Request::Negotiate {
            version: PROTOCOL_VERSION,
        }
        .encode();
        assert!(Request::decode(&hello).is_err(), "v1 rejects negotiate");
        let traced = Request::Fs {
            volume: 0,
            op: FsOp::Sync,
        }
        .encode_traced(Some(TraceCtx::new(9)));
        assert!(Request::decode(&traced).is_err(), "v1 rejects traced frame");
    }

    #[test]
    fn new_server_accepts_old_client_frames() {
        // an old (v1) client encodes without the extension; the new
        // server's decode_traced must accept every such frame verbatim
        let ops = vec![
            Request::Ping,
            Request::Fs {
                volume: 1,
                op: FsOp::Stat { path: "/f".into() },
            },
            Request::Admin(AdminOp::ListVolumes),
            Request::Admin(AdminOp::Scrape { json: true }),
        ];
        for req in ops {
            let (decoded, ctx) = Request::decode_traced(&req.encode()).expect("decode");
            assert_eq!(decoded, req);
            assert_eq!(ctx, None, "v1 frame carries no trace");
        }
        // and the negotiation handshake itself round-trips
        let hello = Request::Negotiate { version: 7 }.encode();
        assert_eq!(
            Request::decode_traced(&hello).expect("negotiate"),
            (Request::Negotiate { version: 7 }, None)
        );
    }

    #[test]
    fn truncated_trace_prefix_is_rejected() {
        let body = Request::Fs {
            volume: 0,
            op: FsOp::Sync,
        }
        .encode_traced(Some(TraceCtx::new(1)));
        for cut in 1..10.min(body.len()) {
            assert!(
                Request::decode_traced(&body[..cut]).is_err(),
                "cut={cut} accepted"
            );
        }
    }
}
