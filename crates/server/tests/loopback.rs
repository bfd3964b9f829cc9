//! End-to-end tests against a live server on a loopback socket: the
//! full VFS op set over the wire, admin ops, fault masking under
//! traffic, malformed-frame handling, and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rae_server::wire::{Request, Response, ServerError};
use rae_server::{Client, ClientError, Server, ServerConfig, VolumeManager};
use rae_vfs::{FsError, OpenFlags, SetAttr};

use rae_server::quiet_injected_panics;

fn start_server(config: &ServerConfig) -> Server {
    let manager = Arc::new(VolumeManager::new());
    Server::bind("127.0.0.1:0", manager, config).expect("bind loopback server")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect to server")
}

// Wire codes for injection (indices into Site::ALL / the effect table).
const SITE_PATH_LOOKUP: u8 = 1;
const SITE_WRITE: u8 = 4;
const EFFECT_DETECTED_ERROR: u8 = 0;
const EFFECT_PANIC: u8 = 1;

#[test]
fn full_op_set_and_admin_over_the_wire() {
    let server = start_server(&ServerConfig::default());
    let mut c = connect(&server);

    c.ping().unwrap();
    let va = c.create_volume("alpha", 2048, 512, 128, 0, 0).unwrap();
    let vb = c.create_volume("beta", 2048, 512, 128, 0, 0).unwrap();
    assert_ne!(va, vb);
    let listed = c.list_volumes().unwrap();
    assert_eq!(listed.len(), 2);
    assert!(listed.iter().any(|v| v.name == "alpha"));

    // Files and directories.
    c.mkdir(va, "/dir").unwrap();
    let fd = c
        .open(va, "/dir/file", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    assert_eq!(c.write(va, fd, 0, b"hello wire").unwrap(), 10);
    c.fsync(va, fd).unwrap();
    assert_eq!(c.read(va, fd, 0, 5).unwrap(), b"hello");
    let st = c.fstat(va, fd).unwrap();
    assert_eq!(st.size, 10);
    c.truncate(va, fd, 5).unwrap();
    assert_eq!(c.fstat(va, fd).unwrap().size, 5);
    c.close(va, fd).unwrap();

    c.setattr(
        va,
        "/dir/file",
        SetAttr {
            size: Some(3),
            mtime: Some(42),
        },
    )
    .unwrap();
    assert_eq!(c.stat(va, "/dir/file").unwrap().size, 3);

    c.rename(va, "/dir/file", "/dir/moved").unwrap();
    c.link(va, "/dir/moved", "/dir/hard").unwrap();
    assert_eq!(c.stat(va, "/dir/hard").unwrap().nlink, 2);
    c.symlink(va, "/dir/moved", "/dir/sym").unwrap();
    assert_eq!(c.readlink(va, "/dir/sym").unwrap(), "/dir/moved");

    let names: Vec<String> = c
        .readdir(va, "/dir")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    for want in ["moved", "hard", "sym"] {
        assert!(names.contains(&want.to_string()), "missing {want}");
    }

    let geo = c.statfs(va).unwrap();
    assert!(geo.total_blocks > 0);
    c.sync(va).unwrap();

    // Volumes are isolated: alpha's tree is invisible on beta.
    assert!(matches!(
        c.stat(vb, "/dir/moved"),
        Err(ClientError::Fs(FsError::NotFound))
    ));

    // Errors carry their FsError identity across the wire.
    assert!(matches!(
        c.mkdir(va, "/dir"),
        Err(ClientError::Fs(FsError::Exists))
    ));

    // Unknown volume id is a server-level error, not a filesystem one.
    assert_eq!(
        c.ping_volume_err(9999),
        ServerError::NoSuchVolume { volume: 9999 }
    );

    // Cleanup ops round-trip too.
    c.unlink(va, "/dir/hard").unwrap();
    c.unlink(va, "/dir/sym").unwrap();
    c.unlink(va, "/dir/moved").unwrap();
    c.rmdir(va, "/dir").unwrap();

    // Stats JSON is volume-keyed and balanced.
    let stats = c.server_stats().unwrap();
    assert!(stats.contains("\"alpha\"") && stats.contains("\"beta\""));
    assert_eq!(
        stats.matches('{').count(),
        stats.matches('}').count(),
        "unbalanced stats json: {stats}"
    );

    drop(c);
    let report = server.shutdown().unwrap();
    assert_eq!(report.volumes_unmounted, 2);
    assert!(report.all_clean, "both volumes should unmount cleanly");
    assert!(report.requests > 20);
}

/// Helper extension: issue a stat at an unknown volume and return the
/// server error (kept out of `Client` — it is a test-only probe).
trait ClientExt {
    fn ping_volume_err(&mut self, volume: u32) -> ServerError;
}

impl ClientExt for Client {
    fn ping_volume_err(&mut self, volume: u32) -> ServerError {
        let req = Request::Fs {
            volume,
            op: rae_server::FsOp::Statfs,
        };
        match self.call(&req).unwrap() {
            Response::ServerErr(e) => e,
            other => panic!("expected server error, got {other:?}"),
        }
    }
}

#[test]
fn injected_faults_are_masked_under_live_traffic() {
    quiet_injected_panics();
    let server = start_server(&ServerConfig::default());
    let mut c = connect(&server);
    let vol = c.create_volume("faulty", 2048, 512, 128, 0, 0).unwrap();

    c.mkdir(vol, "/d").unwrap();
    let fd = c
        .open(vol, "/d/f", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    c.write(vol, fd, 0, b"steady state").unwrap();

    // Fault A: panic inside path lookup. The next path op trips it;
    // RAE catches the panic, runs the ladder, and the client sees a
    // normal success.
    let bug_a = c
        .inject_fault(vol, SITE_PATH_LOOKUP, EFFECT_PANIC, 1)
        .unwrap();
    let st = c.stat(vol, "/d/f").expect("panic fault must be masked");
    assert_eq!(st.size, 12);

    // Fault B: detected error inside the write path, also masked.
    let bug_b = c
        .inject_fault(vol, SITE_WRITE, EFFECT_DETECTED_ERROR, 1)
        .unwrap();
    assert_ne!(bug_a, bug_b);
    let fd = c
        .open(vol, "/d/f", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    c.write(vol, fd, 0, b"after fault")
        .expect("detected-error fault must be masked");
    assert_eq!(c.read(vol, fd, 0, 11).unwrap(), b"after fault");

    // Both recoveries are visible in the volume's stats JSON, and the
    // volume came back to Active (status code 0).
    let stats = c.volume_stats(vol).unwrap();
    assert!(stats.contains("\"recoveries\": 2"), "stats: {stats}");
    let vols = c.list_volumes().unwrap();
    assert_eq!(vols[0].status, 0, "volume should be Active again");

    // force-recover keeps working after real faults.
    assert_eq!(c.force_recover(vol).unwrap(), 0);

    drop(c);
    let report = server.shutdown().unwrap();
    assert_eq!(report.volumes_unmounted, 1);
    assert!(report.all_clean);
}

#[test]
fn quota_exhaustion_returns_wire_error_and_counts() {
    let server = start_server(&ServerConfig::default());
    let mut c = connect(&server);
    let vol = c.create_volume("metered", 2048, 512, 128, 4, 0).unwrap();

    let mut ok = 0u32;
    let mut refused = 0u32;
    for _ in 0..8 {
        match c.sync(vol) {
            Ok(()) => ok += 1,
            Err(ClientError::Server(ServerError::QuotaExceeded { volume })) => {
                assert_eq!(volume, vol);
                refused += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(ok, 4);
    assert_eq!(refused, 4);

    // The refusal is a service-level condition the client can classify.
    let err = c.sync(vol).unwrap_err();
    assert!(err.is_service_refusal());

    // Admin ops are not charged against the tenant quota.
    let stats = c.volume_stats(vol).unwrap();
    assert!(stats.contains("\"quota_rejections\": 5"), "stats: {stats}");

    drop(c);
    server.shutdown().unwrap();
}

fn send_raw(server: &Server, frame: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
    let mut s = TcpStream::connect(server.local_addr())?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(frame)?;
    // nothing more is coming: a frame cut short is truncated at once,
    // not left for the server to wait on
    s.shutdown(std::net::Shutdown::Write)?;
    // server replies with one frame (or closes); then must close.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
    if buf.is_empty() {
        return Ok(None);
    }
    Ok(Some(buf))
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut f = (body.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

#[test]
fn malformed_frames_error_cleanly_without_wedging_the_pool() {
    let config = ServerConfig {
        workers: 2,
        queue: 4,
    };
    let server = start_server(&config);

    // Bad opcode: one BadFrame response, then the connection closes.
    let raw = send_raw(&server, &frame(&[0xEE])).unwrap().unwrap();
    let resp = Response::decode(&raw[4..]).unwrap();
    assert!(
        matches!(resp, Response::ServerErr(ServerError::BadFrame { .. })),
        "got {resp:?}"
    );

    // Truncated body for a known opcode: also BadFrame.
    let open_code = Request::Fs {
        volume: 0,
        op: rae_server::FsOp::Statfs,
    }
    .encode()[0];
    let raw = send_raw(&server, &frame(&[open_code, 0, 0]))
        .unwrap()
        .unwrap();
    assert!(matches!(
        Response::decode(&raw[4..]).unwrap(),
        Response::ServerErr(ServerError::BadFrame { .. })
    ));

    // Oversized length header: refused like any other malformed frame,
    // one BadFrame and a close, without attempting the allocation.
    let huge = (rae_server::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
    let raw = send_raw(&server, &huge).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&raw[4..]).unwrap(),
        Response::ServerErr(ServerError::BadFrame { .. })
    ));

    // Truncated header: connection just closes.
    assert_eq!(send_raw(&server, &[0x01]).unwrap(), None);

    // Hammer more garbage connections than there are workers, then
    // prove the pool still serves well-formed clients.
    for i in 0..6 {
        let _ = send_raw(&server, &frame(&[0xF0 + i]));
    }
    let mut c = connect(&server);
    c.ping().unwrap();
    let vol = c.create_volume("alive", 1024, 256, 64, 0, 0).unwrap();
    c.mkdir(vol, "/ok").unwrap();
    drop(c);
    let report = server.shutdown().unwrap();
    assert!(report.all_clean);
}

#[test]
fn graceful_shutdown_drains_and_refuses() {
    let server = start_server(&ServerConfig::default());
    let mut idle = connect(&server);
    idle.ping().unwrap();
    let vol = idle.create_volume("draining", 1024, 256, 64, 0, 0).unwrap();
    idle.mkdir(vol, "/data").unwrap();

    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.shutdown().unwrap());

    // The idle connection is told the server is going away: either it
    // receives the pushed ShuttingDown frame on its next call, or the
    // socket is already closed by the time it tries.
    let mut notified = false;
    for _ in 0..100 {
        match idle.ping() {
            Ok(()) => std::thread::sleep(Duration::from_millis(5)),
            Err(ClientError::Server(ServerError::ShuttingDown)) => {
                notified = true;
                break;
            }
            Err(ClientError::Io(_)) => {
                notified = true;
                break;
            }
            Err(other) => panic!("unexpected error during shutdown: {other}"),
        }
    }
    assert!(notified, "idle client never observed the shutdown");

    let report = handle.join().unwrap();
    assert_eq!(report.volumes_unmounted, 1);
    assert!(report.all_clean);

    // After shutdown the endpoint is gone: connection refused, closed,
    // or a final ShuttingDown refusal — never a hang or a served op.
    if let Ok(mut late) = Client::connect(addr) {
        match late.ping() {
            Err(ClientError::Server(ServerError::ShuttingDown) | ClientError::Io(_)) => {}
            other => panic!("late client should be refused, got {other:?}"),
        }
    }
}

#[test]
fn shutdown_returns_with_a_half_sent_frame() {
    // half a header, then a header (an 8-byte body) plus half the body
    for partial in [&[8u8, 0][..], &[8, 0, 0, 0, 0xEE, 0xEE, 0xEE, 0xEE][..]] {
        let server = start_server(&ServerConfig::default());
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(partial).unwrap();
        // let a worker take the connection and start reading the frame
        std::thread::sleep(Duration::from_millis(100));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(server.shutdown());
        });
        let report = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("shutdown hung on {} bytes of a frame", partial.len()));
        report.unwrap();
        // the worker gave up on the frame and said why before closing
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        assert_eq!(
            Response::decode(&raw[4..]).unwrap(),
            Response::ServerErr(ServerError::ShuttingDown)
        );
    }
}
