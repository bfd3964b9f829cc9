//! Set-up: devices, mkfs, mounts, populated file sets, the server.
//!
//! Everything a timed phase runs against is built here, so `setup_s`
//! is "build a rig and warm it up".

use crate::load::{ChurnNames, FileEnt};
use crate::spans::{SpanDisk, Trace};
use crate::stream::{
    populate_fill, Kind, Spec, FAULT_LOG_CAP, IO_BYTES, SRV_VOLS_PER_CONN, THREADS,
};
use rae::{RaeConfig, RaeFs};
use rae_basefs::{BaseFs, BaseFsConfig};
use rae_blockdev::{BlockDevice, DiskFaultPlan, FaultyDisk, MemDisk};
use rae_faults::FaultRegistry;
use rae_fsformat::{mkfs, MkfsParams};
use rae_server::{Client, Server, ServerConfig, VolumeManager, VolumeSpec};
use rae_vfs::{FileSystem, FsResult, OpenFlags};
use rae_workloads::{populate_volumes, volume_file_path, LoadGenConfig};
use std::sync::Arc;
use std::time::Instant;

/// In-process device: 64 MiB.
pub const DEVICE_BLOCKS: u64 = 16_384;
/// Server workers (`srv-mixed`), one per connection.
pub const SERVER_WORKERS: usize = 2;
/// Server volumes (`VolumeSpec::default()`: 16 MiB on a bare `MemDisk`;
/// the server builds its own devices, so no latency model applies).
pub const SERVER_VOLUMES: usize = THREADS * SRV_VOLS_PER_CONN;

/// The device stack under a mount: the bare image behind `spec`'s
/// latency model (none for the server's geometry).
pub fn device_over(raw: &Arc<MemDisk>, spec: &Spec) -> Arc<dyn BlockDevice> {
    if spec.device_ns == (0, 0) {
        return Arc::clone(raw) as Arc<dyn BlockDevice>;
    }
    let plan = DiskFaultPlan::new()
        .read_latency_ns(spec.device_ns.0)
        .write_latency_ns(spec.device_ns.1);
    Arc::new(FaultyDisk::with_plan(Arc::clone(raw), plan))
}

/// Which `FileSystem` implementation the load threads call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    Rae,
    Base,
}

pub enum Mounted {
    Rae(Box<RaeFs>),
    Base(Box<BaseFs>),
}

impl Mounted {
    pub fn fs(&self) -> &dyn FileSystem {
        match self {
            Mounted::Rae(fs) => fs.as_ref(),
            Mounted::Base(fs) => fs.as_ref(),
        }
    }

    pub fn base(&self) -> &BaseFs {
        match self {
            Mounted::Rae(fs) => fs.base(),
            Mounted::Base(fs) => fs,
        }
    }

    pub fn rae(&self) -> Option<&RaeFs> {
        match self {
            Mounted::Rae(fs) => Some(fs),
            Mounted::Base(_) => None,
        }
    }

    pub fn unmount(self) -> FsResult<()> {
        match self {
            Mounted::Rae(fs) => fs.unmount(),
            Mounted::Base(fs) => fs.unmount(),
        }
    }
}

/// One formatted, mounted volume and the handles the benchmark keeps
/// on its device stack.
pub struct Vol {
    /// The bare image: fsck, snapshots and the oracle read it directly.
    pub raw: Arc<MemDisk>,
    pub span_disk: Option<Arc<SpanDisk<Arc<dyn BlockDevice>>>>,
    pub mount: Mounted,
    pub faults: FaultRegistry,
}

/// An in-process rig: volumes plus each load thread's file table.
pub struct Rig {
    pub vols: Vec<Vol>,
    pub tables: Vec<Vec<FileEnt>>,
    pub churn: ChurnNames,
    pub mkfs_s: f64,
}

impl Rig {
    /// Format, mount and populate. `Kind::Server` specs get the
    /// server's volume geometry on bare devices (the inner-boundary
    /// replays of `srv-mixed`); everything else gets one 64 MiB device
    /// behind the latency model.
    pub fn build(spec: &Spec, boundary: Boundary, trace: Option<&Arc<Trace>>) -> FsResult<Rig> {
        let server = spec.kind == Kind::Server;
        let (nvols, params) = if server {
            let v = VolumeSpec::default();
            let params = MkfsParams {
                total_blocks: u64::from(v.blocks),
                inode_count: v.inodes,
                journal_blocks: u64::from(v.journal),
            };
            (SERVER_VOLUMES, params)
        } else {
            let params = MkfsParams {
                total_blocks: DEVICE_BLOCKS,
                inode_count: 4096,
                journal_blocks: 512,
            };
            (1, params)
        };
        let mut vols = Vec::with_capacity(nvols);
        let mut mkfs_s = 0.0;
        for _ in 0..nvols {
            let raw = Arc::new(MemDisk::new(params.total_blocks));
            let mut dev = device_over(&raw, spec);
            let span_disk = trace.map(|t| Arc::new(SpanDisk::new(Arc::clone(&dev), Arc::clone(t))));
            if let Some(sd) = &span_disk {
                dev = Arc::clone(sd) as Arc<dyn BlockDevice>;
            }
            let t0 = Instant::now();
            mkfs(dev.as_ref(), params)?;
            mkfs_s += t0.elapsed().as_secs_f64();
            let faults = FaultRegistry::new();
            let base = BaseFsConfig {
                faults: faults.clone(),
                ..BaseFsConfig::default()
            };
            let mount = match boundary {
                Boundary::Base => Mounted::Base(Box::new(BaseFs::mount(dev, base)?)),
                Boundary::Rae => {
                    let mut config = RaeConfig {
                        base,
                        ..RaeConfig::default()
                    };
                    if let Kind::Fault { warm } = spec.kind {
                        config.standby.enabled = warm;
                        config.max_log_records = FAULT_LOG_CAP;
                    }
                    Mounted::Rae(Box::new(RaeFs::mount(dev, config)?))
                }
            };
            vols.push(Vol {
                raw,
                span_disk,
                mount,
                faults,
            });
        }
        let fss: Vec<&dyn FileSystem> = vols.iter().map(|v| v.mount.fs()).collect();
        let tables = populate(spec, &fss)?;
        Ok(Rig {
            vols,
            tables,
            churn: ChurnNames::new("/churn"),
            mkfs_s,
        })
    }

    pub fn fss(&self) -> Vec<&dyn FileSystem> {
        self.vols.iter().map(|v| v.mount.fs()).collect()
    }
}

/// Create and fill `spec`'s file sets on `fss` (one filesystem, or one
/// per server volume) and return each load thread's file table. The
/// oracle runs this same function on `ModelFs` instances.
pub fn populate(spec: &Spec, fss: &[&dyn FileSystem]) -> FsResult<Vec<Vec<FileEnt>>> {
    let fill_set = |vol: usize, dir: &str, first: usize| -> FsResult<Vec<FileEnt>> {
        let fs = fss[vol];
        fs.mkdir(dir)?;
        let mut block = vec![0u8; IO_BYTES];
        let mut table = Vec::with_capacity(spec.files);
        for i in 0..spec.files {
            let path = if spec.kind == Kind::Server {
                volume_file_path(i)
            } else {
                format!("{dir}/f{i:04}")
            };
            let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
            for b in 0..spec.file_blocks {
                block.fill(populate_fill(first + i, b));
                fs.write(fd, (b * IO_BYTES) as u64, &block)?;
            }
            table.push(FileEnt {
                vol: vol as u32,
                fd,
                path,
            });
        }
        Ok(table)
    };
    let tables = match spec.kind {
        Kind::Read => {
            let shared = fill_set(0, "/r", 0)?;
            vec![shared; THREADS]
        }
        Kind::WriteSync => (0..THREADS)
            .map(|t| fill_set(0, &format!("/w{t}"), 0))
            .collect::<FsResult<_>>()?,
        Kind::Fault { .. } => {
            fss[0].mkdir("/churn")?;
            vec![Vec::new(), fill_set(0, "/stable", 0)?]
        }
        Kind::Server => (0..THREADS)
            .map(|conn| {
                let mut table = Vec::new();
                for v in 0..SRV_VOLS_PER_CONN {
                    table.extend(fill_set(
                        conn * SRV_VOLS_PER_CONN + v,
                        "/data",
                        v * spec.files,
                    )?);
                }
                Ok(table)
            })
            .collect::<FsResult<_>>()?,
    };
    for fs in fss {
        fs.sync()?;
    }
    Ok(tables)
}

/// The `srv-mixed` rig: a running server, its volumes' devices, and one
/// file table per connection.
pub struct SrvRig {
    pub server: Server,
    pub addr: String,
    pub tables: Vec<Vec<FileEnt>>,
    /// Seed `populate_volumes` filled the files from (the oracle
    /// regenerates the same bytes).
    pub populate_seed: u64,
}

impl SrvRig {
    pub fn build(spec: &Spec, seed: u64) -> Result<SrvRig, String> {
        let manager = Arc::new(VolumeManager::new());
        for i in 0..SERVER_VOLUMES {
            let vspec = VolumeSpec {
                name: format!("vol{i}"),
                ..VolumeSpec::default()
            };
            manager.create(&vspec).map_err(|e| e.to_string())?;
        }
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", manager, &config).map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let cfg = LoadGenConfig {
            addr: addr.clone(),
            volumes: (0..SERVER_VOLUMES as u32).collect(),
            files_per_volume: spec.files,
            file_size: spec.file_blocks * IO_BYTES,
            seed,
            ..LoadGenConfig::default()
        };
        let fds = populate_volumes(&cfg).map_err(|e| e.to_string())?;
        let tables = (0..THREADS)
            .map(|conn| {
                fds[conn * SRV_VOLS_PER_CONN..(conn + 1) * SRV_VOLS_PER_CONN]
                    .iter()
                    .flat_map(|(vol, fds)| {
                        fds.iter().enumerate().map(|(i, &fd)| FileEnt {
                            vol: *vol,
                            fd,
                            path: volume_file_path(i),
                        })
                    })
                    .collect()
            })
            .collect();
        Ok(SrvRig {
            server,
            addr,
            tables,
            populate_seed: seed,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| e.to_string())
    }
}
