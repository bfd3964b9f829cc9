//! The multi-tenant volume manager.
//!
//! Each volume is a fully independent stack: its own in-memory device,
//! its own [`RaeFs`] (with recovery ladder, warm standby options, and
//! fault registry), its own [`Telemetry`] handle, and its own quota
//! accounting. Tenants cannot observe each other's faults: a panic
//! injected into volume 0 recovers there while volumes 1..n keep
//! serving — that isolation is what E10 measures.
//!
//! Descriptor tables are **per volume**, not per connection: an `Fd`
//! minted over one connection is valid on any connection addressing
//! the same volume. That mirrors how the RAE runtime reconstructs
//! descriptor tables across recoveries (descriptors are
//! volume-scoped application state, not transport state).

use crate::wire::{status_code, Reply, ServerError, VolumeInfo};
use parking_lot::RwLock;
use rae::{RaeConfig, RaeFs};
use rae_basefs::BaseFsConfig;
use rae_blockdev::MemDisk;
use rae_faults::{BugSpec, Effect, FaultRegistry, Site, Trigger};
use rae_fsformat::{mkfs, MkfsParams};
use rae_telemetry::{DevOp, EventKind, HistogramSummary, LatencyHistogram, OpClass, Telemetry};
use rae_vfs::{FileSystem, FsError, FsResult, FsStatus, OpenFlags};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-tenant request budget. Zero means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaSpec {
    /// Maximum operations over the volume's lifetime.
    pub max_ops: u64,
    /// Maximum data bytes moved (read lengths + write payloads).
    pub max_bytes: u64,
}

/// Everything needed to create one volume.
#[derive(Debug, Clone)]
pub struct VolumeSpec {
    /// Tenant-visible name.
    pub name: String,
    /// Device size in 4 KiB blocks.
    pub blocks: u32,
    /// Inode count.
    pub inodes: u32,
    /// Journal size in blocks.
    pub journal: u32,
    /// Request budget.
    pub quota: QuotaSpec,
}

impl Default for VolumeSpec {
    fn default() -> VolumeSpec {
        VolumeSpec {
            name: "vol".to_string(),
            blocks: 4096,
            inodes: 1024,
            journal: 256,
            quota: QuotaSpec::default(),
        }
    }
}

/// Per-tenant quota accounting, exported identically by the
/// volume-keyed stats JSON (`stats --json`, `ServerStats`) and the
/// `Scrape` metrics plane so the two never disagree on schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Operations charged against the quota.
    pub ops_used: u64,
    /// Data bytes charged against the quota.
    pub bytes_used: u64,
    /// Op budget (0 = unlimited).
    pub max_ops: u64,
    /// Byte budget (0 = unlimited).
    pub max_bytes: u64,
    /// Requests refused over quota.
    pub quota_rejections: u64,
}

impl TenantCounters {
    /// The `"tenant"` JSON object shared by every exporter.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ops_used\": {}, \"bytes_used\": {}, \"max_ops\": {}, \"max_bytes\": {}, \"quota_rejections\": {}}}",
            self.ops_used, self.bytes_used, self.max_ops, self.max_bytes, self.quota_rejections
        )
    }
}

/// One mounted tenant volume.
pub struct Volume {
    /// Wire id.
    pub id: u32,
    /// Tenant-visible name.
    pub name: String,
    fs: RaeFs,
    faults: FaultRegistry,
    quota: QuotaSpec,
    ops_used: AtomicU64,
    bytes_used: AtomicU64,
    quota_rejections: AtomicU64,
    next_bug_id: AtomicU32,
    /// Server-side request latency per op class (socket-to-socket time
    /// minus transport, i.e. dispatch + filesystem). Distinct from the
    /// volume's own [`Telemetry`] op histograms, which time the RAE
    /// API boundary only.
    request_hist: [LatencyHistogram; 8],
}

impl Volume {
    /// The volume's filesystem.
    #[must_use]
    pub fn fs(&self) -> &RaeFs {
        &self.fs
    }

    /// The volume's fault registry (E10 injects through this).
    #[must_use]
    pub fn faults(&self) -> &FaultRegistry {
        &self.faults
    }

    /// Operations charged so far.
    #[must_use]
    pub fn ops_used(&self) -> u64 {
        self.ops_used.load(Ordering::Relaxed)
    }

    /// Data bytes charged so far.
    #[must_use]
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used.load(Ordering::Relaxed)
    }

    /// Requests refused over quota.
    #[must_use]
    pub fn quota_rejections(&self) -> u64 {
        self.quota_rejections.load(Ordering::Relaxed)
    }

    /// This tenant's quota accounting, frozen at one instant.
    #[must_use]
    pub fn tenant_counters(&self) -> TenantCounters {
        TenantCounters {
            ops_used: self.ops_used(),
            bytes_used: self.bytes_used(),
            max_ops: self.quota.max_ops,
            max_bytes: self.quota.max_bytes,
            quota_rejections: self.quota_rejections(),
        }
    }

    /// Charge one request (plus its data bytes) against the quota.
    ///
    /// # Errors
    ///
    /// [`ServerError::QuotaExceeded`] once either budget is exhausted;
    /// the operation must not reach the filesystem.
    pub fn charge(&self, bytes: u64) -> Result<(), ServerError> {
        let ops = self.ops_used.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.bytes_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let over_ops = self.quota.max_ops != 0 && ops > self.quota.max_ops;
        let over_bytes = self.quota.max_bytes != 0 && total > self.quota.max_bytes;
        if over_ops || over_bytes {
            self.quota_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::QuotaExceeded { volume: self.id });
        }
        Ok(())
    }

    /// Record one served request's latency under `class`.
    pub fn observe_request(&self, class: OpClass, ns: u64) {
        self.request_hist[class.code() as usize].record(ns);
    }

    /// The server-side request histogram for one op class.
    #[must_use]
    pub fn request_histogram(&self, class: OpClass) -> &LatencyHistogram {
        &self.request_hist[class.code() as usize]
    }

    /// Allocate the next injected-bug id on this volume.
    #[must_use]
    pub fn next_bug_id(&self) -> u32 {
        self.next_bug_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Arm a one-shot detected error and poke the volume so the RAE
    /// ladder runs now (the admin `ForceRecover` op). Returns the
    /// post-recovery status.
    #[must_use]
    pub fn force_recover(&self) -> FsStatus {
        let id = self.next_bug_id();
        self.faults.arm(BugSpec::new(
            id,
            format!("force-recover-{id}"),
            Site::PathLookup,
            Trigger::NthMatch(1),
            Effect::DetectedError,
        ));
        // any path op visits PathLookup; the result is irrelevant —
        // RAE masks the injected error and runs its ladder
        let _ = self.fs.stat("/__rae_force_recover__");
        self.fs.status()
    }

    /// Per-volume stats JSON: RAE counters plus the server-side
    /// request histograms and quota accounting.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&render_volume_body(&self.name, &self.fs, "  "));
        out.push_str(",\n  \"server\": {\n");
        out.push_str(&format!(
            "    \"ops_used\": {},\n    \"bytes_used\": {},\n    \"quota_rejections\": {},\n",
            self.ops_used.load(Ordering::Relaxed),
            self.bytes_used.load(Ordering::Relaxed),
            self.quota_rejections.load(Ordering::Relaxed),
        ));
        out.push_str(&format!(
            "    \"tenant\": {},\n",
            self.tenant_counters().to_json()
        ));
        out.push_str("    \"request_latency\": {\n");
        for (i, class) in OpClass::ALL.iter().enumerate() {
            let s = self.request_hist[i].summary();
            let comma = if i + 1 < OpClass::ALL.len() { "," } else { "" };
            out.push_str(&format!(
                "      \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}{comma}\n",
                class.name(),
                s.count,
                s.p50,
                s.p99,
                s.p999,
                s.max
            ));
        }
        out.push_str("    }\n  }\n}\n");
        out
    }

    /// Dispatch one decoded filesystem operation.
    ///
    /// # Errors
    ///
    /// Whatever the filesystem returns; runtime errors have already
    /// been masked by RAE recovery by the time they would surface
    /// here (unless the ladder itself failed).
    pub fn apply(&self, op: &crate::wire::FsOp) -> Result<Reply, FsError> {
        use crate::wire::FsOp;
        let fs = &self.fs;
        Ok(match op {
            FsOp::Open { path, flags } => Reply::Fd(fs.open(path, *flags)?.0),
            FsOp::Close { fd } => {
                fs.close(*fd)?;
                Reply::Unit
            }
            FsOp::Read { fd, offset, len } => Reply::Data(fs.read(*fd, *offset, *len as usize)?),
            FsOp::Write { fd, offset, data } => {
                Reply::Written(fs.write(*fd, *offset, data)? as u32)
            }
            FsOp::Truncate { fd, size } => {
                fs.truncate(*fd, *size)?;
                Reply::Unit
            }
            FsOp::SetAttr { path, attr } => {
                fs.setattr(path, *attr)?;
                Reply::Unit
            }
            FsOp::Fsync { fd } => {
                fs.fsync(*fd)?;
                Reply::Unit
            }
            FsOp::Sync => {
                fs.sync()?;
                Reply::Unit
            }
            FsOp::Mkdir { path } => {
                fs.mkdir(path)?;
                Reply::Unit
            }
            FsOp::Rmdir { path } => {
                fs.rmdir(path)?;
                Reply::Unit
            }
            FsOp::Unlink { path } => {
                fs.unlink(path)?;
                Reply::Unit
            }
            FsOp::Rename { from, to } => {
                fs.rename(from, to)?;
                Reply::Unit
            }
            FsOp::Link { existing, new } => {
                fs.link(existing, new)?;
                Reply::Unit
            }
            FsOp::Symlink { target, linkpath } => {
                fs.symlink(target, linkpath)?;
                Reply::Unit
            }
            FsOp::Readlink { path } => Reply::Str(fs.readlink(path)?),
            FsOp::Stat { path } => Reply::Stat(fs.stat(path)?),
            FsOp::Fstat { fd } => Reply::Stat(fs.fstat(*fd)?),
            FsOp::Readdir { path } => Reply::Entries(fs.readdir(path)?),
            FsOp::Statfs => Reply::Geometry(fs.statfs()?),
        })
    }

    /// The op class a wire operation is charged under.
    #[must_use]
    pub fn class_of(op: &crate::wire::FsOp) -> OpClass {
        use crate::wire::FsOp;
        match op {
            FsOp::Read { .. } => OpClass::Read,
            FsOp::Write { .. } | FsOp::Truncate { .. } => OpClass::Write,
            FsOp::Mkdir { .. } | FsOp::Rename { .. } | FsOp::Link { .. } | FsOp::Symlink { .. } => {
                OpClass::Create
            }
            FsOp::Unlink { .. } | FsOp::Rmdir { .. } => OpClass::Unlink,
            FsOp::Readdir { .. } => OpClass::Readdir,
            FsOp::Stat { .. } | FsOp::Fstat { .. } | FsOp::Statfs | FsOp::Readlink { .. } => {
                OpClass::Stat
            }
            FsOp::Fsync { .. } | FsOp::Sync => OpClass::Fsync,
            FsOp::Open { .. } | FsOp::Close { .. } | FsOp::SetAttr { .. } => OpClass::Other,
        }
    }

    /// The data bytes a wire operation moves (for the byte quota).
    #[must_use]
    pub fn bytes_of(op: &crate::wire::FsOp) -> u64 {
        use crate::wire::FsOp;
        match op {
            FsOp::Read { len, .. } => u64::from(*len),
            FsOp::Write { data, .. } => data.len() as u64,
            _ => 0,
        }
    }
}

/// Creates, tracks, and unmounts volumes; owns the server-wide
/// flight-recorder [`Telemetry`] handle.
pub struct VolumeManager {
    volumes: RwLock<HashMap<u32, Arc<Volume>>>,
    next_id: AtomicU32,
    telemetry: Arc<Telemetry>,
}

impl Default for VolumeManager {
    fn default() -> VolumeManager {
        VolumeManager::new()
    }
}

impl VolumeManager {
    /// An empty manager.
    #[must_use]
    pub fn new() -> VolumeManager {
        VolumeManager {
            volumes: RwLock::new(HashMap::new()),
            next_id: AtomicU32::new(0),
            telemetry: Telemetry::new(),
        }
    }

    /// The server-wide telemetry handle (connection/quota/shutdown
    /// events land here; per-volume filesystem events land on each
    /// volume's own handle).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Create, format, and mount a volume; returns its wire id.
    ///
    /// # Errors
    ///
    /// Format or mount failures.
    pub fn create(&self, spec: &VolumeSpec) -> FsResult<u32> {
        let dev = Arc::new(MemDisk::new(spec.blocks as u64));
        mkfs(
            dev.as_ref(),
            MkfsParams {
                total_blocks: spec.blocks as u64,
                inode_count: spec.inodes,
                journal_blocks: spec.journal as u64,
            },
        )?;
        let faults = FaultRegistry::new();
        let config = RaeConfig {
            base: BaseFsConfig {
                faults: faults.clone(),
                ..BaseFsConfig::default()
            },
            ..RaeConfig::default()
        };
        let fs = RaeFs::mount(dev, config)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let volume = Arc::new(Volume {
            id,
            name: spec.name.clone(),
            fs,
            faults,
            quota: spec.quota,
            ops_used: AtomicU64::new(0),
            bytes_used: AtomicU64::new(0),
            quota_rejections: AtomicU64::new(0),
            next_bug_id: AtomicU32::new(1),
            request_hist: Default::default(),
        });
        self.volumes.write().insert(id, volume);
        self.telemetry
            .event(EventKind::VolumeMounted, u64::from(id), 0, 0);
        Ok(id)
    }

    /// Look up a volume by wire id.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<Arc<Volume>> {
        self.volumes.read().get(&id).cloned()
    }

    /// All mounted volumes, ordered by id.
    #[must_use]
    pub fn list(&self) -> Vec<VolumeInfo> {
        let mut out: Vec<VolumeInfo> = self
            .volumes
            .read()
            .values()
            .map(|v| VolumeInfo {
                id: v.id,
                name: v.name.clone(),
                status: status_code(v.fs.status()),
            })
            .collect();
        out.sort_by_key(|v| v.id);
        out
    }

    /// Number of mounted volumes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.volumes.read().len()
    }

    /// Whether no volumes are mounted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.volumes.read().is_empty()
    }

    /// Flush and unmount one volume. Returns `true` if the unmount was
    /// clean (sole owner, `RaeFs::unmount` ran); `false` if another
    /// in-flight request still held the volume and we fell back to a
    /// `sync`.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] for unknown ids; flush failures.
    pub fn unmount(&self, id: u32) -> FsResult<bool> {
        let Some(volume) = self.volumes.write().remove(&id) else {
            return Err(FsError::NotFound);
        };
        let clean = Self::retire(volume)?;
        self.telemetry.event(
            EventKind::VolumeUnmounted,
            u64::from(id),
            u64::from(clean),
            0,
        );
        Ok(clean)
    }

    /// Flush and unmount everything (shutdown path). Returns
    /// `(volumes, all_clean)`.
    ///
    /// # Errors
    ///
    /// The first flush failure (remaining volumes are still retired).
    pub fn unmount_all(&self) -> FsResult<(usize, bool)> {
        let drained: Vec<Arc<Volume>> = {
            let mut map = self.volumes.write();
            let mut vols: Vec<Arc<Volume>> = map.drain().map(|(_, v)| v).collect();
            vols.sort_by_key(|v| v.id);
            vols
        };
        let mut all_clean = true;
        let mut first_err = None;
        let n = drained.len();
        for volume in drained {
            let id = volume.id;
            match Self::retire(volume) {
                Ok(clean) => {
                    all_clean &= clean;
                    self.telemetry.event(
                        EventKind::VolumeUnmounted,
                        u64::from(id),
                        u64::from(clean),
                        0,
                    );
                }
                Err(e) => {
                    all_clean = false;
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((n, all_clean)),
        }
    }

    /// All mounted volumes ordered by id (scrape/stats iteration).
    fn sorted_volumes(&self) -> Vec<Arc<Volume>> {
        let mut vols: Vec<Arc<Volume>> = self.volumes.read().values().cloned().collect();
        vols.sort_by_key(|v| v.id);
        vols
    }

    /// Export the per-tenant metrics plane in Prometheus text
    /// exposition format: quota accounting, server-side request
    /// latency, RAE recovery counters, API-boundary op latency, and
    /// the per-layer tail-latency attribution — one sample family at a
    /// time, labelled by volume.
    #[must_use]
    pub fn scrape_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let vols = self.sorted_volumes();
        let mut out = String::new();
        let gauge = |out: &mut String, metric: &str, help: &str, rows: Vec<(String, u64)>| {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} gauge");
            for (labels, v) in rows {
                let _ = writeln!(out, "{metric}{{{labels}}} {v}");
            }
        };
        let vlabel = |v: &Volume| format!("volume=\"{}\"", v.name);
        gauge(
            &mut out,
            "rae_tenant_ops_used",
            "Operations charged against the tenant quota.",
            vols.iter().map(|v| (vlabel(v), v.ops_used())).collect(),
        );
        gauge(
            &mut out,
            "rae_tenant_bytes_used",
            "Data bytes charged against the tenant quota.",
            vols.iter().map(|v| (vlabel(v), v.bytes_used())).collect(),
        );
        gauge(
            &mut out,
            "rae_tenant_quota_rejections",
            "Requests refused over quota.",
            vols.iter()
                .map(|v| (vlabel(v), v.quota_rejections()))
                .collect(),
        );
        let stats: Vec<_> = vols.iter().map(|v| v.fs().stats()).collect();
        for (metric, help, pick) in [
            ("rae_recoveries", "Completed RAE recovery cycles.", 0usize),
            ("rae_detected_errors", "Runtime errors detected.", 1),
            (
                "rae_recovery_time_ns",
                "Total nanoseconds spent in recovery (unavailability).",
                2,
            ),
            (
                "rae_degraded",
                "Whether the volume is running degraded (0/1).",
                3,
            ),
        ] {
            gauge(
                &mut out,
                metric,
                help,
                vols.iter()
                    .zip(stats.iter())
                    .map(|(v, s)| {
                        let val = match pick {
                            0 => s.recoveries,
                            1 => s.detected_errors,
                            2 => s.recovery_time_ns,
                            _ => u64::from(s.degraded),
                        };
                        (vlabel(v), val)
                    })
                    .collect(),
            );
        }
        let summary =
            |out: &mut String, metric: &str, help: &str, rows: Vec<(String, HistogramSummary)>| {
                let _ = writeln!(out, "# HELP {metric} {help}");
                let _ = writeln!(out, "# TYPE {metric} summary");
                for (labels, s) in rows {
                    if s.count == 0 {
                        continue;
                    }
                    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", s.count);
                    let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", s.sum);
                    for (q, v) in [("0.5", s.p50), ("0.99", s.p99), ("0.999", s.p999)] {
                        let _ = writeln!(out, "{metric}{{{labels},quantile=\"{q}\"}} {v}");
                    }
                }
            };
        summary(
            &mut out,
            "rae_request_latency_ns",
            "Server-side request latency (dispatch + filesystem).",
            vols.iter()
                .flat_map(|v| {
                    OpClass::ALL.iter().map(move |&c| {
                        (
                            format!("volume=\"{}\",class=\"{}\"", v.name, c.name()),
                            v.request_histogram(c).summary(),
                        )
                    })
                })
                .collect(),
        );
        let snaps: Vec<_> = vols.iter().map(|v| v.fs().telemetry().snapshot()).collect();
        summary(
            &mut out,
            "rae_op_latency_ns",
            "RAE API-boundary op latency.",
            vols.iter()
                .zip(snaps.iter())
                .flat_map(|(v, snap)| {
                    snap.ops.iter().map(move |(class, s)| {
                        (format!("volume=\"{}\",class=\"{class}\"", v.name), *s)
                    })
                })
                .collect(),
        );
        summary(
            &mut out,
            "rae_attr_ns",
            "Per-layer latency attribution of completed ops.",
            vols.iter()
                .zip(snaps.iter())
                .flat_map(|(v, snap)| {
                    snap.attribution.iter().map(move |(layer, s)| {
                        (format!("volume=\"{}\",layer=\"{layer}\"", v.name), *s)
                    })
                })
                .collect(),
        );
        gauge(
            &mut out,
            "rae_events_dropped",
            "Flight-recorder events lost to ring wraparound.",
            vols.iter()
                .zip(snaps.iter())
                .map(|(v, snap)| (vlabel(v), snap.events_dropped))
                .collect(),
        );
        out
    }

    /// Export the same per-tenant metrics plane as JSON: every
    /// volume's tenant counters, server-side request latency, and the
    /// full telemetry snapshot (histograms + attribution).
    #[must_use]
    pub fn scrape_json(&self) -> String {
        use std::fmt::Write as _;
        let vols = self.sorted_volumes();
        let mut out = String::from("{\n  \"volumes\": {\n");
        for (i, v) in vols.iter().enumerate() {
            let _ = writeln!(out, "    \"{}\": {{", v.name);
            let _ = writeln!(out, "      \"tenant\": {},", v.tenant_counters().to_json());
            out.push_str("      \"request_latency\": {\n");
            for (j, class) in OpClass::ALL.iter().enumerate() {
                let s = v.request_histogram(*class).summary();
                let comma = if j + 1 < OpClass::ALL.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "        \"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}{comma}",
                    class.name(),
                    s.count,
                    s.p50,
                    s.p99,
                    s.p999,
                    s.max
                );
            }
            out.push_str("      },\n");
            let snap = v.fs().telemetry().snapshot().to_json();
            let _ = writeln!(out, "      \"telemetry\": {}", snap.trim_end());
            out.push_str("    }");
            out.push_str(if i + 1 < vols.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}");
        out
    }

    /// Take sole ownership of the volume (waiting briefly for in-flight
    /// requests to drop their `Arc`) and unmount; fall back to `sync`
    /// if another holder persists.
    fn retire(mut volume: Arc<Volume>) -> FsResult<bool> {
        for _ in 0..200 {
            match Arc::try_unwrap(volume) {
                Ok(owned) => {
                    owned.fs.unmount()?;
                    return Ok(true);
                }
                Err(shared) => {
                    volume = shared;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        volume.fs.sync()?;
        Ok(false)
    }
}

/// Render the volume-keyed stats JSON shared by `raefs stats --json`
/// (single implicit volume) and the server's `ServerStats` admin op
/// (all tenants). Every volume carries its per-tenant quota/refusal
/// counters in a `"tenant"` object — the same shape `Scrape` exports.
/// Shape:
///
/// ```json
/// {"volumes": {"<name>": {"status": …, counters…, "standby": {…}, "degraded": …, "tenant": {…}}}}
/// ```
#[must_use]
pub fn volumes_stats_json(volumes: &[(&str, &RaeFs, TenantCounters)]) -> String {
    let mut out = String::from("{\n  \"volumes\": {\n");
    for (i, (name, fs, tenant)) in volumes.iter().enumerate() {
        out.push_str(&format!("    \"{name}\": {{\n"));
        out.push_str(&render_volume_body_inner(fs, "      "));
        out.truncate(out.trim_end().len());
        out.push_str(&format!(",\n      \"tenant\": {}\n", tenant.to_json()));
        out.push_str("    }");
        out.push_str(if i + 1 < volumes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}");
    out
}

/// `"name": value` body lines for one volume (name line + counters).
fn render_volume_body(name: &str, fs: &RaeFs, indent: &str) -> String {
    let mut out = format!("{indent}\"name\": \"{name}\",\n");
    out.push_str(&render_volume_body_inner(fs, indent));
    // drop the trailing newline so callers can append a comma
    out.truncate(out.trim_end().len());
    out
}

fn render_volume_body_inner(fs: &RaeFs, indent: &str) -> String {
    let s = fs.stats();
    let mut out = String::new();
    out.push_str(&format!("{indent}\"status\": \"{:?}\",\n", fs.status()));
    let fields: [(&str, u64); 18] = [
        ("detected_errors", s.detected_errors),
        ("panics_caught", s.panics_caught),
        ("recoveries", s.recoveries),
        ("recovery_failures", s.recovery_failures),
        ("ops_masked", s.ops_masked),
        ("recovery_time_ns", s.recovery_time_ns),
        ("rung_warm_time_ns", s.rung_warm_time_ns),
        ("rung_cold_time_ns", s.rung_cold_time_ns),
        ("rung_cold_retry_time_ns", s.rung_cold_retry_time_ns),
        ("rung_degraded_time_ns", s.rung_degraded_time_ns),
        ("log_len", s.log_len as u64),
        ("log_trimmed", s.log_trimmed),
        ("ladder_warm", s.ladder_warm),
        ("ladder_cold", s.ladder_cold),
        ("ladder_cold_retry", s.ladder_cold_retry),
        ("ladder_degraded", s.ladder_degraded),
        ("device_retries", s.device_retries),
        ("device_faults_absorbed", s.device_faults_absorbed),
    ];
    for (name, value) in fields {
        out.push_str(&format!("{indent}\"{name}\": {value},\n"));
    }
    out.push_str(&format!(
        "{indent}\"standby\": {{\"active\": {}, \"degraded\": {}, \"completed_seq\": {}, \
         \"applied_seq\": {}, \"lag\": {}, \"audits_run\": {}, \"divergences\": {}, \
         \"publish_waits\": {}}},\n",
        s.standby_active,
        s.standby_degraded,
        s.standby_completed_seq,
        s.standby_applied_seq,
        s.standby_lag,
        s.standby_audits_run,
        s.standby_divergences,
        s.standby_publish_waits
    ));
    // the last recovery's shadow-phase I/O: distinct blocks fetched, the
    // device requests that fetched them, reads the cold rung's snapshot
    // view answered from memory, and what the warm rung's resync decided
    match fs.last_recovery_report() {
        Some(r) => out.push_str(&format!(
            "{indent}\"last_recovery\": {{\"rung\": \"{}\", \"shadow_device_reads\": {}, \
             \"shadow_device_requests\": {}, \"shadow_memo_hits\": {}, \
             \"resync_candidates\": {}, \"resync_pinned\": {}, \"resync_pruned\": {}}},\n",
            r.rung.as_str(),
            r.shadow_device_reads,
            r.shadow_device_requests,
            r.shadow_memo_hits,
            r.resync_candidates,
            r.resync_pinned,
            r.resync_pruned
        )),
        None => out.push_str(&format!("{indent}\"last_recovery\": null,\n")),
    }
    // the journal's commit latency beside what a committer waits (the
    // gap between the two is mostly the ordered data flush), and what
    // the device was asked for: requests against the blocks they moved
    // (timed where a wrapper reports to telemetry — the standby's write
    // tracker, for one)
    let t = fs.telemetry();
    for (name, hist) in [
        ("commit_stall", t.commit_stall_histogram()),
        ("journal_commit", t.journal_commit_histogram()),
    ] {
        let h = hist.summary();
        out.push_str(&format!(
            "{indent}\"{name}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}}},\n",
            h.count, h.p50, h.p99
        ));
    }
    let io = |op| (t.dev_requests(op), t.dev_blocks(op));
    let ((rq, rb), (wq, wb)) = (io(DevOp::Read), io(DevOp::Write));
    out.push_str(&format!(
        "{indent}\"device_io\": {{\"read\": {{\"requests\": {rq}, \"blocks\": {rb}}}, \
         \"write\": {{\"requests\": {wq}, \"blocks\": {wb}}}, \"flush\": {{\"requests\": {}}}}},\n",
        t.dev_requests(DevOp::Flush)
    ));
    out.push_str(&format!("{indent}\"degraded\": {}\n", s.degraded));
    out
}

/// Populate a volume with `files` fixed-size files under `/data` so
/// load generators have a working set (shared by E10 and the CLI
/// `serve` command).
///
/// # Errors
///
/// Filesystem errors.
pub fn populate_volume(fs: &dyn FileSystem, files: usize, file_size: usize) -> FsResult<()> {
    fs.mkdir("/data")?;
    let payload: Vec<u8> = (0..file_size).map(|i| (i % 251) as u8).collect();
    for i in 0..files {
        let fd = fs.open(
            &format!("/data/f{i:04}"),
            OpenFlags::RDWR | OpenFlags::CREATE,
        )?;
        fs.write(fd, 0, &payload)?;
        fs.close(fd)?;
    }
    fs.sync()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager_with_volume(quota: QuotaSpec) -> (VolumeManager, u32) {
        let mgr = VolumeManager::new();
        let id = mgr
            .create(&VolumeSpec {
                name: "t0".into(),
                quota,
                ..VolumeSpec::default()
            })
            .expect("create");
        (mgr, id)
    }

    #[test]
    fn create_list_get_unmount() {
        let (mgr, id) = manager_with_volume(QuotaSpec::default());
        assert_eq!(mgr.len(), 1);
        let listed = mgr.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "t0");
        assert_eq!(listed[0].status, 0, "active");
        let vol = mgr.get(id).expect("get");
        vol.fs().mkdir("/d").unwrap();
        drop(vol);
        assert!(mgr.unmount(id).expect("unmount"), "clean unmount");
        assert!(mgr.is_empty());
        assert_eq!(mgr.unmount(id), Err(FsError::NotFound));
    }

    #[test]
    fn volumes_are_isolated() {
        let mgr = VolumeManager::new();
        let a = mgr.create(&VolumeSpec::default()).unwrap();
        let b = mgr.create(&VolumeSpec::default()).unwrap();
        let va = mgr.get(a).unwrap();
        let vb = mgr.get(b).unwrap();
        va.fs().mkdir("/only-in-a").unwrap();
        assert_eq!(vb.fs().stat("/only-in-a"), Err(FsError::NotFound));
        // a masked fault on A leaves B untouched
        let id = va.next_bug_id();
        va.faults().arm(BugSpec::new(
            id,
            "iso",
            Site::DirModify,
            Trigger::NthMatch(1),
            Effect::DetectedError,
        ));
        va.fs().mkdir("/masked").unwrap();
        assert_eq!(va.fs().stats().recoveries, 1);
        assert_eq!(vb.fs().stats().recoveries, 0);
    }

    #[test]
    fn op_quota_trips_and_counts() {
        let (mgr, id) = manager_with_volume(QuotaSpec {
            max_ops: 3,
            max_bytes: 0,
        });
        let vol = mgr.get(id).unwrap();
        for _ in 0..3 {
            vol.charge(0).expect("under quota");
        }
        assert_eq!(
            vol.charge(0),
            Err(ServerError::QuotaExceeded { volume: id })
        );
        assert_eq!(vol.quota_rejections(), 1);
    }

    #[test]
    fn byte_quota_trips() {
        let (mgr, id) = manager_with_volume(QuotaSpec {
            max_ops: 0,
            max_bytes: 100,
        });
        let vol = mgr.get(id).unwrap();
        vol.charge(60).expect("under");
        assert_eq!(
            vol.charge(60),
            Err(ServerError::QuotaExceeded { volume: id })
        );
    }

    #[test]
    fn force_recover_runs_the_ladder() {
        let (mgr, id) = manager_with_volume(QuotaSpec::default());
        let vol = mgr.get(id).unwrap();
        let status = vol.force_recover();
        assert_eq!(status, FsStatus::Active);
        assert_eq!(vol.fs().stats().recoveries, 1);
    }

    #[test]
    fn volume_stats_json_is_balanced_and_keyed() {
        let (mgr, id) = manager_with_volume(QuotaSpec::default());
        let vol = mgr.get(id).unwrap();
        vol.observe_request(OpClass::Read, 1000);
        let json = vol.stats_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in ["\"name\"", "\"recoveries\"", "\"ops_used\"", "\"read\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn volumes_stats_json_keys_by_name() {
        let mgr = VolumeManager::new();
        let a = mgr
            .create(&VolumeSpec {
                name: "alpha".into(),
                ..VolumeSpec::default()
            })
            .unwrap();
        let b = mgr
            .create(&VolumeSpec {
                name: "beta".into(),
                ..VolumeSpec::default()
            })
            .unwrap();
        let va = mgr.get(a).unwrap();
        let vb = mgr.get(b).unwrap();
        let json = volumes_stats_json(&[
            ("alpha", va.fs(), va.tenant_counters()),
            ("beta", vb.fs(), vb.tenant_counters()),
        ]);
        assert!(json.contains("\"volumes\""), "{json}");
        assert!(json.contains("\"alpha\""), "{json}");
        assert!(json.contains("\"beta\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn scrape_prometheus_labels_every_volume() {
        let (mgr, id) = manager_with_volume(QuotaSpec {
            max_ops: 100,
            max_bytes: 0,
        });
        let vol = mgr.get(id).unwrap();
        vol.charge(1).expect("under quota");
        vol.observe_request(OpClass::Read, 1000);
        populate_volume(vol.fs(), 1, 64).expect("populate");
        let text = mgr.scrape_prometheus();
        for needle in [
            "# TYPE rae_tenant_ops_used gauge",
            "rae_tenant_ops_used{volume=\"t0\"} 1",
            "# TYPE rae_request_latency_ns summary",
            "rae_request_latency_ns_count{volume=\"t0\",class=\"read\"} 1",
            "quantile=\"0.999\"",
            "rae_recoveries{volume=\"t0\"} 0",
            "# TYPE rae_attr_ns summary",
            "rae_events_dropped{volume=\"t0\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn scrape_json_is_balanced_and_carries_tenant_counters() {
        let (mgr, id) = manager_with_volume(QuotaSpec {
            max_ops: 2,
            max_bytes: 0,
        });
        let vol = mgr.get(id).unwrap();
        vol.charge(1).expect("under");
        vol.charge(1).expect("at limit");
        assert!(vol.charge(1).is_err());
        let json = mgr.scrape_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"volumes\"",
            "\"t0\"",
            "\"tenant\"",
            "\"ops_used\": 3",
            "\"quota_rejections\": 1",
            "\"request_latency\"",
            "\"telemetry\"",
            "\"attribution\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn tenant_counters_serialize_with_the_shared_schema() {
        let tc = TenantCounters {
            ops_used: 1,
            bytes_used: 2,
            max_ops: 3,
            max_bytes: 4,
            quota_rejections: 5,
        };
        assert_eq!(
            tc.to_json(),
            "{\"ops_used\": 1, \"bytes_used\": 2, \"max_ops\": 3, \
             \"max_bytes\": 4, \"quota_rejections\": 5}"
        );
    }

    #[test]
    fn unmount_all_reports_clean() {
        let mgr = VolumeManager::new();
        for i in 0..3 {
            mgr.create(&VolumeSpec {
                name: format!("v{i}"),
                ..VolumeSpec::default()
            })
            .unwrap();
        }
        let (n, clean) = mgr.unmount_all().expect("unmount_all");
        assert_eq!(n, 3);
        assert!(clean);
        assert!(mgr.is_empty());
    }

    #[test]
    fn populate_gives_loadable_working_set() {
        let (mgr, id) = manager_with_volume(QuotaSpec::default());
        let vol = mgr.get(id).unwrap();
        populate_volume(vol.fs(), 8, 512).expect("populate");
        assert_eq!(vol.fs().readdir("/data").unwrap().len(), 8);
        assert_eq!(vol.fs().stat("/data/f0007").unwrap().size, 512);
    }
}
