//! The six workloads and their seeded operation streams.
//!
//! A stream is generated up front from `--seed` and is all the system
//! under test ever sees. Every operation is *stateless* (it names its
//! file, block and fill byte; nothing depends on what ran before), so a
//! thread may cycle through its stream for as long as the timed phase
//! lasts and the oracle can replay "the first k operations of thread t"
//! against the model without knowing how many cycles that was.

use rae_workloads::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bytes moved by one `Read`/`Write`.
pub const IO_BYTES: usize = 4096;
/// Bytes written by one `WriteSmall` (the churn cycle's payload).
pub const SMALL_BYTES: usize = 512;
/// Operations in one churn cycle: create, write, close, rename, unlink.
pub const CHURN_CYCLE: usize = 5;
/// Names the churn thread cycles through (every create is matched by
/// an unlink, so a small pool never collides).
pub const CHURN_SLOTS: usize = 256;
/// Logical clients multiplexed on one `srv-mixed` connection.
pub const SRV_CLIENTS_PER_CONN: usize = 8;
/// Volumes each `srv-mixed` connection owns (disjoint between the two
/// connections, so the final contents are deterministic).
pub const SRV_VOLS_PER_CONN: usize = 2;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read [`IO_BYTES`] at block `block` of file `file`.
    Read { file: u16, block: u16 },
    /// `stat` file `file` by path.
    Stat { file: u16 },
    /// Write [`IO_BYTES`] of `fill` at block `block` (past EOF extends).
    Write { file: u16, block: u16, fill: u8 },
    /// `fsync` file `file`.
    Fsync { file: u16 },
    /// Churn: create-and-open name `slot`.
    Create { slot: u16 },
    /// Churn: write [`SMALL_BYTES`] of `fill` to the file just created.
    WriteSmall { fill: u8 },
    /// Churn: close the file just created.
    Close,
    /// Churn: rename name `slot` to its second name.
    Rename { slot: u16 },
    /// Churn: unlink the second name of `slot`.
    Unlink { slot: u16 },
}

/// Operation-type names, indexed by [`Op::kind`] (per-type diagnostics).
pub const KIND_NAMES: [&str; 9] = [
    "read", "stat", "write", "fsync", "create", "write512", "close", "rename", "unlink",
];

impl Op {
    /// Index into [`KIND_NAMES`].
    pub fn kind(self) -> u8 {
        match self {
            Op::Read { .. } => 0,
            Op::Stat { .. } => 1,
            Op::Write { .. } => 2,
            Op::Fsync { .. } => 3,
            Op::Create { .. } => 4,
            Op::WriteSmall { .. } => 5,
            Op::Close => 6,
            Op::Rename { .. } => 7,
            Op::Unlink { .. } => 8,
        }
    }

    /// Fixed-width encoding, the input of [`stream_hash`].
    fn encode(self) -> [u8; 6] {
        let (a, b, c) = match self {
            Op::Read { file, block } => (file, block, 0),
            Op::Stat { file } | Op::Fsync { file } => (file, 0, 0),
            Op::Write { file, block, fill } => (file, block, fill),
            Op::Create { slot } | Op::Rename { slot } | Op::Unlink { slot } => (slot, 0, 0),
            Op::WriteSmall { fill } => (0, 0, fill),
            Op::Close => (0, 0, 0),
        };
        let (a, b) = (a.to_le_bytes(), b.to_le_bytes());
        [self.kind(), a[0], a[1], b[0], b[1], c]
    }
}

/// FNV-1a over the encoded streams of all threads, in thread order.
pub fn stream_hash(streams: &[Vec<Op>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (t, stream) in streams.iter().enumerate() {
        for byte in (t as u32).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for op in stream {
            for byte in op.encode() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Which system a workload drives and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Shared read-only file set, reads + a few stats.
    Read,
    /// Per-thread subtrees, overwrites/extends with periodic fsync.
    WriteSync,
    /// Thread 0 churns metadata and takes injected faults, thread 1
    /// reads a stable set; `warm` turns the standby on.
    Fault { warm: bool },
    /// `rae_server::Server` over loopback TCP.
    Server,
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    /// Files in each file set (shared set, per-thread subtree, the
    /// fault reader's set, or per server volume).
    pub files: usize,
    /// Populated size of each file, in [`IO_BYTES`] blocks.
    pub file_blocks: usize,
    /// Blocks a `Write` may address; beyond `file_blocks` it extends.
    pub write_blocks: usize,
    /// Zipf exponent of file popularity; 0 = uniform.
    pub zipf: f64,
    /// Untimed warm-up operations per thread (about a tenth of what
    /// one thread completes in the default timed phase on 2 cores).
    pub warmup_ops: usize,
    /// Fault workloads: a base bug is armed before every this-many-th
    /// operation of thread 0 (a multiple of [`CHURN_CYCLE`], so that it
    /// fires in a create). 0 elsewhere.
    pub probe_every: usize,
    /// Modelled device latency per block `(read, write)`, in ns.
    pub device_ns: (u64, u64),
    /// Every operation is timed; every this-many-th latency is stored.
    /// Above 1 only where a thread outruns the sample buffer.
    pub sample_every: usize,
}

/// Pause of the fault workloads' reader between a reply and its next
/// request. It is there to observe availability, every 0.1-0.2 ms;
/// spinning on cache hits instead (which `fs-read-hit` measures) would
/// bury the metadata path in the pooled throughput and latency.
pub const READER_THINK_NS: u64 = 100_000;

/// The default device model: 50 us per block either way, above
/// `FaultyDisk`'s 20 us sleep threshold, so device time overlaps across
/// threads instead of burning a core.
pub const CLOUD_DISK_NS: (u64, u64) = (50_000, 50_000);
/// The NVMe-class model of the repo's E1-E3 experiments (busy-waited).
/// The fault workloads use it: on the 50 us model one cold recovery
/// takes about a second (`fsck` reads every inode's block singly and
/// the cache-free shadow re-reads metadata for every replayed record),
/// which would leave fewer than ten faults in a run.
pub const NVME_DISK_NS: (u64, u64) = (8_000, 16_000);
/// `RaeConfig::max_log_records` on the fault workloads (default
/// 10 000). They never fsync, so the retained op log, and with it the
/// cold replay, would otherwise grow for the whole run; capped, the log
/// length at a fault is in steady state within a run.
pub const FAULT_LOG_CAP: usize = 256;

/// Load-generating threads (= connections for `srv-mixed`): `nproc`
/// on the 2-core sandbox the bounds were set on.
pub const THREADS: usize = 2;
/// Generated operations per thread; threads cycle through them.
pub const STREAM_LEN: usize = 1 << 16;
/// `fs-write-sync`: an fsync follows every this many writes.
pub const FSYNC_EVERY: usize = 8;

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "fs-read-hit",
        why: "Zipf reads over 4 MiB, half the 8 MiB page cache: the CPU-only control, where lock, gate and cache-hit cost has nowhere to hide",
        kind: Kind::Read,
        files: 256,
        file_blocks: 4,
        write_blocks: 0,
        zipf: 0.99,
        warmup_ops: 200_000,
        probe_every: 0,
        device_ns: CLOUD_DISK_NS,
        sample_every: 16,
    },
    Spec {
        name: "fs-read-miss",
        why: "uniform reads over 32 MiB, 4x the page cache: cache fill, eviction and device read latency dominate; the counterpart of fs-read-hit",
        kind: Kind::Read,
        files: 512,
        file_blocks: 16,
        write_blocks: 0,
        zipf: 0.0,
        warmup_ops: 8_000,
        probe_every: 0,
        device_ns: CLOUD_DISK_NS,
        sample_every: 1,
    },
    Spec {
        name: "fs-write-sync",
        why: "4 KiB overwrites and extends with fsync every 8 writes, 2 disjoint subtrees: journal group commit, op-log recording and write-back",
        kind: Kind::WriteSync,
        files: 64,
        file_blocks: 16,
        write_blocks: 24,
        zipf: 0.0,
        warmup_ops: 2_000,
        probe_every: 0,
        device_ns: CLOUD_DISK_NS,
        sample_every: 1,
    },
    Spec {
        name: "fault-cold",
        why: "metadata churn plus a reader with a base bug injected every 4000 churn ops, standby off: every recovery is a cold shadow replay",
        kind: Kind::Fault { warm: false },
        files: 64,
        file_blocks: 4,
        write_blocks: 0,
        zipf: 0.0,
        warmup_ops: 8_000,
        probe_every: 4_000,
        device_ns: NVME_DISK_NS,
        sample_every: 1,
    },
    Spec {
        name: "fault-warm",
        why: "the same stream and fault schedule with the warm standby on: isolates handover, resync and re-arm and prices the standby's tax",
        kind: Kind::Fault { warm: true },
        files: 64,
        file_blocks: 4,
        write_blocks: 0,
        zipf: 0.0,
        warmup_ops: 8_000,
        probe_every: 4_000,
        device_ns: NVME_DISK_NS,
        sample_every: 1,
    },
    Spec {
        name: "srv-mixed",
        why: "2 TCP connections x 8 logical clients, 70/30 read/write, 2% fsync, Zipf 0.99 on 4 volumes: wire framing, worker pool and syscalls dominate",
        kind: Kind::Server,
        files: 32,
        file_blocks: 4,
        write_blocks: 4,
        zipf: 0.99,
        warmup_ops: 10_000,
        probe_every: 0,
        // the server builds its own devices: bare MemDisk
        device_ns: (0, 0),
        sample_every: 1,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Entries in one thread's file table (what `Op::*::file` indexes).
pub fn table_len(spec: &Spec) -> usize {
    match spec.kind {
        Kind::Server => spec.files * SRV_VOLS_PER_CONN,
        _ => spec.files,
    }
}

/// The byte every block of a populated file is filled with.
pub fn populate_fill(file: usize, block: usize) -> u8 {
    (file.wrapping_mul(31).wrapping_add(block.wrapping_mul(7)) % 251) as u8 + 1
}

fn thread_rng(seed: u64, thread: usize, lane: usize) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((thread as u64) << 32) | lane as u64),
    )
}

/// Generate thread `thread`'s stream of `len` operations.
pub fn generate(spec: &Spec, seed: u64, thread: usize, len: usize) -> Vec<Op> {
    let mut rng = thread_rng(seed, thread, 0);
    let zipf = Zipf::new(spec.files, spec.zipf);
    let pick = |rng: &mut SmallRng| zipf.sample(rng) as u16;
    let mut ops = Vec::with_capacity(len);
    match spec.kind {
        Kind::Read => {
            while ops.len() < len {
                let file = pick(&mut rng);
                ops.push(if rng.gen_range(0..100u32) < 5 {
                    Op::Stat { file }
                } else {
                    let block = rng.gen_range(0..spec.file_blocks) as u16;
                    Op::Read { file, block }
                });
            }
        }
        Kind::WriteSync => {
            let mut since_sync = 0;
            while ops.len() < len {
                let file = pick(&mut rng);
                if rng.gen_range(0..100u32) < 10 {
                    let block = rng.gen_range(0..spec.file_blocks) as u16;
                    ops.push(Op::Read { file, block });
                    continue;
                }
                let block = rng.gen_range(0..spec.write_blocks) as u16;
                let fill = rng.gen_range(1..=255u32) as u8;
                ops.push(Op::Write { file, block, fill });
                since_sync += 1;
                if since_sync == FSYNC_EVERY && ops.len() < len {
                    since_sync = 0;
                    ops.push(Op::Fsync { file });
                }
            }
        }
        Kind::Fault { .. } if thread == 0 => {
            // whole cycles only, so cycling the stream never leaves a
            // file open or a name behind
            let mut slot = 0u16;
            while ops.len() + CHURN_CYCLE <= len {
                let fill = rng.gen_range(1..=255u32) as u8;
                ops.extend([
                    Op::Create { slot },
                    Op::WriteSmall { fill },
                    Op::Close,
                    Op::Rename { slot },
                    Op::Unlink { slot },
                ]);
                slot = (slot + 1) % CHURN_SLOTS as u16;
            }
        }
        Kind::Fault { .. } => {
            while ops.len() < len {
                let file = pick(&mut rng);
                ops.push(if rng.gen_range(0..100u32) < 20 {
                    Op::Stat { file }
                } else {
                    let block = rng.gen_range(0..spec.file_blocks) as u16;
                    Op::Read { file, block }
                });
            }
        }
        Kind::Server => {
            // logical clients take turns op by op; each owns an RNG
            // lane and a fixed volume of this connection
            let mut lanes: Vec<SmallRng> = (0..SRV_CLIENTS_PER_CONN)
                .map(|c| thread_rng(seed, thread, c + 1))
                .collect();
            while ops.len() < len {
                let c = ops.len() % SRV_CLIENTS_PER_CONN;
                let rng = &mut lanes[c];
                let vol = c % SRV_VOLS_PER_CONN;
                let file = (vol * spec.files) as u16 + pick(rng);
                let block = rng.gen_range(0..spec.file_blocks) as u16;
                let roll = rng.gen_range(0..100u32);
                ops.push(if roll < 30 {
                    let fill = rng.gen_range(1..=255u32) as u8;
                    Op::Write { file, block, fill }
                } else if roll < 32 {
                    Op::Fsync { file }
                } else if roll < 37 {
                    Op::Stat { file }
                } else {
                    Op::Read { file, block }
                });
            }
        }
    }
    ops
}

/// All threads' streams for `spec`.
pub fn generate_all(spec: &Spec, seed: u64, len: usize) -> Vec<Vec<Op>> {
    (0..THREADS).map(|t| generate(spec, seed, t, len)).collect()
}
