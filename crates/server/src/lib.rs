//! The RAE network storage service: many independent [`rae::RaeFs`]
//! volumes behind one TCP endpoint.
//!
//! The paper's pitch is that RAE recovery keeps a filesystem *serving*
//! through runtime errors; this crate is where that claim meets
//! clients. A [`server::Server`] owns a [`volume::VolumeManager`]
//! (one device + RaeFs + fault registry + quota per tenant) and speaks
//! a bespoke length-prefixed binary protocol ([`wire`]) over
//! `std::net` with a bounded worker thread pool — no async runtime,
//! no external protocol dependencies.
//!
//! Layering:
//!
//! * [`wire`] — frame codec: requests, replies, and the exhaustive
//!   `FsError` ↔ wire-errno table.
//! * [`volume`] — the multi-tenant volume manager with per-tenant
//!   op/byte quotas and per-op-class request histograms.
//! * [`server`] — listener, worker pool, graceful shutdown.
//! * [`client`] — a blocking typed client (used by the load generator
//!   in `rae-workloads` and the `raefs loadgen` CLI).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod volume;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{sigint_installed, sigint_triggered, Server, ServerConfig, ShutdownReport};
pub use volume::{
    volumes_stats_json, QuotaSpec, TenantCounters, Volume, VolumeManager, VolumeSpec,
};
pub use wire::{
    effect_from_code, site_from_code, status_code, status_name, AdminOp, DecodeError, FsOp, Reply,
    Request, Response, ServerError, VolumeInfo, MAX_FRAME_LEN,
};

// kept here too for the callers that import it from the server
pub use rae_faults::quiet_injected_panics;
