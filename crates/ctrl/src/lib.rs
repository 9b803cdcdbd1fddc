//! `dps-ctrl` — the framed control plane for the DPS cluster simulation.
//!
//! The paper's control plane (§6.5) talks to node agents over a 3-byte
//! framed wire protocol. The rest of this repository models that exchange
//! as either instantaneous shared memory ("direct") or a lossless
//! quantization pass ("quantized"). This crate supplies the third, most
//! faithful mode: a deterministic discrete-event control plane in which
//! every poll, report, cap assignment and acknowledgement is a [`Frame`]
//! on a [`LossyLink`] that can drop, delay, reorder, duplicate or corrupt
//! it — with a [`Controller`] that keeps the cluster inside its power
//! budget anyway.
//!
//! Components, bottom-up:
//!
//! * [`frame`] — the 3-byte wire protocol.
//! * [`link`] — [`LossyLink`], the transport: ideal with a clean
//!   [`LinkConfig`], faulty otherwise.
//! * [`agent`] — [`NodeAgent`], the per-node daemon.
//! * [`controller`] — [`Controller`], liveness tracking, hold-last
//!   telemetry and the believed-cap budget-safety invariant.
//! * [`plane`] — [`FramedControlPlane`], the gather→decide→scatter event
//!   loop gluing the above together.
//! * [`fault`] / [`config`] / [`stats`] — fault schedules, configuration,
//!   and run counters.
//!
//! Everything is seeded through [`dps_sim_core::rng::RngStream`]: the same
//! seed replays the same drops, the same retries, the same cap history.

#![warn(missing_docs)]

pub mod agent;
pub mod config;
pub mod controller;
pub mod fault;
pub mod frame;
pub mod link;
pub mod plane;
pub mod stats;

pub use agent::NodeAgent;
pub use config::{FramedConfig, RetryPolicy};
pub use controller::Controller;
pub use fault::{FaultEvent, FaultSchedule};
pub use frame::{watts_to_wire, wire_slack, Frame, DECIWATT, DELIVERY_EPSILON};
pub use link::{LinkConfig, LinkCounters, LossyLink};
pub use plane::FramedControlPlane;
pub use stats::CtrlStats;
