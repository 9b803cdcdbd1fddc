//! Discrete-time overprovisioned-cluster simulator and experiment runner.
//!
//! Reproduces the paper's evaluation platform in simulation: a server node
//! running one of the power managers and two client clusters of five
//! dual-socket nodes each (20 power-capping units), a cluster-wide power
//! budget of 66.7 % of TDP (110 W/socket average), a one-second decision
//! cycle, and workload pairs running side by side — one workload per
//! cluster, the shorter one repeating until the longer completes its
//! repetitions.
//!
//! * [`sim`] — the staged per-cycle simulation loop tying demand → RAPL
//!   domains → measurements → manager → caps → progress, over a pinned,
//!   scheduled or request-serving workload.
//! * [`controlplane`] — the latency/traffic model of the server↔client
//!   messaging (3 bytes per unit per cycle, BSD-socket latencies; §6.5).
//!   The 3-byte wire frames and the full framed control plane (lossy
//!   links, node agents, a budget-safe controller) live in `dps-ctrl`; the
//!   simulator selects between the direct, quantized and framed planes via
//!   [`sim::ControlPlaneMode`].
//! * [`satisfaction`] — per-cluster satisfaction (Eq. 1) and pairwise
//!   fairness (Eq. 2) accounting.
//! * [`logging`] — optional per-cycle logs (power, cap, priority per unit),
//!   the records the paper's artifact emits.
//! * [`runner`] — the experiment harness: builds a workload pair, runs it
//!   under a chosen manager until both sides finish their repetitions, and
//!   reports throughput times, satisfaction, and fairness.
//! * [`shocks`] — dynamic budget schedules (steps, brownout ramps,
//!   demand-response windows) the simulator pushes to the manager through
//!   `PowerManager::set_budget` each cycle.
//! * [`chaos`] — correlated cross-layer incident windows (rack-scoped
//!   sensor faults + frame loss + node churn + budget shocks) compiled
//!   into the per-layer injectors at construction.
//! * [`invariant`] — the always-on per-cycle safety monitor backing the
//!   `Normal → Degraded → SafeMode` operating-mode ladder
//!   (`dps_core::mode`).

#![warn(missing_docs)]

pub mod chaos;
pub mod controlplane;
pub mod invariant;
pub mod logging;
pub mod runner;
pub mod satisfaction;
pub mod shocks;
pub mod sim;

pub use chaos::{ChaosSchedule, ChaosWindow};
pub use controlplane::ControlPlaneModel;
pub use invariant::{InvariantConfig, InvariantInputs, InvariantMonitor};
pub use logging::{CycleLog, CycleRecord};
pub use runner::{run_pair, ExperimentConfig, PairOutcome, WorkloadOutcome};
pub use satisfaction::{FairnessTracker, SatisfactionTracker};
pub use shocks::{BudgetSchedule, BudgetSegment};
pub use sim::{ClusterSim, ControlPlaneMode, SimConfig};
