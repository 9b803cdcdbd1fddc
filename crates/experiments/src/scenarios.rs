//! Pinned-seed golden-trace scenarios.
//!
//! Each scenario builds a fully deterministic end-to-end run (fixed seed,
//! fixed topology, fixed workloads), attaches a recording [`SinkHandle`],
//! and returns the encoded `dps-obs` binary trace. The committed traces
//! under `tests/golden/` are these scenarios' output; `tests/golden_trace.rs`
//! re-records them on every test run and compares byte for byte, which
//! turns any behavioural drift in the decision loop — however small — into
//! a test failure with an event-level diff (`trace_inspect diff`).
//!
//! The same builders back the `trace_inspect record` subcommand, so a human
//! can regenerate or inspect the exact scenario a failing test ran.
//!
//! Determinism ground rules baked into these runs:
//!
//! * seeds are pinned per scenario and never derived from ambient state;
//! * sinks record without timing spans ([`dps_obs::RingSink::new`]), so no
//!   wall-clock nanoseconds enter the byte stream;
//! * ring capacity is sized so no scenario ever drops an event — a change
//!   that suddenly overflows the ring is itself a regression worth seeing.

use dps_cluster::sim::ProgramFactory;
use dps_cluster::{BudgetSchedule, ChaosSchedule, ChaosWindow, ClusterSim, SimConfig};
use dps_core::manager::{PowerManager, UnitLimits};
use dps_core::{DpsConfig, DpsManager, GuardConfig, ShardedManager};
use dps_idle::{IdleConfig, IdlePolicy};
use dps_obs::SinkHandle;
use dps_rapl::{
    ActuatorFault, NoiseModel, SensorFault, Topology, UnitFaultEvent, UnitFaultSchedule,
};
use dps_sched::{ArrivalSpec, JobRequest, SchedConfig};
use dps_sim_core::RngStream;
use dps_traffic::{ProvisionerConfig, ProvisionerMode, TrafficConfig, TrafficPattern};
use dps_workloads::catalog::{PowerClass, Suite, WorkloadSpec};
use dps_workloads::{DemandProgram, Phase};

/// Ring capacity for scenario recording — far above the largest scenario's
/// event count so `dropped` is always 0 in a healthy trace.
const RING_CAPACITY: usize = 1 << 16;

/// One pinned golden scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenScenario {
    /// The paper's defaults on a downsized testbed: noisy telemetry, a hot
    /// cluster against a quiet one, plain (unguarded) DPS. Exercises the
    /// core decision events: MIMD cap deltas, priority flips, readjusts.
    PaperDefault,
    /// Guarded DPS under a scripted sensor-dropout and actuator-drop
    /// window, with the controller watchdog on. Exercises guard health
    /// transitions, quarantines, NaN-cap repairs, fault edges, and
    /// checkpoint events.
    SensorFault,
    /// Scheduler mode: a pinned Poisson job stream through the EASY
    /// backfill queue. Exercises job lifecycle events, membership churn,
    /// and queue-depth accounting.
    SchedulerChurn,
    /// Traffic mode: a flash-crowd request stream through the reactive
    /// provisioner. Exercises provisioning decisions (power-ons during the
    /// crowd, hysteresis power-offs after), request milestones, and the
    /// membership churn elastic sizing drives.
    ElasticTraffic,
    /// Traffic mode with idle-state management: the same flash-crowd shape
    /// as [`GoldenScenario::ElasticTraffic`], but the provisioner's
    /// power-offs demote units down the learning-augmented sleep ladder
    /// instead of hard-killing them, and power-ons pay a wake latency
    /// before readmission. Exercises sleep transitions, wake starts and
    /// completions, predictor samples, and the wake-energy ledger.
    IdleElastic,
    /// Graceful degradation under a correlated incident: guarded DPS on
    /// the framed control plane while one rack loses its sensors *and*
    /// its links corrupt frames *and* a budget brownout ramps through —
    /// all in overlapping windows. Exercises budget shocks, the
    /// `Normal → Degraded → Normal` mode ladder, chaos-compiled fault
    /// edges, and the always-on invariant monitor (which must stay
    /// silent: zero violations is part of the golden contract).
    ChaosBrownout,
    /// Traffic mode under the hierarchical sharded manager: the
    /// [`GoldenScenario::ElasticTraffic`] flash crowd, but the fleet is
    /// split into four shards whose grants the top-level allocator trades
    /// as the crowd ramps and the provisioner churns membership.
    /// Exercises inter-shard grant events, global-index membership flips
    /// from a multi-shard tree, and the invariant monitor's per-level
    /// tree checks (silent, as everywhere).
    ShardedElastic,
    /// Pinned pair with per-run realisations under chaos node churn:
    /// guarded DPS while a chaos window powers one rack down and back up,
    /// and each cluster's program is regenerated at every run boundary
    /// (`ClusterSim::with_factories`). Exercises the realisation swap,
    /// churn-driven membership flips in both directions, and the budget
    /// reallocation around the dark rack.
    ChaosChurn,
}

impl GoldenScenario {
    /// Every scenario, in golden-file order.
    pub const ALL: [GoldenScenario; 8] = [
        GoldenScenario::PaperDefault,
        GoldenScenario::SensorFault,
        GoldenScenario::SchedulerChurn,
        GoldenScenario::ElasticTraffic,
        GoldenScenario::IdleElastic,
        GoldenScenario::ChaosBrownout,
        GoldenScenario::ShardedElastic,
        GoldenScenario::ChaosChurn,
    ];

    /// Stable scenario name (also the golden file stem).
    pub fn name(&self) -> &'static str {
        match self {
            GoldenScenario::PaperDefault => "paper_default",
            GoldenScenario::SensorFault => "sensor_fault",
            GoldenScenario::SchedulerChurn => "scheduler_churn",
            GoldenScenario::ElasticTraffic => "elastic_traffic",
            GoldenScenario::IdleElastic => "idle_elastic",
            GoldenScenario::ChaosBrownout => "chaos_brownout",
            GoldenScenario::ShardedElastic => "sharded_elastic",
            GoldenScenario::ChaosChurn => "chaos_churn",
        }
    }

    /// The committed golden file name under `tests/golden/`.
    pub fn file_name(&self) -> String {
        format!("{}.trace", self.name())
    }

    /// Parses a scenario name (as printed by [`GoldenScenario::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Records the scenario with the default DPS configuration and returns
    /// the encoded binary trace.
    pub fn record(&self) -> Vec<u8> {
        self.record_with(DpsConfig::default())
    }

    /// Records the scenario under a caller-chosen [`DpsConfig`] — the hook
    /// the cross-mode equivalence tests use to check that `Incremental` vs
    /// `Rescan` statistics (and the threaded classify phase) leave the
    /// trace byte-identical.
    pub fn record_with(&self, dps: DpsConfig) -> Vec<u8> {
        let sink = SinkHandle::recording(RING_CAPACITY);
        self.drive(dps, &sink);
        sink.export().expect("recording sink exports")
    }

    /// Re-records the scenario with every flat DPS manager replaced by a
    /// `num_shards`-shard [`ShardedManager`] built from the *same* RNG
    /// stream. With `num_shards == 1` the tree must be trace-byte-identical
    /// to [`GoldenScenario::record_with`] — `tests/sharded_equivalence.rs`
    /// asserts exactly that against the committed golden files. The
    /// [`GoldenScenario::ShardedElastic`] scenario is a tree already and
    /// records itself unchanged.
    pub fn record_with_shards(&self, dps: DpsConfig, num_shards: usize) -> Vec<u8> {
        let sink = SinkHandle::recording(RING_CAPACITY);
        self.drive_flavored(dps, &sink, ManagerFlavor::Sharded(num_shards));
        sink.export().expect("recording sink exports")
    }

    /// Drives the scenario's pinned run against a caller-provided sink —
    /// the hook for recording a scenario through a
    /// [`dps_obs::SegmentSink`] (or any other [`dps_obs::TraceSink`])
    /// instead of the default in-memory ring. The event stream is a
    /// function of the scenario and `dps` alone, never of the sink, so
    /// two recordings of the same scenario through different sinks must
    /// replay identically.
    pub fn drive(&self, dps: DpsConfig, sink: &SinkHandle) {
        self.drive_flavored(dps, sink, ManagerFlavor::Flat)
    }

    fn drive_flavored(&self, dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
        match self {
            GoldenScenario::PaperDefault => drive_paper_default(dps, sink, flavor),
            GoldenScenario::SensorFault => drive_sensor_fault(dps, sink, flavor),
            GoldenScenario::SchedulerChurn => drive_scheduler_churn(dps, sink, flavor),
            GoldenScenario::ElasticTraffic => drive_elastic_traffic(dps, sink, flavor),
            GoldenScenario::IdleElastic => drive_idle_elastic(dps, sink, flavor),
            GoldenScenario::ChaosBrownout => drive_chaos_brownout(dps, sink, flavor),
            GoldenScenario::ShardedElastic => drive_sharded_elastic(dps, sink),
            GoldenScenario::ChaosChurn => drive_chaos_churn(dps, sink, flavor),
        }
    }
}

/// Which decision core the flat scenarios run: the golden files are
/// recorded under [`ManagerFlavor::Flat`]; the differential harness
/// re-records with a sharded tree from the same RNG stream and demands
/// byte-identity at one shard.
#[derive(Debug, Clone, Copy)]
enum ManagerFlavor {
    /// The flat [`DpsManager`] the committed golden traces were made with.
    Flat,
    /// A [`ShardedManager`] with the given shard count (a one-shard tree
    /// consumes the RNG stream exactly like the flat manager).
    Sharded(usize),
}

/// 2 clusters × 2 nodes × 2 sockets with the paper's power numbers — big
/// enough for cross-cluster reallocation, small enough that a full golden
/// trace stays a few tens of kilobytes.
fn small_testbed() -> SimConfig {
    SimConfig {
        topology: Topology::new(2, 2, 2),
        ..SimConfig::paper_default()
    }
}

fn limits(cfg: &SimConfig) -> UnitLimits {
    UnitLimits {
        min_cap: cfg.domain_spec.min_cap,
        max_cap: cfg.domain_spec.tdp,
    }
}

fn plain_dps(
    cfg: &SimConfig,
    dps: DpsConfig,
    rng: &RngStream,
    flavor: ManagerFlavor,
) -> Box<dyn PowerManager> {
    let n = cfg.topology.total_units();
    match flavor {
        ManagerFlavor::Flat => Box::new(DpsManager::new(
            n,
            cfg.total_budget(),
            limits(cfg),
            dps,
            rng.child("mgr"),
        )),
        ManagerFlavor::Sharded(k) => Box::new(ShardedManager::new(
            n,
            cfg.total_budget(),
            limits(cfg),
            dps,
            k,
            rng.child("mgr"),
        )),
    }
}

fn guarded_dps(
    cfg: &SimConfig,
    dps: DpsConfig,
    rng: &RngStream,
    flavor: ManagerFlavor,
) -> Box<dyn PowerManager> {
    // Noise-free telemetry trips the zero-variance detector; the fault
    // scenarios run without noise so the value gates do the detecting.
    let guard = GuardConfig {
        stuck_window: 0,
        quarantine_after: 2,
        probation_after: 3,
        readmit_after: 4,
        ..Default::default()
    };
    let n = cfg.topology.total_units();
    match flavor {
        ManagerFlavor::Flat => Box::new(DpsManager::with_guard(
            n,
            cfg.total_budget(),
            limits(cfg),
            dps,
            guard,
            rng.child("mgr"),
        )),
        ManagerFlavor::Sharded(k) => Box::new(ShardedManager::with_guard(
            n,
            cfg.total_budget(),
            limits(cfg),
            dps,
            guard,
            k,
            rng.child("mgr"),
        )),
    }
}

fn run_with(mut sim: ClusterSim, cycles: u64, sink: &SinkHandle) {
    sim.set_trace_sink(sink.clone());
    for _ in 0..cycles {
        sim.cycle();
    }
}

fn drive_paper_default(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    let cfg = small_testbed();
    let rng = RngStream::new(0xD50_001, "golden/paper-default");
    // A hot ramping cluster against a mostly-quiet one: drives MIMD raises,
    // priority flips both ways, and distributed readjusts.
    let hot = DemandProgram::new(vec![
        Phase::ramp(20.0, 60.0, 160.0),
        Phase::constant(60.0, 160.0),
        Phase::ramp(20.0, 160.0, 90.0),
    ]);
    let quiet = DemandProgram::new(vec![
        Phase::constant(40.0, 30.0),
        Phase::ramp(20.0, 30.0, 120.0),
        Phase::constant(40.0, 45.0),
    ]);
    let manager = plain_dps(&cfg, dps, &rng, flavor);
    let sim = ClusterSim::new(cfg, vec![hot, quiet], manager, &rng);
    run_with(sim, 90, sink)
}

fn drive_sensor_fault(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    let mut cfg = small_testbed();
    cfg.noise = NoiseModel::None;
    cfg.sensor_faults = UnitFaultSchedule::new(vec![
        UnitFaultEvent::sensor(0, 15.0, 45.0, SensorFault::Dropout),
        UnitFaultEvent::actuator(2, 30.0, 60.0, ActuatorFault::DropWrites),
    ]);
    let rng = RngStream::new(0xD50_002, "golden/sensor-fault");
    let hot = DemandProgram::new(vec![Phase::constant(200.0, 160.0)]);
    let busy = DemandProgram::new(vec![Phase::constant(200.0, 140.0)]);
    let manager = guarded_dps(&cfg, dps, &rng, flavor);
    let mut sim = ClusterSim::new(cfg, vec![hot, busy], manager, &rng);
    sim.enable_watchdog(16);
    run_with(sim, 100, sink)
}

/// A synthetic short workload for the churn scenario: catalog entries run
/// for hundreds of seconds, which would bloat the committed golden file.
fn short_spec(name: &'static str, duration: f64, class: PowerClass) -> WorkloadSpec {
    WorkloadSpec {
        name,
        suite: Suite::Spark,
        data_size_gb: 1.0,
        duration_110w: duration,
        class,
        frac_above_110: match class {
            PowerClass::Low => 0.05,
            PowerClass::Mid => 0.4,
            PowerClass::High => 0.8,
        },
    }
}

fn drive_scheduler_churn(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    // The generated job specs need whole-cluster headroom; the 16-unit
    // testbed (2 clusters × 4 nodes × 2 sockets) fits them comfortably.
    let mut cfg = SimConfig {
        topology: Topology::new(2, 4, 2),
        ..SimConfig::paper_default()
    };
    // An explicit trace of short jobs: full lifecycle coverage (arrive,
    // start, finish — and one walltime eviction via job 3's tight
    // request) inside a few hundred cycles.
    let jobs = vec![
        JobRequest {
            id: 0,
            spec: short_spec("golden-etl", 60.0, PowerClass::Mid),
            arrival: 0.0,
            nodes: 4,
            walltime: 150.0,
            reserve_per_socket: 110.0,
        },
        JobRequest {
            id: 1,
            spec: short_spec("golden-train", 80.0, PowerClass::High),
            arrival: 10.0,
            nodes: 3,
            walltime: 200.0,
            reserve_per_socket: 110.0,
        },
        JobRequest {
            id: 2,
            spec: short_spec("golden-report", 40.0, PowerClass::Low),
            arrival: 25.0,
            nodes: 2,
            walltime: 120.0,
            reserve_per_socket: 60.0,
        },
        JobRequest {
            id: 3,
            spec: short_spec("golden-overrun", 90.0, PowerClass::High),
            arrival: 40.0,
            nodes: 4,
            walltime: 35.0, // below its runtime → evicted
            reserve_per_socket: 110.0,
        },
        JobRequest {
            id: 4,
            spec: short_spec("golden-tail", 50.0, PowerClass::Mid),
            arrival: 70.0,
            nodes: 2,
            walltime: 140.0,
            reserve_per_socket: 110.0,
        },
    ];
    cfg.scheduler = Some(SchedConfig {
        arrivals: ArrivalSpec::Trace(jobs),
        backfill: true,
        enforce_walltime: true,
        walltime_factor: 1.6,
        slowdown_bound: 10.0,
    });
    let rng = RngStream::new(0xD50_003, "golden/scheduler-churn");
    let manager = plain_dps(&cfg, dps, &rng, flavor);
    let mut sim = ClusterSim::with_scheduler(cfg, manager, &rng);
    sim.set_trace_sink(sink.clone());
    // Run to queue drain (bounded), then a short idle tail so the trace
    // also covers the cluster going quiet.
    for _ in 0..1_000 {
        if sim.scheduler_drained() {
            break;
        }
        sim.cycle();
    }
    assert!(sim.scheduler_drained(), "churn scenario failed to drain");
    for _ in 0..5 {
        sim.cycle();
    }
}

fn drive_elastic_traffic(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    // 4 nodes × 2 sockets: small enough for a compact trace, big enough
    // for the reactive provisioner to walk the fleet up and back down.
    let mut cfg = SimConfig {
        topology: Topology::new(2, 2, 2),
        ..SimConfig::paper_default()
    };
    let total_sockets = cfg.topology.total_units();
    let mut traffic = TrafficConfig::default_diurnal(total_sockets, 100.0);
    // A flash crowd that peaks near the fleet's full service capacity:
    // forces power-ons on the ramp and — after the 15 s hysteresis —
    // power-offs on the far side, all inside 220 cycles.
    traffic.pattern = TrafficPattern::FlashCrowd {
        base_rps: 100.0,
        peak_rps: 0.9 * total_sockets as f64 * 100.0,
        start: 20.0,
        ramp: 10.0,
        hold: 60.0,
        decay: 10.0,
    };
    traffic.provisioner = ProvisionerMode::Reactive(ProvisionerConfig {
        target_utilization: 0.7,
        headroom_nodes: 0,
        power_off_after: 15.0,
        min_nodes: 1,
    });
    traffic.milestone_every = 10_000;
    cfg.traffic = Some(traffic);
    let rng = RngStream::new(0xD50_004, "golden/elastic-traffic");
    let manager = plain_dps(&cfg, dps, &rng, flavor);
    let sim = ClusterSim::with_traffic(cfg, manager, &rng);
    run_with(sim, 220, sink)
}

fn drive_idle_elastic(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    // Same fleet and flash-crowd shape as `elastic_traffic`, but with the
    // sleep ladder between the provisioner and the power switch: shrink
    // decisions demote down the C-state cascade (learning-augmented, so
    // the gap predictor's advice shapes the schedule and PredictorSample
    // events land in the trace), and growth pays wake latency before a
    // unit serves again. A second, smaller crowd after the first gives the
    // predictor a history to advise from.
    let mut cfg = SimConfig {
        topology: Topology::new(2, 2, 2),
        ..SimConfig::paper_default()
    };
    let total_sockets = cfg.topology.total_units();
    let mut traffic = TrafficConfig::default_diurnal(total_sockets, 100.0);
    traffic.pattern = TrafficPattern::FlashCrowd {
        base_rps: 100.0,
        peak_rps: 0.9 * total_sockets as f64 * 100.0,
        start: 20.0,
        ramp: 10.0,
        hold: 40.0,
        decay: 10.0,
    };
    traffic.provisioner = ProvisionerMode::Reactive(ProvisionerConfig {
        target_utilization: 0.7,
        headroom_nodes: 0,
        power_off_after: 15.0,
        min_nodes: 1,
    });
    traffic.milestone_every = 10_000;
    cfg.traffic = Some(traffic);
    cfg.idle = Some(IdleConfig {
        policy: IdlePolicy::LearningAugmented { lambda: 0.5 },
        ..IdleConfig::default()
    });
    let rng = RngStream::new(0xD50_006, "golden/idle-elastic");
    let manager = plain_dps(&cfg, dps, &rng, flavor);
    let sim = ClusterSim::with_traffic(cfg, manager, &rng);
    run_with(sim, 260, sink)
}

fn drive_sharded_elastic(dps: DpsConfig, sink: &SinkHandle) {
    // The elastic-traffic fleet shape and flash crowd, managed by a 4-shard
    // hierarchical tree (2 units per shard): the crowd's ramp skews demand
    // across shards so the allocator actually regrants, and the reactive
    // provisioner's node churn lands as global-index membership flips
    // emitted by the tree's top level.
    let mut cfg = SimConfig {
        topology: Topology::new(2, 2, 2),
        ..SimConfig::paper_default()
    };
    let total_sockets = cfg.topology.total_units();
    let mut traffic = TrafficConfig::default_diurnal(total_sockets, 100.0);
    traffic.pattern = TrafficPattern::FlashCrowd {
        base_rps: 100.0,
        peak_rps: 0.9 * total_sockets as f64 * 100.0,
        start: 20.0,
        ramp: 10.0,
        hold: 60.0,
        decay: 10.0,
    };
    traffic.provisioner = ProvisionerMode::Reactive(ProvisionerConfig {
        target_utilization: 0.7,
        headroom_nodes: 0,
        power_off_after: 15.0,
        min_nodes: 1,
    });
    traffic.milestone_every = 10_000;
    cfg.traffic = Some(traffic);
    let rng = RngStream::new(0xD50_007, "golden/sharded-elastic");
    let manager: Box<dyn PowerManager> = Box::new(ShardedManager::new(
        total_sockets,
        cfg.total_budget(),
        limits(&cfg),
        dps,
        4,
        rng.child("mgr"),
    ));
    let sim = ClusterSim::with_traffic(cfg, manager, &rng);
    run_with(sim, 220, sink)
}

fn drive_chaos_brownout(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    // Guarded DPS on the framed plane under a correlated incident: rack 1
    // (units 4..8 — half the fleet, enough to cross the 0.35 Degraded
    // threshold but not the 0.6 SafeMode one) loses its sensors to a
    // dropout while its control-plane links corrupt frames, and a budget
    // brownout ramps through the same stretch. The ladder must descend to
    // Degraded on the quarantine wave and hysteretically re-ascend once
    // the window closes and the guard readmits — with the invariant
    // monitor silent throughout.
    let mut cfg = small_testbed();
    cfg.noise = NoiseModel::None;
    cfg.control_plane = dps_cluster::ControlPlaneMode::Framed(dps_ctrl::FramedConfig::default());
    cfg.chaos = ChaosSchedule::new(vec![ChaosWindow::new(1, 20.0, 60.0)
        .with_sensor(SensorFault::Dropout)
        .with_frame_loss(0.35)
        .with_budget_factor(0.9)]);
    cfg.budget = BudgetSchedule::brownout(30.0, 0.75, 10.0, 30.0);
    let rng = RngStream::new(0xD50_005, "golden/chaos-brownout");
    let hot = DemandProgram::new(vec![Phase::constant(200.0, 160.0)]);
    let busy = DemandProgram::new(vec![Phase::constant(200.0, 140.0)]);
    let manager = guarded_dps(&cfg, dps, &rng, flavor);
    let mut sim = ClusterSim::new(cfg, vec![hot, busy], manager, &rng);
    sim.enable_watchdog(16);
    run_with(sim, 160, sink)
}

fn drive_chaos_churn(dps: DpsConfig, sink: &SinkHandle, flavor: ManagerFlavor) {
    // Guarded DPS over a pinned pair whose programs regenerate every run,
    // while rack 1 is powered down for 30 s. The default 10 s idle gap is
    // longer than the 1 s period, so every realisation swap lands on an
    // observable run boundary; each run is longer and hotter than the last,
    // so a missed or misplaced swap changes the trace. The churn window
    // covers 30 of the 150 cycles: membership flips out and back, and the
    // returning units re-enter with fresh manager state.
    let mut cfg = small_testbed();
    cfg.noise = NoiseModel::None;
    cfg.chaos = ChaosSchedule::new(vec![ChaosWindow::new(1, 35.0, 65.0).with_churn()]);
    let rng = RngStream::new(0xD50_008, "golden/chaos-churn");
    let factory = |base_w: f64| -> ProgramFactory {
        Box::new(move |run| {
            let step = run as f64;
            DemandProgram::new(vec![
                Phase::ramp(5.0, 50.0, base_w + 5.0 * step),
                Phase::constant(20.0 + 4.0 * step, base_w + 5.0 * step),
            ])
        })
    };
    let manager = guarded_dps(&cfg, dps, &rng, flavor);
    let sim = ClusterSim::with_factories(cfg, vec![factory(145.0), factory(120.0)], manager, &rng);
    run_with(sim, 150, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for s in GoldenScenario::ALL {
            assert_eq!(GoldenScenario::from_name(s.name()), Some(s));
            assert!(s.file_name().ends_with(".trace"));
        }
        assert_eq!(GoldenScenario::from_name("nope"), None);
    }

    #[test]
    fn scenarios_are_deterministic_and_nonempty() {
        for s in GoldenScenario::ALL {
            let a = s.record();
            let b = s.record();
            assert_eq!(a, b, "{} is not byte-stable across runs", s.name());
            let trace = dps_obs::codec::decode(&a).expect("trace decodes");
            assert_eq!(trace.dropped, 0, "{} overflowed its ring", s.name());
            assert!(
                trace.events.len() > 100,
                "{} looks implausibly small ({} events)",
                s.name(),
                trace.events.len()
            );
        }
    }
}
