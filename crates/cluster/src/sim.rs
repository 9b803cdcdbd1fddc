//! The per-cycle cluster simulation loop.
//!
//! [`ClusterSim::cycle`] runs one decision window (period `dT`, default
//! 1 s) as a fixed sequence of stages. Only **begin**, **demands** and
//! **advance** depend on what runs on the units: one pinned job per
//! cluster, the [`dps_sched`] job queue, or [`dps_traffic`] request
//! serving, chosen by the constructor.
//!
//! 1. **trace open**: the cycle envelope and fault-window edges;
//! 2. **budget**: base × schedule × chaos factor, pushed on change;
//! 3. **mode**: the `Normal → Degraded → SafeMode` ladder steps;
//! 4. **begin**: the workload changes membership and tells the manager;
//! 5. **demands**: job positions become per-socket demand;
//! 6. **plant**: the RAPL domains deliver `min(demand, cap)`;
//! 7. **exchange**: readings reach the manager through the control plane
//!    and caps come back, taking effect next window;
//! 8. **readback**: programmed caps go back for write verification;
//! 9. **monitor**: the invariant monitor checks budget and caps;
//! 10. **control-plane delta**: frame accounting;
//! 11. **advance**: jobs progress at the power they got;
//! 12. **satisfaction**: per-cluster Eq. 1 accounting;
//! 13. **log**: the optional per-cycle record;
//! 14. **watchdog**: the periodic manager checkpoint;
//! 15. **trace close**: the cycle envelope closes;
//! 16. **confidence**: the mode ladder's inputs for the next cycle.

use crate::chaos::ChaosSchedule;
use crate::invariant::{InvariantConfig, InvariantInputs, InvariantMonitor};
use crate::logging::{CycleLog, CycleRecord};
use crate::satisfaction::SatisfactionTracker;
use crate::shocks::BudgetSchedule;
use dps_core::budget::{enforce_budget, BUDGET_EPSILON};
use dps_core::guard::HealthState;
use dps_core::manager::{constant_cap, PowerManager, ShardSpan, UnitLimits};
use dps_core::{ConfidenceReport, ModeConfig, ModeMachine, OperatingMode};
use dps_ctrl::frame::Frame;
use dps_ctrl::{CtrlStats, FramedConfig, FramedControlPlane};
use dps_idle::{Demotion, IdleConfig, IdleFleet, WakeFinished};
use dps_obs::{Event, FaultDomain, PhaseKind, ProvisionKind, SinkHandle};
use dps_rapl::{DomainBank, DomainSpec, NoiseModel, PowerInterface, Topology, UnitFaultSchedule};
use dps_sched::{JobRecord, JobScheduler, SchedConfig, SchedEvent};
use dps_sim_core::rng::RngStream;
use dps_sim_core::units::{Seconds, SimClock, Watts};
use dps_traffic::{RequestStats, TrafficConfig, TrafficDriver};
use dps_workloads::generator::{socket_factor, socket_variant};
use dps_workloads::{DemandProgram, PerfModel, PhaseShape, RunningWorkload};

/// How measurements and cap assignments travel between the manager and the
/// units. See the "Control-plane modes" section of `DESIGN.md`.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ControlPlaneMode {
    /// Instantaneous, lossless shared-memory exchange: the manager reads
    /// measurements and writes caps as plain f64s. The default — the
    /// quantization below is far under the measurement noise.
    #[default]
    Direct,
    /// Values round-trip through the 3-byte wire frames
    /// ([`dps_ctrl::frame`]) and quantize to 0.1 W exactly as they would
    /// over the testbed's sockets, but transport is still instantaneous
    /// and lossless.
    Quantized,
    /// The full framed control plane ([`dps_ctrl`]): polls, reports, cap
    /// assignments and acks travel as frames on per-node lossy links with
    /// latency, drops, corruption and a fault schedule; the controller
    /// keeps hold-last telemetry and the budget-safety invariant. With a
    /// zero-fault link this reproduces [`ControlPlaneMode::Quantized`]
    /// bit for bit.
    Framed(FramedConfig),
}

/// Static simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster/node/socket topology.
    pub topology: Topology,
    /// Per-socket power domain spec.
    pub domain_spec: DomainSpec,
    /// RAPL measurement noise.
    pub noise: NoiseModel,
    /// Power→progress model.
    pub perf: PerfModel,
    /// Decision period in seconds.
    pub period: Seconds,
    /// Cluster-wide budget as a fraction of aggregate TDP.
    pub budget_fraction: f64,
    /// Idle seconds between repeated runs of a workload.
    pub idle_gap: Seconds,
    /// How manager and units exchange measurements and caps.
    pub control_plane: ControlPlaneMode,
    /// Scripted sensor/actuator faults injected at the RAPL substrate
    /// (empty = fault-free hardware).
    pub sensor_faults: UnitFaultSchedule,
    /// Optional power-aware job scheduler ([`dps_sched`]): jobs arrive over
    /// time, occupy whole nodes, and drive unit churn. `None` (the default)
    /// keeps the classic one-workload-per-cluster pinning, bit-identical to
    /// pre-scheduler behaviour. Consumed by [`ClusterSim::with_scheduler`].
    pub scheduler: Option<SchedConfig>,
    /// Optional request-driven traffic layer ([`dps_traffic`]): a seeded
    /// arrival stream drives per-socket service demand while an elastic
    /// provisioner powers whole nodes on and off. `None` (the default)
    /// keeps the request layer out entirely. Consumed by
    /// [`ClusterSim::with_traffic`]; mutually exclusive with `scheduler`.
    pub traffic: Option<TrafficConfig>,
    /// Optional per-unit sleep-state management ([`dps_idle`]), traffic
    /// mode only: instead of hard power-off, the provisioner demotes dark
    /// units along a C-state-like ladder, wake latency delays their
    /// readmission, and residency/wake energy is charged to the request
    /// ledger. `None` (the default) keeps hard power-off, bit-identical to
    /// the pre-idle behaviour.
    pub idle: Option<IdleConfig>,
    /// Budget-over-time schedule: a factor multiplying the base budget
    /// each cycle, pushed to the manager through
    /// [`PowerManager::set_budget`]. [`BudgetSchedule::constant`] (the
    /// default) reproduces the fixed-budget world bit for bit.
    pub budget: BudgetSchedule,
    /// Correlated cross-layer chaos windows ([`crate::chaos`]), compiled
    /// into the per-layer fault schedules at construction.
    /// [`ChaosSchedule::none`] (the default) injects nothing.
    pub chaos: ChaosSchedule,
    /// Thresholds for the graceful-degradation operating-mode ladder
    /// (`Normal → Degraded → SafeMode`, [`dps_core::mode`]).
    pub mode: ModeConfig,
}

impl SimConfig {
    /// The paper's setup: 2×5×2 sockets, 165 W TDP, 66.7 % budget
    /// (110 W/socket), 1 s decisions.
    pub fn paper_default() -> Self {
        Self {
            topology: Topology::paper_testbed(),
            domain_spec: DomainSpec::xeon_gold_6240(),
            noise: NoiseModel::default(),
            perf: PerfModel::paper_default(),
            period: 1.0,
            budget_fraction: 2.0 / 3.0,
            idle_gap: 10.0,
            control_plane: ControlPlaneMode::Direct,
            sensor_faults: UnitFaultSchedule::none(),
            scheduler: None,
            traffic: None,
            idle: None,
            budget: BudgetSchedule::constant(),
            chaos: ChaosSchedule::none(),
            mode: ModeConfig::default(),
        }
    }

    /// Nodes across all clusters (the framed control plane's agent count).
    pub fn total_nodes(&self) -> usize {
        self.topology.clusters * self.topology.nodes_per_cluster
    }

    /// The cluster-wide power budget in Watts.
    pub fn total_budget(&self) -> Watts {
        self.topology.total_units() as f64 * self.domain_spec.tdp * self.budget_fraction
    }

    /// Checks the configuration is physically realisable. In particular the
    /// budget must cover every unit's minimum cap — below that no manager
    /// can respect both the budget and the hardware floor, and silently
    /// running anyway would fabricate results.
    pub fn validate(&self) -> Result<(), String> {
        self.domain_spec.validate()?;
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(format!("period must be positive, got {}", self.period));
        }
        if self.budget_fraction.is_nan() {
            return Err("budget_fraction must not be NaN".to_string());
        }
        if !(self.budget_fraction.is_finite()
            && 0.0 < self.budget_fraction
            && self.budget_fraction <= 1.0)
        {
            return Err(format!(
                "budget_fraction must be finite in (0,1], got {}",
                self.budget_fraction
            ));
        }
        if !(self.idle_gap.is_finite() && self.idle_gap >= 0.0) {
            return Err(format!(
                "idle_gap must be non-negative, got {}",
                self.idle_gap
            ));
        }
        let floor = self.domain_spec.min_cap * self.topology.total_units() as f64;
        if self.total_budget() < floor {
            return Err(format!(
                "budget {:.1} W cannot cover {} units at the {:.0} W minimum cap \
                 ({:.1} W required)",
                self.total_budget(),
                self.topology.total_units(),
                self.domain_spec.min_cap,
                floor
            ));
        }
        self.budget.validate()?;
        self.chaos.validate(&self.topology)?;
        self.mode.validate()?;
        // The schedule's deepest shock (and any concurrent chaos factor)
        // must still cover the hardware floor, or no manager could ever
        // get back under budget.
        let min_budget =
            self.total_budget() * self.budget.min_factor() * self.chaos.min_budget_factor();
        if min_budget < floor {
            return Err(format!(
                "scheduled budget trough {:.1} W cannot cover {} units at the {:.0} W \
                 minimum cap ({:.1} W required)",
                min_budget,
                self.topology.total_units(),
                self.domain_spec.min_cap,
                floor
            ));
        }
        if self.chaos.has_churn() && (self.scheduler.is_some() || self.traffic.is_some()) {
            return Err(
                "chaos node churn requires the pinned placement mode: scheduler and \
                 traffic modes already drive unit membership and would fight over \
                 observe_membership"
                    .to_string(),
            );
        }
        if let ControlPlaneMode::Framed(framed) = &self.control_plane {
            framed.validate(self.total_nodes(), self.period)?;
        }
        self.sensor_faults.validate(self.topology.total_units())?;
        if let Some(sched) = &self.scheduler {
            sched.validate()?;
        }
        if let Some(traffic) = &self.traffic {
            traffic.validate()?;
            if self.scheduler.is_some() {
                return Err(
                    "scheduler and traffic modes are mutually exclusive: both drive \
                     unit membership and would fight over observe_membership"
                        .to_string(),
                );
            }
        }
        if let Some(idle) = &self.idle {
            idle.validate()?;
            if self.traffic.is_none() {
                return Err("idle management requires traffic mode: only the elastic \
                     provisioner produces the dark units the sleep ladder manages"
                    .to_string());
            }
        }
        Ok(())
    }
}

/// Produces the demand program for run `index` of a cluster's workload —
/// per-run realisation variance (§6.1). A fixed program is the degenerate
/// factory that ignores the index.
pub type ProgramFactory = Box<dyn FnMut(usize) -> DemandProgram + Send>;

/// One cluster's job: the shared run state plus a demand factor per
/// socket over its program (see [`socket_demands`]).
struct ClusterJob {
    run: RunningWorkload,
    socket_factors: Vec<f64>,
    /// Regenerates the program per run; `None` replays the same program.
    factory: Option<ProgramFactory>,
    /// Run index the current program realises.
    realized_run: usize,
    /// Stream for per-run socket factors.
    variant_rng: RngStream,
}

/// Pinned-mode state: one repeating job per cluster.
struct PinnedState {
    jobs: Vec<ClusterJob>,
    /// Per-unit managed membership: false while a chaos window holds the
    /// unit's node down (it then demands nothing).
    up: Vec<bool>,
}

/// One scheduled job currently running on its allocated sockets
/// (scheduler mode).
struct ActiveJob {
    id: usize,
    run: RunningWorkload,
    socket_factors: Vec<f64>,
    /// Global unit indices the job occupies (whole nodes).
    units: Vec<usize>,
}

/// Scheduler-mode state: the queue plus the realised running jobs.
struct SchedState {
    scheduler: JobScheduler,
    jobs: Vec<ActiveJob>,
    /// Per-unit occupancy, mirrored to the manager on change.
    occupied: Vec<bool>,
    enforce_walltime: bool,
    /// Stream deriving each job's program realisation and socket factors.
    job_rng: RngStream,
}

/// Traffic-mode state: the request engine plus per-socket serving loops.
struct TrafficState {
    driver: TrafficDriver,
    /// One repeating service workload per unit (per-socket program
    /// variants); each advances at the speed its granted power allows.
    sockets: Vec<RunningWorkload>,
    /// Per-unit occupancy (expanded from the driver's per-node powered
    /// mask), mirrored to the manager on provisioning changes.
    occupied: Vec<bool>,
    /// Sleep-state runtime; `None` keeps the hard power-off model.
    fleet: Option<IdleFleet>,
    /// Scratch for demotions surfaced each cycle (steady state allocates
    /// nothing).
    demotions: Vec<Demotion>,
    /// Scratch for wakes completing each cycle.
    wakes: Vec<WakeFinished>,
}

/// What runs on the units. Each cycle it changes membership
/// ([`Workload::begin`]), sets demand ([`Workload::demands`]) and advances
/// work ([`Workload::advance`]); the rest of the cycle is mode-blind.
enum Workload {
    /// One repeating job per cluster, optionally regenerated per run.
    Pinned(PinnedState),
    /// Jobs from the [`dps_sched`] queue on whole nodes.
    Scheduled(Box<SchedState>),
    /// [`dps_traffic`] request serving on an elastically powered fleet.
    Traffic(Box<TrafficState>),
}

/// What the workload stages read from the simulator in one cycle.
struct Stage<'a> {
    config: &'a SimConfig,
    now: Seconds,
    cycle: u64,
    sink: &'a SinkHandle,
}

/// Demand factors of the `n` sockets sharing one program.
fn socket_factors(n: usize, rng: &RngStream) -> Vec<f64> {
    (0..n).map(|s| socket_factor(s, rng)).collect()
}

/// The phase shape and fraction a job's sockets share this window, or
/// `None` while the job demands nothing (between runs, after a one-shot
/// run, or where the program's own demand is not positive).
fn shared_phase(run: &RunningWorkload) -> Option<(PhaseShape, f64)> {
    run.locate().filter(|(shape, f)| shape.demand_at(*f) > 0.0)
}

/// Each socket's demand: the shared phase scaled by the socket's factor
/// and clamped at `tdp`. This is bit for bit what the socket's own
/// [`socket_variant`] program returns at the job's position: a variant
/// keeps the base's phase durations, so it locates the same phase and
/// fraction, and its shape there is `shape.scaled(factor, tdp)`. Scale
/// first, then interpolate: `factor · shape.demand_at(f)` rounds
/// differently.
fn socket_demands(
    (shape, f): (PhaseShape, f64),
    tdp: Watts,
    factors: &[f64],
) -> impl Iterator<Item = Watts> + '_ {
    factors
        .iter()
        .map(move |&k| shape.scaled(k, tdp).demand_at(f))
}

/// Advances a barrier-synchronised job by one window, given its sockets'
/// achieved progress rates. Spark stages and NPB iterations wait for every
/// socket, so the job moves at the pace of its slowest one: a single
/// starved socket stalls the whole job. This is the straggler effect the
/// paper's readjusting module explicitly repairs ("fix any major
/// unfairness due to the Stateless Module's random ordering", §4.3.4).
/// Between runs the rate is irrelevant; time still passes.
fn barrier_advance(run: &mut RunningWorkload, rates: impl Iterator<Item = f64>, period: Seconds) {
    let rate = if run.demand() > 0.0 {
        rates.fold(1.0, f64::min)
    } else {
        1.0
    };
    run.advance_with_rate(rate, period);
}

impl PinnedState {
    /// One job per cluster from `(program, factory)` pairs; per-socket
    /// demand factors derive deterministically from `rng`.
    fn new(
        config: &SimConfig,
        programs: Vec<(DemandProgram, Option<ProgramFactory>)>,
        rng: &RngStream,
    ) -> Self {
        assert_eq!(
            programs.len(),
            config.topology.clusters,
            "one program per cluster"
        );
        let per_cluster = config.topology.units_per_cluster();
        let jobs = programs
            .into_iter()
            .enumerate()
            .map(|(c, (base, factory))| {
                let variant_rng = rng.child(&format!("cluster/{c}/variants"));
                ClusterJob {
                    run: RunningWorkload::repeating(base, config.perf, config.idle_gap),
                    socket_factors: socket_factors(per_cluster, &variant_rng),
                    factory,
                    realized_run: 0,
                    variant_rng,
                }
            })
            .collect();
        Self {
            jobs,
            up: vec![true; config.topology.total_units()],
        }
    }

    /// Chaos node churn: units on powered-down racks leave managed
    /// membership, and rejoin when the window closes. Returns whether any
    /// unit flipped.
    fn churn(&mut self, at: &Stage) -> bool {
        let chaos = &at.config.chaos;
        if !chaos.has_churn() {
            return false;
        }
        let mut flipped = false;
        for (u, up) in self.up.iter_mut().enumerate() {
            let now_up = !chaos.unit_down(&at.config.topology, u, at.now);
            flipped |= now_up != *up;
            *up = now_up;
        }
        flipped
    }

    /// Each cluster's job advances at the pace of its slowest socket; a
    /// completed run's successor gets a freshly generated program (and
    /// socket factors) at the run boundary.
    fn advance(&mut self, at: &Stage, demands: &[Watts], true_power: &[Watts]) {
        let (cfg, topo) = (at.config, at.config.topology);
        let rate = |u: usize| cfg.perf.rate(demands[u], true_power[u]);
        for (c, job) in self.jobs.iter_mut().enumerate() {
            barrier_advance(&mut job.run, topo.cluster_range(c).map(rate), cfg.period);
            if let Some(factory) = job.factory.as_mut() {
                let completed = job.run.runs_completed();
                if completed > job.realized_run && job.run.position() == 0.0 {
                    let base = factory(completed);
                    let run_rng = job.variant_rng.child(&format!("run{completed}"));
                    job.socket_factors = socket_factors(topo.units_per_cluster(), &run_rng);
                    job.run.replace_program(base);
                    job.realized_run = completed;
                }
            }
        }
    }
}

impl SchedState {
    /// Realises `config.scheduler`'s arrival trace from
    /// `rng.child("sched/arrivals")` on an idle cluster.
    fn new(config: &SimConfig, rng: &RngStream) -> Self {
        let sched_cfg = config
            .scheduler
            .as_ref()
            .expect("SimConfig::scheduler must be Some for scheduler mode");
        let n = config.topology.total_units();
        let budget = config.total_budget();
        let mut arrival_rng = rng.child("sched/arrivals");
        let trace = sched_cfg.arrivals.generate(
            config.total_nodes(),
            config.domain_spec.tdp,
            budget / n as f64,
            sched_cfg.walltime_factor,
            &mut arrival_rng,
        );
        let scheduler = JobScheduler::new(
            trace,
            config.total_nodes(),
            config.topology.sockets_per_node,
            budget,
            sched_cfg.backfill,
        )
        .expect("arrival trace must fit the cluster");
        Self {
            scheduler,
            jobs: Vec::new(),
            occupied: vec![false; n],
            enforce_walltime: sched_cfg.enforce_walltime,
            job_rng: rng.child("sched/jobs"),
        }
    }

    /// Evicts walltime overruns, admits due arrivals and realises newly
    /// started jobs on their sockets. Returns whether occupancy flipped.
    fn begin(&mut self, at: &Stage) -> bool {
        let mut flipped = false;
        if self.enforce_walltime {
            for id in self.scheduler.overrunning(at.now) {
                self.scheduler.evict(id, at.now);
                if let Some(pos) = self.jobs.iter().position(|j| j.id == id) {
                    for &u in &self.jobs[pos].units {
                        self.occupied[u] = false;
                    }
                    self.jobs.swap_remove(pos);
                    flipped = true;
                }
            }
        }

        let spk = at.config.topology.sockets_per_node;
        for started in self.scheduler.tick(at.now) {
            // Each job gets its own program realisation (run-to-run
            // variance) and per-socket demand factors, all derived from the
            // job id so every manager sees the identical workload.
            let mut job_rng = self.job_rng.child(&format!("job{}", started.id));
            let seed = job_rng.next_u64();
            let base = dps_workloads::build_program(&started.spec, &at.config.perf, seed);
            let units: Vec<usize> = started
                .nodes
                .iter()
                .flat_map(|&node| node * spk..(node + 1) * spk)
                .collect();
            for &u in &units {
                self.occupied[u] = true;
            }
            flipped = true;
            self.jobs.push(ActiveJob {
                id: started.id,
                run: RunningWorkload::once(base, at.config.perf),
                socket_factors: socket_factors(units.len(), &job_rng),
                units,
            });
        }
        flipped
    }

    /// Each job advances at the pace of its slowest socket; completions
    /// retire through the queue (freeing nodes and power reservation).
    /// Returns the queue depth and this cycle's lifecycle events, drained
    /// even when unlogged so they cannot accumulate.
    fn advance(
        &mut self,
        at: &Stage,
        demands: &[Watts],
        true_power: &[Watts],
        manager: &mut dyn PowerManager,
    ) -> (usize, Vec<SchedEvent>) {
        let cfg = at.config;
        let end = at.now + cfg.period;
        let rate = |u: &usize| cfg.perf.rate(demands[*u], true_power[*u]);
        let mut flipped = false;
        let mut i = 0;
        while i < self.jobs.len() {
            let job = &mut self.jobs[i];
            barrier_advance(&mut job.run, job.units.iter().map(rate), cfg.period);
            if job.run.is_done() {
                self.scheduler.finish(job.id, end);
                for &u in &job.units {
                    self.occupied[u] = false;
                }
                self.jobs.swap_remove(i);
                flipped = true;
            } else {
                i += 1;
            }
        }
        if flipped {
            manager.observe_membership(&self.occupied);
        }
        (self.scheduler.queue_depth(), self.scheduler.take_events())
    }
}

impl TrafficState {
    /// Realises `config.traffic`'s request stream from
    /// `rng.child("traffic")` and one serving loop per unit, with the
    /// initially dark units on the sleep ladder when `config.idle` is set.
    fn new(config: &SimConfig, rng: &RngStream) -> Self {
        let traffic_cfg = config
            .traffic
            .as_ref()
            .expect("SimConfig::traffic must be Some for traffic mode");
        let n = config.topology.total_units();
        let spk = config.topology.sockets_per_node;
        let driver = TrafficDriver::new(
            traffic_cfg.clone(),
            config.total_nodes(),
            spk,
            rng.child("traffic"),
        );

        // Per-unit serving loops: one base realisation of the service
        // workload, a deterministic per-socket variant each, repeating
        // back-to-back (a serving socket never idles between runs; request
        // pressure scales its demand instead). Each loop keeps its own
        // position, so each keeps its own program copy.
        let mut service_rng = rng.child("traffic/service");
        let seed = service_rng.next_u64();
        let base = dps_workloads::build_program(&traffic_cfg.service, &config.perf, seed);
        let tdp = config.domain_spec.tdp;
        let sockets = (0..n)
            .map(|u| {
                let program = socket_variant(&base, tdp, u, &service_rng);
                RunningWorkload::repeating(program, config.perf, 0.0)
            })
            .collect();

        let mut occupied = vec![false; n];
        for (node, &on) in driver.powered().iter().enumerate() {
            if on {
                occupied[node * spk..(node + 1) * spk].fill(true);
            }
        }
        // With idle management, the initially dark units start on the
        // sleep ladder rather than hard-off (no sink is attached yet, so
        // these construction-time demotions emit nothing).
        let fleet = config.idle.clone().map(|ic| {
            let mut fleet = IdleFleet::new(n, ic, rng.child("idle"));
            for (u, &on) in occupied.iter().enumerate() {
                if !on {
                    fleet.demote(u, 0.0);
                }
            }
            fleet
        });
        Self {
            driver,
            sockets,
            occupied,
            fleet,
            demotions: Vec::new(),
            wakes: Vec::new(),
        }
    }

    /// The provisioner (re)sizes the powered fleet from last window's
    /// evidence and the generator contributes this window's arrivals. Node
    /// flips expand to unit occupancy, and each provisioning decision is
    /// emitted as an [`Event::Provision`]. Returns whether occupancy
    /// flipped.
    fn begin(&mut self, at: &Stage) -> bool {
        let spk = at.config.topology.sockets_per_node;
        let (now, cycle) = (at.now, at.cycle);
        let tracing = at.sink.enabled();
        let sleep_event = |d: Demotion| Event::SleepTransition {
            cycle,
            unit: d.unit as u32,
            from_state: d.from,
            to_state: d.to,
        };
        let mut flipped = false;

        // Idle pre-phase: sleeping units deepen along their compiled
        // schedules, and wakes begun in earlier cycles complete — those
        // units rejoin the serving fleet this cycle.
        if let Some(fleet) = self.fleet.as_mut() {
            self.demotions.clear();
            fleet.advance(now, &mut self.demotions);
            if tracing {
                for &d in &self.demotions {
                    at.sink.emit(sleep_event(d));
                }
            }
            self.wakes.clear();
            fleet.tick_wakes(at.config.period, &mut self.wakes);
            for w in &self.wakes {
                self.occupied[w.unit] = true;
                flipped = true;
                if tracing {
                    at.sink.emit(Event::WakeDone {
                        cycle,
                        unit: w.unit as u32,
                        state: w.state,
                        energy_j: w.energy_j,
                    });
                    at.sink.emit(Event::PredictorSample {
                        cycle,
                        unit: w.unit as u32,
                        predicted_s: w.predicted_s,
                        actual_s: w.actual_s,
                    });
                }
            }
        }

        let begin = self.driver.begin_cycle(now, at.config.period);
        for change in &begin.changes {
            for &node in &change.nodes {
                for u in node * spk..(node + 1) * spk {
                    match (self.fleet.as_mut(), change.power_on) {
                        // Sleep-managed power-on: begin the wake; the unit
                        // stays out of the serving fleet until the state's
                        // latency elapses (see the pre-phase above).
                        (Some(fleet), true) => {
                            if let Some(w) = fleet.begin_wake(u, now) {
                                if tracing {
                                    at.sink.emit(Event::WakeStart {
                                        cycle,
                                        unit: u as u32,
                                        state: w.state,
                                        latency_s: w.latency_s,
                                    });
                                }
                            }
                        }
                        // Sleep-managed power-off: demote onto the ladder
                        // instead of hard-off (a mid-wake unit is
                        // re-demoted — provisioner flapping).
                        (Some(fleet), false) => {
                            self.occupied[u] = false;
                            if let Some(d) = fleet.demote(u, now) {
                                if tracing {
                                    at.sink.emit(sleep_event(d));
                                }
                            }
                        }
                        (None, on) => self.occupied[u] = on,
                    }
                }
            }
            flipped = true;
            if tracing {
                at.sink.emit(Event::Provision {
                    cycle,
                    kind: if change.power_on {
                        ProvisionKind::PowerOn
                    } else {
                        ProvisionKind::PowerOff
                    },
                    nodes: change.nodes.len() as u32,
                    active_nodes: change.active_after as u32,
                    utilization: change.utilization,
                });
            }
        }
        flipped
    }

    /// Serving sockets are independent (no barrier — each request runs on
    /// one socket), so each loop advances at its own achieved rate. The
    /// summed rates set how many queued requests drain this window, and
    /// only powered sockets charge energy to the request bill (a
    /// powered-off node draws nothing as far as the service is concerned).
    fn advance(&mut self, at: &Stage, demands: &[Watts], true_power: &[Watts]) {
        let (perf, period) = (&at.config.perf, at.config.period);
        let mut speed_sum = 0.0;
        let mut joules = 0.0;
        for u in 0..demands.len() {
            if self.occupied[u] {
                let rate = perf.rate(demands[u], true_power[u]);
                speed_sum += rate;
                joules += true_power[u] * period;
                self.sockets[u].advance_with_rate(rate, period);
            }
        }
        // Sleep-managed fleets are not free when dark: residency power
        // accrues every window and each begun wake charges its one-shot
        // energy, all billed to the same request-energy ledger.
        if let Some(fleet) = self.fleet.as_mut() {
            joules += fleet.sleep_power_w() * period + fleet.drain_wake_energy();
        }
        let end = self.driver.end_cycle(at.now, period, speed_sum, joules);
        if let (true, Some(m)) = (at.sink.enabled(), end.milestone) {
            at.sink.emit(Event::RequestMilestone {
                cycle: at.cycle,
                served: m.served,
                slo_ok: m.slo_ok,
                backlog: m.backlog,
            });
        }
    }
}

impl Workload {
    /// Per-unit occupancy in the modes that churn it: scheduler and
    /// traffic. `None` in pinned mode, where every unit hosts its
    /// cluster's workload for the whole run.
    fn occupied(&self) -> Option<&[bool]> {
        match self {
            Workload::Pinned(_) => None,
            Workload::Scheduled(st) => Some(&st.occupied),
            Workload::Traffic(st) => Some(&st.occupied),
        }
    }

    /// Membership changes for this window, reported to the manager before
    /// it assigns caps.
    fn begin(&mut self, at: &Stage, manager: &mut dyn PowerManager) {
        let flipped = match self {
            Workload::Pinned(st) => st.churn(at).then_some(&st.up),
            Workload::Scheduled(st) => st.begin(at).then_some(&st.occupied),
            Workload::Traffic(st) => st.begin(at).then_some(&st.occupied),
        };
        if let Some(membership) = flipped {
            manager.observe_membership(membership);
        }
    }

    /// Per-socket demand from job positions: one phase lookup per job,
    /// scaled by each socket's factor. Units outside membership
    /// (chaos-down, unoccupied, dark) demand nothing.
    fn demands(&self, at: &Stage, demands: &mut [Watts]) {
        let tdp = at.config.domain_spec.tdp;
        match self {
            Workload::Pinned(st) => {
                for (c, job) in st.jobs.iter().enumerate() {
                    let range = at.config.topology.cluster_range(c);
                    let (cluster, up) = (&mut demands[range.clone()], &st.up[range]);
                    let Some(phase) = shared_phase(&job.run) else {
                        cluster.fill(0.0);
                        continue;
                    };
                    let sockets = socket_demands(phase, tdp, &job.socket_factors);
                    for ((demand, w), &up) in cluster.iter_mut().zip(sockets).zip(up) {
                        *demand = if up { w } else { 0.0 };
                    }
                }
            }
            Workload::Scheduled(st) => {
                demands.fill(0.0);
                for job in &st.jobs {
                    if let Some(phase) = shared_phase(&job.run) {
                        let sockets = socket_demands(phase, tdp, &job.socket_factors);
                        for (&u, w) in job.units.iter().zip(sockets) {
                            demands[u] = w;
                        }
                    }
                }
            }
            Workload::Traffic(st) => {
                // Every powered socket runs its serving loop at the
                // fraction of its capacity the request backlog can fill,
                // but never below the service's resident footprint — a
                // powered socket is not energy-proportional.
                let busy = st.driver.busy_fraction(at.config.period);
                let floor = st.driver.config().service_floor;
                for (u, demand) in demands.iter_mut().enumerate() {
                    *demand = if st.occupied[u] {
                        (busy * st.sockets[u].demand()).max(floor)
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    /// Work progresses at the power each socket was granted. Returns the
    /// scheduler's queue depth and the lifecycle events drained this cycle
    /// (zero and empty outside scheduler mode).
    fn advance(
        &mut self,
        at: &Stage,
        demands: &[Watts],
        true_power: &[Watts],
        manager: &mut dyn PowerManager,
    ) -> (usize, Vec<SchedEvent>) {
        match self {
            Workload::Pinned(st) => st.advance(at, demands, true_power),
            Workload::Scheduled(st) => return st.advance(at, demands, true_power, manager),
            Workload::Traffic(st) => st.advance(at, demands, true_power),
        }
        (0, Vec::new())
    }
}

/// The simulator.
///
/// ```
/// use dps_cluster::{ClusterSim, ExperimentConfig};
/// use dps_core::manager::ManagerKind;
/// use dps_rapl::Topology;
/// use dps_sim_core::RngStream;
/// use dps_workloads::{DemandProgram, Phase};
///
/// // A downsized testbed: 2 clusters × 1 node × 2 sockets under DPS.
/// let mut cfg = ExperimentConfig::paper_default(1, 1);
/// cfg.sim.topology = Topology::new(2, 1, 2);
///
/// let hot = DemandProgram::new(vec![Phase::constant(30.0, 150.0)]);
/// let cool = DemandProgram::new(vec![Phase::constant(30.0, 50.0)]);
/// let mut sim = ClusterSim::new(
///     cfg.sim.clone(),
///     vec![hot, cool],
///     cfg.build_manager(ManagerKind::Dps),
///     &RngStream::new(1, "docs"),
/// );
///
/// // Run until the hot cluster's job completes once.
/// sim.run_until(10_000, |s| s.runs_completed(0) >= 1);
/// assert_eq!(sim.runs_completed(0), 1);
/// assert!(sim.fairness(0, 1) > 0.5);
/// ```
pub struct ClusterSim {
    config: SimConfig,
    /// Per-unit cap limits from the domain spec.
    limits: UnitLimits,
    bank: DomainBank,
    workload: Workload,
    manager: Box<dyn PowerManager>,
    clock: SimClock,
    caps: Vec<Watts>,
    satisfaction: Vec<SatisfactionTracker>,
    log: CycleLog,
    /// The framed control plane; present iff the mode is
    /// [`ControlPlaneMode::Framed`].
    plane: Option<FramedControlPlane>,
    // Scratch buffers reused each cycle (steady state allocates nothing).
    demands: Vec<Watts>,
    measured: Vec<Watts>,
    true_power: Vec<Watts>,
    applied: Vec<Watts>,
    /// Checkpoint the manager every N cycles (watchdog); `None` disables.
    watchdog_every: Option<u64>,
    /// Latest watchdog snapshot, if the manager supports checkpointing.
    last_checkpoint: Option<Vec<u8>>,
    /// Structured trace sink (`dps-obs`); no-op unless
    /// [`ClusterSim::set_trace_sink`] was called.
    sink: SinkHandle,
    /// Control-plane counters at the end of the previous cycle, for
    /// per-cycle [`Event::ControlPlaneDelta`] deltas.
    prev_ctrl: CtrlStats,
    /// Caps at the start of the cycle (trace scratch, for `caps_changed`).
    trace_caps: Vec<Watts>,
    /// Per-unit fault-window actives at the last sample (trace scratch,
    /// for [`Event::FaultEdge`] edge detection): sensor then actuator.
    fault_sensor: Vec<bool>,
    fault_actuator: Vec<bool>,
    /// Graceful-degradation ladder state (`Normal → Degraded → SafeMode`).
    mode_machine: ModeMachine,
    /// Confidence report computed at the end of the previous cycle; the
    /// ladder steps on it at the start of the next.
    confidence: ConfidenceReport,
    /// Control-plane gather misses at the end of the previous cycle
    /// (stale-rate confidence input; independent of the tracing deltas,
    /// which only update while a sink is attached).
    prev_gather_misses: u64,
    /// Caps last assigned under `Normal` — what `Degraded` freezes to.
    last_good: Vec<Watts>,
    /// Scratch for shadow assignments in degraded modes (the manager's
    /// statistics advance on these; the hardware never sees them).
    shadow_caps: Vec<Watts>,
    /// Always-on per-cycle safety monitor.
    monitor: InvariantMonitor,
    /// Budget currently in force: base × schedule factor × chaos factor.
    current_budget: Watts,
}

impl ClusterSim {
    /// Builds a simulator running one workload per cluster under `manager`.
    ///
    /// `programs[c]` is cluster `c`'s base demand program; per-socket
    /// demand factors are derived deterministically from `rng`. The
    /// workload repeats with the configured idle gap.
    ///
    /// # Panics
    /// Panics unless one program per cluster is supplied and the config
    /// validates (see [`SimConfig::validate`]), and when
    /// `config.scheduler` or `config.traffic` is set (those modes are built
    /// by [`ClusterSim::with_scheduler`] and [`ClusterSim::with_traffic`]).
    pub fn new(
        config: SimConfig,
        programs: Vec<DemandProgram>,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        let programs = programs.into_iter().map(|p| (p, None)).collect();
        Self::build(config, manager, rng, |cfg| {
            Workload::Pinned(PinnedState::new(cfg, programs, rng))
        })
    }

    /// Builds a simulator whose workloads regenerate per run: `factories[c]`
    /// is called with the run index to produce each realisation of cluster
    /// `c`'s program (run 0 is generated immediately).
    ///
    /// Realisations swap at run boundaries, which are only observable when
    /// `idle_gap >= period` (the default setup). With a shorter gap the next
    /// run can start inside the completing window, in which case it reuses
    /// the previous realisation and the swap lands one run later.
    ///
    /// # Panics
    /// Panics unless one factory per cluster is supplied (plus the
    /// [`ClusterSim::new`] conditions).
    pub fn with_factories(
        config: SimConfig,
        factories: Vec<ProgramFactory>,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        assert_eq!(
            factories.len(),
            config.topology.clusters,
            "one factory per cluster"
        );
        let programs = factories.into_iter().map(|mut f| (f(0), Some(f))).collect();
        Self::build(config, manager, rng, |cfg| {
            Workload::Pinned(PinnedState::new(cfg, programs, rng))
        })
    }

    /// Builds a simulator in **scheduler mode**: instead of one pinned
    /// workload per cluster, jobs arrive over time (per
    /// `config.scheduler`, which must be `Some`), are admitted by the
    /// FIFO + EASY-backfill queue under node *and* power-reservation
    /// constraints, and occupy whole nodes while they run. Job starts,
    /// finishes and evictions drive unit churn: the manager learns about
    /// occupancy flips through [`PowerManager::observe_membership`].
    ///
    /// The arrival trace is realised from `rng.child("sched/arrivals")`, so
    /// two managers built from the same `rng` face the identical job
    /// sequence.
    ///
    /// The pinned-mode accessors tied to cluster workloads
    /// ([`ClusterSim::runs_completed`], [`ClusterSim::run_durations`])
    /// have no jobs to report on in this mode and panic if indexed.
    ///
    /// # Panics
    /// Panics when `config.scheduler` is `None`, the config does not
    /// validate, or the arrival trace contains a job that could never fit
    /// the cluster.
    pub fn with_scheduler(
        config: SimConfig,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        Self::build(config, manager, rng, |cfg| {
            Workload::Scheduled(Box::new(SchedState::new(cfg, rng)))
        })
    }

    /// Builds a simulator in **traffic mode**: a seeded request stream
    /// (per `config.traffic`, which must be `Some`) drives per-socket
    /// service demand, and the configured provisioner powers whole nodes
    /// on and off through [`PowerManager::observe_membership`] while DPS
    /// redistributes the budget among the powered sockets each cycle.
    ///
    /// Every unit hosts its own repeating realisation of the service
    /// workload (per-socket variants derived from `rng`), scaled each
    /// window by how much of the fleet's service capacity the request
    /// backlog can fill. The arrival stream is realised from
    /// `rng.child("traffic")`, so two managers built from the same `rng`
    /// face the identical request sequence.
    ///
    /// The pinned-mode accessors tied to cluster workloads
    /// ([`ClusterSim::runs_completed`], [`ClusterSim::run_durations`])
    /// have no jobs to report on in this mode and panic if indexed.
    ///
    /// # Panics
    /// Panics when `config.traffic` is `None` or the config does not
    /// validate.
    pub fn with_traffic(
        config: SimConfig,
        manager: Box<dyn PowerManager>,
        rng: &RngStream,
    ) -> Self {
        Self::build(config, manager, rng, |cfg| {
            Workload::Traffic(Box::new(TrafficState::new(cfg, rng)))
        })
    }

    /// The constructors' shared builder: validates `config`, builds the
    /// workload from it, compiles chaos windows into the fault schedules
    /// and assembles the plant, control plane and monitor.
    fn build(
        mut config: SimConfig,
        mut manager: Box<dyn PowerManager>,
        rng: &RngStream,
        workload: impl FnOnce(&SimConfig) -> Workload,
    ) -> Self {
        config.validate().expect("invalid sim config");
        let workload = workload(&config);
        if let Workload::Pinned(_) = workload {
            assert!(
                config.scheduler.is_none(),
                "SimConfig::scheduler is set: build scheduler mode with ClusterSim::with_scheduler"
            );
            assert!(
                config.traffic.is_none(),
                "SimConfig::traffic is set: build traffic mode with ClusterSim::with_traffic"
            );
        }
        let n = config.topology.total_units();
        assert_eq!(manager.num_units(), n, "manager sized for the topology");
        if let Some(occupied) = workload.occupied() {
            manager.observe_membership(occupied);
        }

        // Compile chaos windows down into the per-layer fault schedules:
        // the RAPL substrate and the framed plane never learn about chaos,
        // they just see faults (and the fault-edge tracing covers both).
        for ev in config.chaos.unit_fault_events(&config.topology) {
            config.sensor_faults.push(ev);
        }
        if let ControlPlaneMode::Framed(framed) = &mut config.control_plane {
            for ev in config.chaos.ctrl_fault_events(&config.topology) {
                framed.faults.push(ev);
            }
        }
        let mut bank = DomainBank::homogeneous(n, config.domain_spec, config.noise.clone(), rng);
        if !config.sensor_faults.is_empty() {
            bank.set_faults(config.sensor_faults.clone(), rng);
        }

        let limits = UnitLimits {
            min_cap: config.domain_spec.min_cap,
            max_cap: config.domain_spec.tdp,
        };
        let constant = constant_cap(config.total_budget(), n, limits);
        for u in 0..n {
            bank.set_cap(u, constant);
        }
        let plane = match &config.control_plane {
            ControlPlaneMode::Framed(framed) => Some(FramedControlPlane::new(
                config.total_nodes(),
                config.topology.sockets_per_node,
                config.total_budget(),
                limits,
                constant,
                framed.clone(),
                &rng.child("ctrl"),
            )),
            _ => None,
        };
        Self {
            limits,
            plane,
            caps: vec![constant; n],
            satisfaction: vec![SatisfactionTracker::new(); config.topology.clusters],
            log: CycleLog::disabled(),
            demands: vec![0.0; n],
            measured: vec![0.0; n],
            true_power: vec![0.0; n],
            applied: vec![0.0; n],
            watchdog_every: None,
            last_checkpoint: None,
            sink: SinkHandle::noop(),
            prev_ctrl: CtrlStats::default(),
            trace_caps: Vec::new(),
            fault_sensor: vec![false; n],
            fault_actuator: vec![false; n],
            mode_machine: ModeMachine::new(config.mode),
            confidence: ConfidenceReport::clean(),
            prev_gather_misses: 0,
            last_good: vec![constant; n],
            shadow_caps: vec![constant; n],
            monitor: InvariantMonitor::new(InvariantConfig::for_plane(&config.control_plane, n)),
            current_budget: config.total_budget(),
            clock: SimClock::new(config.period),
            bank,
            workload,
            manager,
            config,
        }
    }

    /// Enables per-cycle logging (records every window from now on).
    pub fn enable_logging(&mut self) {
        self.log = CycleLog::enabled();
    }

    /// Attaches a structured trace sink (`dps-obs`) to the simulator and
    /// its manager. The simulator emits the cycle envelope (cycle
    /// start/end, fault edges, control-plane deltas, scheduler lifecycle
    /// events, checkpoints); an instrumented manager emits its decision
    /// events (cap deltas, priority flips, readjust outcomes, guard
    /// transitions) through the same sink, so a single trace interleaves
    /// both layers in order. Attach before the first [`ClusterSim::cycle`]
    /// for a trace whose cycle indices start at 0; attaching mid-run is
    /// allowed and starts the envelope at the current timestep (the
    /// manager restarts its own counter at the next `assign_caps`).
    pub fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.sink = sink.clone();
        self.manager.attach_trace(sink);
        // Baseline the delta trackers at the attach point so the first
        // traced cycle reports only what happens from here on.
        self.prev_ctrl = self.control_plane_stats().unwrap_or_default();
        self.sample_faults(None);
    }

    /// Samples every unit's scripted fault windows at the current time.
    /// With `edges_at`, each window that opened or closed since the last
    /// sample is emitted as an [`Event::FaultEdge`] of that cycle.
    fn sample_faults(&mut self, edges_at: Option<u64>) {
        let now = self.clock.now();
        for u in 0..self.fault_sensor.len() {
            let (sensor, actuator) = self.config.sensor_faults.active_kinds(u, now);
            let windows = [
                (FaultDomain::Sensor, sensor, &mut self.fault_sensor[u]),
                (FaultDomain::Actuator, actuator, &mut self.fault_actuator[u]),
            ];
            for (domain, active, last) in windows {
                if let (Some(cycle), true) = (edges_at, active != *last) {
                    let unit = u as u32;
                    self.sink.emit(Event::FaultEdge {
                        cycle,
                        unit,
                        domain,
                        active,
                    });
                }
                *last = active;
            }
        }
    }

    /// The attached trace sink (a no-op handle unless
    /// [`ClusterSim::set_trace_sink`] was called).
    pub fn trace_sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// The log collected so far.
    pub fn log(&self) -> &CycleLog {
        &self.log
    }

    /// The sim config.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current caps (as last assigned by the manager).
    pub fn caps(&self) -> &[Watts] {
        &self.caps
    }

    /// Completed run count for a cluster's workload.
    pub fn runs_completed(&self, cluster: usize) -> usize {
        self.cluster_jobs()[cluster].run.runs_completed()
    }

    /// Completed run durations for a cluster's workload.
    pub fn run_durations(&self, cluster: usize) -> &[Seconds] {
        self.cluster_jobs()[cluster].run.run_durations()
    }

    /// The pinned cluster jobs; empty in the other modes, so indexing
    /// panics there.
    fn cluster_jobs(&self) -> &[ClusterJob] {
        match &self.workload {
            Workload::Pinned(st) => &st.jobs,
            _ => &[],
        }
    }

    /// Satisfaction of a cluster so far (Eq. 1).
    pub fn satisfaction(&self, cluster: usize) -> f64 {
        self.satisfaction[cluster].satisfaction()
    }

    /// Fairness between two clusters so far (Eq. 2).
    pub fn fairness(&self, i: usize, j: usize) -> f64 {
        1.0 - (self.satisfaction(i) - self.satisfaction(j)).abs()
    }

    /// Simulated time.
    pub fn now(&self) -> Seconds {
        self.clock.now()
    }

    /// Elapsed decision cycles.
    pub fn timestep(&self) -> u64 {
        self.clock.timestep()
    }

    /// The manager's priority flags (DPS only).
    pub fn priorities(&self) -> Option<&[bool]> {
        self.manager.priorities()
    }

    /// The job scheduler, when running in scheduler mode.
    pub fn scheduler(&self) -> Option<&JobScheduler> {
        match &self.workload {
            Workload::Scheduled(st) => Some(&st.scheduler),
            _ => None,
        }
    }

    /// Per-unit occupancy in scheduler or traffic mode; `None` in pinned
    /// mode (where every unit hosts its cluster's workload for the whole
    /// run).
    pub fn occupied_units(&self) -> Option<&[bool]> {
        self.workload.occupied()
    }

    /// The traffic driver, when running in traffic mode.
    pub fn traffic_driver(&self) -> Option<&TrafficDriver> {
        match &self.workload {
            Workload::Traffic(st) => Some(&st.driver),
            _ => None,
        }
    }

    /// Cumulative request bookkeeping in traffic mode; `None` otherwise.
    pub fn request_stats(&self) -> Option<&RequestStats> {
        self.traffic_driver().map(TrafficDriver::stats)
    }

    /// Retired job records in scheduler mode (empty in pinned mode).
    pub fn job_records(&self) -> &[JobRecord] {
        self.scheduler().map_or(&[], JobScheduler::records)
    }

    /// True when the scheduler has no arrivals, queued, or running jobs
    /// left (always false in pinned mode).
    pub fn scheduler_drained(&self) -> bool {
        self.scheduler().is_some_and(JobScheduler::is_drained)
    }

    /// The framed control plane, when one is running
    /// ([`ControlPlaneMode::Framed`]); `None` in the other modes.
    pub fn control_plane(&self) -> Option<&FramedControlPlane> {
        self.plane.as_ref()
    }

    /// Control-plane statistics (framed mode only).
    pub fn control_plane_stats(&self) -> Option<CtrlStats> {
        self.plane.as_ref().map(|p| p.stats())
    }

    /// Per-unit caps actually in force at the hardware after the last
    /// cycle's programming (the readback that write verification sees).
    /// Diverges from [`ClusterSim::caps`] exactly when actuator faults are
    /// swallowing or mangling writes.
    pub fn applied_caps(&self) -> &[Watts] {
        &self.applied
    }

    /// Per-unit telemetry health as judged by the manager's guard; `None`
    /// for managers without health gating.
    pub fn health(&self) -> Option<&[HealthState]> {
        self.manager.health()
    }

    /// The operating mode the next cycle will run under (the ladder steps
    /// at cycle start, so after [`ClusterSim::cycle`] returns this is the
    /// mode that just ran).
    pub fn operating_mode(&self) -> OperatingMode {
        self.mode_machine.mode()
    }

    /// The budget currently in force (base × schedule × chaos factors).
    pub fn current_budget(&self) -> Watts {
        self.current_budget
    }

    /// Total invariant violations reported by the always-on monitor.
    pub fn invariant_violations(&self) -> u64 {
        self.monitor.violations()
    }

    /// The manager's shard tree (`None` for flat managers) — lets
    /// differential harnesses assert the per-level budget invariant
    /// against [`ClusterSim::caps`] from outside the simulator.
    pub fn shard_view(&self) -> Option<&[ShardSpan]> {
        self.manager.shard_view()
    }

    /// Toggle panicking on hard invariant-check failures (defaults to on
    /// only inside this crate's own test build; integration harnesses that
    /// want the fail-fast behaviour opt in here).
    pub fn set_invariant_fail_fast(&mut self, on: bool) {
        self.monitor.set_fail_fast(on);
    }

    /// The confidence report computed at the end of the last cycle (what
    /// the ladder will step on next).
    pub fn confidence(&self) -> ConfidenceReport {
        self.confidence
    }

    /// Cumulative guard counters; `None` for managers without health gating.
    pub fn guard_stats(&self) -> Option<dps_core::GuardStats> {
        self.manager.guard_stats()
    }

    /// Enables the controller watchdog: every `every_cycles` cycles the
    /// manager is checkpointed (if it supports it; see
    /// [`PowerManager::checkpoint`]). The latest snapshot is what
    /// [`ClusterSim::crash_and_restore`] resumes from.
    ///
    /// # Panics
    /// Panics if `every_cycles` is 0.
    pub fn enable_watchdog(&mut self, every_cycles: u64) {
        assert!(every_cycles > 0, "watchdog period must be positive");
        self.watchdog_every = Some(every_cycles);
    }

    /// The latest watchdog snapshot, when one has been taken.
    pub fn last_checkpoint(&self) -> Option<&[u8]> {
        self.last_checkpoint.as_deref()
    }

    /// Simulates a controller crash-and-restart: the running manager is
    /// dropped (all its in-memory state lost) and replaced by `fresh` — a
    /// newly constructed manager with the same configuration — which is
    /// restored from the latest watchdog snapshot before taking over.
    ///
    /// Returns an error (leaving the old manager in place) if no snapshot
    /// has been taken, the snapshot fails validation, or `fresh` has the
    /// wrong shape.
    pub fn crash_and_restore(&mut self, mut fresh: Box<dyn PowerManager>) -> Result<(), String> {
        if fresh.num_units() != self.config.topology.total_units() {
            return Err(format!(
                "replacement manager has {} units, topology has {}",
                fresh.num_units(),
                self.config.topology.total_units()
            ));
        }
        let snap = self
            .last_checkpoint
            .as_ref()
            .ok_or_else(|| "no watchdog checkpoint to restore from".to_string())?;
        fresh.restore(snap)?;
        // The restored manager adopted the snapshot's budget; re-apply the
        // budget currently in force so a crash straddling a shock cannot
        // silently revert it.
        fresh.set_budget(self.current_budget)?;
        // The replacement inherits the trace sink (its per-process trace
        // cycle counter restarts at 0 — a restored controller is a new
        // process, and the envelope's `ControllerRestored` marks the seam).
        if self.sink.enabled() {
            fresh.attach_trace(self.sink.clone());
            self.sink.emit(Event::ControllerRestored {
                cycle: self.clock.timestep(),
            });
        }
        self.manager = fresh;
        Ok(())
    }

    /// Runs one decision cycle, stage by stage (see the module docs).
    pub fn cycle(&mut self) {
        let period = self.config.period;
        let tracing = self.sink.enabled();
        let t_cycle = (tracing && self.sink.timing()).then(std::time::Instant::now);
        let cycle = self.clock.timestep();
        let now = self.clock.now();

        // Trace open: the envelope, scripted fault windows opening or
        // closing at this timestep, and the caps entering the cycle (for
        // the `caps_changed` churn count).
        if tracing {
            self.sink.emit(Event::CycleStart { cycle, time_s: now });
            if !self.config.sensor_faults.is_empty() {
                self.sample_faults(Some(cycle));
            }
            self.trace_caps.clear();
            self.trace_caps.extend_from_slice(&self.caps);
        }

        // Budget: base × schedule × chaos. Changes are pushed to the
        // manager (one-cycle compliance contract, see
        // `PowerManager::set_budget`) and the framed controller before any
        // caps are assigned.
        if !(self.config.budget.is_constant() && self.config.chaos.is_empty()) {
            let target = self.config.total_budget()
                * self.config.budget.factor_at(now)
                * self.config.chaos.budget_factor_at(now);
            if (target - self.current_budget).abs() > BUDGET_EPSILON {
                self.manager
                    .set_budget(target)
                    .expect("scheduled budget was validated at construction");
                if let Some(plane) = self.plane.as_mut() {
                    plane.set_budget(target);
                }
                if tracing {
                    self.sink.emit(Event::BudgetShock {
                        cycle,
                        from_w: self.current_budget,
                        to_w: target,
                    });
                }
                self.current_budget = target;
            }
        }

        // Mode, stepped on the previous cycle's confidence report
        // (immediate descent, hysteretic re-ascent; see `dps_core::mode`).
        if let Some((from, to)) = self.mode_machine.step(&self.confidence) {
            if tracing {
                self.sink.emit(Event::ModeChange {
                    cycle,
                    from: from.to_obs(),
                    to: to.to_obs(),
                });
            }
        }
        let mode = self.mode_machine.mode();

        // Workload begin and demands.
        let at = Stage {
            config: &self.config,
            now,
            cycle,
            sink: &self.sink,
        };
        self.workload.begin(&at, self.manager.as_mut());
        self.workload.demands(&at, &mut self.demands);

        // Plant: the domains deliver power for this window.
        self.bank
            .step_all_into(&self.demands, period, &mut self.true_power);

        // Exchange: measurements travel to the manager and caps travel
        // back, through whichever control plane the config selects.
        let uniform = constant_cap(self.current_budget, self.caps.len(), self.limits);
        for u in 0..self.measured.len() {
            self.measured[u] = self.bank.read_power(u);
        }
        self.manager.observe_demands(&self.demands);
        if mode != OperatingMode::Normal {
            // Degraded/SafeMode: node-local failsafe. The framed plane (if
            // any) is bypassed — a degraded controller has stopped
            // trusting its telemetry path — and measurements are read
            // directly. The manager still runs a *shadow* assignment so
            // its statistics (above all the guard's health machines, whose
            // recovery the re-ascent depends on) keep advancing, but the
            // hardware never sees those caps. What is programmed is
            // mode-determined: `Degraded` holds the last-known-good caps
            // (re-squeezed if a shock shrank the budget under them);
            // `SafeMode` applies the telemetry-blind uniform split that
            // satisfies the budget with zero sensor trust.
            self.shadow_caps.copy_from_slice(&self.caps);
            self.manager
                .assign_caps(&self.measured, &mut self.shadow_caps, period);
            if mode == OperatingMode::SafeMode {
                self.caps.fill(uniform);
            } else {
                self.caps.copy_from_slice(&self.last_good);
                let sum: f64 = self.caps.iter().sum();
                if sum > self.current_budget + BUDGET_EPSILON {
                    enforce_budget(&mut self.caps, self.current_budget, self.limits);
                }
            }
            for (u, &cap) in self.caps.iter().enumerate() {
                self.bank.set_cap(u, cap);
            }
        } else if let Some(plane) = self.plane.as_mut() {
            // Framed: raw readings go to the node agents; the manager sees
            // the controller's hold-last telemetry, and the domains get
            // whatever caps the agents actually acknowledged.
            plane.run_cycle(
                now,
                period,
                &self.measured,
                self.manager.as_mut(),
                &mut self.caps,
            );
            self.measured.copy_from_slice(plane.telemetry());
            for (u, &cap) in plane.applied_caps().iter().enumerate() {
                self.bank.set_cap(u, cap);
            }
        } else {
            // Direct/quantized: instantaneous exchange, optionally
            // round-tripped through the 3-byte wire frames.
            let quantized = self.config.control_plane == ControlPlaneMode::Quantized;
            let wire = |frame: Frame| Frame::decode(frame.encode()).expect("own frame decodes");
            if quantized {
                for reading in &mut self.measured {
                    *reading = wire(Frame::power_report(*reading)).watts();
                }
            }
            self.manager
                .assign_caps(&self.measured, &mut self.caps, period);
            for (u, &cap) in self.caps.iter().enumerate() {
                let cap = if quantized {
                    wire(Frame::set_cap(cap)).watts()
                } else {
                    cap
                };
                self.bank.set_cap(u, cap);
            }
        }

        // Readback: read the programmed caps back from the hardware and
        // hand them to the manager. A telemetry-guarded manager compares
        // them against its requests to catch silently dropped, clamped or
        // delayed cap writes; other managers ignore the call (default
        // no-op). Skipped in degraded modes, where the hardware
        // deliberately holds caps the manager did not request — feeding
        // those back would poison write verification.
        for u in 0..self.applied.len() {
            self.applied[u] = self.bank.domain(u).cap();
        }
        if mode == OperatingMode::Normal {
            self.manager.observe_applied(&self.applied);
        }

        // Monitor: re-derive the budget and cap invariants from ground
        // truth, chaos or not. The near-miss flag feeds the mode ladder.
        let inputs = InvariantInputs {
            cycle,
            budget: self.current_budget,
            requested: &self.caps,
            applied: &self.applied,
            limits: self.limits,
            mode,
            health: self.manager.health(),
            fallback_cap: uniform,
            shards: self.manager.shard_view(),
        };
        let near_miss = self.monitor.check(&inputs, &self.sink);

        // Control-plane delta: frame accounting for this cycle (framed
        // mode only), emitted only on activity.
        if let (true, Some(plane)) = (tracing, self.plane.as_ref()) {
            let (stats, prev) = (plane.stats(), &self.prev_ctrl);
            let lost = |s: &CtrlStats| s.frames_dropped + s.frames_blocked + s.frames_corrupted;
            let sent = stats.frames_sent - prev.frames_sent;
            let delivered = stats.frames_delivered - prev.frames_delivered;
            let dropped = lost(&stats) - lost(prev);
            let retries = stats.retries - prev.retries;
            if sent | delivered | dropped | retries != 0 {
                self.sink.emit(Event::ControlPlaneDelta {
                    cycle,
                    sent,
                    delivered,
                    dropped,
                    retries,
                });
            }
            self.prev_ctrl = stats;
        }

        // Workload advance.
        let (queue_depth, events) =
            self.workload
                .advance(&at, &self.demands, &self.true_power, self.manager.as_mut());

        // Satisfaction (units outside membership demand 0 and count as
        // satisfied, same as a pinned workload's gap).
        let idle = self.config.domain_spec.idle_power;
        for (c, tracker) in self.satisfaction.iter_mut().enumerate() {
            for u in self.config.topology.cluster_range(c) {
                tracker.record(self.demands[u], self.true_power[u], idle);
            }
        }

        // Log.
        if tracing {
            for ev in &events {
                self.sink.emit(ev.to_trace(cycle));
            }
        }
        if self.log.is_enabled() {
            self.log.push(CycleRecord {
                time: now,
                power: self.measured.clone(),
                caps: self.caps.clone(),
                demand: self.demands.clone(),
                priority: self
                    .manager
                    .priorities()
                    .map(|p| p.to_vec())
                    .unwrap_or_default(),
                queue_depth,
                events,
            });
        }

        // Watchdog: periodically snapshot the manager so a crashed
        // controller can be restored (see `crash_and_restore`).
        if self
            .watchdog_every
            .is_some_and(|every| (cycle + 1).is_multiple_of(every))
        {
            // Reuse the previous snapshot's allocation; a manager without
            // checkpoint support leaves the old snapshot (if any) in place.
            let mut buf = self.last_checkpoint.take().unwrap_or_default();
            let taken = self.manager.checkpoint_into(&mut buf);
            if taken && tracing {
                let bytes = buf.len() as u64;
                self.sink.emit(Event::CheckpointTaken { cycle, bytes });
            }
            if taken || !buf.is_empty() {
                self.last_checkpoint = Some(buf);
            }
        }

        // Trace close.
        if tracing {
            let slack = self.manager.total_budget() - self.caps.iter().sum::<f64>();
            let caps_changed = self
                .caps
                .iter()
                .zip(&self.trace_caps)
                .filter(|(now, before)| now.to_bits() != before.to_bits())
                .count() as u32;
            self.sink.emit(Event::CycleEnd {
                cycle,
                budget_slack_w: slack,
                caps_changed,
                queue_depth: queue_depth as u32,
            });
            if let Some(t0) = t_cycle {
                self.sink.emit(Event::PhaseEnd {
                    cycle,
                    phase: PhaseKind::SimCycle,
                    nanos: t0.elapsed().as_nanos() as u64,
                });
            }
        }

        // Confidence: the mode ladder's inputs for the next cycle, from
        // this cycle's ground truth — the guard's isolation fraction, the
        // control plane's gather-miss rate, and the monitor's near-miss
        // flag.
        if mode == OperatingMode::Normal {
            self.last_good.copy_from_slice(&self.caps);
        }
        let quarantined_frac = self
            .manager
            .health()
            .map(|h| h.iter().filter(|s| s.is_isolated()).count() as f64 / h.len().max(1) as f64)
            .unwrap_or(0.0);
        let stale_frac = match self.plane.as_ref() {
            // While the plane is bypassed (degraded modes) its counters
            // hold still, so the delta is computed only under Normal.
            Some(p) if mode == OperatingMode::Normal => {
                let misses = p.stats().gather_misses;
                let delta = misses - self.prev_gather_misses;
                self.prev_gather_misses = misses;
                (delta as f64 / self.config.total_nodes() as f64).min(1.0)
            }
            _ => 0.0,
        };
        self.confidence = ConfidenceReport {
            quarantined_frac,
            stale_frac,
            near_miss,
        };

        self.clock.advance();
    }

    /// Runs cycles until `stop` returns true or `max_steps` elapse. Returns
    /// the number of cycles executed.
    pub fn run_until(&mut self, max_steps: u64, mut stop: impl FnMut(&ClusterSim) -> bool) -> u64 {
        let mut steps = 0;
        while steps < max_steps && !stop(self) {
            self.cycle();
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_core::manager::UnitLimits;
    use dps_core::{ConstantManager, DpsConfig, DpsManager, SlurmManager};
    use dps_workloads::{Phase, PhaseShape};

    fn flat(duration: f64, watts: f64) -> DemandProgram {
        DemandProgram::new(vec![Phase {
            duration,
            shape: PhaseShape::Constant(watts),
        }])
    }

    fn small_config() -> SimConfig {
        SimConfig {
            topology: Topology::new(2, 1, 2), // 4 units
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        }
    }

    fn constant_mgr(cfg: &SimConfig) -> Box<dyn PowerManager> {
        Box::new(ConstantManager::new(
            cfg.topology.total_units(),
            cfg.total_budget(),
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
        ))
    }

    #[test]
    fn constant_caps_stay_constant() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(1, "sim-test");
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(50.0, 150.0), flat(50.0, 60.0)],
            mgr,
            &rng,
        );
        for _ in 0..30 {
            sim.cycle();
        }
        for &c in sim.caps() {
            assert!((c - 110.0).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_completes_and_repeats() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(2, "sim-test");
        let mut sim = ClusterSim::new(cfg, vec![flat(20.0, 100.0), flat(30.0, 100.0)], mgr, &rng);
        // Demand 100 < cap 110 → full speed; 20 s run + 10 s gap → 2 runs by ~65.
        let steps = sim.run_until(200, |s| s.runs_completed(0) >= 2);
        assert!(steps < 200, "should finish early");
        assert_eq!(sim.runs_completed(0), 2);
        let d = sim.run_durations(0)[0];
        assert!((d - 20.0).abs() < 1.5, "nominal duration, got {d}");
    }

    #[test]
    fn throttled_cluster_runs_longer() {
        let cfg = small_config();
        let rng = RngStream::new(3, "sim-test");
        // Cluster 0 demands 160 W vs 110 W constant caps → stretched.
        let mgr = constant_mgr(&cfg);
        let mut sim = ClusterSim::new(cfg, vec![flat(50.0, 160.0), flat(50.0, 60.0)], mgr, &rng);
        sim.run_until(400, |s| {
            s.runs_completed(0) >= 1 && s.runs_completed(1) >= 1
        });
        let d_hot = sim.run_durations(0)[0];
        let d_cool = sim.run_durations(1)[0];
        assert!(d_hot > d_cool + 5.0, "hot {d_hot} vs cool {d_cool}");
        assert!(sim.satisfaction(0) < 0.85, "{}", sim.satisfaction(0));
        assert!(sim.satisfaction(1) > 0.99);
    }

    #[test]
    fn slurm_shifts_power_to_hot_cluster() {
        let cfg = small_config();
        let budget = cfg.total_budget();
        let rng = RngStream::new(4, "sim-test");
        let mgr: Box<dyn PowerManager> = Box::new(SlurmManager::new(
            cfg.topology.total_units(),
            budget,
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            Default::default(),
            rng.child("mgr"),
        ));
        let mut sim = ClusterSim::new(cfg, vec![flat(400.0, 160.0), flat(400.0, 30.0)], mgr, &rng);
        for _ in 0..40 {
            sim.cycle();
        }
        // Hot cluster's sockets (units 0,1) should have grown past 110;
        // idle cluster's (units 2,3) shrunk.
        assert!(sim.caps()[0] > 130.0, "{:?}", sim.caps());
        assert!(sim.caps()[2] < 70.0, "{:?}", sim.caps());
    }

    #[test]
    fn dps_budget_always_respected() {
        let cfg = small_config();
        let budget = cfg.total_budget();
        let rng = RngStream::new(5, "sim-test");
        let mgr: Box<dyn PowerManager> = Box::new(DpsManager::new(
            cfg.topology.total_units(),
            budget,
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            DpsConfig::default(),
            rng.child("mgr"),
        ));
        let mut sim = ClusterSim::new(cfg, vec![flat(200.0, 160.0), flat(200.0, 150.0)], mgr, &rng);
        for _ in 0..150 {
            sim.cycle();
            let sum: f64 = sim.caps().iter().sum();
            assert!(sum <= budget + 1e-6, "cycle {}: {sum}", sim.timestep());
        }
    }

    #[test]
    fn logging_captures_cycles() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(6, "sim-test");
        let mut sim = ClusterSim::new(cfg, vec![flat(20.0, 120.0), flat(20.0, 50.0)], mgr, &rng);
        sim.enable_logging();
        for _ in 0..10 {
            sim.cycle();
        }
        assert_eq!(sim.log().records().len(), 10);
        let demand0 = sim.log().demand_series(0);
        assert!(demand0.iter().all(|&d| d > 100.0), "{demand0:?}");
    }

    #[test]
    fn fairness_perfect_when_unconstrained() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(7, "sim-test");
        let mut sim = ClusterSim::new(cfg, vec![flat(50.0, 90.0), flat(50.0, 70.0)], mgr, &rng);
        for _ in 0..60 {
            sim.cycle();
        }
        assert!(sim.fairness(0, 1) > 0.999, "{}", sim.fairness(0, 1));
    }

    #[test]
    fn run_until_respects_max_steps() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(8, "sim-test");
        let mut sim = ClusterSim::new(
            cfg,
            vec![flat(1000.0, 100.0), flat(1000.0, 100.0)],
            mgr,
            &rng,
        );
        let steps = sim.run_until(25, |_| false);
        assert_eq!(steps, 25);
        assert_eq!(sim.timestep(), 25);
    }

    #[test]
    fn wire_protocol_changes_nothing_material() {
        // Same run with and without the 3-byte frames: caps differ by at
        // most the 0.1 W quantization per hop.
        let mut cfg_a = small_config();
        cfg_a.noise = NoiseModel::None;
        let mut cfg_b = cfg_a.clone();
        cfg_b.control_plane = ControlPlaneMode::Quantized;
        let rng = RngStream::new(21, "wire-test");
        let programs = || vec![flat(60.0, 150.0), flat(60.0, 60.0)];
        let mut sim_a = ClusterSim::new(cfg_a.clone(), programs(), constant_mgr(&cfg_a), &rng);
        let mut sim_b = ClusterSim::new(cfg_b.clone(), programs(), constant_mgr(&cfg_b), &rng);
        for _ in 0..50 {
            sim_a.cycle();
            sim_b.cycle();
        }
        for (a, b) in sim_a.caps().iter().zip(sim_b.caps()) {
            assert!((a - b).abs() <= 0.2, "{a} vs {b}");
        }
        assert!((sim_a.satisfaction(0) - sim_b.satisfaction(0)).abs() < 0.01);
    }

    #[test]
    fn wire_protocol_budget_respected_with_dps() {
        let mut cfg = small_config();
        cfg.control_plane = ControlPlaneMode::Quantized;
        let budget = cfg.total_budget();
        let rng = RngStream::new(22, "wire-dps");
        let mgr: Box<dyn PowerManager> = Box::new(DpsManager::new(
            cfg.topology.total_units(),
            budget,
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            DpsConfig::default(),
            rng.child("mgr"),
        ));
        let mut sim = ClusterSim::new(cfg, vec![flat(100.0, 160.0), flat(100.0, 150.0)], mgr, &rng);
        for _ in 0..120 {
            sim.cycle();
            // Wire quantization rounds caps to 0.1 W; allow that slack.
            assert!(sim.caps().iter().sum::<f64>() <= budget + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one program per cluster")]
    fn program_count_mismatch_panics() {
        let cfg = small_config();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(9, "sim-test");
        ClusterSim::new(cfg, vec![flat(10.0, 100.0)], mgr, &rng);
    }

    #[test]
    #[should_panic(expected = "build scheduler mode with ClusterSim::with_scheduler")]
    fn pinned_constructor_rejects_a_scheduler_config() {
        let mut cfg = small_config();
        cfg.scheduler = Some(SchedConfig::default_poisson(2, 50.0));
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(10, "sim-test");
        ClusterSim::new(cfg, vec![flat(10.0, 100.0), flat(10.0, 100.0)], mgr, &rng);
    }

    #[test]
    #[should_panic(expected = "build traffic mode with ClusterSim::with_traffic")]
    fn pinned_constructor_rejects_a_traffic_config() {
        let mut cfg = small_config();
        cfg.traffic = Some(TrafficConfig::default_diurnal(4, 100.0));
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(11, "sim-test");
        let factory = || -> ProgramFactory { Box::new(|_| flat(10.0, 100.0)) };
        ClusterSim::with_factories(cfg, vec![factory(), factory()], mgr, &rng);
    }

    // ---- sensor/actuator fault + guard + watchdog wiring ----

    use dps_core::GuardConfig;
    use dps_rapl::{ActuatorFault, SensorFault, UnitFaultEvent};

    fn guarded_dps(cfg: &SimConfig, rng: &RngStream) -> Box<dyn PowerManager> {
        Box::new(DpsManager::with_guard(
            cfg.topology.total_units(),
            cfg.total_budget(),
            UnitLimits {
                min_cap: cfg.domain_spec.min_cap,
                max_cap: cfg.domain_spec.tdp,
            },
            DpsConfig::default(),
            GuardConfig {
                // Noise-free telemetry looks "stuck" to the zero-variance
                // detector; disable it and rely on the value gates.
                stuck_window: 0,
                quarantine_after: 2,
                probation_after: 3,
                readmit_after: 4,
                ..Default::default()
            },
            rng.child("mgr"),
        ))
    }

    #[test]
    fn sensor_fault_schedule_reaches_the_bank() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
            0,
            5.0,
            15.0,
            SensorFault::Dropout,
        )]);
        cfg.validate().unwrap();
        let mgr = constant_mgr(&cfg);
        let rng = RngStream::new(31, "fault-wire");
        let mut sim = ClusterSim::new(cfg, vec![flat(50.0, 100.0), flat(50.0, 100.0)], mgr, &rng);
        sim.enable_logging();
        for _ in 0..20 {
            sim.cycle();
        }
        let series = sim.log().power_series(0);
        // Readings inside [5, 15) are NaN, outside they are finite.
        assert!(series[2].is_finite(), "{series:?}");
        assert!(series[8].is_nan(), "{series:?}");
        assert!(series[17].is_finite(), "{series:?}");
    }

    #[test]
    fn guarded_dps_quarantines_dropout_and_respects_budget() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
            0,
            10.0,
            40.0,
            SensorFault::Dropout,
        )]);
        let budget = cfg.total_budget();
        let rng = RngStream::new(32, "guard-sim");
        let mgr = guarded_dps(&cfg, &rng);
        let mut sim = ClusterSim::new(cfg, vec![flat(200.0, 160.0), flat(200.0, 150.0)], mgr, &rng);
        let mut quarantined_seen = false;
        for _ in 0..80 {
            sim.cycle();
            assert!(
                sim.caps().iter().sum::<f64>() <= budget + 1e-6,
                "cycle {}: {:?}",
                sim.timestep(),
                sim.caps()
            );
            let health = sim.health().expect("guarded manager reports health");
            if health[0].is_isolated() {
                quarantined_seen = true;
            }
        }
        assert!(quarantined_seen, "dropout unit was never isolated");
        // Long after the window the unit must be healthy again.
        assert_eq!(sim.health().unwrap()[0], HealthState::Healthy);
    }

    #[test]
    fn actuator_drop_writes_diverge_applied_from_requested() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::actuator(
            0,
            0.0,
            1000.0,
            ActuatorFault::DropWrites,
        )]);
        let rng = RngStream::new(33, "act-wire");
        let mgr = guarded_dps(&cfg, &rng);
        // Hot demand everywhere: DPS wants to move unit 0's cap, but the
        // write never lands; the readback must expose the stale cap.
        let mut sim = ClusterSim::new(cfg, vec![flat(200.0, 160.0), flat(200.0, 30.0)], mgr, &rng);
        let mut diverged = false;
        for _ in 0..60 {
            sim.cycle();
            if (sim.applied_caps()[0] - sim.caps()[0]).abs() > 1.0 {
                diverged = true;
            }
            // Honest units' readbacks track their requests.
            assert!((sim.applied_caps()[2] - sim.caps()[2]).abs() < 0.5);
        }
        assert!(diverged, "dropped writes never showed up in the readback");
    }

    #[test]
    fn watchdog_restore_resumes_identical_trajectory() {
        // Checkpoint every cycle, crash after 30, restore a fresh manager
        // from the snapshot: the remaining trajectory must match an
        // uninterrupted twin bit for bit (fault-free plant, shared seed).
        let cfg = small_config();
        let budget = cfg.total_budget();
        let rng = RngStream::new(34, "watchdog");
        let programs = || vec![flat(300.0, 160.0), flat(300.0, 140.0)];
        let mut crashed = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        let mut twin = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        crashed.enable_watchdog(1);
        for _ in 0..30 {
            crashed.cycle();
            twin.cycle();
        }
        crashed
            .crash_and_restore(guarded_dps(&cfg, &rng))
            .expect("restore from watchdog snapshot");
        for _ in 0..40 {
            crashed.cycle();
            twin.cycle();
            assert_eq!(crashed.caps(), twin.caps(), "t={}", crashed.timestep());
            assert!(crashed.caps().iter().sum::<f64>() <= budget + 1e-6);
        }
    }

    #[test]
    fn crash_without_snapshot_is_rejected() {
        let cfg = small_config();
        let rng = RngStream::new(35, "watchdog-none");
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(50.0, 100.0), flat(50.0, 100.0)],
            guarded_dps(&cfg, &rng),
            &rng,
        );
        // Watchdog never enabled → no snapshot → restore must fail and the
        // incumbent manager keeps running.
        for _ in 0..5 {
            sim.cycle();
        }
        let err = sim.crash_and_restore(guarded_dps(&cfg, &rng)).unwrap_err();
        assert!(err.contains("no watchdog checkpoint"), "{err}");
        sim.cycle(); // still functional
    }

    // ---- structured trace (dps-obs) wiring ----

    #[test]
    fn trace_envelope_brackets_every_cycle() {
        let mut cfg = small_config();
        cfg.sensor_faults = UnitFaultSchedule::new(vec![UnitFaultEvent::sensor(
            0,
            5.0,
            15.0,
            SensorFault::Dropout,
        )]);
        let rng = RngStream::new(41, "trace-sim");
        // Asymmetric demand so DPS actually moves caps (a uniformly hot
        // cluster equalizes at the constant cap and produces no deltas).
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(200.0, 160.0), flat(200.0, 30.0)],
            guarded_dps(&cfg, &rng),
            &rng,
        );
        sim.enable_watchdog(8);
        let sink = SinkHandle::recording(4096);
        sim.set_trace_sink(sink.clone());
        for _ in 0..30 {
            sim.cycle();
        }

        let bytes = sink.export().expect("recording sink exports");
        let decoded = dps_obs::codec::decode(&bytes).expect("trace decodes");
        assert_eq!(decoded.dropped, 0);

        let mut starts = 0u64;
        let mut ends = 0u64;
        let mut fault_edges = Vec::new();
        let mut checkpoints = 0u64;
        let mut open = false;
        for ev in &decoded.events {
            match *ev {
                Event::CycleStart { cycle, time_s } => {
                    assert!(!open, "nested CycleStart at cycle {cycle}");
                    assert_eq!(cycle, starts, "cycle indices are dense");
                    assert!((time_s - cycle as f64).abs() < 1e-9, "1 s period");
                    open = true;
                    starts += 1;
                }
                Event::CycleEnd {
                    cycle,
                    budget_slack_w,
                    queue_depth,
                    ..
                } => {
                    assert!(open, "CycleEnd without CycleStart");
                    assert_eq!(cycle, ends);
                    assert!(budget_slack_w > -1e-6, "budget overrun in trace");
                    assert_eq!(queue_depth, 0, "pinned mode has no queue");
                    open = false;
                    ends += 1;
                }
                Event::FaultEdge {
                    cycle,
                    unit,
                    domain,
                    active,
                } => {
                    assert_eq!(unit, 0);
                    assert_eq!(domain, FaultDomain::Sensor);
                    fault_edges.push((cycle, active));
                }
                Event::CheckpointTaken { bytes, .. } => {
                    assert!(bytes > 0, "checkpoint blob is never empty");
                    checkpoints += 1;
                }
                Event::PhaseEnd { .. } => {
                    panic!("timing spans must stay off without with_timing()")
                }
                _ => {}
            }
        }
        assert_eq!(starts, 30);
        assert_eq!(ends, 30);
        // The [5, 15) s window opens at the cycle sampled at t=5 and closes
        // at the one sampled at t=15 (1 s period → cycles 5 and 15).
        assert_eq!(fault_edges, vec![(5, true), (15, false)]);
        // Watchdog every 8 cycles → snapshots at timesteps 7, 15, 23.
        assert_eq!(checkpoints, 3);
        let reg = sink.as_ring().unwrap().registry();
        assert_eq!(reg.checkpoints(), 3);
        assert_eq!(reg.fault_edges(), 2);
        assert!(reg.cap_deltas() > 0, "DPS moved caps under load");
    }

    #[test]
    fn trace_sink_does_not_perturb_the_simulation() {
        let cfg = small_config();
        let rng = RngStream::new(42, "trace-twin");
        let programs = || vec![flat(120.0, 160.0), flat(120.0, 60.0)];
        let mut traced = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        let mut plain = ClusterSim::new(cfg.clone(), programs(), guarded_dps(&cfg, &rng), &rng);
        traced.set_trace_sink(SinkHandle::recording(8192));
        for _ in 0..60 {
            traced.cycle();
            plain.cycle();
            assert_eq!(traced.caps(), plain.caps(), "t={}", plain.timestep());
        }
        assert_eq!(traced.satisfaction(0), plain.satisfaction(0));
    }

    #[test]
    fn scheduler_mode_traces_job_lifecycle() {
        let mut cfg = SimConfig {
            topology: Topology::new(2, 4, 2),
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.scheduler = Some(SchedConfig::default_poisson(6, 100.0));
        let rng = RngStream::new(43, "trace-sched");
        let mut sim = ClusterSim::with_scheduler(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
        let sink = SinkHandle::recording(1 << 16);
        sim.set_trace_sink(sink.clone());
        for _ in 0..4000 {
            sim.cycle();
            if sim.scheduler_drained() {
                break;
            }
        }
        assert!(sim.scheduler_drained(), "queue failed to drain");
        let reg = sink.as_ring().unwrap().registry();
        assert_eq!(reg.sched_arrivals(), 6);
        assert_eq!(reg.sched_starts(), 6);
        assert_eq!(
            reg.sched_finishes() + reg.sched_evictions(),
            6,
            "every job retires"
        );
        assert!(
            reg.membership_flips() > 0,
            "job churn must reach the manager's membership trace"
        );
    }

    // ---- traffic mode (dps-traffic) wiring ----

    use dps_traffic::{ProvisionerConfig, ProvisionerMode, TrafficPattern};

    fn flash_crowd_traffic(total_sockets: usize) -> TrafficConfig {
        let mut cfg = TrafficConfig::default_diurnal(total_sockets, 100.0);
        cfg.pattern = TrafficPattern::FlashCrowd {
            base_rps: 100.0,
            peak_rps: 0.9 * total_sockets as f64 * 100.0,
            start: 20.0,
            ramp: 10.0,
            hold: 60.0,
            decay: 10.0,
        };
        cfg.provisioner = ProvisionerMode::Reactive(ProvisionerConfig {
            target_utilization: 0.7,
            headroom_nodes: 0,
            power_off_after: 15.0,
            min_nodes: 1,
        });
        cfg.milestone_every = 10_000;
        cfg
    }

    #[test]
    fn traffic_mode_provisions_and_stays_under_budget() {
        let mut cfg = SimConfig {
            topology: Topology::new(2, 4, 2), // 8 nodes × 2 sockets
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.traffic = Some(flash_crowd_traffic(cfg.topology.total_units()));
        let budget = cfg.total_budget();
        let rng = RngStream::new(51, "traffic-sim");
        let mut sim = ClusterSim::with_traffic(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
        let sink = SinkHandle::recording(1 << 16);
        sim.set_trace_sink(sink.clone());
        let mut peak_active = 0;
        for _ in 0..200 {
            sim.cycle();
            assert!(
                sim.caps().iter().sum::<f64>() <= budget + 1e-6,
                "budget overrun at cycle {}",
                sim.timestep()
            );
            peak_active = peak_active.max(sim.traffic_driver().unwrap().active_nodes());
        }
        // The crowd forced the fleet up, the hysteresis brought it back.
        assert!(peak_active >= 5, "fleet never grew: peak {peak_active}");
        assert!(
            sim.traffic_driver().unwrap().active_nodes() <= 2,
            "fleet never shrank: {} nodes",
            sim.traffic_driver().unwrap().active_nodes()
        );
        let stats = sim.request_stats().unwrap();
        assert!(stats.served > 10_000.0, "served {}", stats.served);
        assert!(stats.joules > 0.0);
        let reg = sink.as_ring().unwrap().registry();
        assert!(reg.provision_power_ons() > 0, "no power-ons traced");
        assert!(reg.provision_power_offs() > 0, "no power-offs traced");
        assert!(reg.request_milestones() > 0, "no milestones traced");
        assert!(
            reg.membership_flips() > 0,
            "provisioning must reach the manager's membership trace"
        );
    }

    #[test]
    fn traffic_mode_is_deterministic_per_seed() {
        let mut cfg = SimConfig {
            topology: Topology::new(2, 2, 2),
            noise: NoiseModel::None,
            ..SimConfig::paper_default()
        };
        cfg.traffic = Some(flash_crowd_traffic(cfg.topology.total_units()));
        let run = |seed: u64| {
            let rng = RngStream::new(seed, "traffic-det");
            let mut sim = ClusterSim::with_traffic(cfg.clone(), guarded_dps(&cfg, &rng), &rng);
            for _ in 0..150 {
                sim.cycle();
            }
            (
                sim.request_stats().unwrap().arrived,
                sim.request_stats().unwrap().served,
                sim.caps().to_vec(),
            )
        };
        let (a1, s1, c1) = run(7);
        let (a2, s2, c2) = run(7);
        let (a3, _, _) = run(8);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
        assert_ne!(a1, a3, "different seeds must diverge");
    }

    #[test]
    fn scheduler_and_traffic_are_mutually_exclusive() {
        let mut cfg = small_config();
        cfg.scheduler = Some(SchedConfig::default_poisson(2, 50.0));
        cfg.traffic = Some(TrafficConfig::default_diurnal(4, 100.0));
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn crash_restore_is_marked_in_the_trace() {
        let cfg = small_config();
        let rng = RngStream::new(44, "trace-crash");
        let mut sim = ClusterSim::new(
            cfg.clone(),
            vec![flat(300.0, 160.0), flat(300.0, 140.0)],
            guarded_dps(&cfg, &rng),
            &rng,
        );
        sim.enable_watchdog(1);
        let sink = SinkHandle::recording(1 << 14);
        sim.set_trace_sink(sink.clone());
        for _ in 0..10 {
            sim.cycle();
        }
        sim.crash_and_restore(guarded_dps(&cfg, &rng))
            .expect("restore from snapshot");
        for _ in 0..10 {
            sim.cycle();
        }
        let reg = sink.as_ring().unwrap().registry();
        assert_eq!(reg.controller_restores(), 1);
        let events = sink.as_ring().unwrap().ring().snapshot();
        let marker = events
            .iter()
            .position(|e| matches!(e, Event::ControllerRestored { .. }))
            .expect("restore marker present");
        assert!(
            matches!(events[marker], Event::ControllerRestored { cycle: 10 }),
            "marker carries the crash timestep"
        );
        // The envelope keeps counting across the seam (sim-owned indices).
        let last_end = events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::CycleEnd { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_end, 19);
    }
}
