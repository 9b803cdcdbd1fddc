//! Per-socket demand, pinned bit for bit wherever sockets share a job's
//! program: pinned runs, with and without per-run realisation swaps, and
//! scheduler mode.
//!
//! Sockets of one job run the same program scaled by a per-socket demand
//! factor and clamped at TDP. Each case below runs a simulator with
//! logging on and folds every cycle's `CycleLog` demand, measured power and
//! caps into one FNV-1a digest per cycle;
//! `tests/fixtures/fleet_demand_expected.txt` holds one `case cycle digest`
//! line each. A change to how per-socket demand is computed that moves any
//! socket's demand by one ULP in any cycle fails here, at the first cycle
//! it touches.
//!
//! The cases:
//!
//! - `pinned_2x256x2`: GMM and EP pinned on 1,024 sockets. EP's body is all
//!   ramps and its level times the factor often exceeds TDP, so the run
//!   crosses ramps and clamped phases on every cycle.
//! - `factories_2x4x2`: short ramp-and-plateau programs regenerated every
//!   run through `ClusterSim::with_factories`, long enough for several
//!   realisation swaps.
//! - `sched_2x16x2`: the job scheduler on 64 sockets with short jobs, so
//!   jobs start and finish throughout the run.
//!
//! Regenerate (only with a build whose behaviour is the accepted baseline):
//!
//! ```text
//! DPS_REGEN_FIXTURE=1 cargo test --test fleet_demand_fixture
//! ```

use dps_suite::cluster::{ClusterSim, ExperimentConfig};
use dps_suite::core::manager::ManagerKind;
use dps_suite::rapl::Topology;
use dps_suite::sched::{ArrivalSpec, JobOutcome, SchedConfig};
use dps_suite::sim_core::RngStream;
use dps_suite::workloads::{build_program, catalog, DemandProgram, Phase};

const EXPECTED: &str = "tests/fixtures/fleet_demand_expected.txt";

/// FNV-1a over the bits of every `f64` it is fed.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

/// Runs `sim` for `cycles` logged cycles; returns one digest line per
/// cycle over demand, power and caps.
fn digest_lines(name: &str, sim: &mut ClusterSim, cycles: usize) -> Vec<String> {
    sim.enable_logging();
    for _ in 0..cycles {
        sim.cycle();
    }
    sim.log()
        .records()
        .iter()
        .enumerate()
        .map(|(cycle, r)| {
            let mut d = Digest::new();
            d.f64s(&r.demand);
            d.f64s(&r.power);
            d.f64s(&r.caps);
            format!("{name} {cycle} {:016x}", d.0)
        })
        .collect()
}

/// Whether some socket demanded exactly TDP: a level times the socket's
/// factor reached the ceiling and was clamped.
fn saw_clamp(sim: &ClusterSim) -> bool {
    let tdp = sim.config().domain_spec.tdp;
    sim.log().records().iter().any(|r| r.demand.contains(&tdp))
}

fn pinned_fleet() -> Vec<String> {
    let mut cfg = ExperimentConfig::paper_default(3, 1);
    cfg.sim.topology = Topology::new(2, 256, 2);
    let rng = RngStream::new(cfg.seed, "fleet-demand/pinned");
    let programs = ["GMM", "EP"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let spec = catalog::find(name).expect("catalog entry");
            build_program(spec, &cfg.sim.perf, 40 + i as u64)
        })
        .collect();
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        programs,
        cfg.build_manager(ManagerKind::Dps),
        &rng,
    );
    let lines = digest_lines("pinned_2x256x2", &mut sim, 150);

    // Coverage: clamped phases, and ramps (a socket whose demand moves on
    // most cycles is inside ramps, not constant phases).
    assert!(saw_clamp(&sim), "no socket demand was clamped at TDP");
    let records = sim.log().records();
    let moves = |u: usize| {
        records
            .windows(2)
            .filter(|w| w[0].demand[u] != w[1].demand[u])
            .count()
    };
    let most = cfg.sim.topology.cluster_range(1).map(moves).max();
    assert!(most > Some(30), "EP demand moved on only {most:?} cycles");
    lines
}

fn factories() -> Vec<String> {
    let mut cfg = ExperimentConfig::paper_default(5, 1);
    cfg.sim.topology = Topology::new(2, 4, 2);
    let rng = RngStream::new(cfg.seed, "fleet-demand/factories");
    // A rise that ends above TDP / 1.08 for later runs, a plateau whose
    // level moves per run, and a decay: every run differs from the last.
    let factory = |peak: f64| -> dps_suite::cluster::sim::ProgramFactory {
        Box::new(move |run| {
            let top = peak + 2.0 * run as f64;
            DemandProgram::new(vec![
                Phase::constant(2.0, 45.0),
                Phase::ramp(3.0, 45.0, top),
                Phase::constant(6.0 + run as f64, top),
                Phase::ramp(4.0, top, 60.0 + run as f64),
            ])
        })
    };
    let mut sim = ClusterSim::with_factories(
        cfg.sim.clone(),
        vec![factory(150.0), factory(158.0)],
        cfg.build_manager(ManagerKind::Dps),
        &rng,
    );
    let lines = digest_lines("factories_2x4x2", &mut sim, 120);
    assert!(saw_clamp(&sim), "no socket demand was clamped at TDP");
    assert!(
        sim.runs_completed(0) >= 3 && sim.runs_completed(1) >= 3,
        "too few realisation swaps: {} and {} runs",
        sim.runs_completed(0),
        sim.runs_completed(1)
    );
    lines
}

fn scheduled() -> Vec<String> {
    let mut cfg = ExperimentConfig::paper_default(7, 1);
    cfg.sim.topology = Topology::new(2, 16, 2);
    // Short low-power Spark jobs beside FT, a sustained NPB kernel whose
    // level times the factor can exceed TDP.
    let mut pool: Vec<_> = catalog::low_power_spark().into_iter().cloned().collect();
    pool.push(catalog::find("FT").expect("catalog entry").clone());
    let mut sched = SchedConfig::default_poisson(40, 6.0);
    sched.arrivals = ArrivalSpec::Poisson {
        mean_interarrival: 6.0,
        count: 40,
        pool,
        min_nodes: 1,
        max_nodes: 4,
    };
    cfg.sim.scheduler = Some(sched);
    let rng = RngStream::new(cfg.seed, "fleet-demand/sched");
    let mut sim =
        ClusterSim::with_scheduler(cfg.sim.clone(), cfg.build_manager(ManagerKind::Dps), &rng);
    let lines = digest_lines("sched_2x16x2", &mut sim, 200);
    let finished = sim
        .job_records()
        .iter()
        .filter(|r| r.outcome == JobOutcome::Completed)
        .count();
    assert!(finished >= 5, "only {finished} jobs finished");
    assert!(saw_clamp(&sim), "no socket demand was clamped at TDP");
    lines
}

#[test]
fn per_socket_demand_matches_fixture() {
    let rendered: String = [pinned_fleet(), factories(), scheduled()]
        .concat()
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();

    if std::env::var("DPS_REGEN_FIXTURE").is_ok() {
        std::fs::write(EXPECTED, &rendered).unwrap();
        eprintln!("regenerated {EXPECTED}");
        return;
    }
    let committed = std::fs::read_to_string(EXPECTED).expect("committed fleet-demand fixture");
    for (fresh, pinned) in rendered.lines().zip(committed.lines()) {
        assert_eq!(fresh, pinned, "per-socket demand drifted from {EXPECTED}");
    }
    assert_eq!(rendered.lines().count(), committed.lines().count());
}
