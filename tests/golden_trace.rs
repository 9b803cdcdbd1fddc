//! Golden-trace regression suite.
//!
//! Every scenario in [`dps_experiments::scenarios`] is a pinned-seed
//! end-to-end run whose `dps-obs` trace is committed under `tests/golden/`.
//! These tests re-record each scenario and compare **byte for byte**: any
//! behavioural drift in the decision loop — a reordered emission, a changed
//! cap by one ULP, an extra guard transition — fails the suite with a
//! pointer to `trace_inspect diff`.
//!
//! When a behaviour change is intentional and reviewed, regenerate with:
//!
//! ```text
//! DPS_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! (or per scenario via `trace_inspect record <name> tests/golden/<name>.trace`),
//! then commit the updated traces alongside the change that caused them.

use dps_experiments::scenarios::GoldenScenario;
use dps_suite::core::config::{DpsConfig, StatsMode};
use dps_suite::obs::codec;
use std::path::PathBuf;

fn golden_path(scenario: GoldenScenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(scenario.file_name())
}

fn regen_requested() -> bool {
    std::env::var_os("DPS_REGEN_GOLDEN").is_some_and(|v| v != "0")
}

/// Records `scenario`, handles `DPS_REGEN_GOLDEN`, and returns the freshly
/// recorded bytes after asserting they match the committed golden file.
fn check_against_golden(scenario: GoldenScenario) -> Vec<u8> {
    let recorded = scenario.record();
    let path = golden_path(scenario);
    if regen_requested() {
        std::fs::write(&path, &recorded).expect("write regenerated golden trace");
        eprintln!("regenerated {}", path.display());
        return recorded;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run with DPS_REGEN_GOLDEN=1 to create it)",
            path.display()
        )
    });
    assert!(
        recorded == committed,
        "{} drifted from its golden trace.\n\
         Inspect with:  cargo run --bin trace_inspect diff {} <(fresh recording)\n\
         If the change is intentional, regenerate: DPS_REGEN_GOLDEN=1 cargo test --test golden_trace",
        scenario.name(),
        path.display(),
    );
    recorded
}

#[test]
fn paper_default_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::PaperDefault);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    assert_eq!(trace.dropped, 0);
}

#[test]
fn sensor_fault_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::SensorFault);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    // The scenario must actually exercise the fault machinery, otherwise
    // the golden file silently stops guarding anything.
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    assert!(reg.fault_edges() >= 4, "both fault windows open and close");
    assert!(
        reg.guard_transitions() > 0,
        "guard must react to the dropout"
    );
    assert!(reg.checkpoints() > 0, "watchdog checkpoints in the window");
}

#[test]
fn scheduler_churn_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::SchedulerChurn);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    assert_eq!(reg.sched_arrivals(), 5);
    assert_eq!(reg.sched_starts(), 5);
    assert_eq!(reg.sched_finishes(), 4);
    assert_eq!(reg.sched_evictions(), 1, "the tight-walltime job evicts");
}

#[test]
fn elastic_traffic_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::ElasticTraffic);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    // The scenario must exercise the whole elastic loop: growth during the
    // flash crowd, hysteresis shrinkage after, request milestones, and the
    // membership churn provisioning drives into the manager.
    assert!(reg.provision_power_ons() > 0, "no power-ons recorded");
    assert!(reg.provision_power_offs() > 0, "no power-offs recorded");
    assert!(
        reg.request_milestones() > 0,
        "no request milestones recorded"
    );
    assert!(
        reg.membership_flips() > 0,
        "provisioning never reached the manager"
    );
}

#[test]
fn idle_elastic_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::IdleElastic);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    // The scenario must walk the whole sleep ladder: demotions during the
    // post-crowd shrink, wake latencies paid on the re-growth, and — with
    // the learning-augmented policy — predictor samples scoring the advice
    // against realised gap lengths.
    assert!(reg.sleep_transitions() > 0, "no demotions recorded");
    assert!(reg.wake_starts() > 0, "no wakes ever started");
    assert!(reg.wake_dones() > 0, "no wake ever completed");
    assert!(
        reg.predictor_samples() > 0,
        "learning-augmented policy produced no predictor samples"
    );
    assert!(
        reg.membership_flips() > 0,
        "woken units never re-entered the manager's view"
    );
}

#[test]
fn chaos_brownout_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::ChaosBrownout);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    // The scenario must actually walk the degradation ladder and ride the
    // brownout: at least one descent and the hysteretic recovery, budget
    // shocks from the ramps, and not a single safety-invariant violation
    // even with the chaos window open.
    assert!(reg.mode_changes() >= 2, "ladder never moved");
    assert!(
        reg.budget_shocks() > 0,
        "brownout never reached the manager"
    );
    assert_eq!(
        reg.invariant_violations(),
        0,
        "safety invariants must hold under chaos"
    );
    assert!(reg.fault_edges() > 0, "chaos sensor fault never compiled");
}

#[test]
fn sharded_elastic_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::ShardedElastic);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    // The tree must actually behave like a tree: the allocator regrants
    // as the flash crowd skews demand across shards, the provisioner's
    // churn reaches the top level as (global-index) membership flips,
    // and the monitor's per-level budget checks stay silent throughout.
    assert!(reg.shard_grants() > 0, "the allocator never regranted");
    assert!(
        reg.membership_flips() > 0,
        "provisioning never reached the tree"
    );
    assert!(reg.provision_power_ons() > 0, "no power-ons recorded");
    assert_eq!(
        reg.invariant_violations(),
        0,
        "the tree violated a budget invariant"
    );
}

#[test]
fn chaos_churn_matches_golden() {
    let bytes = check_against_golden(GoldenScenario::ChaosChurn);
    let trace = codec::decode(&bytes).expect("golden trace decodes");
    let reg = dps_suite::obs::ObsRegistry::from_events(&trace.events);
    // The churn window must power the rack down and back up through the
    // manager's membership view, and the budget invariants must hold while
    // half the fleet is dark.
    assert!(
        reg.membership_flips() > 0,
        "chaos churn never reached the manager"
    );
    assert_eq!(
        reg.invariant_violations(),
        0,
        "safety invariants must hold under churn"
    );
}

#[test]
fn recording_twice_is_byte_stable() {
    for scenario in GoldenScenario::ALL {
        let a = scenario.record();
        let b = scenario.record();
        assert!(a == b, "{} is not byte-stable across runs", scenario.name());
    }
}

/// `StatsMode::Rescan` is the reference implementation of the incremental
/// statistics; decisions — and therefore traces — must be identical.
#[test]
fn rescan_stats_mode_reproduces_golden_traces() {
    let rescan = DpsConfig::default().with_stats_mode(StatsMode::Rescan);
    for scenario in GoldenScenario::ALL {
        let default_bytes = scenario.record();
        let rescan_bytes = scenario.record_with(rescan);
        assert!(
            default_bytes == rescan_bytes,
            "{}: Rescan stats diverge from Incremental in the trace",
            scenario.name()
        );
    }
}

/// The threaded observe/classify phase must be decision-identical to the
/// sequential loop: forcing the parallel path (threshold 1) has to produce
/// the exact bytes the sequential default records.
#[cfg(feature = "parallel")]
#[test]
fn parallel_classify_reproduces_golden_traces() {
    let forced = DpsConfig {
        parallel_threshold: 1,
        ..DpsConfig::default()
    };
    for scenario in GoldenScenario::ALL {
        let sequential = scenario.record_with(DpsConfig {
            parallel_threshold: usize::MAX,
            ..DpsConfig::default()
        });
        let parallel = scenario.record_with(forced);
        assert!(
            sequential == parallel,
            "{}: parallel classify changes the trace",
            scenario.name()
        );
    }
}
