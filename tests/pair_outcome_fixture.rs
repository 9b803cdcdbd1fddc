//! One `run_pair` outcome, pinned bit for bit.
//!
//! The golden traces pin decisions, but no committed file pins what the
//! paper's experiment reports: per-run throughput times, per-cluster
//! satisfaction (Eq. 1) and the pair's fairness (Eq. 2).
//! `tests/fixtures/pair_outcome_expected.txt` holds those numbers for one
//! Fig. 6 pair under DPS as f64 bit patterns, one labelled line each.
//! `run_pair` regenerates every repetition's program
//! (`ClusterSim::with_factories`), so the fixture also pins the per-run
//! realisation swap.
//!
//! Regenerate (only with a build whose behaviour is the accepted baseline):
//!
//! ```text
//! DPS_REGEN_FIXTURE=1 cargo test --test pair_outcome_fixture
//! ```

use dps_suite::cluster::{run_pair, ExperimentConfig, PairOutcome};
use dps_suite::core::manager::ManagerKind;
use dps_suite::workloads::catalog;

const EXPECTED: &str = "tests/fixtures/pair_outcome_expected.txt";

fn hex(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The outcome as the fixture's text: one labelled line per field.
fn render(out: &PairOutcome) -> String {
    [
        format!("steps {}", out.steps),
        format!("a.durations {}", hex(&out.a.durations)),
        format!("a.satisfaction {}", hex(&[out.a.satisfaction])),
        format!("b.durations {}", hex(&out.b.durations)),
        format!("b.satisfaction {}", hex(&[out.b.satisfaction])),
        format!("fairness {}", hex(&[out.fairness])),
    ]
    .join("\n")
        + "\n"
}

#[test]
fn run_pair_outcome_matches_fixture() {
    // The paper testbed (20 sockets, noisy RAPL, 110 W/socket) running a
    // mid-power Spark job beside a high-power NPB kernel, two repetitions
    // each, so both clusters cross at least one run boundary.
    let config = ExperimentConfig::paper_default(1, 2);
    let spec = |name| catalog::find(name).expect("catalog entry");
    let out = run_pair(spec("Bayes"), spec("FT"), ManagerKind::Dps, &config);
    assert_eq!(out.a.durations.len(), 2);
    assert_eq!(out.b.durations.len(), 2);
    let rendered = render(&out);

    if std::env::var("DPS_REGEN_FIXTURE").is_ok() {
        std::fs::write(EXPECTED, &rendered).unwrap();
        eprintln!("regenerated {EXPECTED}");
        return;
    }
    let committed = std::fs::read_to_string(EXPECTED).expect("committed pair-outcome fixture");
    for (fresh, pinned) in rendered.lines().zip(committed.lines()) {
        assert_eq!(fresh, pinned, "run_pair outcome drifted from {EXPECTED}");
    }
    assert_eq!(rendered.lines().count(), committed.lines().count());
}
