//! Release-only memory check of a 262,144-socket pinned fleet.
//!
//! The sockets of a cluster share their job's demand program and keep one
//! demand factor each, so the fleet's resident set is the manager's and
//! the plant's per-unit columns. A private program copy per socket would
//! read about 1.5 GB here. The test builds the fleet (GMM on cluster 0, EP
//! on cluster 1, 2 × 65,536 nodes × 2 sockets, flat DPS with paper
//! defaults, direct exchange), runs 25 cycles and asserts that the
//! process's peak resident set (`VmHWM`) stays under 600 MB. Run it with
//!
//! ```text
//! cargo test --release -p dps-cluster -- --ignored
//! ```

use dps_cluster::{ClusterSim, ExperimentConfig};
use dps_core::manager::ManagerKind;
use dps_rapl::Topology;
use dps_sim_core::RngStream;
use dps_workloads::{build_program, catalog};

const CYCLES: usize = 25;
const PEAK_LIMIT_MB: u64 = 600;

/// The process's peak resident set in MB, from `/proc/self/status`.
fn peak_rss_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024
}

#[test]
#[ignore = "262,144 sockets: run in release"]
fn quarter_million_socket_fleet_stays_under_600_mb() {
    let mut cfg = ExperimentConfig::paper_default(7, 1);
    cfg.sim.topology = Topology::new(2, 65_536, 2);
    let programs = ["GMM", "EP"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let spec = catalog::find(name).expect("catalog entry");
            build_program(spec, &cfg.sim.perf, 11 + i as u64)
        })
        .collect();
    let mut sim = ClusterSim::new(
        cfg.sim.clone(),
        programs,
        cfg.build_manager(ManagerKind::Dps),
        &RngStream::new(cfg.seed, "large-fleet"),
    );
    // Summed over 262,144 caps, the budget check's absolute 1e-6 W slack
    // is below the sum's rounding, so the monitor flags some cycles
    // without any cap being wrong. Count those, do not stop on them.
    sim.set_invariant_fail_fast(false);
    for _ in 0..CYCLES {
        sim.cycle();
    }
    assert_eq!(sim.timestep(), CYCLES as u64);
    let peak = peak_rss_mb();
    eprintln!(
        "peak RSS {peak} MB after {CYCLES} cycles; {} invariant violations",
        sim.invariant_violations()
    );
    assert!(
        peak < PEAK_LIMIT_MB,
        "peak RSS {peak} MB is over {PEAK_LIMIT_MB} MB: are sockets holding program copies again?"
    );
}
