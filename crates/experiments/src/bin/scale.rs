//! Extension study: does the result survive scale?
//!
//! §6.5 argues the DPS *controller* scales to tens of thousands of nodes;
//! this experiment checks that the *decision quality* scales too. The
//! GMM+EP pair runs on progressively larger clusters (the paper's 2×5×2
//! testbed up to 2×100×2 = 400 sockets) and reports each manager's pair
//! speedup, fairness, and the simulator's wall-clock cost per simulated
//! second.

use dps_cluster::run_pair;
use dps_core::config::{DpsConfig, StatsMode};
use dps_core::manager::{ManagerKind, PowerManager, UnitLimits};
use dps_core::{DpsManager, ShardedManager};
use dps_experiments::{banner, config_from_env, parallel_map, pct, threads_from_env};
use dps_rapl::Topology;
use dps_sim_core::rng::RngStream;
use dps_workloads::catalog::find;
use std::fmt::Write as _;
use std::time::Instant;

/// One measured manager-step timing cell.
struct BenchCell {
    config: &'static str,
    units: usize,
    mode: &'static str,
    cycles: usize,
    per_cycle_us: f64,
}

/// A step-bench scenario: a history window length plus a synthetic load.
#[derive(Clone, Copy)]
struct BenchConfig {
    name: &'static str,
    history_len: usize,
    load: Load,
}

#[derive(Clone, Copy)]
enum Load {
    /// Every unit ramps 40→160 W over 20 cycles with a per-unit phase
    /// offset — the fastest churn the paper's workloads show.
    Sawtooth,
    /// Long alternating low/high phases (hundreds of cycles, desynchronized
    /// across units) — the phase structure of real HPC workloads, and the
    /// regime a fine-grained telemetry window actually monitors.
    Phased,
}

/// Deterministic load driver for the step bench (no RNG: both statistics
/// modes must see bit-identical measurement streams).
struct Churn {
    load: Load,
    measured: Vec<f64>,
    caps: Vec<f64>,
    step: usize,
}

impl Churn {
    fn new(n: usize, load: Load) -> Self {
        Self {
            load,
            measured: vec![0.0; n],
            caps: vec![110.0; n],
            step: 0,
        }
    }

    fn drive(&mut self, mgr: &mut dyn PowerManager) {
        self.step += 1;
        for (u, m) in self.measured.iter_mut().enumerate() {
            let demand = match self.load {
                Load::Sawtooth => {
                    let phase = ((self.step + u) % 20) as f64 / 20.0;
                    40.0 + 120.0 * phase
                }
                Load::Phased => {
                    let period = 1200 + (u % 7) * 60;
                    let pos = (self.step + u * 37) % period;
                    if pos < period / 2 {
                        55.0 + (u % 7) as f64
                    } else {
                        92.0 + (u % 11) as f64
                    }
                }
            };
            *m = demand.min(self.caps[u]);
        }
        mgr.assign_caps(&self.measured, &mut self.caps, 1.0);
    }
}

fn dps_with_mode(n: usize, history_len: usize, mode: StatsMode) -> DpsManager {
    let limits = UnitLimits::xeon_gold_6240();
    let mut config = DpsConfig::default().with_stats_mode(mode);
    config.history_len = history_len;
    DpsManager::new(
        n,
        110.0 * n as f64,
        limits,
        config,
        RngStream::new(7, "scale/step-bench"),
    )
}

/// Shard count for the hierarchical cells.
const BENCH_SHARDS: usize = 16;

/// The smallest grid size that gets a hierarchical cell alongside the
/// flat incremental one.
const SHARDED_FROM_UNITS: usize = 262_144;

fn sharded_dps(n: usize, history_len: usize) -> ShardedManager {
    let limits = UnitLimits::xeon_gold_6240();
    let mut config = DpsConfig::default().with_stats_mode(StatsMode::Incremental);
    config.history_len = history_len;
    // The same threshold gates both the tree's shard fan-out (compared
    // against the fleet size) and each shard's internal classify threads
    // (compared against the shard size). Sitting between the two sizes
    // means: parallelize across the 16 shards, stay serial inside each —
    // one thread per shard, no nested oversubscription.
    config.parallel_threshold = 100_000;
    assert!(n / BENCH_SHARDS < config.parallel_threshold && config.parallel_threshold <= n);
    ShardedManager::new(
        n,
        110.0 * n as f64,
        limits,
        config,
        BENCH_SHARDS,
        RngStream::new(7, "scale/step-bench"),
    )
}

/// Times full DPS decision cycles under both statistics modes and writes
/// `results/BENCH_manager_scaling.json`. This is the wall-clock evidence
/// for the incremental-statistics speedup: `Rescan` is the pre-optimization
/// full-window path, `Incremental` the rolling-accumulator path. The
/// paper-default 20-sample window bounds the win from below (the stats are
/// a small share of that cycle); the telemetry configs show the windows a
/// production controller sampling at sub-second periods would keep, where
/// the O(window) rescans dominate and the incremental path pulls ahead.
///
/// The grid tops out at 2^18 and 2^20 units — the million-unit cells that
/// size the struct-of-arrays decision core. Those run incremental-only:
/// rescan at a 600-sample window costs O(window) per unit per cycle, which
/// at 2^20 units is minutes per cell for a number the 16384-unit pairs
/// already establish.
///
/// Knobs for CI and spot runs (a partial grid never overwrites the JSON):
///
/// * `DPS_BENCH_FILTER=<substr>` — run only configs whose name contains
///   the substring (e.g. `paper_default_w20`).
/// * `--units <n>` — skip cells larger than `n` units.
/// * `DPS_BENCH_MAX_CYCLE_US=<limit>` — fail (exit 1) if any measured
///   cell exceeds the limit; the CI scale-smoke job's wall-clock gate.
fn step_bench(max_units: Option<usize>) {
    let filter = std::env::var("DPS_BENCH_FILTER").ok();
    let max_cycle_us: Option<f64> = std::env::var("DPS_BENCH_MAX_CYCLE_US")
        .ok()
        .and_then(|v| v.parse().ok());
    let configs = [
        BenchConfig {
            name: "paper_default_w20",
            history_len: 20,
            load: Load::Sawtooth,
        },
        BenchConfig {
            name: "telemetry_w120",
            history_len: 120,
            load: Load::Phased,
        },
        BenchConfig {
            name: "telemetry_w600",
            history_len: 600,
            load: Load::Phased,
        },
    ];
    // (units, measured cycles, run the rescan mode too)
    let sizes: [(usize, usize, bool); 5] = [
        (64, 2_000, true),
        (1_024, 400, true),
        (16_384, 60, true),
        (262_144, 8, false),
        (1_048_576, 3, false),
    ];
    let modes = [
        (StatsMode::Incremental, "incremental"),
        (StatsMode::Rescan, "rescan"),
    ];

    let mut cells: Vec<BenchCell> = Vec::new();
    for cfg in &configs {
        if filter
            .as_ref()
            .is_some_and(|f| !cfg.name.contains(f.as_str()))
        {
            continue;
        }
        for &(n, cycles, with_rescan) in &sizes {
            if max_units.is_some_and(|cap| n > cap) {
                continue;
            }
            let mut variants: Vec<(&'static str, Box<dyn PowerManager>)> = Vec::new();
            for &(mode, label) in &modes {
                if !with_rescan && label == "rescan" {
                    continue;
                }
                variants.push((label, Box::new(dps_with_mode(n, cfg.history_len, mode))));
            }
            if n >= SHARDED_FROM_UNITS {
                variants.push(("sharded16", Box::new(sharded_dps(n, cfg.history_len))));
            }
            for (label, mut mgr) in variants {
                let mut churn = Churn::new(n, cfg.load);
                for _ in 0..(cfg.history_len + 64) {
                    churn.drive(mgr.as_mut());
                }
                let start = Instant::now();
                for _ in 0..cycles {
                    churn.drive(mgr.as_mut());
                }
                let wall = start.elapsed().as_secs_f64();
                let cell = BenchCell {
                    config: cfg.name,
                    units: n,
                    mode: label,
                    cycles,
                    per_cycle_us: wall / cycles as f64 * 1e6,
                };
                if let Some(limit) = max_cycle_us {
                    if cell.per_cycle_us > limit {
                        eprintln!(
                            "FAIL: {} @ {n} units ({label}) took {:.1} us/cycle, \
                             limit {limit:.1}",
                            cfg.name, cell.per_cycle_us
                        );
                        std::process::exit(1);
                    }
                }
                cells.push(cell);
            }
        }
    }

    let find_cell = |config: &str, units: usize, mode: &str| {
        cells
            .iter()
            .find(|c| c.config == config && c.units == units && c.mode == mode)
    };
    // Distinct (config, units) pairs in measurement order. Pairing by key
    // rather than position keeps the table and speedups correct when the
    // filter / --units cap or an incremental-only cell breaks adjacency.
    let mut keys: Vec<(&'static str, usize)> = Vec::new();
    for c in &cells {
        if !keys.contains(&(c.config, c.units)) {
            keys.push((c.config, c.units));
        }
    }

    let mut table = dps_metrics::Table::new(vec![
        "config".into(),
        "units".into(),
        "incremental us/cycle".into(),
        "inc ns/unit".into(),
        "rescan us/cycle".into(),
        "speedup".into(),
        "sharded16 us/cycle".into(),
        "tree speedup".into(),
    ]);
    let mut speedups: Vec<(&'static str, usize, f64)> = Vec::new();
    for &(config, units) in &keys {
        let Some(inc) = find_cell(config, units, "incremental") else {
            continue;
        };
        let res = find_cell(config, units, "rescan");
        let (res_text, speedup_text) = match res {
            Some(res) => {
                let speedup = res.per_cycle_us / inc.per_cycle_us;
                speedups.push((config, units, speedup));
                (format!("{:.1}", res.per_cycle_us), format!("{speedup:.2}x"))
            }
            None => ("-".to_string(), "-".to_string()),
        };
        // The hierarchical cells: same decision core, budget split across
        // a 16-shard tree (threaded shard fan-out under `parallel`).
        let (shd_text, tree_text) = match find_cell(config, units, "sharded16") {
            Some(shd) => (
                format!("{:.1}", shd.per_cycle_us),
                format!("{:.2}x", inc.per_cycle_us / shd.per_cycle_us),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        table.row(vec![
            config.to_string(),
            units.to_string(),
            format!("{:.1}", inc.per_cycle_us),
            format!("{:.1}", inc.per_cycle_us * 1e3 / units as f64),
            res_text,
            speedup_text,
            shd_text,
            tree_text,
        ]);
    }
    println!("DPS decision-cycle cost, incremental vs full-window rescan:");
    println!("{}", table.render());
    if let Some(limit) = max_cycle_us {
        println!(
            "all {} measured cell(s) within {limit:.0} us/cycle",
            cells.len()
        );
    }

    if filter.is_some() || max_units.is_some() {
        println!("partial grid (DPS_BENCH_FILTER / --units active); JSON not rewritten\n");
        return;
    }
    let mut json = String::from("{\n  \"experiment\": \"dps_manager_step_scaling\",\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"config\": \"{}\", \"units\": {}, \"mode\": \"{}\", \"cycles\": {}, \"per_cycle_us\": {:.3}, \"per_unit_ns\": {:.1}}}{sep}",
            c.config,
            c.units,
            c.mode,
            c.cycles,
            c.per_cycle_us,
            c.per_cycle_us * 1e3 / c.units as f64,
        );
    }
    json.push_str("  ],\n  \"speedup_rescan_over_incremental\": [\n");
    for (i, (cfg, n, s)) in speedups.iter().enumerate() {
        let sep = if i + 1 == speedups.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"config\": \"{cfg}\", \"units\": {n}, \"speedup\": {s:.2}}}{sep}"
        );
    }
    json.push_str("  ]\n}\n");
    let _ = std::fs::create_dir_all("results");
    match std::fs::write("results/BENCH_manager_scaling.json", &json) {
        Ok(()) => println!("wrote results/BENCH_manager_scaling.json\n"),
        Err(e) => eprintln!("could not write results/BENCH_manager_scaling.json: {e}\n"),
    }
}

fn main() {
    // `--units <n>` caps the bench grid (see `step_bench`).
    let args: Vec<String> = std::env::args().collect();
    let max_units = args
        .iter()
        .position(|a| a == "--units")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    step_bench(max_units);
    // DPS_BENCH_ONLY=1 runs just the step bench above — the decision-quality
    // sweep below costs minutes and its output is already in results/scale.txt.
    if std::env::var("DPS_BENCH_ONLY").is_ok() {
        return;
    }

    let mut base = config_from_env();
    base.reps = base.reps.min(3); // scale is the variable here, not variance
    banner("Scale sweep: GMM + EP from 20 to 400 sockets", &base);

    let nodes_per_cluster = [5usize, 10, 25, 50, 100];
    let managers = [ManagerKind::Slurm, ManagerKind::Dps];

    let tasks: Vec<(usize, ManagerKind)> = nodes_per_cluster
        .iter()
        .flat_map(|&n| managers.iter().map(move |&m| (n, m)))
        .collect();
    let results: Vec<(f64, f64, f64)> = parallel_map(threads_from_env(), &tasks, |&(n, kind)| {
        let mut cfg = base.clone();
        cfg.sim.topology = Topology::new(2, n, 2);
        let a = find("GMM").unwrap();
        let b = find("EP").unwrap();
        let start = Instant::now();
        let baseline = run_pair(a, b, ManagerKind::Constant, &cfg);
        let out = run_pair(a, b, kind, &cfg);
        let wall = start.elapsed().as_secs_f64();
        let sim_seconds = (baseline.steps + out.steps) as f64 * cfg.sim.period;
        (
            out.pair_speedup(baseline.a.hmean_duration(), baseline.b.hmean_duration()),
            out.fairness,
            wall / sim_seconds * 1e6, // µs of wall time per simulated second
        )
    });

    let mut table = dps_metrics::Table::new(vec![
        "sockets".into(),
        "SLURM pair".into(),
        "SLURM fair".into(),
        "DPS pair".into(),
        "DPS fair".into(),
        "us/sim-s".into(),
    ]);
    for (i, &n) in nodes_per_cluster.iter().enumerate() {
        let slurm = results[i * 2];
        let dps = results[i * 2 + 1];
        table.row(vec![
            (2 * n * 2).to_string(),
            pct(slurm.0),
            format!("{:.3}", slurm.1),
            pct(dps.0),
            format!("{:.3}", dps.1),
            format!("{:.0}", dps.2),
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape: the DPS-over-SLURM gap and the fairness gap persist");
    println!("at every scale (the mechanisms are per-unit and cluster-aggregate,");
    println!("not tied to the testbed's 20 sockets); simulation cost grows roughly");
    println!("linearly with socket count.");
}
