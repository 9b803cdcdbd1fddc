//! Bit-for-bit pin of the framed control plane under jitter, duplication,
//! corruption, faults and scale.
//!
//! Each case runs a `FramedControlPlane` for [`CYCLES`] decision cycles
//! under a manager whose proposals move every cycle (they depend on the
//! cycle number and on the controller's telemetry), with a downward
//! `set_budget` shock mid-run and its recovery later. Every cycle's
//! applied caps, telemetry, post-processed proposals, node liveness, agent
//! state, invariant result and live believed/applied sums are folded into
//! one FNV-1a digest per case; the final `CtrlStats` are printed beside
//! it. `tests/fixtures/framed_plane_expected.txt` holds the accepted
//! baseline, so any change to an event's order, an RNG draw or a counter
//! fails here.
//!
//! Regenerate (only with a build whose behaviour is the accepted baseline):
//!
//! ```text
//! DPS_REGEN_FIXTURE=1 cargo test --test framed_plane_fixture
//! ```

use dps_suite::core::manager::{constant_cap, ManagerKind, PowerManager, UnitLimits};
use dps_suite::ctrl::{FaultEvent, FramedConfig, FramedControlPlane};
use dps_suite::sim_core::RngStream;

const EXPECTED: &str = "tests/fixtures/framed_plane_expected.txt";
const CYCLES: usize = 24;
const PERIOD: f64 = 1.0;
/// Cycles at which the budget drops to 80% and comes back.
const SHOCK_AT: usize = 8;
const RECOVER_AT: usize = 16;

fn limits() -> UnitLimits {
    UnitLimits {
        min_cap: 40.0,
        max_cap: 165.0,
    }
}

/// Spreads the budget's headroom above the floor over weights that shift
/// every cycle and follow the controller's telemetry.
struct ShiftingManager {
    budget: f64,
    n: usize,
    cycle: usize,
    weights: Vec<f64>,
}

impl PowerManager for ShiftingManager {
    fn kind(&self) -> ManagerKind {
        ManagerKind::Constant
    }
    fn num_units(&self) -> usize {
        self.n
    }
    fn total_budget(&self) -> f64 {
        self.budget
    }
    fn set_budget(&mut self, new_budget: f64) -> Result<(), String> {
        self.budget = new_budget;
        Ok(())
    }
    fn assign_caps(&mut self, measured: &[f64], caps: &mut [f64], _dt: f64) {
        let lim = limits();
        for (u, w) in self.weights.iter_mut().enumerate() {
            *w = 1.0 + ((u * 7 + self.cycle * 13) % 17) as f64 + measured[u] / 40.0;
        }
        let total: f64 = self.weights.iter().sum();
        let spare = self.budget - self.n as f64 * lim.min_cap;
        for (cap, w) in caps.iter_mut().zip(&self.weights) {
            *cap = lim.clamp(lim.min_cap + spare * w / total);
        }
        self.cycle += 1;
    }
    fn reset(&mut self) {
        self.cycle = 0;
    }
}

/// FNV-1a over everything a cycle exposes.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
    fn flag(&mut self, b: bool) {
        self.bytes(&[b as u8]);
    }
}

struct Case {
    name: &'static str,
    n_nodes: usize,
    units_per_node: usize,
    config: FramedConfig,
}

/// Crash, partition and corruption-burst windows on three distinct nodes.
fn with_faults(mut config: FramedConfig) -> FramedConfig {
    config.faults.push(FaultEvent::Crash {
        node: 3,
        at: 4.0,
        until: 12.0,
    });
    config.faults.push(FaultEvent::Partition {
        node: 9,
        at: 6.0,
        until: 14.0,
    });
    config.faults.push(FaultEvent::CorruptBurst {
        node: 12,
        at: 3.0,
        until: 9.0,
        prob: 0.3,
    });
    config
}

fn cases() -> Vec<Case> {
    let mut drops_jitter = FramedConfig::default();
    drops_jitter.link.drop_prob = 0.05;
    drops_jitter.link.jitter = 10e-6;

    let mut faulty = FramedConfig::default();
    faulty.link.drop_prob = 0.05;
    faulty.link.jitter = 20e-6;
    faulty.link.duplicate_prob = 0.05;
    faulty.link.corrupt_prob = 0.02;
    let faulty = with_faults(faulty);

    // Replies land in the same pump as the request that drew them.
    let mut instant = faulty.clone();
    instant.link.latency = 0.0;
    instant.link.jitter = 0.0;

    let mut no_jitter = faulty.clone();
    no_jitter.link.jitter = 0.0;

    // Long backed-off retries: gather and settle run into the cycle
    // deadline and give up there.
    let mut heavy = FramedConfig::default();
    heavy.link.drop_prob = 0.4;
    heavy.link.jitter = 10e-6;
    heavy.policy.timeout = 0.01;
    heavy.policy.max_retries = 5;

    // Round trips about as long as the timeout: retries cross late
    // replies and acknowledgements.
    let mut slow = FramedConfig::default();
    slow.link.latency = 1.5e-3;
    slow.link.jitter = 1e-3;
    slow.link.drop_prob = 0.1;
    slow.link.duplicate_prob = 0.05;

    vec![
        Case {
            name: "clean_10x2",
            n_nodes: 10,
            units_per_node: 2,
            config: FramedConfig::default(),
        },
        Case {
            name: "drops_jitter_128x2",
            n_nodes: 128,
            units_per_node: 2,
            config: drops_jitter,
        },
        Case {
            name: "faulty_16x4",
            n_nodes: 16,
            units_per_node: 4,
            config: faulty,
        },
        Case {
            name: "faulty_16x4_zero_latency",
            n_nodes: 16,
            units_per_node: 4,
            config: instant,
        },
        Case {
            name: "faulty_64x2_no_jitter",
            n_nodes: 64,
            units_per_node: 2,
            config: no_jitter,
        },
        Case {
            name: "heavy_loss_retries5_32x2",
            n_nodes: 32,
            units_per_node: 2,
            config: heavy,
        },
        Case {
            name: "slow_link_16x4",
            n_nodes: 16,
            units_per_node: 4,
            config: slow,
        },
    ]
}

/// Runs one case and renders its fixture line.
fn run_case(case: &Case) -> String {
    let n = case.n_nodes * case.units_per_node;
    let budget = n as f64 * 110.0;
    let mut plane = FramedControlPlane::new(
        case.n_nodes,
        case.units_per_node,
        budget,
        limits(),
        constant_cap(budget, n, limits()),
        case.config.clone(),
        &RngStream::new(0xF7A3, &format!("fixture/framed-plane/{}", case.name)),
    );
    let mut manager = ShiftingManager {
        budget,
        n,
        cycle: 0,
        weights: vec![0.0; n],
    };
    let mut readings = vec![0.0; n];
    let mut proposals = vec![0.0; n];
    let mut digest = Digest(0xCBF2_9CE4_8422_2325);
    for c in 0..CYCLES {
        let shocked = match c {
            SHOCK_AT => Some(budget * 0.8),
            RECOVER_AT => Some(budget),
            _ => None,
        };
        if let Some(b) = shocked {
            plane.set_budget(b);
            manager.set_budget(b).unwrap();
        }
        for (u, r) in readings.iter_mut().enumerate() {
            *r = 60.0 + ((u * 31 + c * 17) % 97) as f64;
        }
        let ok = plane.run_cycle(
            c as f64 * PERIOD,
            PERIOD,
            &readings,
            &mut manager,
            &mut proposals,
        );
        digest.flag(ok);
        digest.f64s(plane.applied_caps());
        digest.f64s(plane.telemetry());
        digest.f64s(&proposals);
        for node in 0..case.n_nodes {
            digest.flag(plane.node_live(node));
            digest.flag(plane.agent_up(node));
        }
        digest.f64s(&[plane.live_believed_sum(), plane.live_applied_sum()]);
    }
    format!("{} {:016x} {:?}", case.name, digest.0, plane.stats())
}

#[test]
fn framed_plane_matches_fixture() {
    let lines: Vec<String> = cases().iter().map(run_case).collect();
    if std::env::var("DPS_REGEN_FIXTURE").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(EXPECTED, lines.join("\n") + "\n").unwrap();
        eprintln!("regenerated {EXPECTED}");
        return;
    }
    let expected = std::fs::read_to_string(EXPECTED).expect("committed framed-plane fixture");
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(expected.len(), lines.len(), "one fixture line per case");
    for (got, want) in lines.iter().zip(expected) {
        assert_eq!(got, want, "framed plane diverged from the fixture");
    }
}
