//! Release-only scale check of the framed plane's event loop.
//!
//! A 524,288-unit plane under 10 µs jitter delivers almost every frame at
//! its own time, so one gather takes over a million event steps. The test
//! checks that gather is not cut short by the loop's iteration bound, and
//! it finishes in seconds only because each step costs O(log n) rather
//! than a scan of every node and unit. Run it with
//!
//! ```text
//! cargo test --release -p dps-ctrl -- --ignored
//! ```

use dps_core::manager::{ManagerKind, PowerManager, UnitLimits};
use dps_ctrl::{FramedConfig, FramedControlPlane};
use dps_sim_core::RngStream;

/// Proposes the same cap for every unit.
struct Uniform {
    n: usize,
    budget: f64,
    cap: f64,
}

impl PowerManager for Uniform {
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
    fn assign_caps(&mut self, _measured: &[f64], caps: &mut [f64], _dt: f64) {
        caps.fill(self.cap);
    }
    fn reset(&mut self) {}
}

#[test]
#[ignore = "524,288 units: run in release"]
fn half_million_unit_gather_is_not_truncated_under_jitter() {
    let (nodes, units_per_node) = (262_144, 2);
    let n = nodes * units_per_node;
    let limits = UnitLimits {
        min_cap: 40.0,
        max_cap: 165.0,
    };
    let budget = n as f64 * 110.0;
    let mut config = FramedConfig::default();
    config.link.jitter = 10e-6;
    let mut plane = FramedControlPlane::new(
        nodes,
        units_per_node,
        budget,
        limits,
        110.0,
        config,
        &RngStream::new(5, "large-plane"),
    );
    // 100 W everywhere is a lower for every unit booted at 110 W, so the
    // scatter has no raises to grant.
    let mut manager = Uniform {
        n,
        budget,
        cap: 100.0,
    };
    let mut proposals = vec![0.0; n];
    let ok = plane.run_cycle(0.0, 1.0, &vec![90.0; n], &mut manager, &mut proposals);
    assert!(ok, "believed-cap invariant broke");
    let stats = plane.stats();
    assert_eq!(stats.gather_misses, 0, "gather was cut short: {stats:?}");
    assert_eq!(stats.retries, 0, "a lossless wire needs no retries");
    assert_eq!(plane.telemetry(), vec![90.0; n].as_slice());
    assert!(plane
        .applied_caps()
        .iter()
        .all(|&c| (c - 100.0).abs() < 1e-9));
}
