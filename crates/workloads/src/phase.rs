//! Phase-structured power-demand programs.
//!
//! A program maps *work position* (seconds of execution at full speed) to
//! instantaneous power demand. Position, not wall time, is the domain:
//! when a power cap slows the application down, the same demand trace plays
//! out stretched in wall-clock time — matching how a real capped application
//! behaves and how the paper defines power demand (§3.1).

use dps_sim_core::units::{Seconds, Watts};
use serde::{Deserialize, Serialize};

/// The shape of demand within one phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PhaseShape {
    /// Constant demand for the whole phase.
    Constant(Watts),
    /// Linear ramp from `from` to `to` across the phase — produces the
    /// diverse first derivatives of Fig. 2 (fast 20→160 W rises, slow
    /// 160→70 W decays).
    Ramp {
        /// Demand at the start of the phase.
        from: Watts,
        /// Demand at the end of the phase.
        to: Watts,
    },
}

impl PhaseShape {
    /// Demand at fraction `f ∈ [0, 1]` through the phase.
    #[inline]
    pub fn demand_at(&self, f: f64) -> Watts {
        let f = f.clamp(0.0, 1.0);
        match *self {
            PhaseShape::Constant(w) => w,
            PhaseShape::Ramp { from, to } => from + (to - from) * f,
        }
    }

    /// Peak demand over the phase.
    pub fn peak(&self) -> Watts {
        match *self {
            PhaseShape::Constant(w) => w,
            PhaseShape::Ramp { from, to } => from.max(to),
        }
    }

    /// The shape with every demand value multiplied by `factor` and
    /// clamped to `[0, ceiling]`: one socket's variant of a shared phase
    /// (see [`DemandProgram::scale_demand`]).
    #[inline]
    pub fn scaled(&self, factor: f64, ceiling: Watts) -> PhaseShape {
        let clamp = |w: Watts| (w * factor).clamp(0.0, ceiling);
        match *self {
            PhaseShape::Constant(w) => PhaseShape::Constant(clamp(w)),
            PhaseShape::Ramp { from, to } => PhaseShape::Ramp {
                from: clamp(from),
                to: clamp(to),
            },
        }
    }
}

/// One phase: a shape held for `duration` seconds of work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Work-seconds the phase lasts when never throttled.
    pub duration: Seconds,
    /// Demand shape across the phase.
    pub shape: PhaseShape,
}

impl Phase {
    /// Constant-demand phase.
    pub fn constant(duration: Seconds, watts: Watts) -> Self {
        Self {
            duration,
            shape: PhaseShape::Constant(watts),
        }
    }

    /// Ramp phase.
    pub fn ramp(duration: Seconds, from: Watts, to: Watts) -> Self {
        Self {
            duration,
            shape: PhaseShape::Ramp { from, to },
        }
    }
}

/// A complete demand program: an ordered list of phases.
///
/// ```
/// use dps_workloads::{DemandProgram, Phase};
/// let p = DemandProgram::new(vec![
///     Phase::constant(10.0, 40.0),
///     Phase::ramp(5.0, 40.0, 160.0),
///     Phase::constant(20.0, 160.0),
/// ]);
/// assert_eq!(p.total_work(), 35.0);
/// assert_eq!(p.demand_at(0.0), 40.0);
/// assert_eq!(p.demand_at(12.5), 100.0); // halfway up the ramp
/// assert_eq!(p.demand_at(999.0), 0.0);  // past the end
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandProgram {
    phases: Vec<Phase>,
    /// Cumulative end positions, same length as `phases`, for O(log n) lookup.
    cumulative: Vec<Seconds>,
}

impl DemandProgram {
    /// Builds a program from phases.
    ///
    /// # Panics
    /// Panics if there are no phases or any phase has non-positive duration.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a program needs at least one phase");
        let mut cumulative = Vec::with_capacity(phases.len());
        let mut acc = 0.0;
        for (i, p) in phases.iter().enumerate() {
            assert!(
                p.duration.is_finite() && p.duration > 0.0,
                "phase {i} must have positive duration, got {}",
                p.duration
            );
            acc += p.duration;
            cumulative.push(acc);
        }
        Self { phases, cumulative }
    }

    /// The phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total work in seconds (uncapped duration).
    pub fn total_work(&self) -> Seconds {
        *self.cumulative.last().expect("non-empty")
    }

    /// Demand at work position `pos`; 0 outside `[0, total_work)`.
    pub fn demand_at(&self, pos: Seconds) -> Watts {
        self.locate(pos)
            .map_or(0.0, |(shape, f)| shape.demand_at(f))
    }

    /// The phase shape in force at work position `pos` and the fraction
    /// through that phase, so that `demand_at(pos)` is
    /// `shape.demand_at(f)`; `None` outside `[0, total_work)`.
    ///
    /// The lookup reads only phase durations, which
    /// [`DemandProgram::scale_demand`] keeps: a scaled copy locates the same
    /// phase and fraction, and its shape there is `shape.scaled(factor,
    /// ceiling)`. Sockets that share a program therefore need one lookup
    /// between them, not one each.
    pub fn locate(&self, pos: Seconds) -> Option<(PhaseShape, f64)> {
        if pos < 0.0 || pos >= self.total_work() {
            return None;
        }
        // Binary search over cumulative end positions: first phase whose end
        // exceeds pos.
        let idx = self.cumulative.partition_point(|&end| end <= pos);
        let phase = &self.phases[idx];
        let start = if idx == 0 {
            0.0
        } else {
            self.cumulative[idx - 1]
        };
        Some((phase.shape, (pos - start) / phase.duration))
    }

    /// Peak demand across the whole program.
    pub fn peak_demand(&self) -> Watts {
        self.phases
            .iter()
            .map(|p| p.shape.peak())
            .fold(0.0, f64::max)
    }

    /// Samples the uncapped demand trace at `period`-second spacing.
    pub fn sample(&self, period: Seconds) -> dps_sim_core::TimeSeries {
        assert!(period > 0.0);
        let mut ts = dps_sim_core::TimeSeries::new(period);
        let n = (self.total_work() / period).ceil() as usize;
        for i in 0..n {
            ts.push(self.demand_at(i as f64 * period));
        }
        ts
    }

    /// Fraction of (uncapped) time the demand exceeds `threshold` — the
    /// paper's workload-classification statistic ("Above 110 W", Table 2).
    pub fn fraction_above(&self, threshold: Watts) -> f64 {
        // Sample at fine granularity; ramps make closed-form fiddly.
        self.sample(0.25).fraction_above(threshold)
    }

    /// Returns a copy with every phase duration multiplied by `factor`
    /// (used by calibration to hit published durations).
    pub fn scale_work(&self, factor: f64) -> DemandProgram {
        assert!(factor.is_finite() && factor > 0.0, "scale must be positive");
        DemandProgram::new(
            self.phases
                .iter()
                .map(|p| Phase {
                    duration: p.duration * factor,
                    shape: p.shape,
                })
                .collect(),
        )
    }

    /// Concatenates programs into one, separated by idle gaps of
    /// `gap_duration` seconds at `gap_power` Watts — a job *queue* flattened
    /// into a single demand trace (submission gaps between jobs look like
    /// low-power phases to the managers, exactly as on a real cluster).
    ///
    /// # Panics
    /// Panics if `programs` is empty or the gap duration is negative.
    pub fn concat(programs: &[DemandProgram], gap_duration: Seconds, gap_power: Watts) -> Self {
        assert!(!programs.is_empty(), "need at least one program");
        assert!(gap_duration >= 0.0, "gap must be non-negative");
        let mut phases = Vec::new();
        for (i, p) in programs.iter().enumerate() {
            if i > 0 && gap_duration > 0.0 {
                phases.push(Phase::constant(gap_duration, gap_power.max(0.0)));
            }
            phases.extend_from_slice(p.phases());
        }
        DemandProgram::new(phases)
    }

    /// Returns a copy with every demand value multiplied by `factor`,
    /// clamped to `[0, ceiling]` (per-socket variation): each phase keeps
    /// its duration and takes [`PhaseShape::scaled`].
    pub fn scale_demand(&self, factor: f64, ceiling: Watts) -> DemandProgram {
        assert!(factor.is_finite() && factor > 0.0);
        DemandProgram::new(
            self.phases
                .iter()
                .map(|p| Phase {
                    duration: p.duration,
                    shape: p.shape.scaled(factor, ceiling),
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_phase() -> DemandProgram {
        DemandProgram::new(vec![
            Phase::constant(10.0, 40.0),
            Phase::ramp(5.0, 40.0, 160.0),
            Phase::constant(20.0, 160.0),
        ])
    }

    #[test]
    fn total_work_sums_phases() {
        assert_eq!(three_phase().total_work(), 35.0);
    }

    #[test]
    fn demand_lookup_inside_phases() {
        let p = three_phase();
        assert_eq!(p.demand_at(0.0), 40.0);
        assert_eq!(p.demand_at(9.99), 40.0);
        assert_eq!(p.demand_at(10.0), 40.0); // ramp start
        assert!((p.demand_at(15.0 - 1e-9) - 160.0).abs() < 1e-3); // ramp end
        assert_eq!(p.demand_at(20.0), 160.0);
    }

    #[test]
    fn demand_outside_is_zero() {
        let p = three_phase();
        assert_eq!(p.demand_at(-1.0), 0.0);
        assert_eq!(p.demand_at(35.0), 0.0);
        assert_eq!(p.demand_at(100.0), 0.0);
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let shape = PhaseShape::Ramp {
            from: 20.0,
            to: 160.0,
        };
        assert_eq!(shape.demand_at(0.0), 20.0);
        assert_eq!(shape.demand_at(0.5), 90.0);
        assert_eq!(shape.demand_at(1.0), 160.0);
        assert_eq!(shape.demand_at(2.0), 160.0); // clamped
        assert_eq!(shape.peak(), 160.0);
    }

    #[test]
    fn falling_ramp_peak_is_start() {
        let shape = PhaseShape::Ramp {
            from: 160.0,
            to: 70.0,
        };
        assert_eq!(shape.peak(), 160.0);
        assert_eq!(shape.demand_at(0.5), 115.0);
    }

    #[test]
    fn peak_demand_across_program() {
        assert_eq!(three_phase().peak_demand(), 160.0);
    }

    #[test]
    fn fraction_above_matches_structure() {
        // 10s at 40, 5s ramping 40→160 (above 110 for the last ~2.08s),
        // 20s at 160 → roughly (2.08+20)/35 ≈ 0.63.
        let f = three_phase().fraction_above(110.0);
        assert!((f - 0.63).abs() < 0.03, "fraction {f}");
    }

    #[test]
    fn sample_covers_duration() {
        let ts = three_phase().sample(1.0);
        assert_eq!(ts.len(), 35);
        assert_eq!(ts.values()[0], 40.0);
        assert_eq!(*ts.values().last().unwrap(), 160.0);
    }

    #[test]
    fn scale_work_preserves_shape() {
        let p = three_phase().scale_work(2.0);
        assert_eq!(p.total_work(), 70.0);
        assert_eq!(p.demand_at(20.0), 40.0); // first phase now 20 s
        assert_eq!(p.peak_demand(), 160.0);
    }

    #[test]
    fn scale_demand_clamps_to_ceiling() {
        let p = three_phase().scale_demand(1.5, 165.0);
        assert_eq!(p.demand_at(0.0), 60.0);
        assert_eq!(p.peak_demand(), 165.0); // 240 clamped
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_program_rejected() {
        DemandProgram::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_phase_rejected() {
        DemandProgram::new(vec![Phase::constant(0.0, 50.0)]);
    }

    #[test]
    fn concat_joins_with_gaps() {
        let a = DemandProgram::new(vec![Phase::constant(10.0, 100.0)]);
        let b = DemandProgram::new(vec![Phase::constant(5.0, 150.0)]);
        let joined = DemandProgram::concat(&[a, b], 3.0, 20.0);
        assert_eq!(joined.total_work(), 18.0);
        assert_eq!(joined.demand_at(5.0), 100.0);
        assert_eq!(joined.demand_at(11.0), 20.0); // in the gap
        assert_eq!(joined.demand_at(14.0), 150.0);
    }

    #[test]
    fn concat_zero_gap_back_to_back() {
        let a = DemandProgram::new(vec![Phase::constant(4.0, 60.0)]);
        let joined = DemandProgram::concat(&[a.clone(), a], 0.0, 0.0);
        assert_eq!(joined.total_work(), 8.0);
        assert_eq!(joined.phases().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn concat_empty_rejected() {
        DemandProgram::concat(&[], 1.0, 0.0);
    }

    #[test]
    fn many_phases_lookup_consistent() {
        // Cross-check binary search against linear scan.
        let phases: Vec<Phase> = (0..100)
            .map(|i| Phase::constant(1.0 + (i % 7) as f64, (i % 150) as f64))
            .collect();
        let p = DemandProgram::new(phases.clone());
        let mut pos = 0.0;
        for phase in &phases {
            let mid = pos + phase.duration / 2.0;
            assert_eq!(p.demand_at(mid), phase.shape.demand_at(0.5));
            pos += phase.duration;
        }
    }
}
