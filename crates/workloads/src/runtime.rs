//! Workload execution state under per-window power grants.
//!
//! A [`RunningWorkload`] advances its demand program by `rate × dt` work-
//! seconds per control window, where the rate comes from the power actually
//! granted. It records a throughput time per completed run and (optionally)
//! restarts after an idle gap — the testbed keeps a pair of clusters busy by
//! repeating the shorter workload until the longer one finishes (§6.3:
//! "multiple runs are in need to match one run of the Spark workload"; the
//! inter-run gap is why short NPB runs "look like a power phase").

use crate::perf::PerfModel;
use crate::phase::{DemandProgram, PhaseShape};
use dps_sim_core::units::{Seconds, Watts};

/// Execution state of one workload instance.
#[derive(Debug, Clone)]
pub struct RunningWorkload {
    program: DemandProgram,
    perf: PerfModel,
    /// Work position within the current run.
    position: Seconds,
    /// Total wall-clock time elapsed.
    elapsed: Seconds,
    /// Wall-clock time the current run started.
    run_start: Seconds,
    /// Completed-run throughput times.
    completed: Vec<Seconds>,
    /// Whether to restart after completing a run.
    restart: bool,
    /// Idle time between runs (job submission, data staging).
    idle_gap: Seconds,
    /// Remaining idle gap before the next run starts.
    gap_remaining: Seconds,
}

impl RunningWorkload {
    /// Creates a one-shot workload (no restart).
    pub fn once(program: DemandProgram, perf: PerfModel) -> Self {
        Self {
            program,
            perf,
            position: 0.0,
            elapsed: 0.0,
            run_start: 0.0,
            completed: Vec::new(),
            restart: false,
            idle_gap: 0.0,
            gap_remaining: 0.0,
        }
    }

    /// Creates a workload that restarts after each completion, idling
    /// `idle_gap` seconds between runs.
    pub fn repeating(program: DemandProgram, perf: PerfModel, idle_gap: Seconds) -> Self {
        assert!(idle_gap >= 0.0, "idle gap must be non-negative");
        Self {
            idle_gap,
            restart: true,
            ..Self::once(program, perf)
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &DemandProgram {
        &self.program
    }

    /// Instantaneous power demand (0 during inter-run gaps and after a
    /// non-restarting workload finishes).
    pub fn demand(&self) -> Watts {
        self.locate().map_or(0.0, |(shape, f)| shape.demand_at(f))
    }

    /// The phase shape and fraction at the current position (see
    /// [`DemandProgram::locate`]); `None` during inter-run gaps and after a
    /// non-restarting workload finishes.
    pub fn locate(&self) -> Option<(PhaseShape, f64)> {
        if self.gap_remaining > 0.0 || self.is_done() {
            None
        } else {
            self.program.locate(self.position)
        }
    }

    /// Whether a one-shot workload has completed (repeating workloads are
    /// never done).
    pub fn is_done(&self) -> bool {
        !self.restart && !self.completed.is_empty()
    }

    /// Number of completed runs.
    pub fn runs_completed(&self) -> usize {
        self.completed.len()
    }

    /// Throughput times of completed runs.
    pub fn run_durations(&self) -> &[Seconds] {
        &self.completed
    }

    /// Total elapsed wall-clock time.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Fraction of the current run's work completed, `[0, 1]`.
    pub fn progress(&self) -> f64 {
        (self.position / self.program.total_work()).clamp(0.0, 1.0)
    }

    /// Current work position within the run.
    pub fn position(&self) -> Seconds {
        self.position
    }

    /// Whether the workload is between runs (inside the idle gap).
    pub fn in_gap(&self) -> bool {
        self.gap_remaining > 0.0
    }

    /// Swaps in a new program for the *next* run — per-run realisation
    /// variance ("the Spark workloads demonstrate such variable performance
    /// between different runs", §6.1). Only valid at a run boundary.
    ///
    /// # Panics
    /// Panics if called mid-run (work already done on the current program).
    pub fn replace_program(&mut self, program: DemandProgram) {
        assert!(
            self.position == 0.0,
            "programs can only be swapped at a run boundary (position {})",
            self.position
        );
        self.program = program;
    }

    /// Advances one control window of length `dt` with `granted` Watts.
    /// Returns the work-seconds of progress made.
    pub fn advance(&mut self, granted: Watts, dt: Seconds) -> Seconds {
        self.advance_inner(Some(granted), 1.0, dt)
    }

    /// Advances one window at an externally computed progress `rate` (e.g.
    /// the mean of per-socket rates when several sockets execute the job in
    /// lock-step). The rate is held constant across the window.
    pub fn advance_with_rate(&mut self, rate: f64, dt: Seconds) -> Seconds {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&rate), "rate {rate}");
        self.advance_inner(None, rate, dt)
    }

    fn advance_inner(&mut self, granted: Option<Watts>, fixed_rate: f64, dt: Seconds) -> Seconds {
        debug_assert!(dt > 0.0);
        self.elapsed += dt;
        if self.is_done() {
            return 0.0;
        }

        let mut remaining_dt = dt;
        let mut progressed = 0.0;

        // Consume any inter-run gap first.
        if self.gap_remaining > 0.0 {
            let consumed = self.gap_remaining.min(remaining_dt);
            self.gap_remaining -= consumed;
            remaining_dt -= consumed;
            if remaining_dt <= 0.0 {
                return 0.0;
            }
            // Gap just ended: the new run starts now.
            self.run_start = self.elapsed - remaining_dt;
        }

        // Advance work, handling at most a few run completions per window
        // (loop guards against zero-length pathologies).
        for _ in 0..8 {
            if remaining_dt <= 0.0 {
                break;
            }
            let rate = match granted {
                Some(g) => {
                    let demand = self.program.demand_at(self.position);
                    self.perf.rate(demand, g)
                }
                None => fixed_rate.max(1e-6),
            };
            let work_left = self.program.total_work() - self.position;
            let step_work = rate * remaining_dt;

            if step_work < work_left {
                self.position += step_work;
                progressed += step_work;
                remaining_dt = 0.0;
            } else {
                // Run completes within this window at the exact sub-step time.
                let dt_to_finish = work_left / rate;
                progressed += work_left;
                remaining_dt -= dt_to_finish;
                let finish_time = self.elapsed - remaining_dt;
                self.completed.push(finish_time - self.run_start);
                self.position = 0.0;
                if !self.restart {
                    break;
                }
                let gap = self.idle_gap;
                if gap >= remaining_dt {
                    self.gap_remaining = gap - remaining_dt;
                    self.run_start = self.elapsed + self.gap_remaining;
                    remaining_dt = 0.0;
                } else {
                    remaining_dt -= gap;
                    self.run_start = self.elapsed - remaining_dt;
                }
            }
        }
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn flat_program(duration: Seconds, watts: Watts) -> DemandProgram {
        DemandProgram::new(vec![Phase::constant(duration, watts)])
    }

    fn linear_perf() -> PerfModel {
        PerfModel::linear(0.0)
    }

    #[test]
    fn full_power_completes_in_nominal_time() {
        let mut w = RunningWorkload::once(flat_program(100.0, 150.0), linear_perf());
        for _ in 0..100 {
            w.advance(150.0, 1.0);
        }
        assert!(w.is_done());
        assert_eq!(w.runs_completed(), 1);
        assert!((w.run_durations()[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn half_power_doubles_duration() {
        let mut w = RunningWorkload::once(flat_program(100.0, 150.0), linear_perf());
        let mut steps = 0;
        while !w.is_done() && steps < 1000 {
            w.advance(75.0, 1.0);
            steps += 1;
        }
        assert!(w.is_done());
        assert!(
            (w.run_durations()[0] - 200.0).abs() < 1.0,
            "{:?}",
            w.run_durations()
        );
    }

    #[test]
    fn demand_follows_program_position() {
        let program = DemandProgram::new(vec![
            Phase::constant(10.0, 50.0),
            Phase::constant(10.0, 150.0),
        ]);
        let mut w = RunningWorkload::once(program, linear_perf());
        assert_eq!(w.demand(), 50.0);
        for _ in 0..10 {
            w.advance(165.0, 1.0);
        }
        assert_eq!(w.demand(), 150.0);
    }

    #[test]
    fn throttled_demand_trace_stretches() {
        // 10 s high phase at 160 W; at 80 W grant (linear) the phase should
        // persist for ~20 wall-clock seconds.
        let program = DemandProgram::new(vec![
            Phase::constant(10.0, 160.0),
            Phase::constant(10.0, 40.0),
        ]);
        let mut w = RunningWorkload::once(program, linear_perf());
        let mut high_windows = 0;
        for _ in 0..40 {
            if w.demand() > 110.0 {
                high_windows += 1;
                w.advance(80.0, 1.0);
            } else {
                w.advance(165.0, 1.0);
            }
        }
        assert!((19..=21).contains(&high_windows), "{high_windows}");
    }

    #[test]
    fn sub_step_completion_time_exact() {
        // 10.5 work-seconds at full speed with 1 s windows: finishes at 10.5.
        let mut w = RunningWorkload::once(flat_program(10.5, 100.0), linear_perf());
        for _ in 0..11 {
            w.advance(100.0, 1.0);
        }
        assert!(w.is_done());
        assert!((w.run_durations()[0] - 10.5).abs() < 1e-9);
    }

    #[test]
    fn one_shot_demand_zero_after_done() {
        let mut w = RunningWorkload::once(flat_program(2.0, 100.0), linear_perf());
        for _ in 0..5 {
            w.advance(100.0, 1.0);
        }
        assert!(w.is_done());
        assert_eq!(w.demand(), 0.0);
        assert_eq!(w.advance(100.0, 1.0), 0.0);
    }

    #[test]
    fn repeating_restarts_with_gap() {
        let mut w = RunningWorkload::repeating(flat_program(5.0, 100.0), linear_perf(), 3.0);
        // Run 1: 5 s; gap 3 s; run 2: 5 s → two completions by t=13.
        for _ in 0..13 {
            w.advance(100.0, 1.0);
        }
        assert_eq!(w.runs_completed(), 2);
        assert!((w.run_durations()[0] - 5.0).abs() < 1e-9);
        assert!((w.run_durations()[1] - 5.0).abs() < 1e-9);
        assert!(!w.is_done(), "repeating workloads are never done");
    }

    #[test]
    fn demand_zero_during_gap() {
        let mut w = RunningWorkload::repeating(flat_program(2.0, 120.0), linear_perf(), 5.0);
        w.advance(120.0, 1.0);
        w.advance(120.0, 1.0); // run completes exactly at t=2
        w.advance(120.0, 1.0); // inside gap
        assert_eq!(w.demand(), 0.0);
    }

    #[test]
    fn gap_throughput_times_unaffected_by_gap() {
        let mut w = RunningWorkload::repeating(flat_program(4.0, 100.0), linear_perf(), 2.0);
        for _ in 0..30 {
            w.advance(100.0, 1.0);
        }
        for d in w.run_durations() {
            assert!((d - 4.0).abs() < 1e-9, "run duration {d}");
        }
        assert_eq!(w.runs_completed(), 5); // 30 / (4+2)
    }

    #[test]
    fn progress_fraction_monotone() {
        let mut w = RunningWorkload::once(flat_program(10.0, 100.0), linear_perf());
        let mut prev = 0.0;
        for _ in 0..9 {
            w.advance(50.0, 1.0);
            assert!(w.progress() >= prev);
            prev = w.progress();
        }
        assert!(prev < 1.0);
    }

    #[test]
    fn advance_with_rate_matches_advance_for_equivalent_rate() {
        let program = flat_program(20.0, 100.0);
        let mut a = RunningWorkload::once(program.clone(), linear_perf());
        let mut b = RunningWorkload::once(program, linear_perf());
        // Linear perf, constant demand 100, grant 50 → rate 0.5 throughout.
        for _ in 0..50 {
            a.advance(50.0, 1.0);
            b.advance_with_rate(0.5, 1.0);
        }
        assert_eq!(a.runs_completed(), b.runs_completed());
        assert!((a.run_durations()[0] - b.run_durations()[0]).abs() < 1e-9);
    }

    #[test]
    fn position_accessor_tracks_progress() {
        let mut w = RunningWorkload::once(flat_program(10.0, 100.0), linear_perf());
        assert_eq!(w.position(), 0.0);
        w.advance_with_rate(1.0, 3.0);
        assert!((w.position() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn replace_program_at_boundary_changes_next_run() {
        let mut w = RunningWorkload::repeating(flat_program(5.0, 100.0), linear_perf(), 3.0);
        for _ in 0..6 {
            w.advance(100.0, 1.0); // run 1 done at t=5, now in gap
        }
        assert!(w.in_gap());
        w.replace_program(flat_program(8.0, 120.0));
        for _ in 0..20 {
            w.advance(165.0, 1.0);
        }
        assert!(w.runs_completed() >= 2);
        assert!((w.run_durations()[0] - 5.0).abs() < 1e-9);
        assert!(
            (w.run_durations()[1] - 8.0).abs() < 1e-9,
            "{:?}",
            w.run_durations()
        );
    }

    #[test]
    #[should_panic(expected = "run boundary")]
    fn replace_program_mid_run_panics() {
        let mut w = RunningWorkload::once(flat_program(10.0, 100.0), linear_perf());
        w.advance(100.0, 1.0);
        w.replace_program(flat_program(5.0, 50.0));
    }

    #[test]
    fn concave_model_slows_less_than_linear() {
        let program = flat_program(100.0, 160.0);
        let mut lin = RunningWorkload::once(program.clone(), PerfModel::linear(15.0));
        let mut con = RunningWorkload::once(program, PerfModel::paper_default());
        let mut lin_t = 0;
        let mut con_t = 0;
        for t in 1..10_000 {
            if !lin.is_done() {
                lin.advance(110.0, 1.0);
                lin_t = t;
            }
            if !con.is_done() {
                con.advance(110.0, 1.0);
                con_t = t;
            }
            if lin.is_done() && con.is_done() {
                break;
            }
        }
        assert!(con_t < lin_t, "concave {con_t} vs linear {lin_t}");
    }
}
