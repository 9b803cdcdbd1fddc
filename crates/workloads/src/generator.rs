//! Synthesis of demand programs matching the published workload statistics.
//!
//! Each workload family gets a distinct phase structure reproducing the
//! paper's observations (§3.1, Fig. 2):
//!
//! * **LDA** — long phases (the 0–125 s plateau of Fig. 2a), *fast* rises
//!   (20→160 W in ~3 s) and *slow* decays (160→70 W over ~20 s).
//! * **Bayes** — medium phases of varying length (13–25 s) with *diverse
//!   peaks* (some phases reach 165 W, others only ~110 W) and diverse slopes.
//! * **LR / Linear** — many phases shorter than 10 s: high-frequency power
//!   changes that stateless managers chase and lose (§6.1).
//! * **Kmeans / RF** — long iterative phases (SLURM penalises these most,
//!   §6.2).
//! * **GMM** — the only high-power Spark workload: mostly >110 W with brief
//!   dips.
//! * **Low-power micros** — tens of Watts with one brief spike.
//! * **NPB** — sustained 150–162 W for the entire run (>99 % above 110 W).
//!
//! After the structure is generated, [`calibrate`] rescales total work so
//! that the simulated duration under a constant 110 W cap matches the
//! published Table 2/4 duration. Because the power→progress rate depends
//! only on demand (which work-scaling preserves), the calibrated program
//! hits the published duration exactly under that reference cap.

use crate::catalog::{PowerClass, Suite, WorkloadSpec};
use crate::perf::PerfModel;
use crate::phase::{DemandProgram, Phase};
use dps_sim_core::rng::RngStream;
use dps_sim_core::units::{Seconds, Watts};

/// Sampling resolution for numeric integration of capped durations.
const CALIBRATION_STEP: Seconds = 0.25;

/// Phase-structure parameters for one workload family.
#[derive(Debug, Clone, Copy)]
struct FamilyParams {
    /// High-phase demand range (W).
    high: (Watts, Watts),
    /// Low-phase demand range (W).
    low: (Watts, Watts),
    /// High-phase duration range (s).
    high_dur: (Seconds, Seconds),
    /// Rise-ramp duration range (s).
    rise: (Seconds, Seconds),
    /// Fall-ramp duration range (s).
    fall: (Seconds, Seconds),
}

impl FamilyParams {
    fn mid(range: (f64, f64)) -> f64 {
        (range.0 + range.1) / 2.0
    }
}

fn params_for(spec: &WorkloadSpec) -> FamilyParams {
    match spec.name {
        // Long phases; fast rises, slow falls (Fig. 2a).
        "LDA" => FamilyParams {
            high: (150.0, 165.0),
            low: (40.0, 75.0),
            high_dur: (60.0, 125.0),
            rise: (2.0, 4.0),
            fall: (15.0, 25.0),
        },
        // Long iterative phases.
        "Kmeans" => FamilyParams {
            high: (145.0, 162.0),
            low: (55.0, 85.0),
            high_dur: (30.0, 70.0),
            rise: (3.0, 6.0),
            fall: (5.0, 12.0),
        },
        "RF" => FamilyParams {
            high: (140.0, 160.0),
            low: (50.0, 80.0),
            high_dur: (25.0, 50.0),
            rise: (2.0, 5.0),
            fall: (4.0, 10.0),
        },
        // Medium, diverse phases (Fig. 2b): peaks alternate 165 / 110-ish.
        "Bayes" => FamilyParams {
            high: (115.0, 165.0),
            low: (45.0, 80.0),
            high_dur: (10.0, 25.0),
            rise: (2.0, 8.0),
            fall: (2.0, 8.0),
        },
        // High-frequency, short phases (Fig. 2c): everything under 10 s.
        "LR" => FamilyParams {
            high: (135.0, 160.0),
            low: (50.0, 80.0),
            high_dur: (3.0, 8.0),
            rise: (1.0, 2.0),
            fall: (1.0, 2.0),
        },
        "Linear" => FamilyParams {
            high: (130.0, 155.0),
            low: (55.0, 85.0),
            high_dur: (3.0, 9.0),
            rise: (1.0, 2.0),
            fall: (1.0, 2.0),
        },
        // Mostly high with *shallow* dips: GMM is the one high-power Spark
        // workload — even its quiet phases stay near 100 W, which is why a
        // stateless manager lets it hold its caps against a paired
        // workload whose dips run much deeper (§6.2).
        "GMM" => FamilyParams {
            high: (148.0, 165.0),
            low: (88.0, 106.0),
            high_dur: (40.0, 90.0),
            rise: (2.0, 5.0),
            fall: (3.0, 8.0),
        },
        // Anything else Spark-mid defaults to Bayes-like structure.
        _ => FamilyParams {
            high: (130.0, 160.0),
            low: (50.0, 85.0),
            high_dur: (15.0, 35.0),
            rise: (2.0, 6.0),
            fall: (2.0, 6.0),
        },
    }
}

/// Builds the *uncalibrated* phase structure for a spec.
fn build_structure(spec: &WorkloadSpec, rng: &mut RngStream) -> DemandProgram {
    match (spec.suite, spec.class) {
        (Suite::Npb, _) => build_npb(spec, rng),
        (Suite::Spark, PowerClass::Low) => build_low_power(spec, rng),
        (Suite::Spark, _) if matches!(spec.name, "LR" | "Linear") => build_bursty_spark(spec, rng),
        (Suite::Spark, _) => build_phased_spark(spec, rng),
    }
}

/// LR/Linear: *bursts* of rapid cycling (every phase shorter than 10 s,
/// Fig. 2c) separated by long quiet stretches that bring the overall
/// above-110 fraction down to the published value. Within a burst the
/// power flips fast enough that a 20-sample history window holds several
/// prominent peaks — the signature DPS's frequency gate keys on.
fn build_bursty_spark(spec: &WorkloadSpec, rng: &mut RngStream) -> DemandProgram {
    let p = params_for(spec);
    let target_frac = spec.frac_above_110.clamp(0.02, 0.95);
    let total = spec.duration_110w.max(60.0);

    let mut phases = Vec::new();
    let mut elapsed = 0.0;
    let mut low_level = rng.range(p.low.0..p.low.1);
    while elapsed < total {
        // One burst: 3-6 rapid cycles.
        let cycles = rng.range(3..=6usize);
        let mut above = 0.0;
        let mut burst_len = 0.0;
        for _ in 0..cycles {
            let high_level = rng.range(p.high.0..p.high.1);
            let rise = rng.range(p.rise.0..p.rise.1);
            let high_dur = rng.range(p.high_dur.0..p.high_dur.1);
            let fall = rng.range(p.fall.0..p.fall.1);
            let next_low = rng.range(p.low.0..p.low.1);
            let low_dur = rng.range(2.0..5.0);
            phases.push(Phase::ramp(rise, low_level, high_level));
            phases.push(Phase::constant(high_dur, high_level));
            phases.push(Phase::ramp(fall, high_level, next_low));
            phases.push(Phase::constant(low_dur, next_low));
            low_level = next_low;
            above += high_dur + 0.5 * (rise + fall);
            burst_len += rise + high_dur + fall + low_dur;
        }
        // Quiet stretch sized so the burst's above-110 time dilutes to the
        // target fraction over the whole burst+quiet cycle.
        let quiet = ((above / target_frac - burst_len) * rng.jitter(0.2)).max(5.0);
        phases.push(Phase::constant(quiet, low_level * rng.range(0.8..1.1)));
        elapsed += burst_len + quiet;
    }
    DemandProgram::new(phases)
}

/// NPB: a short startup ramp, then sustained high power with small
/// wobble, then a short teardown. >99 % of time above 110 W.
fn build_npb(spec: &WorkloadSpec, rng: &mut RngStream) -> DemandProgram {
    let level = rng.range(150.0..162.0);
    let total = spec.duration_110w.max(20.0);
    let startup = (total * 0.003).clamp(0.3, 3.0);
    let teardown = startup;
    let mut phases = vec![Phase::ramp(startup, 25.0, level)];
    // Body: segments of slightly wobbling sustained power.
    let mut remaining = total - startup - teardown;
    let mut current = level;
    while remaining > 0.0 {
        let seg = rng.range(20.0..60.0_f64).min(remaining);
        let next = (level + rng.normal(0.0, 2.5)).clamp(140.0, 165.0);
        phases.push(Phase::ramp(seg.max(1.0), current, next));
        current = next;
        remaining -= seg;
    }
    phases.push(Phase::ramp(teardown, current, 25.0));
    DemandProgram::new(phases)
}

/// Low-power micros: tens of Watts with a single brief spike above 110 W
/// sized to the published (sub-percent) fraction.
fn build_low_power(spec: &WorkloadSpec, rng: &mut RngStream) -> DemandProgram {
    let total = spec.duration_110w.max(10.0);
    let spike = (spec.frac_above_110 * total).clamp(0.05, 1.0);
    let base = rng.range(25.0..45.0);
    let pre = total * rng.range(0.3..0.6);
    let post = (total - pre - spike).max(1.0);
    DemandProgram::new(vec![
        Phase::constant(pre, base),
        Phase::ramp(0.5, base, 60.0),
        Phase::constant(spike, 118.0),
        Phase::ramp(0.5, 60.0, base * 1.1),
        Phase::constant(post, base * rng.range(0.9..1.2)),
    ])
}

/// Phase-rich Spark: cycles of (rise, high, fall, low) with family-specific
/// durations and levels. The low-phase duration is solved so the above-110
/// fraction matches the catalog.
fn build_phased_spark(spec: &WorkloadSpec, rng: &mut RngStream) -> DemandProgram {
    let p = params_for(spec);
    let target_frac = spec.frac_above_110.clamp(0.02, 0.95);

    // Expected above-110 seconds per cycle: the high phase plus roughly the
    // above-110 halves of the ramps (levels straddle 110 in all families).
    let mean_high = FamilyParams::mid(p.high_dur);
    let mean_rise = FamilyParams::mid(p.rise);
    let mean_fall = FamilyParams::mid(p.fall);
    let above_per_cycle = mean_high + 0.5 * (mean_rise + mean_fall);
    // Solve mean low duration so above/(above+below) = target fraction.
    let cycle_total = above_per_cycle / target_frac;
    let mean_low = (cycle_total - above_per_cycle - 0.5 * (mean_rise + mean_fall)).max(1.0);

    let total = spec.duration_110w.max(60.0);
    let mut phases = Vec::new();
    let mut elapsed = 0.0;
    // Start in a low phase (applications begin with setup/IO).
    let mut low_level = rng.range(p.low.0..p.low.1);
    let first_low = (mean_low * rng.range(0.3..0.8)).max(1.0);
    phases.push(Phase::constant(first_low, low_level));
    elapsed += first_low;

    while elapsed < total {
        let high_level = rng.range(p.high.0..p.high.1);
        let rise = rng.range(p.rise.0..p.rise.1);
        let high_dur = (rng.range(p.high_dur.0..p.high_dur.1) * rng.jitter(0.15)).max(1.0);
        let fall = rng.range(p.fall.0..p.fall.1);
        let next_low_level = rng.range(p.low.0..p.low.1);
        let low_dur = (mean_low * rng.jitter(0.35) * rng.range(0.6..1.4)).max(1.0);

        phases.push(Phase::ramp(rise, low_level, high_level));
        phases.push(Phase::constant(high_dur, high_level));
        phases.push(Phase::ramp(fall, high_level, next_low_level));
        phases.push(Phase::constant(low_dur, next_low_level));
        low_level = next_low_level;
        elapsed += rise + high_dur + fall + low_dur;
    }
    DemandProgram::new(phases)
}

/// Simulated duration of a program executed alone under a constant cap.
///
/// Numerically integrates `dt = dpos / rate(demand(pos), min(demand, cap))`
/// at `CALIBRATION_STEP` resolution.
pub fn capped_duration(program: &DemandProgram, perf: &PerfModel, cap: Watts) -> Seconds {
    let total = program.total_work();
    let mut duration = 0.0;
    let mut pos = 0.0;
    while pos < total {
        let step = CALIBRATION_STEP.min(total - pos);
        let demand = program.demand_at(pos + step / 2.0);
        let granted = demand.min(cap);
        duration += step / perf.rate(demand, granted);
        pos += step;
    }
    duration
}

/// Rescales a program's work so its duration under `reference_cap` matches
/// `target_duration`.
pub fn calibrate(
    program: DemandProgram,
    perf: &PerfModel,
    reference_cap: Watts,
    target_duration: Seconds,
) -> DemandProgram {
    let current = capped_duration(&program, perf, reference_cap);
    program.scale_work(target_duration / current)
}

/// Builds the calibrated demand program for a catalog entry.
///
/// `seed` controls run-to-run variation ("the Spark workloads demonstrate
/// such variable performance between different runs", §6.1): different seeds
/// give different phase realisations of the same family, all calibrated to
/// the same 110 W-capped duration.
pub fn build_program(spec: &WorkloadSpec, perf: &PerfModel, seed: u64) -> DemandProgram {
    let mut rng = RngStream::new(seed, &format!("workload/{}", spec.name));
    let structure = build_structure(spec, &mut rng);
    calibrate(structure, perf, 110.0, spec.duration_110w)
}

/// Demand factor of socket `socket_index`: sockets of the same cluster run
/// the same program with a few percent of demand variation (stragglers,
/// NUMA imbalance), `1 + N(0, 0.03)` clamped to `[0.92, 1.08]` and drawn
/// from `rng`'s `socket-variant/{socket_index}` child.
pub fn socket_factor(socket_index: usize, rng: &RngStream) -> f64 {
    let mut socket_rng = rng.child(&format!("socket-variant/{socket_index}"));
    (1.0 + socket_rng.normal(0.0, 0.03)).clamp(0.92, 1.08)
}

/// Per-socket demand variant: the base program scaled by the socket's
/// [`socket_factor`] and clamped at the TDP ceiling.
pub fn socket_variant(
    base: &DemandProgram,
    tdp: Watts,
    socket_index: usize,
    rng: &RngStream,
) -> DemandProgram {
    base.scale_demand(socket_factor(socket_index, rng), tdp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn perf() -> PerfModel {
        PerfModel::paper_default()
    }

    #[test]
    fn calibrated_duration_matches_table() {
        for spec in catalog::SPARK_WORKLOADS
            .iter()
            .chain(catalog::NPB_WORKLOADS)
        {
            let program = build_program(spec, &perf(), 1);
            let d = capped_duration(&program, &perf(), 110.0);
            let rel = (d - spec.duration_110w).abs() / spec.duration_110w;
            assert!(
                rel < 0.01,
                "{}: capped duration {d} vs table {}",
                spec.name,
                spec.duration_110w
            );
        }
    }

    #[test]
    fn fraction_above_110_matches_table() {
        for spec in catalog::SPARK_WORKLOADS
            .iter()
            .chain(catalog::NPB_WORKLOADS)
        {
            let program = build_program(spec, &perf(), 2);
            let f = program.fraction_above(110.0);
            let err = (f - spec.frac_above_110).abs();
            assert!(
                err < 0.08,
                "{}: fraction above 110 = {f:.3}, table {:.3}",
                spec.name,
                spec.frac_above_110
            );
        }
    }

    #[test]
    fn npb_sustained_high() {
        let spec = catalog::find("EP").unwrap();
        let program = build_program(spec, &perf(), 3);
        assert!(program.fraction_above(110.0) > 0.98);
        assert!(program.peak_demand() <= 165.0);
    }

    #[test]
    fn low_power_rarely_above_110() {
        for name in ["Wordcount", "Sort", "Terasort", "Repartition"] {
            let spec = catalog::find(name).unwrap();
            let program = build_program(spec, &perf(), 4);
            assert!(
                program.fraction_above(110.0) < 0.05,
                "{name}: {}",
                program.fraction_above(110.0)
            );
        }
    }

    #[test]
    fn lr_phases_are_short() {
        let spec = catalog::find("LR").unwrap();
        let program = build_program(spec, &perf(), 5);
        // Count phase durations of high-power segments; most are < 10 s.
        let short_high = program
            .phases()
            .iter()
            .filter(|p| p.shape.peak() > 110.0)
            .filter(|p| p.duration < 10.0)
            .count();
        let all_high = program
            .phases()
            .iter()
            .filter(|p| p.shape.peak() > 110.0)
            .count();
        assert!(all_high > 10, "LR should have many high phases");
        assert!(
            short_high as f64 / all_high as f64 > 0.8,
            "most LR high phases should be short: {short_high}/{all_high}"
        );
    }

    #[test]
    fn lda_has_long_phases() {
        let spec = catalog::find("LDA").unwrap();
        let program = build_program(spec, &perf(), 6);
        let longest = program
            .phases()
            .iter()
            .filter(|p| p.shape.peak() > 110.0)
            .map(|p| p.duration)
            .fold(0.0, f64::max);
        assert!(longest > 40.0, "LDA longest high phase {longest}");
    }

    #[test]
    fn seeds_change_realisation_not_calibration() {
        let spec = catalog::find("Bayes").unwrap();
        let a = build_program(spec, &perf(), 10);
        let b = build_program(spec, &perf(), 11);
        assert_ne!(a, b, "different seeds must differ");
        let da = capped_duration(&a, &perf(), 110.0);
        let db = capped_duration(&b, &perf(), 110.0);
        assert!((da - db).abs() / da < 0.01, "both calibrated: {da} vs {db}");
    }

    #[test]
    fn same_seed_reproducible() {
        let spec = catalog::find("Kmeans").unwrap();
        assert_eq!(
            build_program(spec, &perf(), 42),
            build_program(spec, &perf(), 42)
        );
    }

    #[test]
    fn uncapped_faster_than_capped() {
        let spec = catalog::find("GMM").unwrap();
        let program = build_program(spec, &perf(), 7);
        let uncapped = capped_duration(&program, &perf(), 165.0);
        let capped = capped_duration(&program, &perf(), 110.0);
        assert!(
            uncapped < capped * 0.95,
            "GMM should speed up uncapped: {uncapped} vs {capped}"
        );
    }

    #[test]
    fn harsher_cap_slower() {
        let spec = catalog::find("Kmeans").unwrap();
        let program = build_program(spec, &perf(), 8);
        let d80 = capped_duration(&program, &perf(), 80.0);
        let d110 = capped_duration(&program, &perf(), 110.0);
        let d140 = capped_duration(&program, &perf(), 140.0);
        assert!(d80 > d110 && d110 > d140);
    }

    #[test]
    fn socket_variant_bounded() {
        let spec = catalog::find("LDA").unwrap();
        let base = build_program(spec, &perf(), 9);
        let rng = RngStream::new(1, "variant-test");
        for s in 0..10 {
            let v = socket_variant(&base, 165.0, s, &rng);
            assert!(v.peak_demand() <= 165.0);
            assert_eq!(v.phases().len(), base.phases().len());
            // Total work is demand-scaling invariant.
            assert!((v.total_work() - base.total_work()).abs() < 1e-9);
        }
    }

    #[test]
    fn socket_variants_deterministic() {
        let spec = catalog::find("LR").unwrap();
        let base = build_program(spec, &perf(), 3);
        let rng = RngStream::new(5, "variant-test");
        assert_eq!(
            socket_variant(&base, 165.0, 2, &rng),
            socket_variant(&base, 165.0, 2, &rng)
        );
    }
}
