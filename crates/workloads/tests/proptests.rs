//! Sockets that share a program: one phase lookup plus a per-socket
//! factor gives, bit for bit, what a private scaled copy of the program
//! gives.

use dps_sim_core::RngStream;
use dps_workloads::generator::{socket_factor, socket_variant};
use dps_workloads::{DemandProgram, Phase, PhaseShape};
use proptest::prelude::*;

/// Programs of constant and ramp phases whose levels reach past the
/// ceilings below, so factors above 1 push some of them into the clamp.
fn program_strategy() -> impl Strategy<Value = DemandProgram> {
    prop::collection::vec(
        (0.05f64..40.0, 0.0f64..190.0, 0.0f64..190.0, any::<bool>()),
        1..16,
    )
    .prop_map(|phases| {
        DemandProgram::new(
            phases
                .into_iter()
                .map(|(dur, a, b, ramp)| {
                    if ramp {
                        Phase::ramp(dur, a, b)
                    } else {
                        Phase::constant(dur, a)
                    }
                })
                .collect(),
        )
    })
}

/// Every position where a lookup can go wrong: before the start, the
/// start, each exact phase end and the float just below it, the end of the
/// program, and past it.
fn edge_positions(program: &DemandProgram) -> Vec<f64> {
    let mut positions = vec![-1.0, -f64::MIN_POSITIVE, 0.0, program.total_work() + 1.0];
    let mut end = 0.0;
    for phase in program.phases() {
        end += phase.duration;
        positions.push(end);
        positions.push(f64::from_bits(end.to_bits() - 1));
    }
    positions.push(program.total_work());
    positions
}

/// Every number a program holds, as bits.
fn program_bits(program: &DemandProgram) -> Vec<u64> {
    let mut bits = Vec::new();
    for phase in program.phases() {
        bits.push(phase.duration.to_bits());
        match phase.shape {
            PhaseShape::Constant(w) => bits.push(w.to_bits()),
            PhaseShape::Ramp { from, to } => bits.extend([from.to_bits(), to.to_bits()]),
        }
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shared_lookup_matches_a_scaled_copy_bit_for_bit(
        program in program_strategy(),
        factor in 0.92f64..1.08,
        ceiling in 100.0f64..200.0,
        inside in prop::collection::vec(0.0f64..1.0, 8),
    ) {
        let copy = program.scale_demand(factor, ceiling);
        let mut positions = edge_positions(&program);
        positions.extend(inside.iter().map(|x| x * program.total_work()));
        for pos in positions {
            let shared = program
                .locate(pos)
                .map_or(0.0, |(shape, f)| shape.scaled(factor, ceiling).demand_at(f));
            let own = copy.demand_at(pos);
            prop_assert_eq!(shared.to_bits(), own.to_bits(), "pos {} factor {}", pos, factor);

            // The copy locates the same phase and fraction, and its shape
            // there is the shared shape scaled.
            let scaled = program
                .locate(pos)
                .map(|(shape, f)| (shape.scaled(factor, ceiling), f.to_bits()));
            let located = copy.locate(pos).map(|(shape, f)| (shape, f.to_bits()));
            prop_assert_eq!(scaled, located);
        }
    }

    #[test]
    fn unscaled_lookup_is_demand_at(program in program_strategy(), x in -0.1f64..1.1) {
        let pos = x * program.total_work();
        let via_locate = program.locate(pos).map_or(0.0, |(shape, f)| shape.demand_at(f));
        prop_assert_eq!(via_locate.to_bits(), program.demand_at(pos).to_bits());
    }

    #[test]
    fn socket_variant_is_the_scaled_program(
        program in program_strategy(),
        seed in any::<u64>(),
        socket in 0usize..100_000,
        ceiling in 100.0f64..200.0,
    ) {
        let rng = RngStream::new(seed, "socket-factor-test");
        let factor = socket_factor(socket, &rng);
        prop_assert!((0.92..=1.08).contains(&factor));
        let variant = socket_variant(&program, ceiling, socket, &rng);
        let scaled = program.scale_demand(factor, ceiling);
        prop_assert_eq!(program_bits(&variant), program_bits(&scaled));
    }
}
