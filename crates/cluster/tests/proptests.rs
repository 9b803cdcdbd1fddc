//! Property tests for the wire frames and the cluster crate's accounting types.

use dps_cluster::{ControlPlaneModel, SatisfactionTracker};
use dps_ctrl::frame::{watts_to_wire, Frame};
use dps_ctrl::{LinkConfig, LossyLink};
use dps_sim_core::RngStream;
use proptest::prelude::*;

proptest! {
    /// Every representable frame survives an encode/decode roundtrip.
    #[test]
    fn frame_roundtrip(deciwatts in any::<u16>(), is_cap in any::<bool>()) {
        let frame = if is_cap {
            Frame::SetCap { deciwatts }
        } else {
            Frame::PowerReport { deciwatts }
        };
        prop_assert_eq!(Frame::decode(frame.encode()), Some(frame));
    }

    /// Wire conversion is monotone and bounded for arbitrary inputs.
    #[test]
    fn wire_conversion_monotone(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(watts_to_wire(lo) <= watts_to_wire(hi));
    }

    /// The quantization error never exceeds half a deciwatt in range.
    #[test]
    fn wire_quantization_error_bounded(watts in 0.0f64..6000.0) {
        let roundtrip = watts_to_wire(watts) as f64 * 0.1;
        prop_assert!((roundtrip - watts).abs() <= 0.05 + 1e-9);
    }

    /// A clean link (no jitter, no faults) delivers every frame exactly
    /// once, in send order, never early — at the drawn latency and at
    /// zero latency, where a frame is due the instant it is sent.
    #[test]
    fn clean_link_exactly_once_in_order(
        latency in 0.0f64..5.0,
        sends in prop::collection::vec(0.0f64..100.0, 1..50),
        seed in any::<u64>(),
    ) {
        let mut sorted_sends = sends.clone();
        sorted_sends.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for latency in [latency, 0.0] {
            let config = LinkConfig {
                latency,
                ..LinkConfig::default()
            };
            let mut link = LossyLink::new(config, RngStream::new(seed, "clean-link"));
            for (i, &t) in sorted_sends.iter().enumerate() {
                link.send(t, i as u32, Frame::power_report(100.0));
            }
            // Drain at increasing times; nothing may arrive before its due time.
            let mut received = Vec::new();
            let mut now = 0.0;
            while received.len() < sorted_sends.len() {
                now += 0.25;
                while let Some((unit, frame)) = link.pop_due(now) {
                    let sent = sorted_sends[unit as usize];
                    prop_assert!(now + 1e-9 >= sent + latency, "early delivery");
                    prop_assert_eq!(frame, Some(Frame::power_report(100.0)));
                    received.push(unit);
                }
                prop_assert!(now < 200.0, "delivery stalled");
            }
            // Exactly once, in order (send times are sorted, same latency).
            let expected: Vec<u32> = (0..sorted_sends.len() as u32).collect();
            prop_assert_eq!(received, expected);
            prop_assert_eq!(link.pending(), 0);
        }
    }

    /// Satisfaction is scale-invariant: scaling demand and grant together
    /// leaves it unchanged.
    #[test]
    fn satisfaction_scale_invariant(
        windows in prop::collection::vec((20.0f64..165.0, 0.0f64..165.0), 1..50),
        scale in 0.5f64..2.0,
    ) {
        let mut a = SatisfactionTracker::new();
        let mut b = SatisfactionTracker::new();
        for &(demand, grant) in &windows {
            a.record(demand, grant, 15.0);
            b.record(demand * scale, grant * scale, 15.0 * scale);
        }
        prop_assert!((a.satisfaction() - b.satisfaction()).abs() < 1e-9);
    }

    /// Satisfaction is monotone in delivered power.
    #[test]
    fn satisfaction_monotone_in_grant(
        demand in 30.0f64..165.0,
        g1 in 0.0f64..165.0,
        g2 in 0.0f64..165.0,
    ) {
        let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let mut a = SatisfactionTracker::new();
        let mut b = SatisfactionTracker::new();
        a.record(demand, lo, 15.0);
        b.record(demand, hi, 15.0);
        prop_assert!(a.satisfaction() <= b.satisfaction() + 1e-12);
    }

    /// Control-plane latency is monotone in node count and traffic exact.
    #[test]
    fn controlplane_monotone(n1 in 0usize..100_000, n2 in 0usize..100_000) {
        let model = ControlPlaneModel::default();
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        prop_assert!(model.cycle_latency(lo) <= model.cycle_latency(hi) + 1e-12);
        prop_assert_eq!(model.cycle_traffic(lo), 2 * lo * model.bytes_per_unit);
    }
}
