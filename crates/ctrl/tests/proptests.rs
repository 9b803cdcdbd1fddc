//! Property tests for the framed control plane's transport layer.

use dps_ctrl::{Frame, LinkConfig, LossyLink};
use dps_sim_core::RngStream;
use proptest::prelude::*;

/// Drains a link far past every in-flight due time.
fn drain(link: &mut LossyLink, until: f64) -> Vec<(u32, Option<Frame>)> {
    let mut out = Vec::new();
    let mut now = 0.0;
    while now <= until {
        out.extend(std::iter::from_fn(|| link.pop_due(now)));
        now += 0.05;
    }
    out
}

proptest! {
    /// Decoding never panics, whatever three bytes arrive; it returns
    /// `Some` exactly for the four known tags.
    #[test]
    fn decode_never_panics(bytes in any::<[u8; 3]>()) {
        let decoded = Frame::decode(bytes);
        prop_assert_eq!(decoded.is_some(), (0x01..=0x04).contains(&bytes[0]));
        // And whatever decoded must re-encode to the same bytes.
        if let Some(frame) = decoded {
            prop_assert_eq!(frame.encode(), bytes);
        }
    }

    /// Every valid frame of every variant survives encode → decode.
    #[test]
    fn all_variants_roundtrip(payload in any::<u16>(), variant in 0u8..4) {
        let frame = match variant {
            0 => Frame::PowerReport { deciwatts: payload },
            1 => Frame::SetCap { deciwatts: payload },
            2 => Frame::Poll { seq: payload },
            _ => Frame::CapAck { deciwatts: payload },
        };
        prop_assert_eq!(Frame::decode(frame.encode()), Some(frame));
    }

    /// Whatever the loss configuration, the delivered set is a subset of
    /// the sent set: every delivered, uncorrupted frame is one the sender
    /// put on the wire (identified by its unique unit id), and no frame
    /// arrives more than the duplication config allows.
    #[test]
    fn delivered_is_subset_of_sent(
        seed in any::<u64>(),
        drop_prob in 0.0f64..1.0,
        duplicate in any::<bool>(),
        n_frames in 1usize..60,
    ) {
        let config = LinkConfig {
            drop_prob,
            duplicate_prob: if duplicate { 0.3 } else { 0.0 },
            ..LinkConfig::default()
        };
        let mut link = LossyLink::new(config, RngStream::new(seed, "prop-link"));
        for unit in 0..n_frames as u32 {
            link.send(unit as f64 * 0.01, unit, Frame::SetCap { deciwatts: unit as u16 });
        }
        let delivered = drain(&mut link, 2.0);
        prop_assert_eq!(link.pending(), 0);
        let mut copies = vec![0usize; n_frames];
        for (unit, frame) in delivered {
            // Subset: the unit id was sent, and (corruption is off) the
            // payload is exactly what that send carried.
            prop_assert!((unit as usize) < n_frames, "unknown frame delivered");
            prop_assert_eq!(frame, Some(Frame::SetCap { deciwatts: unit as u16 }));
            copies[unit as usize] += 1;
        }
        let max_copies = if duplicate { 2 } else { 1 };
        for (unit, &c) in copies.iter().enumerate() {
            prop_assert!(
                c <= max_copies,
                "unit {unit} delivered {c} times (max {max_copies})"
            );
        }
    }

    /// With a lossless configuration every frame arrives exactly once.
    #[test]
    fn lossless_link_delivers_exactly_once(seed in any::<u64>(), n_frames in 1usize..60) {
        let mut link = LossyLink::new(LinkConfig::default(), RngStream::new(seed, "prop-link"));
        for unit in 0..n_frames as u32 {
            link.send(0.0, unit, Frame::Poll { seq: unit as u16 });
        }
        let delivered = drain(&mut link, 1.0);
        prop_assert_eq!(delivered.len(), n_frames);
    }

    /// Two links built from the same seed replay the identical delivery
    /// sequence — drops, jitter, duplication and all.
    #[test]
    fn per_seed_determinism(
        seed in any::<u64>(),
        sends in prop::collection::vec(0u16..1000, 1..40),
    ) {
        let config = LinkConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            corrupt_prob: 0.1,
            jitter: 20e-6,
            ..LinkConfig::default()
        };
        let build = || LossyLink::new(config, RngStream::new(seed, "prop-link"));
        let mut a = build();
        let mut b = build();
        for (i, &dw) in sends.iter().enumerate() {
            let t = i as f64 * 0.001;
            a.send(t, i as u32, Frame::PowerReport { deciwatts: dw });
            b.send(t, i as u32, Frame::PowerReport { deciwatts: dw });
        }
        prop_assert_eq!(drain(&mut a, 1.0), drain(&mut b, 1.0));
        prop_assert_eq!(a.counters(), b.counters());
    }
}
