//! The server↔client wire protocol.
//!
//! §6.5: "only 3 bytes are exchanged per request with each node". This
//! module makes that concrete: a 3-byte fixed-width frame per unit per
//! direction — a message tag plus a 16-bit payload in deciwatts (u16
//! covers 0–6553.5 W, far above any socket's TDP, at 0.1 W resolution,
//! better than RAPL's practical accuracy). The control plane runs entirely
//! through these frames, so the decision loop exercises real
//! encode/transmit/decode mechanics instead of function calls.
//!
//! Beyond the original report/assign pair, the framed control plane adds
//! two frames: an explicit [`Frame::Poll`] request (the controller asks a
//! unit for its power report instead of assuming clients push) and a
//! [`Frame::CapAck`] (the agent confirms the cap it actually applied, which
//! is what lets the controller maintain a safe believed-applied view under
//! loss and corruption).

use dps_sim_core::units::{Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Wire resolution: one least-significant unit = 0.1 W.
pub const DECIWATT: f64 = 0.1;

/// Tolerance for "due at or before now" delivery comparisons.
///
/// Simulated timestamps are sums of f64 periods and latencies, so an event
/// scheduled for exactly `t` can land at `t ± a few ulps` after
/// accumulation. Comparing with an absolute slack of 1e-12 s (one
/// picosecond, ~9 orders of magnitude below the µs-scale link latencies)
/// makes delivery insensitive to that rounding without ever reordering
/// events that are meaningfully apart. Shared by the link
/// ([`crate::link::LossyLink`]) and the control plane's deadline checks.
pub const DELIVERY_EPSILON: Seconds = 1e-12;

/// Budget slack introduced by wire quantization, for `n_units` units.
///
/// `watts_to_wire` rounds to the nearest deciwatt, so each applied cap can
/// sit up to 0.05 W above the requested value; a cap sum that was exactly
/// at budget can therefore exceed it by at most `n_units × 0.05 W` once
/// round-tripped through frames. Budget-safety checks on believed/applied
/// caps must allow exactly this much.
pub fn wire_slack(n_units: usize) -> Watts {
    n_units as f64 * (DECIWATT / 2.0) + 1e-9
}

/// A 3-byte control-plane frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Frame {
    /// Client → server: the unit's average power over the last window.
    PowerReport {
        /// Power in deciwatts.
        deciwatts: u16,
    },
    /// Server → client: the unit's new power cap.
    SetCap {
        /// Cap in deciwatts.
        deciwatts: u16,
    },
    /// Server → client: request a power report for the unit.
    Poll {
        /// Gather-epoch sequence number (wraps; used only for diagnostics).
        seq: u16,
    },
    /// Client → server: confirms the cap the agent actually applied.
    CapAck {
        /// Applied cap in deciwatts.
        deciwatts: u16,
    },
}

impl Frame {
    /// Frame tags.
    const TAG_POWER: u8 = 0x01;
    const TAG_CAP: u8 = 0x02;
    const TAG_POLL: u8 = 0x03;
    const TAG_ACK: u8 = 0x04;

    /// Builds a power report from Watts (saturating at the u16 range).
    pub fn power_report(watts: Watts) -> Self {
        Frame::PowerReport {
            deciwatts: watts_to_wire(watts),
        }
    }

    /// Builds a cap assignment from Watts.
    pub fn set_cap(watts: Watts) -> Self {
        Frame::SetCap {
            deciwatts: watts_to_wire(watts),
        }
    }

    /// Builds a cap acknowledgement from Watts.
    pub fn cap_ack(watts: Watts) -> Self {
        Frame::CapAck {
            deciwatts: watts_to_wire(watts),
        }
    }

    /// The carried value in Watts; 0 for [`Frame::Poll`], whose payload is
    /// a sequence number rather than a power.
    pub fn watts(&self) -> Watts {
        match *self {
            Frame::PowerReport { deciwatts }
            | Frame::SetCap { deciwatts }
            | Frame::CapAck { deciwatts } => deciwatts as f64 * DECIWATT,
            Frame::Poll { .. } => 0.0,
        }
    }

    /// Encodes to the 3-byte wire format: `[tag, lo, hi]`.
    pub fn encode(&self) -> [u8; 3] {
        let (tag, payload) = match *self {
            Frame::PowerReport { deciwatts } => (Self::TAG_POWER, deciwatts),
            Frame::SetCap { deciwatts } => (Self::TAG_CAP, deciwatts),
            Frame::Poll { seq } => (Self::TAG_POLL, seq),
            Frame::CapAck { deciwatts } => (Self::TAG_ACK, deciwatts),
        };
        let [lo, hi] = payload.to_le_bytes();
        [tag, lo, hi]
    }

    /// Decodes a 3-byte frame; `None` on an unknown tag.
    pub fn decode(bytes: [u8; 3]) -> Option<Self> {
        let payload = u16::from_le_bytes([bytes[1], bytes[2]]);
        match bytes[0] {
            Self::TAG_POWER => Some(Frame::PowerReport { deciwatts: payload }),
            Self::TAG_CAP => Some(Frame::SetCap { deciwatts: payload }),
            Self::TAG_POLL => Some(Frame::Poll { seq: payload }),
            Self::TAG_ACK => Some(Frame::CapAck { deciwatts: payload }),
            _ => None,
        }
    }
}

/// Converts Watts to wire deciwatts, clamping into the representable range.
pub fn watts_to_wire(watts: Watts) -> u16 {
    let dw = (watts / DECIWATT).round();
    if dw.is_nan() || dw < 0.0 {
        0
    } else if dw > u16::MAX as f64 {
        u16::MAX
    } else {
        dw as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_three_bytes() {
        // The §6.5 traffic claim rests on this.
        assert_eq!(Frame::power_report(110.0).encode().len(), 3);
        assert_eq!(std::mem::size_of_val(&Frame::set_cap(0.0).encode()), 3);
        assert_eq!(Frame::Poll { seq: 9 }.encode().len(), 3);
        assert_eq!(Frame::cap_ack(110.0).encode().len(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for watts in [0.0, 40.0, 110.55, 164.9, 165.0] {
            for frame in [
                Frame::power_report(watts),
                Frame::set_cap(watts),
                Frame::cap_ack(watts),
            ] {
                let decoded = Frame::decode(frame.encode()).unwrap();
                assert_eq!(decoded, frame);
                assert!((decoded.watts() - watts).abs() <= DECIWATT / 2.0 + 1e-12);
            }
        }
        for seq in [0u16, 1, 65535] {
            let frame = Frame::Poll { seq };
            assert_eq!(Frame::decode(frame.encode()).unwrap(), frame);
        }
    }

    #[test]
    fn wire_resolution_is_deciwatts() {
        let f = Frame::power_report(110.04);
        assert!((f.watts() - 110.0).abs() < 1e-9);
        let g = Frame::power_report(110.06);
        assert!((g.watts() - 110.1).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_saturate() {
        assert_eq!(watts_to_wire(-5.0), 0);
        assert_eq!(watts_to_wire(f64::NAN), 0);
        assert_eq!(watts_to_wire(1e9), u16::MAX);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Frame::decode([0xFF, 0, 0]), None);
        assert_eq!(Frame::decode([0x00, 1, 2]), None);
        assert_eq!(Frame::decode([0x05, 1, 2]), None);
    }

    #[test]
    fn poll_carries_no_power() {
        assert_eq!(Frame::Poll { seq: 500 }.watts(), 0.0);
    }

    #[test]
    fn wire_slack_scales_with_units() {
        assert!(wire_slack(20) < 20.0 * DECIWATT);
        assert!((wire_slack(20) - 1.0).abs() < 1e-6);
    }
}
