//! A faulty one-way transport for 3-byte frames.
//!
//! Every frame on a [`LossyLink`] takes a base one-way latency, and the
//! link can additionally drop it, delay it by a seeded jitter (which
//! reorders frames relative to each other), duplicate it, or flip bits in
//! its encoded bytes. With a clean [`LinkConfig`] (no jitter, no faults)
//! it is an ideal latency link: every frame arrives exactly once,
//! `latency` seconds after it was sent, so frames sent in time order
//! arrive in send order. Frames travel as raw `[u8; 3]` and are decoded
//! at the receiving end, so corruption exercises the real
//! `Frame::decode → None` path. All randomness comes from an
//! [`RngStream`], making every loss pattern bit-reproducible from the
//! experiment seed.

use crate::frame::{Frame, DELIVERY_EPSILON};
use dps_sim_core::rng::RngStream;
use dps_sim_core::units::Seconds;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Static fault characteristics of one link direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Base one-way latency in seconds (paper §6.5: "tens of
    /// microseconds" over BSD sockets).
    pub latency: Seconds,
    /// Extra per-frame delay drawn uniformly from `[0, jitter)` seconds.
    /// Nonzero jitter reorders frames whose sends are closer together than
    /// the jitter window.
    pub jitter: Seconds,
    /// Probability a frame is silently dropped in flight.
    pub drop_prob: f64,
    /// Probability a frame is delivered twice (the copy gets its own
    /// jitter draw).
    pub duplicate_prob: f64,
    /// Probability one random byte of the frame is corrupted in flight.
    pub corrupt_prob: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            latency: 50e-6,
            jitter: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
        }
    }
}

impl LinkConfig {
    /// Checks probabilities and delays are physically meaningful.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.latency.is_finite() && self.latency >= 0.0) {
            return Err(format!(
                "latency must be non-negative, got {}",
                self.latency
            ));
        }
        if !(self.jitter.is_finite() && self.jitter >= 0.0) {
            return Err(format!("jitter must be non-negative, got {}", self.jitter));
        }
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("corrupt_prob", self.corrupt_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        Ok(())
    }
}

/// Delivery counters for one link direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Frames handed to `send`.
    pub sent: u64,
    /// Frames dropped by the loss roll.
    pub dropped: u64,
    /// Frames dropped because the link was partitioned.
    pub blocked: u64,
    /// Frames whose bytes were corrupted in flight (they may still decode).
    pub corrupted: u64,
    /// Extra copies scheduled by the duplication roll.
    pub duplicated: u64,
    /// Frames handed to the receiver (including `None` decodes).
    pub delivered: u64,
    /// Delivered frames that failed to decode.
    pub undecodable: u64,
}

/// One in-flight encoded frame. Ordering is `(due, seq)` so simultaneous
/// deliveries resolve in send order, keeping the event loop deterministic.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    due: Seconds,
    seq: u64,
    unit: u32,
    bytes: [u8; 3],
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for InFlight {}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-due first.
        other
            .due
            .total_cmp(&self.due)
            .then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A one-way link with seeded drops, jitter/reordering, duplication and
/// byte corruption.
#[derive(Debug, Clone)]
pub struct LossyLink {
    config: LinkConfig,
    rng: RngStream,
    in_flight: BinaryHeap<InFlight>,
    next_seq: u64,
    /// While partitioned, every send is discarded (frames already in
    /// flight still deliver — they left before the partition).
    partitioned: bool,
    /// Additional corruption probability from an active fault burst.
    corrupt_boost: f64,
    counters: LinkCounters,
}

impl LossyLink {
    /// Creates a link; `rng` must be a dedicated stream for this link
    /// direction (its consumption pattern depends on traffic).
    pub fn new(config: LinkConfig, rng: RngStream) -> Self {
        config.validate().expect("invalid link config");
        Self {
            config,
            rng,
            in_flight: BinaryHeap::new(),
            next_seq: 0,
            partitioned: false,
            corrupt_boost: 0.0,
            counters: LinkCounters::default(),
        }
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Sets/clears the partition state (a partitioned link discards sends).
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Sets the additional corruption probability of an active burst.
    pub fn set_corrupt_boost(&mut self, boost: f64) {
        self.corrupt_boost = boost.clamp(0.0, 1.0);
    }

    /// Sends a frame for `unit` at time `now`. The frame may be dropped,
    /// corrupted, jittered or duplicated according to the configuration;
    /// each outcome consumes a fixed RNG roll sequence so per-seed traffic
    /// is reproducible.
    pub fn send(&mut self, now: Seconds, unit: u32, frame: Frame) {
        self.counters.sent += 1;
        if self.partitioned {
            self.counters.blocked += 1;
            return;
        }
        if self.rng.chance(self.config.drop_prob) {
            self.counters.dropped += 1;
            return;
        }
        let mut bytes = frame.encode();
        let corrupt_prob = (self.config.corrupt_prob + self.corrupt_boost).clamp(0.0, 1.0);
        if self.rng.chance(corrupt_prob) {
            let idx = self.rng.range(0..3usize);
            let mask = self.rng.range(1..=255u8);
            bytes[idx] ^= mask;
            self.counters.corrupted += 1;
        }
        self.schedule(now, unit, bytes);
        if self.rng.chance(self.config.duplicate_prob) {
            self.counters.duplicated += 1;
            self.schedule(now, unit, bytes);
        }
    }

    fn schedule(&mut self, now: Seconds, unit: u32, bytes: [u8; 3]) {
        let jitter = if self.config.jitter > 0.0 {
            self.rng.range(0.0..self.config.jitter)
        } else {
            0.0
        };
        self.in_flight.push(InFlight {
            due: now + self.config.latency + jitter,
            seq: self.next_seq,
            unit,
            bytes,
        });
        self.next_seq += 1;
    }

    /// Delivers the earliest frame due at or before `now`, or returns
    /// `None` when nothing is due. Repeated calls drain the due frames in
    /// `(due, send)` order. The frame decodes at the receiving end: an
    /// inner `None` means it arrived but its tag byte was corrupted beyond
    /// recognition.
    pub fn pop_due(&mut self, now: Seconds) -> Option<(u32, Option<Frame>)> {
        if self.in_flight.peek()?.due > now + DELIVERY_EPSILON {
            return None;
        }
        let head = self.in_flight.pop()?;
        let frame = Frame::decode(head.bytes);
        self.counters.delivered += 1;
        if frame.is_none() {
            self.counters.undecodable += 1;
        }
        Some((head.unit, frame))
    }

    /// Earliest in-flight due time, if any frames are pending.
    pub fn next_due(&self) -> Option<Seconds> {
        self.in_flight.peek().map(|f| f.due)
    }

    /// Frames currently in flight.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// Delivery counters so far.
    pub fn counters(&self) -> LinkCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(label: &str) -> RngStream {
        RngStream::new(77, label)
    }

    fn clean(latency: Seconds) -> LinkConfig {
        LinkConfig {
            latency,
            ..LinkConfig::default()
        }
    }

    /// Every frame due at or before `now`, in delivery order.
    fn deliver(link: &mut LossyLink, now: Seconds) -> Vec<(u32, Option<Frame>)> {
        std::iter::from_fn(|| link.pop_due(now)).collect()
    }

    #[test]
    fn faultless_link_delays_delivery_by_latency() {
        let mut link = LossyLink::new(clean(0.5), rng("clean"));
        link.send(0.0, 3, Frame::power_report(100.0));
        assert_eq!(link.pop_due(0.4), None);
        assert_eq!(
            link.pop_due(0.5),
            Some((3, Some(Frame::power_report(100.0))))
        );
        assert_eq!(link.pop_due(0.5), None);
        assert_eq!(link.pending(), 0);
        assert_eq!(link.counters().delivered, 1);
    }

    #[test]
    fn faultless_link_preserves_order() {
        let mut link = LossyLink::new(clean(0.1), rng("order"));
        for u in 0..16u32 {
            link.send(0.0, u, Frame::set_cap(u as f64));
        }
        let order: Vec<u32> = deliver(&mut link, 1.0).iter().map(|(u, _)| *u).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_latency_delivers_at_send_time() {
        let mut link = LossyLink::new(clean(0.0), rng("zero"));
        link.send(2.0, 1, Frame::set_cap(110.0));
        assert_eq!(link.next_due(), Some(2.0));
        assert_eq!(link.pop_due(2.0), Some((1, Some(Frame::set_cap(110.0)))));
    }

    #[test]
    fn drops_are_seeded_and_partial() {
        let cfg = LinkConfig {
            drop_prob: 0.5,
            ..clean(0.0)
        };
        let mut a = LossyLink::new(cfg, rng("drops"));
        let mut b = LossyLink::new(cfg, rng("drops"));
        for u in 0..200u32 {
            a.send(0.0, u, Frame::power_report(1.0));
            b.send(0.0, u, Frame::power_report(1.0));
        }
        let da = deliver(&mut a, 1.0);
        let db = deliver(&mut b, 1.0);
        assert_eq!(da, db, "same seed, same losses");
        assert!(da.len() > 50 && da.len() < 150, "got {}", da.len());
        assert_eq!(a.counters().dropped + da.len() as u64, 200);
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let cfg = LinkConfig {
            jitter: 1.0,
            ..clean(0.1)
        };
        let mut link = LossyLink::new(cfg, rng("jitter"));
        for u in 0..64u32 {
            link.send(0.0, u, Frame::power_report(u as f64));
        }
        let order: Vec<u32> = deliver(&mut link, 10.0).iter().map(|(u, _)| *u).collect();
        assert_eq!(order.len(), 64);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(order, sorted, "1 s jitter over simultaneous sends reorders");
    }

    #[test]
    fn jittered_delivery_respects_due_times() {
        let cfg = LinkConfig {
            jitter: 0.5,
            ..clean(0.2)
        };
        let mut link = LossyLink::new(cfg, rng("due"));
        for u in 0..32u32 {
            link.send(0.0, u, Frame::power_report(0.0));
        }
        // Nothing can arrive before the base latency.
        assert_eq!(link.pop_due(0.19), None);
        // Everything arrives by latency + jitter.
        let mut total = deliver(&mut link, 0.45).len();
        total += deliver(&mut link, 0.7).len();
        assert_eq!(total, 32);
    }

    #[test]
    fn corruption_hits_decode_path() {
        let cfg = LinkConfig {
            corrupt_prob: 1.0,
            ..clean(0.0)
        };
        let mut link = LossyLink::new(cfg, rng("corrupt"));
        for u in 0..300u32 {
            link.send(0.0, u, Frame::power_report(110.0));
        }
        let out = deliver(&mut link, 1.0);
        assert_eq!(out.len(), 300);
        let undecodable = out.iter().filter(|(_, f)| f.is_none()).count();
        // A corrupted tag byte usually fails decode; corrupted payload
        // bytes still decode (to a wrong value).
        assert!(undecodable > 50, "{undecodable} undecodable");
        assert!(undecodable < 300, "payload corruption should still decode");
        assert_eq!(link.counters().undecodable, undecodable as u64);
        assert_eq!(link.counters().corrupted, 300);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let cfg = LinkConfig {
            duplicate_prob: 1.0,
            ..clean(0.0)
        };
        let mut link = LossyLink::new(cfg, rng("dup"));
        for u in 0..10u32 {
            link.send(0.0, u, Frame::set_cap(50.0));
        }
        assert_eq!(deliver(&mut link, 1.0).len(), 20);
        assert_eq!(link.counters().duplicated, 10);
    }

    #[test]
    fn partition_blocks_sends_not_in_flight_frames() {
        let mut link = LossyLink::new(clean(0.5), rng("part"));
        link.send(0.0, 1, Frame::power_report(10.0));
        link.set_partitioned(true);
        link.send(0.1, 2, Frame::power_report(20.0));
        let out = deliver(&mut link, 2.0);
        assert_eq!(out.len(), 1, "pre-partition frame still delivers");
        assert_eq!(out[0].0, 1);
        assert_eq!(link.counters().blocked, 1);
        link.set_partitioned(false);
        link.send(2.0, 3, Frame::power_report(30.0));
        assert_eq!(deliver(&mut link, 3.0).len(), 1);
    }

    #[test]
    fn corrupt_boost_adds_to_base_rate() {
        let mut link = LossyLink::new(clean(0.0), rng("boost"));
        link.set_corrupt_boost(1.0);
        link.send(0.0, 0, Frame::power_report(1.0));
        assert_eq!(link.counters().corrupted, 1);
        link.set_corrupt_boost(0.0);
        link.send(0.0, 1, Frame::power_report(1.0));
        assert_eq!(link.counters().corrupted, 1);
    }

    #[test]
    fn next_due_tracks_earliest_frame() {
        let mut link = LossyLink::new(clean(0.5), rng("peek"));
        assert_eq!(link.next_due(), None);
        link.send(1.0, 0, Frame::power_report(1.0));
        link.send(0.0, 1, Frame::power_report(1.0));
        assert!((link.next_due().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(LinkConfig {
            drop_prob: 1.5,
            ..LinkConfig::default()
        }
        .validate()
        .is_err());
        assert!(LinkConfig {
            latency: -1.0,
            ..LinkConfig::default()
        }
        .validate()
        .is_err());
        assert!(LinkConfig::default().validate().is_ok());
    }
}
