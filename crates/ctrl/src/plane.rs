//! The framed control plane: a discrete-event gather→decide→scatter loop.
//!
//! [`FramedControlPlane`] owns the server-side [`Controller`], one
//! [`NodeAgent`] per node, and a pair of [`LossyLink`]s (down = controller
//! → node, up = node → controller) per node. One call to
//! [`FramedControlPlane::run_cycle`] plays out a full decision cycle in
//! simulated time:
//!
//! 1. **Faults** scheduled for this cycle take effect (crash/reboot,
//!    partition, corruption burst).
//! 2. **Gather** — the controller polls every unit (stale nodes included,
//!    so a healed node is noticed), with per-node timeouts and bounded
//!    backoff retries, inside an event loop that advances time to the next
//!    frame delivery or deadline.
//! 3. **Decide** — the power manager runs on the hold-last telemetry; the
//!    controller then pins non-live nodes to the floor and redistributes
//!    the reclaimed budget.
//! 4. **Scatter** — two phases: lower-or-equal assignments go out first
//!    and are awaited, then raises are granted one at a time against the
//!    believed live cap sum. Assignments are retried on timeout and on
//!    mismatched acknowledgements.
//! 5. **Close** — stale nodes that acknowledged floor caps are readmitted
//!    and the budget-safety invariant is checked.
//!
//! Everything is deterministic per seed: link randomness comes from
//! dedicated [`RngStream`] children and the event loop breaks time ties in
//! node/sequence order.
//!
//! # Event queues
//!
//! The gather and settle loops step from one event time to the next. The
//! reference semantics is a loop that, at every step, scans all links for
//! the earliest due frame, pumps every node's down then up link, and
//! sweeps every node's (gather) or unit's (settle) deadline. Three lazy
//! min-heaps of `(time, index)` entries replace those scans; an entry is
//! checked against live state when it reaches the top, and a stale one is
//! dropped there:
//!
//! * **Link heads**, keyed `2·node + dir` (0 = down, 1 = up). An entry is
//!   pushed after a send moves a link's head and after the link delivers.
//!   It is valid while [`LossyLink::next_due`] still equals its time.
//! * **Gather deadlines**, keyed by node. Valid while the node is still
//!   gathering and its deadline equals the entry's time.
//! * **Assignment deadlines**, keyed by unit. Valid while the unit has an
//!   outstanding assignment with that deadline.
//!
//! Counters replace the remaining scans: nodes still gathering, unreported
//! units per node and outstanding assignments.
//!
//! The queues reproduce the scanning loop bit for bit — every decision,
//! RNG draw and counter — because they keep its order:
//!
//! * **Loop shape.** One iteration per distinct event time, with
//!   `t = next.max(t)` and the `deadline + ε` exit, so iteration counts
//!   match. The iteration bound grows with the fleet but never drops below
//!   the scan's fixed 1,000,000, so no run that fitted under it changes.
//! * **Pumps.** A pump at `t` visits only the nodes with a link due by
//!   `t + ε`, ascending, each node's down link before its up link. That is
//!   exact because handling node k sends only on k's own links (agent
//!   replies up, corrective re-sends down): no other node gains a due frame
//!   mid-pump.
//! * **Timers.** Deadlines due by `t + ε` fire in ascending node or unit
//!   order, so each link's RNG stream sees its sends in the scan's order.
//! * **Completion.** A node stops gathering when its last unit reports. The
//!   scan skips such a node in the same step's sweep and marks it done
//!   before computing the next step, so marking it at once changes nothing.
//!
//! **Cost.** A step costs O(log n) per queue entry it pops plus the
//! deliveries and timers it handles, instead of O(nodes + units). What
//! stays linear is per cycle, not per event: polling every unit, the
//! scatter pass and the [`Controller`]'s own bookkeeping.

use crate::agent::NodeAgent;
use crate::config::{FramedConfig, RetryPolicy};
use crate::controller::Controller;
use crate::fault::FaultSchedule;
use crate::frame::{watts_to_wire, Frame, DELIVERY_EPSILON};
use crate::link::LossyLink;
use crate::stats::CtrlStats;
use dps_core::manager::{PowerManager, UnitLimits};
use dps_sim_core::rng::RngStream;
use dps_sim_core::units::{Seconds, Watts};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Floor of the per-phase event-loop bound (see
/// [`FramedControlPlane::event_bound`]).
const MIN_EVENTS: usize = 1_000_000;

/// Link-key offsets: node `k`'s down link is `2k + DOWN`, its up link
/// `2k + UP`.
const DOWN: usize = 0;
const UP: usize = 1;

/// A cap assignment awaiting acknowledgement.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    wire: u16,
    deadline: Seconds,
    retries_left: u32,
    attempt: u32,
}

/// One `(time, index)` entry of an [`EventQueue`].
#[derive(Debug, Clone, Copy)]
struct Due {
    time: Seconds,
    index: usize,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Due {}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.index.cmp(&self.index))
    }
}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A lazy min-heap of `(time, index)` events. Entries stay in the heap
/// when the state they describe moves on; each query takes a validity
/// check against live state and drops the stale entries it meets.
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Due>,
}

impl EventQueue {
    fn push(&mut self, time: Seconds, index: usize) {
        self.heap.push(Due { time, index });
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    /// Empties the queue, yielding every entry's index, stale ones included.
    fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.heap.drain().map(|due| due.index)
    }

    /// Time of the earliest valid entry.
    fn peek(&mut self, valid: impl Fn(Seconds, usize) -> bool) -> Option<Seconds> {
        while let Some(&Due { time, index }) = self.heap.peek() {
            if valid(time, index) {
                return Some(time);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every entry due at or before `now` (within
    /// [`DELIVERY_EPSILON`]) into `out`: the valid ones' indices,
    /// ascending and deduplicated.
    fn pop_due(
        &mut self,
        now: Seconds,
        valid: impl Fn(Seconds, usize) -> bool,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        while let Some(&Due { time, index }) = self.heap.peek() {
            if time > now + DELIVERY_EPSILON {
                break;
            }
            self.heap.pop();
            if valid(time, index) {
                out.push(index);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The framed control plane for one cluster.
#[derive(Debug)]
pub struct FramedControlPlane {
    policy: RetryPolicy,
    faults: FaultSchedule,
    n_nodes: usize,
    units_per_node: usize,
    controller: Controller,
    agents: Vec<NodeAgent>,
    /// Both link directions of every node, keyed `2·node + DOWN/UP`.
    links: Vec<LossyLink>,
    /// Raw power readings snapshot the agents answer polls from.
    readings: Vec<Watts>,
    /// Flat mirror of the agents' programmed caps, refreshed per cycle.
    applied: Vec<Watts>,
    /// Per-unit outstanding cap assignment.
    outstanding: Vec<Option<Outstanding>>,
    /// Units whose `outstanding` entry is set.
    n_outstanding: usize,
    /// Last cap intentionally sent per unit (wire deciwatts) — what a
    /// stray acknowledgement is compared against to spot rogue caps.
    last_sent: Vec<u16>,
    // Per-node gather state.
    node_deadline: Vec<Seconds>,
    node_retries_left: Vec<u32>,
    node_attempt: Vec<u32>,
    node_done: Vec<bool>,
    /// Units of the node that have not reported this epoch.
    unreported: Vec<usize>,
    /// Nodes not yet done gathering.
    open_nodes: usize,
    // Event queues (see the module docs).
    link_heads: EventQueue,
    node_timers: EventQueue,
    unit_timers: EventQueue,
    /// Scratch: node or unit indices due in the current step.
    due: Vec<usize>,
    /// Scratch: units deferred to the raise phase.
    raises: Vec<usize>,
    retries: u64,
    epoch: u64,
}

impl FramedControlPlane {
    /// Builds the plane for `n_nodes × units_per_node` units under
    /// `budget`, all units starting at `initial_cap`. Link streams derive
    /// from `rng`, so two planes built from equal streams replay identical
    /// loss patterns.
    pub fn new(
        n_nodes: usize,
        units_per_node: usize,
        budget: Watts,
        limits: UnitLimits,
        initial_cap: Watts,
        config: FramedConfig,
        rng: &RngStream,
    ) -> Self {
        config
            .faults
            .validate(n_nodes)
            .expect("fault schedule fits topology");
        let n = n_nodes * units_per_node;
        let mut controller = Controller::new(n_nodes, units_per_node, budget, limits, initial_cap);
        controller.set_stale_after(config.policy.stale_after);
        let agents = (0..n_nodes)
            .map(|node| NodeAgent::new(node * units_per_node, units_per_node, initial_cap, limits))
            .collect();
        let links = (0..n_nodes)
            .flat_map(|node| {
                ["down", "up"].map(|dir| {
                    LossyLink::new(config.link, rng.child(&format!("link/{dir}/{node}")))
                })
            })
            .collect();
        Self {
            policy: config.policy,
            faults: config.faults,
            n_nodes,
            units_per_node,
            controller,
            agents,
            links,
            readings: vec![0.0; n],
            applied: vec![limits.clamp(initial_cap); n],
            outstanding: vec![None; n],
            n_outstanding: 0,
            last_sent: vec![watts_to_wire(limits.clamp(initial_cap)); n],
            node_deadline: vec![0.0; n_nodes],
            node_retries_left: vec![0; n_nodes],
            node_attempt: vec![0; n_nodes],
            node_done: vec![false; n_nodes],
            unreported: vec![units_per_node; n_nodes],
            open_nodes: 0,
            link_heads: EventQueue::default(),
            node_timers: EventQueue::default(),
            unit_timers: EventQueue::default(),
            due: Vec::new(),
            raises: Vec::with_capacity(n),
            retries: 0,
            epoch: 0,
        }
    }

    /// Runs one decision cycle starting at `now` with decision period
    /// `period`. `readings` are the units' raw power readings for the
    /// closing window; `manager` decides on the controller's telemetry;
    /// `proposals` receives the manager's (post-processed) cap proposals.
    /// Returns whether the budget-safety invariant held at cycle close.
    pub fn run_cycle(
        &mut self,
        now: Seconds,
        period: Seconds,
        readings: &[Watts],
        manager: &mut dyn PowerManager,
        proposals: &mut [Watts],
    ) -> bool {
        assert_eq!(readings.len(), self.readings.len());
        assert_eq!(proposals.len(), self.readings.len());
        self.epoch += 1;
        let deadline = now + period;

        self.apply_faults(now);
        self.readings.copy_from_slice(readings);

        self.controller.begin_epoch();
        let t = self.gather(now, deadline);
        self.controller.end_gather();

        manager.assign_caps(self.controller.telemetry(), proposals, period);
        self.controller.postprocess(proposals);

        self.scatter(t, deadline, proposals);
        let ok = self.controller.end_epoch();

        for node in 0..self.n_nodes {
            let base = node * self.units_per_node;
            self.applied[base..base + self.units_per_node]
                .copy_from_slice(self.agents[node].caps());
        }
        ok
    }

    /// Applies the fault schedule as of cycle start `now`.
    fn apply_faults(&mut self, now: Seconds) {
        for node in 0..self.n_nodes {
            let crashed = self.faults.crashed(node, now);
            if crashed && self.agents[node].is_up() {
                self.agents[node].crash();
            } else if !crashed && !self.agents[node].is_up() {
                self.agents[node].reboot();
            }
            let partitioned = self.faults.partitioned(node, now);
            let boost = self.faults.corrupt_boost(node, now);
            for link in &mut self.links[2 * node..2 * node + 2] {
                link.set_partitioned(partitioned);
                link.set_corrupt_boost(boost);
            }
        }
    }

    /// Iteration bound for one gather or settle phase.
    ///
    /// Each iteration jumps to the earliest pending event, then delivers
    /// at least one frame or fires at least one timer: a frame due at the
    /// new time is delivered by the pump, and a timer due then fires
    /// unless a delivery in the same step resolved it first. A phase puts
    /// at most `1 + max_retries` requests per unit on the wire; the link
    /// may duplicate each, and every delivered copy draws at most one
    /// reply that may be duplicated again — at most six deliveries per
    /// request. Timers fire at most `1 + max_retries` times per node
    /// (gather) or unit (settle). That gives `(1 + max_retries) ×
    /// (7·units + nodes)`; the factor 2 leaves room for frames still in
    /// flight from the previous phase and for corrective re-sends after
    /// corrupted acknowledgements, the only traffic outside the count.
    /// The bound is a safety net, not part of the protocol, but it must
    /// grow with the fleet: under jitter nearly every frame arrives at its
    /// own time, so a half-million-unit gather takes over a million steps.
    /// The floor of 1,000,000 leaves every smaller plane's bound where it
    /// was.
    fn event_bound(&self) -> usize {
        let units = self.outstanding.len();
        let per_attempt = units.saturating_mul(7).saturating_add(self.n_nodes);
        let attempts = (self.policy.max_retries as usize).saturating_add(1);
        per_attempt
            .saturating_mul(attempts)
            .saturating_mul(2)
            .max(MIN_EVENTS)
    }

    /// Sends `frame` for `unit` on link `key` at `t`, queueing the link's
    /// new head when the send moved it.
    fn send(&mut self, key: usize, t: Seconds, unit: usize, frame: Frame) {
        let link = &mut self.links[key];
        let head = link.next_due();
        link.send(t, unit as u32, frame);
        if let Some(due) = link.next_due().filter(|&due| Some(due) != head) {
            self.link_heads.push(due, key);
        }
    }

    /// Queues link `key`'s current head, if it has one. Called after the
    /// link delivered: a link that delivered nothing kept its queued head
    /// (sends that move a head queue it themselves).
    fn requeue(&mut self, key: usize) {
        if let Some(due) = self.links[key].next_due() {
            self.link_heads.push(due, key);
        }
    }

    /// The earliest due frame on any link.
    fn next_frame(&mut self) -> Option<Seconds> {
        let links = &self.links;
        self.link_heads
            .peek(|time, key| links[key].next_due() == Some(time))
    }

    /// Delivers everything due at `t`, feeding agents and controller.
    /// Nodes with a due link go in ascending order, down link first, which
    /// breaks simultaneous-delivery ties.
    fn pump(&mut self, t: Seconds) {
        let links = &self.links;
        self.link_heads.pop_due(
            t,
            |time, key| links[key].next_due() == Some(time),
            &mut self.due,
        );
        let mut nodes = std::mem::take(&mut self.due);
        for key in &mut nodes {
            *key /= 2;
        }
        nodes.dedup();
        for &node in &nodes {
            let (down, up) = (2 * node + DOWN, 2 * node + UP);
            let mut delivered = false;
            while let Some((unit, maybe)) = self.links[down].pop_due(t) {
                delivered = true;
                let Some(frame) = maybe else { continue };
                if let Some(resp) = self.agents[node].handle(unit, frame, &self.readings) {
                    self.send(up, t, unit as usize, resp);
                }
            }
            if delivered {
                self.requeue(down);
            }
            delivered = false;
            while let Some((unit, maybe)) = self.links[up].pop_due(t) {
                delivered = true;
                match maybe {
                    Some(Frame::PowerReport { deciwatts }) => {
                        self.on_report(unit as usize, Frame::PowerReport { deciwatts }.watts());
                    }
                    Some(Frame::CapAck { deciwatts }) => self.on_ack(t, unit as usize, deciwatts),
                    // Client-bound frames on the up link can only be
                    // corruption artifacts; drop them.
                    _ => {}
                }
            }
            if delivered {
                self.requeue(up);
            }
        }
        self.due = nodes;
    }

    /// Records a power report for `unit`; the node stops gathering once
    /// its last unit has reported.
    fn on_report(&mut self, unit: usize, watts: Watts) {
        if !self.controller.unit_reported(unit) {
            let node = unit / self.units_per_node;
            self.unreported[node] -= 1;
            if self.unreported[node] == 0 && !self.node_done[node] {
                self.close_node(node);
            }
        }
        self.controller.record_report(unit, watts);
    }

    /// Marks `node` done gathering.
    fn close_node(&mut self, node: usize) {
        self.node_done[node] = true;
        self.open_nodes -= 1;
    }

    /// Sets `unit`'s outstanding assignment and queues its deadline.
    fn arm(&mut self, unit: usize, out: Outstanding) {
        if self.outstanding[unit].replace(out).is_none() {
            self.n_outstanding += 1;
        }
        self.unit_timers.push(out.deadline, unit);
    }

    /// Resolves `unit`'s outstanding assignment, if any.
    fn disarm(&mut self, unit: usize) {
        if self.outstanding[unit].take().is_some() {
            self.n_outstanding -= 1;
        }
    }

    /// Handles an acknowledged cap for `unit` carrying `dw` deciwatts.
    fn on_ack(&mut self, t: Seconds, unit: usize, dw: u16) {
        let node = unit / self.units_per_node;
        let Some(mut out) = self.outstanding[unit] else {
            // No assignment pending: a duplicate, a late ack of a resolved
            // assignment, or the agent confirming a *rogue* cap — a
            // corrupted frame that decoded as a valid SetCap the
            // controller never sent (unauthenticated 3-byte frames cannot
            // prevent this). Belief absorbs the value upward (a no-op for
            // duplicates, where belief is already at or above it), and a
            // rogue value triggers an immediate corrective re-send of the
            // intended cap.
            self.controller
                .note_unexpected_applied(unit, Frame::CapAck { deciwatts: dw }.watts());
            if dw != self.last_sent[unit] {
                let intended = self.last_sent[unit];
                self.retries += 1;
                self.arm(
                    unit,
                    Outstanding {
                        wire: intended,
                        deadline: t + self.policy.timeout,
                        retries_left: self.policy.max_retries,
                        attempt: 0,
                    },
                );
                self.send(
                    2 * node + DOWN,
                    t,
                    unit,
                    Frame::SetCap {
                        deciwatts: intended,
                    },
                );
            }
            return;
        };
        if out.wire == dw {
            self.disarm(unit);
            self.controller
                .note_cap_acked(unit, Frame::CapAck { deciwatts: dw }.watts());
        } else if out.retries_left > 0 {
            // The agent applied something else (corrupted assignment):
            // re-send the intended value.
            out.retries_left -= 1;
            out.attempt += 1;
            out.deadline = t + self.policy.timeout_for_attempt(out.attempt);
            self.retries += 1;
            self.send(
                2 * node + DOWN,
                t,
                unit,
                Frame::SetCap {
                    deciwatts: out.wire,
                },
            );
            self.arm(unit, out);
        } else {
            // Out of retries: accept reality, pessimistically.
            self.disarm(unit);
            self.controller
                .note_unexpected_applied(unit, Frame::CapAck { deciwatts: dw }.watts());
        }
    }

    /// Polls every unit and runs the gather event loop until every node
    /// either reported fully or exhausted its retries, or `deadline`
    /// passes. Returns the simulated time gather ended.
    fn gather(&mut self, start: Seconds, deadline: Seconds) -> Seconds {
        let seq = (self.epoch & 0xFFFF) as u16;
        let first_deadline = start + self.policy.timeout;
        self.node_timers.clear();
        for node in 0..self.n_nodes {
            let base = node * self.units_per_node;
            for unit in base..base + self.units_per_node {
                self.send(2 * node + DOWN, start, unit, Frame::Poll { seq });
            }
            self.node_deadline[node] = first_deadline;
            self.node_retries_left[node] = self.policy.max_retries;
            self.node_attempt[node] = 0;
            self.node_done[node] = false;
            self.unreported[node] = self.units_per_node;
            self.node_timers.push(first_deadline, node);
        }
        self.open_nodes = self.n_nodes;

        let mut t = start;
        for _ in 0..self.event_bound() {
            if self.open_nodes == 0 {
                break;
            }
            let (done, node_deadline) = (&self.node_done, &self.node_deadline);
            let timer = self
                .node_timers
                .peek(|time, node| !done[node] && node_deadline[node] == time);
            let next = earliest(self.next_frame(), timer);
            if next > deadline + DELIVERY_EPSILON {
                t = deadline;
                break;
            }
            t = next.max(t);
            self.pump(t);
            let (done, node_deadline) = (&self.node_done, &self.node_deadline);
            self.node_timers.pop_due(
                t,
                |time, node| !done[node] && node_deadline[node] == time,
                &mut self.due,
            );
            let due = std::mem::take(&mut self.due);
            for &node in &due {
                if self.node_retries_left[node] > 0 {
                    self.node_retries_left[node] -= 1;
                    self.node_attempt[node] += 1;
                    let base = node * self.units_per_node;
                    for unit in base..base + self.units_per_node {
                        if !self.controller.unit_reported(unit) {
                            self.send(2 * node + DOWN, t, unit, Frame::Poll { seq });
                            self.retries += 1;
                        }
                    }
                    self.node_deadline[node] =
                        t + self.policy.timeout_for_attempt(self.node_attempt[node]);
                    self.node_timers.push(self.node_deadline[node], node);
                } else {
                    self.close_node(node);
                }
            }
            self.due = due;
        }
        t
    }

    /// Two-phase cap distribution. Phase one sends every lower-or-equal
    /// assignment (plus the floor to non-live nodes) and waits for acks;
    /// phase two grants raises against the believed live sum.
    fn scatter(&mut self, start: Seconds, deadline: Seconds, proposals: &[Watts]) {
        self.raises.clear();
        for (unit, &proposal) in proposals.iter().enumerate() {
            let node = unit / self.units_per_node;
            let target = Frame::set_cap(proposal).watts();
            if !self.controller.node_live(node) || target <= self.controller.believed()[unit] + 1e-9
            {
                self.send_set_cap(start, unit, proposal);
            } else {
                self.raises.push(unit);
            }
        }
        let t = self.settle(start, deadline);

        let raises = std::mem::take(&mut self.raises);
        for &unit in &raises {
            let target = Frame::set_cap(proposals[unit]).watts();
            if self.controller.grant_raise(unit, target) {
                self.send_set_cap(t, unit, proposals[unit]);
            }
        }
        self.raises = raises;
        self.settle(t, deadline);
    }

    /// Puts one cap assignment on the wire and registers it for acks.
    fn send_set_cap(&mut self, t: Seconds, unit: usize, watts: Watts) {
        let frame = Frame::set_cap(watts);
        let Frame::SetCap { deciwatts } = frame else {
            unreachable!()
        };
        self.arm(
            unit,
            Outstanding {
                wire: deciwatts,
                deadline: t + self.policy.timeout,
                retries_left: self.policy.max_retries,
                attempt: 0,
            },
        );
        self.last_sent[unit] = deciwatts;
        let node = unit / self.units_per_node;
        self.send(2 * node + DOWN, t, unit, frame);
    }

    /// Runs the event loop until every outstanding assignment resolved
    /// (acked or out of retries) or `deadline` passes. Returns the time it
    /// ended.
    fn settle(&mut self, start: Seconds, deadline: Seconds) -> Seconds {
        let mut t = start;
        for _ in 0..self.event_bound() {
            if self.n_outstanding == 0 {
                break;
            }
            let outstanding = &self.outstanding;
            let timer = self
                .unit_timers
                .peek(|time, unit| outstanding[unit].is_some_and(|o| o.deadline == time));
            let next = earliest(self.next_frame(), timer);
            if next > deadline + DELIVERY_EPSILON {
                t = deadline;
                // Past the cycle boundary: give up. Belief stays
                // pessimistic (raises were counted at send). Every
                // outstanding unit has an entry in the queue.
                for unit in self.unit_timers.drain() {
                    self.outstanding[unit] = None;
                }
                self.n_outstanding = 0;
                break;
            }
            t = next.max(t);
            self.pump(t);
            let outstanding = &self.outstanding;
            self.unit_timers.pop_due(
                t,
                |time, unit| outstanding[unit].is_some_and(|o| o.deadline == time),
                &mut self.due,
            );
            let due = std::mem::take(&mut self.due);
            for &unit in &due {
                let Some(mut out) = self.outstanding[unit] else {
                    continue;
                };
                if out.retries_left > 0 {
                    out.retries_left -= 1;
                    out.attempt += 1;
                    out.deadline = t + self.policy.timeout_for_attempt(out.attempt);
                    self.retries += 1;
                    let node = unit / self.units_per_node;
                    self.send(
                        2 * node + DOWN,
                        t,
                        unit,
                        Frame::SetCap {
                            deciwatts: out.wire,
                        },
                    );
                    self.arm(unit, out);
                } else {
                    self.disarm(unit);
                }
            }
            self.due = due;
        }
        t
    }

    /// Caps actually programmed in the units' hardware (flat unit order),
    /// as of the last cycle.
    pub fn applied_caps(&self) -> &[Watts] {
        &self.applied
    }

    /// Rebases the plane's controller onto a new cluster budget (dynamic
    /// budget schedules). Takes effect from the next
    /// [`FramedControlPlane::run_cycle`]: lowers scatter first, so the
    /// believed-cap invariant re-converges to the new budget within one
    /// epoch on a healthy wire.
    pub fn set_budget(&mut self, budget: Watts) {
        self.controller.set_budget(budget);
    }

    /// The controller's hold-last telemetry.
    pub fn telemetry(&self) -> &[Watts] {
        self.controller.telemetry()
    }

    /// The controller's liveness view of a node.
    pub fn node_live(&self, node: usize) -> bool {
        self.controller.node_live(node)
    }

    /// Whether the node's agent daemon is actually running.
    pub fn agent_up(&self, node: usize) -> bool {
        self.agents[node].is_up()
    }

    /// Ground truth for the safety invariant: the sum of caps *actually
    /// programmed* on nodes the controller considers live.
    pub fn live_applied_sum(&self) -> Watts {
        (0..self.n_nodes)
            .filter(|n| self.controller.node_live(*n))
            .flat_map(|n| self.agents[n].caps())
            .sum()
    }

    /// The controller's believed version of [`Self::live_applied_sum`].
    pub fn live_believed_sum(&self) -> Watts {
        self.controller.live_believed_sum()
    }

    /// Decision cycles run so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Aggregated statistics (links + controller + retries).
    pub fn stats(&self) -> CtrlStats {
        let mut stats = CtrlStats::default();
        for link in &self.links {
            stats.absorb_link(link.counters());
        }
        self.controller.fill_stats(&mut stats);
        stats.retries = self.retries;
        stats
    }
}

/// The earlier of two optional event times; infinity when neither exists.
fn earliest(a: Option<Seconds>, b: Option<Seconds>) -> Seconds {
    a.unwrap_or(f64::INFINITY).min(b.unwrap_or(f64::INFINITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::frame::wire_slack;
    use dps_core::manager::{constant_cap, ManagerKind};

    const PERIOD: Seconds = 1.0;

    fn limits() -> UnitLimits {
        UnitLimits {
            min_cap: 40.0,
            max_cap: 165.0,
        }
    }

    /// A trivial manager: proposes a fixed pattern each cycle.
    struct FixedManager {
        caps: Vec<Watts>,
        budget: Watts,
    }

    impl PowerManager for FixedManager {
        fn kind(&self) -> ManagerKind {
            ManagerKind::Constant
        }
        fn num_units(&self) -> usize {
            self.caps.len()
        }
        fn total_budget(&self) -> Watts {
            self.budget
        }
        fn set_budget(&mut self, new_budget: Watts) -> Result<(), String> {
            self.budget = new_budget;
            Ok(())
        }
        fn assign_caps(&mut self, _measured: &[Watts], caps: &mut [Watts], _dt: Seconds) {
            caps.copy_from_slice(&self.caps);
        }
        fn reset(&mut self) {}
    }

    fn plane(n_nodes: usize, upn: usize, config: FramedConfig) -> FramedControlPlane {
        let budget = (n_nodes * upn) as f64 * 110.0;
        FramedControlPlane::new(
            n_nodes,
            upn,
            budget,
            limits(),
            constant_cap(budget, n_nodes * upn, limits()),
            config,
            &RngStream::new(11, "plane-test"),
        )
    }

    /// Runs cycles `start .. start + cycles` (simulated time keeps going
    /// across calls so fault windows line up). With `strict` — correct for
    /// every fault mix except payload corruption, which can forge caps no
    /// controller can pre-authorize — asserts the believed-cap invariant
    /// and its applied-cap ground truth each cycle.
    fn run(
        plane: &mut FramedControlPlane,
        manager: &mut FixedManager,
        start: usize,
        cycles: usize,
        strict: bool,
    ) {
        let n = manager.num_units();
        let mut proposals = vec![0.0; n];
        let readings = vec![90.0; n];
        for c in start..start + cycles {
            let now = c as f64 * PERIOD;
            let ok = plane.run_cycle(now, PERIOD, &readings, manager, &mut proposals);
            if strict {
                assert!(ok, "believed-cap invariant broke at cycle {c}");
                let truth = plane.live_applied_sum();
                assert!(
                    truth <= manager.budget + wire_slack(n),
                    "applied caps {truth} exceed budget at cycle {c}"
                );
            }
        }
    }

    #[test]
    fn faultless_cycle_converges_to_targets() {
        let mut p = plane(2, 2, FramedConfig::default());
        let mut m = FixedManager {
            caps: vec![150.0, 70.0, 120.0, 100.0],
            budget: 440.0,
        };
        run(&mut p, &mut m, 0, 3, true);
        for (a, want) in p.applied_caps().iter().zip(&m.caps) {
            assert!((a - want).abs() < 1e-9, "{a} vs {want}");
        }
        assert_eq!(p.telemetry(), &[90.0; 4]);
        let stats = p.stats();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.gather_misses, 0);
        assert_eq!(stats.frames_dropped, 0);
    }

    #[test]
    fn lossy_links_still_converge_and_stay_safe() {
        let mut config = FramedConfig::default();
        config.link.drop_prob = 0.1;
        let mut p = plane(2, 2, config);
        let mut m = FixedManager {
            caps: vec![150.0, 70.0, 120.0, 100.0],
            budget: 440.0,
        };
        run(&mut p, &mut m, 0, 30, true);
        let stats = p.stats();
        assert!(stats.frames_dropped > 0, "losses actually happened");
        assert!(stats.retries > 0, "retries covered the losses");
        // With retries over 30 cycles the targets land anyway.
        for (a, want) in p.applied_caps().iter().zip(&m.caps) {
            assert!((a - want).abs() < 1e-9, "{a} vs {want}");
        }
    }

    #[test]
    fn crash_demotes_then_floor_readmits() {
        let mut config = FramedConfig::default();
        config.faults.push(FaultEvent::Crash {
            node: 1,
            at: 2.0,
            until: 6.0,
        });
        let mut p = plane(2, 2, config);
        let mut m = FixedManager {
            caps: vec![110.0; 4],
            budget: 440.0,
        };
        run(&mut p, &mut m, 0, 2, true);
        assert!(p.node_live(1));
        // Crash at t=2; stale after 3 missed cycles → demoted by t=4.
        run(&mut p, &mut m, 2, 4, true);
        assert!(!p.agent_up(1));
        assert!(!p.node_live(1), "node demoted while down");
        // Live node got the reclaimed budget.
        assert!(p.applied_caps()[0] > 110.0 + 1.0);
        // Reboot at t=6; floor ack readmits within a cycle or two.
        run(&mut p, &mut m, 6, 3, true);
        assert!(p.agent_up(1));
        assert!(p.node_live(1), "rebooted node readmitted");
        assert_eq!(p.stats().stale_transitions, 1);
        assert_eq!(p.stats().readmissions, 1);
        // And the caps relax back toward the symmetric split.
        run(&mut p, &mut m, 9, 3, true);
        for a in p.applied_caps() {
            assert!((a - 110.0).abs() < 1e-9, "{:?}", p.applied_caps());
        }
    }

    #[test]
    fn partition_heals_without_agent_restart() {
        let mut config = FramedConfig::default();
        config.faults.push(FaultEvent::Partition {
            node: 0,
            at: 1.0,
            until: 7.0,
        });
        let mut p = plane(2, 2, config);
        let mut m = FixedManager {
            caps: vec![110.0; 4],
            budget: 440.0,
        };
        run(&mut p, &mut m, 0, 6, true);
        assert!(p.agent_up(0), "partition never kills the daemon");
        assert!(!p.node_live(0));
        // Partitioned node still holds its last caps (hold through
        // silence).
        assert!((p.applied_caps()[0] - 110.0).abs() < 1e-9);
        run(&mut p, &mut m, 6, 4, true);
        assert!(p.node_live(0), "healed partition readmits via floor ack");
    }

    #[test]
    fn corrupt_burst_survived() {
        let mut config = FramedConfig::default();
        config.faults.push(FaultEvent::CorruptBurst {
            node: 0,
            at: 2.0,
            until: 10.0,
            prob: 0.3,
        });
        let mut p = plane(2, 2, config);
        let mut m = FixedManager {
            caps: vec![130.0, 90.0, 120.0, 100.0],
            budget: 440.0,
        };
        // Non-strict through the burst: a corrupted frame can forge a
        // SetCap no controller can pre-authorize; the plane's job is to
        // detect (stray acks) and repair (corrective re-sends) it.
        run(&mut p, &mut m, 0, 12, false);
        // Clean cycles after the burst: fully repaired and safe again.
        run(&mut p, &mut m, 12, 4, true);
        assert!(p.stats().frames_corrupted > 0);
        assert!(p.stats().frames_undecodable > 0, "decode-None path hit");
        for (a, want) in p.applied_caps().iter().zip(&m.caps) {
            assert!((a - want).abs() < 1e-9, "{a} vs {want}");
        }
        assert!(p.live_believed_sum() <= m.budget + wire_slack(4));
    }

    #[test]
    fn determinism_per_seed() {
        let build = || {
            let mut config = FramedConfig::default();
            config.link.drop_prob = 0.15;
            config.link.jitter = 20e-6;
            plane(2, 2, config)
        };
        let mut a = build();
        let mut b = build();
        let mut ma = FixedManager {
            caps: vec![150.0, 70.0, 120.0, 100.0],
            budget: 440.0,
        };
        let mut mb = FixedManager {
            caps: ma.caps.clone(),
            budget: 440.0,
        };
        run(&mut a, &mut ma, 0, 20, false);
        run(&mut b, &mut mb, 0, 20, false);
        assert_eq!(a.applied_caps(), b.applied_caps());
        assert_eq!(a.stats(), b.stats());
    }
}
