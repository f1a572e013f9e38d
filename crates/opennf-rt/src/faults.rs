//! Deterministic channel-fault injection for the threaded runtime.
//!
//! The simulator injects faults at its event queue; the threaded runtime
//! has no queue — just crossbeam channels between the controller, the
//! router (generator threads), and the NF workers. [`FaultyChannel`] wraps
//! the sending side of each of those links and consumes the *same* seeded
//! [`FaultPlan`] the simulator does:
//!
//! * **Node layout** — the plan addresses links by [`NodeId`], using the
//!   simulator's fixed scenario layout: controller = [`CTRL_NODE`] (0),
//!   router/switch = [`ROUTER_NODE`] (1), worker *i* = [`worker_node`]\(i)
//!   (2 + i). A plan written against a two-instance sim scenario therefore
//!   applies verbatim here.
//! * **Virtual time → wall clock** — virtual [`Time`] maps 1:1 onto wall
//!   nanoseconds since the shim was armed ([`RtFaults::now`]): a plan
//!   window `[10 ms, 20 ms)` is the wall-clock interval 10–20 ms into the
//!   run. Rule windows, crash windows, and stall windows all use this
//!   mapping.
//! * **Determinism without a global order** — thread interleaving makes a
//!   global dice stream (what the simulator uses) non-replayable here.
//!   Instead each verdict is a pure function of
//!   `(plan.seed, src, dst, message bytes)`: the message's FNV-1a hash
//!   seeds a private [`SimRng`] stream that rolls once per matching rule,
//!   in plan order — exactly the simulator's rule-matching discipline, but
//!   content-addressed. Re-running a scenario that produces the same
//!   per-link message *set* yields the identical injected-fault ledger,
//!   regardless of interleaving. (The sim's dice stream is different, so
//!   *which* packets a probabilistic rule hits differs between runtimes —
//!   an enumerated divergence; see DESIGN.md "Cross-runtime fault model".)
//! * **Worker kills/restarts** — a `crash(n, t)`/`restart(n, t)` pair is a
//!   reachability window, as in the simulator: messages sent to the node
//!   inside `[crash, restart)` are discarded and recorded as lost; the
//!   process itself keeps its state (a recovered process, not a fresh
//!   one), matching the sim's crash semantics.
//! * **Delays / duplicates / reorders** — shifted copies are handed to a
//!   single *delay pump* thread that redelivers them at their due wall
//!   time. The pump exits once every [`FaultyChannel`] clone is dropped;
//!   [`RtFaults::join_pump`] waits for that (used by shutdown-cleanliness
//!   tests).
//!
//! Every injected fault lands in the shared [`RtFaults`] ledger: a
//! [`FaultEvent`] log plus the packet uids lost and duplicated, which is
//! what the exactly-once-or-accounted oracle consumes.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use opennf_telemetry::Telemetry;
use opennf_util::{Dur, FaultEvent, FaultKind, FaultPlan, NodeId, SimRng, Time};
use parking_lot::Mutex;

use crate::router::release;
use crate::wire::{WireEvent, WireMsg};

/// The controller's node id in fault plans (simulator layout).
pub const CTRL_NODE: NodeId = NodeId(0);

/// The router's node id in fault plans (the simulator's switch).
pub const ROUTER_NODE: NodeId = NodeId(1);

/// Worker `i`'s node id in fault plans (the simulator's instance `i`).
pub fn worker_node(i: usize) -> NodeId {
    NodeId(2 + i)
}

/// Everything the shim injected, in injection order. Packet uids are
/// recorded for losses and duplicates so the oracle can excuse them.
#[derive(Debug, Default, Clone)]
pub struct FaultLedger {
    /// Summary of every injected fault.
    pub log: Vec<FaultEvent>,
    /// Uids of data packets that never arrived (drops + crash-window
    /// losses). Non-packet messages (requests/replies) that are dropped
    /// appear in `log` only.
    pub lost_uids: Vec<u64>,
    /// Uids of data packets delivered more than once.
    pub duplicated_uids: Vec<u64>,
}

impl FaultLedger {
    /// Lost uids, sorted and deduplicated (oracle form).
    pub fn lost_sorted(&self) -> Vec<u64> {
        let mut v = self.lost_uids.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Duplicated uids, sorted and deduplicated (oracle form).
    pub fn duplicated_sorted(&self) -> Vec<u64> {
        let mut v = self.duplicated_uids.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A canonical, interleaving-independent form of the ledger: per-kind
    /// fault counts plus the sorted lost/duplicated uid sets. Two runs of
    /// the same seeded scenario compare equal on this even though their
    /// `log` orders differ.
    pub fn canonical(&self) -> (Vec<(&'static str, usize)>, Vec<u64>, Vec<u64>) {
        let mut counts = [("dropped", 0usize), ("delayed", 0), ("duplicated", 0), ("reordered", 0), ("lost_at_crashed", 0), ("stalled", 0)];
        for ev in &self.log {
            let slot = match ev {
                FaultEvent::Dropped { .. } => 0,
                FaultEvent::Delayed { .. } => 1,
                FaultEvent::Duplicated { .. } => 2,
                FaultEvent::Reordered { .. } => 3,
                FaultEvent::LostAtCrashedNode { .. } => 4,
                FaultEvent::Stalled { .. } => 5,
            };
            counts[slot].1 += 1;
        }
        (counts.to_vec(), self.lost_sorted(), self.duplicated_sorted())
    }
}

/// A delayed redelivery owned by the pump thread. Opaque outside this
/// module — callers only ever hold the `Sender<PumpJob>` end returned by
/// [`RtFaults::arm`].
pub struct PumpJob {
    due: Instant,
    seq: u64,
    target: Sender<String>,
    json: String,
}

impl PartialEq for PumpJob {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for PumpJob {}
impl PartialOrd for PumpJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PumpJob {
    // Reversed: BinaryHeap is a max-heap, we want the soonest job on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

fn pump_loop(rx: Receiver<PumpJob>) {
    let mut heap: BinaryHeap<PumpJob> = BinaryHeap::new();
    loop {
        let next_due = heap.peek().map(|j| j.due);
        match next_due {
            None => match rx.recv() {
                Ok(job) => heap.push(job),
                Err(_) => return, // no jobs, no senders: done
            },
            Some(due) => {
                let now = Instant::now();
                if due <= now {
                    let job = heap.pop().expect("peeked");
                    // The target worker may have shut down; that loss is
                    // already accounted (or benign at teardown).
                    let _ = job.target.send(job.json);
                    continue;
                }
                match rx.recv_timeout(due - now) {
                    Ok(job) => heap.push(job),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        // Drain remaining jobs at their due times.
                        while let Some(job) = heap.pop() {
                            let now = Instant::now();
                            if job.due > now {
                                std::thread::sleep(job.due - now);
                            }
                            let _ = job.target.send(job.json);
                        }
                        return;
                    }
                }
            }
        }
    }
}

/// Shared fault-injection state for one threaded run: the plan, the
/// wall-clock epoch, and the ledger.
pub struct RtFaults {
    plan: FaultPlan,
    epoch: Instant,
    ledger: Mutex<FaultLedger>,
    pump_join: Mutex<Option<std::thread::JoinHandle<()>>>,
    pump_seq: Mutex<u64>,
    /// Late-bound telemetry: when set, every injected fault also lands in
    /// the flight recorder as a `fault.*` event (the ledger stays the
    /// source of truth for the oracle).
    tel: OnceLock<Telemetry>,
}

impl RtFaults {
    /// Arms `plan`; virtual `Time::ZERO` is the moment this is called.
    /// Returns the shared state plus the pump-job sender every
    /// [`FaultyChannel`] built from it must hold.
    pub fn arm(plan: FaultPlan) -> (Arc<RtFaults>, Sender<PumpJob>) {
        let (tx, rx) = unbounded();
        let join = std::thread::Builder::new()
            .name("fault-pump".into())
            .spawn(move || pump_loop(rx))
            .expect("spawn fault pump");
        let rt = Arc::new(RtFaults {
            plan,
            epoch: Instant::now(),
            ledger: Mutex::new(FaultLedger::default()),
            pump_join: Mutex::new(Some(join)),
            pump_seq: Mutex::new(0),
            tel: OnceLock::new(),
        });
        (rt, tx)
    }

    /// Attaches a telemetry handle (first call wins): injected faults are
    /// mirrored into its flight recorder from then on.
    pub fn set_telemetry(&self, tel: Telemetry) {
        let _ = self.tel.set(tel);
    }

    fn emit(&self, name: &'static str, arg: String) {
        if let Some(tel) = self.tel.get() {
            tel.event(name, Some(arg));
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Current virtual time: wall nanoseconds since arming, 1:1.
    pub fn now(&self) -> Time {
        Time(self.epoch.elapsed().as_nanos() as u64)
    }

    /// A copy of the ledger as of now.
    pub fn ledger(&self) -> FaultLedger {
        self.ledger.lock().clone()
    }

    /// Waits for the delay pump to exit. Every [`FaultyChannel`] clone
    /// must be dropped first (the pump runs until its job channel
    /// disconnects), so call this after worker shutdown.
    pub fn join_pump(&self) {
        if let Some(j) = self.pump_join.lock().take() {
            let _ = j.join();
        }
    }

    fn next_seq(&self) -> u64 {
        let mut s = self.pump_seq.lock();
        *s += 1;
        *s
    }

    /// Content-addressed dice: one roll per matching rule, in plan order —
    /// the simulator's discipline, but seeded per message so verdicts are
    /// independent of thread interleaving.
    fn verdict(&self, src: NodeId, dst: NodeId, t: Time, json: &str) -> Option<FaultKind> {
        let mut rng = SimRng::new(
            self.plan.seed
                ^ (src.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (dst.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ fnv1a(json.as_bytes()),
        );
        for rule in &self.plan.links {
            if rule.applies(src, dst, t) && rng.below(1000) < rule.per_mille as u64 {
                return Some(rule.kind);
            }
        }
        None
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The uid of the data packet one wire message carries, if any.
fn msg_uid(msg: &WireMsg) -> Option<u64> {
    match msg {
        WireMsg::Packet { packet } => Some(packet.uid),
        WireMsg::Event { ev: WireEvent::PacketReceived { packet }, .. } => Some(packet.uid),
        WireMsg::Event { ev: WireEvent::PacketProcessed { packet }, .. } => Some(packet.uid),
        _ => None,
    }
}

/// The uids of every data packet a channel payload carries. A payload may
/// be a single message or a coalesced frame; a fault hits the whole frame,
/// so every packet inside it must be accounted.
fn packet_uids(json: &str) -> Vec<u64> {
    match crate::wire::decode_frame(json) {
        Ok(msgs) => msgs.iter().filter_map(msg_uid).collect(),
        Err(_) => Vec::new(),
    }
}

/// How many fresh (routed, not replayed) packets a channel payload
/// carries: what a router → worker link's ingress gauge counts.
fn fresh_packets(json: &str) -> u64 {
    match crate::wire::decode_frame(json) {
        Ok(msgs) => msgs
            .iter()
            .filter(|m| matches!(m, WireMsg::Packet { packet } if !packet.do_not_drop))
            .count() as u64,
        Err(_) => 0,
    }
}

/// The sending half of one directed link, with the fault shim applied.
///
/// In passthrough mode (no plan armed) it forwards straight to the
/// underlying crossbeam sender with zero overhead beyond a branch.
#[derive(Clone)]
pub struct FaultyChannel {
    target: Sender<String>,
    shim: Option<LinkShim>,
}

#[derive(Clone)]
struct LinkShim {
    src: NodeId,
    dst: NodeId,
    faults: Arc<RtFaults>,
    pump: Sender<PumpJob>,
    /// Router → worker links: the destination's ingress gauge, kept exact
    /// across faults (a lost packet leaves it, a duplicate joins it;
    /// delayed and stalled packets stay on it until delivered).
    ingress: Option<Arc<AtomicU64>>,
}

/// The error a faulty send surfaces when the receiving thread is gone —
/// same shape as crossbeam's `SendError`, minus the payload (it may have
/// been consumed by the shim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkClosed;

impl FaultyChannel {
    /// A shim-free channel: sends go straight through.
    pub fn passthrough(target: Sender<String>) -> Self {
        FaultyChannel { target, shim: None }
    }

    /// Whether a fault plan is armed on this link. Senders that coalesce
    /// messages into frames must not do so across a shimmed link when the
    /// grouping is timing-dependent: verdicts are content-addressed, so a
    /// frame whose composition varies between reruns would make the
    /// injected-fault ledger non-reproducible.
    pub fn is_shimmed(&self) -> bool {
        self.shim.is_some()
    }

    /// Wraps the `src → dst` link with `faults`.
    pub fn shimmed(
        target: Sender<String>,
        src: NodeId,
        dst: NodeId,
        faults: Arc<RtFaults>,
        pump: Sender<PumpJob>,
    ) -> Self {
        FaultyChannel { target, shim: Some(LinkShim { src, dst, faults, pump, ingress: None }) }
    }

    /// Keeps `gauge` (the destination's ingress gauge) exact across the
    /// faults this link injects. A passthrough link injects none.
    pub(crate) fn with_ingress(mut self, gauge: Arc<AtomicU64>) -> Self {
        if let Some(shim) = &mut self.shim {
            shim.ingress = Some(gauge);
        }
        self
    }

    /// Sends a wire message through the link, applying any matching fault.
    pub fn send(&self, msg: &WireMsg) -> Result<(), LinkClosed> {
        self.send_json(msg.to_json())
    }

    /// Sends pre-serialized JSON through the link, applying any matching
    /// fault. `Ok(())` means the message was *consumed* — delivered,
    /// delayed, or injected away (a dropped message is a success from the
    /// sender's point of view, exactly as on a real network).
    pub fn send_json(&self, json: String) -> Result<(), LinkClosed> {
        let Some(shim) = &self.shim else {
            return self.target.send(json).map_err(|_| LinkClosed);
        };
        let f = &shim.faults;
        let t = f.now();

        // Delivery to a crashed node: discarded and recorded, as in the
        // simulator's delivery-time check. (Channels have no distinct
        // delivery step, so the send instant stands in for it.)
        if f.plan.is_down(shim.dst, t) {
            {
                let mut led = f.ledger.lock();
                led.log.push(FaultEvent::LostAtCrashedNode { time: t, dst: shim.dst });
                led.lost_uids.extend(packet_uids(&json));
            }
            shim.lose(&json);
            f.emit("fault.crash_loss", format!("dst={}", shim.dst.0));
            return Ok(());
        }

        // Stall window: defer to the window's end.
        if let Some(until) = f.plan.stall_until(shim.dst, t) {
            f.ledger.lock().log.push(FaultEvent::Stalled { time: t, dst: shim.dst, until });
            f.emit("fault.stall", format!("dst={} until_ns={}", shim.dst.0, until.as_nanos()));
            self.pump_at(shim, until, json);
            return Ok(());
        }

        match f.verdict(shim.src, shim.dst, t, &json) {
            None => self.target.send(json).map_err(|_| LinkClosed),
            Some(FaultKind::Drop) => {
                {
                    let mut led = f.ledger.lock();
                    led.log.push(FaultEvent::Dropped { time: t, src: shim.src, dst: shim.dst });
                    led.lost_uids.extend(packet_uids(&json));
                }
                shim.lose(&json);
                f.emit("fault.drop", format!("src={} dst={}", shim.src.0, shim.dst.0));
                Ok(())
            }
            Some(FaultKind::Delay(by)) => {
                f.ledger.lock().log.push(FaultEvent::Delayed {
                    time: t,
                    src: shim.src,
                    dst: shim.dst,
                    by,
                });
                f.emit(
                    "fault.delay",
                    format!("src={} dst={} by_ns={}", shim.src.0, shim.dst.0, by.as_nanos()),
                );
                self.pump_at(shim, t + by, json);
                Ok(())
            }
            Some(FaultKind::Duplicate(gap)) => {
                {
                    let mut led = f.ledger.lock();
                    led.log.push(FaultEvent::Duplicated { time: t, src: shim.src, dst: shim.dst });
                    led.duplicated_uids.extend(packet_uids(&json));
                }
                f.emit("fault.duplicate", format!("src={} dst={}", shim.src.0, shim.dst.0));
                if let Some(g) = &shim.ingress {
                    g.fetch_add(fresh_packets(&json), Ordering::AcqRel);
                }
                self.pump_at(shim, t + gap, json.clone());
                self.target.send(json).map_err(|_| LinkClosed)
            }
            Some(FaultKind::Reorder(max)) => {
                // Jitter from the same content-addressed stream, one draw
                // past the verdict rolls, so it replays too.
                let mut rng =
                    SimRng::new(f.plan.seed ^ fnv1a(json.as_bytes()) ^ 0x7E12_0DE2_5A17_0000);
                let by = Dur::nanos(rng.below(max.as_nanos() + 1));
                f.ledger.lock().log.push(FaultEvent::Reordered {
                    time: t,
                    src: shim.src,
                    dst: shim.dst,
                    by,
                });
                f.emit(
                    "fault.reorder",
                    format!("src={} dst={} by_ns={}", shim.src.0, shim.dst.0, by.as_nanos()),
                );
                self.pump_at(shim, t + by, json);
                Ok(())
            }
        }
    }

    fn pump_at(&self, shim: &LinkShim, at: Time, json: String) {
        let due = shim.faults.epoch + Duration::from_nanos(at.as_nanos());
        let job =
            PumpJob { due, seq: shim.faults.next_seq(), target: self.target.clone(), json };
        // A closed pump only happens at teardown; the loss is benign.
        let _ = shim.pump.send(job);
    }
}

impl LinkShim {
    /// A payload that will never arrive leaves the ingress gauge.
    fn lose(&self, json: &str) {
        if let Some(g) = &self.ingress {
            release(g, fresh_packets(json));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opennf_packet::{FlowKey, Packet};

    fn pkt_json(uid: u64) -> String {
        let k = FlowKey::tcp("10.0.0.1".parse().unwrap(), 1000, "1.1.1.1".parse().unwrap(), 80);
        WireMsg::Packet { packet: Packet::builder(uid, k).build() }.to_json()
    }

    fn always() -> (Time, Time) {
        (Time::ZERO, Time(u64::MAX))
    }

    #[test]
    fn passthrough_forwards_everything() {
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::passthrough(tx);
        for uid in 1..=50 {
            ch.send_json(pkt_json(uid)).unwrap();
        }
        let mut got = 0;
        while rx.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, 50);
    }

    #[test]
    fn sever_drops_everything_and_records_uids() {
        let (from, until) = always();
        let plan = FaultPlan::new(3).sever(ROUTER_NODE, worker_node(0), from, until);
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump);
        for uid in 1..=20 {
            ch.send_json(pkt_json(uid)).unwrap();
        }
        assert!(rx.try_recv().is_err(), "all dropped");
        let led = faults.ledger();
        assert_eq!(led.lost_sorted(), (1..=20).collect::<Vec<_>>());
        assert!(led.log.iter().all(|e| matches!(e, FaultEvent::Dropped { .. })));
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn verdicts_are_content_deterministic_across_reruns() {
        let (from, until) = always();
        let run = || {
            let plan = FaultPlan::new(77).link(
                Some(ROUTER_NODE),
                Some(worker_node(0)),
                from,
                until,
                400,
                FaultKind::Drop,
            );
            let (faults, pump) = RtFaults::arm(plan);
            let (tx, _rx) = unbounded();
            let ch =
                FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump);
            for uid in 1..=200 {
                ch.send_json(pkt_json(uid)).unwrap();
            }
            drop(ch);
            faults.join_pump();
            faults.ledger().lost_sorted()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan + same messages => same losses");
        assert!(!a.is_empty() && a.len() < 200, "~40% drop rate at 400/1000");
    }

    #[test]
    fn verdicts_are_independent_of_send_order() {
        let (from, until) = always();
        let run = |rev: bool| {
            let plan = FaultPlan::new(12).link(
                Some(ROUTER_NODE),
                Some(worker_node(1)),
                from,
                until,
                500,
                FaultKind::Drop,
            );
            let (faults, pump) = RtFaults::arm(plan);
            let (tx, _rx) = unbounded();
            let ch =
                FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(1), faults.clone(), pump);
            let mut uids: Vec<u64> = (1..=100).collect();
            if rev {
                uids.reverse();
            }
            for uid in uids {
                ch.send_json(pkt_json(uid)).unwrap();
            }
            drop(ch);
            faults.join_pump();
            faults.ledger().lost_sorted()
        };
        assert_eq!(run(false), run(true), "verdicts are per-message, not per-sequence");
    }

    #[test]
    fn delay_redelivers_through_the_pump() {
        let (from, until) = always();
        let plan = FaultPlan::new(5).link(
            Some(CTRL_NODE),
            Some(worker_node(0)),
            from,
            until,
            1000,
            FaultKind::Delay(Dur::millis(30)),
        );
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::shimmed(tx, CTRL_NODE, worker_node(0), faults.clone(), pump);
        let t0 = Instant::now();
        ch.send_json(pkt_json(9)).unwrap();
        assert!(rx.try_recv().is_err(), "not delivered synchronously");
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("redelivered");
        assert!(t0.elapsed() >= Duration::from_millis(25), "held for ~30ms");
        assert_eq!(packet_uids(&got), vec![9]);
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn duplicate_delivers_twice_and_records_uid() {
        let (from, until) = always();
        let plan = FaultPlan::new(8).link(
            None,
            None,
            from,
            until,
            1000,
            FaultKind::Duplicate(Dur::millis(5)),
        );
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump);
        ch.send_json(pkt_json(4)).unwrap();
        let mut got = 0;
        while rx.recv_timeout(Duration::from_secs(1)).is_ok() {
            got += 1;
            if got == 2 {
                break;
            }
        }
        assert_eq!(got, 2, "original + duplicate");
        assert_eq!(faults.ledger().duplicated_sorted(), vec![4]);
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn crash_window_discards_until_restart() {
        // Crash from the epoch until far in the future: everything lost.
        let plan = FaultPlan::new(2)
            .crash(worker_node(0), Time::ZERO)
            .restart(worker_node(0), Time(u64::MAX));
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump);
        for uid in 1..=5 {
            ch.send_json(pkt_json(uid)).unwrap();
        }
        assert!(rx.try_recv().is_err(), "nothing delivered");
        let led = faults.ledger();
        assert_eq!(led.lost_sorted(), vec![1, 2, 3, 4, 5]);
        assert!(led.log.iter().all(|e| matches!(e, FaultEvent::LostAtCrashedNode { .. })));
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn dropped_frame_accounts_every_packet_inside() {
        // A fault verdict hits a whole coalesced frame; every packet it
        // carried must land in the ledger, not just the first.
        let (from, until) = always();
        let plan = FaultPlan::new(3).sever(ROUTER_NODE, worker_node(0), from, until);
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let ch = FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump);
        let k = FlowKey::tcp("10.0.0.1".parse().unwrap(), 1000, "1.1.1.1".parse().unwrap(), 80);
        let msgs: Vec<WireMsg> = (1..=6u64)
            .map(|uid| WireMsg::Packet { packet: Packet::builder(uid, k).build() })
            .collect();
        for frame in crate::wire::encode_frames(&msgs, 3) {
            ch.send_json(frame).unwrap();
        }
        assert!(rx.try_recv().is_err(), "all dropped");
        assert_eq!(faults.ledger().lost_sorted(), (1..=6).collect::<Vec<_>>());
        drop(ch);
        faults.join_pump();
    }

    /// A router → worker link with one fresh packet already routed (the
    /// gauge reads 1, as after `Router::route`) under `kind` on every send.
    fn gauged_link(kind: FaultKind) -> (FaultyChannel, Receiver<String>, Arc<RtFaults>, Arc<AtomicU64>) {
        let (from, until) = always();
        let plan =
            FaultPlan::new(4).link(Some(ROUTER_NODE), Some(worker_node(0)), from, until, 1000, kind);
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, rx) = unbounded();
        let gauge = Arc::new(AtomicU64::new(1));
        let ch = FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump)
            .with_ingress(gauge.clone());
        (ch, rx, faults, gauge)
    }

    #[test]
    fn dropped_fresh_packet_leaves_the_ingress_gauge() {
        let (ch, rx, faults, gauge) = gauged_link(FaultKind::Drop);
        ch.send_json(pkt_json(1)).unwrap();
        assert!(rx.try_recv().is_err(), "dropped");
        assert_eq!(gauge.load(Ordering::Acquire), 0, "a lost packet is no longer in flight");
        // A dropped replay was never routed, so it never counted.
        gauge.store(1, Ordering::Release);
        let k = FlowKey::tcp("10.0.0.1".parse().unwrap(), 1000, "1.1.1.1".parse().unwrap(), 80);
        let mut replay = Packet::builder(2, k).build();
        replay.do_not_drop = true;
        ch.send(&WireMsg::Packet { packet: replay }).unwrap();
        assert_eq!(gauge.load(Ordering::Acquire), 1, "replays leave the gauge alone");
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn duplicated_fresh_packet_joins_the_ingress_gauge() {
        let (ch, rx, faults, gauge) = gauged_link(FaultKind::Duplicate(Dur::millis(5)));
        ch.send_json(pkt_json(3)).unwrap();
        assert_eq!(gauge.load(Ordering::Acquire), 2, "original + duplicate both in flight");
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(1)).expect("both copies arrive");
        }
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn delayed_fresh_packet_stays_on_the_ingress_gauge() {
        let (ch, rx, faults, gauge) = gauged_link(FaultKind::Delay(Dur::millis(20)));
        ch.send_json(pkt_json(5)).unwrap();
        assert!(rx.try_recv().is_err(), "held by the pump");
        assert_eq!(gauge.load(Ordering::Acquire), 1, "still in flight while delayed");
        rx.recv_timeout(Duration::from_secs(2)).expect("redelivered");
        // Only the receiving worker releases a delivered packet.
        assert_eq!(gauge.load(Ordering::Acquire), 1);
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn crash_lost_fresh_packet_leaves_the_ingress_gauge() {
        let plan = FaultPlan::new(2)
            .crash(worker_node(0), Time::ZERO)
            .restart(worker_node(0), Time(u64::MAX));
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, _rx) = unbounded();
        let gauge = Arc::new(AtomicU64::new(1));
        let ch = FaultyChannel::shimmed(tx, ROUTER_NODE, worker_node(0), faults.clone(), pump)
            .with_ingress(gauge.clone());
        ch.send_json(pkt_json(6)).unwrap();
        assert_eq!(gauge.load(Ordering::Acquire), 0);
        drop(ch);
        faults.join_pump();
    }

    #[test]
    fn pump_exits_once_channels_drop() {
        let plan = FaultPlan::new(1);
        let (faults, pump) = RtFaults::arm(plan);
        let (tx, _rx) = unbounded();
        let ch = FaultyChannel::shimmed(tx, CTRL_NODE, worker_node(0), faults.clone(), pump);
        ch.send_json(pkt_json(1)).unwrap();
        drop(ch);
        // join_pump returns promptly because all pump senders are gone.
        let t0 = Instant::now();
        faults.join_pump();
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
