//! The software switch of the threaded runtime: an atomically-updated
//! priority rule table mapping packets to worker indices. Generator
//! threads call [`Router::route`] on every packet; the controller swaps
//! rules during a move.
//!
//! The table also keeps one *ingress gauge* per worker: how many packets
//! [`Router::route`] has steered to that worker which the worker has not
//! yet received. `route` counts while it still holds the table's read
//! lock, so once [`Router::install`] has taken the write lock every packet
//! routed under the old rules is on some gauge. A move's post-flip drain
//! ends when the source's gauge reads zero.
//!
//! Gauge updates are `AcqRel` and reads `Acquire`: a worker's release
//! happens after it handled the packet and queued the events it raised,
//! so the engine's read of zero also orders those sends before it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use opennf_packet::{Filter, Packet};

/// One rule: priority, match, worker index.
#[derive(Debug, Clone)]
struct Rule {
    priority: u16,
    filter: Filter,
    worker: usize,
}

/// The rule table. Cheap reads (every packet), rare writes (moves).
#[derive(Default)]
pub struct Router {
    rules: RwLock<Vec<Rule>>,
    /// Per-worker ingress gauges (empty for a router built outside a
    /// controller: nothing is counted then).
    ingress: Vec<Arc<AtomicU64>>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty router counting ingress for `workers` workers.
    pub(crate) fn with_workers(workers: usize) -> Self {
        Router {
            rules: RwLock::default(),
            ingress: (0..workers).map(|_| Arc::new(AtomicU64::new(0))).collect(),
        }
    }

    /// Installs a rule. Higher priority wins; equal priority, later
    /// install wins. A rule with the same priority and filter as the new
    /// one is replaced rather than kept shadowed, so re-routing one scope
    /// over and over never grows the table.
    pub fn install(&self, priority: u16, filter: Filter, worker: usize) {
        let mut rules = self.rules.write();
        rules.retain(|r| r.priority != priority || r.filter != filter);
        let pos = rules.iter().position(|r| r.priority <= priority).unwrap_or(rules.len());
        rules.insert(pos, Rule { priority, filter, worker });
    }

    /// Routes a packet to a worker index, if any rule matches, and counts
    /// it on that worker's ingress gauge. The caller must send the packet
    /// to that worker exactly once.
    pub fn route(&self, pkt: &Packet) -> Option<usize> {
        let rules = self.rules.read();
        let w = Self::find(&rules, pkt)?;
        if let Some(g) = self.ingress.get(w) {
            g.fetch_add(1, Ordering::AcqRel);
        }
        Some(w)
    }

    /// Where the table points `pkt` now, without counting it: for
    /// controller-internal replays, which the worker never decrements.
    pub(crate) fn lookup(&self, pkt: &Packet) -> Option<usize> {
        Self::find(&self.rules.read(), pkt)
    }

    fn find(rules: &[Rule], pkt: &Packet) -> Option<usize> {
        rules.iter().find(|r| r.filter.matches_packet(pkt)).map(|r| r.worker)
    }

    /// Worker `w`'s ingress gauge, shared with the worker (which releases
    /// it on receipt) and its fault-shimmed data link.
    pub(crate) fn gauge(&self, w: usize) -> Arc<AtomicU64> {
        self.ingress[w].clone()
    }

    /// Packets routed to worker `w` that it has not yet received.
    pub(crate) fn in_flight(&self, w: usize) -> u64 {
        self.ingress.get(w).map_or(0, |g| g.load(Ordering::Acquire))
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.read().len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.read().is_empty()
    }
}

/// Takes `n` packets off an ingress gauge, saturating at zero (packets
/// sent without routing, as tests do, were never counted).
pub(crate) fn release(gauge: &AtomicU64, n: u64) {
    let _ = gauge.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(v.saturating_sub(n)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use opennf_packet::FlowKey;

    fn pkt(src: &str) -> Packet {
        Packet::builder(
            1,
            FlowKey::tcp(src.parse().unwrap(), 1, "1.1.1.1".parse().unwrap(), 80),
        )
        .build()
    }

    #[test]
    fn priority_routing() {
        let r = Router::new();
        r.install(0, Filter::any(), 0);
        r.install(10, Filter::from_src("10.0.0.0/8".parse().unwrap()), 1);
        assert_eq!(r.route(&pkt("10.1.1.1")), Some(1));
        assert_eq!(r.route(&pkt("11.1.1.1")), Some(0));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_router_routes_nothing() {
        let r = Router::new();
        assert!(r.is_empty());
        assert_eq!(r.route(&pkt("10.0.0.1")), None);
    }

    #[test]
    fn same_filter_and_priority_replaces_the_rule() {
        let r = Router::new();
        let net: Filter = Filter::from_src("10.0.0.0/8".parse().unwrap());
        let host: Filter = Filter::from_src("10.1.1.1/32".parse().unwrap());
        r.install(0, Filter::any(), 0);
        r.install(10, net, 1);
        r.install(10, host, 2);
        // Re-installing `net` replaces its rule and, as the latest install
        // at priority 10, now shadows the overlapping `host` rule.
        r.install(10, net, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.route(&pkt("10.1.1.1")), Some(3));
        assert_eq!(r.route(&pkt("10.2.2.2")), Some(3));
        // A different priority is a different rule.
        r.install(9, net, 4);
        assert_eq!(r.len(), 4);
        for w in 0..100 {
            r.install(10, net, w % 2);
        }
        assert_eq!(r.len(), 4, "bounded under repeated re-routing");
        assert_eq!(r.route(&pkt("10.2.2.2")), Some(1));
    }

    #[test]
    fn route_counts_ingress_and_lookup_does_not() {
        let r = Router::with_workers(2);
        r.install(0, Filter::any(), 1);
        assert_eq!(r.lookup(&pkt("10.0.0.1")), Some(1));
        assert_eq!(r.in_flight(1), 0);
        r.route(&pkt("10.0.0.1"));
        r.route(&pkt("10.0.0.2"));
        assert_eq!((r.in_flight(0), r.in_flight(1)), (0, 2));
        release(&r.gauge(1), 1);
        assert_eq!(r.in_flight(1), 1);
        release(&r.gauge(1), 5);
        assert_eq!(r.in_flight(1), 0, "saturates at zero");
    }

    #[test]
    fn concurrent_reads_during_write() {
        use std::sync::Arc;
        let r = Arc::new(Router::new());
        r.install(0, Filter::any(), 0);
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let _ = r.route(&pkt("10.0.0.1"));
                    }
                })
            })
            .collect();
        for i in 0..50 {
            r.install(1 + i, Filter::any(), (i % 2) as usize);
        }
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 51);
    }
}
