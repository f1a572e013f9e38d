//! The post-flip ingress drain and per-filter event ownership, end to end
//! through the engine.
//!
//! A move may tear its source's event filter down only once every packet
//! routed to the source under the old rule has been handled there. The
//! router counts each routed packet on the destination worker's ingress
//! gauge and the worker releases it on receipt, so the drain is exact even
//! for a packet that sits between `Router::route` and its send.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use opennf_nf::{EventedNf, NetworkFunction};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowKey, Packet, TcpFlags};
use opennf_rt::{OpSpec, RtController, WireMsg};

/// Flow `flow` of the `/16` scope `10.<net>.0.0`.
fn pkt(uid: u64, net: u8, flow: u16) -> Packet {
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, net, (flow >> 8) as u8, flow as u8),
        2000 + flow,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    Packet::builder(uid, key).flags(TcpFlags::SYN).build()
}

fn scope(net: u8) -> Filter {
    Filter::from_src(format!("10.{net}.0.0/16").parse().unwrap())
}

fn controller(workers: usize) -> RtController {
    RtController::new(
        (0..workers).map(|_| Box::new(AssetMonitor::new()) as Box<dyn NetworkFunction>).collect(),
    )
}

/// Every uid processed anywhere, sorted (one processed twice shows twice).
fn processed(hs: &[EventedNf]) -> Vec<u64> {
    let mut all: Vec<u64> = hs.iter().flat_map(|h| h.processed_log().iter().copied()).collect();
    all.sort_unstable();
    all
}

fn twice(all: &[u64]) -> Vec<u64> {
    all.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect()
}

/// A generator routes packet P to the source, then stalls for 60 ms before
/// sending it — longer than any idle timer a drain could use — while the
/// move flips the route. P must still be handled under the move's filter
/// (dropped at the source, replayed to the destination), so it is
/// processed exactly once and the source ends with no state for the scope.
#[test]
fn packet_held_between_route_and_send_is_drained_into_the_move() {
    const P: u64 = 999;
    let f = scope(1);
    let mut ctrl = controller(2);
    for flow in 0..8u16 {
        ctrl.inject(pkt(flow as u64 + 1, 1, flow)).unwrap();
    }
    ctrl.quiesce(0).unwrap();

    let router = ctrl.router.clone();
    let tx = ctrl.worker_tx(0);
    let (routed_tx, routed_rx) = mpsc::channel();
    let gen = thread::spawn(move || {
        let p = pkt(P, 1, 3);
        let w = router.route(&p).expect("default route");
        routed_tx.send(w).unwrap();
        thread::sleep(Duration::from_millis(60));
        tx.send(WireMsg::Packet { packet: p }.to_json()).unwrap();
    });
    assert_eq!(routed_rx.recv().unwrap(), 0, "P routed to the source before the flip");
    let stats = ctrl.move_flows_lossfree(0, 1, f).expect("move commits");
    assert_eq!(stats.chunks, 8);
    gen.join().unwrap();

    let mut hs = ctrl.shutdown();
    let all = processed(&hs);
    assert_eq!(all.iter().filter(|&&u| u == P).count(), 1, "P processed exactly once");
    assert!(twice(&all).is_empty(), "no uid processed twice");
    assert!(hs[0].processed_log().iter().all(|&u| u != P), "P not processed at the source");
    assert!(hs[0].nf_mut().get_perflow(&f).is_empty(), "the source holds no state for the scope");
    assert_eq!(hs[1].nf_mut().get_perflow(&f).len(), 8, "the destination holds all of it");
}

/// A routed packet that is never sent leaks its gauge count. The drain can
/// then never read zero, and the move commits on the `FWD_DRAIN` ceiling
/// (200 ms) instead of hanging.
#[test]
fn leaked_ingress_gauge_commits_on_the_drain_ceiling() {
    let f = scope(1);
    let mut ctrl = controller(2);
    for flow in 0..4u16 {
        ctrl.inject(pkt(flow as u64 + 1, 1, flow)).unwrap();
    }
    ctrl.quiesce(0).unwrap();
    assert_eq!(ctrl.router.route(&pkt(77, 1, 0)), Some(0), "routed, never sent");

    let t0 = Instant::now();
    let stats = ctrl.move_flows_lossfree(0, 1, f).expect("move commits");
    let took = t0.elapsed();
    assert_eq!(stats.chunks, 4);
    assert!(took >= Duration::from_millis(200), "waited out the ceiling: {took:?}");
    assert!(took < Duration::from_secs(1), "bounded by the ceiling: {took:?}");
    ctrl.shutdown();
}

/// Two concurrent shares arm disjoint filters at one source under live
/// traffic. Each event must go to the share whose filter raised it: had
/// the first share taken the second's events, it would replay them to the
/// source while the second's filter is still armed, the source would
/// raise them again, and the second share would replay them a second time.
#[test]
fn concurrent_shares_from_one_source_process_every_packet_once() {
    let (a, b) = (scope(1), scope(2));
    let mut ctrl = controller(3);
    // Scope b is much larger than scope a, so the first share finishes
    // while the second is still streaming.
    for flow in 0..400u16 {
        ctrl.inject(pkt(flow as u64 + 1, 1, flow)).unwrap();
    }
    for flow in 0..4_000u16 {
        ctrl.inject(pkt(1_000 + flow as u64, 2, flow)).unwrap();
    }
    ctrl.quiesce(0).unwrap();

    let router = ctrl.router.clone();
    let tx = ctrl.worker_tx(0);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_gen = stop.clone();
    let gen = thread::spawn(move || {
        let mut uid = 10_000u64;
        while !stop_gen.load(Ordering::Acquire) {
            let net = 1 + (uid % 2) as u8;
            let p = pkt(uid, net, (uid % 4) as u16);
            if let Some(w) = router.route(&p) {
                assert_eq!(w, 0, "shares never re-route");
                tx.send(WireMsg::Packet { packet: p }.to_json()).unwrap();
            }
            uid += 1;
            thread::sleep(Duration::from_micros(50));
        }
    });
    thread::sleep(Duration::from_millis(5));
    let results = ctrl.run_ops(vec![OpSpec::share(0, 1, a), OpSpec::share(0, 2, b)]);
    stop.store(true, Ordering::Release);
    gen.join().unwrap();
    for r in &results {
        r.as_ref().expect("share commits");
    }
    ctrl.quiesce(0).unwrap();

    let hs = ctrl.shutdown();
    let all = processed(&hs);
    assert!(twice(&all).is_empty(), "uids processed twice: {:?}", twice(&all));
}
