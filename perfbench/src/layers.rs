//! Per-layer metrics: read from the flight recorder through
//! `opennf-prof`, from the NF probes, and from timed replays of captured
//! data through the wire codec.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use opennf_packet::{FlowKey, Packet, TcpFlags};
use opennf_prof::{profile, SpanForest, Trace};
use opennf_rt::{wire, WireMsg, WireReply};
use opennf_telemetry::Telemetry;

use crate::probe::{Probes, CAPTURE_CHUNKS};
use crate::report::Report;
use crate::stats::{median, percentile, sorted};

/// Op phases reported per layer: span name → metric stem.
const PHASES: [(&str, &str); 9] = [
    ("move.export", "export"),
    ("move.transfer", "transfer"),
    ("move.import", "import"),
    ("move.flush", "flush"),
    ("move.fwd_update", "fwd_update"),
    ("copy.export", "copy_export"),
    ("copy.import", "copy_import"),
    ("share.arm", "share_arm"),
    ("share.init_sync", "share_sync"),
];

/// What the op spans of one trace say.
#[derive(Debug, Default)]
pub struct OpSpans {
    /// Median per phase (metric stem → ms), for the phases the run had.
    /// `fwd_update` is self time: its span minus what its children cover.
    pub phase_ms_p50: BTreeMap<&'static str, f64>,
    /// Median admission-queue wait, ms.
    pub queue_wait_ms_p50: f64,
    /// 90th-percentile admission-queue wait, ms.
    pub queue_wait_ms_p90: f64,
    /// `sched.decision` events.
    pub decisions: u64,
    /// Busy ÷ window of the thread that ran the ops (prof utilisation).
    pub dispatch_busy_share: f64,
    /// Share of op wall time no phase span covers.
    pub unattributed_share: f64,
    /// Spans reconstructed.
    pub spans: usize,
}

/// A span's duration minus the part of it its children cover.
fn self_ns(f: &SpanForest, ix: usize) -> Option<u64> {
    let s = &f.spans[ix];
    let t1 = s.t1?;
    let mut kids: Vec<(u64, u64)> = s
        .children
        .iter()
        .map(|&c| &f.spans[c])
        .map(|c| (c.t0.max(s.t0), c.t1.unwrap_or(t1).min(t1)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, s.t0);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    Some((t1 - s.t0).saturating_sub(covered))
}

/// Analyses the op spans of a live telemetry handle.
pub fn op_spans(tel: &Telemetry) -> OpSpans {
    let trace = Trace::from_telemetry(tel);
    let prof = profile(&trace);

    let mut by_phase: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut op_ns, mut phase_ns) = (0u64, 0u64);
    for o in &prof.ops {
        op_ns += o.total_ns;
        for (name, d) in &o.phases {
            phase_ns += d;
            by_phase
                .entry(name.as_str())
                .or_default()
                .push(*d as f64 / 1e6);
        }
    }
    // The profile has each phase's whole span; `move.fwd_update` is
    // reported as self time, which needs the span tree.
    let f = SpanForest::build(&trace.records);
    let fwd: Vec<f64> = (0..f.spans.len())
        .filter(|&ix| f.spans[ix].name == "move.fwd_update")
        .filter_map(|ix| self_ns(&f, ix))
        .map(|ns| ns as f64 / 1e6)
        .collect();
    if !fwd.is_empty() {
        by_phase.insert("move.fwd_update", fwd);
    }
    let phase_ms_p50 = PHASES
        .iter()
        .filter_map(|(span, stem)| by_phase.get(span).map(|v| (*stem, median(v))))
        .collect();
    let waits = sorted(
        prof.ops
            .iter()
            .filter(|o| o.op.is_some())
            .map(|o| o.queue_wait_ns as f64 / 1e6)
            .collect(),
    );
    // The thread that opens the ops' root spans runs them.
    let dispatch_busy_share = f
        .spans
        .iter()
        .find(|s| matches!(s.name.as_str(), "move" | "copy" | "share"))
        .and_then(|root| prof.tids.iter().find(|u| u.tid == root.tid))
        .map(|u| u.busy_ns as f64 / u.window_ns.max(1) as f64)
        .unwrap_or(0.0);
    OpSpans {
        phase_ms_p50,
        queue_wait_ms_p50: percentile(&waits, 50.0),
        queue_wait_ms_p90: percentile(&waits, 90.0),
        decisions: f
            .events
            .iter()
            .filter(|e| e.name == "sched.decision")
            .count() as u64,
        dispatch_busy_share,
        unattributed_share: op_ns.saturating_sub(phase_ns) as f64 / op_ns.max(1) as f64,
        spans: prof.span_count,
    }
}

/// The NF-layer metrics every workload reports, from the probes.
/// `busy_share` is the probes' busy time over the instances' window.
pub fn nf_metrics(p: &Probes, busy_share: f64, r: &mut Report) {
    r.gate("nf.process_ns_per_pkt", "ns", p.process.ns_per_item());
    r.gate("nf.get_perflow_ns_per_flow", "ns", p.get.ns_per_item());
    r.gate("nf.put_perflow_ns_per_flow", "ns", p.put.ns_per_item());
    r.gate("nf.del_perflow_ns_per_flow", "ns", p.del.ns_per_item());
    r.gate("nf.busy_share", "ratio", busy_share);
}

/// Median wall time of `reps` runs of `f`, ns.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Replays the chunk batch the probes captured, as the `ChunkBatch`
/// reply a worker streams, through `wire::encode_frames` and
/// `wire::decode_frame`; and one packet of `key` through the packet
/// codec the data path uses.
pub fn wire_replay(p: &Probes, r: &mut Report) {
    let chunks = p
        .batch
        .lock()
        .expect("no probe panics while holding the batch")
        .clone();
    if chunks.len() < CAPTURE_CHUNKS {
        r.problem(format!(
            "wire replay: captured {} of {CAPTURE_CHUNKS} chunks",
            chunks.len()
        ));
    }
    let msg = WireMsg::Response {
        id: 1,
        reply: WireReply::ChunkBatch {
            seq: 0,
            last: false,
            chunks,
        },
    };
    let frame = wire::encode_frames(std::slice::from_ref(&msg), CAPTURE_CHUNKS).remove(0);
    let enc = time_median(200, || {
        std::hint::black_box(wire::encode_frames(
            std::slice::from_ref(&msg),
            CAPTURE_CHUNKS,
        ));
    });
    let dec = time_median(200, || {
        std::hint::black_box(wire::decode_frame(&frame).expect("replayed frame decodes"));
    });
    let key = FlowKey::tcp(
        Ipv4Addr::new(10, 0, 0, 1),
        40_000,
        Ipv4Addr::new(93, 184, 216, 34),
        80,
    );
    let pkt = WireMsg::Packet {
        packet: Packet::builder(1, key).flags(TcpFlags::ACK).build(),
    };
    let codec = time_median(200, || {
        for _ in 0..100 {
            std::hint::black_box(wire::decode_frame(&pkt.to_json()).expect("packet decodes"));
        }
    }) / 100.0;
    r.gate("wire.batch_encode_us", "us", enc / 1e3);
    r.gate("wire.batch_decode_us", "us", dec / 1e3);
    r.gate("wire.pkt_codec_ns", "ns", codec);
}
