//! The threaded-runtime workloads, `bulk_move` and `op_churn`.
//!
//! Load comes from two threads of the benchmark: a generator that sends
//! packets open loop on a fixed schedule, and the main thread acting as
//! the control app, which issues its next `run_ops` call only when the
//! previous one returned (closed loop). Each packet is timed from its due
//! time, so a stalled generator shows up as latency, and its lateness is
//! reported on its own.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use opennf_packet::{Filter, Packet, TcpFlags};
use opennf_rt::{OpClass, OpSpec, Router, RtController, WireMsg};
use opennf_telemetry::Telemetry;

use crate::inputs::RtPlan;
use crate::layers;
use crate::probe::Probes;
use crate::report::Report;
use crate::stats::{percentile, sorted, top_percentile, Accounting};

/// Uids of preloaded packets start here, far above any traffic uid.
const PRELOAD_UID: u64 = 1 << 40;

/// Segments of an untraced run. Each one sets the runtime up afresh,
/// runs its share of the op phase under its share of the packet
/// schedule, drains and is checked. The machine's speed drifts over
/// seconds; set-ups spread over the whole run follow that drift as the op
/// phase does, set-ups at one end of the run would not.
const SEGMENTS: usize = 10;

/// Set-ups at the start of each segment of an untraced run (the last one
/// runs the segment); `setup_s` is the median of all of them. One more,
/// untimed, warms the process up first: the first set-up of a process
/// runs on a cold heap and takes up to twice as long.
const SETUPS: usize = 5;

/// Flight-recorder capacity of a traced pass: far above what a run
/// records, so nothing is evicted.
const TRACE_CAPACITY: usize = 4_000_000;

/// A generator that sent more than [`BEHIND_SHARE`] of its packets more
/// than this late could not keep the offered rate: it fell behind and
/// the run is invalid. Shorter delays (the generator is one of several
/// busy threads) are jitter it recovers from; they are reported as
/// `gen.late_*` and are part of every packet's latency.
const BEHIND_NS: u64 = 10_000_000;
const BEHIND_SHARE: f64 = 0.01;

/// Rounds of the op schedule the input digest covers.
const DIGEST_ROUNDS: usize = 4_096;

/// What the generator thread saw.
#[derive(Default)]
struct GenOut {
    /// Per packet, ns between its due time and its send.
    late_ns: Vec<u64>,
    /// ns inside `Router::route` (traced passes only).
    route_ns: u64,
    /// Packets with no route, or whose worker was gone.
    unsent: u64,
}

/// One `run_ops` call, timed by the benchmark.
struct Call {
    kind: OpClass,
    ms: f64,
}

/// Totals over the moves of a pass.
#[derive(Default)]
struct MoveTotals {
    moves: u64,
    chunks: u64,
    bytes: u64,
    replayed: u64,
}

/// One runtime pass: set-up, the op phase under traffic, drain, checks.
struct Pass {
    setup_s: Vec<f64>,
    calls: Vec<Call>,
    ops_ok: u64,
    ops_failed: u64,
    op_errors: Vec<String>,
    op_wall_s: f64,
    acct: Accounting,
    flows: u64,
    misplaced: u64,
    /// Per packet, due time → final processing, ms (lost = +inf), sorted.
    pkt_ms: Vec<f64>,
    gen: GenOut,
    rules: usize,
    moves: MoveTotals,
    frames_encoded: u64,
    frames_decoded: u64,
    events_pumped: u64,
    tel: Telemetry,
    probes: Arc<Probes>,
}

/// Spawns the runtime, routes each scope to its first owner, preloads
/// every flow with a SYN and waits until every worker has drained it.
fn spawn(plan: &RtPlan, probes: &Arc<Probes>, tel: Telemetry) -> Result<RtController, String> {
    let nfs = (0..plan.workers).map(|_| probes.monitor()).collect();
    let mut ctrl = RtController::new_with_telemetry(nfs, tel);
    for (s, p) in plan.scopes.iter().enumerate() {
        ctrl.router.install(5, Filter::from_src(*p), plan.owner0[s]);
    }
    let txs: Vec<Sender<String>> = (0..plan.workers).map(|w| ctrl.worker_tx(w)).collect();
    for (i, key) in plan.keys.iter().enumerate() {
        let pkt = Packet::builder(PRELOAD_UID + i as u64, *key)
            .flags(TcpFlags::SYN)
            .build();
        let w = ctrl
            .router
            .route(&pkt)
            .ok_or("preload packet has no route")?;
        txs[w]
            .send(WireMsg::Packet { packet: pkt }.to_json())
            .map_err(|_| "worker gone")?;
    }
    for w in 0..plan.workers {
        ctrl.quiesce(w)
            .map_err(|e| format!("preload quiesce of worker {w}: {e}"))?;
    }
    Ok(ctrl)
}

/// The open-loop generator: the `k`-th packet of `packets` (uid `k + 1`)
/// is due at `start + k * gap`, whatever happened to the ones before it.
fn generate(
    router: Arc<Router>,
    txs: Vec<Sender<String>>,
    plan: Arc<RtPlan>,
    packets: Range<usize>,
    start: Instant,
    traced: bool,
) -> GenOut {
    let gap = plan.gap_ns();
    let mut out = GenOut {
        late_ns: Vec::with_capacity(packets.len()),
        ..GenOut::default()
    };
    for (k, &flow) in plan.packets[packets].iter().enumerate() {
        let due = start + Duration::from_nanos(k as u64 * gap);
        let mut now = Instant::now();
        if now < due {
            thread::sleep(due - now);
            now = Instant::now();
        }
        out.late_ns.push((now - due).as_nanos() as u64);
        let pkt = Packet::builder(k as u64 + 1, plan.keys[flow as usize])
            .flags(TcpFlags::ACK)
            .build();
        let w = if traced {
            let t0 = Instant::now();
            let w = router.route(&pkt);
            out.route_ns += t0.elapsed().as_nanos() as u64;
            w
        } else {
            router.route(&pkt)
        };
        let sent = w.is_some_and(|w| {
            txs[w]
                .send(WireMsg::Packet { packet: pkt }.to_json())
                .is_ok()
        });
        if !sent {
            out.unsent += 1;
        }
    }
    out
}

fn spec(plan: &RtPlan, kind: OpClass, scope: usize, src: usize, dst: usize) -> OpSpec {
    let f = Filter::from_src(plan.scopes[scope]);
    match kind {
        OpClass::Move => OpSpec::mv(src, dst, f),
        OpClass::Copy => OpSpec::copy(src, dst, f),
        OpClass::Share => OpSpec::share(src, dst, f),
    }
}

fn counter(tel: &Telemetry, name: &str) -> u64 {
    tel.counter(name).load(Relaxed)
}

/// One pass: `segments` segments back to back, the packet schedule split
/// evenly between them, each lasting its share of `seconds`.
fn pass(
    plan: &Arc<RtPlan>,
    seconds: u64,
    traced: bool,
    segments: usize,
    setups: usize,
) -> Result<Pass, String> {
    let length = Duration::from_secs(seconds) / segments as u32;
    let n = plan.packets.len();
    let mut p = segment(plan, 0..n / segments, length, traced, setups)?;
    for j in 1..segments {
        let packets = j * n / segments..(j + 1) * n / segments;
        p.absorb(segment(plan, packets, length, traced, setups)?);
    }
    p.pkt_ms = sorted(std::mem::take(&mut p.pkt_ms));
    Ok(p)
}

/// One segment: set-up, the op phase under `packets` for `length`,
/// drain, checks. Its packets carry uids `1..=packets.len()`.
fn segment(
    plan: &Arc<RtPlan>,
    packets: Range<usize>,
    length: Duration,
    traced: bool,
    setups: usize,
) -> Result<Pass, String> {
    let tel = if traced {
        Telemetry::wall_with_capacity(TRACE_CAPACITY)
    } else {
        Telemetry::disabled()
    };
    let sent = packets.len();
    let base = Instant::now();
    let probes = Probes::new(base, sent, traced);
    let mut setup_s = Vec::with_capacity(setups);
    let mut ctrl = None;
    for i in 0..setups {
        let t0 = Instant::now();
        let c = spawn(plan, &probes, tel.clone())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < setups {
            c.shutdown();
        } else {
            ctrl = Some(c);
        }
    }
    let mut ctrl = ctrl.expect("at least one set-up");
    probes.reset();

    let enc0 = counter(&tel, "rt.frames.encoded");
    let dec0 = counter(&tel, "rt.frames.decoded");
    let pumped0 = counter(&tel, "rt.events.pumped");
    let start = Instant::now() + Duration::from_millis(2);
    let gen = {
        let router = ctrl.router.clone();
        let txs = (0..plan.workers).map(|w| ctrl.worker_tx(w)).collect();
        let plan = plan.clone();
        thread::spawn(move || generate(router, txs, plan, packets, start, traced))
    };
    thread::sleep(start.saturating_duration_since(Instant::now()));

    let mut schedule = plan.ops.clone();
    let mut calls = Vec::new();
    let (mut ops_ok, mut ops_failed) = (0u64, 0u64);
    let mut op_errors = Vec::new();
    let mut moves = MoveTotals::default();
    while start.elapsed() < length {
        let round = schedule.next_round();
        let specs = round
            .iter()
            .map(|o| spec(plan, o.kind, o.scope, o.src, o.dst))
            .collect();
        let t0 = Instant::now();
        let results = ctrl.run_ops(specs);
        calls.push(Call {
            kind: round[0].kind,
            ms: t0.elapsed().as_secs_f64() * 1e3,
        });
        for (op, r) in round.iter().zip(results) {
            match r {
                Ok(st) if st.chunks == plan.per_scope => {
                    ops_ok += 1;
                    if op.kind == OpClass::Move {
                        moves.moves += 1;
                        moves.chunks += st.chunks as u64;
                        moves.bytes += st.bytes as u64;
                        moves.replayed += st.events_replayed as u64;
                    }
                }
                other => {
                    ops_failed += 1;
                    if op_errors.len() < 5 {
                        let why = match other {
                            Ok(st) => format!("{} chunks, expected {}", st.chunks, plan.per_scope),
                            Err(e) => e.to_string(),
                        };
                        op_errors.push(format!(
                            "{} of scope {} ({}→{}): {why}",
                            op.kind.name(),
                            op.scope,
                            op.src,
                            op.dst
                        ));
                    }
                }
            }
        }
    }
    let op_wall_s = start.elapsed().as_secs_f64();
    let gen = gen.join().map_err(|_| "generator panicked")?;

    // Drain: every packet sent so far is processed once each worker has
    // answered a request queued behind it.
    for w in 0..plan.workers {
        ctrl.quiesce(w)
            .map_err(|e| format!("final quiesce of worker {w}: {e}"))?;
    }
    let frames_encoded = counter(&tel, "rt.frames.encoded") - enc0;
    let frames_decoded = counter(&tel, "rt.frames.decoded") - dec0;
    let events_pumped = counter(&tel, "rt.events.pumped") - pumped0;
    let router = ctrl.router.clone();
    let rules = router.len();
    let nfs = ctrl.shutdown();

    let acct = Accounting::tally(
        sent as u64,
        PRELOAD_UID,
        nfs.iter().map(|h| h.processed_log()),
    );
    // Every flow's state must sit where the router sends the flow.
    let held: Vec<HashSet<_>> = nfs
        .iter()
        .map(|h| h.nf().list_perflow(&Filter::any()).into_iter().collect())
        .collect();
    let misplaced = plan
        .keys
        .iter()
        .filter(|k| {
            let pkt = Packet::builder(0, **k).build();
            router
                .route(&pkt)
                .is_none_or(|w| !held[w].contains(&pkt.conn_key().flow_id()))
        })
        .count() as u64;

    let first_due = (start - base).as_nanos() as u64;
    let gap = plan.gap_ns();
    let pkt_ms = (0..sent)
        .map(|k| match probes.stamps[k + 1].load(Relaxed) {
            0 => f64::INFINITY,
            t => t.saturating_sub(first_due + k as u64 * gap) as f64 / 1e6,
        })
        .collect();
    Ok(Pass {
        setup_s,
        calls,
        ops_ok,
        ops_failed,
        op_errors,
        op_wall_s,
        acct,
        flows: plan.keys.len() as u64,
        misplaced,
        pkt_ms,
        gen,
        rules,
        moves,
        frames_encoded,
        frames_decoded,
        events_pumped,
        tel,
        probes,
    })
}

impl Pass {
    /// Adds the next segment of the same pass. A traced pass has one
    /// segment; the telemetry and probes kept are the last segment's.
    fn absorb(&mut self, s: Pass) {
        self.setup_s.extend(s.setup_s);
        self.calls.extend(s.calls);
        self.ops_ok += s.ops_ok;
        self.ops_failed += s.ops_failed;
        let room = 5usize.saturating_sub(self.op_errors.len());
        self.op_errors.extend(s.op_errors.into_iter().take(room));
        self.op_wall_s += s.op_wall_s;
        self.acct.sent += s.acct.sent;
        self.acct.lost += s.acct.lost;
        self.acct.duplicated += s.acct.duplicated;
        self.acct.unexpected += s.acct.unexpected;
        self.flows += s.flows;
        self.misplaced += s.misplaced;
        self.pkt_ms.extend(s.pkt_ms);
        self.gen.late_ns.extend(s.gen.late_ns);
        self.gen.route_ns += s.gen.route_ns;
        self.gen.unsent += s.gen.unsent;
        self.rules = self.rules.max(s.rules);
        self.moves.moves += s.moves.moves;
        self.moves.chunks += s.moves.chunks;
        self.moves.bytes += s.moves.bytes;
        self.moves.replayed += s.moves.replayed;
        self.frames_encoded += s.frames_encoded;
        self.frames_decoded += s.frames_decoded;
        self.events_pumped += s.events_pumped;
        self.tel = s.tel;
        self.probes = s.probes;
    }

    fn ops(&self) -> u64 {
        self.ops_ok + self.ops_failed
    }

    fn call_ms(&self, kind: Option<OpClass>) -> Vec<f64> {
        sorted(
            self.calls
                .iter()
                .filter(|c| kind.is_none_or(|k| c.kind == k))
                .map(|c| c.ms)
                .collect(),
        )
    }

    /// Packets sent more than `by` ns after their due time.
    fn late(&self, by: u64) -> u64 {
        self.gen.late_ns.iter().filter(|&&l| l > by).count() as u64
    }

    /// Runs every check into `r` and counts what was checked.
    fn check(&self, label: &str, r: &mut Report) {
        r.attempted += self.acct.sent + self.ops() + self.flows;
        r.failed += self.acct.failed() + self.ops_failed + self.misplaced;
        if self.acct.failed() > 0 {
            r.problem(format!(
                "{label}: {} packets lost, {} duplicated, {} unexpected of {} injected",
                self.acct.lost, self.acct.duplicated, self.acct.unexpected, self.acct.sent
            ));
        }
        if self.gen.unsent > 0 {
            r.problem(format!(
                "{label}: generator could not send {} packets",
                self.gen.unsent
            ));
        }
        for e in &self.op_errors {
            r.problem(format!("{label}: op failed: {e}"));
        }
        if self.ops_failed as usize > self.op_errors.len() {
            r.problem(format!("{label}: {} ops failed in all", self.ops_failed));
        }
        if self.misplaced > 0 {
            r.problem(format!(
                "{label}: {} of {} flows not held by their routed worker",
                self.misplaced, self.flows
            ));
        }
        if self.calls.is_empty() {
            r.problem(format!("{label}: no op completed"));
        }
        let behind = self.late(BEHIND_NS);
        if behind as f64 > BEHIND_SHARE * self.gen.late_ns.len() as f64 {
            r.problem(format!(
                "{label}: generator fell behind: {behind} packets sent more than {} ms late; run invalid",
                BEHIND_NS / 1_000_000
            ));
        }
    }
}

/// Runs a runtime workload: the end-to-end run (`traced == false`) or
/// the traced run, an untraced pass and then a traced one (their ratio is
/// the tracing overhead). Each pass lasts `seconds`.
pub fn run(plan: RtPlan, seconds: u64, traced: bool) -> Report {
    let mut r = Report::default();
    r.notes.push(format!(
        "inputs: {} workers, {} flows in {} scopes, {} packets at {} pps, input digest {:016x}",
        plan.workers,
        plan.keys.len(),
        plan.scopes.len(),
        plan.packets.len(),
        plan.rate_pps,
        plan.digest(DIGEST_ROUNDS)
    ));
    let plan = Arc::new(plan);
    let (segments, setups) = if traced { (1, 1) } else { (SEGMENTS, SETUPS) };
    let warm = spawn(
        &plan,
        &Probes::new(Instant::now(), 0, false),
        Telemetry::disabled(),
    );
    match warm {
        Ok(c) => drop(c.shutdown()),
        Err(e) => {
            r.problem(format!("warm-up set-up: {e}"));
            return r;
        }
    }
    let plain = match pass(&plan, seconds, false, segments, setups) {
        Ok(p) => p,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    plain.check("untraced", &mut r);
    if !traced {
        end_to_end(&plan, &plain, &mut r);
        return r;
    }
    let tp = match pass(&plan, seconds, true, 1, 1) {
        Ok(p) => p,
        Err(e) => {
            r.problem(e);
            return r;
        }
    };
    tp.check("traced", &mut r);
    per_layer(&plan, &plain, &tp, &mut r);
    r
}

fn end_to_end(plan: &RtPlan, p: &Pass, r: &mut Report) {
    let all = p.call_ms(None);
    r.notes.push(format!(
        "{} run_ops calls ({} ops) in {:.2} s; highest quotable call percentile: p{}",
        all.len(),
        p.ops(),
        p.op_wall_s,
        top_percentile(all.len()).unwrap_or(0.0)
    ));
    r.notes.push(format!(
        "{SEGMENTS} segments; setup_s is the median of {} set-ups",
        p.setup_s.len()
    ));
    r.gate("setup_s", "s", crate::stats::median(&p.setup_s));
    r.gate("ops_per_s", "ops/s", p.ops_ok as f64 / p.op_wall_s);
    r.gate("op_ms_p50", "ms", percentile(&all, 50.0));
    r.gate("op_ms_p90", "ms", percentile(&all, 90.0));
    for (kind, name) in [
        (OpClass::Move, "move"),
        (OpClass::Copy, "copy"),
        (OpClass::Share, "share"),
    ] {
        let v = p.call_ms(Some(kind));
        if v.is_empty() {
            continue;
        }
        r.notes.push(format!("{name} calls: {}", v.len()));
        r.show(&format!("{name}_ms_p50"), "ms", percentile(&v, 50.0));
        if kind == OpClass::Move {
            r.show("move_ms_p90", "ms", percentile(&v, 90.0));
        }
    }
    r.notes.push(format!(
        "packets timed: {}; highest quotable percentile: p{}",
        p.pkt_ms.len(),
        top_percentile(p.pkt_ms.len()).unwrap_or(0.0)
    ));
    r.show("pkt_ms_p50", "ms", percentile(&p.pkt_ms, 50.0));
    r.show("pkt_ms_p99", "ms", percentile(&p.pkt_ms, 99.0));
    r.show("pkt_loss_ratio", "ratio", p.acct.loss_ratio());
    r.show(
        "op_fail_ratio",
        "ratio",
        p.ops_failed as f64 / p.ops().max(1) as f64,
    );
    let (late_p99, late_pkts) = gen_late(plan, p);
    r.show("gen.late_ms_p99", "ms", late_p99);
    r.show("gen.late_pkts", "count", late_pkts);
}

/// `gen.late_ms_p99` and `gen.late_pkts` (sent more than one gap late).
fn gen_late(plan: &RtPlan, p: &Pass) -> (f64, f64) {
    let late = sorted(p.gen.late_ns.iter().map(|&l| l as f64 / 1e6).collect());
    (percentile(&late, 99.0), p.late(plan.gap_ns()) as f64)
}

fn per_layer(plan: &RtPlan, plain: &Pass, tp: &Pass, r: &mut Report) {
    let ops = tp.ops().max(1) as f64;
    let trace = layers::op_spans(&tp.tel);
    let busy = tp.probes.busy_ns() as f64 / (plan.workers as f64 * tp.op_wall_s * 1e9);
    layers::nf_metrics(&tp.probes, busy, r);
    layers::wire_replay(&tp.probes, r);
    let moves = tp.moves.moves.max(1) as f64;
    r.gate(
        "wire.bytes_per_flow",
        "B",
        tp.moves.bytes as f64 / tp.moves.chunks.max(1) as f64,
    );
    // Every injected packet is one frame a worker decodes; what remains
    // is control-plane framing.
    let control_frames = tp.frames_decoded.saturating_sub(tp.acct.sent);
    r.gate(
        "wire.frames_encoded_per_op",
        "count",
        tp.frames_encoded as f64 / ops,
    );
    r.gate(
        "wire.frames_decoded_per_op",
        "count",
        control_frames as f64 / ops,
    );
    r.gate(
        "ctrl.events_replayed_per_move",
        "count",
        tp.moves.replayed as f64 / moves,
    );
    r.gate(
        "rt.events_pumped_per_op",
        "count",
        tp.events_pumped as f64 / ops,
    );
    // Both runtime workloads move; copy and share phases exist on
    // op_churn only and are printed below.
    for stem in ["export", "transfer", "import", "flush", "fwd_update"] {
        let v = trace.phase_ms_p50.get(stem).copied().unwrap_or(f64::NAN);
        r.gate(&format!("engine.{stem}_ms_p50"), "ms", v);
    }
    r.gate("engine.queue_wait_ms_p50", "ms", trace.queue_wait_ms_p50);
    r.gate("engine.queue_wait_ms_p90", "ms", trace.queue_wait_ms_p90);
    r.gate(
        "sched.decisions_per_op",
        "count",
        trace.decisions as f64 / ops,
    );
    r.gate(
        "engine.dispatch_busy_share",
        "ratio",
        trace.dispatch_busy_share,
    );
    r.gate(
        "engine.unattributed_share",
        "ratio",
        trace.unattributed_share,
    );
    let route_ns = tp.gen.route_ns as f64 / tp.gen.late_ns.len().max(1) as f64;
    r.gate("router.route_ns", "ns", route_ns);
    r.gate("router.rules", "count", tp.rules as f64);
    let (late_p99, late_pkts) = gen_late(plan, tp);
    r.gate("gen.late_ms_p99", "ms", late_p99);
    r.gate("gen.late_pkts", "count", late_pkts);
    let plain_p50 = percentile(&plain.call_ms(None), 50.0);
    let overhead = percentile(&tp.call_ms(None), 50.0) / plain_p50;
    r.gate("telemetry.overhead_ratio", "ratio", overhead);
    r.show(
        "telemetry.dropped_records",
        "count",
        tp.tel.dropped_records() as f64,
    );
    if tp.tel.dropped_records() > 0 {
        r.problem(format!(
            "traced: flight recorder dropped {} records",
            tp.tel.dropped_records()
        ));
    }
    for stem in ["copy_export", "copy_import", "share_arm", "share_sync"] {
        if let Some(v) = trace.phase_ms_p50.get(stem) {
            r.show(&format!("engine.{stem}_ms_p50"), "ms", *v);
        }
    }
    r.notes.push(format!(
        "traced pass: {} ops, {} moves, {} spans",
        tp.ops(),
        tp.moves.moves,
        trace.spans
    ));
}
