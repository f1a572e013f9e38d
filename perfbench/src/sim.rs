//! The simulator workload, `sim_soak`: seeded `ScenarioBuilder`
//! scenarios, each one order-preserving move of every flow under live
//! traffic, run to completion and checked by the oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use opennf_controller::{Command, MoveProps, Scenario, ScenarioBuilder, ScopeSet};
use opennf_packet::Filter;
use opennf_sim::Dur;
use opennf_telemetry::Telemetry;
use opennf_trace::warmed_flows;

use crate::inputs::{Digest, Rng};
use crate::layers;
use crate::probe::Probes;
use crate::report::Report;
use crate::stats::{median, percentile, sorted, top_percentile};

/// Flows per scenario.
const FLOWS: u32 = 2_000;
/// Offered load, packets per second of virtual time.
const PPS: u64 = 10_000;
/// Trace length, virtual ms.
const TRACE_MS: u64 = 1_500;
/// When the move is issued, virtual ms.
const MOVE_AT_MS: u64 = 200;
/// Scenario seeds a run cycles through; every seed is run several times
/// per run, and each rerun must deliver exactly as many events.
const POOL: usize = 16;
/// Flight-recorder capacity of one traced scenario (never filled).
const TRACE_CAPACITY: usize = 4_000_000;

/// The scenario seeds of workload seed `seed`.
pub fn pool(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 4);
    (0..POOL).map(|_| rng.next_u64() >> 16).collect()
}

/// Generates the trace and builds the scenario for one seed.
fn build(seed: u64, probes: &std::sync::Arc<Probes>, tel: Telemetry) -> Scenario {
    let mut s = ScenarioBuilder::new()
        .seed(seed)
        .telemetry(tel)
        .nf("prads1", probes.monitor())
        .nf("prads2", probes.monitor())
        .host(warmed_flows(FLOWS, PPS, Dur::millis(TRACE_MS), seed))
        .route(0, Filter::any(), 0)
        .build();
    let (src, dst) = (s.instances[0], s.instances[1]);
    s.issue_at(
        Dur::millis(MOVE_AT_MS),
        Command::Move {
            src,
            dst,
            filter: Filter::any(),
            scope: ScopeSet::per_flow(),
            props: MoveProps::lfop_pl_er(),
        },
    );
    s
}

/// One pass: scenarios back to back for `seconds`.
#[derive(Default)]
struct Pass {
    setup_ms: Vec<f64>,
    /// Per scenario: `run_to_completion` plus the oracle check, ms.
    op_ms: Vec<f64>,
    oracle_ms: Vec<f64>,
    run_ns: u64,
    events: u64,
    /// Events delivered per seed, from its first run.
    events_by_seed: BTreeMap<u64, u64>,
    failed: u64,
    problems: Vec<String>,
    bytes: u64,
    chunks: u64,
    released: u64,
    unattributed: Vec<f64>,
    dropped: u64,
}

fn pass(seeds: &[u64], seconds: u64, traced: bool) -> (Pass, std::sync::Arc<Probes>) {
    let probes = Probes::new(Instant::now(), 0, traced);
    let mut p = Pass::default();
    let t_end = Instant::now() + std::time::Duration::from_secs(seconds);
    let mut i = 0usize;
    while Instant::now() < t_end {
        let seed = seeds[i % seeds.len()];
        i += 1;
        let tel = if traced {
            Telemetry::manual_sampled(TRACE_CAPACITY, 1)
        } else {
            Telemetry::disabled()
        };
        let t0 = Instant::now();
        let mut s = build(seed, &probes, tel.clone());
        let t1 = Instant::now();
        s.run_to_completion();
        let t2 = Instant::now();
        let oracle = s.oracle().check();
        let t3 = Instant::now();
        p.setup_ms.push((t1 - t0).as_secs_f64() * 1e3);
        p.op_ms.push((t3 - t1).as_secs_f64() * 1e3);
        p.oracle_ms.push((t3 - t2).as_secs_f64() * 1e3);
        p.run_ns += (t2 - t1).as_nanos() as u64;
        let events = s.engine.delivered();
        p.events += events;

        let reports = &s.controller().reports;
        let mut why = Vec::new();
        if reports.len() != 1 {
            why.push(format!("{} reports for 1 command", reports.len()));
        }
        if let Some(r) = reports.first() {
            if r.outcome.is_aborted() {
                why.push(format!("move aborted: {:?}", r.outcome));
            }
            p.bytes += r.bytes;
            p.chunks += r.chunks as u64;
            p.released += r.events_released as u64;
        }
        if !oracle.is_loss_free() {
            why.push(format!(
                "{} lost, {} duplicated",
                oracle.lost.len(),
                oracle.duplicated.len()
            ));
        }
        if !oracle.is_order_preserving() {
            why.push(format!(
                "{} reordered within a flow",
                oracle.reordered_per_flow.len()
            ));
        }
        let first = *p.events_by_seed.entry(seed).or_insert(events);
        if first != events {
            why.push(format!(
                "delivered {events} events, {first} on an earlier run of the same seed"
            ));
        }
        if traced {
            p.unattributed
                .push(layers::op_spans(&tel).unattributed_share);
            p.dropped += tel.dropped_records();
        }
        if !why.is_empty() {
            p.failed += 1;
            if p.problems.len() < 5 {
                p.problems
                    .push(format!("scenario seed {seed}: {}", why.join("; ")));
            }
        }
    }
    (p, probes)
}

impl Pass {
    fn check(&self, label: &str, r: &mut Report) {
        r.attempted += self.op_ms.len() as u64;
        r.failed += self.failed;
        for e in &self.problems {
            r.problem(format!("{label}: {e}"));
        }
        if self.failed as usize > self.problems.len() {
            r.problem(format!("{label}: {} scenarios failed in all", self.failed));
        }
        if self.op_ms.is_empty() {
            r.problem(format!("{label}: no scenario completed"));
        }
    }

    fn op_ms_sorted(&self) -> Vec<f64> {
        sorted(self.op_ms.clone())
    }

    /// Digest of (seed, events) over the pool, and their total.
    fn events(&self) -> (u64, u64) {
        let mut d = Digest::default();
        for (&seed, &ev) in &self.events_by_seed {
            d.word(seed);
            d.word(ev);
        }
        (d.value(), self.events_by_seed.values().sum())
    }
}

/// Runs `sim_soak`: the end-to-end run, or the traced run, an untraced
/// pass and then a traced one. Each pass lasts `seconds`.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let seeds = pool(seed);
    let mut r = Report::default();
    let mut d = Digest::default();
    seeds.iter().for_each(|&s| d.word(s));
    r.notes.push(format!(
        "inputs: {POOL} scenario seeds, {FLOWS} flows at {PPS} pps for {TRACE_MS} ms each, move at {MOVE_AT_MS} ms, input digest {:016x}",
        d.value()
    ));
    let (plain, _) = pass(&seeds, seconds, false);
    plain.check("untraced", &mut r);
    let ops = plain.op_ms_sorted();
    let (digest, events) = plain.events();
    r.notes.push(format!(
        "{} scenarios over {} seeds; events per seed digest {digest:016x}; highest quotable percentile: p{}",
        ops.len(),
        plain.events_by_seed.len(),
        top_percentile(ops.len()).unwrap_or(0.0)
    ));
    if !traced {
        let op_s: f64 = plain.op_ms.iter().sum::<f64>() / 1e3;
        r.gate("setup_s", "s", median(&plain.setup_ms) / 1e3);
        r.gate(
            "ops_per_s",
            "ops/s",
            (ops.len() as u64 - plain.failed) as f64 / op_s,
        );
        r.gate("op_ms_p50", "ms", percentile(&ops, 50.0));
        r.gate("op_ms_p90", "ms", percentile(&ops, 90.0));
        r.show(
            "sim_events_per_s",
            "events/s",
            plain.events as f64 / (plain.run_ns as f64 / 1e9),
        );
        r.show("sim_run_ms_p50", "ms", percentile(&ops, 50.0));
        r.show(
            "op_fail_ratio",
            "ratio",
            plain.failed as f64 / ops.len().max(1) as f64,
        );
        r.show("sim.events", "count", events as f64);
        return r;
    }
    let (tp, probes) = pass(&seeds, seconds, true);
    tp.check("traced", &mut r);
    let (tdigest, tevents) = tp.events();
    if tdigest != digest && tp.events_by_seed.len() == plain.events_by_seed.len() {
        r.problem(format!(
            "traced pass delivered other event counts per seed ({tdigest:016x} vs {digest:016x})"
        ));
        r.failed += 1;
    }
    let n = tp.op_ms.len().max(1) as f64;
    let busy = probes.busy_ns() as f64 / tp.run_ns.max(1) as f64;
    layers::nf_metrics(&probes, busy, &mut r);
    layers::wire_replay(&probes, &mut r);
    r.gate(
        "wire.bytes_per_flow",
        "B",
        tp.bytes as f64 / tp.chunks.max(1) as f64,
    );
    r.gate(
        "ctrl.events_replayed_per_move",
        "count",
        tp.released as f64 / n,
    );
    r.gate(
        "engine.unattributed_share",
        "ratio",
        tp.unattributed.iter().sum::<f64>() / n,
    );
    r.gate(
        "telemetry.overhead_ratio",
        "ratio",
        median(&tp.op_ms) / median(&plain.op_ms),
    );
    r.show("telemetry.dropped_records", "count", tp.dropped as f64);
    if tp.dropped > 0 {
        r.problem(format!(
            "traced: flight recorder dropped {} records",
            tp.dropped
        ));
    }
    r.show("sim.events", "count", tevents as f64);
    r.show(
        "sim.ns_per_event",
        "ns",
        tp.run_ns as f64 / tp.events.max(1) as f64,
    );
    r.show("sim.oracle_ms", "ms", median(&tp.oracle_ms));
    r
}
