//! Seeded inputs of the runtime workloads: flow keys, the open-loop
//! packet schedule and the control app's op schedule.
//!
//! Everything here is a pure function of the workload seed (and, for the
//! packet schedule, of the run length), and the program sees only what it
//! produces. The generator is the benchmark's own, so the inputs do not
//! change when the program's random number generator does.

use std::net::Ipv4Addr;

use opennf_packet::{FlowKey, Ipv4Prefix};
use opennf_rt::OpClass;

/// SplitMix64: small, seedable, and stable across releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a `stream` label, so that each input
    /// (keys, packets, ops) draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// FNV-1a over 64-bit words: the digest two runs compare to show they
/// used identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One op the control app will issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    /// Move, copy or share.
    pub kind: OpClass,
    /// Index of the scope (flow group) the op covers.
    pub scope: usize,
    /// Source worker (the scope's owner when the op is issued).
    pub src: usize,
    /// Destination worker.
    pub dst: usize,
}

/// How the control app picks its next `run_ops` call.
#[derive(Debug, Clone)]
enum Planner {
    /// One move per call, round-robin over the scopes, always to the
    /// other of two workers.
    RoundRobin { next: usize },
    /// `per_round` ops of one kind on distinct random scopes, each to a
    /// random other worker; the kind rotates move → copy → share. The
    /// shares of a round leave distinct workers, so a share round has at
    /// most one op per worker (see [`Planner::fits`]).
    Churn {
        rng: Rng,
        per_round: usize,
        round: u64,
    },
}

impl Planner {
    /// Whether an op of `kind` from `src` may join a round holding `ops`.
    ///
    /// Two shares from one worker are both admitted (a share only reads
    /// its source), but the engine's `route_event` hands a raised packet
    /// to the first active op whose source is the raising worker without
    /// matching the op's filter. One share then replays the other's
    /// packet and that packet is processed twice. Until the engine
    /// matches filters, a round holds at most one share per source.
    fn fits(kind: OpClass, src: usize, ops: &[PlannedOp]) -> bool {
        kind != OpClass::Share || ops.iter().all(|o| o.src != src)
    }
}

/// The op schedule: a planner plus the scope ownership it assumes (every
/// move succeeds and hands its scope to the destination).
#[derive(Debug, Clone)]
pub struct OpSchedule {
    planner: Planner,
    owner: Vec<usize>,
    workers: usize,
}

impl OpSchedule {
    /// The next `run_ops` call's ops.
    pub fn next_round(&mut self) -> Vec<PlannedOp> {
        let scopes = self.owner.len();
        let workers = self.workers;
        match &mut self.planner {
            Planner::RoundRobin { next } => {
                let scope = *next;
                *next = (scope + 1) % scopes;
                let src = self.owner[scope];
                let dst = (src + 1) % workers;
                self.owner[scope] = dst;
                vec![PlannedOp {
                    kind: OpClass::Move,
                    scope,
                    src,
                    dst,
                }]
            }
            Planner::Churn {
                rng,
                per_round,
                round,
            } => {
                let kind = [OpClass::Move, OpClass::Copy, OpClass::Share][(*round % 3) as usize];
                *round += 1;
                // Partial Fisher-Yates: up to `per_round` distinct scopes
                // that fit the round.
                let mut pool: Vec<usize> = (0..scopes).collect();
                let mut ops: Vec<PlannedOp> = Vec::with_capacity(*per_round);
                for i in 0..scopes {
                    if ops.len() == *per_round {
                        break;
                    }
                    let j = i + rng.below((scopes - i) as u64) as usize;
                    pool.swap(i, j);
                    let scope = pool[i];
                    let src = self.owner[scope];
                    if !Planner::fits(kind, src, &ops) {
                        continue;
                    }
                    let dst = (src + 1 + rng.below(workers as u64 - 1) as usize) % workers;
                    if kind == OpClass::Move {
                        self.owner[scope] = dst;
                    }
                    ops.push(PlannedOp {
                        kind,
                        scope,
                        src,
                        dst,
                    });
                }
                ops
            }
        }
    }
}

/// Everything a runtime workload needs, generated from its seed.
#[derive(Debug, Clone)]
pub struct RtPlan {
    /// Worker (NF instance) count.
    pub workers: usize,
    /// Open-loop packet rate.
    pub rate_pps: u64,
    /// Scope prefixes; scope `s` holds flows `s * per_scope ..`.
    pub scopes: Vec<Ipv4Prefix>,
    /// Flows per scope.
    pub per_scope: usize,
    /// Every flow's key, grouped by scope.
    pub keys: Vec<FlowKey>,
    /// Each scope's worker at the start of the run.
    pub owner0: Vec<usize>,
    /// The control app's op schedule.
    pub ops: OpSchedule,
    /// For each packet `k` (uid `k + 1`), the index of its flow.
    pub packets: Vec<u32>,
}

/// The destination every generated flow talks to.
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

impl RtPlan {
    /// `bulk_move`: 2 workers, 4 groups of 8,192 flows preloaded on
    /// worker 0, 5k pps over all flows, one whole-group move per call.
    pub fn bulk_move(seed: u64, seconds: u64) -> Self {
        let scopes = (0..4u8)
            .map(|g| Ipv4Prefix::new(Ipv4Addr::new(10, g, 0, 0), 16))
            .collect();
        let start = Rng::new(seed, 3).below(4) as usize;
        Self::build(
            seed,
            seconds,
            2,
            5_000,
            scopes,
            8_192,
            vec![0; 4],
            Planner::RoundRobin { next: start },
        )
    }

    /// `op_churn`: 4 workers, 64 /24 scopes of 128 flows (16 per worker),
    /// 2k pps, rounds of 6 same-kind ops on distinct scopes (a share
    /// round: one share per source worker, so at most 4).
    pub fn op_churn(seed: u64, seconds: u64) -> Self {
        let scopes = (0..64u8)
            .map(|s| Ipv4Prefix::new(Ipv4Addr::new(10, 200, s, 0), 24))
            .collect();
        let owner0 = (0..64).map(|s| s % 4).collect();
        Self::build(
            seed,
            seconds,
            4,
            2_000,
            scopes,
            128,
            owner0,
            Planner::Churn {
                rng: Rng::new(seed, 3),
                per_round: 6,
                round: 0,
            },
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        seed: u64,
        seconds: u64,
        workers: usize,
        rate_pps: u64,
        scopes: Vec<Ipv4Prefix>,
        per_scope: usize,
        owner0: Vec<usize>,
        planner: Planner,
    ) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut keys = Vec::with_capacity(scopes.len() * per_scope);
        for p in &scopes {
            let base = u32::from(p.addr);
            for i in 0..per_scope as u32 {
                let port = 1024 + rng.below(60_000) as u16;
                keys.push(FlowKey::tcp(Ipv4Addr::from(base + 1 + i), port, SERVER, 80));
            }
        }
        let mut rng = Rng::new(seed, 2);
        let n = (rate_pps * seconds) as usize;
        let packets = (0..n)
            .map(|_| rng.below(keys.len() as u64) as u32)
            .collect();
        let ops = OpSchedule {
            planner,
            owner: owner0.clone(),
            workers,
        };
        RtPlan {
            workers,
            rate_pps,
            scopes,
            per_scope,
            keys,
            owner0,
            ops,
            packets,
        }
    }

    /// Inter-packet gap of the open loop, ns.
    pub fn gap_ns(&self) -> u64 {
        1_000_000_000 / self.rate_pps
    }

    /// Digest of the flow keys, the whole packet schedule and the first
    /// `rounds` op rounds (more than any run issues).
    pub fn digest(&self, rounds: usize) -> u64 {
        let mut d = Digest::default();
        for k in &self.keys {
            d.word(u32::from(k.src_ip) as u64);
            d.word(k.src_port as u64);
        }
        for (k, &f) in self.packets.iter().enumerate() {
            d.word(k as u64 * self.gap_ns());
            d.word(f as u64);
        }
        let mut ops = self.ops.clone();
        for _ in 0..rounds {
            for op in ops.next_round() {
                d.word(op.kind as u64);
                d.word(op.scope as u64);
                d.word(op.src as u64);
                d.word(op.dst as u64);
            }
        }
        d.value()
    }
}
