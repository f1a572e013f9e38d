//! Percentiles and the packet accounting behind the correctness gate.

/// Percentiles the reports may quote, lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest rank (1-based) of percentile `q` (in percent) among `n`
/// samples, at least 1. The tolerance keeps `0.9 * 100` at rank 90.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Samples that lie beyond percentile `q` (in percent) of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, or `None` when not even the median has (fewer than 20 samples).
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| beyond(n, q) >= 10)
}

/// Nearest-rank percentile `q` (in percent) of ascending `sorted`.
/// Infinite entries (lost packets) sort last and count as missing every
/// limit. Returns NaN for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q).min(sorted.len()) - 1]
}

/// Sorts a sample set for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample set (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Fate of the generated packets: uids `1..=sent` were injected, and
/// each worker's processed log lists the uids it processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Packets injected.
    pub sent: u64,
    /// Injected uids no worker ever processed.
    pub lost: u64,
    /// Injected uids processed more than once (counted once each).
    pub duplicated: u64,
    /// Processed uids in the traffic range that were never injected.
    pub unexpected: u64,
}

impl Accounting {
    /// Tallies `logs` against the injected uids `1..=sent`. Uids at or
    /// above `ignore_from` (preloaded packets) are not traffic.
    pub fn tally<'a>(
        sent: u64,
        ignore_from: u64,
        logs: impl IntoIterator<Item = &'a [u64]>,
    ) -> Self {
        let mut seen = vec![0u8; sent as usize + 1];
        let mut unexpected = 0;
        for log in logs {
            for &uid in log {
                if uid >= ignore_from {
                    continue;
                }
                if uid == 0 || uid > sent {
                    unexpected += 1;
                } else {
                    let c = &mut seen[uid as usize];
                    *c = c.saturating_add(1);
                }
            }
        }
        let lost = seen[1..].iter().filter(|&&c| c == 0).count() as u64;
        let duplicated = seen[1..].iter().filter(|&&c| c > 1).count() as u64;
        Accounting {
            sent,
            lost,
            duplicated,
            unexpected,
        }
    }

    /// Packets that failed: missing, duplicated or never injected.
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.unexpected
    }

    /// `pkt_loss_ratio`: failed packets ÷ packets injected.
    pub fn loss_ratio(&self) -> f64 {
        self.failed() as f64 / self.sent.max(1) as f64
    }
}
