//! Self-tests of the benchmark's own arithmetic and inputs:
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use opennf_rt::OpClass;
use perfbench::inputs::RtPlan;
use perfbench::sim;
use perfbench::stats::{beyond, percentile, sorted, top_percentile, Accounting};

#[test]
fn quotable_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(top_percentile(19), None);
    assert_eq!(top_percentile(20), Some(50.0));
    assert_eq!(top_percentile(99), Some(50.0), "only 9 samples beyond p90");
    assert_eq!(top_percentile(100), Some(90.0));
    assert_eq!(top_percentile(999), Some(90.0));
    assert_eq!(top_percentile(1_000), Some(99.0));
    assert_eq!(top_percentile(10_000), Some(99.9));
    assert_eq!(beyond(100, 90.0), 10);
}

#[test]
fn nearest_rank_percentiles_count_losses_as_misses() {
    let v = sorted((1..=10).rev().map(f64::from).collect());
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&v, 90.0), 9.0);
    assert_eq!(percentile(&v, 100.0), 10.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert!(percentile(&[], 50.0).is_nan());
    // A lost packet is +inf: it sorts last and misses every limit.
    let mut with_loss: Vec<f64> = (1..=9).map(f64::from).collect();
    with_loss.push(f64::INFINITY);
    let with_loss = sorted(with_loss);
    assert_eq!(percentile(&with_loss, 90.0), 9.0);
    assert_eq!(percentile(&with_loss, 99.0), f64::INFINITY);
}

#[test]
fn accounting_counts_missing_duplicate_and_stray_uids() {
    let preload = 1_000;
    let w0: Vec<u64> = vec![1, 2, 3, preload, preload + 1];
    let w1: Vec<u64> = vec![3, 5, 7];
    let a = Accounting::tally(6, preload, [w0.as_slice(), w1.as_slice()]);
    assert_eq!(a.sent, 6);
    assert_eq!(a.lost, 2, "uids 4 and 6 never processed");
    assert_eq!(a.duplicated, 1, "uid 3 processed twice");
    assert_eq!(a.unexpected, 1, "uid 7 was never injected");
    assert_eq!(a.failed(), 4);
    assert!((a.loss_ratio() - 4.0 / 6.0).abs() < 1e-12);

    let clean = Accounting::tally(3, preload, [[1u64, 2].as_slice(), [3u64].as_slice()]);
    assert_eq!(clean.failed(), 0);
    assert_eq!(clean.loss_ratio(), 0.0);
}

#[test]
fn schedule_digest_is_a_function_of_the_seed() {
    for make in [RtPlan::bulk_move, RtPlan::op_churn] {
        let a = make(7, 2).digest(64);
        assert_eq!(a, make(7, 2).digest(64), "same seed, same inputs");
        assert_ne!(a, make(8, 2).digest(64), "another seed, other inputs");
        assert_ne!(a, make(7, 3).digest(64), "a longer run has more packets");
    }
    assert_eq!(sim::pool(7), sim::pool(7));
    assert_ne!(sim::pool(7), sim::pool(8));
}

#[test]
fn op_churn_rounds_are_one_kind_on_distinct_scopes() {
    let mut ops = RtPlan::op_churn(3, 1).ops;
    let kinds = [OpClass::Move, OpClass::Copy, OpClass::Share];
    for round in 0..30 {
        let r = ops.next_round();
        let kind = kinds[round % 3];
        let len = if kind == OpClass::Share { 4 } else { 6 };
        assert_eq!(r.len(), len);
        let mut scopes: Vec<usize> = r.iter().map(|o| o.scope).collect();
        scopes.sort_unstable();
        scopes.dedup();
        assert_eq!(scopes.len(), len, "distinct scopes");
        if kind == OpClass::Share {
            let mut srcs: Vec<usize> = r.iter().map(|o| o.src).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert_eq!(srcs.len(), len, "one share per source worker");
        }
        for o in &r {
            assert_eq!(o.kind, kind);
            assert_ne!(o.src, o.dst);
            assert!(o.src < 4 && o.dst < 4);
        }
    }
}

#[test]
fn bulk_move_moves_whole_groups_round_robin_between_two_workers() {
    let plan = RtPlan::bulk_move(5, 1);
    assert_eq!(plan.keys.len(), 4 * 8_192);
    assert!(plan
        .keys
        .iter()
        .enumerate()
        .all(|(i, k)| plan.scopes[i / 8_192].contains(k.src_ip)));
    let mut ops = plan.ops.clone();
    let first: Vec<_> = (0..8).map(|_| ops.next_round()[0]).collect();
    for w in first.windows(2) {
        assert_eq!(w[1].scope, (w[0].scope + 1) % 4);
    }
    // The second visit of a group moves it back.
    assert_eq!((first[0].src, first[0].dst), (first[4].dst, first[4].src));
}
