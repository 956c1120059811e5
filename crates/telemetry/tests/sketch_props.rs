//! Property tests for the SLO observability primitives: quantile-sketch
//! accuracy and merge determinism, and sliding-window bookkeeping.

use holoar_telemetry::{QuantileSketch, SlidingWindow};
use proptest::prelude::*;

const ALPHA: f64 = 0.01;

fn sketch_of(values: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(ALPHA);
    for &v in values {
        s.record(v);
    }
    s
}

fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantile estimates stay within the configured relative-error bound
    /// of the exact nearest-rank order statistic.
    #[test]
    fn quantiles_are_within_the_relative_error_bound(
        values in prop::collection::vec(1e-3f64..1e9, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let sketch = sketch_of(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = exact_quantile(&sorted, q);
        let est = sketch.quantile(q).expect("non-empty sketch");
        prop_assert!(
            (est - exact).abs() <= ALPHA * exact + 1e-12,
            "q={} est={} exact={}", q, est, exact
        );
    }

    /// Merging is order-independent: any partition of the sample stream,
    /// merged in either order, is bit-identical to one sketch fed
    /// everything. This is what makes per-worker/per-session sketches safe
    /// to combine without breaking the replay contract.
    #[test]
    fn merge_is_order_independent_and_partition_invariant(
        values in prop::collection::vec(1e-6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let (a, b) = values.split_at(split);
        let whole = sketch_of(&values);
        let (sa, sb) = (sketch_of(a), sketch_of(b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &whole);
        prop_assert_eq!(&ba, &whole);
    }

    /// Merging is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c), exactly.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(1e-6f64..1e6, 0..80),
        b in prop::collection::vec(1e-6f64..1e6, 0..80),
        c in prop::collection::vec(1e-6f64..1e6, 0..80),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The sketch books always balance: count matches the recorded stream,
    /// min/max bracket every quantile, and quantiles are monotone in q.
    #[test]
    fn sketch_books_balance(values in prop::collection::vec(0.0f64..1e7, 1..200)) {
        let sketch = sketch_of(&values);
        prop_assert_eq!(sketch.count(), values.len() as u64);
        let (min, max) = (sketch.min().unwrap(), sketch.max().unwrap());
        let mut previous = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = sketch.quantile(q).unwrap();
            prop_assert!(est >= min - 1e-12 && est <= max + 1e-12);
            prop_assert!(est >= previous, "quantiles must be monotone in q");
            previous = est;
        }
    }

    /// Sliding windows retain exactly the newest `capacity` samples and
    /// aggregate them exactly.
    #[test]
    fn window_retains_the_newest_samples(
        values in prop::collection::vec(-1e6f64..1e6, 1..120),
        capacity in 1usize..32,
    ) {
        let mut w = SlidingWindow::new(capacity);
        for (frame, &v) in values.iter().enumerate() {
            w.push(frame as u64, v);
        }
        let expected: Vec<(u64, f64)> = values
            .iter()
            .enumerate()
            .skip(values.len().saturating_sub(capacity))
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let got: Vec<(u64, f64)> = w.iter().collect();
        prop_assert_eq!(&got, &expected);
        let sum: f64 = expected.iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(w.sum(), sum);
    }
}
