//! Tests of the benchmark's own statistics.

use perfbench::stats::{difference_len, median, quartiles, tail, union, union_len};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some([1.25, 2.5, 3.75]));
    // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (extrapolated)
    assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
    assert_eq!(quartiles(&[2.0]), Some([2.0, 2.0, 2.0]));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn tail_leaves_exactly_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&samples).unwrap();
    assert_eq!(t.n, 100);
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), 10);

    let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!((t.value, t.n), (1.0, 11));
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
}

#[test]
fn tail_of_ten_or_fewer_samples_is_the_maximum() {
    let t = tail(&[3.0, 9.0, 1.0]).unwrap();
    assert_eq!((t.value, t.percentile, t.n), (9.0, 100.0, 3));
    assert!(tail(&[]).is_none());
}

#[test]
fn union_merges_overlapping_and_touching_intervals() {
    let merged = union(&[(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (3.0, 4.0), (7.0, 7.0)]);
    assert_eq!(merged, vec![(0.0, 4.0), (5.0, 6.0)]);
    assert_eq!(union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
    assert_eq!(union_len(&[(0.0, 10.0), (2.0, 3.0)]), 10.0);
    assert_eq!(union_len(&[]), 0.0);
}

#[test]
fn difference_counts_time_covered_by_a_but_not_b() {
    // Ranks inside the driver over [0, 10]; some rank inside the app over [1, 4]
    // and [3, 6] (overlapping ranks): busy outside the app is 10 - 5 = 5.
    let driver = [(0.0, 10.0), (0.5, 9.0)];
    let app = [(1.0, 4.0), (3.0, 6.0)];
    assert_eq!(difference_len(&driver, &app), 5.0);
    // b reaching outside a removes nothing extra.
    let gap = difference_len(&[(2.0, 3.0)], &[(0.0, 2.5), (2.9, 9.0)]);
    assert!((gap - 0.4).abs() < 1e-12, "{gap}");
    assert_eq!(difference_len(&[(0.0, 1.0)], &[]), 1.0);
    assert_eq!(difference_len(&[], &[(0.0, 1.0)]), 0.0);
}
