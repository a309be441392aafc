//! Order statistics the benchmark reports: medians and the tail
//! percentile rule.

/// Minimum number of samples a reported tail percentile must have
/// strictly above it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail sample: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples strictly beyond it, and the percentile it
/// stands at (`100 · (rank + 1) / n` for the 0-based rank).
///
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist, because no
/// sample then has enough samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Cuts `items`, in order, into `max(1, n / window)` consecutive
/// windows of near-equal size; no windows when `items` is empty.
pub fn windows<T>(items: &[T], window: usize) -> Vec<&[T]> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let k = (n / window.max(1)).max(1);
    (0..k).map(|i| &items[i * n / k..(i + 1) * n / k]).collect()
}

/// An end of a sorted list of window figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The smallest figures.
    Low,
    /// The largest figures.
    High,
}

/// The quartile of per-window figures at `end`: the order statistic at
/// rank `⌊(n − 1) / 4⌋` counted from that end, so a quarter of the
/// windows lie at or beyond it.
///
/// Load from outside a shared host comes in episodes of seconds to
/// minutes, each of which moves the figures of the windows it covers
/// one way. The quartile at the other end stays put until such
/// episodes cover three quarters of a run, while a change in the
/// program's own cost moves every window.
///
/// `None` when `values` is empty.
pub fn quartile(values: &[f64], end: End) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if end == End::High {
        v.reverse();
    }
    Some(v[(v.len() - 1) / 4])
}

/// A tail sample with the percentile and sample count it is stated at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// The percentile the value stands at.
    pub percentile: f64,
    /// The number of samples it was taken over.
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=100: the sample with exactly ten samples above it is 90.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        // Any higher order statistic has fewer than ten samples beyond.
        assert!(v.iter().filter(|&&x| x > 91.0).count() < TAIL_BEYOND);
    }

    #[test]
    fn tail_of_the_smallest_admissible_sample_is_its_minimum() {
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v).expect("eleven samples leave ten beyond the first");
        assert_eq!(t.value, 0.0);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn windows_spread_a_remainder_and_keep_order() {
        let v: Vec<u32> = (0..250).collect();
        let w = windows(&v, 100);
        assert_eq!(
            w.iter().map(|w| w.len()).collect::<Vec<_>>(),
            vec![125, 125]
        );
        assert_eq!((w[0][0], w[1][0]), (0, 125));
        // Shorter than a window: one window of everything.
        assert_eq!(windows(&v[..40], 100), vec![&v[..40]]);
        assert!(windows::<u32>(&[], 100).is_empty());
    }

    #[test]
    fn quartile_counts_from_its_end() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        // Rank ⌊8 / 4⌋ = 2 from either end.
        assert_eq!(quartile(&v, End::Low), Some(3.0));
        assert_eq!(quartile(&v, End::High), Some(7.0));
        // An episode that raises most windows does not move the low
        // quartile; one over more than three quarters of them does.
        let mut raised = v.clone();
        for x in raised.iter_mut().skip(3) {
            *x += 100.0;
        }
        assert_eq!(quartile(&raised, End::Low), Some(3.0));
        raised[2] += 100.0;
        assert!(quartile(&raised, End::Low) > Some(100.0));
        assert_eq!(quartile(&[5.0], End::High), Some(5.0));
        assert_eq!(quartile(&[], End::Low), None);
    }

    #[test]
    fn window_tails_leave_a_stall_in_one_window_out() {
        // Three windows of 100: the middle one holds eleven stalls,
        // enough to set its own tail but not the low quartile.
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[150..161] {
            *x = 1e6;
        }
        let tails: Vec<f64> = windows(&v, 100)
            .iter()
            .map(|w| tail(w).expect("enough samples").value)
            .collect();
        assert_eq!(tails, vec![89.0, 1e6, 89.0]);
        assert_eq!(quartile(&tails, End::Low), Some(89.0));
    }

    #[test]
    fn tail_of_three_hundred_rounds_sits_near_p97() {
        let v: Vec<f64> = (0..300).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!(t.value, 289.0);
        assert!((t.percentile - 96.666).abs() < 1e-2);
    }
}
