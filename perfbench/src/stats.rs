//! Order statistics over host timings.

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice. Infinite values (failed ops) sort last.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Per-op medians across passes: `passes[p][i]` is op `i`'s latency
/// in pass `p`. Every pass replays the same op list, so op `i` is the
/// same work in every pass and its median discounts a stray slow run.
pub fn per_op_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Milliseconds in a [`std::time::Duration`].
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 0.9), f64::INFINITY);
    }

    #[test]
    fn per_op_medians_line_up_ops_across_passes() {
        let passes = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![2.0, 20.0]];
        assert_eq!(per_op_medians(&passes), vec![2.0, 20.0]);
    }
}
