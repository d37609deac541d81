//! Order statistics over the harness's own samples.

/// Percentile `q` in `[0, 1]` of `values` (sorted in place), interpolated
/// between order statistics. Empty input yields NaN, which the output
/// check rejects.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    robustore_simkit::stats::percentile(values, q)
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_sort_and_tolerate_empty_input() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&mut [5.0, 1.0, 9.0], 1.0), 9.0);
        assert!(median(&mut []).is_nan());
    }
}
