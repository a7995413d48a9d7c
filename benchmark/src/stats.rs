//! Order statistics.

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for an empty set.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((v.len() as f64) * q).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median as Python's `statistics.median` computes it (the mean of
/// the two middle values of an even count); 0 for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (exclusive method), which is what the acceptance check
/// of a result set uses for the spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 0.95), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
