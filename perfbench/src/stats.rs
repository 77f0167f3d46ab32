//! Order statistics over measured samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> Result<f64, String> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => Err("median of no samples".into()),
        _ if n % 2 == 1 => Ok(v[n / 2]),
        _ => Ok((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (0 < q < 1). Refuses when fewer than
/// [`MIN_BEYOND`] samples lie above it.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    let v = sorted(xs);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    let beyond = v.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            v.len()
        ));
    }
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert!(median(&[]).is_err());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        assert!(percentile(&xs, 0.95).is_err());
        assert_eq!(percentile(&xs, 0.5), Ok(50.0));
    }
}
