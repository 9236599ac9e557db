//! Summary statistics and process measurements.

/// The `q`-quantile (0 < q <= 1) of `samples` by nearest rank, with the
/// number of samples above it. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((v[rank - 1], n - rank))
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|(v, _)| v)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let n = values.len() as f64;
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / n).exp())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some((50.0, 50)));
        assert_eq!(quantile(&v, 0.9), Some((90.0, 10)));
        assert_eq!(quantile(&v, 0.99), Some((99.0, 1)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
    }
}
