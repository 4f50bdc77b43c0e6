//! Growth-exponent fitting for measured-vs-paper comparisons: the bench
//! layer fits each Table 1 row's measured rounds to `a · nᵇ` and checks `b`
//! against the paper's running-time column. The paper's columns and
//! tolerances themselves live on the row descriptors in `bd-dispersion`'s
//! registry.

/// Fit `rounds ~ a * n^b` over measured `(n, rounds)` points by least
/// squares in log-log space; returns the exponent `b`. Used to compare the
/// measured growth against the paper's polynomial degree.
pub fn fit_exponent(points: &[(usize, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(n, r)| n > 0 && r > 0.0)
        .map(|&(n, r)| ((n as f64).ln(), r.ln()))
        .collect();
    let k = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_exponent_recovers_cubes() {
        let pts: Vec<(usize, f64)> = (3..30).map(|n| (n, 7.0 * (n as f64).powi(3))).collect();
        let b = fit_exponent(&pts);
        assert!((b - 3.0).abs() < 1e-6, "got {b}");
    }

    #[test]
    fn fit_exponent_handles_degenerate_input() {
        assert!(fit_exponent(&[]).is_nan());
        assert!(fit_exponent(&[(4, 100.0)]).is_nan());
    }
}
