//! Round-exponent fidelity gates for the Table 1 reproduction.
//!
//! The paper's running-time column is an upper bound; the gate asserts the
//! measured growth exponent of each checked row stays inside its band, so
//! an accidental complexity regression (e.g. a phase machine silently
//! re-running work) fails loudly rather than just slowing sweeps down.

use bd_bench::{mean_rounds, run_series_cells, success_rate, SeriesCoord};
use bd_dispersion::adversaries::AdversaryKind;
use bd_dispersion::runner::Algorithm;
use bd_exploration::cost::fit_exponent;

/// The dedicated §3.3 sqrt row: success 1.00 at full `O(√n)` tolerance
/// under token hijacking, with a fitted exponent inside the `Õ(n⁵·⁵)`
/// target band. The lower edge guards against the opposite failure — a
/// facade that skips the replication runs entirely would fit well below 2.
#[test]
fn sqrt_row_fit_exponent_within_target_band() {
    let algo = Algorithm::ArbitrarySqrtTh5;
    let ns = [9usize, 12, 16];
    let coords: Vec<SeriesCoord> = ns
        .iter()
        .map(|&n| SeriesCoord::new(algo, n, AdversaryKind::TokenHijacker, 1000))
        .collect();
    let (cells, _) = run_series_cells(&coords, None);
    assert!(
        (success_rate(&cells) - 1.0).abs() < f64::EPSILON,
        "sqrt row must disperse every cell"
    );
    let fit = fit_exponent(&mean_rounds(&cells));
    assert!(
        (2.0..=5.5).contains(&fit),
        "sqrt row fitted exponent {fit:.2} outside the Õ(n^5.5) band"
    );
}

/// The Theorem 4 row stays at its `O(n³)` shape — a canary that budget
/// tightening in the runner never changes measured round counts.
#[test]
fn third_row_fit_exponent_stays_cubic() {
    let algo = Algorithm::GatheredThirdTh4;
    let ns = [9usize, 12, 16];
    let coords: Vec<SeriesCoord> = ns
        .iter()
        .map(|&n| SeriesCoord::new(algo, n, AdversaryKind::TokenHijacker, 1000))
        .collect();
    let (cells, _) = run_series_cells(&coords, None);
    assert!((success_rate(&cells) - 1.0).abs() < f64::EPSILON);
    let fit = fit_exponent(&mean_rounds(&cells));
    assert!(
        (2.0..=4.0).contains(&fit),
        "third row fitted exponent {fit:.2} outside the O(n^3) band"
    );
}
