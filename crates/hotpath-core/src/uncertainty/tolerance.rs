//! Tolerance intervals for uncertain measurements (Section 4.1).
//!
//! A 1-D measurement is a Gaussian `X ~ N(x, sigma^2)`. A center `x'` is
//! *close* to the measurement when `Pr(|X - x'| <= eps) >= 1 - delta`
//! (Equation 1). The set of admissible centers is the interval
//! `[x - w, x + w]` whose half-width `w` solves
//! `Phi((x' + eps - x)/sigma) - Phi((x' - eps - x)/sigma) = 1 - delta`
//! (Equation 2). The solver below finds `w` by bisection over the
//! monotone flank of the coverage function; a precomputed lookup table
//! provides the constant-time fast path the paper recommends.

use super::normal::{phi, phi_inv};
use crate::geometry::{Point, Rect};

/// Coverage probability `Pr(X in [c - eps, c + eps])` for
/// `X ~ N(0, sigma^2)` and a center offset `c` from the mean.
///
/// Symmetric in `c`, maximal at `c = 0`, strictly decreasing in `|c|`.
pub fn coverage(c: f64, eps: f64, sigma: f64) -> f64 {
    debug_assert!(eps >= 0.0 && sigma >= 0.0);
    if sigma == 0.0 {
        // Exact measurement: covered iff the center is within eps.
        return if c.abs() <= eps { 1.0 } else { 0.0 };
    }
    phi((c + eps) / sigma) - phi((c - eps) / sigma)
}

/// Exact tolerance-interval half-width for `(eps, delta)` and measurement
/// noise `sigma`; `None` when even the mean itself fails Equation 1
/// (the pitfall discussed at the end of Section 4.1).
///
/// The returned `w` satisfies `coverage(w) = 1 - delta` up to 1e-12 and
/// `coverage(c) >= 1 - delta` for all `|c| <= w`.
pub fn half_width_exact(eps: f64, delta: f64, sigma: f64) -> Option<f64> {
    assert!(eps > 0.0, "eps must be positive");
    assert!((0.0..1.0).contains(&delta) && delta > 0.0, "delta must lie in (0,1)");
    assert!(sigma >= 0.0, "sigma must be non-negative");
    let target = 1.0 - delta;
    if sigma == 0.0 {
        return Some(eps);
    }
    if coverage(0.0, eps, sigma) < target {
        return None;
    }
    // coverage(c) decreases for c >= 0 toward 0; bracket the root.
    // At c = eps + sigma * z(1 - delta) the coverage is well below the
    // target, but double defensively.
    let mut hi = eps + sigma * phi_inv(target.max(0.5)).max(1.0);
    while coverage(hi, eps, sigma) >= target {
        hi *= 2.0;
        if hi > 1e12 {
            return Some(hi); // numerically saturated; effectively unbounded
        }
    }
    let mut lo = 0.0_f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if coverage(mid, eps, sigma) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    Some(lo)
}

/// What to do when a measurement is too noisy for `(eps, delta)`
/// (Equation 2 has no solution). Mirrors the two policies suggested in
/// Section 4.1.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FallbackPolicy {
    /// Drop the measurement (the caller may retry or skip).
    Reject,
    /// Retroactively assign a predefined minimal half-width (meters).
    /// Tables cap it at their smallest solvable width, so a hopeless
    /// measurement never receives a wider interval than a barely
    /// solvable one (width stays monotone non-increasing in sigma).
    MinimalArea(f64),
}

/// Parses a CLI tag: `reject`, `minimal`, or `minimal:<w>` (width in
/// meters; bare `minimal` uses 0.5 m).
impl std::str::FromStr for FallbackPolicy {
    type Err = crate::config::ParseError;

    fn from_str(s: &str) -> Result<FallbackPolicy, Self::Err> {
        const EXPECTED: &str = "reject | minimal | minimal:<width-in-meters>";
        match s {
            "reject" => Ok(FallbackPolicy::Reject),
            "minimal" => Ok(FallbackPolicy::MinimalArea(0.5)),
            _ => {
                let parsed = s
                    .strip_prefix("minimal:")
                    .and_then(|w| w.parse::<f64>().ok())
                    .filter(|w| *w > 0.0 && w.is_finite());
                match parsed {
                    Some(w) => Ok(FallbackPolicy::MinimalArea(w)),
                    None => Err(crate::config::ParseError::new("fallback policy", s, EXPECTED)),
                }
            }
        }
    }
}

/// Precomputed `(eps, delta) -> half-width` lookup table over a sigma
/// grid: the constant-time per-timepoint option of Section 4.1.
///
/// Lookups interpolate between grid nodes and take the *smaller* of the
/// bracketing exact values as a floor, so the returned width never
/// exceeds the admissible one (conservative ⇒ the `1 - delta` guarantee
/// is preserved).
#[derive(Clone, Debug)]
pub struct ToleranceTable {
    eps: f64,
    delta: f64,
    sigma_step: f64,
    /// `widths[i]` = exact half-width at `sigma = i * sigma_step`;
    /// `None` once sigma exceeds the solvable range.
    widths: Vec<Option<f64>>,
    fallback: FallbackPolicy,
    /// Smallest solvable width on the grid (the width at the noisiest
    /// solvable node); fallback widths are capped here so the returned
    /// width is monotone non-increasing in sigma.
    min_solvable: f64,
}

impl ToleranceTable {
    /// Builds a table for tolerance `(eps, delta)` covering
    /// `sigma in [0, sigma_max]` with `steps` grid intervals.
    pub fn build(
        eps: f64,
        delta: f64,
        sigma_max: f64,
        steps: usize,
        fallback: FallbackPolicy,
    ) -> Self {
        assert!(steps >= 1, "need at least one grid interval");
        assert!(sigma_max > 0.0, "sigma_max must be positive");
        if let FallbackPolicy::MinimalArea(w) = fallback {
            assert!(w > 0.0 && w.is_finite(), "MinimalArea width must be positive and finite");
        }
        let sigma_step = sigma_max / steps as f64;
        let widths: Vec<Option<f64>> =
            (0..=steps).map(|i| half_width_exact(eps, delta, i as f64 * sigma_step)).collect();
        // Widths decrease in sigma, so the last solvable node holds the
        // grid minimum (sigma = 0 always solves to exactly eps).
        let min_solvable =
            widths.iter().rev().find_map(|w| *w).expect("sigma = 0 is always solvable");
        ToleranceTable { eps, delta, sigma_step, widths, fallback, min_solvable }
    }

    /// The tolerance radius this table was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The failure probability this table was built for.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Constant-time conservative half-width for measurement noise
    /// `sigma`. Applies the fallback policy when unsolvable; `None` means
    /// the measurement must be rejected.
    pub fn half_width(&self, sigma: f64) -> Option<f64> {
        debug_assert!(sigma >= 0.0);
        let pos = sigma / self.sigma_step;
        let i = pos.floor() as usize;
        let solved = if i + 1 < self.widths.len() {
            // Conservative: min of the bracketing nodes (width decreases
            // in sigma, so the right node is the floor; keep min anyway
            // for robustness at grid edges).
            match (self.widths[i], self.widths[i + 1]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            }
        } else if i < self.widths.len() && (pos - i as f64).abs() < 1e-12 {
            self.widths[i]
        } else {
            None // beyond the tabulated range: treat as unsolvable
        };
        solved.or(match self.fallback {
            FallbackPolicy::Reject => None,
            // Capped at the grid's smallest solvable width: a hopeless
            // measurement must never get a wider interval than a barely
            // solvable one.
            FallbackPolicy::MinimalArea(w) => Some(w.min(self.min_solvable)),
        })
    }
}

/// A 2-D Gaussian measurement: mean position plus independent per-axis
/// standard deviations (`Sigma = diag(sigma_x^2, sigma_y^2)`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GaussianPoint {
    /// Mean (reported) position.
    pub mean: Point,
    /// Standard deviation along x, meters.
    pub sigma_x: f64,
    /// Standard deviation along y, meters.
    pub sigma_y: f64,
}

impl GaussianPoint {
    /// Creates a measurement with isotropic noise.
    pub fn isotropic(mean: Point, sigma: f64) -> Self {
        GaussianPoint { mean, sigma_x: sigma, sigma_y: sigma }
    }

    /// The 2-D tolerance rectangle for `(eps, delta)` using the paper's
    /// per-axis simplification: each axis must succeed with probability
    /// `1 - delta/2`, since `(1 - delta/2)^2 >= 1 - delta`.
    ///
    /// Returns `None` when either axis is unsolvable (after the table's
    /// fallback policy).
    pub fn tolerance_rect(&self, table: &ToleranceTable2D) -> Option<Rect> {
        let wx = table.axis.half_width(self.sigma_x)?;
        let wy = table.axis.half_width(self.sigma_y)?;
        let d = Point::new(wx, wy);
        Some(Rect::new(self.mean - d, self.mean + d))
    }

    /// Exact (bisection) variant of [`Self::tolerance_rect`], bypassing
    /// the lookup table.
    pub fn tolerance_rect_exact(&self, eps: f64, delta: f64) -> Option<Rect> {
        let per_axis_delta = delta / 2.0;
        let wx = half_width_exact(eps, per_axis_delta, self.sigma_x)?;
        let wy = half_width_exact(eps, per_axis_delta, self.sigma_y)?;
        let d = Point::new(wx, wy);
        Some(Rect::new(self.mean - d, self.mean + d))
    }
}

/// 2-D tolerance table: a 1-D table built at `delta/2` applied per axis.
#[derive(Clone, Debug)]
pub struct ToleranceTable2D {
    axis: ToleranceTable,
}

impl ToleranceTable2D {
    /// Builds the per-axis table for a 2-D `(eps, delta)` tolerance.
    pub fn build(
        eps: f64,
        delta: f64,
        sigma_max: f64,
        steps: usize,
        fallback: FallbackPolicy,
    ) -> Self {
        ToleranceTable2D {
            axis: ToleranceTable::build(eps, delta / 2.0, sigma_max, steps, fallback),
        }
    }

    /// The underlying per-axis table.
    pub fn axis(&self) -> &ToleranceTable {
        &self.axis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_peaks_at_mean_and_decreases() {
        let (eps, sigma) = (10.0, 3.0);
        let peak = coverage(0.0, eps, sigma);
        assert!(peak > 0.99);
        assert!(coverage(2.0, eps, sigma) < peak);
        assert!(coverage(5.0, eps, sigma) < coverage(2.0, eps, sigma));
        assert!((coverage(4.0, eps, sigma) - coverage(-4.0, eps, sigma)).abs() < 1e-14);
    }

    #[test]
    fn zero_sigma_reduces_to_crisp_tolerance() {
        assert_eq!(half_width_exact(10.0, 0.05, 0.0), Some(10.0));
        assert_eq!(coverage(9.9, 10.0, 0.0), 1.0);
        assert_eq!(coverage(10.1, 10.0, 0.0), 0.0);
    }

    #[test]
    fn half_width_solves_equation_2() {
        let (eps, delta, sigma) = (10.0, 0.05, 3.0);
        let w = half_width_exact(eps, delta, sigma).unwrap();
        // Root property.
        assert!((coverage(w, eps, sigma) - (1.0 - delta)).abs() < 1e-9);
        // Everything inside keeps the guarantee.
        for i in 0..=10 {
            let c = w * i as f64 / 10.0;
            assert!(coverage(c, eps, sigma) >= 1.0 - delta - 1e-9);
        }
        // Just outside fails it.
        assert!(coverage(w + 1e-6, eps, sigma) < 1.0 - delta);
    }

    #[test]
    fn half_width_shrinks_with_noise_and_grows_with_eps() {
        let w1 = half_width_exact(10.0, 0.05, 1.0).unwrap();
        let w2 = half_width_exact(10.0, 0.05, 3.0).unwrap();
        let w3 = half_width_exact(10.0, 0.05, 4.5).unwrap();
        assert!(w1 > w2 && w2 > w3, "{w1} {w2} {w3}");
        let big_eps = half_width_exact(20.0, 0.05, 3.0).unwrap();
        assert!(big_eps > w2);
        // Looser delta admits wider intervals.
        let loose = half_width_exact(10.0, 0.2, 3.0).unwrap();
        assert!(loose > w2);
    }

    #[test]
    fn unsolvable_when_noise_swamps_tolerance() {
        // With sigma = eps the central coverage is ~68% < 95%.
        assert_eq!(half_width_exact(10.0, 0.05, 10.0), None);
        // Enormous sigma is unsolvable for any reasonable delta.
        assert_eq!(half_width_exact(1.0, 0.01, 100.0), None);
    }

    #[test]
    fn table_is_conservative_wrt_exact() {
        let table = ToleranceTable::build(10.0, 0.05, 6.0, 64, FallbackPolicy::Reject);
        for i in 0..60 {
            let sigma = i as f64 * 0.1 + 0.03;
            match (table.half_width(sigma), half_width_exact(10.0, 0.05, sigma)) {
                (Some(t), Some(e)) => {
                    assert!(t <= e + 1e-9, "table {t} exceeds exact {e} at sigma={sigma}");
                    // And not wildly conservative on a fine grid.
                    assert!(e - t < 0.5, "table too loose at sigma={sigma}: {t} vs {e}");
                }
                (None, _) => {} // conservative rejection is acceptable
                (Some(t), None) => panic!("table solved unsolvable sigma={sigma}: {t}"),
            }
        }
    }

    #[test]
    fn table_fallback_policies() {
        let reject = ToleranceTable::build(10.0, 0.05, 6.0, 16, FallbackPolicy::Reject);
        assert_eq!(reject.half_width(50.0), None);
        let minimal = ToleranceTable::build(10.0, 0.05, 6.0, 16, FallbackPolicy::MinimalArea(0.05));
        assert_eq!(minimal.half_width(50.0), Some(0.05));
        assert_eq!(minimal.eps(), 10.0);
        assert_eq!(minimal.delta(), 0.05);
    }

    #[test]
    fn fallback_width_is_capped_at_the_smallest_solvable_width() {
        // A huge configured width must not hand unsolvable measurements
        // a wider interval than the noisiest solvable sigma gets.
        let table = ToleranceTable::build(10.0, 0.05, 6.0, 64, FallbackPolicy::MinimalArea(100.0));
        let fallback = table.half_width(50.0).unwrap();
        let reject = ToleranceTable::build(10.0, 0.05, 6.0, 64, FallbackPolicy::Reject);
        let edge = (0..640)
            .rev()
            .find_map(|i| reject.half_width(i as f64 * 0.01))
            .expect("some sigma solvable");
        assert!(fallback <= edge, "fallback {fallback} wider than solvable edge {edge}");
        // And the resulting width function is monotone non-increasing.
        let mut prev = f64::INFINITY;
        for i in 0..120 {
            let w = table.half_width(i as f64 * 0.05).unwrap();
            assert!(w <= prev + 1e-9, "width not monotone at sigma={}", i as f64 * 0.05);
            prev = w;
        }
    }

    #[test]
    fn fallback_policy_parses_cli_tags() {
        let parse = |s: &str| s.parse::<FallbackPolicy>().ok();
        assert_eq!(parse("reject"), Some(FallbackPolicy::Reject));
        assert_eq!(parse("minimal"), Some(FallbackPolicy::MinimalArea(0.5)));
        assert_eq!(parse("minimal:2.5"), Some(FallbackPolicy::MinimalArea(2.5)));
        assert_eq!(parse("minimal:0"), None);
        assert_eq!(parse("minimal:-1"), None);
        assert_eq!(parse("nope"), None);
    }

    #[test]
    #[should_panic(expected = "MinimalArea width must be positive")]
    fn build_rejects_nonpositive_minimal_width() {
        let _ = ToleranceTable::build(10.0, 0.05, 6.0, 16, FallbackPolicy::MinimalArea(0.0));
    }

    #[test]
    fn gaussian_point_rect_is_centered_and_axis_scaled() {
        let g = GaussianPoint { mean: Point::new(100.0, 200.0), sigma_x: 1.0, sigma_y: 3.0 };
        let r = g.tolerance_rect_exact(10.0, 0.05).unwrap();
        assert_eq!(r.centroid(), Point::new(100.0, 200.0));
        // Noisier axis gets the narrower admissible interval.
        assert!(r.width() > r.height(), "{} vs {}", r.width(), r.height());
        // Both half-widths below eps (noise always shrinks the square).
        assert!(r.width() / 2.0 <= 10.0 && r.height() / 2.0 <= 10.0);
    }

    #[test]
    fn gaussian_rect_table_matches_exact_closely() {
        let table = ToleranceTable2D::build(10.0, 0.05, 6.0, 256, FallbackPolicy::Reject);
        let g = GaussianPoint::isotropic(Point::new(0.0, 0.0), 2.0);
        let via_table = g.tolerance_rect(&table).unwrap();
        let exact = g.tolerance_rect_exact(10.0, 0.05).unwrap();
        assert!(via_table.width() <= exact.width() + 1e-9);
        assert!(exact.width() - via_table.width() < 0.1);
    }

    #[test]
    fn per_axis_delta_split_guarantees_joint_probability() {
        // (1 - delta/2)^2 >= 1 - delta.
        for &delta in &[0.01, 0.05, 0.1, 0.3] {
            let per_axis = 1.0 - delta / 2.0;
            assert!(per_axis * per_axis >= 1.0 - delta);
        }
    }

    #[test]
    fn isotropic_constructor() {
        let g = GaussianPoint::isotropic(Point::new(1.0, 2.0), 0.7);
        assert_eq!(g.sigma_x, 0.7);
        assert_eq!(g.sigma_y, 0.7);
    }
}
