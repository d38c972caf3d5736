//! Paired Student t-test.
//!
//! The paper marks improvements with † when a paired t-test over per-query
//! precision values rejects the null hypothesis at `p < 0.05`. The
//! two-sided p-value is computed exactly from the t-distribution CDF,
//! itself evaluated through the regularized incomplete beta function
//! (continued-fraction form, Numerical-Recipes style Lentz algorithm).

/// Outcome of a paired t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic `mean(d) / (sd(d)/√n)`.
    pub t: f64,
    /// Degrees of freedom (`n − 1`).
    pub df: usize,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Mean of the paired differences (`treatment − baseline`).
    pub mean_diff: f64,
}

impl TTestResult {
    /// True when the treatment is significantly *better* than the baseline
    /// at the given level (two-sided test and positive mean difference —
    /// the paper's † marker).
    pub fn significant_improvement(&self, alpha: f64) -> bool {
        self.mean_diff > 0.0 && self.p_value < alpha
    }
}

/// Runs a paired t-test of `treatment` against `baseline` (equal-length
/// per-query scores). Returns `None` for fewer than two pairs or when all
/// differences are exactly zero (degenerate variance: no evidence either
/// way).
pub fn paired_t_test(treatment: &[f64], baseline: &[f64]) -> Option<TTestResult> {
    assert_eq!(
        treatment.len(),
        baseline.len(),
        "paired test needs equal-length samples"
    );
    let n = treatment.len();
    if n < 2 {
        return None;
    }
    let diffs: Vec<f64> = treatment
        .iter()
        .zip(baseline.iter())
        .map(|(&a, &b)| a - b)
        .collect();
    let mean = diffs.iter().sum::<f64>() / n as f64;
    let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    if var == 0.0 {
        return None;
    }
    let se = (var / n as f64).sqrt();
    let t = mean / se;
    let df = n - 1;
    let p_value = two_sided_p(t, df as f64);
    Some(TTestResult {
        t,
        df,
        p_value,
        mean_diff: mean,
    })
}

/// Two-sided p-value of a t statistic with `df` degrees of freedom:
/// `p = I_x(df/2, 1/2)` with `x = df/(df + t²)`.
pub fn two_sided_p(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    incomplete_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Regularized incomplete beta function `I_x(a, b)`.
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz's method).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Natural log of the gamma function (Lanczos approximation, g=7, n=9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.2), (5.0, 1.0, 0.9)] {
            let lhs = incomplete_beta(a, b, x);
            let rhs = 1.0 - incomplete_beta(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-10, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn incomplete_beta_uniform_case() {
        // I_x(1,1) = x.
        for x in [0.1, 0.5, 0.9] {
            assert!((incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn t_cdf_reference_values() {
        // Two-sided p for t=2.086, df=20 is ~0.05 (critical value table).
        let p = two_sided_p(2.086, 20.0);
        assert!((p - 0.05).abs() < 1e-3, "p={p}");
        // t=0 ⇒ p=1.
        assert!((two_sided_p(0.0, 10.0) - 1.0).abs() < 1e-12);
        // Large |t| ⇒ tiny p.
        assert!(two_sided_p(10.0, 30.0) < 1e-9);
        // Symmetric in t.
        assert!((two_sided_p(1.5, 12.0) - two_sided_p(-1.5, 12.0)).abs() < 1e-12);
    }

    #[test]
    fn t_critical_value_df49() {
        // The paper's datasets have 50 queries ⇒ df = 49; the two-sided
        // 5% critical value is ≈ 2.0096.
        let p_below = two_sided_p(2.0, 49.0);
        let p_above = two_sided_p(2.02, 49.0);
        assert!(p_below > 0.05 && p_above < 0.05, "{p_below} {p_above}");
    }

    #[test]
    fn paired_test_detects_consistent_improvement() {
        let base = vec![0.1, 0.2, 0.15, 0.3, 0.25, 0.1, 0.2, 0.18];
        let treat: Vec<f64> = base.iter().map(|x| x + 0.1).collect();
        let r = paired_t_test(&treat, &base).unwrap();
        assert!(r.significant_improvement(0.05));
        assert!(r.mean_diff > 0.0);
    }

    #[test]
    fn paired_test_no_difference_is_degenerate() {
        let base = vec![0.1, 0.2, 0.3];
        assert!(paired_t_test(&base, &base).is_none());
    }

    #[test]
    fn paired_test_needs_two_pairs() {
        assert!(paired_t_test(&[1.0], &[0.5]).is_none());
    }

    #[test]
    fn paired_test_known_t_statistic() {
        // d = [1, 2, 3]: mean 2, sd 1, se = 1/√3, t = 2√3 ≈ 3.4641.
        let base = vec![0.0, 0.0, 0.0];
        let treat = vec![1.0, 2.0, 3.0];
        let r = paired_t_test(&treat, &base).unwrap();
        assert!((r.t - 2.0 * 3.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(r.df, 2);
        // Reference: p ≈ 0.0742 (two-sided, df=2).
        assert!((r.p_value - 0.0742).abs() < 5e-4, "p={}", r.p_value);
    }

    #[test]
    fn worse_treatment_not_significant_improvement() {
        let base = vec![0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        let treat = vec![0.1, 0.2, 0.3, 0.2, 0.1, 0.3];
        let r = paired_t_test(&treat, &base).unwrap();
        assert!(!r.significant_improvement(0.05));
        assert!(r.p_value < 0.05, "difference is significant but negative");
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_panic() {
        let _ = paired_t_test(&[1.0, 2.0], &[1.0]);
    }
}
