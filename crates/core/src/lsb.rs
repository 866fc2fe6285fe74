//! LSB-side refinement rules (paper §5.2).
//!
//! The dual simulation leaves every signal with produced-error statistics
//! `(|e|max, m̄, σ)`. The rule is: additional precision below the existing
//! noise floor buys nothing, so the LSB position is the largest `L` with
//! `2^L ≤ k·σ` — i.e. `L = ⌊log₂(k·σ)⌋` — with the empirical constant
//! `k ∈ [1, 4]` (smaller `k` = more conservative).
//!
//! Special cases handled here:
//!
//! * **exact signals** (`σ = 0`, e.g. a ±1 slicer output): the LSB is the
//!   finest position the signal's values actually used;
//! * **divergent feedback signals**: strongly correlated float/fixed
//!   errors make the statistics irrelevant — flagged so the flow can break
//!   the loop with an `error()` annotation;
//! * **precision checks** on already-quantized signals: produced σ above
//!   consumed σ means the signal's own quantization dominates (a
//!   *precision loss* the designer must confirm is intentional).

use std::fmt;

use fixref_fixed::RoundingMode;
use fixref_sim::{SignalId, SignalReport};

use crate::policy::RefinePolicy;

/// How the LSB rule resolved for one signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsbStatus {
    /// `σ > 0` and the statistics are trustworthy: LSB from the rule.
    Resolved,
    /// Every observed error was exactly zero; LSB taken from the finest
    /// value granularity the signal used.
    Exact,
    /// The float/fixed difference diverged (sensitive feedback) — needs an
    /// `error()` annotation and a re-run.
    Diverged,
    /// No assignments were observed.
    NoData,
}

impl LsbStatus {
    /// The lowercase token (`"resolved"`, `"no-data"`, …) used in tables
    /// and checkpoints.
    pub(crate) fn token(&self) -> &'static str {
        match self {
            LsbStatus::Resolved => "resolved",
            LsbStatus::Exact => "exact",
            LsbStatus::Diverged => "diverged",
            LsbStatus::NoData => "no-data",
        }
    }
}

impl fmt::Display for LsbStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The complete LSB analysis of one signal — one row of the paper's
/// Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct LsbAnalysis {
    /// The analyzed signal.
    pub id: SignalId,
    /// Its name.
    pub name: String,
    /// `#n`: the number of monitored assignments.
    pub assigns: u64,
    /// Maximum absolute produced error `|e|max`.
    pub max_abs: f64,
    /// Mean produced error `m̄`.
    pub mean: f64,
    /// Produced-error standard deviation `σ`.
    pub std: f64,
    /// The decided LSB position, when resolvable.
    pub lsb: Option<i32>,
    /// How the rule resolved.
    pub status: LsbStatus,
    /// Produced σ exceeded consumed σ: this signal's own quantization
    /// dominates its noise (paper: `e_p > e_c` — intentional?).
    pub precision_loss: bool,
    /// The error-mean shift that switching this signal to floor rounding
    /// would introduce (`2^(L−1)`), for the round-vs-floor decision.
    pub floor_mean_shift: Option<f64>,
    /// Rounding recommendation under the policy.
    pub rounding: RoundingMode,
}

impl LsbAnalysis {
    /// Fractional bits implied by the decided LSB (`f = −LSB`).
    pub fn fractional_bits(&self) -> Option<i32> {
        self.lsb.map(|l| -l)
    }
}

/// Applies the §5.2 rule to one monitored signal.
pub fn analyze_lsb(report: &SignalReport, policy: &RefinePolicy) -> LsbAnalysis {
    let produced = report.produced;
    let sigma = produced.std();
    let assigns = report.writes;

    let (status, lsb) = if assigns == 0 {
        (LsbStatus::NoData, None)
    } else if diverged(report, policy) {
        (LsbStatus::Diverged, None)
    } else if sigma == 0.0 {
        // Exact signal: quantizing at its own granularity is lossless;
        // floored so coefficient literals do not demand f64-width types.
        (
            LsbStatus::Exact,
            report.finest_lsb.map(|l| l.max(policy.exact_lsb_floor)),
        )
    } else {
        let l = (policy.k_lsb * sigma).log2().floor() as i32;
        (
            LsbStatus::Resolved,
            Some(l.clamp(policy.min_lsb, policy.max_lsb)),
        )
    };

    // Round-vs-floor (paper §5.2): floor is cheaper hardware but shifts
    // the error mean by half an LSB; recommend it only where that shift
    // stays below the policy's fraction of the signal's own error σ.
    let floor_mean_shift = lsb.map(|l| ((l - 1) as f64).exp2());
    let rounding = match (policy.floor_if_shift_below, floor_mean_shift) {
        (Some(frac), Some(shift)) if sigma > 0.0 && shift <= frac * sigma => RoundingMode::Floor,
        _ => policy.rounding,
    };

    LsbAnalysis {
        id: report.id,
        name: report.name.clone(),
        assigns,
        max_abs: produced.max_abs(),
        mean: produced.mean(),
        std: sigma,
        lsb,
        status,
        precision_loss: report.precision_loss(),
        floor_mean_shift,
        rounding,
    }
}

/// Divergence test: the error statistics are irrelevant when the produced
/// error is non-finite or large relative to the signal's own amplitude
/// (paper §4.2: strong inter-iteration correlation on feedback paths).
fn diverged(report: &SignalReport, policy: &RefinePolicy) -> bool {
    let produced = report.produced;
    if !produced.std().is_finite() || !produced.max_abs().is_finite() {
        return true;
    }
    // With an explicit error() annotation active, statistics are by
    // construction well-behaved.
    if report.error_override.is_some() {
        return false;
    }
    let amplitude = report.stat.interval().map(|i| i.max_abs()).unwrap_or(0.0);
    amplitude > 0.0
        && (produced.std() > policy.divergence_ratio * amplitude
            || produced.max_abs() > policy.divergence_max_ratio * amplitude)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::{ErrorStats, Interval, RangeStats};
    use fixref_sim::SignalKind;

    fn report(errors: &[f64], values: &[f64]) -> SignalReport {
        let mut produced = ErrorStats::new();
        for &e in errors {
            produced.record(e);
        }
        let mut stat = RangeStats::new();
        for &v in values {
            stat.record(v);
        }
        SignalReport {
            id: SignalId::from_raw(0),
            name: "s".into(),
            kind: SignalKind::Wire,
            dtype: None,
            range_override: None,
            error_override: None,
            stat,
            prop: Interval::EMPTY,
            consumed: ErrorStats::new(),
            produced,
            overflows: 0,
            reads: 0,
            writes: errors.len().max(values.len()) as u64,
            finest_lsb: None,
        }
    }

    /// Uniform quantization noise at LSB position `l` has σ = 2^l/√12.
    /// With k = 4 the rule recovers l itself: floor(log2(4·2^l/√12)) =
    /// floor(l + log2(4/3.46)) = l; with the default k = 1 it lands two
    /// bits finer (quantizing well below the existing noise floor).
    #[test]
    fn rule_recovers_quantization_lsb() {
        let l = -6;
        let q = (l as f64).exp2();
        let n = 4000usize;
        let errors: Vec<f64> = (0..n)
            .map(|i| ((i as f64 + 0.5) / n as f64 - 0.5) * q)
            .collect();
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
        let k4 = analyze_lsb(
            &report(&errors, &values),
            &RefinePolicy::default().with_k_lsb(4.0),
        );
        assert_eq!(k4.status, LsbStatus::Resolved);
        assert_eq!(k4.lsb, Some(-6));
        assert_eq!(k4.fractional_bits(), Some(6));
        let k1 = analyze_lsb(&report(&errors, &values), &RefinePolicy::default());
        assert_eq!(k1.lsb, Some(-8));
    }

    #[test]
    fn smaller_k_is_more_conservative() {
        let errors: Vec<f64> = (0..1000)
            .map(|i| ((i as f64 + 0.5) / 1000.0 - 0.5) * 0.01)
            .collect();
        let values = vec![1.0; 1000];
        let k4 = analyze_lsb(
            &report(&errors, &values),
            &RefinePolicy::default().with_k_lsb(4.0),
        );
        let k1 = analyze_lsb(
            &report(&errors, &values),
            &RefinePolicy::default().with_k_lsb(1.0),
        );
        assert!(k1.lsb.unwrap() < k4.lsb.unwrap());
    }

    #[test]
    fn exact_signal_uses_granularity() {
        let mut r = report(&[0.0, 0.0, 0.0], &[1.0, -1.0, 1.0]);
        r.finest_lsb = Some(0);
        let a = analyze_lsb(&r, &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::Exact);
        assert_eq!(a.lsb, Some(0));
        assert_eq!(a.std, 0.0);
        assert_eq!(a.max_abs, 0.0);
    }

    #[test]
    fn exact_signal_lsb_floored_for_literals() {
        // A coefficient like -0.11 is dyadic only near 2^-56; the policy
        // floor keeps the decided type practical.
        let mut r = report(&[0.0, 0.0], &[-0.11, -0.11]);
        r.finest_lsb = Some(-56);
        let a = analyze_lsb(&r, &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::Exact);
        assert_eq!(a.lsb, Some(RefinePolicy::default().exact_lsb_floor));
    }

    #[test]
    fn exact_signal_without_granularity_unresolved() {
        let r = report(&[0.0, 0.0], &[0.0, 0.0]);
        let a = analyze_lsb(&r, &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::Exact);
        assert_eq!(a.lsb, None);
    }

    #[test]
    fn divergence_by_amplitude_ratio() {
        // Signal amplitude 1, error std ~ 0.8: irrelevant statistics.
        let errors: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.8 } else { -0.8 })
            .collect();
        let values = vec![1.0, -1.0];
        let a = analyze_lsb(&report(&errors, &values), &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::Diverged);
        assert_eq!(a.lsb, None);
    }

    #[test]
    fn error_override_suppresses_divergence_flag() {
        let errors: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.8 } else { -0.8 })
            .collect();
        let mut r = report(&errors, &[1.0, -1.0]);
        r.error_override = Some(0.8);
        let a = analyze_lsb(&r, &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::Resolved);
        assert!(a.lsb.is_some());
    }

    #[test]
    fn non_finite_errors_diverge() {
        let mut r = report(&[], &[1.0]);
        r.produced.record(f64::INFINITY);
        r.produced.record(0.0);
        let a = analyze_lsb(&r, &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::Diverged);
    }

    #[test]
    fn no_data() {
        let a = analyze_lsb(&report(&[], &[]), &RefinePolicy::default());
        assert_eq!(a.status, LsbStatus::NoData);
        assert_eq!(a.lsb, None);
        assert_eq!(a.assigns, 0);
    }

    #[test]
    fn lsb_clamped_to_policy_bounds() {
        // Tiny sigma would give an extreme LSB; the clamp catches it.
        let errors: Vec<f64> = (0..1000)
            .map(|i| ((i as f64 + 0.5) / 1000.0 - 0.5) * 1e-30)
            .collect();
        let a = analyze_lsb(&report(&errors, &[1.0]), &RefinePolicy::default());
        assert_eq!(a.lsb, Some(RefinePolicy::default().min_lsb));
    }

    #[test]
    fn precision_loss_flag_propagates() {
        let mut r = report(&[0.01, -0.01, 0.01, -0.01], &[1.0]);
        // consumed much smaller than produced
        r.consumed.record(1e-6);
        r.consumed.record(-1e-6);
        let a = analyze_lsb(&r, &RefinePolicy::default());
        assert!(a.precision_loss);
    }

    #[test]
    fn floor_mean_shift_is_half_lsb() {
        let errors: Vec<f64> = (0..1000)
            .map(|i| ((i as f64 + 0.5) / 1000.0 - 0.5) * 0.03125)
            .collect();
        let a = analyze_lsb(&report(&errors, &[1.0]), &RefinePolicy::default());
        let l = a.lsb.unwrap();
        assert_eq!(a.floor_mean_shift, Some(((l - 1) as f64).exp2()));
        assert_eq!(a.rounding, RoundingMode::Round);
    }

    #[test]
    fn status_display() {
        assert_eq!(LsbStatus::Resolved.to_string(), "resolved");
        assert_eq!(LsbStatus::Exact.to_string(), "exact");
        assert_eq!(LsbStatus::Diverged.to_string(), "diverged");
        assert_eq!(LsbStatus::NoData.to_string(), "no-data");
    }
}
