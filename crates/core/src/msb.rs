//! MSB-side refinement rules (paper §5.1).
//!
//! Two range estimates exist per signal after a monitored simulation:
//! the *statistic* range (observed min/max — tight but stimuli-dependent)
//! and the *propagated* range (interval arithmetic — safe but possibly
//! pessimistic). Writing `C(min, max)` for the MSB needed to hold a range,
//! the rules compare `C(stat)` with `C(prop)`:
//!
//! * **(a)** `C(stat) == C(prop)` — both techniques guarantee no
//!   overflow: take that MSB with a non-saturated mode;
//! * **(b)** `C(prop) ≫ C(stat)` (or propagation exploded) — propagation
//!   is very pessimistic (typically an accumulator / feedback signal):
//!   switch to saturation at the statistic MSB, report the guard range
//!   the hardware saturation logic must absorb, and/or pin the range with
//!   an explicit `range()` annotation;
//! * **(c)** `C(prop) > C(stat)` by a small gap — a trade-off: either the
//!   safe propagated MSB (non-saturated) or the tight statistic MSB with
//!   saturation; "still it is possible that simulation didn't trigger the
//!   worst case".

use std::fmt;

use fixref_fixed::{msb_for_range, Interval, OverflowMode, Signedness};
use fixref_sim::spec::IntervalCodec;
use fixref_sim::{SignalId, SignalReport};

use crate::policy::RefinePolicy;

fixref_obs::json_enum! {
    tag = "kind";

    /// The outcome of applying the MSB rules to one signal.
    #[derive(Debug, Clone, PartialEq)]
    pub enum MsbDecision {
        /// Rule (a): statistic and propagation agree — non-saturated mode.
        "agree" => Agree {
            /// The agreed MSB position.
            msb: i32,
        },
        /// Rule (b): propagation pessimistic or exploded — saturate.
        "saturate" => Saturate {
            /// The decided MSB (statistic MSB plus the policy margin).
            msb: i32,
            /// The range the saturation hardware must absorb: the propagated
            /// range when finite, otherwise the widened statistic range.
            guard: Interval as IntervalCodec,
            /// True when forced by a genuine range explosion (feedback),
            /// false when propagation was merely pessimistic.
            forced: bool,
        },
        /// Rule (c): small gap — trade-off resolved per policy.
        "tradeoff" => Tradeoff {
            /// MSB from the statistic range.
            stat_msb: i32,
            /// MSB from the propagated range.
            prop_msb: i32,
            /// The decided MSB.
            chosen: i32,
            /// Whether the decision uses saturation (statistic side chosen).
            saturate: bool,
        },
        /// The signal carried no usable range information (never assigned, or
        /// only zeros with an empty propagated range).
        "unresolved" => Unresolved {
            /// Why no decision could be made.
            reason: String,
        },
    }
}

impl MsbDecision {
    /// The decided MSB position, if the rules reached one.
    pub fn msb(&self) -> Option<i32> {
        match self {
            MsbDecision::Agree { msb } => Some(*msb),
            MsbDecision::Saturate { msb, .. } => Some(*msb),
            MsbDecision::Tradeoff { chosen, .. } => Some(*chosen),
            MsbDecision::Unresolved { .. } => None,
        }
    }

    /// Whether the decision requires saturation hardware.
    pub fn is_saturated(&self) -> bool {
        matches!(
            self,
            MsbDecision::Saturate { .. } | MsbDecision::Tradeoff { saturate: true, .. }
        )
    }

    /// Whether the decision was forced by range explosion on a feedback
    /// path (needs a `range()` annotation to stabilize propagation).
    pub fn is_forced_saturation(&self) -> bool {
        matches!(self, MsbDecision::Saturate { forced: true, .. })
    }

    /// Whether the rules reached a usable MSB.
    pub fn is_resolved(&self) -> bool {
        self.msb().is_some()
    }
}

impl fmt::Display for MsbDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsbDecision::Agree { msb } => write!(f, "agree(msb={msb})"),
            MsbDecision::Saturate { msb, forced, .. } => {
                write!(
                    f,
                    "saturate(msb={msb}{})",
                    if *forced { ", forced" } else { "" }
                )
            }
            MsbDecision::Tradeoff {
                stat_msb,
                prop_msb,
                chosen,
                saturate,
            } => write!(
                f,
                "tradeoff(stat={stat_msb}, prop={prop_msb}, chosen={chosen}, sat={saturate})"
            ),
            MsbDecision::Unresolved { reason } => write!(f, "unresolved({reason})"),
        }
    }
}

/// The complete MSB analysis of one signal — one row of the paper's
/// Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MsbAnalysis {
    /// The analyzed signal.
    pub id: SignalId,
    /// Its name.
    pub name: String,
    /// `#n`: the number of monitored assignments.
    pub accesses: u64,
    /// Statistic range (observed min/max), if any value was seen.
    pub stat: Option<Interval>,
    /// MSB required by the statistic range.
    pub stat_msb: Option<i32>,
    /// Propagated range (the explicit `range()` annotation when present).
    pub prop: Option<Interval>,
    /// MSB required by the propagated range; `None` when the propagation
    /// exploded or produced nothing.
    pub prop_msb: Option<i32>,
    /// Whether the propagated range exploded (unbounded or above the
    /// policy's explosion MSB).
    pub exploded: bool,
    /// The rule decision.
    pub decision: MsbDecision,
    /// Overflow mode implied by the decision (saturate vs the policy's
    /// non-saturated mode).
    pub mode: OverflowMode,
    /// Decided signal representation: unsigned when the policy allows it
    /// and neither estimate ever went negative.
    pub signedness: Signedness,
}

impl MsbAnalysis {
    /// The decided MSB, if resolved.
    pub fn decided_msb(&self) -> Option<i32> {
        self.decision.msb()
    }

    /// MSB overhead of the decision versus the pure statistic estimate —
    /// the quantity the paper averages to "0.22 bits per signal" in the
    /// complex example.
    pub fn overhead_bits(&self) -> Option<i32> {
        Some(self.decided_msb()? - self.stat_msb?)
    }
}

/// Applies the §5.1 rules to one monitored signal.
///
/// Ranges containing only zero resolve through the other estimate; a
/// signal with no information at all comes back
/// [`MsbDecision::Unresolved`].
pub fn analyze_msb(report: &SignalReport, policy: &RefinePolicy) -> MsbAnalysis {
    let stat = report.stat.interval();
    let prop_itv = report.effective_prop();
    let prop = if prop_itv.is_empty() {
        None
    } else {
        Some(prop_itv)
    };

    // Unsigned representation is safe only when both estimates stay
    // non-negative (an unseen negative excursion would alias).
    let signedness = if policy.allow_unsigned
        && stat.is_none_or(|i| i.lo >= 0.0)
        && prop.is_none_or(|i| i.lo >= 0.0)
        && (stat.is_some() || prop.is_some())
    {
        Signedness::Unsigned
    } else {
        Signedness::TwosComplement
    };

    let stat_msb = stat.and_then(|i| msb_for_range(i.lo, i.hi, signedness));
    let prop_msb_raw = prop.and_then(|i| msb_for_range(i.lo, i.hi, signedness));
    let gap_explosion = match (stat_msb, prop_msb_raw) {
        (Some(s), Some(p)) => p - s >= policy.explosion_gap,
        _ => false,
    };
    let exploded = prop.is_some_and(|i| i.is_exploded())
        || prop_msb_raw.is_some_and(|m| m > policy.explosion_msb)
        || gap_explosion;
    let prop_msb = if exploded { None } else { prop_msb_raw };

    let decision = decide(stat_msb, prop_msb, exploded, stat, prop, policy);
    let mode = if decision.is_saturated() {
        OverflowMode::Saturate
    } else {
        policy.nonsaturated_mode
    };

    MsbAnalysis {
        id: report.id,
        name: report.name.clone(),
        accesses: report.writes,
        stat,
        stat_msb,
        prop,
        prop_msb,
        exploded,
        decision,
        mode,
        signedness,
    }
}

fn decide(
    stat_msb: Option<i32>,
    prop_msb: Option<i32>,
    exploded: bool,
    stat: Option<Interval>,
    prop: Option<Interval>,
    policy: &RefinePolicy,
) -> MsbDecision {
    match (stat_msb, prop_msb) {
        (Some(s), _) if exploded => MsbDecision::Saturate {
            msb: s + policy.saturation_margin,
            guard: guard_range(stat, None),
            forced: true,
        },
        (Some(s), Some(p)) => {
            let gap = p - s;
            if gap <= 0 {
                // Propagation can undercut the statistic only through an
                // explicit (designer) range annotation; the annotation is
                // authoritative for propagation, the statistic for safety.
                MsbDecision::Agree { msb: s.max(p) }
            } else if gap >= policy.pessimism_gap {
                MsbDecision::Saturate {
                    msb: s + policy.saturation_margin,
                    guard: guard_range(stat, prop),
                    forced: false,
                }
            } else {
                let (chosen, saturate) = if policy.tradeoff_prefers_propagation {
                    (p, false)
                } else {
                    (s + policy.saturation_margin, true)
                };
                MsbDecision::Tradeoff {
                    stat_msb: s,
                    prop_msb: p,
                    chosen,
                    saturate,
                }
            }
        }
        // Only propagation knows a range (e.g. a constant zero signal with
        // a declared type, or a never-exercised path).
        (None, Some(p)) => MsbDecision::Agree { msb: p },
        (Some(s), None) => MsbDecision::Saturate {
            msb: s + policy.saturation_margin,
            guard: guard_range(stat, None),
            forced: exploded,
        },
        (None, None) => MsbDecision::Unresolved {
            reason: if exploded {
                "range propagation exploded and no statistic range was observed".to_string()
            } else {
                "no range information (signal never assigned a nonzero value)".to_string()
            },
        },
    }
}

/// The guard range the saturation hardware must absorb: the finite
/// propagated range when available, otherwise the statistic range widened
/// by one binade.
fn guard_range(stat: Option<Interval>, prop: Option<Interval>) -> Interval {
    if let Some(p) = prop {
        if p.is_bounded() {
            return p;
        }
    }
    match stat {
        Some(s) => s.shift(1),
        None => Interval::EMPTY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixref_fixed::{ErrorStats, RangeStats};
    use fixref_sim::SignalKind;

    fn report(stat: Option<(f64, f64)>, prop: Interval) -> SignalReport {
        let mut st = RangeStats::new();
        if let Some((lo, hi)) = stat {
            st.record(lo);
            st.record(hi);
        }
        SignalReport {
            id: SignalId::from_raw(0),
            name: "s".into(),
            kind: SignalKind::Wire,
            dtype: None,
            range_override: None,
            error_override: None,
            stat: st,
            prop,
            consumed: ErrorStats::new(),
            produced: ErrorStats::new(),
            overflows: 0,
            reads: 0,
            writes: st.count(),
            finest_lsb: None,
        }
    }

    #[test]
    fn rule_a_agreement() {
        let r = report(Some((-1.4, 1.5)), Interval::new(-1.5, 1.5));
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert_eq!(a.decision, MsbDecision::Agree { msb: 1 });
        assert_eq!(a.mode, OverflowMode::Error);
        assert_eq!(a.overhead_bits(), Some(0));
        assert!(!a.exploded);
        assert!(a.decision.is_resolved());
        assert!(!a.decision.is_saturated());
    }

    #[test]
    fn rule_b_pessimistic_propagation_saturates() {
        // stat needs msb -2 (|x| <= 0.2), prop says +3: gap 5 >= 4.
        let r = report(Some((-0.2, 0.2)), Interval::new(-8.0, 7.0));
        let a = analyze_msb(&r, &RefinePolicy::default());
        match &a.decision {
            MsbDecision::Saturate { msb, guard, forced } => {
                assert_eq!(*msb, -2);
                assert!(!forced);
                assert_eq!(*guard, Interval::new(-8.0, 7.0));
            }
            other => panic!("expected saturate, got {other}"),
        }
        assert_eq!(a.mode, OverflowMode::Saturate);
    }

    #[test]
    fn rule_b_explosion_forces_saturation() {
        let r = report(Some((-0.11, 0.11)), Interval::UNBOUNDED);
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert!(a.exploded);
        assert!(a.decision.is_forced_saturation());
        assert_eq!(a.decided_msb(), Some(-3));
        // Guard falls back to the widened statistic range.
        match &a.decision {
            MsbDecision::Saturate { guard, .. } => {
                assert_eq!(*guard, Interval::new(-0.22, 0.22))
            }
            other => panic!("expected saturate, got {other}"),
        }
    }

    #[test]
    fn finite_but_huge_prop_counts_as_explosion() {
        let r = report(Some((-1.0, 1.0)), Interval::new(-1e9, 1e9)); // msb 30 > 24
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert!(a.exploded);
        assert!(a.decision.is_forced_saturation());
    }

    #[test]
    fn rule_c_tradeoff_prefers_propagation_by_default() {
        // stat msb 0 (|x| <= 0.9), prop msb 2 (<= 3.5): gap 2 < 4.
        let r = report(Some((-0.9, 0.9)), Interval::new(-3.5, 3.5));
        let a = analyze_msb(&r, &RefinePolicy::default());
        match a.decision {
            MsbDecision::Tradeoff {
                stat_msb,
                prop_msb,
                chosen,
                saturate,
            } => {
                assert_eq!((stat_msb, prop_msb, chosen), (0, 2, 2));
                assert!(!saturate);
            }
            ref other => panic!("expected tradeoff, got {other}"),
        }
        assert_eq!(a.overhead_bits(), Some(2));
    }

    #[test]
    fn rule_c_tradeoff_statistic_side_saturates() {
        let policy = RefinePolicy {
            tradeoff_prefers_propagation: false,
            ..RefinePolicy::default()
        };
        let r = report(Some((-0.9, 0.9)), Interval::new(-3.5, 3.5));
        let a = analyze_msb(&r, &policy);
        match a.decision {
            MsbDecision::Tradeoff {
                chosen, saturate, ..
            } => {
                assert_eq!(chosen, 0);
                assert!(saturate);
            }
            ref other => panic!("expected tradeoff, got {other}"),
        }
        assert_eq!(a.mode, OverflowMode::Saturate);
    }

    #[test]
    fn annotation_tighter_than_statistic_resolves_to_statistic() {
        // Designer pinned [-0.5,0.5] but simulation saw ±0.9: the safe
        // answer covers both.
        let mut r = report(Some((-0.9, 0.9)), Interval::new(-0.5, 0.5));
        r.range_override = Some(Interval::new(-0.5, 0.5));
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert_eq!(a.decision, MsbDecision::Agree { msb: 0 });
    }

    #[test]
    fn prop_only_signal_resolves() {
        // Never assigned a nonzero value, but carries a declared range.
        let r = report(None, Interval::new(-2.0, 2.0));
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert_eq!(a.decision, MsbDecision::Agree { msb: 2 });
        assert_eq!(a.stat_msb, None);
        assert_eq!(a.overhead_bits(), None);
    }

    #[test]
    fn no_information_is_unresolved() {
        let r = report(None, Interval::EMPTY);
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert!(matches!(a.decision, MsbDecision::Unresolved { .. }));
        assert!(!a.decision.is_resolved());
        assert_eq!(a.decided_msb(), None);
    }

    #[test]
    fn stat_only_zeros_with_exploded_prop_is_unresolved() {
        let mut r = report(None, Interval::UNBOUNDED);
        r.stat.record(0.0); // only zeros: no msb derivable
        let a = analyze_msb(&r, &RefinePolicy::default());
        assert!(matches!(a.decision, MsbDecision::Unresolved { .. }));
        assert!(a.exploded);
    }

    #[test]
    fn saturation_margin_applies() {
        let policy = RefinePolicy {
            saturation_margin: 2,
            ..RefinePolicy::default()
        };
        let r = report(Some((-0.2, 0.2)), Interval::UNBOUNDED);
        let a = analyze_msb(&r, &policy);
        assert_eq!(a.decided_msb(), Some(0)); // -2 + 2
    }

    #[test]
    fn display_variants() {
        assert!(MsbDecision::Agree { msb: 1 }.to_string().contains("agree"));
        assert!(MsbDecision::Saturate {
            msb: 0,
            guard: Interval::EMPTY,
            forced: true
        }
        .to_string()
        .contains("forced"));
        assert!(MsbDecision::Unresolved { reason: "x".into() }
            .to_string()
            .contains("unresolved"));
    }
}
