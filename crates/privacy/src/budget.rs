//! Privacy-budget accounting.
//!
//! X-Map spends ε on AlterEgo generation (PRS) and ε′ on recommendation (split as ε′/2
//! for PNSA and ε′/2 for PNCF, composing by the sequential-composition property of
//! differential privacy, §4.4). [`PrivacyBudget`] is a small accountant that tracks how
//! much of a total budget has been consumed and refuses to overspend, so experiment code
//! cannot accidentally claim a tighter guarantee than it actually provides.

use std::fmt;

/// Error returned when a mechanism asks for more budget than remains.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetError {
    /// Amount requested by the mechanism.
    pub requested: f64,
    /// Amount still available.
    pub remaining: f64,
    /// Label of the mechanism that made the request.
    pub mechanism: String,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mechanism `{}` requested ε={} but only ε={} remains",
            self.mechanism, self.requested, self.remaining
        )
    }
}

impl std::error::Error for BudgetError {}

/// A record of one budget expenditure.
#[derive(Debug, Clone, PartialEq)]
pub struct Expenditure {
    /// Label of the mechanism that spent the budget.
    pub mechanism: String,
    /// Amount of ε consumed.
    pub epsilon: f64,
}

/// Sequential-composition privacy-budget accountant.
#[derive(Debug, Clone)]
pub struct PrivacyBudget {
    total: f64,
    ledger: Vec<Expenditure>,
}

impl PrivacyBudget {
    /// Creates an accountant with a total budget of `total` (must be positive and finite).
    pub fn new(total: f64) -> Self {
        assert!(
            total.is_finite() && total > 0.0,
            "total privacy budget must be positive and finite, got {total}"
        );
        PrivacyBudget {
            total,
            ledger: Vec::new(),
        }
    }

    /// The total budget.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The amount already consumed (sum of the ledger).
    pub fn spent(&self) -> f64 {
        self.ledger.iter().map(|e| e.epsilon).sum()
    }

    /// The amount still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent()).max(0.0)
    }

    /// The accountant's floating-point slack: one fixed tolerance on the *total*
    /// consumption, relative to the budget size. The historical per-call tolerance
    /// (`ε ≤ remaining + 1e-12` on every spend) compounded: a drip of sub-tolerance
    /// spends could push total consumption arbitrarily far past the nominal ε. Bounding
    /// `spent + ε ≤ total + tolerance` instead caps the cumulative overspend at a
    /// single tolerance no matter how many spends compose.
    fn tolerance(&self) -> f64 {
        1e-12 * self.total.max(1.0)
    }

    /// Attempts to consume `epsilon` on behalf of `mechanism`. Fails without side effects
    /// if the spend would push total consumption past the budget (a single fixed
    /// tolerance on the *total* absorbs floating-point drift from repeated equal
    /// splits — see [`PrivacyBudget::tolerance`]).
    pub fn spend(&mut self, mechanism: impl Into<String>, epsilon: f64) -> Result<(), BudgetError> {
        let mechanism = mechanism.into();
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "spent ε must be positive and finite, got {epsilon}"
        );
        if self.spent() + epsilon > self.total + self.tolerance() {
            return Err(BudgetError {
                requested: epsilon,
                remaining: self.remaining(),
                mechanism,
            });
        }
        self.ledger.push(Expenditure { mechanism, epsilon });
        Ok(())
    }

    /// Spends several `(mechanism, ε)` entries atomically: either the whole batch fits
    /// in the remaining budget and every entry is recorded (in order), or nothing is.
    ///
    /// Mechanisms that compose sequentially *within one release* (PNSA + PNCF sharing
    /// ε′, §4.4) must not end up half-recorded: a ledger holding the PNSA entry but not
    /// the PNCF one would certify a guarantee the released output does not have.
    pub fn spend_all(&mut self, entries: &[(&str, f64)]) -> Result<(), BudgetError> {
        for &(mechanism, epsilon) in entries {
            assert!(
                epsilon.is_finite() && epsilon > 0.0,
                "spent ε must be positive and finite, got {epsilon} for `{mechanism}`"
            );
        }
        let requested: f64 = entries.iter().map(|&(_, e)| e).sum();
        if self.spent() + requested > self.total + self.tolerance() {
            return Err(BudgetError {
                requested,
                remaining: self.remaining(),
                mechanism: entries
                    .iter()
                    .map(|&(m, _)| m)
                    .collect::<Vec<_>>()
                    .join("+"),
            });
        }
        for &(mechanism, epsilon) in entries {
            self.ledger.push(Expenditure {
                mechanism: mechanism.to_string(),
                epsilon,
            });
        }
        Ok(())
    }

    /// The full expenditure ledger, in spending order.
    pub fn ledger(&self) -> &[Expenditure] {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn spend_and_track() {
        let mut b = PrivacyBudget::new(1.0);
        assert_eq!(b.total(), 1.0);
        b.spend("PRS", 0.3).unwrap();
        b.spend("PNSA", 0.35).unwrap();
        assert!((b.spent() - 0.65).abs() < 1e-12);
        assert!((b.remaining() - 0.35).abs() < 1e-12);
        assert_eq!(b.ledger().len(), 2);
        assert_eq!(b.ledger()[0].mechanism, "PRS");
    }

    #[test]
    fn overspending_is_rejected_without_side_effects() {
        let mut b = PrivacyBudget::new(0.5);
        b.spend("PRS", 0.4).unwrap();
        let err = b.spend("PNCF", 0.2).unwrap_err();
        assert_eq!(err.mechanism, "PNCF");
        assert!((err.remaining - 0.1).abs() < 1e-12);
        assert!(err.to_string().contains("PNCF"));
        // ledger unchanged
        assert_eq!(b.ledger().len(), 1);
        assert!((b.remaining() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn exact_exhaustion_is_allowed() {
        let mut b = PrivacyBudget::new(0.8);
        b.spend("PNSA", 0.4).unwrap();
        b.spend("PNCF", 0.4).unwrap();
        assert!(b.remaining() < 1e-12);
        assert!(b.spend("extra", 0.01).is_err());
    }

    #[test]
    fn spend_all_is_atomic() {
        let mut b = PrivacyBudget::new(0.8);
        b.spend_all(&[("PNSA", 0.4), ("PNCF", 0.4)]).unwrap();
        assert_eq!(b.ledger().len(), 2);
        assert_eq!(b.ledger()[0].mechanism, "PNSA");
        assert_eq!(b.ledger()[1].mechanism, "PNCF");
        assert!(b.remaining() < 1e-12);

        // the pair does not fit: neither half may be recorded
        let mut b = PrivacyBudget::new(0.5);
        let err = b.spend_all(&[("PNSA", 0.4), ("PNCF", 0.4)]).unwrap_err();
        assert_eq!(err.mechanism, "PNSA+PNCF");
        assert!((err.requested - 0.8).abs() < 1e-12);
        assert!(b.ledger().is_empty(), "failed batch must record nothing");
        assert!((b.remaining() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn many_tiny_spends_cannot_drip_past_the_total() {
        // Regression: the per-call tolerance (`ε ≤ remaining + 1e-12`) let an
        // unbounded drip of sub-tolerance spends push total consumption past ε — each
        // call saw remaining = 0 and still granted another 1e-12. The bound is now on
        // the cumulative total.
        let mut b = PrivacyBudget::new(1.0);
        b.spend("PNSA", 0.5).unwrap();
        b.spend("PNCF", 0.5).unwrap();
        let mut rejected_at = None;
        for i in 0..10_000 {
            if b.spend(format!("drip{i}"), 1e-13).is_err() {
                rejected_at = Some(i);
                break;
            }
        }
        let rejected_at = rejected_at.expect("the drip must eventually be refused");
        assert!(
            rejected_at <= 11,
            "cumulative overspend must stay within one tolerance (drip ran {rejected_at} times)"
        );
        assert!(
            b.spent() <= b.total() + 2e-12,
            "total consumption {} exceeded ε plus a single tolerance",
            b.spent()
        );
        // a failed drip leaves the ledger untouched
        assert_eq!(b.ledger().len(), 2 + rejected_at);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_total_budget_panics() {
        let _ = PrivacyBudget::new(0.0);
    }

    #[test]
    #[should_panic(expected = "spent ε")]
    fn non_positive_spend_panics() {
        let mut b = PrivacyBudget::new(1.0);
        let _ = b.spend("x", 0.0);
    }

    proptest! {
        /// Spent + remaining always equals the total (within float tolerance), and the
        /// accountant never lets total spending exceed the budget.
        #[test]
        fn conservation(total in 0.1f64..10.0, spends in proptest::collection::vec(0.001f64..1.0, 0..50)) {
            let mut b = PrivacyBudget::new(total);
            for (i, s) in spends.iter().enumerate() {
                let _ = b.spend(format!("m{i}"), *s);
            }
            prop_assert!(b.spent() <= b.total() + 1e-9);
            prop_assert!((b.spent() + b.remaining() - b.total()).abs() < 1e-9);
        }
    }
}
