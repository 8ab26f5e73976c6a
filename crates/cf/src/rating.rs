//! Rating events and logical timesteps.
//!
//! A rating is the triple `(user, item, value)` plus a logical [`Timestep`] used by the
//! temporal predictor of Equation 7 in the paper ("the timestep is a logical time
//! corresponding to the actual timestamp of an event", §4.4).

use crate::ids::{ItemId, UserId};
use serde::{Deserialize, Serialize};

/// Logical time at which a rating was given.
///
/// Timesteps are monotone per user; the absolute scale is irrelevant, only differences
/// `t - t_{A,j}` enter the temporal decay `e^{-α (t - t_{A,j})}` of Equation 7.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Timestep(pub u32);

impl Timestep {
    /// Difference `self - earlier`, saturating at zero (ratings in the future of `self`
    /// contribute with no decay rather than exponential amplification).
    #[inline]
    pub fn elapsed_since(self, earlier: Timestep) -> u32 {
        self.0.saturating_sub(earlier.0)
    }

    /// Equation 7's weight `e^{-α (self - earlier)}` of a rating given at `earlier`, seen
    /// from `self`; `alpha <= 0` disables the decay (weight 1 for every rating).
    #[inline]
    pub fn decay_since(self, earlier: Timestep, alpha: f64) -> f64 {
        if alpha > 0.0 {
            (-alpha * self.elapsed_since(earlier) as f64).exp()
        } else {
            1.0
        }
    }
}

impl From<u32> for Timestep {
    fn from(v: u32) -> Self {
        Timestep(v)
    }
}

/// A single rating event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rating {
    /// The user who rated.
    pub user: UserId,
    /// The rated item.
    pub item: ItemId,
    /// Rating value. The paper uses the 1–5 Amazon / MovieLens star scale, but the code
    /// accepts any finite value; the scale bounds only matter for MAE normalisation.
    pub value: f64,
    /// Logical time of the rating event.
    pub timestep: Timestep,
}

impl Rating {
    /// Creates a rating with timestep 0 (convenient in tests and non-temporal workloads).
    pub fn new(user: UserId, item: ItemId, value: f64) -> Self {
        Rating {
            user,
            item,
            value,
            timestep: Timestep(0),
        }
    }

    /// Creates a rating with an explicit logical timestep.
    pub fn at(user: UserId, item: ItemId, value: f64, timestep: Timestep) -> Self {
        Rating {
            user,
            item,
            value,
            timestep,
        }
    }
}

/// The inclusive rating scale of a dataset, used to bound predictions and normalise error
/// metrics (`0 < MAE < r_max - r_min`, §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RatingScale {
    /// Minimum expressible rating (1.0 for Amazon/MovieLens).
    pub min: f64,
    /// Maximum expressible rating (5.0 for Amazon/MovieLens).
    pub max: f64,
}

impl RatingScale {
    /// The 1–5 star scale used by both datasets in the paper.
    pub const FIVE_STAR: RatingScale = RatingScale { min: 1.0, max: 5.0 };

    /// Creates a scale, panicking if `min >= max` or either bound is not finite.
    pub fn new(min: f64, max: f64) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min < max,
            "invalid rating scale [{min}, {max}]"
        );
        RatingScale { min, max }
    }

    /// Clamps a raw prediction into the expressible range.
    #[inline]
    pub fn clamp(&self, value: f64) -> f64 {
        value.clamp(self.min, self.max)
    }

    /// Width of the scale (`r_max - r_min`), the upper bound on MAE.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max - self.min
    }

    /// Midpoint of the scale, used as a last-resort prediction when no information exists.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.min + self.max)
    }
}

impl Default for RatingScale {
    fn default() -> Self {
        RatingScale::FIVE_STAR
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timestep_elapsed_saturates() {
        assert_eq!(Timestep(10).elapsed_since(Timestep(4)), 6);
        assert_eq!(Timestep(4).elapsed_since(Timestep(10)), 0);
        assert_eq!(Timestep::from(3u32), Timestep(3));
    }

    #[test]
    fn zero_alpha_means_no_decay() {
        assert_eq!(Timestep(100).decay_since(Timestep(0), 0.0), 1.0);
    }

    #[test]
    fn decay_decreases_with_age() {
        let now = Timestep(100);
        let recent = now.decay_since(Timestep(95), 0.1);
        let old = now.decay_since(Timestep(10), 0.1);
        assert!(recent > old);
        assert!(old > 0.0);
        assert!((now.decay_since(now, 0.1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn future_ratings_do_not_amplify() {
        // elapsed_since saturates at zero, so a "future" rating gets weight 1, not > 1
        assert_eq!(Timestep(5).decay_since(Timestep(50), 0.5), 1.0);
    }

    proptest! {
        /// Decay weights are always in [0, 1] for non-negative α (extreme ages may
        /// underflow to exactly zero, which is still a valid weight).
        #[test]
        fn weights_bounded(alpha in 0.0f64..2.0, now in 0u32..1000, then in 0u32..1000) {
            let w = Timestep(now).decay_since(Timestep(then), alpha);
            prop_assert!((0.0..=1.0).contains(&w));
        }

        /// Weight is monotonically non-increasing in the age of the rating.
        #[test]
        fn weights_monotone_in_age(alpha in 0.0f64..2.0, now in 100u32..1000, d1 in 0u32..100, d2 in 0u32..100) {
            let (older, newer) = if d1 > d2 { (d1, d2) } else { (d2, d1) };
            let w_old = Timestep(now).decay_since(Timestep(now - older), alpha);
            let w_new = Timestep(now).decay_since(Timestep(now - newer), alpha);
            prop_assert!(w_old <= w_new + 1e-12);
        }
    }

    #[test]
    fn rating_constructors_set_fields() {
        let r = Rating::new(UserId(1), ItemId(2), 4.0);
        assert_eq!(r.timestep, Timestep(0));
        let r = Rating::at(UserId(1), ItemId(2), 4.0, Timestep(7));
        assert_eq!(r.timestep, Timestep(7));
        assert_eq!(r.user, UserId(1));
        assert_eq!(r.item, ItemId(2));
        assert_eq!(r.value, 4.0);
    }

    #[test]
    fn scale_clamps_and_measures() {
        let s = RatingScale::FIVE_STAR;
        assert_eq!(s.clamp(7.3), 5.0);
        assert_eq!(s.clamp(-2.0), 1.0);
        assert_eq!(s.clamp(3.2), 3.2);
        assert_eq!(s.width(), 4.0);
        assert_eq!(s.midpoint(), 3.0);
        assert_eq!(RatingScale::default(), RatingScale::FIVE_STAR);
    }

    #[test]
    #[should_panic(expected = "invalid rating scale")]
    fn scale_rejects_inverted_bounds() {
        let _ = RatingScale::new(5.0, 1.0);
    }
}
