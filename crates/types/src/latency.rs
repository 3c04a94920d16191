//! The two-phase latency of a member committee, plus the total-order
//! float helpers ([`sort_by_f64`], [`max_by_f64`], [`approx_eq`]) that the
//! schedulers use wherever `f64` keys need ordering (DESIGN.md §7).

use std::cmp::Ordering;
use std::fmt;

use serde::Serialize;

use crate::time::SimTime;

/// The *two-phase latency* of a member committee within one epoch.
///
/// The paper (§I, Fig. 2) defines this as the sum of:
///
/// 1. **formation latency** — the time the committee's nodes spend solving
///    the PoW identity puzzle and assembling the committee (Elastico
///    stages 1–2), and
/// 2. **consensus latency** — the time the committee spends running the
///    three PBFT phases to agree on its shard (Elastico stage 3).
///
/// The scheduler only ever consumes the total ([`TwoPhaseLatency::total`]),
/// but the split is preserved because Fig. 2 reports the two components
/// separately.
///
/// # Example
///
/// ```
/// use mvcom_types::{SimTime, TwoPhaseLatency};
///
/// let l = TwoPhaseLatency::new(SimTime::from_secs(600.0), SimTime::from_secs(54.5));
/// assert_eq!(l.total().as_secs(), 654.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Default)]
pub struct TwoPhaseLatency {
    formation: SimTime,
    consensus: SimTime,
}

impl TwoPhaseLatency {
    /// Creates a two-phase latency from its components.
    #[inline]
    pub fn new(formation: SimTime, consensus: SimTime) -> TwoPhaseLatency {
        TwoPhaseLatency {
            formation,
            consensus,
        }
    }

    /// Creates a latency whose total is `total`, attributed entirely to the
    /// formation phase. Useful when only the aggregate is known (e.g. when
    /// re-entering an epoch after a DDL carry-over).
    #[inline]
    pub fn from_total(total: SimTime) -> TwoPhaseLatency {
        TwoPhaseLatency {
            formation: total,
            consensus: SimTime::ZERO,
        }
    }

    /// The committee-formation latency (PoW election + overlay setup).
    #[inline]
    pub fn formation(self) -> SimTime {
        self.formation
    }

    /// The intra-committee PBFT consensus latency.
    #[inline]
    pub fn consensus(self) -> SimTime {
        self.consensus
    }

    /// The total two-phase latency `l_i` used by the MVCom objective.
    #[inline]
    pub fn total(self) -> SimTime {
        self.formation + self.consensus
    }

    /// Reduces the latency by `ddl`, clamping at zero — the Fig. 3 rule for
    /// a committee refused at epoch `j` re-entering epoch `j+1`.
    ///
    /// The reduction is applied to the formation component first (that phase
    /// happened earliest), then to the consensus component.
    pub fn carried_over(self, ddl: SimTime) -> TwoPhaseLatency {
        let new_formation = self.formation.saturating_sub(ddl);
        let remainder = ddl.saturating_sub(self.formation);
        TwoPhaseLatency {
            formation: new_formation,
            consensus: self.consensus.saturating_sub(remainder),
        }
    }
}

impl fmt::Display for TwoPhaseLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (formation {}, consensus {})",
            self.total(),
            self.formation,
            self.consensus
        )
    }
}

// ---------------------------------------------------------------------------
// Total-order helpers for f64 keys.
//
// `f64` is only `PartialOrd`, so `sort_by(|a, b| a.partial_cmp(b).unwrap())`
// panics on NaN and `==` comparisons silently mis-handle rounding. These
// helpers centralise the two sound alternatives — `total_cmp` ordering and
// tolerance-based equality — so call sites never spell either by hand.
// ---------------------------------------------------------------------------

/// Tolerance-based float equality: `|a - b| <= tol`, with `total_cmp`
/// equality as a backstop so identical non-finite values (both `+∞`, both
/// the same NaN bit pattern) still compare equal.
///
/// ```
/// use mvcom_types::latency::approx_eq;
///
/// assert!(approx_eq(0.1 + 0.2, 0.3, 1e-12));
/// assert!(!approx_eq(1.0, 1.1, 1e-12));
/// assert!(approx_eq(f64::INFINITY, f64::INFINITY, 1e-12));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol || a.total_cmp(&b) == Ordering::Equal
}

/// The item with the largest `f64` key under `total_cmp`, or `None` for an
/// empty iterator. NaN keys order above `+∞` (IEEE total order); ties keep
/// the *last* maximal item, matching [`Iterator::max_by`].
///
/// ```
/// use mvcom_types::latency::max_by_f64;
///
/// let best = max_by_f64(["a", "bb", "ccc"], |s| s.len() as f64);
/// assert_eq!(best, Some("ccc"));
/// ```
#[inline]
pub fn max_by_f64<T, I, F>(items: I, mut key: F) -> Option<T>
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T) -> f64,
{
    items.into_iter().max_by(|a, b| key(a).total_cmp(&key(b)))
}

/// The item with the smallest `f64` key under `total_cmp`, or `None` for an
/// empty iterator. Ties keep the *first* minimal item, matching
/// [`Iterator::min_by`].
#[inline]
pub fn min_by_f64<T, I, F>(items: I, mut key: F) -> Option<T>
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T) -> f64,
{
    items.into_iter().min_by(|a, b| key(a).total_cmp(&key(b)))
}

/// Sorts `items` ascending by an `f64` key under `total_cmp`. The sort is
/// stable and never panics: NaN keys sort to the end instead of aborting
/// the scheduler mid-epoch.
#[inline]
pub fn sort_by_f64<T, F>(items: &mut [T], mut key: F)
where
    F: FnMut(&T) -> f64,
{
    items.sort_by(|a, b| key(a).total_cmp(&key(b)));
}

/// Sorts `items` descending by an `f64` key under `total_cmp` — the shape
/// every greedy/repair pass uses ("best candidate first"). Stable, so
/// equal-key candidates keep their index order (deterministic across
/// seeds).
#[inline]
pub fn sort_by_f64_desc<T, F>(items: &mut [T], mut key: F)
where
    F: FnMut(&T) -> f64,
{
    items.sort_by(|a, b| key(b).total_cmp(&key(a)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn total_is_sum_of_phases() {
        let l = TwoPhaseLatency::new(secs(600.0), secs(54.5));
        assert_eq!(l.formation(), secs(600.0));
        assert_eq!(l.consensus(), secs(54.5));
        assert_eq!(l.total(), secs(654.5));
    }

    #[test]
    fn from_total_attributes_to_formation() {
        let l = TwoPhaseLatency::from_total(secs(100.0));
        assert_eq!(l.formation(), secs(100.0));
        assert_eq!(l.consensus(), SimTime::ZERO);
        assert_eq!(l.total(), secs(100.0));
    }

    #[test]
    fn carry_over_reduces_formation_first() {
        let l = TwoPhaseLatency::new(secs(600.0), secs(50.0));
        let carried = l.carried_over(secs(400.0));
        assert_eq!(carried.formation(), secs(200.0));
        assert_eq!(carried.consensus(), secs(50.0));
        assert_eq!(carried.total(), secs(250.0));
    }

    #[test]
    fn carry_over_spills_into_consensus() {
        let l = TwoPhaseLatency::new(secs(600.0), secs(50.0));
        let carried = l.carried_over(secs(620.0));
        assert_eq!(carried.formation(), SimTime::ZERO);
        assert_eq!(carried.consensus(), secs(30.0));
    }

    #[test]
    fn carry_over_clamps_at_zero() {
        let l = TwoPhaseLatency::new(secs(600.0), secs(50.0));
        let carried = l.carried_over(secs(10_000.0));
        assert_eq!(carried.total(), SimTime::ZERO);
    }

    #[test]
    fn ordering_follows_components() {
        let a = TwoPhaseLatency::new(secs(100.0), secs(1.0));
        let b = TwoPhaseLatency::new(secs(100.0), secs(2.0));
        assert!(a < b);
    }

    #[test]
    fn display_mentions_both_phases() {
        let l = TwoPhaseLatency::new(secs(1.0), secs(2.0));
        let s = l.to_string();
        assert!(s.contains("formation"));
        assert!(s.contains("consensus"));
    }

    #[test]
    fn approx_eq_handles_rounding_and_non_finite_values() {
        assert!(approx_eq(0.1 + 0.2, 0.3, 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6, 1e-12));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0));
        assert!(approx_eq(f64::NAN, f64::NAN, 0.0));
        assert!(!approx_eq(f64::NAN, 0.0, 1e9));
    }

    #[test]
    fn max_and_min_by_f64_survive_nan_keys() {
        let xs = [2.0, f64::NAN, 1.0, 3.0];
        // NaN is the IEEE total-order maximum; the minimum stays finite.
        assert!(max_by_f64(xs, |&x| x).unwrap().is_nan());
        assert_eq!(min_by_f64(xs, |&x| x), Some(1.0));
        assert_eq!(max_by_f64(std::iter::empty::<f64>(), |&x| x), None);
    }

    #[test]
    fn sorts_are_stable_and_nan_safe() {
        let mut pairs = [(0, 2.0), (1, 1.0), (2, 2.0), (3, f64::NAN)];
        sort_by_f64(&mut pairs, |p| p.1);
        assert_eq!(pairs.map(|p| p.0), [1, 0, 2, 3]); // equal keys keep order
        sort_by_f64_desc(&mut pairs, |p| p.1);
        assert_eq!(pairs.map(|p| p.0), [3, 0, 2, 1]);
    }
}
