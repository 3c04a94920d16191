//! Property-based tests for the foundational types.

#![expect(clippy::float_cmp, reason = "asserts bit-identical floats")]
use mvcom_types::{CommitteeId, Hash32, ShardInfo, SimTime, TwoPhaseLatency};
use proptest::prelude::*;

fn finite_secs() -> impl Strategy<Value = f64> {
    0.0f64..1.0e12
}

/// Every kind of value `SimTime::from_secs` admits: both zeros, subnormals,
/// ordinary magnitudes, the largest finite value and infinity.
fn constructible_secs() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::MAX),
        (1u64..(1 << 52)).prop_map(f64::from_bits),
        (0u64..=f64::INFINITY.to_bits()).prop_map(f64::from_bits),
        finite_secs(),
    ]
}

proptest! {
    #[test]
    fn simtime_eq_and_ord_agree_and_bits_order_like_values(
        a in constructible_secs(),
        b in constructible_secs(),
    ) {
        let x = SimTime::from_secs(a);
        let y = SimTime::from_secs(b);
        prop_assert_eq!(x == y, x.cmp(&y) == std::cmp::Ordering::Equal);
        prop_assert_eq!(x.cmp(&y), x.as_secs().to_bits().cmp(&y.as_secs().to_bits()));
        prop_assert_eq!(x < y, a < b);
        prop_assert!(x.min(y) <= x.max(y));
        prop_assert_eq!(x.as_secs(), a);
    }

    #[test]
    fn simtime_addition_is_commutative_and_monotone(a in finite_secs(), b in finite_secs()) {
        let x = SimTime::from_secs(a);
        let y = SimTime::from_secs(b);
        prop_assert_eq!(x + y, y + x);
        prop_assert!(x + y >= x);
        prop_assert!(x + y >= y);
    }

    #[test]
    fn simtime_saturating_sub_never_negative(a in finite_secs(), b in finite_secs()) {
        let x = SimTime::from_secs(a);
        let y = SimTime::from_secs(b);
        prop_assert!(x.saturating_sub(y) >= SimTime::ZERO);
        // Identity: (x - y) + min(x, y) == max(x, y) for the saturating form.
        let diff = x.saturating_sub(y) + y.saturating_sub(x);
        prop_assert!((diff.as_secs() - (a - b).abs()).abs() < 1e-6 * (1.0 + a + b));
    }

    #[test]
    fn simtime_ordering_matches_f64(a in finite_secs(), b in finite_secs()) {
        let x = SimTime::from_secs(a);
        let y = SimTime::from_secs(b);
        prop_assert_eq!(x < y, a < b);
        prop_assert_eq!(x.max(y).as_secs(), a.max(b));
        prop_assert_eq!(x.min(y).as_secs(), a.min(b));
    }

    #[test]
    fn two_phase_total_is_phase_sum(f in finite_secs(), c in finite_secs()) {
        let l = TwoPhaseLatency::new(SimTime::from_secs(f), SimTime::from_secs(c));
        prop_assert!((l.total().as_secs() - (f + c)).abs() < 1e-6 * (1.0 + f + c));
    }

    #[test]
    fn carry_over_conserves_clamped_total(f in finite_secs(), c in finite_secs(), d in finite_secs()) {
        let l = TwoPhaseLatency::new(SimTime::from_secs(f), SimTime::from_secs(c));
        let carried = l.carried_over(SimTime::from_secs(d));
        let expected = (f + c - d).max(0.0);
        prop_assert!(
            (carried.total().as_secs() - expected).abs() < 1e-6 * (1.0 + f + c + d),
            "carry-over total {} vs expected {expected}", carried.total().as_secs()
        );
        // Components remain non-negative.
        prop_assert!(carried.formation() >= SimTime::ZERO);
        prop_assert!(carried.consensus() >= SimTime::ZERO);
    }

    #[test]
    fn shard_carry_over_preserves_identity_and_size(
        txs in 1u64..1_000_000,
        lat in finite_secs(),
        ddl in finite_secs(),
    ) {
        let s = ShardInfo::new(
            CommitteeId(7),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(lat)),
        );
        let c = s.carried_over(SimTime::from_secs(ddl));
        prop_assert_eq!(c.committee(), s.committee());
        prop_assert_eq!(c.tx_count(), s.tx_count());
        prop_assert!(c.two_phase_latency() <= s.two_phase_latency());
    }

    #[test]
    fn hash_digest_is_deterministic_and_input_sensitive(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let h1 = Hash32::digest(&data);
        let h2 = Hash32::digest(&data);
        prop_assert_eq!(h1, h2);
        // Flipping any single byte changes the digest.
        if !data.is_empty() {
            let mut mutated = data.clone();
            mutated[0] ^= 1;
            prop_assert_ne!(h1, Hash32::digest(&mutated));
        }
        prop_assert_eq!(h1.to_hex().len(), 64);
    }

    #[test]
    fn hash_leading_zero_bits_within_range(v in any::<u64>()) {
        let bits = Hash32::digest_u64(v).leading_zero_bits();
        prop_assert!(bits <= 256);
    }
}
