//! Exact rational numbers.
//!
//! Always kept in canonical form: the denominator is strictly positive and
//! coprime with the numerator's magnitude; zero is `0/1`. Shapley values such
//! as the running example's `43/105` are represented and compared exactly.

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational number (numerator / denominator).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigUint,
}

impl Rational {
    /// 0/1.
    pub fn zero() -> Self {
        Rational {
            num: BigInt::zero(),
            den: BigUint::one(),
        }
    }

    /// 1/1.
    pub fn one() -> Self {
        Rational {
            num: BigInt::one(),
            den: BigUint::one(),
        }
    }

    /// Builds `num/den` in canonical form. Panics if `den == 0`.
    pub fn new(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let mut r = Rational { num, den };
        r.reduce();
        r
    }

    /// Builds `num/den` that is already in canonical form: `den > 0` and
    /// coprime with `num`'s magnitude (zero as `0/1`). Skips the gcd that
    /// [`Rational::new`] runs, for callers that reduced against a known
    /// factorization; debug builds check the form.
    pub fn from_reduced(num: BigInt, den: BigUint) -> Self {
        debug_assert!(!den.is_zero(), "rational with zero denominator");
        debug_assert!(
            num.magnitude().gcd(&den).is_one(),
            "{num}/{den} is not reduced"
        );
        Rational { num, den }
    }

    /// Builds `num/den` from machine integers. Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: u64) -> Self {
        Rational::new(BigInt::from_i64(num), BigUint::from_u64(den))
    }

    /// Builds an integer-valued rational.
    pub fn from_int(v: i64) -> Self {
        Rational {
            num: BigInt::from_i64(v),
            den: BigUint::one(),
        }
    }

    /// Builds from a [`BigUint`] count.
    pub fn from_biguint(v: BigUint) -> Self {
        Rational {
            num: BigInt::from_biguint(v),
            den: BigUint::one(),
        }
    }

    /// Builds from a [`BigInt`].
    pub fn from_bigint(v: BigInt) -> Self {
        Rational {
            num: v,
            den: BigUint::one(),
        }
    }

    /// Numerator (signed).
    pub fn numerator(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denominator(&self) -> &BigUint {
        &self.den
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// True iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// True iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    fn reduce(&mut self) {
        if self.num.is_zero() {
            self.den = BigUint::one();
            return;
        }
        let g = self.num.magnitude().gcd(&self.den);
        if !g.is_one() {
            let (nq, nr) = self.num.magnitude().div_rem(&g);
            debug_assert!(nr.is_zero());
            let (dq, dr) = self.den.div_rem(&g);
            debug_assert!(dr.is_zero());
            self.num = BigInt::from_sign_mag(self.num.sign(), nq);
            self.den = dq;
        }
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        let sign = self.num.sign();
        Rational {
            num: BigInt::from_sign_mag(sign, self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Lossy conversion to `f64`.
    ///
    /// Handles numerators/denominators far beyond `f64` range by shifting
    /// both down by a common power of two before dividing.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let nb = self.num.magnitude().bits();
        let db = self.den.bits();
        let max_bits = nb.max(db);
        let (nf, df) = if max_bits > 900 {
            let shift = (max_bits - 900) as usize;
            (
                (self.num.magnitude().clone() >> shift).to_f64(),
                (self.den.clone() >> shift).to_f64(),
            )
        } else {
            (self.num.magnitude().to_f64(), self.den.to_f64())
        };
        let q = nf / df;
        if self.num.is_negative() {
            -q
        } else {
            q
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b (denominators positive): the signs
        // decide unless they agree, and then the magnitudes' cross
        // products do, reversed for negative values.
        let by_sign = sign_rank(&self.num).cmp(&sign_rank(&other.num));
        if by_sign != Ordering::Equal || self.num.is_zero() {
            return by_sign;
        }
        let (a, c) = (self.num.magnitude(), other.num.magnitude());
        let by_magnitude = if self.den == other.den {
            a.cmp(c)
        } else if let (Some(a), Some(b), Some(c), Some(d)) = (
            a.to_u64(),
            self.den.to_u64(),
            c.to_u64(),
            other.den.to_u64(),
        ) {
            (u128::from(a) * u128::from(d)).cmp(&(u128::from(c) * u128::from(b)))
        } else {
            (a * &other.den).cmp(&(c * &self.den))
        };
        if self.num.is_negative() {
            by_magnitude.reverse()
        } else {
            by_magnitude
        }
    }
}

/// −1, 0 or 1 by the sign of `n`, for ordering.
fn sign_rank(n: &BigInt) -> i8 {
    match n.sign() {
        Sign::Negative => -1,
        Sign::Zero => 0,
        Sign::Positive => 1,
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        let num = &(&self.num * &BigInt::from_biguint(rhs.den.clone()))
            + &(&rhs.num * &BigInt::from_biguint(self.den.clone()));
        Rational::new(num, &self.den * &rhs.den)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self + &(-rhs.clone())
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        Rational::new(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl Div for &Rational {
    type Output = Rational;
    // Division via the reciprocal is the intended arithmetic here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: &Rational) -> Rational {
        self * &rhs.recip()
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({})", self)
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn canonical_form() {
        let r = Rational::from_ratio(6, 8);
        assert_eq!(r.to_string(), "3/4");
        let z = Rational::from_ratio(0, 17);
        assert_eq!(z.to_string(), "0");
        assert!(z.denominator().is_one());
    }

    #[test]
    fn running_example_value() {
        // The paper's Example 2.1: Shapley(q, a1) = 43/105 ≈ 0.4095.
        let r = Rational::from_ratio(43, 105);
        assert!((r.to_f64() - 0.4095238095).abs() < 1e-9);
        assert_eq!(r.to_string(), "43/105");
    }

    #[test]
    fn arithmetic() {
        let a = Rational::from_ratio(1, 3);
        let b = Rational::from_ratio(1, 6);
        assert_eq!((&a + &b).to_string(), "1/2");
        assert_eq!((&a - &b).to_string(), "1/6");
        assert_eq!((&a * &b).to_string(), "1/18");
        assert_eq!((&a / &b).to_string(), "2");
    }

    #[test]
    fn comparison_crosses_signs() {
        assert!(Rational::from_ratio(-1, 2) < Rational::from_ratio(1, 3));
        assert!(Rational::from_ratio(2, 3) > Rational::from_ratio(3, 5));
        assert_eq!(Rational::from_ratio(2, 4), Rational::from_ratio(1, 2));
    }

    proptest! {
        #[test]
        fn prop_cmp_matches_cross_multiplication(
            a_limbs in proptest::collection::vec(any::<u64>(), 0..4),
            b_limbs in proptest::collection::vec(any::<u64>(), 0..4),
            c_limbs in proptest::collection::vec(any::<u64>(), 0..4),
            d_limbs in proptest::collection::vec(any::<u64>(), 0..4),
            a_neg in any::<bool>(),
            c_neg in any::<bool>(),
            same_den in any::<bool>(),
        ) {
            // Multi-limb, single-limb, zero and negative numerators; equal
            // and unequal denominators.
            let signed = |limbs: Vec<u64>, neg: bool| {
                let sign = if neg { Sign::Negative } else { Sign::Positive };
                BigInt::from_sign_mag(sign, BigUint::from_limbs(limbs))
            };
            let den = |limbs: Vec<u64>| BigUint::from_limbs(limbs) + BigUint::one();
            let b = den(b_limbs);
            let d = if same_den { b.clone() } else { den(d_limbs) };
            let x = Rational::new(signed(a_limbs, a_neg), b);
            let y = Rational::new(signed(c_limbs, c_neg), d);
            let cross = |p: &Rational, q: &Rational| {
                p.numerator() * &BigInt::from_biguint(q.denominator().clone())
            };
            prop_assert_eq!(x.cmp(&y), cross(&x, &y).cmp(&cross(&y, &x)));
            prop_assert_eq!(x.cmp(&x), Ordering::Equal);
        }

        #[test]
        fn prop_add_commutes(a in -1000i64..1000, b in 1u64..1000, c in -1000i64..1000, d in 1u64..1000) {
            let x = Rational::from_ratio(a, b);
            let y = Rational::from_ratio(c, d);
            prop_assert_eq!(&x + &y, &y + &x);
        }

        #[test]
        fn prop_mul_recip(a in 1i64..10_000, b in 1u64..10_000) {
            let x = Rational::from_ratio(a, b);
            prop_assert_eq!(&x * &x.recip(), Rational::one());
        }

        #[test]
        fn prop_to_f64_close(a in -100_000i64..100_000, b in 1u64..100_000) {
            let x = Rational::from_ratio(a, b);
            let expect = a as f64 / b as f64;
            prop_assert!((x.to_f64() - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        }

        #[test]
        fn prop_sub_self_zero(a in any::<i32>(), b in 1u32..) {
            let x = Rational::from_ratio(a as i64, b as u64);
            prop_assert!((&x - &x).is_zero());
        }

        #[test]
        fn prop_normalization_equivalence_across_spill_boundary(
            center_idx in 0usize..2,
            da in -3i64..=3,
            num in 1u64..1000,
            den in 1u64..1000,
        ) {
            // Scale num/den by a common factor straddling 2^64±k / 2^128±k
            // (the BigUint inline→heap spill boundary): the canonical form
            // must be identical to the unscaled one — the gcd/div_rem fast
            // paths and the limb paths must normalize to the same
            // representation.
            let center = [64u32, 128][center_idx];
            let base = BigUint::one() << center as usize;
            let k = if da >= 0 {
                &base + &BigUint::from_u64(da as u64)
            } else {
                base.checked_sub(&BigUint::from_u64(da.unsigned_abs())).unwrap()
            };
            let plain = Rational::from_ratio(num as i64, den);
            let scaled = Rational::new(
                BigInt::from_biguint(&BigUint::from_u64(num) * &k),
                &BigUint::from_u64(den) * &k,
            );
            prop_assert_eq!(&plain, &scaled);
            prop_assert_eq!(plain.numerator(), scaled.numerator());
            prop_assert_eq!(plain.denominator(), scaled.denominator());
            // And the scaled pair still reduces through arithmetic.
            prop_assert!((&plain - &scaled).is_zero());
        }
    }
}
