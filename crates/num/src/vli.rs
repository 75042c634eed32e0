//! Fixed-limb stack integers and the [`Coeff`] abstraction over Algorithm
//! 1's coefficient arithmetic.
//!
//! The `#SAT_k` dynamic program spends essentially all of its time adding
//! and multiplying coefficients whose magnitudes are *provably bounded*: a
//! gate over `s` variables never produces an α value above the central
//! binomial `C(s, ⌊s/2⌋)`, and every intermediate of the ∧-convolution and
//! ∨-expansion loops is a partial sum of non-negative terms of such a
//! value, so the same cap covers them (see
//! [`crate::combinatorics::alpha_cap_bits`]). When the cap fits a small
//! fixed number of 64-bit limbs the whole pass can run on [`Vli`] — a
//! const-generic `[u64; LIMBS]` with no heap traffic, no representation
//! branches, and carry chains the optimizer unrolls — instead of
//! [`BigUint`].
//!
//! Representation invariants:
//!
//! * A `Vli<L>` stores its value little-endian across all `L` limbs;
//!   trailing zero limbs are part of the representation, and equality is
//!   plain array equality (no canonicalization step exists or is needed —
//!   each value has exactly one representation at a given width).
//! * Arithmetic is exact or loud: [`Vli::add_assign_ref`],
//!   [`Vli::sub_ref`] and [`Vli::mul_ref`] panic on overflow/underflow.
//!   Overflow is unreachable when the width was selected from a correct
//!   coefficient cap; the panic converts a cap-selection bug into a crash
//!   instead of a silently corrupted exact result.
//!
//! [`Coeff`] is the trait the DP is generic over; it is implemented by
//! every `Vli` width and by [`BigUint`] (the fallback past the widest
//! tier), so one monomorphized DP body serves every tier.

use crate::biguint::BigUint;
use std::cmp::Ordering;

/// A fixed-width little-endian unsigned integer of `L` 64-bit limbs.
///
/// `Copy`, stack-only, and branch-light: the arithmetic loops run over the
/// full width unconditionally, which the compiler unrolls for the small
/// `L` used by the coefficient tiers (1, 2, 4, 8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Vli<const L: usize> {
    limbs: [u64; L],
}

impl<const L: usize> Default for Vli<L> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const L: usize> Vli<L> {
    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        Vli { limbs: [0; L] }
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// Constructs from a `u64`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = [0; L];
        limbs[0] = v;
        Vli { limbs }
    }

    /// Constructs from little-endian limbs. Panics if a non-zero limb lies
    /// past the width (the value does not fit).
    pub fn from_le_limbs(src: &[u64]) -> Self {
        let mut limbs = [0; L];
        for (i, &l) in src.iter().enumerate() {
            if i < L {
                limbs[i] = l;
            } else {
                assert!(l == 0, "value does not fit in Vli<{L}>");
            }
        }
        Vli { limbs }
    }

    /// The little-endian limbs (trailing zeros included).
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> u64 {
        for i in (0..L).rev() {
            if self.limbs[i] != 0 {
                return i as u64 * 64 + (64 - self.limbs[i].leading_zeros() as u64);
            }
        }
        0
    }

    /// Converts to a heap/inline [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limbs(self.limbs.to_vec())
    }

    /// `self += rhs`. Panics on carry out of the top limb.
    #[inline]
    pub fn add_assign_ref(&mut self, rhs: &Self) {
        let overflow = self.add_carry(rhs);
        assert!(!overflow, "Vli<{L}> addition overflow (cap bug)");
    }

    /// `self += rhs` returning the carry out of the top limb.
    #[inline]
    fn add_carry(&mut self, rhs: &Self) -> bool {
        let mut carry = false;
        for i in 0..L {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            self.limbs[i] = s2;
            carry = c1 | c2;
        }
        carry
    }

    /// `self - rhs`. Panics on underflow (callers compare first).
    #[inline]
    pub fn sub_ref(&self, rhs: &Self) -> Self {
        let mut out = [0u64; L];
        let mut borrow = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.limbs.iter().zip(&rhs.limbs)) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        assert!(borrow == 0, "Vli<{L}> subtraction underflow");
        Vli { limbs: out }
    }

    /// `self * rhs`. Panics if the product does not fit the width — which a
    /// correct coefficient cap rules out, since every DP product is a term
    /// of a capped non-negative sum.
    #[inline]
    pub fn mul_ref(&self, rhs: &Self) -> Self {
        let mut out = Self::zero();
        out.add_mul_assign(self, rhs);
        out
    }

    /// `self += a * b`, fused (no temporary): the DP's single hot
    /// operation. Panics if the result does not fit the width.
    #[inline]
    pub fn add_mul_assign(&mut self, a: &Self, b: &Self) {
        let overflow = self.add_mul_carry(a, b);
        assert!(!overflow, "Vli<{L}> multiply-accumulate overflow (cap bug)");
    }

    /// `self += a * b` returning whether the result overflowed the width
    /// (instead of panicking) — lets row-level loops accumulate one flag
    /// and assert once per row.
    #[inline]
    fn add_mul_carry(&mut self, a: &Self, b: &Self) -> bool {
        if L == 1 {
            // One limb: no zero-limb skip, so no data-dependent branch.
            let cur = u128::from(self.limbs[0]) + u128::from(a.limbs[0]) * u128::from(b.limbs[0]);
            self.limbs[0] = cur as u64;
            return cur >> 64 != 0;
        }
        let mut overflow = false;
        for i in 0..L {
            let ai = a.limbs[i];
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..L - i {
                let cur = self.limbs[i + j] as u128 + ai as u128 * b.limbs[j] as u128 + carry;
                self.limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            overflow |= carry != 0;
            for j in L - i..L {
                overflow |= b.limbs[j] != 0;
            }
        }
        overflow
    }
}

impl<const L: usize> Ord for Vli<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..L).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<const L: usize> PartialOrd for Vli<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> std::fmt::Display for Vli<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_biguint())
    }
}

/// The coefficient arithmetic Algorithm 1's dynamic program is generic
/// over: exact unsigned integers with addition, multiplication, ordered
/// subtraction, and limb-level access (the NTT residue reduction and CRT
/// reconstruction work directly on limbs).
///
/// Implementations: every [`Vli`] width (fixed-limb tiers) and [`BigUint`]
/// (the unbounded fallback). All operations are exact; fixed-width
/// implementations panic rather than wrap when a value exceeds the width.
pub trait Coeff: Clone + Default + Ord + Send + Sync + std::fmt::Debug + 'static {
    /// The value 0.
    fn zero() -> Self;
    /// The value 1.
    fn one() -> Self;
    /// True iff the value is 0.
    fn is_zero(&self) -> bool;
    /// `self += rhs`, exactly.
    fn add_assign_ref(&mut self, rhs: &Self);
    /// `self * rhs`, exactly.
    fn mul_ref(&self, rhs: &Self) -> Self;
    /// `self - rhs`; requires `self >= rhs`.
    fn sub_ref(&self, rhs: &Self) -> Self;
    /// `self += a * b`, exactly — the DP's hot operation. Fixed-width
    /// implementations fuse it (no temporary, one overflow check).
    #[inline]
    fn add_mul_assign(&mut self, a: &Self, b: &Self) {
        self.add_assign_ref(&a.mul_ref(b));
    }
    /// `dst[i] += src[i] * scale` over a whole row — the DP's ∧-convolution
    /// and ∨-expansion inner loops. Fixed-width implementations run it
    /// branch-free (no per-element zero tests or overflow asserts).
    #[inline]
    fn fold_add_mul(dst: &mut [Self], src: &[Self], scale: &Self) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            if !s.is_zero() {
                d.add_mul_assign(s, scale);
            }
        }
    }
    /// `dst[i] += src[i]` over a whole row. Fixed-width implementations
    /// run it branch-free with one overflow check per row.
    #[inline]
    fn fold_add(dst: &mut [Self], src: &[Self]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, s) in dst.iter_mut().zip(src) {
            if !s.is_zero() {
                d.add_assign_ref(s);
            }
        }
    }
    /// Number of significant bits (0 for the value 0).
    fn bits(&self) -> u64;
    /// Little-endian limbs; trailing zero limbs are permitted.
    fn limbs(&self) -> &[u64];
    /// Constructs from little-endian limbs (panics when the value does not
    /// fit the representation).
    fn from_le_limbs(limbs: &[u64]) -> Self;
    /// Constructs from a [`BigUint`] (panics when it does not fit).
    fn from_biguint(v: &BigUint) -> Self;
    /// Converts into a [`BigUint`] (free for `BigUint` itself).
    fn into_biguint(self) -> BigUint;
}

impl<const L: usize> Coeff for Vli<L> {
    #[inline]
    fn zero() -> Self {
        Vli::zero()
    }
    #[inline]
    fn one() -> Self {
        Vli::one()
    }
    #[inline]
    fn is_zero(&self) -> bool {
        Vli::is_zero(self)
    }
    #[inline]
    fn add_assign_ref(&mut self, rhs: &Self) {
        Vli::add_assign_ref(self, rhs)
    }
    #[inline]
    fn mul_ref(&self, rhs: &Self) -> Self {
        Vli::mul_ref(self, rhs)
    }
    #[inline]
    fn sub_ref(&self, rhs: &Self) -> Self {
        Vli::sub_ref(self, rhs)
    }
    #[inline]
    fn add_mul_assign(&mut self, a: &Self, b: &Self) {
        Vli::add_mul_assign(self, a, b)
    }
    #[inline]
    fn fold_add_mul(dst: &mut [Self], src: &[Self], scale: &Self) {
        debug_assert_eq!(dst.len(), src.len());
        // A multiply by zero costs less than a branch here; accumulate one
        // overflow flag for the row and stay loud on cap bugs.
        let mut overflow = false;
        for (d, s) in dst.iter_mut().zip(src) {
            overflow |= d.add_mul_carry(s, scale);
        }
        assert!(
            !overflow,
            "Vli<{L}> row multiply-accumulate overflow (cap bug)"
        );
    }
    #[inline]
    fn fold_add(dst: &mut [Self], src: &[Self]) {
        debug_assert_eq!(dst.len(), src.len());
        let mut overflow = false;
        for (d, s) in dst.iter_mut().zip(src) {
            overflow |= d.add_carry(s);
        }
        assert!(!overflow, "Vli<{L}> row addition overflow (cap bug)");
    }
    #[inline]
    fn bits(&self) -> u64 {
        Vli::bits(self)
    }
    #[inline]
    fn limbs(&self) -> &[u64] {
        Vli::limbs(self)
    }
    fn from_le_limbs(limbs: &[u64]) -> Self {
        Vli::from_le_limbs(limbs)
    }
    fn from_biguint(v: &BigUint) -> Self {
        Vli::from_le_limbs(v.limbs())
    }
    fn into_biguint(self) -> BigUint {
        self.to_biguint()
    }
}

impl Coeff for BigUint {
    #[inline]
    fn zero() -> Self {
        BigUint::zero()
    }
    #[inline]
    fn one() -> Self {
        BigUint::one()
    }
    #[inline]
    fn is_zero(&self) -> bool {
        BigUint::is_zero(self)
    }
    #[inline]
    fn add_assign_ref(&mut self, rhs: &Self) {
        *self += rhs;
    }
    #[inline]
    fn mul_ref(&self, rhs: &Self) -> Self {
        self * rhs
    }
    #[inline]
    fn sub_ref(&self, rhs: &Self) -> Self {
        self.checked_sub(rhs).expect("Coeff::sub_ref underflow")
    }
    #[inline]
    fn bits(&self) -> u64 {
        BigUint::bits(self)
    }
    #[inline]
    fn limbs(&self) -> &[u64] {
        BigUint::limbs(self)
    }
    fn from_le_limbs(limbs: &[u64]) -> Self {
        BigUint::from_limbs(limbs.to_vec())
    }
    fn from_biguint(v: &BigUint) -> Self {
        v.clone()
    }
    fn into_biguint(self) -> BigUint {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A boundary value `2^center ± k` as a BigUint.
    fn boundary(center: u32, offset: i64) -> BigUint {
        let base = BigUint::one() << center as usize;
        if offset >= 0 {
            &base + &BigUint::from_u64(offset as u64)
        } else {
            base.checked_sub(&BigUint::from_u64(offset.unsigned_abs()))
                .unwrap()
        }
    }

    #[test]
    fn basics() {
        let z = Vli::<4>::zero();
        assert!(z.is_zero());
        assert_eq!(z.bits(), 0);
        let one = Vli::<4>::one();
        assert!(!one.is_zero());
        assert_eq!(one.bits(), 1);
        assert_eq!(one.to_biguint(), BigUint::one());
        assert_eq!(Vli::<2>::from_u64(u64::MAX).bits(), 64);
        assert!(Vli::<4>::from_u64(3) > Vli::<4>::from_u64(2));
        assert_eq!(format!("{}", Vli::<2>::from_u64(42)), "42");
    }

    #[test]
    fn from_le_limbs_rejects_wide_values() {
        // A zero past the width is fine, a non-zero limb is not.
        let ok = Vli::<2>::from_le_limbs(&[1, 2, 0, 0]);
        assert_eq!(ok.limbs(), &[1, 2]);
        let err = std::panic::catch_unwind(|| Vli::<2>::from_le_limbs(&[1, 2, 3]));
        assert!(err.is_err());
    }

    #[test]
    fn add_overflow_panics() {
        let mut a = Vli::<1>::from_u64(u64::MAX);
        let one = Vli::<1>::one();
        let err = std::panic::catch_unwind(move || {
            a.add_assign_ref(&one);
            a
        });
        assert!(err.is_err(), "carry out of the top limb must panic");
    }

    #[test]
    fn mul_overflow_panics() {
        let a = Vli::<2>::from_le_limbs(&[0, 1]); // 2^64
        let err = std::panic::catch_unwind(move || a.mul_ref(&a));
        assert!(err.is_err(), "2^128 does not fit two limbs");
        // High-limb times high-limb with zero low products must also trip.
        let b = Vli::<2>::from_le_limbs(&[0, u64::MAX]);
        let err = std::panic::catch_unwind(move || b.mul_ref(&b));
        assert!(err.is_err());
    }

    #[test]
    fn sub_underflow_panics() {
        let a = Vli::<2>::from_u64(3);
        let b = Vli::<2>::from_u64(5);
        assert_eq!(b.sub_ref(&a), Vli::<2>::from_u64(2));
        let err = std::panic::catch_unwind(move || a.sub_ref(&b));
        assert!(err.is_err());
    }

    /// Exercises ops for one width at one spill boundary, comparing against
    /// the BigUint reference.
    fn check_boundary<const L: usize>(center: u32, da: i64, db: i64) {
        let ba = boundary(center, da);
        let bb = boundary(center, db);
        let a = Vli::<L>::from_biguint(&ba);
        let b = Vli::<L>::from_biguint(&bb);
        // Round trip.
        assert_eq!(a.to_biguint(), ba);
        assert_eq!(a.bits(), ba.bits());
        // Addition.
        let mut sum = a;
        sum.add_assign_ref(&b);
        assert_eq!(sum.to_biguint(), &ba + &bb);
        // Ordered subtraction both ways.
        match ba.cmp(&bb) {
            Ordering::Less => assert_eq!(b.sub_ref(&a).to_biguint(), bb.checked_sub(&ba).unwrap()),
            _ => assert_eq!(a.sub_ref(&b).to_biguint(), ba.checked_sub(&bb).unwrap()),
        }
        // Comparison agrees with the reference.
        assert_eq!(a.cmp(&b), ba.cmp(&bb));
        // Multiplication (the product fits: 2·center + slack < 64·L is
        // guaranteed by the callers below).
        let prod = a.mul_ref(&b);
        assert_eq!(prod.to_biguint(), &ba * &bb);
    }

    proptest! {
        /// `Vli` ≡ `BigUint` across every limb-spill boundary: operands at
        /// `2^64±k`, `2^128±k`, and `2^256±k`, with widths chosen so the
        /// products straddle the internal carry chains.
        #[test]
        fn prop_vli_matches_biguint_at_spill_boundaries(
            da in -4i64..=4,
            db in -4i64..=4,
        ) {
            // 2^64±k: products near 2^128 — the Vli<4> mid-limb carries.
            check_boundary::<4>(64, da, db);
            // 2^128±k: products near 2^256 — the exact top of Vli<4>...
            if da <= 0 && db <= 0 {
                check_boundary::<4>(128, da, db);
            }
            // ...and comfortably inside Vli<8>.
            check_boundary::<8>(128, da, db);
            // 2^256±k: products near 2^512, the exact top of Vli<8>.
            if da <= 0 && db <= 0 {
                check_boundary::<8>(256, da, db);
            }
        }

        /// Random many-limb operands: add/sub/mul/cmp all agree with the
        /// BigUint reference when the values fit the width.
        #[test]
        fn prop_vli_random_ops_match_biguint(
            al in proptest::collection::vec(any::<u64>(), 1..4),
            bl in proptest::collection::vec(any::<u64>(), 1..4),
        ) {
            let ba = BigUint::from_limbs(al);
            let bb = BigUint::from_limbs(bl);
            let a = Vli::<8>::from_biguint(&ba);
            let b = Vli::<8>::from_biguint(&bb);
            let mut sum = a;
            sum.add_assign_ref(&b);
            prop_assert_eq!(sum.to_biguint(), &ba + &bb);
            prop_assert_eq!(a.mul_ref(&b).to_biguint(), &ba * &bb);
            prop_assert_eq!(a.cmp(&b), ba.cmp(&bb));
            if ba >= bb {
                prop_assert_eq!(
                    a.sub_ref(&b).to_biguint(),
                    ba.checked_sub(&bb).unwrap());
            }
        }
    }
}
