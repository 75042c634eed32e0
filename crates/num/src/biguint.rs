//! Arbitrary-precision unsigned integers with an inline small-value form.
//!
//! Representation: values with at most two significant limbs — the
//! overwhelmingly common case for `#SAT_k` counts and Algorithm 1
//! coefficients — live inline in the [`BigUint`] itself and never touch the
//! heap; wider values spill to a little-endian `Vec<u64>` limb vector with
//! no trailing zero limb. The representation is canonical (a value fits
//! inline if and only if it is stored inline), and the arithmetic fast
//! paths run on `u128` before falling back to the limb loops. All
//! arithmetic is exact; `sub` panics on underflow (use
//! [`BigUint::checked_sub`] otherwise).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, AddAssign, Mul, Shl, Shr, Sub};

/// Internal storage. Invariant: `Heap` holds ≥ 3 limbs with a non-zero top
/// limb; everything narrower is `Small` with the unused limbs zeroed.
#[derive(Clone)]
enum Repr {
    /// ≤ 2 significant limbs, inline. `len` ∈ {0, 1, 2}; the canonical form
    /// of zero is `len == 0`.
    Small { len: u8, limbs: [u64; 2] },
    /// ≥ 3 limbs, little-endian, normalized (no trailing zero limb).
    Heap(Vec<u64>),
}

/// An arbitrary-precision unsigned integer.
#[derive(Clone)]
pub struct BigUint {
    repr: Repr,
}

impl Default for BigUint {
    fn default() -> Self {
        BigUint::zero()
    }
}

#[inline]
fn small_from_u128(v: u128) -> Repr {
    let lo = v as u64;
    let hi = (v >> 64) as u64;
    let len = if hi != 0 {
        2
    } else if lo != 0 {
        1
    } else {
        0
    };
    Repr::Small {
        len,
        limbs: [lo, hi],
    }
}

impl BigUint {
    /// The value 0.
    #[inline]
    pub fn zero() -> Self {
        BigUint {
            repr: Repr::Small {
                len: 0,
                limbs: [0, 0],
            },
        }
    }

    /// The value 1.
    #[inline]
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// Constructs from a `u64`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        BigUint {
            repr: Repr::Small {
                len: u8::from(v != 0),
                limbs: [v, 0],
            },
        }
    }

    /// Constructs from a `u128`.
    #[inline]
    pub fn from_u128(v: u128) -> Self {
        BigUint {
            repr: small_from_u128(v),
        }
    }

    /// Constructs from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        Self::from_vec(limbs)
    }

    /// Constructs from borrowed little-endian limbs (normalizing): a value
    /// of at most two significant limbs is stored inline without touching
    /// the heap, a wider one costs one allocation.
    pub fn from_slice(limbs: &[u64]) -> Self {
        let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |top| top + 1);
        match limbs[..len] {
            [] => BigUint::zero(),
            [lo] => BigUint::from_u64(lo),
            [lo, hi] => BigUint {
                repr: Repr::Small {
                    len: 2,
                    limbs: [lo, hi],
                },
            },
            ref wide => BigUint {
                repr: Repr::Heap(wide.to_vec()),
            },
        }
    }

    /// The canonicalizing constructor: pops trailing zero limbs and stores
    /// inline when two limbs suffice.
    fn from_vec(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        if limbs.len() <= 2 {
            return BigUint::from_slice(&limbs);
        }
        BigUint {
            repr: Repr::Heap(limbs),
        }
    }

    /// Exposes the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.repr {
            Repr::Small { len, limbs } => &limbs[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The value as `u128` when stored inline (canonical: iff it fits).
    #[inline]
    fn as_u128(&self) -> Option<u128> {
        match &self.repr {
            Repr::Small { limbs, .. } => Some(limbs[0] as u128 | (limbs[1] as u128) << 64),
            Repr::Heap(_) => None,
        }
    }

    /// True iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small { len: 0, .. })
    }

    /// True iff the value is 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        matches!(
            self.repr,
            Repr::Small {
                len: 1,
                limbs: [1, _]
            }
        )
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs().first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bits(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs() {
            [] => Some(0),
            [l] => Some(*l),
            _ => None,
        }
    }

    /// Returns the value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        // Canonical representation: a value fits in two limbs iff inline.
        self.as_u128()
    }

    /// Lossy conversion to `f64`.
    ///
    /// Values above `f64::MAX` map to `f64::INFINITY`. The top 64 bits are
    /// used for the mantissa, so the relative error is at most 2^-52.
    pub fn to_f64(&self) -> f64 {
        let bits = self.bits();
        if bits == 0 {
            return 0.0;
        }
        if bits <= 64 {
            return self.limbs()[0] as f64;
        }
        // Take the top 64 bits and scale by the discarded exponent.
        let shift = bits - 64;
        let top = self.clone() >> shift as usize;
        let mantissa = top.limbs()[0] as f64;
        if shift > 1023 {
            // Split the scaling to avoid overflowing the exponent computation.
            let first = 2f64.powi(1023);
            let rest = 2f64.powi((shift - 1023) as i32);
            mantissa * first * rest
        } else {
            mantissa * 2f64.powi(shift as i32)
        }
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if let (Some(a), Some(b)) = (self.as_u128(), other.as_u128()) {
            return a.checked_sub(b).map(BigUint::from_u128);
        }
        if self < other {
            return None;
        }
        let a = self.limbs();
        let b = other.limbs();
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let rhs = b.get(i).copied().unwrap_or(0);
            let (d1, b1) = ai.overflowing_sub(rhs);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_vec(out))
    }

    /// Multiplies by a `u64` in place.
    pub fn mul_small(&mut self, m: u64) {
        if m == 0 {
            *self = BigUint::zero();
            return;
        }
        match &mut self.repr {
            Repr::Small { limbs, .. } => {
                // Two 64×64→128 partial products cannot overflow u128.
                let lo = limbs[0] as u128 * m as u128;
                let hi = limbs[1] as u128 * m as u128 + (lo >> 64);
                let spill = (hi >> 64) as u64;
                self.repr = if spill != 0 {
                    Repr::Heap(vec![lo as u64, hi as u64, spill])
                } else {
                    small_from_u128(lo as u64 as u128 | (hi as u64 as u128) << 64)
                };
            }
            Repr::Heap(v) => {
                let mut carry = 0u128;
                for limb in v.iter_mut() {
                    let prod = *limb as u128 * m as u128 + carry;
                    *limb = prod as u64;
                    carry = prod >> 64;
                }
                if carry != 0 {
                    v.push(carry as u64);
                }
            }
        }
    }

    /// Divides in place by a `u64`, returning the remainder. Panics if `d == 0`.
    pub fn div_small(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        match &mut self.repr {
            Repr::Small { limbs, .. } => {
                let v = limbs[0] as u128 | (limbs[1] as u128) << 64;
                let r = (v % d as u128) as u64;
                self.repr = small_from_u128(v / d as u128);
                r
            }
            Repr::Heap(v) => {
                let mut rem = 0u128;
                for limb in v.iter_mut().rev() {
                    let cur = (rem << 64) | *limb as u128;
                    *limb = (cur / d as u128) as u64;
                    rem = cur % d as u128;
                }
                let rem = rem as u64;
                if v.last() == Some(&0) {
                    let taken = std::mem::take(v);
                    *self = BigUint::from_vec(taken);
                }
                rem
            }
        }
    }

    /// Quotient and remainder. Panics if `divisor` is 0.
    ///
    /// Uses Knuth's Algorithm D with a normalization shift; this is the
    /// classical schoolbook long division, quadratic in limb count, which is
    /// ample for our operand sizes.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if let (Some(a), Some(b)) = (self.as_u128(), divisor.as_u128()) {
            return (BigUint::from_u128(a / b), BigUint::from_u128(a % b));
        }
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if let [d] = divisor.limbs() {
            let d = *d;
            let mut q = self.clone();
            let r = q.div_small(d);
            return (q, BigUint::from_u64(r));
        }
        // Normalize so that the divisor's top limb has its high bit set.
        let shift = divisor.limbs().last().unwrap().leading_zeros() as usize;
        let u = self.clone() << shift;
        let v = divisor.clone() << shift;
        let n = v.limbs().len();
        let m = u.limbs().len() - n;
        let mut un = u.limbs().to_vec();
        un.push(0); // extra limb for the algorithm
        let vn = v.limbs();
        let mut q = vec![0u64; m + 1];
        let v_top = vn[n - 1] as u128;
        let v_second = vn[n - 2] as u128;
        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top limbs.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top;
            let mut rhat = num % v_top;
            while qhat >= 1 << 64 || qhat * v_second > ((rhat << 64) | un[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1 << 64 {
                    break;
                }
            }
            // Multiply-subtract qhat * v from un[j..j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[i + j] as i128) - (p as u64 as i128) + borrow;
                un[i + j] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = (un[j + n] as i128) - (carry as i128) + borrow;
            un[j + n] = sub as u64;
            let went_negative = sub < 0;
            if went_negative {
                // Estimate was one too high: add back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }
        let quotient = BigUint::from_vec(q);
        un.truncate(n);
        let remainder = BigUint::from_vec(un) >> shift;
        (quotient, remainder)
    }

    /// Greatest common divisor (binary GCD; no division needed).
    ///
    /// Inline operands run the whole loop on `u128`s; wider operands run an
    /// in-place limb-buffer loop that drops to the `u128` path as soon as
    /// both residues fit, so no iteration allocates.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        if let (Some(a), Some(b)) = (self.as_u128(), other.as_u128()) {
            return BigUint::from_u128(gcd_u128(a, b));
        }
        let mut a = self.limbs().to_vec();
        let mut b = other.limbs().to_vec();
        // Factor out common powers of two.
        let az = trailing_zeros_limbs(&a);
        let bz = trailing_zeros_limbs(&b);
        let common = az.min(bz) as usize;
        shr_in_place(&mut a, az);
        shr_in_place(&mut b, bz);
        loop {
            // Both odd here. Switch to the u128 kernel once narrow enough.
            if a.len() <= 2 && b.len() <= 2 {
                let g = gcd_u128(limbs_to_u128(&a), limbs_to_u128(&b));
                return BigUint::from_u128(g) << common;
            }
            match cmp_limbs(&a, &b) {
                Ordering::Equal => return BigUint::from_vec(a) << common,
                Ordering::Less => std::mem::swap(&mut a, &mut b),
                Ordering::Greater => {}
            }
            sub_limbs_in_place(&mut a, &b);
            // a was > b, so the difference is non-zero (and even).
            let tz = trailing_zeros_limbs(&a);
            shr_in_place(&mut a, tz);
        }
    }

    /// Number of trailing zero bits (0 has none by convention; panics on 0).
    pub fn trailing_zeros(&self) -> u64 {
        assert!(!self.is_zero(), "trailing_zeros of zero");
        trailing_zeros_limbs(self.limbs())
    }

    /// `self ^ exp` by square-and-multiply.
    pub fn pow(&self, mut exp: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Parses a decimal string.
    pub fn from_decimal(s: &str) -> Option<BigUint> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut n = BigUint::zero();
        for chunk in s.as_bytes().chunks(19) {
            let part: u64 = std::str::from_utf8(chunk).ok()?.parse().ok()?;
            n.mul_small(10u64.pow(chunk.len() as u32));
            n += BigUint::from_u64(part);
        }
        Some(n)
    }
}

/// Binary GCD of two non-zero `u128`s.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    debug_assert!(a != 0 && b != 0);
    let az = a.trailing_zeros();
    let bz = b.trailing_zeros();
    let common = az.min(bz);
    a >>= az;
    b >>= bz;
    loop {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << common;
        }
        b >>= b.trailing_zeros();
    }
}

/// The low 128 bits of a ≤2-limb slice.
fn limbs_to_u128(l: &[u64]) -> u128 {
    match l {
        [] => 0,
        [a] => *a as u128,
        [a, b, ..] => *a as u128 | (*b as u128) << 64,
    }
}

/// Trailing zero bits of a non-zero normalized limb slice.
fn trailing_zeros_limbs(l: &[u64]) -> u64 {
    let mut tz = 0u64;
    for &limb in l {
        if limb == 0 {
            tz += 64;
        } else {
            tz += limb.trailing_zeros() as u64;
            break;
        }
    }
    tz
}

/// Compares two normalized limb vectors.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    match a.len().cmp(&b.len()) {
        Ordering::Equal => a.iter().rev().cmp(b.iter().rev()),
        ord => ord,
    }
}

/// Right-shifts a limb vector in place, popping trailing zero limbs.
fn shr_in_place(v: &mut Vec<u64>, bits: u64) {
    let limb_shift = (bits / 64) as usize;
    if limb_shift >= v.len() {
        v.clear();
        return;
    }
    if limb_shift > 0 {
        v.drain(..limb_shift);
    }
    let bit_shift = bits % 64;
    if bit_shift != 0 {
        let mut carry = 0u64;
        for l in v.iter_mut().rev() {
            let new = (*l >> bit_shift) | carry;
            carry = *l << (64 - bit_shift);
            *l = new;
        }
    }
    while v.last() == Some(&0) {
        v.pop();
    }
}

impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        self.limbs() == other.limbs()
    }
}

impl Eq for BigUint {}

impl Hash for BigUint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.as_u128(), other.as_u128()) {
            return a.cmp(&b);
        }
        cmp_limbs(self.limbs(), other.limbs())
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl AddAssign<BigUint> for BigUint {
    fn add_assign(&mut self, rhs: BigUint) {
        *self += &rhs;
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        if let (Some(a), Some(b)) = (self.as_u128(), rhs.as_u128()) {
            match a.checked_add(b) {
                Some(s) => self.repr = small_from_u128(s),
                None => {
                    let s = a.wrapping_add(b);
                    self.repr = Repr::Heap(vec![s as u64, (s >> 64) as u64, 1]);
                }
            }
            return;
        }
        // At least one heap operand: run the limb loop into self's vector.
        let mut limbs = match std::mem::replace(
            &mut self.repr,
            Repr::Small {
                len: 0,
                limbs: [0, 0],
            },
        ) {
            Repr::Small { len, limbs } => limbs[..len as usize].to_vec(),
            Repr::Heap(v) => v,
        };
        let r = rhs.limbs();
        if limbs.len() < r.len() {
            limbs.resize(r.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in limbs.iter_mut().enumerate() {
            let rv = r.get(i).copied().unwrap_or(0);
            let (s1, c1) = limb.overflowing_add(rv);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (c1 | c2) as u64;
        }
        if carry != 0 {
            limbs.push(carry);
        }
        *self = BigUint::from_vec(limbs);
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(mut self, rhs: BigUint) -> BigUint {
        self += &rhs;
        self
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

/// Below this operand width (in limbs) multiplication stays schoolbook; the
/// crossover was measured on the `#SAT_k` convolution workload, where
/// operands are usually well under 32 limbs and Karatsuba's allocations
/// only pay off beyond it.
const KARATSUBA_THRESHOLD: usize = 32;

/// Schoolbook product of two non-empty limb slices.
fn mul_limbs_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + x as u128 * y as u128 + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = out[k] as u128 + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    out
}

/// `acc += src << (64 · shift)`, growing `acc` as needed.
fn add_shifted(acc: &mut Vec<u64>, src: &[u64], shift: usize) {
    if acc.len() < shift + src.len() + 1 {
        acc.resize(shift + src.len() + 1, 0);
    }
    let mut carry = 0u128;
    for (i, &s) in src.iter().enumerate() {
        let cur = acc[shift + i] as u128 + s as u128 + carry;
        acc[shift + i] = cur as u64;
        carry = cur >> 64;
    }
    let mut k = shift + src.len();
    while carry != 0 {
        let cur = acc[k] as u128 + carry;
        acc[k] = cur as u64;
        carry = cur >> 64;
        k += 1;
    }
}

/// Element-wise sum of two limb slices (with final carry limb if needed).
fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = long.to_vec();
    add_shifted(&mut out, short, 0);
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// `a -= b` on limb vectors; requires `a ≥ b` (guaranteed for Karatsuba's
/// middle term and the GCD loop).
fn sub_limbs_in_place(a: &mut Vec<u64>, b: &[u64]) {
    let mut borrow = 0i128;
    for i in 0..a.len() {
        let rhs = if i < b.len() { b[i] as i128 } else { 0 };
        let cur = a[i] as i128 - rhs - borrow;
        if cur < 0 {
            a[i] = (cur + (1i128 << 64)) as u64;
            borrow = 1;
        } else {
            a[i] = cur as u64;
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0, "limb subtraction must be non-negative");
    while a.last() == Some(&0) {
        a.pop();
    }
}

/// Karatsuba product: three half-width multiplications instead of four.
fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_limbs_schoolbook(a, b);
    }
    let m = a.len().max(b.len()) / 2;
    let (a0, a1) = a.split_at(m.min(a.len()));
    let (b0, b1) = b.split_at(m.min(b.len()));
    // Normalized views (top halves may be empty when lengths are skewed).
    let trim = |s: &[u64]| {
        let mut end = s.len();
        while end > 0 && s[end - 1] == 0 {
            end -= 1;
        }
        s[..end].to_vec()
    };
    let (a0, a1, b0, b1) = (trim(a0), trim(a1), trim(b0), trim(b1));
    let z0 = mul_limbs(&a0, &b0);
    let z2 = mul_limbs(&a1, &b1);
    let mut z1 = mul_limbs(&add_limbs(&a0, &a1), &add_limbs(&b0, &b1));
    sub_limbs_in_place(&mut z1, &z0);
    sub_limbs_in_place(&mut z1, &z2);
    let mut out = vec![0u64; a.len() + b.len()];
    add_shifted(&mut out, &z0, 0);
    add_shifted(&mut out, &z1, m);
    add_shifted(&mut out, &z2, 2 * m);
    out
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        if let (Some(a), Some(b)) = (self.as_u128(), rhs.as_u128()) {
            if let Some(p) = a.checked_mul(b) {
                return BigUint::from_u128(p);
            }
        }
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        BigUint::from_vec(mul_limbs(self.limbs(), rhs.limbs()))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self;
        }
        if bits < 128 {
            if let Some(v) = self.as_u128() {
                if v.leading_zeros() as usize >= bits {
                    return BigUint::from_u128(v << bits);
                }
            }
        }
        let limbs = self.limbs();
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(limbs);
        } else {
            let mut carry = 0u64;
            for &l in limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_vec(out)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        if let Some(v) = self.as_u128() {
            return if bits >= 128 {
                BigUint::zero()
            } else {
                BigUint::from_u128(v >> bits)
            };
        }
        let limbs = self.limbs();
        let limb_shift = bits / 64;
        if limb_shift >= limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u64;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        BigUint::from_vec(out)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeatedly divide by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut n = self.clone();
        let mut parts = Vec::new();
        while !n.is_zero() {
            parts.push(n.div_small(CHUNK));
        }
        let mut s = parts.pop().unwrap().to_string();
        for p in parts.iter().rev() {
            s.push_str(&format!("{:019}", p));
        }
        write!(f, "{}", s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_u64(v as u64)
    }
}

impl From<usize> for BigUint {
    fn from(v: usize) -> Self {
        BigUint::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// True iff the value is stored inline (test-only invariant probe).
    fn is_inline(v: &BigUint) -> bool {
        matches!(v.repr, Repr::Small { .. })
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::zero().to_string(), "0");
    }

    #[test]
    fn add_with_carry() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        let c = &a + &b;
        assert_eq!(c.to_u128(), Some(1u128 << 64));
    }

    #[test]
    fn sub_underflow_detected() {
        let a = BigUint::from_u64(3);
        let b = BigUint::from_u64(5);
        assert!(a.checked_sub(&b).is_none());
        assert_eq!(b.checked_sub(&a).unwrap().to_u64(), Some(2));
    }

    #[test]
    fn mul_schoolbook() {
        let a = BigUint::from_u128(u128::MAX);
        let b = BigUint::from_u64(2);
        let c = &a * &b;
        // 2 * (2^128 - 1) = 2^129 - 2; check via bits and decimal digits.
        assert_eq!(c.bits(), 129);
        assert_eq!(c.to_string(), "680564733841876926926749214863536422910");
    }

    #[test]
    fn display_large() {
        // 2^128 = 340282366920938463463374607431768211456
        let v = BigUint::from_u64(2).pow(128);
        assert_eq!(v.to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn parse_round_trip() {
        let s = "123456789012345678901234567890123456789";
        let v = BigUint::from_decimal(s).unwrap();
        assert_eq!(v.to_string(), s);
        assert!(BigUint::from_decimal("12a").is_none());
        assert!(BigUint::from_decimal("").is_none());
    }

    #[test]
    fn divrem_small_cases() {
        let a = BigUint::from_u64(100);
        let b = BigUint::from_u64(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.to_u64(), Some(14));
        assert_eq!(r.to_u64(), Some(2));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = BigUint::from_u64(2).pow(200);
        let b = BigUint::from_u64(3).pow(40);
        let (q, r) = a.div_rem(&b);
        let back = &(&q * &b) + &r;
        assert_eq!(back, a);
        assert!(r < b);
    }

    #[test]
    fn gcd_matches_euclid() {
        let a = BigUint::from_u64(48);
        let b = BigUint::from_u64(36);
        assert_eq!(a.gcd(&b).to_u64(), Some(12));
        assert_eq!(BigUint::zero().gcd(&b).to_u64(), Some(36));
        assert_eq!(a.gcd(&BigUint::zero()).to_u64(), Some(48));
    }

    #[test]
    fn gcd_multi_limb_operands() {
        // g · a and g · b with a 3-limb g: the heap loop must recover g
        // times gcd(a, b) = 3g.
        let g = (BigUint::one() << 130) + BigUint::from_u64(7);
        let a = &g * &BigUint::from_u64(6);
        let b = &g * &BigUint::from_u64(15);
        assert_eq!(a.gcd(&b), &g * &BigUint::from_u64(3));
        // One wide, one narrow operand.
        let wide = BigUint::one() << 200;
        let narrow = BigUint::from_u64(1 << 20);
        assert_eq!(wide.gcd(&narrow), narrow);
    }

    #[test]
    fn shifts_round_trip() {
        let v = BigUint::from_decimal("987654321987654321987654321").unwrap();
        let shifted = v.clone() << 77;
        assert_eq!(shifted >> 77, v);
    }

    #[test]
    fn to_f64_accuracy() {
        let v = BigUint::from_u64(1) << 100;
        let f = v.to_f64();
        assert!((f - 2f64.powi(100)).abs() / 2f64.powi(100) < 1e-12);
        // Huge values saturate to infinity rather than panic.
        let huge = BigUint::from_u64(1) << 1100;
        assert!(huge.to_f64().is_infinite());
    }

    #[test]
    fn representation_is_canonical() {
        // ≤ 2 limbs always inline, even when produced by heap arithmetic.
        assert!(is_inline(&BigUint::from_u128(u128::MAX)));
        assert!(is_inline(&BigUint::from_limbs(vec![1, 2, 0, 0])));
        assert!(!is_inline(&BigUint::from_limbs(vec![1, 2, 3])));
        for limbs in [
            &[][..],
            &[0, 0],
            &[5, 0],
            &[1, 2, 0, 0],
            &[1, 2, 3],
            &[0, 0, 7, 0],
        ] {
            let v = BigUint::from_slice(limbs);
            assert_eq!(v, BigUint::from_limbs(limbs.to_vec()), "{limbs:?}");
            assert_eq!(is_inline(&v), v.limbs().len() <= 2, "{limbs:?}");
        }
        let spilled = &BigUint::from_u128(u128::MAX) + &BigUint::one();
        assert!(!is_inline(&spilled));
        let back = spilled.checked_sub(&BigUint::one()).unwrap();
        assert!(is_inline(&back), "shrinking results demote to inline");
        assert_eq!(back.to_u128(), Some(u128::MAX));
        let (q, r) = (BigUint::one() << 192).div_rem(&(BigUint::one() << 100));
        assert!(is_inline(&q) && is_inline(&r));
    }

    /// Values straddling the one→two-limb and two-limb→heap spill
    /// boundaries: `2^64 ± k` and `2^128 ± k`.
    fn boundary_value(center_bit: u32, offset: i64) -> BigUint {
        let base = BigUint::one() << center_bit as usize;
        if offset >= 0 {
            &base + &BigUint::from_u64(offset as u64)
        } else {
            base.checked_sub(&BigUint::from_u64(offset.unsigned_abs()))
                .unwrap()
        }
    }

    /// Reference implementations straight on limb vectors (no small path).
    fn ref_add(a: &BigUint, b: &BigUint) -> BigUint {
        BigUint::from_limbs(add_limbs(a.limbs(), b.limbs()))
    }

    fn ref_mul(a: &BigUint, b: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_limbs_schoolbook(
            if a.is_zero() { &[0] } else { a.limbs() },
            if b.is_zero() { &[0] } else { b.limbs() },
        ))
    }

    fn ref_sub(a: &BigUint, b: &BigUint) -> Option<BigUint> {
        if cmp_limbs(a.limbs(), b.limbs()) == Ordering::Less {
            return None;
        }
        let mut v = a.limbs().to_vec();
        sub_limbs_in_place(&mut v, b.limbs());
        Some(BigUint::from_limbs(v))
    }

    proptest! {
        #[test]
        fn prop_add_sub_round_trip(a in any::<u128>(), b in any::<u128>()) {
            let ba = BigUint::from_u128(a);
            let bb = BigUint::from_u128(b);
            let sum = &ba + &bb;
            prop_assert_eq!(sum.checked_sub(&bb).unwrap(), ba);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let prod = &BigUint::from_u64(a) * &BigUint::from_u64(b);
            prop_assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
        }

        #[test]
        fn prop_divrem_invariant(a in any::<u128>(), b in 1u128..) {
            let ba = BigUint::from_u128(a);
            let bb = BigUint::from_u128(b);
            let (q, r) = ba.div_rem(&bb);
            prop_assert!(r < bb);
            prop_assert_eq!(&(&q * &bb) + &r, ba);
        }

        #[test]
        fn prop_divrem_large(alimbs in proptest::collection::vec(any::<u64>(), 1..6),
                             blimbs in proptest::collection::vec(any::<u64>(), 1..4)) {
            let a = BigUint::from_limbs(alimbs);
            let b = BigUint::from_limbs(blimbs);
            prop_assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            prop_assert!(r < b);
            prop_assert_eq!(&(&q * &b) + &r, a);
        }

        #[test]
        fn prop_gcd_divides(a in any::<u64>(), b in any::<u64>()) {
            let ba = BigUint::from_u64(a);
            let bb = BigUint::from_u64(b);
            let g = ba.gcd(&bb);
            if !g.is_zero() {
                prop_assert!(ba.div_rem(&g).1.is_zero());
                prop_assert!(bb.div_rem(&g).1.is_zero());
            }
        }

        #[test]
        fn prop_gcd_wide_divides(
            alimbs in proptest::collection::vec(any::<u64>(), 3..6),
            blimbs in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let a = BigUint::from_limbs(alimbs);
            let b = BigUint::from_limbs(blimbs);
            prop_assume!(!a.is_zero() && !b.is_zero());
            let g = a.gcd(&b);
            prop_assert!(a.div_rem(&g).1.is_zero());
            prop_assert!(b.div_rem(&g).1.is_zero());
        }

        #[test]
        fn prop_decimal_round_trip(a in any::<u128>()) {
            let s = a.to_string();
            prop_assert_eq!(BigUint::from_decimal(&s).unwrap().to_string(), s);
        }

        #[test]
        fn prop_spill_boundary_ops_match_limb_path(
            center_idx in 0usize..2,
            da in -3i64..=3,
            db in -3i64..=3,
            m in any::<u64>(),
        ) {
            // Operands straddling 2^64 ± k and 2^128 ± k: the inline fast
            // paths must agree limb-for-limb with the reference loops.
            let center = [64u32, 128][center_idx];
            let a = boundary_value(center, da);
            let b = boundary_value(center, db);
            prop_assert_eq!(&a + &b, ref_add(&a, &b));
            prop_assert_eq!(&a * &b, ref_mul(&a, &b));
            prop_assert_eq!(a.checked_sub(&b), ref_sub(&a, &b));
            prop_assert_eq!(b.checked_sub(&a), ref_sub(&b, &a));
            let mut ms = a.clone();
            ms.mul_small(m);
            prop_assert_eq!(ms, ref_mul(&a, &BigUint::from_u64(m)));
            if m != 0 {
                let mut q = a.clone();
                let r = q.div_small(m);
                let back = &ref_mul(&q, &BigUint::from_u64(m)) + &BigUint::from_u64(r);
                prop_assert_eq!(back, a.clone());
            }
            let g = a.gcd(&b);
            prop_assert!(a.div_rem(&g).1.is_zero());
            prop_assert!(b.div_rem(&g).1.is_zero());
            // Hash/Eq consistency across the boundary forms.
            prop_assert_eq!(a.cmp(&b), cmp_limbs(a.limbs(), b.limbs()));
        }

        #[test]
        fn prop_karatsuba_matches_schoolbook(
            alimbs in proptest::collection::vec(any::<u64>(), 1..140),
            blimbs in proptest::collection::vec(any::<u64>(), 1..140),
        ) {
            // Wide enough to cross KARATSUBA_THRESHOLD on both sides, and
            // skewed splits (140 vs 1) to exercise the empty-top-half path.
            let got = mul_limbs(&alimbs, &blimbs);
            let expect = mul_limbs_schoolbook(&alimbs, &blimbs);
            // Compare through BigUint to ignore trailing-zero padding.
            prop_assert_eq!(
                BigUint::from_limbs(got), BigUint::from_limbs(expect));
        }
    }

    #[test]
    fn karatsuba_on_factorial_sized_operands() {
        // (2^64)^64-scale operands: 1000! split as 500!·(1000!/500!) —
        // exactly the shape Algorithm 1's weights produce.
        let mut half = BigUint::one();
        for i in 1..=500u64 {
            half.mul_small(i);
        }
        let mut rest = BigUint::one();
        for i in 501..=1000u64 {
            rest.mul_small(i);
        }
        let mut full = BigUint::one();
        for i in 1..=1000u64 {
            full.mul_small(i);
        }
        assert!(half.limbs().len() >= KARATSUBA_THRESHOLD);
        assert_eq!(&half * &rest, full);
    }
}
