//! Equation (3)'s weighting, shared by Algorithm 1 and the read-once DP.
//!
//! Both exact routes end with the same sum per fact `f`:
//! `φ(f) = Σ_j (Γ[j] − Δ[j]) · w_j / denom`, where `Γ/Δ` are the `#SAT_j`
//! arrays of the lineage conditioned on `f → 1 / 0` and `m` is the number
//! of variables the lineage actually mentions. [`PowerFold`] is that sum:
//! built once per solve, then called once per fact. Its `BigUint` form
//! survives only as the test oracle (`oracle::weighted_difference`).
//!
//! * **Weights.** Shapley's `w_j = j!(m−1−j)!` over `m!`, Banzhaf's
//!   `w_j = 1` over `2^(m−1)`, laid out once per solve as flat limbs.
//! * **Accumulation.** `Γ[j] ≤ C(m−1, j)`, so the positive and the
//!   negative sums are each at most `Σ_j C(m−1, j)·w_j = m!` (`2^(m−1)`
//!   for Banzhaf); they are accumulated in buffers of `bits(m!) + m + 1`
//!   bits (`m + 1` for Banzhaf; `m` bounds `bits(C(m, ⌊m/2⌋))` without
//!   computing the binomial) sized once per solve, so no term and no fact
//!   allocates. Shapley's weights
//!   are mirror-symmetric (`w_j = w_{m−1−j}`), so each pair's counts are
//!   added first and one limb-slice multiply-accumulate serves both
//!   terms. When the buffers' bound is at most 128 bits (Shapley up to
//!   `m = 28`, Banzhaf up to 127) the sums are plain `u128`s.
//! * **Reduction.** One per fact, against the known denominator. For
//!   Banzhaf it is a shift by the numerator's trailing zeros. For Shapley
//!   the gcd with `m!` is assembled prime by prime, since `m!`'s prime
//!   factors are the primes `≤ m`: `2^min(tz, e_2)` and, per odd prime
//!   `p ≤ m`, `p^min(v_p, e_p)`, with `e_p` the exponent of `p` in `m!`.
//!   `v_p` is read off the numerator's residue modulo `p^t < 2^32`, from a
//!   per-solve table of `2^(64i) mod p^t`: one multiply-add pass per
//!   prime. The numerator is divided by exact (Hensel) division, and the
//!   reduced denominator `Π p^(e_p − k_p)` is built by multiplication —
//!   typically a word or two, since a value's numerator over `m!` shares
//!   most of `m!`. On `u128` sums the same gcd is a shift and, per odd
//!   prime, a multiply by `p^−1 mod 2^128`, which tests divisibility and
//!   divides the numerator and the denominator at once. No long division
//!   runs, and the result is the canonical [`Rational`] a generic gcd
//!   gives.

use crate::measure::Measure;
use shapdb_num::{
    combinatorics::FactorialTable, factorial, BigInt, BigUint, Coeff, Rational, Sign,
};

/// Weights `w_j` (numerators over `m!`) such that
/// `Shapley(f) = Σ_j (Γ[j] − Δ[j]) · w_j / m!`.
///
/// Line 1 of Algorithm 1 completes the circuit so that `Vars = D_n`; done
/// arithmetically, the completed sum is
/// `Σ_d (j+d)!(n-j-d-1)!·C(n-m, d) / n!`. By the Shapley value's null-player
/// invariance this collapses to the closed form `j!(m-1-j)! / m!` over just
/// the `m` circuit variables (both expressions compute the same value for
/// every possible `Γ − Δ` profile, and those span `R^m`, so they are equal
/// coefficient-wise). The closed form avoids factorials of `|D_n|`, which
/// for a database with thousands of endogenous facts is the difference
/// between microseconds and hours.
pub(crate) fn completion_weights(m: usize, facts: &mut FactorialTable) -> Vec<BigUint> {
    (0..m)
        .map(|j| facts.get(j).clone() * facts.get(m - 1 - j).clone())
        .collect()
}

/// One solve's Equation (3) fold for a power index over `m` variables.
///
/// * [`Measure::Shapley`] — the permutation weights above over `m!`;
/// * [`Measure::Banzhaf`] — uniform weights over `2^(m−1)`: the same
///   null-player collapse applies (a dummy variable doubles both the
///   critical-coalition counts and the denominator), so the fold over the
///   `m` circuit variables is exact for any ambient `|D_n|`.
///
/// The DP underneath is identical: Banzhaf is one extra `O(m)` fold away
/// from Shapley, not a second dynamic program.
pub(crate) enum PowerFold {
    /// Both sums fit a `u128`; Banzhaf's weights are ones. The reduction
    /// divides out `2^min(tz, twos)` by a shift and each odd prime of the
    /// denominator by multiplying with its inverse.
    Narrow {
        weights: Vec<u128>,
        denom: u128,
        twos: u32,
        primes: Vec<NarrowPrime>,
    },
    /// Limb-slice accumulation.
    Wide(Box<WideFold>),
}

impl PowerFold {
    /// The fold of `measure` over `m ≥ 1` variables.
    ///
    /// # Panics
    ///
    /// For the non-power-index measures, which have no `Γ/Δ` weighting.
    pub(crate) fn new(measure: Measure, m: usize) -> PowerFold {
        assert!(m >= 1, "a power index needs a variable");
        let shapley = match measure {
            Measure::Shapley => true,
            Measure::Banzhaf => false,
            Measure::Responsibility | Measure::ShapScore => {
                unreachable!("{measure} has no Γ/Δ weight vector")
            }
        };
        // Shapley's w_j for j < ⌈m/2⌉ (w_j = w_{m−1−j}) and m!.
        let (half, fact) = if shapley {
            let half = mirror_weights(m);
            let mut fact = half[0].clone();
            fact.mul_small(m as u64);
            (half, fact)
        } else {
            (Vec::new(), BigUint::zero())
        };
        // Every count is at most C(m − 1, j) < 2^(m−1), so a mirrored
        // pair's sum fits m bits: the bound the buffers are sized from.
        let cap_bits = m as u64;
        let sum_bits = if shapley {
            fact.bits() + cap_bits + 1
        } else {
            cap_bits + 1
        };
        if sum_bits <= 128 {
            let u128_of = |w: &BigUint| w.to_u128().expect("within the sum bound");
            if !shapley {
                return PowerFold::Narrow {
                    weights: vec![1; m],
                    denom: 1 << (m - 1),
                    twos: m as u32 - 1,
                    primes: Vec::new(),
                };
            }
            let mut twos = 0;
            let mut primes = Vec::new();
            for (p, exp) in factorial_primes(m) {
                if p == 2 {
                    twos = exp;
                    continue;
                }
                let p = p as u128;
                let mut inv = p;
                for _ in 0..6 {
                    inv = inv.wrapping_mul(2u128.wrapping_sub(p.wrapping_mul(inv)));
                }
                primes.push(NarrowPrime {
                    exp,
                    inv,
                    lim: u128::MAX / p,
                });
            }
            return PowerFold::Narrow {
                weights: (0..m).map(|j| u128_of(&half[j.min(m - 1 - j)])).collect(),
                denom: u128_of(&fact),
                twos,
                primes,
            };
        }
        let diff_len = limbs_for(cap_bits);
        let (mut weights, mut offsets) = (Vec::new(), Vec::new());
        if shapley {
            offsets.push(0);
            for w in &half {
                weights.extend_from_slice(w.limbs());
                offsets.push(weights.len());
            }
        }
        let widest = offsets.windows(2).map(|o| o[1] - o[0]).max();
        let sum_len = limbs_for(sum_bits).max(diff_len + widest.unwrap_or(1));
        let denom = if shapley {
            Denom::Factorial(FactorialDenom::new(m, sum_len))
        } else {
            Denom::Pow2((m - 1) as u64)
        };
        PowerFold::Wide(Box::new(WideFold {
            weights,
            offsets,
            plus: vec![0; diff_len],
            minus: vec![0; diff_len],
            diff: vec![0; diff_len],
            pos: vec![0; sum_len],
            neg: vec![0; sum_len],
            denom,
        }))
    }

    /// `Σ_j (Γ[j] − Δ[j]) · w_j / denom`, in canonical form. `Γ/Δ` arrive
    /// in whatever coefficient tier the DP ran on; only their limbs are
    /// read.
    pub(crate) fn value<C: Coeff>(&mut self, gamma: &[C], delta: &[C]) -> Rational {
        match self {
            PowerFold::Narrow {
                weights,
                denom,
                twos,
                primes,
            } => narrow_value(gamma, delta, weights, *denom, *twos, primes),
            PowerFold::Wide(w) => w.value(gamma, delta),
        }
    }
}

/// `ceil(bits / 64)`.
fn limbs_for(bits: u64) -> usize {
    bits.div_ceil(64) as usize
}

/// Shapley's `w_j = j!(m−1−j)!` for `j < ⌈m/2⌉`: from `w_0 = (m−1)!` by
/// `w_{j+1} = w_j·(j+1)/(m−1−j)`, one small multiplication and one exact
/// small division per weight instead of a product of two factorials.
fn mirror_weights(m: usize) -> Vec<BigUint> {
    let mut half = vec![factorial(m - 1)];
    for j in 0..m.div_ceil(2) - 1 {
        let mut w = half[j].clone();
        w.mul_small(j as u64 + 1);
        let rem = w.div_small((m - 1 - j) as u64);
        debug_assert_eq!(rem, 0, "j!(m−1−j)! steps exactly");
        half.push(w);
    }
    half
}

/// A value known to fit 128 bits, from its limbs (trailing zero limbs
/// allowed).
fn low_u128(limbs: &[u64]) -> u128 {
    match limbs {
        [] => 0,
        [lo] => u128::from(*lo),
        [lo, hi, rest @ ..] => {
            assert!(rest.iter().all(|&l| l == 0), "count past the u128 fold");
            u128::from(*lo) | u128::from(*hi) << 64
        }
    }
}

/// An odd prime `p` of a narrow fold's denominator: `x` is a multiple of
/// `p` iff `x·inv mod 2^128 ≤ lim`, and then that product is `x / p`.
pub(crate) struct NarrowPrime {
    /// `p`'s exponent in the denominator.
    exp: u32,
    /// `p^−1 mod 2^128`.
    inv: u128,
    /// `⌊(2^128 − 1) / p⌋`.
    lim: u128,
}

fn narrow_value<C: Coeff>(
    gamma: &[C],
    delta: &[C],
    weights: &[u128],
    denom: u128,
    twos: u32,
    primes: &[NarrowPrime],
) -> Rational {
    debug_assert_eq!(gamma.len(), weights.len());
    debug_assert_eq!(delta.len(), weights.len());
    // `|Γ[j] − Δ[j]| ≤ C(m−1, j) < 2^(m−1)`, and the signed sum's partial
    // sums stay under `Σ_j C(m−1, j)·w_j`, the bound the narrow fold was
    // chosen by: no term or partial sum leaves an `i128`.
    let mut sum = 0i128;
    for ((g, d), &w) in gamma.iter().zip(delta).zip(weights) {
        let diff = low_u128(g.limbs()) as i128 - low_u128(d.limbs()) as i128;
        sum += diff * w as i128;
    }
    let sign = if sum < 0 {
        Sign::Negative
    } else {
        Sign::Positive
    };
    let mag = sum.unsigned_abs();
    if mag == 0 {
        return Rational::zero();
    }
    // The gcd with the denominator, one prime factor at a time.
    let tz = mag.trailing_zeros().min(twos);
    let (mut num, mut den) = (mag >> tz, denom >> tz);
    for p in primes {
        for _ in 0..p.exp {
            let q = num.wrapping_mul(p.inv);
            if q > p.lim {
                break;
            }
            num = q;
            den = den.wrapping_mul(p.inv);
        }
    }
    Rational::from_reduced(
        BigInt::from_sign_mag(sign, BigUint::from_u128(num)),
        BigUint::from_u128(den),
    )
}

/// The limb-slice fold: weights and every scratch buffer sized once.
pub(crate) struct WideFold {
    /// Shapley: `w_j`'s limbs at `weights[offsets[j]..offsets[j + 1]]`.
    /// Banzhaf: both empty (every weight is 1).
    weights: Vec<u64>,
    offsets: Vec<usize>,
    /// `Γ[j] + Γ[m−1−j]`, `Δ[j] + Δ[m−1−j]` and their absolute
    /// difference: `m` bits each.
    plus: Vec<u64>,
    minus: Vec<u64>,
    diff: Vec<u64>,
    /// The positive and negative sums.
    pos: Vec<u64>,
    neg: Vec<u64>,
    denom: Denom,
}

impl WideFold {
    fn value<C: Coeff>(&mut self, gamma: &[C], delta: &[C]) -> Rational {
        debug_assert_eq!(gamma.len(), delta.len());
        self.pos.fill(0);
        self.neg.fill(0);
        let m = gamma.len();
        if self.offsets.is_empty() {
            for (g, d) in gamma.iter().zip(delta) {
                let (len, negative) = abs_diff(trim(g.limbs()), trim(d.limbs()), &mut self.diff);
                let sum = if negative {
                    &mut self.neg
                } else {
                    &mut self.pos
                };
                add_at(sum, &self.diff[..len], 0);
            }
        } else {
            // w_j = w_{m−1−j}: fold each mirrored pair's counts first, so
            // one product serves both terms.
            for j in 0..m.div_ceil(2) {
                let k = m - 1 - j;
                let (plus, minus) = if j == k {
                    (trim(gamma[j].limbs()), trim(delta[j].limbs()))
                } else {
                    let (g, d) = (trim(gamma[j].limbs()), trim(gamma[k].limbs()));
                    let plus = add_into(&mut self.plus, g, d);
                    let (g, d) = (trim(delta[j].limbs()), trim(delta[k].limbs()));
                    let minus = add_into(&mut self.minus, g, d);
                    (&self.plus[..plus], &self.minus[..minus])
                };
                let (len, negative) = abs_diff(plus, minus, &mut self.diff);
                if len == 0 {
                    continue;
                }
                let sum = if negative {
                    &mut self.neg
                } else {
                    &mut self.pos
                };
                let w = &self.weights[self.offsets[j]..self.offsets[j + 1]];
                mul_add(sum, &self.diff[..len], w);
            }
        }
        let (sign, mag) = match cmp_limbs(trim(&self.pos), trim(&self.neg)) {
            std::cmp::Ordering::Equal => return Rational::zero(),
            std::cmp::Ordering::Greater => {
                sub_in_place(&mut self.pos, &self.neg);
                (Sign::Positive, &mut self.pos)
            }
            std::cmp::Ordering::Less => {
                sub_in_place(&mut self.neg, &self.pos);
                (Sign::Negative, &mut self.neg)
            }
        };
        let (num, den) = self.denom.reduce(mag);
        Rational::from_reduced(BigInt::from_sign_mag(sign, num), den)
    }
}

/// The denominator of a wide fold and how a numerator is reduced by it.
enum Denom {
    /// `2^e`: the numerator's trailing zeros cancel.
    Pow2(u64),
    /// `m!`.
    Factorial(FactorialDenom),
}

impl Denom {
    /// Divides the non-zero numerator `mag` (a scratch buffer, overwritten)
    /// and the denominator by their gcd; returns both.
    fn reduce(&mut self, mag: &mut [u64]) -> (BigUint, BigUint) {
        match self {
            Denom::Pow2(e) => {
                let tz = trailing_zeros(mag).min(*e);
                shr_in_place(mag, tz);
                (
                    BigUint::from_limbs(trim(mag).to_vec()),
                    BigUint::one() << (*e - tz) as usize,
                )
            }
            Denom::Factorial(f) => f.reduce(mag),
        }
    }
}

/// An odd prime `p ≤ m` of `m!`'s factorization.
struct OddPrime {
    p: u64,
    /// `p`'s exponent in `m!`.
    exp: u32,
    /// `p^t`: the largest power of `p` below `2^32` with `t ≤ exp`.
    q: u64,
    t: u32,
    /// `2^64 mod q`.
    two64: u64,
    /// `⌊(2^64 − 1) / q⌋`, for Barrett reduction mod `q`.
    q_recip: u64,
    /// `p^−1 mod 2^64` and `⌊(2^64 − 1) / p⌋`: `x` is a multiple of `p`
    /// iff `x·p^−1 mod 2^64 ≤ ⌊(2^64 − 1) / p⌋`, and then that product is
    /// `x / p`.
    p_inv: u64,
    p_lim: u64,
}

/// `m!` with the per-solve tables its prime-by-prime gcd reads.
struct FactorialDenom {
    /// The exponent of 2 in `m!`.
    twos: u64,
    primes: Vec<OddPrime>,
    /// Row `k` at `powers[k * stride..]`: `2^(64i) mod q_k` for every limb
    /// `i` of a numerator.
    powers: Vec<u64>,
    stride: usize,
    /// The reduced denominator's odd part, built by multiplication.
    den: Vec<u64>,
}

impl FactorialDenom {
    /// The tables of `m!` for numerators of at most `num_len` limbs.
    fn new(m: usize, num_len: usize) -> FactorialDenom {
        let mut twos = 0;
        let mut primes = Vec::new();
        for (p, exp) in factorial_primes(m) {
            if p == 2 {
                twos = u64::from(exp);
                continue;
            }
            let p = p as u64;
            let (mut q, mut t) = (p, 1);
            while t < exp && q * p < 1 << 32 {
                q *= p;
                t += 1;
            }
            primes.push(OddPrime {
                p,
                exp,
                q,
                t,
                two64: ((1u128 << 64) % u128::from(q)) as u64,
                q_recip: u64::MAX / q,
                p_inv: inverse_mod_word(p),
                p_lim: u64::MAX / p,
            });
        }
        let stride = num_len;
        let mut powers = Vec::with_capacity(primes.len() * stride);
        for prime in &primes {
            let mut r = 1;
            for _ in 0..stride {
                powers.push(r);
                r = prime.reduce(r * prime.two64);
            }
        }
        FactorialDenom {
            twos,
            primes,
            powers,
            stride,
            den: vec![0; num_len],
        }
    }

    /// Divides the numerator `mag` and `m!` by their gcd
    /// `2^min(tz, e_2) · Π_p p^min(v_p, e_p)`: the numerator in place by
    /// exact division, the denominator built up as `Π_p p^(e_p − k_p)`.
    fn reduce(&mut self, mag: &mut [u64]) -> (BigUint, BigUint) {
        let tz = trailing_zeros(mag).min(self.twos);
        shr_in_place(mag, tz);
        let mut num_len = trim(mag).len();
        self.den[0] = 1;
        let mut den_len = 1;
        // Numerator and denominator divisors not yet applied, each < 2^64.
        let (mut num_pending, mut den_pending) = (1u64, 1u64);
        for (k, prime) in self.primes.iter().enumerate() {
            let row = &self.powers[k * self.stride..];
            // k_p = min(v_p, e_p), a residue mod q = p^t at a time.
            let mut v = 0;
            while v < prime.exp {
                let r = residue(&mag[..num_len], row, prime);
                let step = if r == 0 { prime.t } else { valuation(r, prime) }.min(prime.exp - v);
                v += step;
                if step == prime.t && v < prime.exp {
                    // p^t divides and m! holds more factors of p: divide
                    // now so the next residue sees the rest.
                    div_exact(&mut mag[..num_len], prime.q);
                    num_len = trim(&mag[..num_len]).len();
                    continue;
                }
                let power = prime.p.pow(step);
                num_pending = match num_pending.checked_mul(power) {
                    Some(d) => d,
                    None => {
                        div_exact(&mut mag[..num_len], num_pending);
                        num_len = trim(&mag[..num_len]).len();
                        power
                    }
                };
                break;
            }
            for _ in v..prime.exp {
                den_pending = match den_pending.checked_mul(prime.p) {
                    Some(d) => d,
                    None => {
                        mul_small(&mut self.den, &mut den_len, den_pending);
                        prime.p
                    }
                };
            }
        }
        div_exact(&mut mag[..num_len], num_pending);
        mul_small(&mut self.den, &mut den_len, den_pending);
        (
            BigUint::from_limbs(trim(mag).to_vec()),
            BigUint::from_limbs(self.den[..den_len].to_vec()) << (self.twos - tz) as usize,
        )
    }
}

/// The primes `p ≤ m` with their exponents in `m!`, ascending.
fn factorial_primes(m: usize) -> Vec<(usize, u32)> {
    let mut composite = vec![false; m + 1];
    let mut primes = Vec::new();
    for p in 2..=m {
        if composite[p] {
            continue;
        }
        for multiple in (p * p..=m).step_by(p) {
            composite[multiple] = true;
        }
        // Legendre: e_p = Σ_i ⌊m / p^i⌋.
        let (mut exp, mut power) = (0u32, p);
        loop {
            exp += (m / power) as u32;
            match power.checked_mul(p) {
                Some(next) if next <= m => power = next,
                _ => break,
            }
        }
        primes.push((p, exp));
    }
    primes
}

/// `limbs` without its trailing zero limbs.
fn trim(limbs: &[u64]) -> &[u64] {
    let len = limbs.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
    &limbs[..len]
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// Writes `|a − b|` into `out` and returns its trimmed length and whether
/// `a < b`.
fn abs_diff(a: &[u64], b: &[u64], out: &mut [u64]) -> (usize, bool) {
    let n = a.len().max(b.len());
    let out = &mut out[..n];
    let mut borrow = false;
    for (i, o) in out.iter_mut().enumerate() {
        let (x, y) = (
            a.get(i).copied().unwrap_or(0),
            b.get(i).copied().unwrap_or(0),
        );
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *o = d;
        borrow = b1 | b2;
    }
    if borrow {
        // Two's complement: b − a = −(a − b) mod 2^(64n).
        let mut carry = true;
        for o in out.iter_mut() {
            let (v, c) = (!*o).overflowing_add(u64::from(carry));
            *o = v;
            carry = c;
        }
    }
    (trim(out).len(), borrow)
}

/// `out = a + b`; returns the sum's length.
fn add_into(out: &mut [u64], a: &[u64], b: &[u64]) -> usize {
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut carry = false;
    for (i, o) in out[..a.len()].iter_mut().enumerate() {
        let (s, c1) = a[i].overflowing_add(b.get(i).copied().unwrap_or(0));
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *o = s;
        carry = c1 | c2;
    }
    if carry {
        out[a.len()] = 1;
        a.len() + 1
    } else {
        a.len()
    }
}

/// `sum[at..] += x`. Panics on a carry out of `sum` (a bound bug).
fn add_at(sum: &mut [u64], x: &[u64], at: usize) {
    let mut carry = false;
    let mut k = at;
    for &l in x {
        let (s, c1) = sum[k].overflowing_add(l);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        sum[k] = s;
        carry = c1 | c2;
        k += 1;
    }
    while carry {
        let slot = sum
            .get_mut(k)
            .expect("Equation (3) sum within its limb bound");
        let (s, c) = slot.overflowing_add(1);
        *slot = s;
        carry = c;
        k += 1;
    }
}

/// `sum += x · w`, schoolbook. Panics on a carry out of `sum`.
fn mul_add(sum: &mut [u64], x: &[u64], w: &[u64]) {
    for (i, &xi) in x.iter().enumerate() {
        let row = &mut sum[i..];
        let mut carry = 0u64;
        for (slot, &wk) in row.iter_mut().zip(w) {
            let t = u128::from(*slot) + u128::from(xi) * u128::from(wk) + u128::from(carry);
            *slot = t as u64;
            carry = (t >> 64) as u64;
        }
        add_at(row, &[carry], w.len());
    }
}

/// `a -= b`, requiring `a ≥ b`.
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (i, x) in a.iter_mut().enumerate() {
        let y = b.get(i).copied().unwrap_or(0);
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
    debug_assert!(!borrow, "sub_in_place underflow");
}

fn trailing_zeros(limbs: &[u64]) -> u64 {
    let mut tz = 0;
    for &l in limbs {
        if l != 0 {
            return tz + u64::from(l.trailing_zeros());
        }
        tz += 64;
    }
    tz
}

/// `x >>= bits`, keeping the length (the top fills with zeros).
fn shr_in_place(x: &mut [u64], bits: u64) {
    let (limbs, bits) = ((bits / 64) as usize, (bits % 64) as u32);
    if limbs > 0 {
        x.copy_within(limbs.min(x.len()).., 0);
        let n = x.len();
        x[n.saturating_sub(limbs)..].fill(0);
    }
    if bits > 0 {
        for i in 0..x.len() {
            let hi = x.get(i + 1).copied().unwrap_or(0);
            x[i] = x[i] >> bits | hi << (64 - bits);
        }
    }
}

/// `x mod q` from the row `2^(64i) mod q`: one multiply-add per limb into
/// a `u128` (each term is below `2^96`), then three Barrett reductions.
fn residue(x: &[u64], row: &[u64], prime: &OddPrime) -> u64 {
    let s: u128 = x
        .iter()
        .zip(row)
        .map(|(&l, &r)| u128::from(l) * u128::from(r))
        .sum();
    let (hi, lo) = (prime.reduce((s >> 64) as u64), prime.reduce(s as u64));
    // hi·two64 < q² and lo < q, so the sum stays below 2^64 for q < 2^32.
    prime.reduce(hi * prime.two64 + lo)
}

impl OddPrime {
    /// `x mod q`: the Barrett estimate `⌊x·q_recip / 2^64⌋` is at most two
    /// below `⌊x / q⌋`.
    fn reduce(&self, x: u64) -> u64 {
        let estimate = ((u128::from(x) * u128::from(self.q_recip)) >> 64) as u64;
        let mut r = x - estimate * self.q;
        while r >= self.q {
            r -= self.q;
        }
        r
    }
}

/// The exponent of `p` in `r ≠ 0`.
fn valuation(mut r: u64, prime: &OddPrime) -> u32 {
    debug_assert!(r != 0);
    let mut v = 0;
    loop {
        let quotient = r.wrapping_mul(prime.p_inv);
        if quotient > prime.p_lim {
            return v;
        }
        r = quotient;
        v += 1;
    }
}

/// `d^−1 mod 2^64` for an odd `d`: Newton's iteration doubles the correct
/// low bits, 3 → 6 → … → 96.
fn inverse_mod_word(d: u64) -> u64 {
    debug_assert!(d % 2 == 1);
    let mut inv = d;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(d.wrapping_mul(inv)));
    }
    inv
}

/// `x /= d` for an odd `d` that divides `x`: Hensel division by `d`'s
/// inverse mod `2^64`, low limb first, multiplications only.
fn div_exact(x: &mut [u64], d: u64) {
    if d == 1 {
        return;
    }
    let inv = inverse_mod_word(d);
    let mut borrow = 0u64;
    for l in x.iter_mut() {
        let (s, b) = l.overflowing_sub(borrow);
        let q = s.wrapping_mul(inv);
        *l = q;
        borrow = ((u128::from(q) * u128::from(d)) >> 64) as u64 + u64::from(b);
    }
    assert_eq!(borrow, 0, "gcd factor must divide exactly");
}

/// `x[..len] *= d`, growing `len`.
fn mul_small(x: &mut [u64], len: &mut usize, d: u64) {
    let mut carry = 0u64;
    for l in &mut x[..*len] {
        let t = u128::from(*l) * u128::from(d) + u128::from(carry);
        *l = t as u64;
        carry = (t >> 64) as u64;
    }
    if carry != 0 {
        x[*len] = carry;
        *len += 1;
    }
}

/// The `BigUint` fold the kernel replaced: `m` heap products and a generic
/// gcd per fact. Test oracle only.
#[cfg(test)]
pub(crate) mod oracle {
    use super::completion_weights;
    use crate::measure::Measure;
    use shapdb_num::{combinatorics::FactorialTable, BigInt, BigUint, Coeff, Rational};

    /// The measure's `(weights, denominator)` pair over `m` variables.
    pub(crate) fn power_weights(measure: Measure, m: usize) -> (Vec<BigUint>, BigUint) {
        let mut facts = FactorialTable::new();
        match measure {
            Measure::Shapley => (completion_weights(m, &mut facts), facts.get(m).clone()),
            Measure::Banzhaf => (
                vec![BigUint::one(); m],
                BigUint::one() << m.saturating_sub(1),
            ),
            Measure::Responsibility | Measure::ShapScore => {
                unreachable!("{measure} has no Γ/Δ weight vector")
            }
        }
    }

    /// `Σ_j (Γ[j] − Δ[j]) · w_j / denom` in `BigUint`s.
    pub(crate) fn weighted_difference<C: Coeff>(
        gamma: &[C],
        delta: &[C],
        weights: &[BigUint],
        denom: &BigUint,
    ) -> Rational {
        assert_eq!(gamma.len(), delta.len());
        assert_eq!(gamma.len(), weights.len());
        let mut pos = BigUint::zero();
        let mut neg = BigUint::zero();
        for j in 0..gamma.len() {
            let (g, d) = (
                gamma[j].clone().into_biguint(),
                delta[j].clone().into_biguint(),
            );
            if g >= d {
                pos += &(&g.checked_sub(&d).expect("g ≥ d") * &weights[j]);
            } else {
                neg += &(&d.checked_sub(&g).expect("d > g") * &weights[j]);
            }
        }
        let numer = BigInt::from_biguint(pos) - BigInt::from_biguint(neg);
        Rational::new(numer, denom.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{power_weights, weighted_difference};
    use super::*;
    use shapdb_num::{alpha_cap_bits, combinatorics::BinomialTable, factorial, Vli};

    /// A deterministic stream of `u64`s (LCG).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 ^ self.0 >> 29
        }

        /// A value in `[0, bound]`.
        fn below(&mut self, bound: &BigUint) -> BigUint {
            let limbs = (0..=bound.limbs().len()).map(|_| self.next()).collect();
            BigUint::from_limbs(limbs)
                .div_rem(&(bound + &BigUint::one()))
                .1
        }
    }

    /// `Γ/Δ` profiles a DP over `m` variables can produce: every entry in
    /// `[0, C(m−1, j)]`, including the all-maximal, all-zero and equal
    /// arrays and random ones.
    fn profiles(m: usize, rng: &mut Lcg) -> Vec<(Vec<BigUint>, Vec<BigUint>)> {
        let row = BinomialTable::new().row(m - 1).to_vec();
        let zero = vec![BigUint::zero(); m];
        let mut random = || row.iter().map(|b| rng.below(b)).collect::<Vec<_>>();
        let (r1, r2, r3, r4) = (random(), random(), random(), random());
        vec![
            (row.clone(), zero.clone()),
            (zero.clone(), row.clone()),
            (r1.clone(), r1),
            (r2, r3),
            (r4, row),
            (zero.clone(), zero),
        ]
    }

    /// The kernel against the `BigUint` fold on every profile, for both
    /// power indices, with the counts on the `BigUint` tier and (where
    /// they fit) on the widest fixed tier, whose limbs carry trailing zeros.
    fn assert_fold_matches_oracle(m: usize) {
        let mut rng = Lcg(m as u64);
        for measure in [Measure::Shapley, Measure::Banzhaf] {
            let (weights, denom) = power_weights(measure, m);
            let mut fold = PowerFold::new(measure, m);
            for (gamma, delta) in profiles(m, &mut rng) {
                let expect = weighted_difference(&gamma, &delta, &weights, &denom);
                assert_eq!(fold.value(&gamma, &delta), expect, "{measure} m={m}");
                if alpha_cap_bits(m) <= 512 {
                    let wide = |v: &[BigUint]| -> Vec<Vli<8>> {
                        v.iter().map(Vli::<8>::from_biguint).collect()
                    };
                    let got = fold.value(&wide(&gamma), &wide(&delta));
                    assert_eq!(got, expect, "{measure} m={m} on Vli<8>");
                }
            }
        }
    }

    #[test]
    fn narrow_fold_ends_where_the_sum_outgrows_a_u128() {
        assert!(matches!(
            PowerFold::new(Measure::Shapley, 28),
            PowerFold::Narrow { .. }
        ));
        assert!(matches!(
            PowerFold::new(Measure::Shapley, 29),
            PowerFold::Wide(_)
        ));
        assert!(matches!(
            PowerFold::new(Measure::Banzhaf, 127),
            PowerFold::Narrow { .. }
        ));
        assert!(matches!(
            PowerFold::new(Measure::Banzhaf, 128),
            PowerFold::Wide(_)
        ));
    }

    #[test]
    fn fold_matches_the_biguint_oracle_at_every_width_to_261() {
        // Every width up to the Vli<4>/Vli<8> boundary crosses each
        // accumulator limb boundary (the first at m = 28/29) and the
        // coefficient tiers' (67/68, 131/132, 260/261).
        for m in 1..=261 {
            assert_fold_matches_oracle(m);
        }
    }

    #[test]
    #[ignore = "wide BigUint oracle; run by `make test-release-wide`"]
    fn fold_matches_the_biguint_oracle_past_the_fixed_tiers() {
        for m in (262..=600).step_by(7).chain([515, 516, 517, 518, 1024]) {
            assert_fold_matches_oracle(m);
        }
    }

    #[test]
    fn example_2_1_folds_to_43_over_105() {
        // Example 2.1's a1 over its 7 lineage facts: Γ = C(6, ·) (a1 → 1
        // satisfies the lineage) and Δ counts the other six facts' subsets
        // that satisfy it without a1.
        let lineage: &[&[usize]] = &[&[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]];
        let mut delta = vec![0u64; 7];
        for set in 0u32..1 << 6 {
            let on = |v: usize| set >> (v - 1) & 1 == 1;
            if lineage.iter().any(|c| c.iter().all(|&v| on(v))) {
                delta[set.count_ones() as usize] += 1;
            }
        }
        let gamma: Vec<Vli<1>> = BinomialTable::new()
            .row(6)
            .iter()
            .map(Vli::from_biguint)
            .collect();
        let delta: Vec<Vli<1>> = delta.into_iter().map(Vli::from_u64).collect();
        let mut fold = PowerFold::new(Measure::Shapley, 7);
        assert_eq!(fold.value(&gamma, &delta), Rational::from_ratio(43, 105));
    }

    #[test]
    fn factorial_reduction_matches_the_generic_gcd() {
        // Numerators rich in the primes of m!, up to and past their
        // exponents there (3^e_3 exceeds 2^32 from m = 45), times a prime
        // m! lacks.
        for m in [29usize, 45, 60, 137, 300] {
            let fact = factorial(m);
            let len = fact.limbs().len() + 2;
            let mut denom = FactorialDenom::new(m, len);
            let e3 = (1..)
                .map(|i| m / 3usize.pow(i))
                .take_while(|&q| q > 0)
                .sum::<usize>();
            for (p, e) in [(3u64, e3), (3, e3 + 2), (5, 2), (7, 1), (2, 70)] {
                for cofactor in [1u64, 1_000_000_007] {
                    let mut num = BigUint::from_u64(cofactor);
                    for _ in 0..e {
                        num.mul_small(p);
                    }
                    num.mul_small(m as u64 - 1);
                    let mut mag = num.limbs().to_vec();
                    mag.resize(len, 0);
                    let (n, d) = denom.reduce(&mut mag);
                    let expect = Rational::new(BigInt::from_biguint(num), fact.clone());
                    assert_eq!(
                        Rational::from_reduced(BigInt::from_biguint(n), d),
                        expect,
                        "m={m} p={p}^{e}·{cofactor}"
                    );
                }
            }
        }
    }
}
