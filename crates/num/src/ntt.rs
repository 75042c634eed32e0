//! Exact O(n log n) convolution via number-theoretic transforms and
//! Chinese-remainder reconstruction.
//!
//! Algorithm 1 convolves the α coefficient vectors of ∧-gate children
//! (`out[i+j] += a[i]·c[j]`), which is O(n²) bignum multiplications — the
//! dominant cost for wide gates. This module replaces it, past a cost-model
//! crossover, with convolution modulo several NTT-friendly word-sized
//! primes followed by exact CRT reconstruction: O(k·n log n) u64
//! multiplications where `k` is the prime count needed to cover the result
//! magnitude. The output is **bit-identical** to schoolbook convolution —
//! this is an exact algorithm, not an approximation.
//!
//! # The primes
//!
//! Transform-friendly primes are generated at runtime (the offline
//! dependency set has no prime tables): we scan `p = a·2^18 + 1` downward
//! from 2^62, keep those passing deterministic Miller–Rabin, and find an
//! element of order exactly 2^18 as `w = g^((p−1)/2^18)` for a small `g`,
//! accepted when `w^(2^17) ≠ 1`. Each prime therefore supports transforms
//! up to length 2^18 (convolutions of ~131k-coefficient inputs — far past
//! the 4096-variable gates this targets) and contributes > 61 bits to the
//! CRT modulus. All per-prime arithmetic is Montgomery form (`MontPrime`).
//!
//! # Why the CRT reconstruction is exact
//!
//! Let the true convolution coefficient be `c` with inputs bounded by
//! `2^ba` and `2^bb` and overlap length `t = min(la, lb)`. Then
//! `c ≤ t·(2^ba−1)(2^bb−1) < 2^(ba+bb+⌈log₂ t⌉)`. We use
//! `k = ⌊needed/61⌋ + 1` primes, each `> 2^61`, so the combined modulus
//! `M = Πpᵢ > 2^(61k) ≥ 2^(needed+1) > c` — the residues `c mod pᵢ`
//! determine `c` uniquely below `M`. Reconstruction uses the standard
//! basis: with `Mᵢ = M/pᵢ` and `yᵢ = (Mᵢ mod pᵢ)⁻¹ mod pᵢ`,
//!
//! ```text
//! c ≡ Σᵢ (rᵢ·yᵢ mod pᵢ) · Mᵢ   (mod M)
//! ```
//!
//! because the i-th term is ≡ rᵢ (mod pᵢ) and ≡ 0 (mod pⱼ, j≠i). Every
//! term is `< pᵢ·Mᵢ = M`, so the sum is `< k·M`; one division by `M`
//! (whose quotient fits a single limb) recovers the exact `c < M`.
//!
//! # Crossover
//!
//! [`convolve_if_faster`] runs a cost model comparing schoolbook work
//! (`la·lb·wa·wb` limb multiplications) against NTT work (`k` transforms
//! plus residue reduction plus CRT), the NTT units weighted by the fixed
//! cost of a Montgomery multiply relative to a limb multiply-accumulate,
//! [`NTT_COST_PERMILLE`]. The ratio is a constant, not a timing taken at
//! run time, so the route of every convolution — and the
//! `num.ntt_convolutions` count, which each convolution routed here
//! increments — is the same in every run on every machine.

use crate::biguint::BigUint;
use crate::vli::Coeff;
use shapdb_metrics::counters::NUM_NTT_CONVOLUTIONS;
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

/// Transforms support lengths up to 2^18 (primes are ≡ 1 mod 2^18).
const MAX_LOG: u32 = 18;

/// Below this convolution *output* length the NTT path is never
/// considered — fixed setup costs dominate and the cost model's scan can
/// be skipped entirely. Callers may precheck against this before paying
/// for the operand scan.
pub const MIN_NTT_LEN: usize = 32;

// ---------------------------------------------------------------------------
// Montgomery arithmetic mod one word-sized prime
// ---------------------------------------------------------------------------

/// An odd prime `p < 2^62` with precomputed Montgomery constants
/// (`R = 2^64`): values travel as `x·R mod p`, multiplication is one
/// widening multiply plus a REDC, and all results stay `< p`.
#[derive(Clone, Copy, Debug)]
struct MontPrime {
    p: u64,
    /// `-p⁻¹ mod 2^64`.
    neg_inv: u64,
    /// `R² mod p`, the to-Montgomery factor.
    r2: u64,
    /// `R mod p` — the value 1 in Montgomery form.
    one: u64,
}

impl MontPrime {
    fn new(p: u64) -> MontPrime {
        debug_assert!(p % 2 == 1 && p < 1 << 62);
        // Newton iteration doubles correct low bits each step: p is its own
        // inverse mod 8, five steps reach 2^64.
        let mut inv: u64 = p;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
        }
        debug_assert_eq!(p.wrapping_mul(inv), 1);
        let r = ((1u128 << 64) % p as u128) as u64;
        let r2 = ((r as u128 * r as u128) % p as u128) as u64;
        MontPrime {
            p,
            neg_inv: inv.wrapping_neg(),
            r2,
            one: r,
        }
    }

    /// REDC: `t·R⁻¹ mod p` for `t < p·R`.
    #[inline(always)]
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.neg_inv);
        let s = ((t + m as u128 * self.p as u128) >> 64) as u64;
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    /// Product of two Montgomery-form values.
    #[inline(always)]
    fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// Converts a plain value (any u64) to Montgomery form.
    #[inline]
    fn encode(&self, x: u64) -> u64 {
        self.mul(x % self.p, self.r2)
    }

    /// Converts a Montgomery-form value back to plain.
    #[inline]
    fn decode(&self, x: u64) -> u64 {
        self.redc(x as u128)
    }

    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        let s = a + b; // < 2p < 2^63: no overflow
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    #[inline(always)]
    fn sub(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// `base^e` with `base` in Montgomery form; result in Montgomery form.
    fn pow(&self, mut base: u64, mut e: u64) -> u64 {
        let mut acc = self.one;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat (`a^(p−2)`), Montgomery form.
    fn inv(&self, a: u64) -> u64 {
        self.pow(a, self.p - 2)
    }
}

// ---------------------------------------------------------------------------
// Primality and prime generation
// ---------------------------------------------------------------------------

#[inline]
fn mulmod(a: u64, b: u64, p: u64) -> u64 {
    (a as u128 * b as u128 % p as u128) as u64
}

fn powmod(mut base: u64, mut e: u64, p: u64) -> u64 {
    base %= p;
    let mut acc = 1 % p;
    while e > 0 {
        if e & 1 == 1 {
            acc = mulmod(acc, base, p);
        }
        base = mulmod(base, base, p);
        e >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for u64 (the first twelve prime bases decide
/// primality for all n < 2^64).
fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &sp in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == sp {
            return true;
        }
        if n.is_multiple_of(sp) {
            return false;
        }
    }
    let d = (n - 1) >> (n - 1).trailing_zeros();
    let s = (n - 1).trailing_zeros();
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mulmod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// A generated transform prime: the Montgomery context plus a root of
/// order exactly 2^[`MAX_LOG`] (and its inverse), both in Montgomery form.
#[derive(Clone, Copy, Debug)]
struct NttPrime {
    mp: MontPrime,
    root: u64,
    root_inv: u64,
}

fn make_ntt_prime(p: u64) -> Option<NttPrime> {
    // w = g^((p−1)/2^18) has order dividing 2^18; it is exactly 2^18 iff
    // w^(2^17) ≠ 1, i.e. iff g is a quadratic non-residue.
    for g in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        let w = powmod(g, (p - 1) >> MAX_LOG, p);
        if powmod(w, 1 << (MAX_LOG - 1), p) != 1 {
            let mp = MontPrime::new(p);
            let root = mp.encode(w);
            return Some(NttPrime {
                mp,
                root,
                root_inv: mp.inv(root),
            });
        }
    }
    None
}

struct PrimeCache {
    primes: Vec<NttPrime>,
    /// Next candidate multiplier: `p = a·2^18 + 1`, scanned downward.
    next_a: u64,
}

impl PrimeCache {
    fn ensure(&mut self, k: usize) {
        while self.primes.len() < k {
            let a = self.next_a;
            self.next_a -= 1;
            let p = (a << MAX_LOG) | 1;
            // Every prime must contribute > 61 bits to the CRT modulus.
            // Exhausting [2^61, 2^62) would take ~2^37 primes — unreachable.
            assert!(p > 1 << 61, "transform prime pool exhausted");
            if is_prime_u64(p) {
                if let Some(np) = make_ntt_prime(p) {
                    self.primes.push(np);
                }
            }
        }
    }
}

static PRIME_CACHE: OnceLock<Mutex<PrimeCache>> = OnceLock::new();

/// The first `k` transform primes (generated and cached on demand; cloned
/// out so concurrent convolutions never hold the cache lock).
fn take_primes(k: usize) -> Vec<NttPrime> {
    let cache = PRIME_CACHE.get_or_init(|| {
        Mutex::new(PrimeCache {
            primes: Vec::new(),
            next_a: ((1u64 << 62) - 1) >> MAX_LOG,
        })
    });
    let mut guard = match cache.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.ensure(k);
    guard.primes[..k].to_vec()
}

// ---------------------------------------------------------------------------
// The transform
// ---------------------------------------------------------------------------

/// In-place iterative radix-2 Cooley–Tukey over Montgomery-form values.
/// `root_n` must have order exactly `a.len()` (a power of two).
fn ntt(mp: &MontPrime, a: &mut [u64], root_n: u64) {
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let wlen = mp.pow(root_n, (n / len) as u64);
        let half = len / 2;
        let mut start = 0;
        while start < n {
            let mut w = mp.one;
            for off in 0..half {
                let u = a[start + off];
                let v = mp.mul(a[start + off + half], w);
                a[start + off] = mp.add(u, v);
                a[start + off + half] = mp.sub(u, v);
                w = mp.mul(w, wlen);
            }
            start += len;
        }
        len <<= 1;
    }
}

/// Reduces a little-endian limb string mod `p` (Horner over base 2^64;
/// the `·2^64 mod p` step is one Montgomery multiply by `R²`).
#[inline]
fn reduce_limbs(mp: &MontPrime, limbs: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &l in limbs.iter().rev() {
        acc = mp.mul(acc, mp.r2); // acc · 2^64 mod p
        acc = mp.add(acc, l % mp.p);
    }
    acc
}

/// Convolution of `a` and `b` modulo one prime; returns plain-form
/// residues of the first `out_len` coefficients.
fn conv_mod<C: Coeff>(np: &NttPrime, a: &[C], b: &[C], n: usize, out_len: usize) -> Vec<u64> {
    conv_many_mod(np, &[a, b], n, out_len)
}

/// Multi-operand convolution modulo one prime: each operand's residues are
/// encoded and forward-transformed **once** (at the final length `n`), the
/// pointwise products accumulate across operands, and a single inverse
/// transform recovers the residues — the per-gate residue reuse a fold of
/// pairwise [`conv_mod`]s cannot get (the fold re-transforms its growing
/// accumulator at every step).
fn conv_many_mod<C: Coeff>(np: &NttPrime, ops: &[&[C]], n: usize, out_len: usize) -> Vec<u64> {
    let mp = &np.mp;
    let s = n.trailing_zeros();
    let root_n = mp.pow(np.root, 1u64 << (MAX_LOG - s));
    let root_n_inv = mp.pow(np.root_inv, 1u64 << (MAX_LOG - s));
    let mut acc = vec![0u64; n];
    let mut buf = vec![0u64; n];
    for (which, op) in ops.iter().enumerate() {
        let cur = if which == 0 { &mut acc } else { &mut buf };
        cur.fill(0);
        for (slot, c) in cur.iter_mut().zip(*op) {
            *slot = mp.encode(reduce_limbs(mp, c.limbs()));
        }
        ntt(mp, cur, root_n);
        if which > 0 {
            for (x, &y) in acc.iter_mut().zip(buf.iter()) {
                *x = mp.mul(*x, y);
            }
        }
    }
    ntt(mp, &mut acc, root_n_inv);
    let n_inv = mp.inv(mp.encode(n as u64));
    acc.truncate(out_len);
    for x in acc.iter_mut() {
        *x = mp.decode(mp.mul(*x, n_inv));
    }
    acc
}

// ---------------------------------------------------------------------------
// CRT reconstruction
// ---------------------------------------------------------------------------

/// `acc += m · t` over little-endian limbs (`acc` long enough by the
/// `< k·M` bound on the reconstruction sum).
fn add_mul_limbs(acc: &mut [u64], m: &[u64], t: u64) {
    if t == 0 {
        return;
    }
    let mut carry: u128 = 0;
    let mut i = 0;
    for &ml in m {
        let cur = acc[i] as u128 + ml as u128 * t as u128 + carry;
        acc[i] = cur as u64;
        carry = cur >> 64;
        i += 1;
    }
    while carry != 0 {
        let cur = acc[i] as u128 + carry;
        acc[i] = cur as u64;
        carry = cur >> 64;
        i += 1;
    }
}

/// Combines per-prime residue vectors into exact coefficients (see the
/// module docs for the argument).
fn crt_combine<C: Coeff>(primes: &[NttPrime], residues: &[Vec<u64>], out_len: usize) -> Vec<C> {
    if primes.len() == 1 {
        return residues[0]
            .iter()
            .map(|&r| C::from_le_limbs(&[r]))
            .collect();
    }
    let mut m = BigUint::one();
    for np in primes {
        m.mul_small(np.mp.p);
    }
    struct Part {
        /// `Mᵢ = M / pᵢ`, little-endian limbs.
        limbs: Vec<u64>,
        /// `yᵢ = (Mᵢ mod pᵢ)⁻¹ mod pᵢ`, plain form.
        y: u64,
        p: u64,
    }
    let parts: Vec<Part> = primes
        .iter()
        .map(|np| {
            let mut mi = m.clone();
            let rem = mi.div_small(np.mp.p);
            debug_assert_eq!(rem, 0);
            let mi_mod = reduce_limbs(&np.mp, mi.limbs());
            let y = np.mp.decode(np.mp.inv(np.mp.encode(mi_mod)));
            Part {
                limbs: mi.limbs().to_vec(),
                y,
                p: np.mp.p,
            }
        })
        .collect();
    let acc_len = m.limbs().len() + 2;
    let mut acc = vec![0u64; acc_len];
    let mut out = Vec::with_capacity(out_len);
    for j in 0..out_len {
        acc.fill(0);
        for (part, res) in parts.iter().zip(residues) {
            let t = mulmod(res[j], part.y, part.p);
            add_mul_limbs(&mut acc, &part.limbs, t);
        }
        let (_, rem) = BigUint::from_limbs(acc.clone()).div_rem(&m);
        out.push(C::from_biguint(&rem));
    }
    out
}

// ---------------------------------------------------------------------------
// Entry points and cost model
// ---------------------------------------------------------------------------

fn max_bits<C: Coeff>(v: &[C]) -> u64 {
    v.iter().map(|c| c.bits()).max().unwrap_or(0)
}

#[inline]
fn ceil_log2(t: u64) -> u64 {
    t.next_power_of_two().trailing_zeros() as u64
}

/// The exact NTT/CRT convolution, unconditionally. Public for tests and
/// benches; production code routes through [`convolve_if_faster`].
#[doc(hidden)]
pub fn convolve_ntt<C: Coeff>(a: &[C], b: &[C]) -> Vec<C> {
    assert!(!a.is_empty() && !b.is_empty());
    let out_len = a.len() + b.len() - 1;
    let n = out_len.next_power_of_two();
    assert!(n <= 1 << MAX_LOG, "convolution exceeds transform capacity");
    let (ba, bb) = (max_bits(a), max_bits(b));
    if ba == 0 || bb == 0 {
        return vec![C::zero(); out_len];
    }
    let needed = ba + bb + ceil_log2(a.len().min(b.len()) as u64);
    let k = (needed / 61 + 1) as usize;
    let primes = take_primes(k);
    let residues: Vec<Vec<u64>> = primes
        .iter()
        .map(|np| conv_mod(np, a, b, n, out_len))
        .collect();
    crt_combine(&primes, &residues, out_len)
}

/// The accumulated magnitude/length bound of folding `ops` pairwise:
/// `(total bits needed, output length)`. The pairwise bound
/// `b += bᵢ + ⌈log₂ min(cur, lᵢ)⌉` composes — each fold step's coefficients
/// are bounded by it, so the final coefficients are too.
fn many_bound<C: Coeff>(ops: &[&[C]]) -> (u64, usize) {
    let mut bits = max_bits(ops[0]);
    let mut cur_len = ops[0].len();
    for op in &ops[1..] {
        bits += max_bits(op) + ceil_log2(cur_len.min(op.len()) as u64);
        cur_len += op.len() - 1;
    }
    (bits, cur_len)
}

/// The exact multi-operand NTT/CRT convolution `ops[0] ⊛ ops[1] ⊛ …`,
/// unconditionally. One forward transform per operand per prime (instead of
/// re-transforming a growing accumulator per pairwise step), one inverse
/// transform, one CRT pass. Bit-identical to the schoolbook fold. Public
/// for tests and benches; production code routes through
/// [`convolve_many_if_faster`].
#[doc(hidden)]
pub fn convolve_many_ntt<C: Coeff>(ops: &[&[C]]) -> Vec<C> {
    assert!(ops.len() >= 2 && ops.iter().all(|op| !op.is_empty()));
    let (needed, out_len) = many_bound(ops);
    let n = out_len.next_power_of_two();
    assert!(n <= 1 << MAX_LOG, "convolution exceeds transform capacity");
    if ops.iter().any(|op| max_bits(op) == 0) {
        return vec![C::zero(); out_len];
    }
    let k = (needed / 61 + 1) as usize;
    let primes = take_primes(k);
    let residues: Vec<Vec<u64>> = primes
        .iter()
        .map(|np| conv_many_mod(np, ops, n, out_len))
        .collect();
    crt_combine(&primes, &residues, out_len)
}

/// Schoolbook vs NTT work estimates, in comparable limb-multiply units
/// (before the [`NTT_COST_PERMILLE`] weighting).
fn model_units(la: usize, lb: usize, ba: u64, bb: u64) -> (u128, u128) {
    let wa = ba.div_ceil(64).max(1) as u128;
    let wb = bb.div_ceil(64).max(1) as u128;
    let sb = la as u128 * lb as u128 * wa * wb;
    let out_len = (la + lb - 1) as u128;
    let n = (la + lb - 1).next_power_of_two() as u128;
    let logn = (la + lb - 1).next_power_of_two().trailing_zeros() as u128;
    let needed = ba + bb + ceil_log2(la.min(lb) as u64);
    let k = (needed / 61 + 1) as u128;
    let ntt = k * (3 * n * logn + n + la as u128 * wa + lb as u128 * wb) + out_len * k * (k + 4);
    (sb, ntt)
}

/// The cost of one Montgomery multiply mod a 62-bit prime relative to one
/// 64×64→128-bit limb multiply-accumulate, in permille: the weight of the
/// cost model's NTT units. Measured once on an x86-64 2-vCPU VM (release
/// build) by timing 2^15 dependent Montgomery multiplies against 2^15
/// dependent limb multiply-accumulates: the median of 41 such ratios was
/// 2,031, 2,082 and 2,077 in three runs. At this weight a convolution of
/// two 8-limb arrays goes to the NTT from 128 output coefficients.
const NTT_COST_PERMILLE: u128 = 2_050;

/// Test/bench routing override for the NTT path.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NttPolicy {
    /// Cost-model decision (production default).
    Auto,
    /// Always take the NTT path when the transform supports the size.
    Force,
}

thread_local! {
    static POLICY: Cell<NttPolicy> = const { Cell::new(NttPolicy::Auto) };
}

/// Overrides the routing decision on the calling thread (tests/benches
/// only; every policy produces bit-identical results, only the route
/// changes).
#[doc(hidden)]
pub fn set_ntt_policy(p: NttPolicy) {
    POLICY.with(|policy| policy.set(p));
}

fn policy() -> NttPolicy {
    POLICY.with(Cell::get)
}

/// Convolves `a` and `b` via NTT/CRT iff the cost model says it
/// beats schoolbook (or the transform can't represent the size / the
/// inputs are degenerate → `None`, meaning: caller should use its own
/// schoolbook loop). Increments `num.ntt_convolutions` when it fires.
pub fn convolve_if_faster<C: Coeff>(a: &[C], b: &[C]) -> Option<Vec<C>> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let out_len = a.len() + b.len() - 1;
    if out_len.next_power_of_two() > 1 << MAX_LOG {
        return None;
    }
    match policy() {
        NttPolicy::Force => {
            NUM_NTT_CONVOLUTIONS.incr();
            return Some(convolve_ntt(a, b));
        }
        NttPolicy::Auto => {}
    }
    if out_len < MIN_NTT_LEN {
        return None;
    }
    let (ba, bb) = (max_bits(a), max_bits(b));
    if ba == 0 || bb == 0 {
        return None;
    }
    let (sb, ntt) = model_units(a.len(), b.len(), ba, bb);
    if ntt * NTT_COST_PERMILLE >= sb * 1000 {
        return None;
    }
    NUM_NTT_CONVOLUTIONS.incr();
    Some(convolve_ntt(a, b))
}

/// Work estimates for the multi-operand convolution: iterated schoolbook
/// (the fold the ∧-gate evaluator would otherwise run) vs one shared
/// multi-operand NTT, in the same units as [`model_units`].
fn model_units_many<C: Coeff>(ops: &[&[C]]) -> (u128, u128) {
    let mut sb: u128 = 0;
    let mut cur_len = ops[0].len();
    let mut cur_bits = max_bits(ops[0]);
    for op in &ops[1..] {
        let (lb, bb) = (op.len(), max_bits(op));
        let wa = cur_bits.div_ceil(64).max(1) as u128;
        let wb = bb.div_ceil(64).max(1) as u128;
        sb += cur_len as u128 * lb as u128 * wa * wb;
        cur_bits += bb + ceil_log2(cur_len.min(lb) as u64);
        cur_len += lb - 1;
    }
    let out_len = cur_len as u128;
    let n = cur_len.next_power_of_two() as u128;
    let logn = cur_len.next_power_of_two().trailing_zeros() as u128;
    let k = (cur_bits / 61 + 1) as u128;
    let m = ops.len() as u128;
    let encode: u128 = ops
        .iter()
        .map(|op| op.len() as u128 * (max_bits(op).div_ceil(64).max(1) as u128))
        .sum();
    // m forward transforms + 1 inverse, (m−1)·n pointwise products, residue
    // reduction of every operand, CRT reconstruction of the output.
    let ntt = k * ((m + 1) * n * logn + (m - 1) * n + encode) + out_len * k * (k + 4);
    (sb, ntt)
}

/// Convolves all of `ops` in one shared transform iff the cost
/// model says it beats the iterated schoolbook fold (`None` otherwise —
/// the caller keeps its own loop, which may still route individual steps
/// through [`convolve_if_faster`]). Each convolution it replaces (one per
/// operand beyond the first) counts toward `num.ntt_convolutions`.
pub fn convolve_many_if_faster<C: Coeff>(ops: &[&[C]]) -> Option<Vec<C>> {
    if ops.len() < 2 || ops.iter().any(|op| op.is_empty()) {
        return None;
    }
    let (_, out_len) = many_bound(ops);
    if out_len.next_power_of_two() > 1 << MAX_LOG {
        return None;
    }
    match policy() {
        NttPolicy::Force => {
            NUM_NTT_CONVOLUTIONS.add(ops.len() as u64 - 1);
            return Some(convolve_many_ntt(ops));
        }
        NttPolicy::Auto => {}
    }
    if out_len < MIN_NTT_LEN {
        return None;
    }
    if ops.iter().any(|op| max_bits(op) == 0) {
        return None; // a zero operand zeroes the product: schoolbook is free
    }
    let (sb, ntt) = model_units_many(ops);
    if ntt * NTT_COST_PERMILLE >= sb * 1000 {
        return None;
    }
    NUM_NTT_CONVOLUTIONS.add(ops.len() as u64 - 1);
    Some(convolve_many_ntt(ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vli::Vli;
    use proptest::prelude::*;
    use shapdb_metrics::Profile;
    use std::sync::Arc;

    fn schoolbook(a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
        let mut out = vec![BigUint::zero(); a.len() + b.len() - 1];
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                out[i + j] += &(x * y);
            }
        }
        out
    }

    #[test]
    fn generated_primes_are_sound() {
        let primes = take_primes(8);
        let mut seen = std::collections::HashSet::new();
        for np in &primes {
            let p = np.mp.p;
            assert!(seen.insert(p), "primes must be distinct");
            assert!(p > 1 << 61 && p < 1 << 62);
            assert_eq!((p - 1) % (1 << MAX_LOG), 0);
            assert!(is_prime_u64(p));
            // Root order is exactly 2^18.
            assert_eq!(np.mp.pow(np.root, 1 << MAX_LOG), np.mp.one);
            assert_ne!(np.mp.pow(np.root, 1 << (MAX_LOG - 1)), np.mp.one);
            assert_eq!(np.mp.mul(np.root, np.root_inv), np.mp.one);
        }
    }

    #[test]
    fn miller_rabin_known_values() {
        for p in [2u64, 3, 61, 2_147_483_647, 0xFFFF_FFFF_FFFF_FFC5] {
            assert!(is_prime_u64(p), "{p} is prime");
        }
        for c in [0u64, 1, 4, 561, 25_326_001, 3_215_031_751, 1 << 62] {
            assert!(!is_prime_u64(c), "{c} is composite");
        }
    }

    #[test]
    fn montgomery_roundtrip_and_ops() {
        let mp = take_primes(1)[0].mp;
        for x in [0u64, 1, 2, 12345, mp.p - 1] {
            assert_eq!(mp.decode(mp.encode(x)), x);
        }
        let (a, b) = (0x1234_5678_9ABC_DEF0 % mp.p, 0xFEDC_BA98_7654_3210 % mp.p);
        let (ma, mb) = (mp.encode(a), mp.encode(b));
        assert_eq!(mp.decode(mp.mul(ma, mb)), mulmod(a, b, mp.p));
        assert_eq!(mp.decode(mp.pow(ma, 31)), powmod(a, 31, mp.p));
        assert_eq!(mp.decode(mp.add(ma, mb)), (a + b) % mp.p);
        assert_eq!(mp.decode(mp.sub(ma, mb)), ((a + mp.p) - b) % mp.p);
        assert_eq!(mp.mul(mp.inv(ma), ma), mp.one);
    }

    #[test]
    fn ntt_roundtrip() {
        let np = take_primes(1)[0];
        let mp = np.mp;
        let n = 64usize;
        let root_n = mp.pow(np.root, 1 << (MAX_LOG - n.trailing_zeros()));
        let root_n_inv = mp.pow(np.root_inv, 1 << (MAX_LOG - n.trailing_zeros()));
        let orig: Vec<u64> = (0..n as u64).map(|i| mp.encode(i * i + 7)).collect();
        let mut v = orig.clone();
        ntt(&mp, &mut v, root_n);
        assert_ne!(v, orig);
        ntt(&mp, &mut v, root_n_inv);
        let n_inv = mp.inv(mp.encode(n as u64));
        for x in v.iter_mut() {
            *x = mp.mul(*x, n_inv);
        }
        assert_eq!(v, orig);
    }

    #[test]
    fn small_known_convolution() {
        // (1 + 2x + 3x²)(4 + 5x) = 4 + 13x + 22x² + 15x³.
        let a: Vec<BigUint> = [1u64, 2, 3].iter().map(|&v| BigUint::from_u64(v)).collect();
        let b: Vec<BigUint> = [4u64, 5].iter().map(|&v| BigUint::from_u64(v)).collect();
        let got = convolve_ntt::<BigUint>(&a, &b);
        let want: Vec<BigUint> = [4u64, 13, 22, 15]
            .iter()
            .map(|&v| BigUint::from_u64(v))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_zero_side_is_zero() {
        let a = vec![BigUint::zero(); 5];
        let b: Vec<BigUint> = (1..4u64).map(BigUint::from_u64).collect();
        assert_eq!(convolve_ntt::<BigUint>(&a, &b), vec![BigUint::zero(); 7]);
    }

    #[test]
    fn cap_magnitude_convolution_matches_schoolbook() {
        // Coefficients at genuine α-cap magnitudes: C(1024, 512) is ~1020
        // bits, the scale a 1024-variable root gate's counts reach.
        let cap = crate::combinatorics::binomial(1024, 512);
        assert!(cap.bits() > 1000);
        let a: Vec<BigUint> = (0..40u64)
            .map(|i| {
                let mut v = cap.clone();
                v.mul_small(i * 37 + 1);
                v
            })
            .collect();
        let b: Vec<BigUint> = (0..33u64)
            .map(|i| {
                let mut v = cap.clone();
                v.mul_small(i * 11 + 3);
                v
            })
            .collect();
        assert_eq!(convolve_ntt::<BigUint>(&a, &b), schoolbook(&a, &b));
    }

    #[test]
    fn vli_convolution_matches_biguint() {
        // Vli<8> operands near 2^255 / 2^250: products stay under 2^512.
        let big = (BigUint::one() << 255) - BigUint::from_u64(12345);
        let smaller = (BigUint::one() << 250) + BigUint::from_u64(999);
        let a_big: Vec<BigUint> = (0..32).map(|_| big.clone()).collect();
        let b_big: Vec<BigUint> = (0..16).map(|_| smaller.clone()).collect();
        let a: Vec<Vli<8>> = a_big.iter().map(Vli::from_biguint).collect();
        let b: Vec<Vli<8>> = b_big.iter().map(Vli::from_biguint).collect();
        let got = convolve_ntt::<Vli<8>>(&a, &b);
        let want = schoolbook(&a_big, &b_big);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(&g.to_biguint(), w);
        }
    }

    #[test]
    fn cost_model_routes_wide_convolutions_to_ntt() {
        // 1024 coefficients of ~8 limbs each: schoolbook is ~67M limb
        // multiplies, NTT ~3.6M units — NTT wins by a wide margin.
        let v = (BigUint::one() << 511) - BigUint::from_u64(7);
        let a: Vec<BigUint> = (0..1024).map(|_| v.clone()).collect();
        let profile = Arc::new(Profile::new());
        let _scope = profile.enter();
        let got = convolve_if_faster::<BigUint>(&a, &a).expect("model must choose NTT here");
        assert_eq!(profile.get(&NUM_NTT_CONVOLUTIONS), 1);
        // Full schoolbook is too slow in debug: check the sum identity
        // (Σa)(Σb) = Σc and spot-check edge coefficients.
        let sum = |v: &[BigUint]| {
            let mut s = BigUint::zero();
            for x in v {
                s += x;
            }
            s
        };
        assert_eq!(sum(&got), &sum(&a) * &sum(&a));
        assert_eq!(got[0], &a[0] * &a[0]);
        assert_eq!(got[2046], &a[1023] * &a[1023]);
    }

    #[test]
    fn tiny_or_degenerate_inputs_are_declined() {
        let a: Vec<BigUint> = (1..5u64).map(BigUint::from_u64).collect();
        assert!(
            convolve_if_faster::<BigUint>(&a, &a).is_none(),
            "below MIN_NTT_LEN"
        );
        assert!(convolve_if_faster::<BigUint>(&a, &[]).is_none());
        let zeros = vec![BigUint::zero(); 64];
        assert!(convolve_if_faster::<BigUint>(&zeros, &zeros).is_none());
    }

    #[test]
    fn many_small_known_convolution() {
        // (1+x)(1+x)(1+x) = 1 + 3x + 3x² + x³.
        let op: Vec<BigUint> = [1u64, 1].iter().map(|&v| BigUint::from_u64(v)).collect();
        let got = convolve_many_ntt::<BigUint>(&[&op, &op, &op]);
        let want: Vec<BigUint> = [1u64, 3, 3, 1]
            .iter()
            .map(|&v| BigUint::from_u64(v))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn many_with_zero_operand_is_zero() {
        let z = vec![BigUint::zero(); 4];
        let a: Vec<BigUint> = (1..5u64).map(BigUint::from_u64).collect();
        let out = convolve_many_ntt::<BigUint>(&[&a, &z, &a]);
        assert_eq!(out, vec![BigUint::zero(); 4 + 4 + 4 - 2]);
        assert!(convolve_many_if_faster::<BigUint>(&[&a, &z, &a]).is_none());
    }

    #[test]
    fn many_counts_one_convolution_per_fold_step() {
        // The shared transform the forced route runs (its count is checked
        // in `forced_many_counts_one_convolution_per_fold_step`).
        let v = (BigUint::one() << 300) - BigUint::from_u64(3);
        let op: Vec<BigUint> = (0..64).map(|_| v.clone()).collect();
        let ops: Vec<&[BigUint]> = vec![&op, &op, &op, &op];
        let got = convolve_many_ntt::<BigUint>(&ops);
        // Against the pairwise NTT fold (itself schoolbook-verified).
        let mut want = convolve_ntt::<BigUint>(&op, &op);
        want = convolve_ntt::<BigUint>(&want, &op);
        want = convolve_ntt::<BigUint>(&want, &op);
        assert_eq!(got, want);
    }

    #[test]
    fn forced_many_counts_one_convolution_per_fold_step() {
        // The policy override and the profile are both this thread's own,
        // so concurrent tests neither see `Force` nor add to the count.
        let v = (BigUint::one() << 300) - BigUint::from_u64(3);
        let op: Vec<BigUint> = (0..64).map(|_| v.clone()).collect();
        let ops: Vec<&[BigUint]> = vec![&op, &op, &op, &op];
        let profile = Arc::new(Profile::new());
        set_ntt_policy(NttPolicy::Force);
        let _scope = profile.enter();
        let got = convolve_many_if_faster::<BigUint>(&ops).expect("forced");
        set_ntt_policy(NttPolicy::Auto);
        assert_eq!(profile.get(&NUM_NTT_CONVOLUTIONS), 3, "one per fold step");
        assert_eq!(got, convolve_many_ntt::<BigUint>(&ops));
    }

    proptest! {
        /// NTT/CRT ≡ schoolbook on random multi-limb coefficient vectors.
        #[test]
        fn prop_ntt_matches_schoolbook(
            a in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 1..5), 1..40),
            b in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 1..5), 1..40),
        ) {
            let a: Vec<BigUint> = a.into_iter().map(BigUint::from_limbs).collect();
            let b: Vec<BigUint> = b.into_iter().map(BigUint::from_limbs).collect();
            prop_assert_eq!(convolve_ntt::<BigUint>(&a, &b), schoolbook(&a, &b));
        }

        /// Shared-transform multi-operand NTT ≡ the iterated schoolbook
        /// fold it replaces, on 2–5 random operands.
        #[test]
        fn prop_ntt_many_matches_schoolbook_fold(
            ops in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(any::<u64>(), 1..4), 1..16),
                2..6),
        ) {
            let ops: Vec<Vec<BigUint>> = ops
                .into_iter()
                .map(|op| op.into_iter().map(BigUint::from_limbs).collect())
                .collect();
            let refs: Vec<&[BigUint]> = ops.iter().map(|op| op.as_slice()).collect();
            let mut want = ops[0].clone();
            for op in &ops[1..] {
                want = schoolbook(&want, op);
            }
            prop_assert_eq!(convolve_many_ntt::<BigUint>(&refs), want);
        }
    }
}
