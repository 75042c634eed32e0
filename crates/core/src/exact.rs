//! Algorithm 1: exact Shapley values from a d-DNNF (Proposition 4.4).
//!
//! Given a deterministic and decomposable circuit for the endogenous lineage
//! `ELin(q[x̄/t̄], D_x, D_n)`, the Shapley value of fact `f` is (Equation 3):
//!
//! ```text
//! Shapley(f) = Σ_{k=0}^{n-1}  k!(n-k-1)!/n! · (#SAT_k(C[f→1]) − #SAT_k(C[f→0]))
//! ```
//!
//! `#SAT_k` is computed by the bottom-up dynamic program of Lemma 4.5 over
//! per-gate arrays `α_g[ℓ] = #SAT_ℓ(φ_g)`, counted over the gate's own
//! variables `Vars(g)`. N-ary gates are handled directly (sequential
//! convolution at ∧, binomial gap-expansion at ∨) instead of the paper's
//! fan-in-2 preprocessing; the result is identical and the rewritten
//! circuit is never built. Two more departures from the letter of the
//! paper, both value-preserving:
//!
//! * Line 1 of Algorithm 1 completes the circuit so that `Vars = D_n` by
//!   adding `(f' ∨ ¬f')` gates. Done arithmetically, a variable absent from
//!   the circuit multiplies `#SAT_k` by `C(gap, ·)`, and the Shapley value's
//!   null-player invariance collapses the completed sum to weights over the
//!   root's own `m` variables (`weights::completion_weights`).
//! * The `f → 1` array is never computed. A size-`j` satisfying subset of
//!   the root either contains `f` or it does not, so
//!   `α_root[j] = δ_f[j] + γ_f[j−1]`, where `δ_f = #SAT_·(C[f→0])` and
//!   `γ_f = #SAT_·(C[f→1])`; `γ_f` follows from `α_root` and `δ_f` by
//!   subtraction (`derive_gamma`).
//!
//! # Every `δ_f` from two passes
//!
//! The paper conditions the circuit once per fact. Here one forward pass
//! (the DP above) and one backward pass of *adjoints* give every fact's
//! `δ_f` at once — Darwiche's differential approach to arithmetic circuits
//! ("A Differential Approach to Inference in Bayesian Networks", JACM
//! 2003), lifted to exact `#SAT_k` polynomials.
//!
//! Read `α_g` as a polynomial in `z` and give each variable `v` two
//! indicators: the leaf `v` evaluates to `z·λ_v`, the leaf `¬v` to `λ_¬v`,
//! and each variable `v` an ∨ edge's gap expansion covers contributes the
//! factor `(λ_¬v + z·λ_v)`. At `λ ≡ 1` that factor is `1 + z`, the gap
//! expansion is `(1+z)^gap = C(gap, ·)`, and the circuit computes the
//! forward DP. Decomposability and the gap expansion make every monomial of
//! the root polynomial `P` hold exactly one of `λ_f`, `λ_¬f` for each root
//! variable `f`. So `P = λ_f·A + λ_¬f·B`, and `δ_f = B = ∂P/∂λ_¬f` at
//! `λ ≡ 1`. Reverse-mode differentiation over the circuit, in the ring of
//! polynomials in `z`, gives all these partials. Start from `adj_root = 1`
//! and visit the gates in reverse topological order:
//!
//! * at `p = ∧(c_1, …, c_k)`: `adj_{c_i} += adj_p ⊛ ∏_{j≠i} α_{c_j}`, from a
//!   left running product and suffix products (no division, so unsigned
//!   coefficient types suffice);
//! * at `p = ∨(…)`: `adj_c += adj_p ⊛ C(gap_c, ·)`, with
//!   `gap_c = |Vars(p)| − |Vars(c)|`.
//!
//! Then `δ_f` sums one term per occurrence of `λ_¬f`. A `¬f` leaf gives its
//! adjoint. An ∨ edge `p → c` whose gap covers `f` gives
//! `adj_p ⊛ C(gap−1, ·) ⊛ α_c`, the derivative of one factor of
//! `(1+z)^gap`. On every path `adj_g` has `m − |Vars(g)| + 1` coefficients,
//! so each `δ_f` has `m`.
//!
//! Two kinds of gate are skipped. A gate whose `α` is all zero computes the
//! zero polynomial in the indicators too, since every coefficient is a
//! non-negative count, so every partial derivative through it is zero: it
//! neither sends nor receives adjoints. A child with no `¬f` leaf and no
//! gapped ∨ edge below it would never have its adjoint read, so it gets
//! none.
//!
//! **Coefficient bound.** With those skips, every adjoint, every
//! intermediate array and every partial sum of the backward pass stays
//! `≤ C(m, ⌊m/2⌋)`, the forward pass's cap. Take a gate `g` that receives
//! an adjoint. It is satisfiable, so fix a satisfying assignment `ρ` of
//! `Vars(g)`. `adj_g[k]` counts pairs (root-to-`g` path of ∨ choices,
//! assignment `τ` with `k` true variables of the rest of the root that
//! completes the path). Each pair gives the satisfying root assignment
//! `τ ∪ ρ`. Determinism makes the proof tree of an assignment unique, and
//! decomposability lets `g` occur in it at most once, so the pair is
//! recovered from `τ ∪ ρ`. Hence `adj_g[k] ≤ α_root[k + |ρ|] ≤
//! C(m, ⌊m/2⌋)`. The intermediates are the same objects for virtual gates:
//! `adj_p ⊛ ∏_{c ∈ S} α_c`, for a subset `S` of an ∧ gate's children, is
//! the adjoint of the ∧ of the others; a product of children's `α` is the
//! `α` of their ∧; and `adj_p ⊛ C(gap−1, ·)` is the adjoint of `c`
//! expanded by `gap − 1` variables. Every partial sum of non-negative
//! terms is at most its final value. Without the zero-`α` skip the bound fails: the contexts of an
//! unsatisfiable gate are not disjoint, and a chain of unsatisfiable ∨
//! gates can double an adjoint per level.
//!
//! # One arena per solve
//!
//! A solve keeps its per-gate state in a few flat arrays instead of one
//! heap array per gate:
//!
//! * **Variable sets.** `Vars(g)` of every gate is `⌈n/64⌉` words of one
//!   word arena (one word per gate up to 64 circuit variables; `VarSets`).
//! * **Forward arrays.** Every `α_g` lives in one coefficient arena, gate
//!   `g` at a fixed offset with `|Vars(g)| + 1` coefficients; the offsets
//!   follow from the set sizes alone, before any arithmetic, and give the
//!   sizes back. A gate reads its children below its own offset, since
//!   children precede parents.
//! * **Conditioned passes** (the per-fact oracle and
//!   [`shapley_single_fact`]) reuse the same offsets. Conditioning on `f`
//!   drops at most one variable from a gate, `f` itself, so the gate's
//!   array has `|Vars(g)|` coefficients and fits its slot; gates without
//!   `f` are read from the base pass, or recomputed at full length when no
//!   base pass exists. One conditioned arena serves every fact in turn.
//! * **Backward pass.** Adjoints and `δ` arrays come from a pool the solve
//!   owns: one arena of `m + 1`-coefficient slots and a free list. A slot
//!   is taken at an array's first term and returned once the array is
//!   consumed — an adjoint when its gate is visited (all its parents,
//!   which have higher indices, are done), a `δ_f` when its fact is
//!   folded. What is live during the backward pass is the forward arena
//!   plus the slots in flight, so the pool grows with the widest frontier
//!   of pending adjoints, not with the gate count, and a flat
//!   `Σ_g (m − |Vars(g)| + 1)` adjoint array (which would not fit at
//!   thousands of variables) is never built.
//!
//! [`power_index_per_fact`] keeps the paper's per-fact conditioned passes,
//! both the full recomputation and the variant that reuses a shared base
//! pass for the gates not containing the fact. They are the test oracle
//! and the `alg1` ablation bench's columns, and [`shapley_single_fact`]
//! runs the reuse variant: for one fact, a conditioned pass over the
//! affected gates is cheaper than a full backward pass.
//!
//! # Arithmetic substrate
//!
//! The DP is generic over [`Coeff`]. Every forward array and every
//! intermediate of the ∧/∨ loops (each a partial sum of non-negative terms
//! of an `α` value) is bounded by the central binomial over the widest
//! gate's variable count ([`alpha_cap_bits`]), and the backward pass stays
//! under the same cap (above). When that cap fits 1/2/4/8 64-bit limbs,
//! both passes run on stack [`Vli`] integers instead of heap bignums;
//! `num.vli_hits` and `num.bignum_fallbacks` count passes on each. Wide
//! convolutions in either pass route through the exact NTT/CRT path
//! ([`shapdb_num::ntt`]) past its fixed cost-model crossover. Every
//! substrate choice is bit-exact: results are identical rationals at any
//! setting.

use crate::measure::Measure;
use crate::weights::PowerFold;
use shapdb_kc::{DNode, Ddnnf, NodeIdx};
use shapdb_metrics::counters::{Counter, NUM_BIGNUM_FALLBACKS, NUM_VLI_HITS};
use shapdb_num::{
    combinatorics::{alpha_cap_bits, BinomialTable},
    ntt, BigUint, Coeff, Rational, Vli,
};
use std::ops::Range;
use std::time::Instant;

/// Configuration for the exact computation. Only Algorithm 1's own
/// functions take it: the engines build it from their task's budget
/// deadline, so compilation and Algorithm 1 share one deadline.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactConfig {
    /// Cooperative deadline (checked per gate child and between passes).
    pub deadline: Option<Instant>,
}

/// The exact computation exceeded its deadline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShapleyTimeout;

impl std::fmt::Display for ShapleyTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shapley evaluation timed out")
    }
}

impl std::error::Error for ShapleyTimeout {}

/// The paper's per-fact conditioned passes, as run by
/// [`power_index_per_fact`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PerFactPasses {
    /// One shared unconditioned pass; each fact recomputes only the gates
    /// whose variable set contains it, and derives its `f → 1` array from
    /// the shared root (`derive_gamma`).
    ReuseUnaffected,
    /// Algorithm 1 as written: both conditioned passes over every gate, the
    /// paper's `O(|C|·n²)` per fact.
    FullRecompute,
}

/// How a solve obtains its `δ_f` arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Solver {
    /// One forward and one backward pass for every fact (module doc).
    Adjoint,
    /// The paper's per-fact passes.
    PerFact(PerFactPasses),
}

/// `Vars(g)` of every gate in one flat arena of bit words, with the
/// α-arena layout their sizes fix (module doc).
struct VarSets {
    /// `stride` words per gate, gate `g`'s at `g·stride`.
    words: Vec<u64>,
    stride: usize,
    /// Gate `g`'s forward array occupies `offsets[g]..offsets[g + 1]` of an
    /// α arena: `|Vars(g)| + 1` coefficients.
    offsets: Vec<usize>,
}

impl VarSets {
    fn new(d: &Ddnnf) -> VarSets {
        let stride = d.num_vars().div_ceil(64);
        let mut words = vec![0u64; d.len() * stride];
        let mut offsets = Vec::with_capacity(d.len() + 1);
        offsets.push(0);
        for (g, node) in d.nodes().iter().enumerate() {
            // Children precede parents: their sets are all in `below`.
            let (below, rest) = words.split_at_mut(g * stride);
            let set = &mut rest[..stride];
            match node {
                DNode::True | DNode::False => {}
                DNode::Lit(l) => set[l.var() / 64] |= 1 << (l.var() % 64),
                DNode::And(cs) | DNode::Or(cs, _) => {
                    for c in cs.iter() {
                        let c = &below[c.index() * stride..][..stride];
                        for (w, x) in set.iter_mut().zip(c) {
                            *w |= x;
                        }
                    }
                }
            }
            let size: u32 = set.iter().map(|w| w.count_ones()).sum();
            offsets.push(offsets[g] + size as usize + 1);
        }
        VarSets {
            words,
            stride,
            offsets,
        }
    }

    /// `|Vars(g)|`.
    fn len(&self, g: usize) -> usize {
        self.offsets[g + 1] - self.offsets[g] - 1
    }

    fn words(&self, g: usize) -> &[u64] {
        &self.words[g * self.stride..][..self.stride]
    }

    fn contains(&self, g: usize, v: usize) -> bool {
        self.words(g)[v / 64] >> (v % 64) & 1 == 1
    }

    /// `Vars(g)`, ascending.
    fn iter(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.words(g).iter().copied())
    }

    /// `Vars(g) \ Vars(c)`, ascending: the variables an ∨ edge's gap covers.
    fn gap(&self, g: usize, c: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.words(g).iter().zip(self.words(c)).map(|(a, b)| a & !b))
    }

    /// The widest gate's variable count.
    fn widest(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0] - 1)
            .max()
            .unwrap_or(0)
    }

    /// Gate `g`'s slot in an α arena.
    fn slot(&self, g: usize) -> Range<usize> {
        self.offsets[g]..self.offsets[g + 1]
    }

    /// The coefficients of a whole α arena.
    fn arena_len(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }
}

/// The positions of the set bits of consecutive 64-bit words, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(i, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// Cooperative deadline checker shared by every DP pass.
struct Ticker {
    deadline: Option<Instant>,
    ticks: u32,
}

impl Ticker {
    /// Cooperative cancellation, called once per gate child so that even a
    /// single enormous gate cannot overshoot the deadline by much.
    fn tick(&mut self) -> Result<(), ShapleyTimeout> {
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(64) {
            self.check()?;
        }
        Ok(())
    }

    /// Checks the deadline now (between passes and between facts).
    fn check(&self) -> Result<(), ShapleyTimeout> {
        match self.deadline {
            Some(d) if Instant::now() > d => Err(ShapleyTimeout),
            _ => Ok(()),
        }
    }
}

/// Binomial rows converted to the pass's coefficient type, cached per DP
/// (conversion is sound: `C(gap, d) ≤ C(m, ⌊m/2⌋)`, the tier's cap).
pub(crate) struct BinomRows<C> {
    table: BinomialTable,
    rows: Vec<Option<Vec<C>>>,
}

impl<C: Coeff> BinomRows<C> {
    pub(crate) fn new() -> BinomRows<C> {
        BinomRows {
            table: BinomialTable::new(),
            rows: Vec::new(),
        }
    }

    pub(crate) fn row(&mut self, n: usize) -> &[C] {
        if self.rows.len() <= n {
            self.rows.resize_with(n + 1, || None);
        }
        if self.rows[n].is_none() {
            let row = self.table.row(n).iter().map(C::from_biguint).collect();
            self.rows[n] = Some(row);
        }
        self.rows[n].as_ref().unwrap()
    }
}

/// `out = a ⊛ b` into a reused buffer.
fn convolve<C: Coeff>(a: &[C], b: &[C], out: &mut Vec<C>) {
    if let Some(v) = ntt_product(a, b) {
        *out = v;
        return;
    }
    out.clear();
    out.resize(a.len() + b.len() - 1, C::zero());
    schoolbook_add(a, b, out);
}

/// `out = a ⊛ b` into a slot of exactly `a.len() + b.len() − 1`
/// coefficients.
fn convolve_into<C: Coeff>(a: &[C], b: &[C], out: &mut [C]) {
    match ntt_product(a, b) {
        Some(v) => move_into(out, v),
        None => {
            out.fill(C::zero());
            schoolbook_add(a, b, out);
        }
    }
}

/// `out += a ⊛ b`, where `out` has exactly `a.len() + b.len() − 1`
/// coefficients.
fn convolve_add<C: Coeff>(a: &[C], b: &[C], out: &mut [C]) {
    match ntt_product(a, b) {
        Some(v) => C::fold_add(out, &v),
        None => schoolbook_add(a, b, out),
    }
}

/// `a ⊛ b` by the exact NTT/CRT path when the product is wide and its cost
/// model says it beats [`schoolbook_add`].
fn ntt_product<C: Coeff>(a: &[C], b: &[C]) -> Option<Vec<C>> {
    if a.len() + b.len() > ntt::MIN_NTT_LEN {
        ntt::convolve_if_faster(a, b)
    } else {
        None
    }
}

/// Moves `v`'s coefficients into the equally long `out`.
fn move_into<C>(out: &mut [C], v: Vec<C>) {
    debug_assert_eq!(out.len(), v.len());
    for (o, x) in out.iter_mut().zip(v) {
        *o = x;
    }
}

/// `out += a ⊛ b` by a schoolbook loop: one row per coefficient of the
/// shorter operand's nonzero span (its leading and trailing zeros — a
/// gate over positive literals has no small counts, an adjoint below them
/// no large ones — cost nothing), each a row-level (fused multiply-)
/// accumulate of the longer operand.
fn schoolbook_add<C: Coeff>(a: &[C], b: &[C], out: &mut [C]) {
    debug_assert_eq!(out.len(), a.len() + b.len() - 1);
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (at, short) = nonzero_span(short);
    let one = C::one();
    for (i, si) in short.iter().enumerate() {
        // This is the DP's hottest loop.
        let row = &mut out[at + i..at + i + long.len()];
        if *si == one {
            C::fold_add(row, long);
        } else if !si.is_zero() {
            C::fold_add_mul(row, long, si);
        }
    }
}

/// The offset and the slice of `a` from its first to its last nonzero
/// coefficient (empty when `a` is all zero).
fn nonzero_span<C: Coeff>(a: &[C]) -> (usize, &[C]) {
    let lo = a.iter().position(|x| !x.is_zero()).unwrap_or(a.len());
    let hi = a.iter().rposition(|x| !x.is_zero()).map_or(lo, |h| h + 1);
    (lo, &a[lo..hi])
}

/// True iff every coefficient is zero (an unsatisfiable gate).
fn is_zero_poly<C: Coeff>(a: &[C]) -> bool {
    a.iter().all(C::is_zero)
}

/// What one gate of a forward pass reads: its children's `α` arrays, in
/// the pass's own arena or, for the gates a conditioning leaves alone, in
/// the base pass's arena. Both arenas share one layout.
struct Pass<'x, C> {
    sets: &'x VarSets,
    /// The pass's arena below the gate being computed.
    done: &'x [C],
    /// The conditioning `f → b` of a conditioned pass.
    cond: Option<(usize, bool)>,
    /// The unconditioned arena, read for the children that do not contain
    /// `f` (reuse mode); without it, a conditioned pass recomputes every
    /// gate.
    base: Option<&'x [C]>,
}

impl<'x, C> Pass<'x, C> {
    /// `|Vars(g)|` after the conditioning drops `f`.
    fn size(&self, g: usize) -> usize {
        match self.cond {
            Some((f, _)) if self.sets.contains(g, f) => self.sets.len(g) - 1,
            _ => self.sets.len(g),
        }
    }

    /// Child `c`'s `α` array: `size(c) + 1` coefficients at the start of
    /// its slot.
    fn alpha(&self, c: usize) -> &'x [C] {
        if let (Some((f, _)), Some(base)) = (self.cond, self.base) {
            if !self.sets.contains(c, f) {
                return &base[self.sets.slot(c)];
            }
        }
        let start = self.sets.offsets[c];
        &self.done[start..=start + self.size(c)]
    }
}

/// Computes gate `g`'s `α` into `out`, its `size(g) + 1` coefficients.
/// `scratch` holds an ∧ gate's running products, reused across gates.
fn gate_alpha<C: Coeff>(
    node: &DNode,
    g: usize,
    pass: &Pass<'_, C>,
    binomials: &mut BinomRows<C>,
    ticker: &mut Ticker,
    scratch: &mut [Vec<C>; 2],
    out: &mut [C],
) -> Result<(), ShapleyTimeout> {
    debug_assert_eq!(out.len(), pass.size(g) + 1);
    match node {
        DNode::True => out[0] = C::one(),
        DNode::False => out[0] = C::zero(),
        // φ over ∅ vars: ⊤ (α⁰ = 1) if the conditioning satisfies the
        // literal.
        DNode::Lit(l) => match pass.cond {
            Some((v, b)) if l.var() == v => {
                out[0] = if l.satisfied_by(b) {
                    C::one()
                } else {
                    C::zero()
                }
            }
            _ if l.is_positive() => {
                out[0] = C::zero();
                out[1] = C::one();
            }
            _ => {
                out[0] = C::one();
                out[1] = C::zero();
            }
        },
        DNode::And(cs) => {
            // Decomposability: sizes add, counts convolve. A wide gate first
            // offers all children to the shared-transform NTT path, which
            // forward-transforms each child's α array once per prime
            // instead of re-transforming the growing product per pairwise
            // step; the cost model declines → the fold below runs instead.
            if cs.len() >= 3 {
                ticker.tick()?;
                if out.len() + cs.len() - 1 > ntt::MIN_NTT_LEN {
                    let ops: Vec<&[C]> = cs.iter().map(|c| pass.alpha(c.index())).collect();
                    if let Some(v) = ntt::convolve_many_if_faster(&ops) {
                        move_into(out, v);
                        return Ok(());
                    }
                }
            }
            let Some((last, init)) = cs.split_last() else {
                out[0] = C::one();
                return Ok(());
            };
            let last = pass.alpha(last.index());
            match init {
                [] => out.clone_from_slice(last),
                [c] => convolve_into(pass.alpha(c.index()), last, out),
                [c0, c1, mid @ ..] => {
                    // `run` holds the running product, `next` the next
                    // one; they swap per child, and the last product lands
                    // in `out`.
                    let [run, next] = scratch;
                    convolve(pass.alpha(c0.index()), pass.alpha(c1.index()), run);
                    for c in mid {
                        ticker.tick()?;
                        convolve(run, pass.alpha(c.index()), next);
                        std::mem::swap(run, next);
                    }
                    convolve_into(run, last, out);
                }
            }
            ticker.tick()?;
        }
        DNode::Or(cs, _) => {
            // Determinism: counts add after expanding each child by the
            // binomial over its variable gap.
            out.fill(C::zero());
            for c in cs.iter() {
                ticker.tick()?;
                let ca = pass.alpha(c.index());
                match out.len() - ca.len() {
                    0 => C::fold_add(out, ca),
                    gap => schoolbook_add(ca, binomials.row(gap), out),
                }
            }
        }
    }
    Ok(())
}

/// `consumes[g]` for every gate up to the root: whether an adjoint at `g`
/// is ever read, i.e. `g` is a `¬f` leaf or has a `¬f` leaf or a gapped ∨
/// edge at or below it.
fn adjoint_consumers(nodes: &[DNode], sets: &VarSets, root: usize) -> Vec<bool> {
    let mut consumes = vec![false; root + 1];
    for g in 0..=root {
        consumes[g] = match &nodes[g] {
            DNode::True | DNode::False => false,
            DNode::Lit(l) => !l.is_positive(),
            DNode::And(cs) => cs.iter().any(|c| consumes[c.index()]),
            DNode::Or(cs, _) => cs.iter().any(|c| {
                let c = c.index();
                consumes[c] || sets.len(c) < sets.len(g)
            }),
        };
    }
    consumes
}

/// For each variable `f`, the lowest gate up to the root that adds a term
/// to `δ_f` in the backward pass, if any: a gate with a `¬f` leaf child,
/// an ∨ gate whose gap covers `f`, or a `¬f` root.
fn last_delta_terms(d: &Ddnnf, sets: &VarSets) -> Vec<Option<usize>> {
    let (nodes, root) = (d.nodes(), d.root().index());
    let mut last = vec![None; d.num_vars()];
    // Gates go up from 0, so the first gate noted for `f` is the lowest.
    let mut note = |f: usize, g: usize| {
        last[f].get_or_insert(g);
    };
    for (g, node) in nodes[..=root].iter().enumerate() {
        let cs = match node {
            DNode::Lit(l) if !l.is_positive() && g == root => {
                note(l.var(), g);
                continue;
            }
            DNode::And(cs) | DNode::Or(cs, _) => cs,
            _ => continue,
        };
        for c in cs.iter().map(|c| c.index()) {
            if let DNode::Lit(l) = &nodes[c] {
                if !l.is_positive() {
                    note(l.var(), g);
                }
            }
            if let DNode::Or(..) = node {
                for f in sets.gap(g, c) {
                    note(f, g);
                }
            }
        }
    }
    last
}

/// No slot.
const NO_SLOT: u32 = u32::MAX;

/// The backward pass's adjoint and `δ` buffers: one flat arena of
/// `m + 1`-coefficient slots (an adjoint at `g` has `m − |Vars(g)| + 1`
/// coefficients, a `δ` has `m`). A slot is taken at an array's first term
/// and returned once the array is consumed, so the arena grows to the peak
/// number of arrays in flight, not to the gate count.
struct Pool<C> {
    data: Vec<C>,
    width: usize,
    free: Vec<u32>,
}

impl<C: Coeff> Pool<C> {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let slot = self.data.len() / self.width;
            self.data.resize(self.data.len() + self.width, C::zero());
            slot as u32
        })
    }

    fn get(&self, slot: u32, len: usize) -> &[C] {
        &self.data[slot as usize * self.width..][..len]
    }

    fn get_mut(&mut self, slot: u32, len: usize) -> &mut [C] {
        &mut self.data[slot as usize * self.width..][..len]
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }
}

/// Where the backward pass accumulates: per-gate adjoints and per-fact `δ`,
/// each a [`Pool`] slot once its first term arrives.
struct Adjoints<'n, C> {
    nodes: &'n [DNode],
    sets: &'n VarSets,
    /// The root's variable count.
    m: usize,
    /// `adj[g]`'s slot.
    adj: Vec<u32>,
    /// `δ_f`'s slot, by variable.
    delta: Vec<u32>,
    pool: Pool<C>,
}

impl<C: Coeff> Adjoints<'_, C> {
    /// Adds `x ⊛ y` (`x` when `y` is `None`) to child `c`'s adjoint —
    /// straight into `δ_f` when `c` is a `¬f` leaf (positive leaves never
    /// consume one), whose adjoint is read nowhere else.
    fn deposit(&mut self, c: usize, x: &[C], y: Option<&[C]>) {
        let (slot, len) = match &self.nodes[c] {
            DNode::Lit(l) => (&mut self.delta[l.var()], self.m),
            _ => (&mut self.adj[c], self.m + 1 - self.sets.len(c)),
        };
        accumulate(&mut self.pool, slot, len, 0, x, y);
    }

    /// Adds `z^at · x` to `δ_f`.
    fn add_to_delta(&mut self, f: usize, at: usize, x: &[C]) {
        accumulate(&mut self.pool, &mut self.delta[f], self.m, at, x, None);
    }
}

/// `acc += z^at · (x ⊛ y)` (`x` when `y` is `None`) for the
/// `len`-coefficient array in `slot`; a first term takes a zeroed slot.
fn accumulate<C: Coeff>(
    pool: &mut Pool<C>,
    slot: &mut u32,
    len: usize,
    at: usize,
    x: &[C],
    y: Option<&[C]>,
) {
    if *slot == NO_SLOT {
        *slot = pool.take();
        pool.get_mut(*slot, len).fill(C::zero());
    }
    let acc = &mut pool.get_mut(*slot, len)[at..];
    match y {
        Some(y) => convolve_add(x, y, &mut acc[..x.len() + y.len() - 1]),
        None => C::fold_add(&mut acc[..x.len()], x),
    }
}

/// The backward pass over one forward pass (see the module doc).
struct Backward<'n, C> {
    sets: &'n VarSets,
    /// The forward pass's arena.
    alphas: &'n [C],
    /// `consumes[g]` from [`adjoint_consumers`].
    consumes: Vec<bool>,
    acc: Adjoints<'n, C>,
    /// Scratch: a running product, a product, an ∧ gate's product of
    /// non-consuming children, its consuming children and their suffix
    /// products.
    run: Vec<C>,
    tmp: Vec<C>,
    prod: Vec<C>,
    cons: Vec<usize>,
    suffix: Vec<Vec<C>>,
}

impl<'n, C: Coeff> Backward<'n, C> {
    fn alpha(&self, g: usize) -> &'n [C] {
        &self.alphas[self.sets.slot(g)]
    }

    /// Hands `δ_f` (zero if it never took a term) to `finish` and returns
    /// its slot.
    fn finish_delta(&mut self, f: usize, zeros: &[C], finish: &mut impl FnMut(usize, &[C])) {
        let slot = std::mem::replace(&mut self.acc.delta[f], NO_SLOT);
        if slot == NO_SLOT {
            finish(f, zeros);
        } else {
            finish(f, self.acc.pool.get(slot, self.acc.m));
            self.acc.pool.release(slot);
        }
    }

    /// Sends the adjoint `a` of a satisfiable ∧ gate to its children. The
    /// children that take no adjoint fold into one product `p` first.
    /// Consumer `i` of `r` gets `run_i ⊛ suf_i`, where
    /// `run_i = a ⊛ p ⊛ (consumers before i)` and `suf_i` is the product of
    /// the consumers after it; the last gets `run_{r−2} ⊛ α_{c_{r−2}}`.
    fn and_gate(
        &mut self,
        a: &[C],
        cs: &[NodeIdx],
        ticker: &mut Ticker,
    ) -> Result<(), ShapleyTimeout> {
        let (alphas, sets, consumes) = (self.alphas, self.sets, &self.consumes);
        let alpha = |g: usize| &alphas[sets.slot(g)];
        self.cons.clear();
        self.cons
            .extend(cs.iter().map(|c| c.index()).filter(|&c| consumes[c]));
        let mut others = cs.iter().map(|c| c.index()).filter(|&c| !consumes[c]);
        let p: &[C] = match (others.next(), others.next()) {
            (None, _) => &[],
            (Some(c), None) => alpha(c),
            (Some(c0), Some(c1)) => {
                convolve(alpha(c0), alpha(c1), &mut self.prod);
                for c in others {
                    ticker.tick()?;
                    convolve(&self.prod, alpha(c), &mut self.tmp);
                    std::mem::swap(&mut self.prod, &mut self.tmp);
                }
                &self.prod
            }
        };
        // A one-coefficient product is 1: every child of a satisfiable ∧
        // gate is satisfiable.
        let p = (p.len() > 1).then_some(p);
        let (cons, r) = (&self.cons, self.cons.len());
        if r == 1 {
            self.acc.deposit(cons[0], a, p);
            return Ok(());
        }
        let mut run: &[C] = match p {
            Some(p) => {
                convolve(a, p, &mut self.run);
                &self.run
            }
            None => a,
        };
        // `suffix[i] = suf_i` for `i < r − 2`; `suf_{r−2}` is the last
        // consumer's α.
        if self.suffix.len() + 2 < r {
            self.suffix.resize_with(r - 2, Vec::new);
        }
        for i in (0..r - 2).rev() {
            ticker.tick()?;
            let (here, after) = self.suffix.split_at_mut(i + 1);
            let after: &[C] = if i + 3 == r {
                alpha(cons[r - 1])
            } else {
                &after[0]
            };
            convolve(alpha(cons[i + 1]), after, &mut here[i]);
        }
        for i in 0..r - 1 {
            ticker.tick()?;
            let suf = if i + 2 == r {
                alpha(cons[r - 1])
            } else {
                &self.suffix[i]
            };
            self.acc.deposit(cons[i], run, Some(suf));
            if i + 2 < r {
                convolve(run, alpha(cons[i]), &mut self.tmp);
                std::mem::swap(&mut self.run, &mut self.tmp);
                run = &self.run;
            }
        }
        self.acc.deposit(cons[r - 1], run, Some(alpha(cons[r - 2])));
        Ok(())
    }

    /// Sends the adjoint `a` of ∨ gate `g` to its satisfiable children, and
    /// each gap edge's occurrences to their `δ`: with
    /// `t = a ⊛ C(gap−1, ·)`, every gap variable's `δ` gains `t ⊛ α_c`, and
    /// the child's adjoint is `a ⊛ C(gap, ·) = t ⊛ (1 + z)`.
    fn or_gate(
        &mut self,
        a: &[C],
        g: usize,
        cs: &[NodeIdx],
        binomials: &mut BinomRows<C>,
        ticker: &mut Ticker,
    ) -> Result<(), ShapleyTimeout> {
        let sets = self.sets;
        let one_plus_z = [C::one(), C::one()];
        for c in cs.iter() {
            ticker.tick()?;
            let c = c.index();
            let alpha = self.alpha(c);
            if is_zero_poly(alpha) {
                continue;
            }
            let gap = sets.len(g) - sets.len(c);
            if gap == 0 {
                if self.consumes[c] {
                    self.acc.deposit(c, a, None);
                }
                continue;
            }
            let t: &[C] = if gap == 1 {
                a
            } else {
                convolve(a, binomials.row(gap - 1), &mut self.run);
                &self.run
            };
            match nonzero_span(alpha) {
                // `α_c = z^e` (a literal, a product of literals): `t ⊛ α_c`
                // is `t` shifted.
                (e, [one]) if *one == C::one() => {
                    for f in sets.gap(g, c) {
                        self.acc.add_to_delta(f, e, t);
                    }
                }
                _ => {
                    convolve(t, alpha, &mut self.tmp);
                    for f in sets.gap(g, c) {
                        self.acc.add_to_delta(f, 0, &self.tmp);
                    }
                }
            }
            if self.consumes[c] {
                self.acc.deposit(c, t, Some(&one_plus_z));
            }
        }
        Ok(())
    }
}

struct Dp<'a, C> {
    d: &'a Ddnnf,
    sets: &'a VarSets,
    binomials: BinomRows<C>,
    ticker: Ticker,
    /// The conditioned passes' arena, reused across facts: same layout as
    /// the base pass, a gate containing the conditioned fact using one
    /// coefficient less of its slot.
    cond: Vec<C>,
    /// ∧-gate running products.
    scratch: [Vec<C>; 2],
}

impl<'a, C: Coeff> Dp<'a, C> {
    fn new(d: &'a Ddnnf, sets: &'a VarSets, deadline: Option<Instant>) -> Dp<'a, C> {
        Dp {
            d,
            sets,
            binomials: BinomRows::new(),
            ticker: Ticker { deadline, ticks: 0 },
            cond: Vec::new(),
            scratch: [Vec::new(), Vec::new()],
        }
    }

    /// Computes gate `g` of a pass into `arena`: unconditioned when `cond`
    /// is `None`, else with `base` read for the gates `cond` leaves alone.
    fn gate(
        &mut self,
        arena: &mut [C],
        g: usize,
        cond: Option<(usize, bool)>,
        base: Option<&[C]>,
    ) -> Result<(), ShapleyTimeout> {
        let (done, rest) = arena.split_at_mut(self.sets.offsets[g]);
        let pass = Pass {
            sets: self.sets,
            done,
            cond,
            base,
        };
        let len = pass.size(g) + 1;
        gate_alpha(
            &self.d.nodes()[g],
            g,
            &pass,
            &mut self.binomials,
            &mut self.ticker,
            &mut self.scratch,
            &mut rest[..len],
        )
    }

    /// Full unconditioned pass: the arena of every gate's `α`.
    fn base_pass(&mut self) -> Result<Vec<C>, ShapleyTimeout> {
        let mut arena = vec![C::zero(); self.sets.arena_len()];
        for g in 0..self.d.len() {
            self.gate(&mut arena, g, None, None)?;
        }
        Ok(arena)
    }

    /// Every root variable's `δ_f = #SAT_·(C[f→0])` from one
    /// reverse-topological pass of adjoints over the base pass `alphas`
    /// (see the module doc), handed to `finish(f, δ_f)` once no gate left
    /// to visit can add to it. Each adjoint's slot is returned once its
    /// parents are done and each `δ_f`'s once finished, so what is live
    /// beyond the base pass is the adjoints and `δ` arrays in flight, not
    /// all `m` arrays of `m` coefficients. Returns the number of pool slots
    /// the pass used: the peak of arrays in flight.
    fn adjoint_deltas(
        &mut self,
        alphas: &[C],
        mut finish: impl FnMut(usize, &[C]),
    ) -> Result<usize, ShapleyTimeout> {
        self.ticker.check()?;
        let d = self.d;
        let (nodes, sets) = (d.nodes(), self.sets);
        let root = d.root().index();
        let m = sets.len(root);
        let zeros = vec![C::zero(); m];
        // `(last, f)`: `δ_f` takes its last term at gate `last`, the lowest
        // gate with a `¬f` leaf child or an ∨ gap covering `f` (0 when none:
        // `δ_f` stays zero). Sorted so the next variable to finish is last.
        let last = last_delta_terms(d, sets);
        let mut due: Vec<(usize, usize)> =
            sets.iter(root).map(|f| (last[f].unwrap_or(0), f)).collect();
        due.sort_unstable();
        let mut bw = Backward {
            sets,
            alphas,
            consumes: adjoint_consumers(nodes, sets, root),
            acc: Adjoints {
                nodes,
                sets,
                m,
                adj: vec![NO_SLOT; root + 1],
                delta: vec![NO_SLOT; d.num_vars()],
                pool: Pool {
                    data: Vec::new(),
                    width: m + 1,
                    free: Vec::new(),
                },
            },
            run: Vec::new(),
            tmp: Vec::new(),
            prod: Vec::new(),
            cons: Vec::new(),
            suffix: Vec::new(),
        };
        if bw.consumes[root] && !is_zero_poly(bw.alpha(root)) {
            bw.acc.deposit(root, &[C::one()], None);
        }
        // The adjoint being sent, copied out of its slot so the slot can
        // take a child's deposit.
        let mut a = Vec::new();
        for g in (0..=root).rev() {
            // Every gate above `g` is done: so is every `δ_f` due there.
            while let Some(&(_, f)) = due.last().filter(|&&(last, _)| last > g) {
                bw.finish_delta(f, &zeros, &mut finish);
                due.pop();
            }
            let slot = std::mem::replace(&mut bw.acc.adj[g], NO_SLOT);
            if slot == NO_SLOT {
                continue;
            }
            a.clear();
            a.extend_from_slice(bw.acc.pool.get(slot, m + 1 - sets.len(g)));
            bw.acc.pool.release(slot);
            match &nodes[g] {
                // Only a `¬f` root gets here: child leaves deposit into δ.
                DNode::Lit(_) => bw.acc.deposit(g, &a, None),
                DNode::True | DNode::False => {}
                DNode::And(cs) => bw.and_gate(&a, cs, &mut self.ticker)?,
                DNode::Or(cs, _) => bw.or_gate(&a, g, cs, &mut self.binomials, &mut self.ticker)?,
            }
        }
        for &(_, f) in due.iter().rev() {
            bw.finish_delta(f, &zeros, &mut finish);
        }
        let pool = &bw.acc.pool;
        let slots = pool.data.len() / pool.width;
        debug_assert_eq!(pool.free.len(), slots, "every slot is returned");
        Ok(slots)
    }

    /// The gates a conditioning on `f` recomputes, in (topological) index
    /// order: those containing `f` when a base pass covers the rest, else
    /// all. Computed once per fact and shared by both conditioned passes;
    /// `buf` is recycled across facts.
    fn affected_gates(&self, f: usize, reuse: bool, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend((0..self.d.len()).filter(|&g| !reuse || self.sets.contains(g, f)));
    }

    /// Conditioned pass for `(f → b)` over the `affected` gates (from
    /// [`Dp::affected_gates`]), reading `base` for the rest; the root's
    /// array is copied into `out`. The arena is reused across calls: the
    /// steady state allocates nothing.
    fn conditioned_root(
        &mut self,
        f: usize,
        b: bool,
        base: Option<&[C]>,
        affected: &[usize],
        out: &mut Vec<C>,
    ) -> Result<(), ShapleyTimeout> {
        if self.cond.is_empty() {
            self.cond = vec![C::zero(); self.sets.arena_len()];
        }
        let mut cond = std::mem::take(&mut self.cond);
        let result = affected
            .iter()
            .try_for_each(|&g| self.gate(&mut cond, g, Some((f, b)), base));
        // Every fact is a root variable: the root is always recomputed,
        // its array one coefficient shorter than its slot.
        let root = self.sets.slot(self.d.root().index());
        debug_assert!(self.sets.contains(self.d.root().index(), f));
        out.clear();
        out.extend_from_slice(&cond[root.start..root.end - 1]);
        self.cond = cond;
        result
    }
}

/// The `f → 1` root array, derived instead of recomputed: a size-`j`
/// satisfying subset of the root's `m` variables either contains `f`
/// (counted by `γ[j−1]`) or does not (counted by `δ[j]`), so
/// `base[j] = δ[j] + γ[j−1]` and `γ[j] = base[j+1] − δ[j+1]` (with
/// `δ[m] = 0`). Exact non-negative integer arithmetic, so the result is
/// bit-identical to a second conditioned pass at half the DP work.
pub(crate) fn derive_gamma<C: Coeff>(base_root: &[C], delta: &[C], gamma: &mut Vec<C>) {
    let m = delta.len();
    debug_assert_eq!(base_root.len(), m + 1);
    gamma.clear();
    gamma.extend((0..m).map(|j| {
        if j + 1 < m {
            base_root[j + 1].sub_ref(&delta[j + 1])
        } else {
            base_root[m].clone()
        }
    }));
}

/// One solve's invariants: the circuit, its variable sets, the facts to
/// solve (root variables) and the measure whose [`PowerFold`] weighs them.
struct Problem<'a> {
    d: &'a Ddnnf,
    sets: VarSets,
    facts: Vec<usize>,
    measure: Measure,
    deadline: Option<Instant>,
}

impl<'a> Problem<'a> {
    /// The solve for every root variable, or only `var`. `None` when every
    /// requested fact is a null player (constant root, `var` not in it).
    fn new(
        d: &'a Ddnnf,
        measure: Measure,
        var: Option<usize>,
        cfg: &ExactConfig,
    ) -> Option<Problem<'a>> {
        let sets = VarSets::new(d);
        let root = d.root().index();
        let facts: Vec<usize> = match var {
            Some(v) if sets.contains(root, v) => vec![v],
            Some(_) => return None,
            None => sets.iter(root).collect(),
        };
        if facts.is_empty() {
            return None;
        }
        Some(Problem {
            d,
            sets,
            facts,
            measure,
            deadline: cfg.deadline,
        })
    }
}

/// Runs one solver on one coefficient type. Returns `(fact, value)` pairs
/// in `p.facts` order.
fn solve<C: Coeff>(
    p: &Problem,
    solver: Solver,
    passes: &'static Counter,
) -> Result<Vec<(usize, Rational)>, ShapleyTimeout> {
    let root = p.sets.slot(p.d.root().index());
    let m = p.sets.len(p.d.root().index());
    let mut dp: Dp<C> = Dp::new(p.d, &p.sets, p.deadline);
    let mut fold = PowerFold::new(p.measure, m);
    let mut gamma = Vec::new();
    let mut out = Vec::with_capacity(p.facts.len());
    match solver {
        Solver::Adjoint => {
            passes.add(2);
            debug_assert_eq!(p.facts.len(), m, "the adjoint pass solves every fact");
            let alphas = dp.base_pass()?;
            let base_root = &alphas[root];
            dp.adjoint_deltas(&alphas, |f, delta| {
                debug_assert_eq!(delta.len(), m);
                derive_gamma(base_root, delta, &mut gamma);
                out.push((f, fold.value(&gamma, delta)));
            })?;
            out.sort_unstable_by_key(|&(f, _)| f);
            debug_assert!(out.iter().map(|&(f, _)| f).eq(p.facts.iter().copied()));
        }
        Solver::PerFact(passes_kind) => {
            let reuse = passes_kind == PerFactPasses::ReuseUnaffected;
            let base = if reuse {
                passes.incr();
                Some(dp.base_pass()?)
            } else {
                None
            };
            let mut delta = Vec::new();
            let mut affected = Vec::new();
            for &f in &p.facts {
                dp.ticker.check()?;
                dp.affected_gates(f, reuse, &mut affected);
                dp.conditioned_root(f, false, base.as_deref(), &affected, &mut delta)?;
                match &base {
                    Some(b) => {
                        passes.incr();
                        derive_gamma(&b[root.clone()], &delta, &mut gamma);
                    }
                    None => {
                        passes.add(2);
                        dp.conditioned_root(f, true, None, &affected, &mut gamma)?;
                    }
                }
                debug_assert_eq!(gamma.len(), m);
                debug_assert_eq!(delta.len(), m);
                out.push((f, fold.value(&gamma, &delta)));
            }
        }
    }
    Ok(out)
}

/// The coefficient types a solve can run on, narrowest first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tier {
    Vli1,
    Vli2,
    Vli4,
    Vli8,
    Big,
}

impl Tier {
    /// The narrowest tier whose cap covers every array of a solve.
    ///
    /// The cap is the central binomial over the *widest gate's* variable
    /// count (not just the root's): the base pass evaluates every gate in
    /// the node vector, reachable or not. Conditioned passes only shrink
    /// gate sizes and the backward pass stays under `C(m, ⌊m/2⌋)` (module
    /// doc), so one cap covers every pass of the solve. An overflow in a
    /// fixed tier is therefore a cap bug and panics loudly (see
    /// `shapdb_num::vli`) instead of corrupting an exact result.
    fn for_sets(sets: &VarSets) -> Tier {
        match alpha_cap_bits(sets.widest()) {
            0..=64 => Tier::Vli1,
            65..=128 => Tier::Vli2,
            129..=256 => Tier::Vli4,
            257..=512 => Tier::Vli8,
            _ => Tier::Big,
        }
    }
}

/// Selects the coefficient tier from the solve-wide cap and runs `solver`.
fn dispatch(p: &Problem, solver: Solver) -> Result<Vec<(usize, Rational)>, ShapleyTimeout> {
    match Tier::for_sets(&p.sets) {
        Tier::Vli1 => solve::<Vli<1>>(p, solver, &NUM_VLI_HITS),
        Tier::Vli2 => solve::<Vli<2>>(p, solver, &NUM_VLI_HITS),
        Tier::Vli4 => solve::<Vli<4>>(p, solver, &NUM_VLI_HITS),
        Tier::Vli8 => solve::<Vli<8>>(p, solver, &NUM_VLI_HITS),
        Tier::Big => solve::<BigUint>(p, solver, &NUM_BIGNUM_FALLBACKS),
    }
}

/// The power index of every d-DNNF variable by `solver`.
fn power_index(
    d: &Ddnnf,
    n_endo: usize,
    cfg: &ExactConfig,
    measure: Measure,
    solver: Solver,
) -> Result<Vec<Rational>, ShapleyTimeout> {
    assert!(
        measure.is_power_index(),
        "{measure} is not a Γ/Δ power index"
    );
    let num_vars = d.num_vars();
    assert!(
        n_endo >= num_vars,
        "|D_n| = {n_endo} smaller than the {num_vars} circuit variables"
    );
    let mut out = vec![Rational::zero(); num_vars];
    if num_vars == 0 {
        return Ok(out);
    }
    // A constant lineage makes every fact a null player.
    if let Some(p) = Problem::new(d, measure, None, cfg) {
        for (f, v) in dispatch(&p, solver)? {
            out[f] = v;
        }
    }
    Ok(out)
}

/// Exact Shapley value of every d-DNNF variable (Algorithm 1 for all facts).
///
/// `n_endo` is `|D_n|`, the number of endogenous facts of the database —
/// possibly larger than the number of circuit variables; facts outside the
/// circuit are null players with value 0 (their ids are simply not returned:
/// the result has one entry per circuit variable `0..d.num_vars()`).
pub fn shapley_all_facts(
    d: &Ddnnf,
    n_endo: usize,
    cfg: &ExactConfig,
) -> Result<Vec<Rational>, ShapleyTimeout> {
    power_index_all_facts(d, n_endo, cfg, Measure::Shapley)
}

/// Exact power index (Shapley or Banzhaf) of every d-DNNF variable: one
/// forward pass and one backward pass of adjoints give every fact's
/// `f → 0` array (module doc), folded by the measure's
/// `weights::PowerFold`. Only the final `O(m)` weighting differs between
/// the two measures.
///
/// # Panics
///
/// If `measure` is not a power index (responsibility and the SHAP-score
/// have their own evaluators).
pub fn power_index_all_facts(
    d: &Ddnnf,
    n_endo: usize,
    cfg: &ExactConfig,
    measure: Measure,
) -> Result<Vec<Rational>, ShapleyTimeout> {
    power_index(d, n_endo, cfg, measure, Solver::Adjoint)
}

/// [`power_index_all_facts`] by the paper's per-fact conditioned passes:
/// the oracle the two-pass path is tested against, and the `alg1`
/// ablation bench's `paper_full_recompute` / `reuse_unaffected` columns.
/// Values are bit-identical to [`power_index_all_facts`].
///
/// # Panics
///
/// As [`power_index_all_facts`].
pub fn power_index_per_fact(
    d: &Ddnnf,
    n_endo: usize,
    cfg: &ExactConfig,
    measure: Measure,
    passes: PerFactPasses,
) -> Result<Vec<Rational>, ShapleyTimeout> {
    power_index(d, n_endo, cfg, measure, Solver::PerFact(passes))
}

/// Exact Shapley value of a single variable (Algorithm 1: the
/// `ComputeAll#SATk` passes and the Equation (3) sum). It runs one
/// conditioned pass over the gates containing `var`, with the `f → 1`
/// array derived from the base pass (see `derive_gamma`): for one fact
/// that is cheaper than a full backward pass.
pub fn shapley_single_fact(
    d: &Ddnnf,
    n_endo: usize,
    var: usize,
    cfg: &ExactConfig,
) -> Result<Rational, ShapleyTimeout> {
    let num_vars = d.num_vars();
    assert!(var < num_vars.max(1), "variable out of range");
    assert!(
        n_endo >= num_vars,
        "|D_n| = {n_endo} smaller than the {num_vars} circuit variables"
    );
    if num_vars == 0 {
        return Ok(Rational::zero());
    }
    let Some(p) = Problem::new(d, Measure::Shapley, Some(var), cfg) else {
        return Ok(Rational::zero());
    };
    let result = dispatch(&p, Solver::PerFact(PerFactPasses::ReuseUnaffected))?;
    Ok(result.into_iter().next().expect("one fact solved").1)
}

/// `ComputeAll#SATk` of Algorithm 1: the `#SAT_k` array of the root over all
/// `num_vars` variables (gap-completed). Exposed for tests and the
/// Proposition 3.1 cross-check.
pub fn sat_k_all(d: &Ddnnf) -> Vec<BigUint> {
    let sets = VarSets::new(d);
    let mut dp: Dp<BigUint> = Dp::new(d, &sets, None);
    let base = dp.base_pass().expect("no deadline set");
    let root = d.root().index();
    let m = sets.len(root);
    let gap = d.num_vars() - m;
    let mut binomials = BinomialTable::new();
    let row = binomials.row(gap);
    let mut out = vec![BigUint::zero(); d.num_vars() + 1];
    for (j, a) in base[sets.slot(root)].iter().enumerate() {
        if a.is_zero() {
            continue;
        }
        for (dgap, c) in row.iter().enumerate() {
            out[j + dgap] += &(a * c);
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // parallel-array comparisons read better indexed
mod tests {
    use super::*;
    use crate::naive::{sat_k_bruteforce, shapley_naive};
    use crate::weights::oracle;
    use proptest::prelude::*;
    use shapdb_circuit::{fingerprint, Circuit, Dnf, Lit, VarId};
    use shapdb_kc::ddnnf::{DdnnfBuilder, NodeIdx};
    use shapdb_kc::{compile_circuit_topdown, compile_negation, Budget};
    use shapdb_metrics::Profile;
    use shapdb_num::Bitset;
    use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
    use std::sync::Arc;

    const PER_FACT: [PerFactPasses; 2] =
        [PerFactPasses::ReuseUnaffected, PerFactPasses::FullRecompute];

    /// Compiles a DNF over dense vars 0..n into a projected d-DNNF
    /// (Tseytin → compile → project).
    fn compile_dnf(d: &Dnf, n: usize) -> Ddnnf {
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let comp = compile_circuit_topdown(&c, root, &Budget::unlimited(), None).unwrap();
        // Re-embed into the dense 0..n space: the compiler returns vars in
        // sorted order of appearance; map them back.
        let mapping: Vec<usize> = comp.fact_vars.iter().map(|v| v.index()).collect();
        remap(&comp.ddnnf, &mapping, n)
    }

    /// Compiles the negation `¬F` of a DNF over dense vars 0..n from its
    /// negation CNF: a circuit of a different shape (no projection) for
    /// the oracle comparisons that hold on any d-DNNF.
    fn compile_negated_dnf(d: &Dnf, n: usize) -> Ddnnf {
        let comp = compile_negation(d, &Budget::unlimited(), None).unwrap();
        let mapping: Vec<usize> = comp.fact_vars.iter().map(|v| v.index()).collect();
        remap(&comp.ddnnf, &mapping, n)
    }

    /// Remaps d-DNNF variables through `mapping` into a space of `n` vars.
    fn remap(d: &Ddnnf, mapping: &[usize], n: usize) -> Ddnnf {
        let nodes = d
            .nodes()
            .iter()
            .map(|nd| match nd {
                DNode::Lit(l) => {
                    let v = mapping[l.var()];
                    DNode::Lit(if l.is_positive() {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    })
                }
                other => other.clone(),
            })
            .collect();
        Ddnnf::new(nodes, d.root(), n)
    }

    fn running_example_dnf() -> Dnf {
        let mut d = Dnf::new();
        d.add_conjunct(vec![VarId(0)]);
        for pair in [[1u32, 3], [1, 4], [2, 3], [2, 4], [5, 6]] {
            d.add_conjunct(pair.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// Balanced ∧-tree over `(xᵢ ∨ yᵢ)` decision gadgets: a fully symmetric
    /// monotone game over `2·pairs` variables, so by symmetry + efficiency
    /// every Shapley value is exactly `1/(2·pairs)`.
    fn symmetric_tree(pairs: usize) -> Ddnnf {
        symmetric_over(2 * pairs)
    }

    fn symmetric_gadgets(b: &mut DdnnfBuilder, pairs: usize) -> NodeIdx {
        let mut layer: Vec<NodeIdx> = (0..pairs)
            .map(|i| {
                let (x, y) = (2 * i, 2 * i + 1);
                let hi = b.lit(Lit::pos(x));
                let nx = b.lit(Lit::neg(x));
                let py = b.lit(Lit::pos(y));
                let lo = b.and([nx, py]);
                b.decision(x, hi, lo)
            })
            .collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        b.and([c[0], c[1]])
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        layer[0]
    }

    /// The symmetric tree over `n` variables; for odd `n`, the tree over
    /// `n − 1` conjoined with a `(z ∨ ¬z)` null player `z = n − 1`.
    fn symmetric_over(n: usize) -> Ddnnf {
        let mut b = DdnnfBuilder::new();
        let mut root = symmetric_gadgets(&mut b, n / 2);
        if n % 2 == 1 {
            let z = n - 1;
            let (hi, lo) = (b.lit(Lit::pos(z)), b.lit(Lit::neg(z)));
            let taut = b.decision(z, hi, lo);
            root = b.and([root, taut]);
        }
        b.finish(root, n)
    }

    /// A tautology over `n` named variables: ∧ of `(xᵢ ∨ ¬xᵢ)` decisions.
    /// Its base-pass root α is exactly Pascal's row `C(n, ·)` — the circuit
    /// whose coefficients *reach* the tier cap.
    fn tautology_over(n: usize) -> Ddnnf {
        let mut b = DdnnfBuilder::new();
        let gates: Vec<NodeIdx> = (0..n)
            .map(|v| {
                let hi = b.lit(Lit::pos(v));
                let lo = b.lit(Lit::neg(v));
                b.decision(v, hi, lo)
            })
            .collect();
        let root = b.and(gates);
        b.finish(root, n)
    }

    /// Every root fact of `d` as a solve on exactly the tier `C`, by
    /// `solver` (Shapley weights).
    fn solve_on<C: Coeff>(d: &Ddnnf, solver: Solver) -> Vec<(usize, Rational)> {
        solve_facts_on::<C>(d, solver, None)
    }

    /// As [`solve_on`], restricted to `facts` when given.
    fn solve_facts_on<C: Coeff>(
        d: &Ddnnf,
        solver: Solver,
        facts: Option<&[usize]>,
    ) -> Vec<(usize, Rational)> {
        let mut p = Problem::new(d, Measure::Shapley, None, &ExactConfig::default()).unwrap();
        if let Some(facts) = facts {
            p.facts = facts.to_vec();
        }
        solve::<C>(&p, solver, &NUM_VLI_HITS).unwrap()
    }

    /// Asserts the two-pass values equal both per-fact oracle forms and the
    /// `2^n` enumeration of `d`'s own function, for both power indices.
    fn assert_adjoint_matches_oracles(name: &str, d: &Ddnnf, n_endo: usize) {
        let cfg = ExactConfig::default();
        let f = |s: &Bitset| d.eval_set(s);
        let naive = shapley_naive(&f, n_endo);
        for measure in [Measure::Shapley, Measure::Banzhaf] {
            let got = power_index_all_facts(d, n_endo, &cfg, measure).unwrap();
            for passes in PER_FACT {
                let oracle = power_index_per_fact(d, n_endo, &cfg, measure, passes).unwrap();
                assert_eq!(
                    got, oracle,
                    "{name}, n_endo={n_endo}: {measure} vs {passes:?}"
                );
            }
            if measure == Measure::Shapley {
                assert_eq!(&got[..], &naive[..d.num_vars()], "{name}, n_endo={n_endo}");
            }
        }
    }

    #[test]
    fn example_2_1_via_algorithm_1() {
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        // n_endo = 8 (a8 exists but is not in the lineage).
        let values = shapley_all_facts(&dd, 8, &ExactConfig::default()).unwrap();
        assert_eq!(values[0], Rational::from_ratio(43, 105));
        for i in 1..=4 {
            assert_eq!(values[i], Rational::from_ratio(23, 210), "a{}", i + 1);
        }
        assert_eq!(values[5], Rational::from_ratio(8, 105));
        assert_eq!(values[6], Rational::from_ratio(8, 105));
    }

    #[test]
    fn banzhaf_through_the_same_dp_matches_oracles() {
        // The identical Γ/Δ passes under uniform weights: cross-check the
        // Algorithm-1 route against both the WMC-based circuit evaluator and
        // the 2ⁿ enumeration oracle.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let f = |s: &Bitset| dnf.eval_set(s);
        let naive = crate::banzhaf::banzhaf_naive(&f, 7);
        let wmc = crate::banzhaf::banzhaf_all_facts(&dd);
        let cfg = ExactConfig::default();
        // n_endo = 9 > m = 7: Banzhaf is |D_n|-insensitive.
        let dp = power_index_all_facts(&dd, 9, &cfg, Measure::Banzhaf).unwrap();
        assert_eq!(dp, naive);
        assert_eq!(dp, wmc);
        assert_eq!(dp[0], Rational::from_ratio(21, 64));
    }

    #[test]
    fn both_variants_agree_with_naive() {
        // The two-pass path and both forms of the paper's per-fact passes.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let f = |s: &Bitset| dnf.eval_set(s);
        let expect = shapley_naive(&f, 8);
        let cfg = ExactConfig::default();
        let got = shapley_all_facts(&dd, 8, &cfg).unwrap();
        assert_eq!(&got[..], &expect[..7], "adjoint");
        for passes in PER_FACT {
            let got = power_index_per_fact(&dd, 8, &cfg, Measure::Shapley, passes).unwrap();
            assert_eq!(&got[..], &expect[..7], "{passes:?}");
        }
    }

    #[test]
    fn every_coefficient_tier_computes_identical_values() {
        // The running example dispatches to Vli<1> (7 vars); force each
        // wider tier and the BigUint fallback through every solver and
        // pin bit-identical rationals.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let strategies = [
            Solver::Adjoint,
            Solver::PerFact(PerFactPasses::ReuseUnaffected),
            Solver::PerFact(PerFactPasses::FullRecompute),
        ];
        let reference = solve_on::<BigUint>(&dd, Solver::Adjoint);
        assert_eq!(reference[0].1, Rational::from_ratio(43, 105));
        for s in strategies {
            assert_eq!(solve_on::<Vli<1>>(&dd, s), reference, "vli1 {s:?}");
            assert_eq!(solve_on::<Vli<2>>(&dd, s), reference, "vli2 {s:?}");
            assert_eq!(solve_on::<Vli<4>>(&dd, s), reference, "vli4 {s:?}");
            assert_eq!(solve_on::<Vli<8>>(&dd, s), reference, "vli8 {s:?}");
            assert_eq!(solve_on::<BigUint>(&dd, s), reference, "big {s:?}");
        }
    }

    #[test]
    fn cap_boundary_routes_to_wider_tier() {
        // C(67,33) fills exactly 64 bits; C(68,34) needs 65. The tautology
        // over n vars *reaches* C(n, n/2) in its base pass, so a one-bit
        // error in the cap is not survivable — pin the boundary and prove
        // the narrow tier really does overflow where the cap says it would.
        assert_eq!(alpha_cap_bits(67), 64);
        assert_eq!(alpha_cap_bits(68), 65);
        let dd = tautology_over(68);
        assert_eq!(Tier::for_sets(&VarSets::new(&dd)), Tier::Vli2);
        // The public path must route to Vli<2> and solve exactly: every
        // fact of a tautology is a null player.
        let values = shapley_all_facts(&dd, 68, &ExactConfig::default()).unwrap();
        assert!(values.iter().all(|v| v.is_zero()));
        // Mis-routing the same circuit to the 1-limb tier must panic
        // (loud overflow, never silent corruption), on either path.
        for s in [
            Solver::Adjoint,
            Solver::PerFact(PerFactPasses::ReuseUnaffected),
        ] {
            // The per-fact oracle on one fact; the adjoint pass solves all.
            let facts = (s != Solver::Adjoint).then_some(&[0][..]);
            let err = std::panic::catch_unwind(|| solve_facts_on::<Vli<1>>(&dd, s, facts));
            assert!(err.is_err(), "64-bit tier must overflow at C(68,34): {s:?}");
        }
    }

    #[test]
    fn tier_boundaries_keep_both_passes_on_one_tier_and_bit_identical() {
        // At every fixed-limb boundary, the widest circuit the narrower tier
        // admits and the narrowest the wider tier needs. The forward pass
        // picks the tier; the backward pass runs on that same type (one
        // generic solve) and must neither overflow nor move a value.
        let boundaries = [
            (67, Tier::Vli1),
            (68, Tier::Vli2),
            (131, Tier::Vli2),
            (132, Tier::Vli4),
            (260, Tier::Vli4),
            (261, Tier::Vli8),
            (516, Tier::Vli8),
            (517, Tier::Big),
        ];
        for (n, tier) in boundaries {
            for (name, dd) in [
                ("tautology", tautology_over(n)),
                ("symmetric", symmetric_over(n)),
            ] {
                let sets = VarSets::new(&dd);
                assert_eq!(Tier::for_sets(&sets), tier, "{name} n={n}");
                let values = shapley_all_facts(&dd, n, &ExactConfig::default()).unwrap();
                let pairs = 2 * (n / 2);
                for (v, x) in values.iter().enumerate() {
                    let expect = if name == "symmetric" && v < pairs {
                        Rational::from_ratio(1, pairs as u64)
                    } else {
                        Rational::zero()
                    };
                    assert_eq!(x, &expect, "{name} n={n} var {v}");
                }
                // Bit-identical to the per-fact oracle on the first, a
                // middle and the last fact (the oracle is quadratic in the
                // fact count on the flat tautology).
                let facts = [0, n / 2, n - 1];
                let oracle = solve_facts_on::<BigUint>(
                    &dd,
                    Solver::PerFact(PerFactPasses::ReuseUnaffected),
                    Some(&facts),
                );
                for (f, x) in oracle {
                    assert_eq!(values[f], x, "{name} n={n} fact {f}");
                }
            }
        }
    }

    /// `⋁` of disjoint conjunctions of 1, 2 and 3 facts over `n` facts,
    /// compiled from its negation CNF: a circuit with distinct Shapley
    /// values at any width.
    fn disjoint_blocks(n: usize) -> Ddnnf {
        let mut d = Dnf::new();
        let (mut next, mut size) = (0, 1);
        while next < n {
            let end = (next + size).min(n);
            d.add_conjunct((next..end).map(|v| VarId(v as u32)).collect());
            next = end;
            size = size % 3 + 1;
        }
        compile_negated_dnf(&d, n)
    }

    /// Every fact's kernel value from the adjoint pass on tier `C` against
    /// the `BigUint` oracle fold of the same `Γ/Δ`, for both power indices.
    fn assert_fold_matches_oracle<C: Coeff>(d: &Ddnnf) {
        let sets = VarSets::new(d);
        let root = d.root().index();
        let m = sets.len(root);
        for measure in [Measure::Shapley, Measure::Banzhaf] {
            let (weights, denom) = oracle::power_weights(measure, m);
            let mut fold = PowerFold::new(measure, m);
            let mut dp: Dp<C> = Dp::new(d, &sets, None);
            let alphas = dp.base_pass().unwrap();
            let base_root = &alphas[sets.slot(root)];
            let (mut gamma, mut facts) = (Vec::new(), 0);
            dp.adjoint_deltas(&alphas, |f, delta| {
                derive_gamma(base_root, delta, &mut gamma);
                let expect = oracle::weighted_difference(&gamma, delta, &weights, &denom);
                assert_eq!(
                    fold.value(&gamma, delta),
                    expect,
                    "{measure} m={m} fact {f}"
                );
                facts += 1;
            })
            .unwrap();
            assert_eq!(facts, m);
        }
    }

    /// [`assert_fold_matches_oracle`] on the tier a solve of `d` takes.
    fn assert_fold_matches_oracle_on_its_tier(d: &Ddnnf) {
        match Tier::for_sets(&VarSets::new(d)) {
            Tier::Vli1 => assert_fold_matches_oracle::<Vli<1>>(d),
            Tier::Vli2 => assert_fold_matches_oracle::<Vli<2>>(d),
            Tier::Vli4 => assert_fold_matches_oracle::<Vli<4>>(d),
            Tier::Vli8 => assert_fold_matches_oracle::<Vli<8>>(d),
            Tier::Big => assert_fold_matches_oracle::<BigUint>(d),
        }
    }

    #[test]
    fn fold_matches_the_oracle_at_the_fold_and_tier_boundaries() {
        // u128 fold → limbs at 28/29 (Shapley) and 127/128 (Banzhaf);
        // coefficient tiers at 67/68, 131/132 and 260/261.
        for n in [7, 28, 29, 67, 68, 127, 128, 131, 132, 260, 261] {
            assert_fold_matches_oracle_on_its_tier(&disjoint_blocks(n));
            assert_fold_matches_oracle_on_its_tier(&symmetric_over(n));
        }
    }

    #[test]
    #[ignore = "BigUint-tier circuits; run by `make test-release-wide`"]
    fn fold_matches_the_oracle_at_the_widest_tier_boundary() {
        for n in [516, 517] {
            assert_fold_matches_oracle_on_its_tier(&disjoint_blocks(n));
            assert_fold_matches_oracle_on_its_tier(&symmetric_over(n));
        }
    }

    #[test]
    fn adjoint_deltas_of_a_tautology_are_pascal_rows() {
        // A tautology's f → 0 array over the other n − 1 variables is
        // C(n − 1, ·): the backward pass's largest adjoints meet that bound,
        // here on the top of the 2-limb tier.
        let n = 131;
        let dd = tautology_over(n);
        let sets = VarSets::new(&dd);
        assert_eq!(Tier::for_sets(&sets), Tier::Vli2);
        let mut dp: Dp<Vli<2>> = Dp::new(&dd, &sets, None);
        let alphas = dp.base_pass().unwrap();
        let row: Vec<Vli<2>> = BinomialTable::new()
            .row(n - 1)
            .iter()
            .map(Vli::from_biguint)
            .collect();
        let mut finished = Vec::new();
        let slots = dp
            .adjoint_deltas(&alphas, |f, delta| {
                assert_eq!(delta, &row[..], "fact {f}");
                finished.push(f);
            })
            .unwrap();
        finished.sort_unstable();
        assert_eq!(finished, (0..n).collect::<Vec<_>>(), "each fact once");
        // An adjoint's slot is reused once its parents are done: the peak
        // is the root's n children in flight, not one slot per gate (each
        // child's slot passes to its `δ`).
        assert_eq!(slots, n);
        assert_eq!(dd.len(), 3 * n + 1);
    }

    /// `d` from raw nodes (children before parents), bypassing the builder's
    /// normalization so ⊥ children and unreachable gates survive.
    fn raw(nodes: Vec<DNode>, root: u32, num_vars: usize) -> Ddnnf {
        Ddnnf::new(nodes, NodeIdx(root), num_vars)
    }

    fn and(cs: &[u32]) -> DNode {
        DNode::And(cs.iter().map(|&c| NodeIdx(c)).collect())
    }

    fn or(cs: &[u32]) -> DNode {
        DNode::Or(cs.iter().map(|&c| NodeIdx(c)).collect(), None)
    }

    #[test]
    fn hand_built_edge_cases_match_the_oracles() {
        let (x0, nx0) = (DNode::Lit(Lit::pos(0)), DNode::Lit(Lit::neg(0)));
        let (x1, nx1) = (DNode::Lit(Lit::pos(1)), DNode::Lit(Lit::neg(1)));
        let nx2 = DNode::Lit(Lit::neg(2));
        let cases: Vec<(&str, Ddnnf)> = vec![
            // x0 ∨ (⊥ ∧ ¬x1): the ∧ with a ⊥ child is zero, so its ¬x1
            // occurrence contributes nothing; x1 is a gap variable of x0.
            (
                "and with a false child",
                raw(
                    vec![
                        x0.clone(),
                        DNode::False,
                        nx1.clone(),
                        and(&[1, 2]),
                        or(&[0, 3]),
                    ],
                    4,
                    2,
                ),
            ),
            // ¬x0 ∨ (unsat ∨ unsat) where both unsatisfiable children
            // share a ¬x1 leaf.
            (
                "or of unsatisfiable children",
                raw(
                    vec![
                        nx1.clone(),
                        DNode::False,
                        and(&[1, 0]),
                        and(&[0, 1]),
                        or(&[2, 3]),
                        nx0.clone(),
                        DNode::Lit(Lit::pos(1)),
                        and(&[5, 6]),
                        or(&[4, 7]),
                    ],
                    8,
                    2,
                ),
            ),
            // Gates below and above the root that no path reaches, one of
            // them wider than the root.
            (
                "unreachable nodes",
                raw(
                    vec![
                        nx0.clone(),
                        x1.clone(),
                        nx2.clone(),
                        and(&[0, 1, 2]),
                        x0.clone(),
                        or(&[4, 0]),
                        and(&[5, 1]),
                        and(&[6, 2]),
                    ],
                    6,
                    3,
                ),
            ),
            ("single positive literal root", raw(vec![x0.clone()], 0, 1)),
            ("single negated literal root", raw(vec![nx0.clone()], 0, 2)),
            (
                "negated-only lineage",
                raw(vec![nx0.clone(), nx1.clone(), nx2, and(&[0, 1, 2])], 3, 3),
            ),
            (
                "negated-only disjunction",
                raw(vec![nx0.clone(), x0, nx1, and(&[1, 2]), or(&[0, 3])], 4, 2),
            ),
            (
                "constant true root",
                raw(vec![DNode::True, x1.clone()], 0, 2),
            ),
            ("constant false root", raw(vec![x1, DNode::False], 1, 2)),
        ];
        for (name, dd) in &cases {
            dd.verify_decomposable().unwrap();
            for extra in [0, 2] {
                assert_adjoint_matches_oracles(name, dd, dd.num_vars() + extra);
            }
        }
    }

    #[test]
    fn conditioned_gate_over_only_the_fact_shrinks_to_one_coefficient() {
        // x1 ∨ (¬x1 ∧ x0 ∧ x2), whose x1 branch carries x0 in the
        // tautology (x0 ∨ ¬x0): gate 2's variable set is exactly {x0}.
        let nodes = vec![
            DNode::Lit(Lit::pos(0)),
            DNode::Lit(Lit::neg(0)),
            or(&[0, 1]),
            DNode::Lit(Lit::pos(1)),
            and(&[2, 3]),
            DNode::Lit(Lit::neg(1)),
            DNode::Lit(Lit::pos(2)),
            and(&[5, 0, 6]),
            or(&[4, 7]),
        ];
        let dd = raw(nodes, 8, 3);
        dd.verify_decomposable().unwrap();
        let sets = VarSets::new(&dd);
        assert_eq!(sets.len(2), 1);
        let mut dp: Dp<Vli<1>> = Dp::new(&dd, &sets, None);
        let base = dp.base_pass().unwrap();
        let (mut affected, mut root) = (Vec::new(), Vec::new());
        // φ[x0 → b] over {x1, x2}: x1 (b = 0), x1 ∨ x2 (b = 1).
        for (b, expect) in [(false, [0, 1, 1]), (true, [0, 2, 1])] {
            for reuse in [true, false] {
                dp.affected_gates(0, reuse, &mut affected);
                let base = reuse.then_some(&base[..]);
                dp.conditioned_root(0, b, base, &affected, &mut root)
                    .unwrap();
                // Gate 2's slot has room for α over {x0}; conditioned, its
                // array is the first coefficient: ⊤ over no variables.
                assert_eq!(sets.slot(2).len(), 2);
                assert_eq!(dp.cond[sets.slot(2).start], Vli::one(), "b={b}");
                let expect: Vec<Vli<1>> = expect.iter().map(|&x| Vli::from_u64(x)).collect();
                assert_eq!(root, expect, "b={b} reuse={reuse}");
            }
        }
        for extra in [0, 2] {
            assert_adjoint_matches_oracles("gate over only the fact", &dd, 3 + extra);
        }
    }

    /// Every distinct non-read-once answer structure of a JOB database,
    /// compiled from its negation CNF as the KC route compiles it, and the
    /// database's `|D_n|`.
    fn job_structures(cfg: &JobConfig) -> (Vec<Ddnnf>, usize) {
        let db = job_database(cfg);
        let mut seen = std::collections::HashSet::new();
        let mut structures = Vec::new();
        for answer in &shapdb_query::evaluate(&job_ranking_query(), &db).outputs {
            let fp = fingerprint(&answer.endo_lineage(&db));
            if fp.tree().is_none() && seen.insert(fp.shared_key()) {
                let c = compile_negation(&fp.canonical_dnf(), &Budget::unlimited(), None).unwrap();
                structures.push(c.ddnnf);
            }
        }
        (structures, db.num_endogenous())
    }

    /// The adjoint pass against the paper's per-fact full recomputation on
    /// every structure, for both power indices.
    fn assert_adjoint_matches_full_recompute(structures: &[Ddnnf], n_endo: usize) {
        let cfg = ExactConfig::default();
        for (i, d) in structures.iter().enumerate() {
            for measure in [Measure::Shapley, Measure::Banzhaf] {
                let got = power_index_all_facts(d, n_endo, &cfg, measure).unwrap();
                let oracle =
                    power_index_per_fact(d, n_endo, &cfg, measure, PerFactPasses::FullRecompute)
                        .unwrap();
                assert_eq!(
                    got,
                    oracle,
                    "structure {i} ({} vars), {measure}",
                    d.num_vars()
                );
            }
        }
    }

    #[test]
    fn job_smoke_structures_match_the_full_recompute_oracle() {
        let (structures, n_endo) = job_structures(&JobConfig::smoke());
        assert!(structures.len() >= 20, "{} structures", structures.len());
        assert_adjoint_matches_full_recompute(&structures, n_endo);
    }

    #[test]
    #[ignore = "~1,400 structures; run by `make test-release-wide`"]
    fn job_explain_structures_match_the_full_recompute_oracle() {
        // The `job-explain` database: every KC structure it routes, 8–35
        // variables each.
        let (structures, n_endo) = job_structures(&JobConfig {
            movies: 2_000,
            ..JobConfig::default()
        });
        assert!(structures.len() > 1_000, "{} structures", structures.len());
        assert_adjoint_matches_full_recompute(&structures, n_endo);
    }

    #[test]
    fn unsatisfiable_gates_never_carry_an_adjoint() {
        // ⊥ ∧ ¬x0, then 70 levels of ∨(u, u) over it, all unsatisfiable and
        // (vacuously) deterministic; the root is x0 ∨ u70. Without the
        // zero-α skip the bottom gate's adjoint would be 2^70 and overflow
        // the 64-bit tier this one-variable circuit runs on.
        let mut nodes = vec![DNode::False, DNode::Lit(Lit::neg(0)), and(&[0, 1])];
        for _ in 0..70 {
            let u = nodes.len() as u32 - 1;
            nodes.push(or(&[u, u]));
        }
        let u = nodes.len() as u32 - 1;
        nodes.push(DNode::Lit(Lit::pos(0)));
        nodes.push(or(&[u + 1, u]));
        let root = nodes.len() as u32 - 1;
        let dd = raw(nodes, root, 1);
        assert_eq!(Tier::for_sets(&VarSets::new(&dd)), Tier::Vli1);
        assert_eq!(
            solve_on::<Vli<1>>(&dd, Solver::Adjoint),
            vec![(0, Rational::one())]
        );
        assert_adjoint_matches_oracles("unsatisfiable chain", &dd, 3);
    }

    #[test]
    fn symmetric_game_values_are_exact_at_vli_tiers() {
        // 64 variables: cap C(64,32) is 61 bits → the u64 tier end-to-end.
        let dd = symmetric_tree(32);
        let profile = Arc::new(Profile::new());
        let _scope = profile.enter();
        let values = shapley_all_facts(&dd, 64, &ExactConfig::default()).unwrap();
        assert_eq!(values.len(), 64);
        for v in &values {
            assert_eq!(v, &Rational::from_ratio(1, 64));
        }
        assert_eq!(
            profile.get(&NUM_VLI_HITS),
            2,
            "base + adjoint pass on the u64 tier"
        );
        assert_eq!(profile.get(&NUM_BIGNUM_FALLBACKS), 0);
    }

    #[test]
    fn forced_ntt_convolution_is_bit_identical() {
        // Route every wide convolution of both passes through NTT/CRT and
        // pin the paper's exact rationals and the oracle; restore the cost
        // model afterwards.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let wide = symmetric_tree(24);
        let cfg = ExactConfig::default();
        ntt::set_ntt_policy(ntt::NttPolicy::Force);
        let forced = shapley_all_facts(&dd, 8, &cfg);
        let forced_wide = shapley_all_facts(&wide, 48, &cfg);
        ntt::set_ntt_policy(ntt::NttPolicy::Auto);
        let values = forced.unwrap();
        assert_eq!(values[0], Rational::from_ratio(43, 105));
        assert_eq!(values[5], Rational::from_ratio(8, 105));
        let oracle = power_index_per_fact(
            &wide,
            48,
            &cfg,
            Measure::Shapley,
            PerFactPasses::ReuseUnaffected,
        );
        assert_eq!(forced_wide.unwrap(), oracle.unwrap());
    }

    #[test]
    fn single_fact_matches_all_facts() {
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let all = shapley_all_facts(&dd, 8, &ExactConfig::default()).unwrap();
        for v in 0..7 {
            let one = shapley_single_fact(&dd, 8, v, &ExactConfig::default()).unwrap();
            assert_eq!(one, all[v], "var {v}");
        }
    }

    #[test]
    fn sat_k_dp_matches_bruteforce() {
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let f = |s: &Bitset| dnf.eval_set(s);
        let expect = sat_k_bruteforce(&f, 7);
        assert_eq!(sat_k_all(&dd), expect);
    }

    #[test]
    fn constant_lineage_gives_zeros() {
        // ⊤ lineage: certain tuple, all facts null players.
        let mut b = DdnnfBuilder::new();
        let root = b.true_node();
        let dd = b.finish(root, 3);
        let values = shapley_all_facts(&dd, 5, &ExactConfig::default()).unwrap();
        assert!(values.iter().all(|v| v.is_zero()));
    }

    #[test]
    fn timeout_surfaces() {
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let cfg = ExactConfig {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        assert_eq!(shapley_all_facts(&dd, 8, &cfg), Err(ShapleyTimeout));
        for passes in PER_FACT {
            let r = power_index_per_fact(&dd, 8, &cfg, Measure::Shapley, passes);
            assert_eq!(r, Err(ShapleyTimeout), "{passes:?}");
        }
        assert_eq!(shapley_single_fact(&dd, 8, 0, &cfg), Err(ShapleyTimeout));
    }

    #[test]
    fn expired_deadline_stops_the_backward_pass() {
        // The forward pass finishes before the deadline passes; the
        // backward pass must then surface the timeout itself.
        let dd = symmetric_tree(16);
        let sets = VarSets::new(&dd);
        let mut dp: Dp<Vli<1>> = Dp::new(&dd, &sets, None);
        let alphas = dp.base_pass().unwrap();
        dp.ticker.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        let r = dp.adjoint_deltas(&alphas, |_, _| {});
        assert_eq!(r, Err(ShapleyTimeout));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_algorithm_1_matches_naive(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..7, 1..4), 1..6),
            extra in 0usize..3,
        ) {
            let mut dnf = Dnf::new();
            for c in &conjuncts {
                dnf.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let n_vars = 7;
            let n_endo = n_vars + extra;
            let dd = compile_dnf(&dnf, n_vars);
            let f = |s: &Bitset| dnf.eval_set(s);
            let expect = shapley_naive(&f, n_endo);
            let got = shapley_all_facts(&dd, n_endo, &ExactConfig::default()).unwrap();
            for v in 0..n_vars {
                prop_assert_eq!(&got[v], &expect[v], "var {}", v);
            }
            // Facts beyond the circuit are null players in the ground truth.
            for v in n_vars..n_endo {
                prop_assert!(expect[v].is_zero());
            }
        }

        #[test]
        fn prop_adjoint_matches_per_fact_oracle(
            conjuncts in proptest::collection::vec(
                proptest::collection::vec(0u32..10, 1..5), 1..9),
            extra in 1usize..4,
            negated in any::<bool>(),
        ) {
            let mut dnf = Dnf::new();
            for c in &conjuncts {
                dnf.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let n_vars = 10;
            let dd = if negated {
                compile_negated_dnf(&dnf, n_vars)
            } else {
                compile_dnf(&dnf, n_vars)
            };
            // n_endo > m: null players outside the circuit.
            let n_endo = n_vars + extra;
            let cfg = ExactConfig::default();
            for measure in [Measure::Shapley, Measure::Banzhaf] {
                let got = power_index_all_facts(&dd, n_endo, &cfg, measure).unwrap();
                for passes in PER_FACT {
                    let oracle = power_index_per_fact(&dd, n_endo, &cfg, measure, passes).unwrap();
                    prop_assert_eq!(&got, &oracle, "{} {:?}", measure, passes);
                }
            }
        }
    }
}
