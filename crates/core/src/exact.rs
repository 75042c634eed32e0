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
//! per-gate arrays `α_g[ℓ] = #SAT_ℓ(φ_g)`; n-ary gates are handled directly
//! (sequential convolution at ∧, binomial gap-expansion at ∨) instead of the
//! paper's fan-in-2 preprocessing — the result is identical and avoids
//! materializing the rewritten circuit. Two deviations from the letter of the
//! paper, both behaviour-preserving and noted in DESIGN.md:
//!
//! * the "complete the circuit so `Vars = D_n`" step (Line 1 of Algorithm 1)
//!   is folded into the final weights instead of adding `(f' ∨ ¬f')` gates:
//!   a variable absent from the circuit multiplies `#SAT_k` by `C(gap, ·)`,
//!   which we absorb into `w_j = Σ_d (j+d)!(n-j-d-1)!·C(gap,d) / n!`;
//! * conditioning `C[f→b]` happens inside the DP (the literal's array
//!   becomes `[1]`/`[0]`) rather than by rebuilding the circuit.
//!
//! With [`ExactConfig::reuse_unaffected`] the per-fact passes recompute only
//! gates whose variable set contains `f`, reusing a shared unconditioned
//! pass for the rest — an optimization the paper leaves on the table; the
//! ablation bench quantifies it. The same shared pass makes the `f → 1`
//! pass redundant outright: every size-`j` satisfying subset of the root
//! either contains `f` or it does not, so `α[j] = δ[j] + γ[j−1]` and the
//! `γ` array falls out of the base and `f → 0` arrays by subtraction
//! (`derive_gamma`) — one conditioned pass per fact instead of two.
//!
//! # Arithmetic substrate
//!
//! The DP is generic over [`Coeff`]: every α value (and every intermediate
//! of the ∧/∨ loops — each is a partial sum of non-negative terms of an α
//! value) is bounded by the central binomial over the widest gate's
//! variable count ([`alpha_cap_bits`]), so when that cap fits 1/2/4/8
//! 64-bit limbs the whole computation runs on stack [`Vli`] integers
//! instead of heap bignums (`num.vli_hits` vs `num.bignum_fallbacks`
//! count the routing). Wide ∧-gate convolutions additionally route through
//! the exact NTT/CRT path ([`shapdb_num::ntt`]) past an autotuned
//! crossover. The per-fact conditioned passes are independent, so
//! [`ExactConfig::threads`] fans them across scoped workers. All three
//! substrate choices are bit-exact: results are identical rationals at any
//! setting.

use crate::engine::stages::parallel_map;
use crate::measure::Measure;
use crate::weights::{completion_weights, power_weights, weighted_difference};
use shapdb_kc::{DNode, Ddnnf};
use shapdb_metrics::counters::{Counter, NUM_BIGNUM_FALLBACKS, NUM_VLI_HITS};
use shapdb_num::{
    combinatorics::{alpha_cap_bits, BinomialTable, FactorialTable},
    ntt, BigUint, Bitset, Coeff, Rational, Vli,
};
// `BinomialTable` backs the per-gate ∨ expansion in `Dp`; `FactorialTable`
// backs the closed-form weights.
use std::time::Instant;

/// Configuration for the exact computation.
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Reuse the unconditioned DP for gates not containing the conditioned
    /// fact (faster, same results). Disable to measure the paper's plain
    /// `O(|C|·n²)`-per-fact behaviour.
    pub reuse_unaffected: bool,
    /// Cooperative deadline (checked between facts and gate batches).
    pub deadline: Option<Instant>,
    /// Worker threads for the per-fact conditioned passes (≤ 1 keeps the
    /// fully sequential order). Results are bit-identical at any setting —
    /// the passes are independent and exact.
    pub threads: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            reuse_unaffected: true,
            deadline: None,
            threads: 1,
        }
    }
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

/// Per-gate `α` arrays for one pass. `alphas[g][ℓ] = #SAT_ℓ(φ_g)`.
type Alphas<C> = Vec<Vec<C>>;

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
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    return Err(ShapleyTimeout);
                }
            }
        }
        Ok(())
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

/// Where a gate's children find their `α` arrays — a borrowing view instead
/// of the per-child `Vec` clones the old closure-based lookup made.
enum Lookup<'x, C> {
    /// Base pass: children resolved from the already-computed prefix.
    Prefix(&'x [Vec<C>]),
    /// Conditioned pass: per-gate overrides (empty = not recomputed),
    /// falling back to the unconditioned base arrays.
    Cond {
        cond: &'x [Vec<C>],
        base: Option<&'x [Vec<C>]>,
    },
}

impl<'x, C> Lookup<'x, C> {
    fn get(&self, c: usize) -> &'x [C] {
        match self {
            Lookup::Prefix(p) => &p[c],
            Lookup::Cond { cond, base } => {
                // Every real α array has length ≥ 1, so empty means "use
                // the base pass" (only reachable in reuse mode).
                if !cond[c].is_empty() {
                    &cond[c]
                } else {
                    &base.expect("child computed")[c]
                }
            }
        }
    }
}

/// Gate's variable-count after removing `cond_var` (if present).
fn gate_size(sets: &[Bitset], g: usize, cond_var: Option<usize>) -> usize {
    let mut s = sets[g].len();
    if let Some(v) = cond_var {
        if sets[g].contains(v) {
            s -= 1;
        }
    }
    s
}

/// Computes `α` for one gate into `out` (cleared first). `conv` is the
/// ∧-gate convolution scratch, reused across every gate of every pass.
#[allow(clippy::too_many_arguments)] // disjoint &mut borrows of one DP state
fn gate_alpha<C: Coeff>(
    nodes: &[DNode],
    sets: &[Bitset],
    binomials: &mut BinomRows<C>,
    ticker: &mut Ticker,
    conv: &mut Vec<C>,
    g: usize,
    cond: Option<(usize, bool)>,
    lookup: Lookup<'_, C>,
    out: &mut Vec<C>,
) -> Result<(), ShapleyTimeout> {
    let cond_var = cond.map(|(v, _)| v);
    out.clear();
    match &nodes[g] {
        DNode::True => out.push(C::one()),
        DNode::False => out.push(C::zero()),
        DNode::Lit(l) => {
            if let Some((v, b)) = cond {
                if l.var() == v {
                    // φ over ∅ vars: ⊤ (α⁰=1) if the literal is satisfied.
                    out.push(if l.satisfied_by(b) {
                        C::one()
                    } else {
                        C::zero()
                    });
                    return Ok(());
                }
            }
            if l.is_positive() {
                out.push(C::zero());
                out.push(C::one());
            } else {
                out.push(C::one());
                out.push(C::zero());
            }
        }
        DNode::And(cs) => {
            // Decomposability: sizes add, counts convolve. A wide gate first
            // offers all children to the shared-transform NTT path, which
            // forward-transforms each child's α array once per prime
            // instead of re-transforming the growing product per pairwise
            // step; the cost model declines → the fold below runs instead.
            if cs.len() >= 3 {
                ticker.tick()?;
                let ops: Vec<&[C]> = cs.iter().map(|c| lookup.get(c.index())).collect();
                if ops.iter().map(|o| o.len()).sum::<usize>() > ntt::MIN_NTT_LEN {
                    if let Some(v) = ntt::convolve_many_if_faster(&ops) {
                        *out = v;
                        return Ok(());
                    }
                }
            }
            // `out` holds the running product, `conv` the next one; they
            // swap per child.
            out.push(C::one());
            for c in cs.iter() {
                ticker.tick()?;
                let ca = lookup.get(c.index());
                // Wide convolutions route through the exact NTT/CRT path
                // when the calibrated cost model says it wins.
                // Product length is `out.len() + ca.len() - 1`.
                if out.len() + ca.len() > ntt::MIN_NTT_LEN {
                    if let Some(v) = ntt::convolve_if_faster(out, ca) {
                        *out = v;
                        continue;
                    }
                }
                conv.clear();
                conv.resize(out.len() + ca.len() - 1, C::zero());
                for (i, ai) in out.iter().enumerate() {
                    if ai.is_zero() {
                        continue;
                    }
                    // Row-level fused multiply-accumulate — this is the
                    // DP's hottest loop.
                    C::fold_add_mul(&mut conv[i..i + ca.len()], ca, ai);
                }
                std::mem::swap(out, conv);
            }
        }
        DNode::Or(cs, _) => {
            // Determinism: counts add after expanding each child by the
            // binomial over its variable gap.
            let sz = gate_size(sets, g, cond_var);
            out.resize(sz + 1, C::zero());
            for c in cs.iter() {
                ticker.tick()?;
                let csz = gate_size(sets, c.index(), cond_var);
                let gap = sz - csz;
                let ca = lookup.get(c.index());
                debug_assert_eq!(ca.len(), csz + 1);
                let row = binomials.row(gap);
                for (i, ci) in ca.iter().enumerate() {
                    if ci.is_zero() {
                        continue;
                    }
                    C::fold_add_mul(&mut out[i..i + row.len()], row, ci);
                }
            }
        }
    }
    Ok(())
}

struct Dp<'a, C> {
    d: &'a Ddnnf,
    sets: &'a [Bitset],
    binomials: BinomRows<C>,
    ticker: Ticker,
    /// Conditioned-pass arrays, reused across facts: `cond[g]` empty means
    /// "not recomputed this pass".
    cond: Vec<Vec<C>>,
    /// Gates filled in `cond` by the current pass (cleared between passes).
    touched: Vec<usize>,
    /// Spare buffers recycled between `cond` slots and gate outputs.
    spare: Vec<Vec<C>>,
    /// ∧-gate convolution scratch.
    conv: Vec<C>,
}

impl<'a, C: Coeff> Dp<'a, C> {
    fn new(d: &'a Ddnnf, sets: &'a [Bitset], deadline: Option<Instant>) -> Dp<'a, C> {
        let n = d.len();
        Dp {
            d,
            sets,
            binomials: BinomRows::new(),
            ticker: Ticker { deadline, ticks: 0 },
            cond: vec![Vec::new(); n],
            touched: Vec::new(),
            spare: Vec::new(),
            conv: Vec::new(),
        }
    }

    /// Full unconditioned pass (`α` for every gate).
    fn base_pass(&mut self) -> Result<Alphas<C>, ShapleyTimeout> {
        let mut alphas: Alphas<C> = Vec::with_capacity(self.d.len());
        for g in 0..self.d.len() {
            let mut out = self.spare.pop().unwrap_or_default();
            gate_alpha(
                self.d.nodes(),
                self.sets,
                &mut self.binomials,
                &mut self.ticker,
                &mut self.conv,
                g,
                None,
                Lookup::Prefix(&alphas),
                &mut out,
            )?;
            alphas.push(out);
        }
        Ok(alphas)
    }

    /// The gates a conditioning on `f` invalidates, in (topological) index
    /// order — computed once per fact and shared by both conditioned
    /// passes. `buf` is recycled across facts.
    fn affected_gates(&self, f: usize, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend((0..self.d.len()).filter(|&g| self.sets[g].contains(f)));
    }

    /// Conditioned pass for `(f → b)`. With `base`, only the `affected`
    /// gates (from [`Dp::affected_gates`]) are recomputed; the root's array
    /// is swapped into `out`. All per-gate buffers are recycled across
    /// calls — the steady state allocates nothing.
    fn conditioned_root(
        &mut self,
        f: usize,
        b: bool,
        base: Option<&Alphas<C>>,
        affected: &[usize],
        out: &mut Vec<C>,
    ) -> Result<(), ShapleyTimeout> {
        // Reset the previous pass (keeping each slot's capacity).
        while let Some(g) = self.touched.pop() {
            self.cond[g].clear();
        }
        let root = self.d.root().index();
        let n_nodes = self.d.len();
        // Without a base pass to fall back on, every gate recomputes.
        let full: Vec<usize>;
        let recompute: &[usize] = if base.is_some() {
            affected
        } else {
            full = (0..n_nodes).collect();
            &full
        };
        for &g in recompute {
            let mut buf = self.spare.pop().unwrap_or_default();
            let result = gate_alpha(
                self.d.nodes(),
                self.sets,
                &mut self.binomials,
                &mut self.ticker,
                &mut self.conv,
                g,
                Some((f, b)),
                Lookup::Cond {
                    cond: &self.cond,
                    base: base.map(|a| a.as_slice()),
                },
                &mut buf,
            );
            if let Err(e) = result {
                self.spare.push(buf);
                return Err(e);
            }
            std::mem::swap(&mut self.cond[g], &mut buf);
            self.spare.push(buf);
            self.touched.push(g);
        }
        if self.cond[root].is_empty() {
            // Root unaffected: only possible in reuse mode.
            out.clone_from(&base.expect("root unaffected implies reuse mode")[root]);
        } else {
            std::mem::swap(out, &mut self.cond[root]);
            // `out`'s previous contents now sit in `cond[root]`; the slot is
            // still marked touched, so the next pass clears it.
        }
        Ok(())
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

/// Runs the per-fact passes on one coefficient type, sequentially or fanned
/// across scoped workers (each worker owns its DP scratch; the base pass is
/// shared by reference). Returns `(fact, value)` pairs.
#[allow(clippy::too_many_arguments)] // one bundle of per-solve invariants
fn run_facts<C: Coeff>(
    d: &Ddnnf,
    sets: &[Bitset],
    facts: &[usize],
    m: usize,
    weights: &[BigUint],
    denom: &BigUint,
    cfg: &ExactConfig,
    passes: &'static Counter,
) -> Result<Vec<(usize, Rational)>, ShapleyTimeout> {
    let root = d.root().index();
    let mut dp: Dp<C> = Dp::new(d, sets, cfg.deadline);
    let base = if cfg.reuse_unaffected {
        passes.incr();
        Some(dp.base_pass()?)
    } else {
        None
    };
    let threads = cfg.threads.clamp(1, facts.len().max(1));
    if threads <= 1 {
        let mut out = Vec::with_capacity(facts.len());
        let mut gamma = Vec::new();
        let mut delta = Vec::new();
        let mut affected = Vec::new();
        for &f in facts {
            if let Some(deadline) = cfg.deadline {
                if Instant::now() > deadline {
                    return Err(ShapleyTimeout);
                }
            }
            dp.affected_gates(f, &mut affected);
            dp.conditioned_root(f, false, base.as_ref(), &affected, &mut delta)?;
            match &base {
                Some(b) => {
                    passes.incr();
                    derive_gamma(&b[root], &delta, &mut gamma);
                }
                None => {
                    passes.add(2);
                    dp.conditioned_root(f, true, None, &affected, &mut gamma)?;
                }
            }
            debug_assert_eq!(gamma.len(), m);
            debug_assert_eq!(delta.len(), m);
            out.push((f, weighted_difference(&gamma, &delta, weights, denom)));
        }
        return Ok(out);
    }
    let base_ref = base.as_ref();
    let chunks: Vec<&[usize]> = facts.chunks(facts.len().div_ceil(threads)).collect();
    let results = parallel_map(threads, chunks.len(), |ci| {
        let mut dp: Dp<C> = Dp::new(d, sets, cfg.deadline);
        let mut out = Vec::with_capacity(chunks[ci].len());
        let mut gamma = Vec::new();
        let mut delta = Vec::new();
        let mut affected = Vec::new();
        for &f in chunks[ci] {
            if let Some(deadline) = cfg.deadline {
                if Instant::now() > deadline {
                    return Err(ShapleyTimeout);
                }
            }
            dp.affected_gates(f, &mut affected);
            dp.conditioned_root(f, false, base_ref, &affected, &mut delta)?;
            match base_ref {
                Some(b) => {
                    passes.incr();
                    derive_gamma(&b[root], &delta, &mut gamma);
                }
                None => {
                    passes.add(2);
                    dp.conditioned_root(f, true, None, &affected, &mut gamma)?;
                }
            }
            debug_assert_eq!(gamma.len(), m);
            out.push((f, weighted_difference(&gamma, &delta, weights, denom)));
        }
        Ok(out)
    });
    let mut out = Vec::with_capacity(facts.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Selects the coefficient tier from the pass-wide cap and runs the facts.
///
/// The cap is the central binomial over the *widest gate's* variable count
/// (not just the root's): the base pass evaluates every gate in the node
/// vector, reachable or not. Conditioned passes only shrink gate sizes, so
/// one cap covers every pass of the solve. An overflow in a fixed tier is
/// therefore a cap bug and panics loudly (see `shapdb_num::vli`) instead
/// of corrupting an exact result.
#[allow(clippy::too_many_arguments)]
fn dispatch_facts(
    d: &Ddnnf,
    sets: &[Bitset],
    facts: &[usize],
    m: usize,
    weights: &[BigUint],
    denom: &BigUint,
    cfg: &ExactConfig,
) -> Result<Vec<(usize, Rational)>, ShapleyTimeout> {
    let widest = sets.iter().map(|s| s.len()).max().unwrap_or(0);
    let bits = alpha_cap_bits(widest);
    if bits <= 64 {
        run_facts::<Vli<1>>(d, sets, facts, m, weights, denom, cfg, &NUM_VLI_HITS)
    } else if bits <= 128 {
        run_facts::<Vli<2>>(d, sets, facts, m, weights, denom, cfg, &NUM_VLI_HITS)
    } else if bits <= 256 {
        run_facts::<Vli<4>>(d, sets, facts, m, weights, denom, cfg, &NUM_VLI_HITS)
    } else if bits <= 512 {
        run_facts::<Vli<8>>(d, sets, facts, m, weights, denom, cfg, &NUM_VLI_HITS)
    } else {
        run_facts::<BigUint>(
            d,
            sets,
            facts,
            m,
            weights,
            denom,
            cfg,
            &NUM_BIGNUM_FALLBACKS,
        )
    }
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

/// Exact power index (Shapley or Banzhaf) of every d-DNNF variable: the
/// same Algorithm-1 dynamic program, folded with the measure's `(weights,
/// denominator)` pair from `weights::power_weights`. The
/// conditioned per-fact passes are computed once; only the final `O(m)`
/// weighting differs between the two measures.
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
    assert!(
        measure.is_power_index(),
        "{measure} is not a Γ/Δ power index"
    );
    let num_vars = d.num_vars();
    assert!(
        n_endo >= num_vars,
        "|D_n| = {n_endo} smaller than the {num_vars} circuit variables"
    );
    if num_vars == 0 || n_endo == 0 {
        return Ok(vec![Rational::zero(); num_vars]);
    }
    let sets = d.var_sets();
    let root = d.root().index();
    let m = sets[root].len();
    let mut out = vec![Rational::zero(); num_vars];
    if m == 0 {
        // Constant lineage: every fact is a null player.
        return Ok(out);
    }
    let mut facts_table = FactorialTable::new();
    let (weights, denom) = power_weights(measure, m, &mut facts_table);
    let facts: Vec<usize> = sets[root].iter().collect();
    for (f, v) in dispatch_facts(d, &sets, &facts, m, &weights, &denom, cfg)? {
        out[f] = v;
    }
    Ok(out)
}

/// Exact Shapley value of a single variable (Algorithm 1: the
/// `ComputeAll#SATk` passes and the Equation (3) sum; in reuse mode the
/// `f → 1` array is derived from the base pass, see `derive_gamma`).
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
    let sets = d.var_sets();
    let root = d.root().index();
    if !sets[root].contains(var) {
        return Ok(Rational::zero());
    }
    let m = sets[root].len();
    let mut facts_table = FactorialTable::new();
    let weights = completion_weights(m, &mut facts_table);
    let denom = facts_table.get(m).clone();
    let result = dispatch_facts(d, &sets, &[var], m, &weights, &denom, cfg)?;
    Ok(result.into_iter().next().expect("one fact solved").1)
}

/// `ComputeAll#SATk` of Algorithm 1: the `#SAT_k` array of the root over all
/// `num_vars` variables (gap-completed). Exposed for tests and the
/// Proposition 3.1 cross-check.
pub fn sat_k_all(d: &Ddnnf) -> Vec<BigUint> {
    let sets = d.var_sets();
    let mut dp: Dp<BigUint> = Dp::new(d, &sets, None);
    let base = dp.base_pass().expect("no deadline set");
    let root = d.root().index();
    let m = sets[root].len();
    let gap = d.num_vars() - m;
    let mut binomials = BinomialTable::new();
    let row = binomials.row(gap);
    let mut out = vec![BigUint::zero(); d.num_vars() + 1];
    for (j, a) in base[root].iter().enumerate() {
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
    use proptest::prelude::*;
    use shapdb_circuit::{Circuit, Dnf, Lit, VarId};
    use shapdb_kc::ddnnf::{DdnnfBuilder, NodeIdx};
    use shapdb_kc::{compile_circuit, Budget};

    /// Compiles a DNF over dense vars 0..n into a projected d-DNNF.
    fn compile_dnf(d: &Dnf, n: usize) -> Ddnnf {
        let mut c = Circuit::new();
        let root = d.to_circuit(&mut c);
        let comp = compile_circuit(&c, root, &Budget::unlimited()).unwrap();
        // Re-embed into the dense 0..n space: compile_circuit returns vars in
        // sorted order of appearance; map them back.
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
        let mut b = DdnnfBuilder::new();
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
        b.finish(layer[0], 2 * pairs)
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
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let f = |s: &Bitset| dnf.eval_set(s);
        let expect = shapley_naive(&f, 8);
        for reuse in [false, true] {
            let cfg = ExactConfig {
                reuse_unaffected: reuse,
                ..Default::default()
            };
            let got = shapley_all_facts(&dd, 8, &cfg).unwrap();
            assert_eq!(&got[..], &expect[..7], "reuse={reuse}");
        }
    }

    #[test]
    fn every_coefficient_tier_computes_identical_values() {
        // The running example dispatches to Vli<1> (7 vars); force each
        // wider tier and the BigUint fallback through the same passes and
        // pin bit-identical rationals.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let sets = dd.var_sets();
        let m = sets[dd.root().index()].len();
        let mut facts_table = FactorialTable::new();
        let weights = completion_weights(m, &mut facts_table);
        let denom = facts_table.get(m).clone();
        let facts: Vec<usize> = sets[dd.root().index()].iter().collect();
        let cfg = ExactConfig::default();
        let run = |tier: &str| -> Vec<(usize, Rational)> {
            match tier {
                "vli1" => run_facts::<Vli<1>>(
                    &dd,
                    &sets,
                    &facts,
                    m,
                    &weights,
                    &denom,
                    &cfg,
                    &NUM_VLI_HITS,
                ),
                "vli2" => run_facts::<Vli<2>>(
                    &dd,
                    &sets,
                    &facts,
                    m,
                    &weights,
                    &denom,
                    &cfg,
                    &NUM_VLI_HITS,
                ),
                "vli4" => run_facts::<Vli<4>>(
                    &dd,
                    &sets,
                    &facts,
                    m,
                    &weights,
                    &denom,
                    &cfg,
                    &NUM_VLI_HITS,
                ),
                "vli8" => run_facts::<Vli<8>>(
                    &dd,
                    &sets,
                    &facts,
                    m,
                    &weights,
                    &denom,
                    &cfg,
                    &NUM_VLI_HITS,
                ),
                _ => run_facts::<BigUint>(
                    &dd,
                    &sets,
                    &facts,
                    m,
                    &weights,
                    &denom,
                    &cfg,
                    &NUM_BIGNUM_FALLBACKS,
                ),
            }
            .unwrap()
        };
        let reference = run("big");
        assert_eq!(reference[0].1, Rational::from_ratio(43, 105));
        for tier in ["vli1", "vli2", "vli4", "vli8"] {
            assert_eq!(run(tier), reference, "{tier}");
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
        // The public path must route to Vli<2> and solve exactly: every
        // fact of a tautology is a null player.
        let values = shapley_all_facts(&dd, 68, &ExactConfig::default()).unwrap();
        assert!(values.iter().all(|v| v.is_zero()));
        // Mis-routing the same circuit to the 1-limb tier must panic
        // (loud overflow, never silent corruption).
        let sets = dd.var_sets();
        let m = sets[dd.root().index()].len();
        let mut facts_table = FactorialTable::new();
        let weights = completion_weights(m, &mut facts_table);
        let denom = facts_table.get(m).clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_facts::<Vli<1>>(
                &dd,
                &sets,
                &[0],
                m,
                &weights,
                &denom,
                &ExactConfig::default(),
                &NUM_VLI_HITS,
            )
        }));
        assert!(err.is_err(), "64-bit tier must overflow at C(68,34)");
    }

    #[test]
    fn symmetric_game_values_are_exact_at_vli_tiers() {
        // 64 variables: cap C(64,32) is 61 bits → the u64 tier end-to-end.
        let before = NUM_VLI_HITS.get();
        let dd = symmetric_tree(32);
        let values = shapley_all_facts(&dd, 64, &ExactConfig::default()).unwrap();
        assert_eq!(values.len(), 64);
        for v in &values {
            assert_eq!(v, &Rational::from_ratio(1, 64));
        }
        assert!(NUM_VLI_HITS.get() > before, "u64 tier must have run");
    }

    #[test]
    fn forced_ntt_convolution_is_bit_identical() {
        // Route every ∧-convolution through NTT/CRT and pin the paper's
        // exact rationals; restore the cost model afterwards.
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        ntt::set_ntt_policy(ntt::NttPolicy::Force);
        let forced = shapley_all_facts(&dd, 8, &ExactConfig::default());
        ntt::set_ntt_policy(ntt::NttPolicy::Auto);
        let values = forced.unwrap();
        assert_eq!(values[0], Rational::from_ratio(43, 105));
        assert_eq!(values[5], Rational::from_ratio(8, 105));
    }

    #[test]
    fn thread_fanout_is_bit_identical() {
        let dnf = running_example_dnf();
        let dd = compile_dnf(&dnf, 7);
        let sequential = shapley_all_facts(&dd, 8, &ExactConfig::default()).unwrap();
        for threads in [2, 4, 64] {
            let cfg = ExactConfig {
                threads,
                ..Default::default()
            };
            assert_eq!(
                shapley_all_facts(&dd, 8, &cfg).unwrap(),
                sequential,
                "threads={threads}"
            );
        }
        // And on the symmetric circuit without base-pass reuse.
        let dd = symmetric_tree(8);
        let cfg = ExactConfig {
            reuse_unaffected: false,
            threads: 3,
            ..Default::default()
        };
        let values = shapley_all_facts(&dd, 16, &cfg).unwrap();
        assert!(values.iter().all(|v| v == &Rational::from_ratio(1, 16)));
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
            ..Default::default()
        };
        assert_eq!(shapley_all_facts(&dd, 8, &cfg), Err(ShapleyTimeout));
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
    }
}
