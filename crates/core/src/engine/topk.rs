//! Bound-driven top-k early termination: rank answers by their best
//! fact's Shapley value while solving as few structures as possible.
//!
//! At JOB scale a ranking request wants the `k` best answers, yet the
//! batch executor canonicalizes and solves **every** answer. This module
//! adds the missing admission control, in three steps:
//!
//! 0. **Stream filter** — each raw answer lineage, as it arrives, is
//!    minimized and bracketed by [`shapley_bounds`] on a dense renaming
//!    (the bracket is a max over facts, so no canonical form is needed).
//!    By efficiency every non-constant answer scores at least its `lower`
//!    = `1/vars`, so τ, the `k`-th largest `lower` seen so far, is a score
//!    that `k` answers provably reach. An answer whose `upper` is strictly
//!    below τ is dropped on the spot, never fingerprinted; the survivors
//!    keep their minimized lineage and are filtered again against the
//!    final τ.
//! 1. **Bound** — the upper bound is, per fact, a union bound over its
//!    conjuncts, each conjunct's term an exact inclusion–exclusion over at
//!    most three competing conjuncts. No compilation, no sampling: every
//!    term is an integer numerator over the one denominator
//!    `lcm(1..=vars)`, added in the narrowest fixed-limb [`Coeff`] tier
//!    that holds it. One scratch, reused from answer to answer, holds the
//!    tables a structure is bounded from: the renamed conjuncts as bitset
//!    rows, the conjuncts holding each variable, the pairwise union sizes
//!    with each conjunct's competitor order, and a per-conjunct memo of the
//!    last competitor set and its term. The executor renames each lineage
//!    straight into it, compares the unreduced numerator with τ by one
//!    multiplication, and reduces the bound to a `Rational` only for the
//!    answers that survive. Surviving answers are fingerprinted and
//!    grouped by canonical structure; a group's bound is the tightest of
//!    its members' own bounds.
//! 2. **Admission loop** — structures are solved in decreasing bound
//!    order. A min-heap of the exact scores solved so far tracks the
//!    `k`-th best; the moment the best remaining bound falls *strictly*
//!    below it, everything left is pruned unsolved
//!    ([`PlanReason::TopKPruned`]).
//!
//! Both cuts are **lossless**. A dropped answer's true score is ≤ its
//! `upper` < τ ≤ the `k`-th best exact score, so it is out-ranked by `k`
//! answers and every answer of the true top `k` survives the filter. A
//! pruned structure's score is ≤ its bound, which is strictly below the
//! `k`-th best exact score at prune time — a threshold that never
//! decreases afterwards. The returned list is therefore bit-identical to
//! the full ranking's length-`k` prefix, index tie-breaks included. With
//! `k ≥ answers` neither cut fires and the run degenerates to the ordinary
//! solve-everything batch.
//!
//! Each admitted structure is planned and solved through the same
//! [`Planner::solve_structure`] every other surface uses, with one Shapley
//! plan, so its cache entry (keyed by canonical structure), its values and
//! its [`PlanReason`] are exactly the batch's.

use super::stages;
use super::{
    translate_result, EngineError, EngineResult, EngineValues, Measure, PlanReason, Planner,
};
use shapdb_circuit::{fingerprint_minimized, Dnf, Fingerprint, VarId};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{DedupStats, TOPK_BOUND_PASSES, TOPK_PRUNED, TOPK_SOLVED};
use shapdb_metrics::Profile;
use shapdb_num::{BigInt, BigUint, Coeff, Rational, Vli};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The set-algebra oracle the integer kernel is tested against.
#[cfg(test)]
mod reference;

/// Cheap a-priori bracket on a lineage's best Shapley value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScoreBounds {
    /// `max_f φ(f) ≥ lower`: by efficiency the values of a non-constant
    /// structure sum to 1, so the best fact scores at least `1/vars`.
    pub lower: Rational,
    /// `max_f φ(f) ≤ upper`: the inclusion–exclusion union bound below.
    pub upper: Rational,
}

/// Brackets the maximum Shapley value of any fact of the minimized
/// structure `key`, without solving it. `key` lists the conjuncts over
/// dense variables `0..vars`: a [`Fingerprint::key`], or a minimized
/// lineage renamed densely in any order. Every such key gives a sound
/// bracket (`lower` depends on `vars` alone; `upper` may differ between
/// renamings only through the competitor tie-break below).
///
/// The upper bound: a fact `f` is pivotal in a uniformly random
/// permutation only if some conjunct `C ∋ f` has `C \ {f}` entirely
/// before `f` while no conjunct avoiding `f` is entirely before `f`. Per
/// conjunct, relaxing "no conjunct" to "none of up to three chosen
/// competitors" (greedily those with the smallest union `|C ∪ D|`) keeps
/// the event a superset, and exact inclusion–exclusion over the chosen
/// set gives its probability: `Σ_{S ⊆ chosen} (−1)^{|S|} / |C ∪ ⋃S|`
/// (every listed element must precede `f` within the union). Summing over
/// `C ∋ f` (a union bound), capping at 1, and maximizing over `f` yields
/// a sound `upper`.
///
/// The arithmetic is exact and integer. Every term is `±1/u` with
/// `1 ≤ u ≤ vars`, so over the one denominator `L = lcm(1..=vars)` it is
/// the integer numerator `±L/u`: the kernel adds numerators, caps at `L`,
/// and reduces a single `Rational` at the end. A per-fact sum stops once
/// it reaches `L`, so it stays below `2L`; a term's even-mask part is at
/// most four numerators of at most `L`, below `4L`. The numerators thus
/// run in the narrowest [`Coeff`] tier holding `bits(L) + 3` bits —
/// `Vli<1>` up to 42 variables, `Vli<2/4/8>` next, `BigUint` from 353.
///
/// The set algebra runs on tables built once per structure: the
/// conjuncts as flat bitset rows, for each variable the list of
/// conjuncts holding it, and the pairwise union sizes `|Cᵢ ∪ Cⱼ|`, each
/// filled on the first use of either conjunct's competitor order, which
/// is sorted on that table once. An inclusion–exclusion union is its mask
/// without the lowest bit, united with one row. A conjunct remembers the
/// competitor set of its last term and the term itself, so the facts of
/// a conjunct that share their competitors (the two of a cast conjunct
/// `{cast, name}`) pay for one term.
///
/// A fact whose cheap cap `Σ_{C∋f} L/|C|` (summed until it reaches `L`)
/// is ≤ the best value so far is skipped. This skip is sound: every
/// conjunct's term is at most its empty-mask summand `1/|C|` (it is the
/// probability of a sub-event), so no skipped fact can raise the maximum.
/// Facts are visited in variable order: sorting them by cap, so that the
/// scan could stop at the first low cap, cost more than it saved, since
/// most answers of a ranking are dropped and every fact of a dropped
/// answer is evaluated anyway.
///
/// Constant structures (empty key, or an empty conjunct — `⊥`/`⊤`) have
/// no players: both bounds are 0.
pub fn shapley_bounds(key: &[Vec<u32>]) -> ScoreBounds {
    BoundTables::default().bounds(key)
}

/// The bound kernel's state across a ranking run: the set-up
/// [`shapley_bounds`] needs for each variable count — `lcm` and the `L/u`
/// numerators in their tier — built on first use, and one [`Scratch`]
/// every structure is loaded into. Once its buffers have grown to the
/// run's largest structure, bounding an answer allocates nothing in the
/// fixed-limb tiers.
#[derive(Default)]
struct BoundTables {
    by_vars: HashMap<usize, BoundTable>,
    scratch: Scratch,
}

impl BoundTables {
    /// [`shapley_bounds`] of `key`, on these tables.
    fn bounds(&mut self, key: &[Vec<u32>]) -> ScoreBounds {
        self.scratch.load_key(key);
        let upper = self.upper();
        ScoreBounds {
            lower: upper.lower(),
            upper: upper.into_rational(),
        }
    }

    /// The upper bound of `lineage`, renamed onto `0..vars` in increasing
    /// fact order: the dense key [`shapley_bounds`] reads, written straight
    /// into the scratch.
    fn lineage_upper(&mut self, lineage: &Dnf) -> Upper {
        self.scratch.load_lineage(lineage);
        self.upper()
    }

    /// The upper bound of the structure loaded into the scratch.
    fn upper(&mut self) -> Upper {
        let vars = self.scratch.vars;
        if vars == 0 {
            return Upper {
                vars,
                num: BigUint::zero(),
                den: BigUint::one(),
            };
        }
        self.scratch.index();
        let table = self
            .by_vars
            .entry(vars)
            .or_insert_with(|| BoundTable::new(vars));
        let s = &mut self.scratch;
        let num = match &mut table.tier {
            Tier::Vli1(t) => t.upper(s),
            Tier::Vli2(t) => t.upper(s),
            Tier::Vli4(t) => t.upper(s),
            Tier::Vli8(t) => t.upper(s),
            Tier::Big(t) => t.upper(s),
        };
        Upper {
            vars,
            num,
            den: table.lcm.clone(),
        }
    }
}

/// A structure's `upper` as the kernel leaves it: the numerator over
/// `lcm(1..=vars)`, not yet reduced (`0/1` without players, `vars = 0`).
struct Upper {
    vars: usize,
    num: BigUint,
    den: BigUint,
}

impl Upper {
    /// `1/vars`, the efficiency lower bound (0 without players).
    fn lower(&self) -> Rational {
        match self.vars {
            0 => Rational::zero(),
            n => Rational::from_ratio(1, n as u64),
        }
    }

    /// True iff this bound is strictly below the lower bound `tau`:
    /// `num/den < 1/t` ⇔ `num · t < den`, with no gcd.
    fn below(&self, tau: Lower) -> bool {
        match tau.0 {
            0 => false,
            t => {
                let mut scaled = self.num.clone();
                scaled.mul_small(t as u64);
                scaled < self.den
            }
        }
    }

    /// The bound as a reduced `Rational`.
    fn into_rational(self) -> Rational {
        Rational::new(BigInt::from_biguint(self.num), self.den)
    }
}

/// The lower bound `1/vars` of a structure with `vars` variables (0
/// without players, `vars = 0`), ordered by that value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Lower(usize);

impl Ord for Lower {
    fn cmp(&self, other: &Self) -> Ordering {
        // 1/a < 1/b iff a > b; the wrap sends 0 past every count.
        other.0.wrapping_sub(1).cmp(&self.0.wrapping_sub(1))
    }
}

impl PartialOrd for Lower {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// [`shapley_bounds`]' set-up for one variable count.
struct BoundTable {
    lcm: BigUint,
    tier: Tier,
}

/// The kernel in the narrowest tier holding `bits(L) + 3` bits.
enum Tier {
    Vli1(Kernel<Vli<1>>),
    Vli2(Kernel<Vli<2>>),
    Vli4(Kernel<Vli<4>>),
    Vli8(Kernel<Vli<8>>),
    Big(Kernel<BigUint>),
}

impl BoundTable {
    fn new(num_vars: usize) -> BoundTable {
        let lcm = lcm_upto(num_vars);
        let bits = lcm.bits() + 3;
        let tier = if bits <= 64 {
            Tier::Vli1(Kernel::new(&lcm, num_vars))
        } else if bits <= 128 {
            Tier::Vli2(Kernel::new(&lcm, num_vars))
        } else if bits <= 256 {
            Tier::Vli4(Kernel::new(&lcm, num_vars))
        } else if bits <= 512 {
            Tier::Vli8(Kernel::new(&lcm, num_vars))
        } else {
            Tier::Big(Kernel::new(&lcm, num_vars))
        };
        BoundTable { lcm, tier }
    }
}

/// `lcm(1..=n)`: the product, over primes `p ≤ n`, of the largest power
/// of `p` not above `n`.
fn lcm_upto(n: usize) -> BigUint {
    let mut lcm = BigUint::one();
    let mut composite = vec![false; n + 1];
    for p in 2..=n {
        if composite[p] {
            continue;
        }
        for multiple in (p * p..=n).step_by(p) {
            composite[multiple] = true;
        }
        let mut power = p;
        while power <= n / p {
            power *= p;
        }
        lcm.mul_small(power as u64);
    }
    lcm
}

/// The numerator kernel for one variable count, in the tier `T`.
struct Kernel<T> {
    /// `inv[u] = L/u`, the numerator of `1/u` over `L` (`inv[0] = 0`).
    inv: Vec<T>,
    /// Each conjunct's memoized term, valid while [`Scratch::memo`] holds
    /// its competitors.
    terms: Vec<T>,
}

impl<T: Coeff> Kernel<T> {
    fn new(lcm: &BigUint, num_vars: usize) -> Kernel<T> {
        let inv = (0..=num_vars)
            .map(|u| {
                if u == 0 {
                    return T::zero();
                }
                let mut q = lcm.clone();
                q.div_small(u as u64);
                T::from_biguint(&q)
            })
            .collect();
        Kernel {
            inv,
            terms: Vec::new(),
        }
    }

    /// The numerator over `L` of `upper` (see [`shapley_bounds`]) for the
    /// structure indexed in `s`.
    fn upper(&mut self, s: &mut Scratch) -> BigUint {
        let Kernel { inv, terms } = self;
        let one = &inv[1];
        terms.resize(s.sizes.len(), T::zero());
        let mut best = T::zero();
        for v in 0..s.vars {
            let mut cap = T::zero();
            for &c in s.holders(v) {
                cap.add_assign_ref(&inv[s.sizes[c as usize] as usize]);
                if cap >= *one {
                    break;
                }
            }
            if cap <= best {
                continue;
            }
            let mut sum = T::zero();
            for h in s.at[v] as usize..s.at[v + 1] as usize {
                let c = s.holders[h] as usize;
                let chosen = s.competitors(c, v);
                if s.memo[c] != Some(chosen) {
                    terms[c] = s.term(c, chosen, inv);
                    s.memo[c] = Some(chosen);
                }
                sum.add_assign_ref(&terms[c]);
                if sum >= *one {
                    break;
                }
            }
            let ub = sum.min(one.clone());
            if ub > best {
                best = ub;
                if best == *one {
                    break;
                }
            }
        }
        best.into_biguint()
    }
}

/// Up to three competitors of a conjunct, closest first.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Competitors {
    count: usize,
    chosen: [u32; 3],
}

/// One structure's tables, reused from one structure to the next: the
/// buffers only grow, and every per-structure flag is reset on loading.
/// A structure has `n` conjuncts over the dense variables `0..vars`.
#[derive(Default)]
struct Scratch {
    /// Variables of the loaded structure; 0 for a constant one.
    vars: usize,
    /// Conjunct `c`'s variables are `lits[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    lits: Vec<u32>,
    /// A lineage's distinct facts in increasing order: its dense renaming.
    facts: Vec<VarId>,
    /// Limbs per row.
    words: usize,
    /// Conjunct `c` as a bitset: `rows[c · words..(c + 1) · words]`.
    rows: Vec<u64>,
    /// `|C|` per conjunct.
    sizes: Vec<u32>,
    /// The conjuncts holding `v`, in index order:
    /// `holders[at[v]..at[v + 1]]`.
    at: Vec<u32>,
    holders: Vec<u32>,
    /// Per conjunct: its row of `pair` and `order`, once sorted. Rows are
    /// added as conjuncts are first sorted, so a scan that stops early
    /// builds only the rows it reads.
    row_of: Vec<Option<usize>>,
    /// `|C ∪ Cⱼ|` at `r · n + j` for the conjunct `C` of row `r`.
    pair: Vec<u32>,
    /// Row `r`: the other conjuncts in `(|C ∪ D|, index)` order, at
    /// `r · n..r · n + n − 1`.
    order: Vec<u32>,
    /// One row's sort keys, `|C ∪ D| << 32 | D`.
    keys: Vec<u64>,
    /// Per conjunct: the competitors its memoized term was computed for.
    memo: Vec<Option<Competitors>>,
    /// One union per inclusion–exclusion mask, `words` limbs each.
    unions: Vec<u64>,
}

impl Scratch {
    /// Loads `key` (see [`shapley_bounds`]).
    fn load_key(&mut self, key: &[Vec<u32>]) {
        self.starts.clear();
        self.lits.clear();
        self.starts.push(0);
        self.vars = 0;
        if key.is_empty() || key.iter().any(|c| c.is_empty()) {
            return;
        }
        for c in key {
            self.lits.extend_from_slice(c);
            self.starts.push(self.lits.len() as u32);
        }
        self.vars = self.lits.iter().max().map_or(0, |&m| m as usize + 1);
    }

    /// Loads `lineage` renamed onto `0..vars` in increasing fact order.
    fn load_lineage(&mut self, lineage: &Dnf) {
        self.starts.clear();
        self.lits.clear();
        self.starts.push(0);
        self.vars = 0;
        let conjuncts = lineage.conjuncts();
        if conjuncts.is_empty() || conjuncts.iter().any(|c| c.is_empty()) {
            return;
        }
        self.facts.clear();
        self.facts.extend(conjuncts.iter().flatten());
        self.facts.sort_unstable();
        self.facts.dedup();
        for c in conjuncts {
            for v in c {
                let dense = self.facts.binary_search(v).expect("fact in lineage");
                self.lits.push(dense as u32);
            }
            self.starts.push(self.lits.len() as u32);
        }
        self.vars = self.facts.len();
    }

    /// Builds the loaded structure's rows, sizes and holder lists, and
    /// forgets the previous structure's orders and memo.
    fn index(&mut self) {
        let n = self.starts.len() - 1;
        let words = self.vars.div_ceil(64);
        self.words = words;
        self.rows.clear();
        self.rows.resize(n * words, 0);
        for c in 0..n {
            let row = &mut self.rows[c * words..(c + 1) * words];
            for &v in &self.lits[self.starts[c] as usize..self.starts[c + 1] as usize] {
                row[v as usize / 64] |= 1 << (v % 64);
            }
        }
        self.sizes.clear();
        self.sizes.extend(
            self.rows
                .chunks_exact(words)
                .map(|row| row.iter().map(|w| w.count_ones()).sum::<u32>()),
        );

        // Holder lists, counting then placing each row's variables.
        self.at.clear();
        self.at.resize(self.vars + 1, 0);
        for c in 0..n {
            for v in row_vars(&self.rows[c * words..(c + 1) * words]) {
                self.at[v + 1] += 1;
            }
        }
        for v in 0..self.vars {
            self.at[v + 1] += self.at[v];
        }
        self.holders.clear();
        self.holders.resize(self.at[self.vars] as usize, 0);
        for c in 0..n {
            for v in row_vars(&self.rows[c * words..(c + 1) * words]) {
                self.holders[self.at[v] as usize] = c as u32;
                self.at[v] += 1;
            }
        }
        // Each `at[v]` now ends `v`'s list, where `v + 1`'s starts.
        self.at.copy_within(0..self.vars, 1);
        self.at[0] = 0;

        self.row_of.clear();
        self.row_of.resize(n, None);
        self.pair.clear();
        self.order.clear();
        self.memo.clear();
        self.memo.resize(n, None);
        self.unions.resize(8 * words, 0);
    }

    /// The conjuncts holding `v`, in index order.
    fn holders(&self, v: usize) -> &[u32] {
        &self.holders[self.at[v] as usize..self.at[v + 1] as usize]
    }

    fn row(&self, c: usize) -> &[u64] {
        &self.rows[c * self.words..(c + 1) * self.words]
    }

    /// The first three conjuncts in `c`'s competitor order that avoid `v`:
    /// exactly the filter → sort → truncate(3) of the set-algebra
    /// definition.
    fn competitors(&mut self, c: usize, v: usize) -> Competitors {
        let n = self.row_of.len();
        let r = match self.row_of[c] {
            Some(r) => r,
            None => self.sort(c),
        };
        let mut out = Competitors {
            count: 0,
            chosen: [0; 3],
        };
        for &j in &self.order[r * n..r * n + n - 1] {
            if self.rows[j as usize * self.words + v / 64] >> (v % 64) & 1 == 0 {
                out.chosen[out.count] = j;
                out.count += 1;
                if out.count == 3 {
                    break;
                }
            }
        }
        out
    }

    /// Adds `c`'s rows of the pairwise table and the competitor order, and
    /// returns their index; a pair whose other side was sorted first is
    /// read, not recounted.
    fn sort(&mut self, c: usize) -> usize {
        let n = self.row_of.len();
        let r = self.pair.len() / n;
        self.keys.clear();
        for j in 0..n {
            let union = match self.row_of[j] {
                Some(rj) => self.pair[rj * n + c],
                None => self
                    .row(c)
                    .iter()
                    .zip(self.row(j))
                    .map(|(a, b)| (a | b).count_ones())
                    .sum(),
            };
            self.pair.push(union);
            if j != c {
                self.keys.push(u64::from(union) << 32 | j as u64);
            }
        }
        self.keys.sort_unstable();
        self.order.extend(self.keys.iter().map(|&key| key as u32));
        self.order.push(0);
        self.row_of[c] = Some(r);
        r
    }

    /// Conjunct `c`'s term against `chosen`:
    /// `Σ_{S ⊆ chosen} (−1)^{|S|} L/|C ∪ ⋃S|`.
    fn term<T: Coeff>(&mut self, c: usize, chosen: Competitors, inv: &[T]) -> T {
        let words = self.words;
        self.unions[..words].copy_from_slice(&self.rows[c * words..(c + 1) * words]);
        let mut even = inv[self.sizes[c] as usize].clone();
        let mut odd = T::zero();
        for mask in 1usize..1 << chosen.count {
            let lower = mask & (mask - 1);
            let row = chosen.chosen[mask.trailing_zeros() as usize] as usize * words;
            let mut union = 0;
            for w in 0..words {
                let word = self.unions[lower * words + w] | self.rows[row + w];
                self.unions[mask * words + w] = word;
                union += word.count_ones();
            }
            if mask.count_ones() % 2 == 0 {
                even.add_assign_ref(&inv[union as usize]);
            } else {
                odd.add_assign_ref(&inv[union as usize]);
            }
        }
        even.sub_ref(&odd)
    }
}

/// The variables set in a bitset row, ascending.
fn row_vars(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                v
            })
        })
    })
}

/// An answer that passed the stream filter, kept as its minimized lineage
/// until the final threshold is known.
struct Survivor {
    /// Position in the submitted answer sequence.
    index: usize,
    /// [`shapley_bounds`]' upper bound on the answer's score, unreduced.
    upper: Upper,
    lineage: Dnf,
}

/// True iff `upper` falls strictly below τ, the smallest of `lowers` once
/// it holds `k` lower bounds: `k` answers then score at least τ, so an
/// answer bounded below τ ranks after all of them. Ties at τ stay.
fn below_threshold(upper: &Upper, lowers: &BinaryHeap<Reverse<Lower>>, k: usize) -> bool {
    lowers.len() == k && lowers.peek().is_some_and(|tau| upper.below(tau.0))
}

/// A structure awaiting admission, ordered for the max-heap: highest
/// upper bound first, ties broken toward the earliest first answer.
struct Candidate {
    ub: Rational,
    /// Index of the group's first answer.
    first: usize,
    group: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .cmp(&other.ub)
            .then_with(|| other.first.cmp(&self.first))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// One answer that made the top-k list.
#[derive(Clone, Debug)]
pub struct TopKItem {
    /// Index into the submitted answer sequence.
    pub index: usize,
    /// The answer's score: its best fact's exact Shapley value.
    pub score: Rational,
    /// The full engine result, values translated onto this answer's own
    /// facts.
    pub result: EngineResult,
}

/// What one top-k ranking run produced.
///
/// Answer counts cover every submitted answer (`solved_answers +
/// pruned_answers = answers`); structure counts and `dedup` cover only the
/// answers that survived the stream filter, the only ones canonicalized.
#[derive(Clone, Debug)]
pub struct TopKReport {
    /// The `k` best answers — bit-identical to the full ranking's prefix
    /// under (score desc, index asc) order. Shorter than `k` only when
    /// fewer answers were submitted.
    pub top: Vec<TopKItem>,
    /// The requested `k`.
    pub k: usize,
    /// Answers submitted.
    pub answers: usize,
    /// Answers whose structure was actually solved.
    pub solved_answers: usize,
    /// Answers ranked out unsolved: dropped by the stream filter or pruned
    /// by the admission loop.
    pub pruned_answers: usize,
    /// Distinct surviving structures solved.
    pub solved_structures: usize,
    /// Distinct surviving structures pruned unsolved.
    pub pruned_structures: usize,
    /// Per-answer routing, in submission order: the plan's reason for
    /// solved answers, [`PlanReason::TopKPruned`] for the rest.
    pub reasons: Vec<PlanReason>,
    /// Structural dedup over the surviving answers: `tasks` is the number
    /// of survivors, `distinct` their canonical structures.
    pub dedup: DedupStats,
    /// Indices of the answers that passed the stream filter, ascending:
    /// the only ones fingerprinted.
    pub survivors: Vec<usize>,
    /// Every counter this ranking bumped, and nothing any concurrent run
    /// did: `topk.bound_passes` (every answer, or none at `k = 0`),
    /// fingerprints, admissions, routes, `engine.runs` (cache hits and
    /// pruned structures run none) and the result-cache traffic
    /// (`CacheRunStats::of`).
    pub profile: Profile,
    /// Wall time of the whole ranking, including the time spent pulling
    /// the answers (for a streamed input, the extraction it waits on).
    pub total_time: Duration,
}

/// Ranks answers by their best fact's exact Shapley value, dropping the
/// answers that cannot make the list as they stream in, then solving the
/// survivors' structures in decreasing upper-bound order and pruning the
/// tail (see the module docs).
///
/// The planner must stay on exact routes: a forced or fallback sampling
/// engine would hand back estimates the threshold cannot soundly compare,
/// so the run fails with [`EngineError::Unsupported`] instead.
#[derive(Clone, Debug, Default)]
pub struct TopKExecutor {
    planner: Planner,
}

impl TopKExecutor {
    /// An executor solving through the given planner (and its caches).
    pub fn new(planner: Planner) -> TopKExecutor {
        TopKExecutor { planner }
    }

    /// Ranks the answers' raw lineages, given in submission order, and
    /// returns the top `k`. Each lineage is minimized (a no-op for one
    /// that already is, such as an `endo_lineage`) and bounded on a dense
    /// renaming, with [`shapley_bounds`]' set-up built once per variable
    /// count and one scratch reused by every answer; an answer whose upper
    /// bound falls strictly below
    /// the `k`-th best lower bound seen so far is dropped on the spot, so
    /// a streamed input retains only the survivors' minimized lineages.
    /// Only the survivors of the final threshold are fingerprinted,
    /// grouped and admitted.
    ///
    /// Errors from the underlying solves propagate immediately (exact
    /// mode — a partial ranking would not be a ranking).
    pub fn run(
        &self,
        lineages: impl IntoIterator<Item = Dnf>,
        k: usize,
        n_endo: usize,
        budget: &Budget,
    ) -> Result<TopKReport, EngineError> {
        let start = Instant::now();
        let profile = Arc::new(Profile::new());
        let _run = profile.enter();

        // Stream filter: `lowers` keeps the k largest lower bounds so far.
        // `k` is not capped by an answer count yet: no capacity from it.
        let mut lowers: BinaryHeap<Reverse<Lower>> = BinaryHeap::new();
        let mut tables = BoundTables::default();
        let mut survivors: Vec<Survivor> = Vec::new();
        let mut answers = 0usize;
        for (index, mut lineage) in lineages.into_iter().enumerate() {
            answers += 1;
            if k == 0 {
                continue;
            }
            lineage.minimize();
            TOPK_BOUND_PASSES.incr();
            let upper = tables.lineage_upper(&lineage);
            lowers.push(Reverse(Lower(upper.vars)));
            if lowers.len() > k {
                lowers.pop();
            }
            if !below_threshold(&upper, &lowers, k) {
                survivors.push(Survivor {
                    index,
                    upper,
                    lineage,
                });
            }
        }
        survivors.retain(|s| !below_threshold(&s.upper, &lowers, k));
        stages::record_measure_requests(Measure::Shapley, answers as u64);

        // Only survivors are canonicalized, and only their bounds reduced.
        // A group's admission bound is the tightest of its members' own
        // bounds: all members share one exact score.
        let (kept, fps): (Vec<(usize, Rational)>, Vec<Fingerprint>) = survivors
            .into_iter()
            .map(|s| {
                let fp = fingerprint_minimized(&s.lineage);
                ((s.index, s.upper.into_rational()), fp)
            })
            .unzip();
        let grouping = stages::group_by_structure(&fps);
        let distinct = grouping.distinct();
        let mut heap: BinaryHeap<Candidate> = grouping
            .members_of
            .iter()
            .enumerate()
            .map(|(group, members)| Candidate {
                ub: members
                    .iter()
                    .map(|&m| &kept[m].1)
                    .min()
                    .expect("a group has members")
                    .clone(),
                first: kept[members[0]].0,
                group,
            })
            .collect();

        // Admission loop: solve in decreasing bound order until the k-th
        // solved score dominates every remaining bound.
        let mut reasons: Vec<PlanReason> = vec![PlanReason::TopKPruned; answers];
        let mut kth: BinaryHeap<Reverse<Rational>> = BinaryHeap::with_capacity(k.min(answers) + 1);
        let mut solved: Vec<(usize, Rational, EngineResult)> = Vec::new();
        let mut solved_answers = 0usize;
        let mut pruned_structures = 0usize;
        while let Some(cand) = heap.pop() {
            let dominated = k == 0 || (kth.len() == k && cand.ub < kth.peek().expect("k scores").0);
            if dominated {
                // Heap order: everything left is bounded by cand.ub too.
                pruned_structures += 1 + heap.len();
                break;
            }
            let fp = &fps[grouping.first_of_group[cand.group]];
            let plan = self.planner.plan_fp(fp, Measure::Shapley);
            let result = self
                .planner
                .solve_structure(fp, &[plan], n_endo, budget, cand.first as u64, 1)
                .pop()
                .expect("one plan, one result")?;
            let score =
                match &result.values {
                    // Engine values are sorted by decreasing value: the first
                    // entry is the structure's best fact. No players (a
                    // constant lineage) scores zero.
                    EngineValues::Exact(v) => v
                        .first()
                        .map(|(_, x)| x.clone())
                        .unwrap_or_else(Rational::zero),
                    EngineValues::Approx(_) => return Err(EngineError::Unsupported(
                        "top-k pruning needs exact scores; the planner routed to an inexact engine",
                    )),
                };
            let members = &grouping.members_of[cand.group];
            TOPK_SOLVED.add(members.len() as u64);
            solved_answers += members.len();
            for &m in members {
                reasons[kept[m].0] = plan.reason;
                kth.push(Reverse(score.clone()));
                if kth.len() > k {
                    kth.pop();
                }
            }
            solved.push((cand.group, score, result));
        }
        let pruned_answers = answers - solved_answers;
        TOPK_PRUNED.add(pruned_answers as u64);

        // Final selection: the solved answers under the full ranking's
        // order (survivors keep answer order, so their positions break
        // ties as the answer indices do), translated through each answer's
        // own renaming.
        let mut ranked: Vec<(usize, Rational, usize)> = Vec::new();
        for (slot, (group, score, _)) in solved.iter().enumerate() {
            for &m in &grouping.members_of[*group] {
                ranked.push((m, score.clone(), slot));
            }
        }
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let top = ranked
            .into_iter()
            .map(|(m, score, slot)| TopKItem {
                index: kept[m].0,
                score,
                result: translate_result(solved[slot].2.clone(), &fps[m]),
            })
            .collect();

        Ok(TopKReport {
            top,
            k,
            answers,
            solved_answers,
            pruned_answers,
            solved_structures: solved.len(),
            pruned_structures,
            reasons,
            dedup: DedupStats {
                tasks: kept.len(),
                distinct,
            },
            survivors: kept.iter().map(|&(index, _)| index).collect(),
            profile: (*profile).clone(),
            total_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::reference::reference_bounds;
    use super::*;
    use crate::engine::{BatchExecutor, EngineKind, LineageTask, PlannerConfig};
    use proptest::prelude::*;
    use shapdb_circuit::{fingerprint, Dnf, VarId};
    use shapdb_metrics::counters::{CacheRunStats, CIRCUIT_FACTOR_PASSES};

    /// The canonical key of the DNF with these conjuncts.
    fn canonical_key(conjs: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        fingerprint(&d).key().clone()
    }

    /// [`TopKExecutor::run`] over the lineages under unlimited budgets.
    fn run_lineages(
        exec: &TopKExecutor,
        lineages: &[Dnf],
        k: usize,
        n_endo: usize,
    ) -> Result<TopKReport, EngineError> {
        exec.run(lineages.iter().cloned(), k, n_endo, &Budget::unlimited())
    }

    fn num_vars(key: &[Vec<u32>]) -> usize {
        key.iter().flatten().max().map_or(0, |&m| m as usize + 1)
    }

    /// `bits(lcm(1..=n)) + 3`: the width the kernel's tier must hold.
    fn kernel_bits(n: usize) -> u64 {
        lcm_upto(n).bits() + 3
    }

    #[test]
    fn lcm_matches_the_iterated_definition() {
        let mut lcm = BigUint::one();
        for n in 1..=120usize {
            let g = lcm.gcd(&BigUint::from_u64(n as u64));
            lcm.mul_small(n as u64);
            lcm.div_small(g.to_u64().unwrap());
            assert_eq!(lcm_upto(n), lcm, "n={n}");
        }
        assert_eq!(lcm_upto(0), BigUint::one());
    }

    #[test]
    fn tier_boundaries_match_the_docs() {
        // Vli<1> up to 42 variables; BigUint from 353.
        assert!(kernel_bits(42) <= 64 && kernel_bits(43) > 64);
        assert!(kernel_bits(352) <= 512 && kernel_bits(353) > 512);
    }

    #[test]
    fn every_tier_matches_the_reference() {
        // Width-6 windows overlapping by two variables: contested
        // competitors, with the variable count picking each tier in turn.
        for n in [30usize, 70, 150, 300, 450] {
            let conjs: Vec<Vec<u32>> = (0..n as u32 - 5)
                .step_by(4)
                .map(|i| (i..i + 6).collect())
                .collect();
            let key = canonical_key(&conjs);
            assert_eq!(shapley_bounds(&key), reference_bounds(&key), "n={n}");
        }
    }

    /// `lineage`'s conjuncts renamed onto `0..vars` in increasing fact
    /// order: the key the executor loads a lineage as.
    fn dense_key(lineage: &Dnf) -> Vec<Vec<u32>> {
        let vars = lineage.vars();
        lineage
            .conjuncts()
            .iter()
            .map(|c| {
                c.iter()
                    .map(|v| vars.binary_search(v).unwrap() as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cached_bounds_equal_one_shot_bounds_on_the_job_smoke_keys() {
        // One table set across every answer, as a ranking run keeps it,
        // on the lineages as the executor loads them and on both their
        // dense and canonical keys.
        use shapdb_workloads::{job_database, job_ranking_query, JobConfig};
        let db = job_database(&JobConfig::smoke());
        let answers = shapdb_query::evaluate(&job_ranking_query(), &db);
        let mut tables = BoundTables::default();
        let mut counts = std::collections::HashSet::new();
        for out in &answers.outputs {
            let lineage = out.endo_lineage(&db);
            let dense = dense_key(&lineage);
            let upper = tables.lineage_upper(&lineage);
            assert_eq!(upper.lower(), shapley_bounds(&dense).lower);
            assert_eq!(upper.into_rational(), shapley_bounds(&dense).upper);
            for key in [dense, fingerprint(&lineage).key().clone()] {
                counts.insert(num_vars(&key));
                assert_eq!(tables.bounds(&key), shapley_bounds(&key), "{key:?}");
            }
        }
        assert!(counts.len() > 1, "the corpus has several variable counts");
        assert_eq!(tables.by_vars.len(), counts.len(), "one table per count");
    }

    #[test]
    fn constant_keys_match_the_reference() {
        assert_eq!(shapley_bounds(&[]), reference_bounds(&[]));
        assert_eq!(shapley_bounds(&[vec![]]), reference_bounds(&[vec![]]));
    }

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// `j` pairwise disjoint width-2 conjuncts starting at var `base`.
    fn disjoint_pairs(j: u32, base: u32) -> Dnf {
        let mut d = Dnf::new();
        for i in 0..j {
            d.add_conjunct(vec![VarId(base + 2 * i), VarId(base + 2 * i + 1)]);
        }
        d
    }

    fn max_exact(planner: &Planner, d: &Dnf, n_endo: usize) -> Rational {
        let r = planner.solve(&LineageTask::new(d, n_endo)).unwrap();
        match &r.values {
            EngineValues::Exact(v) => v
                .first()
                .map(|(_, x)| x.clone())
                .unwrap_or_else(Rational::zero),
            EngineValues::Approx(_) => panic!("exact expected"),
        }
    }

    #[test]
    fn bounds_are_exact_on_disjoint_pair_unions() {
        // j disjoint width-2 conjuncts: with ≤ 3 competitors the
        // inclusion–exclusion is the full one for j ≤ 4, so the bound
        // *equals* the exact best value: 1/2, 1/4, 1/6, 1/8.
        let planner = Planner::new(PlannerConfig::default());
        for (j, want) in [(1, (1, 2)), (2, (1, 4)), (3, (1, 6)), (4, (1, 8))] {
            let d = disjoint_pairs(j, 0);
            let b = shapley_bounds(fingerprint(&d).key());
            assert_eq!(b.upper, Rational::from_ratio(want.0, want.1), "j={j}");
            assert_eq!(b.lower, Rational::from_ratio(1, 2 * j as u64), "j={j}");
            assert_eq!(
                max_exact(&planner, &d, 2 * j as usize),
                b.upper,
                "j={j}: bound is tight here"
            );
        }
        // j = 5 keeps only 3 of the 4 competitors: the bound stays at 1/8
        // while the exact value drops to 1/10 — sound, not tight.
        let d = disjoint_pairs(5, 0);
        let b = shapley_bounds(fingerprint(&d).key());
        assert_eq!(b.upper, Rational::from_ratio(1, 8));
        assert_eq!(max_exact(&planner, &d, 10), Rational::from_ratio(1, 10));
    }

    #[test]
    fn constant_structures_have_zero_bounds() {
        let zero = ScoreBounds {
            lower: Rational::zero(),
            upper: Rational::zero(),
        };
        assert_eq!(shapley_bounds(&[]), zero, "⊥ has no players");
        assert_eq!(shapley_bounds(&[vec![]]), zero, "⊤ has no players");
        // A certain-true lineage scores zero for every fact, so the
        // zero bound keeps it prunable and sound.
        let mut top = Dnf::new();
        top.add_conjunct(vec![]);
        top.add_conjunct(vec![VarId(3)]);
        assert_eq!(shapley_bounds(fingerprint(&top).key()), zero);
    }

    #[test]
    fn singleton_conjuncts_hit_the_cap() {
        // ∨ of many singletons: per-var sums cap at 1, and var-rich
        // structures stay bounded by 1 exactly.
        let d = dnf(&[&[0]]);
        assert_eq!(shapley_bounds(fingerprint(&d).key()).upper, Rational::one());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The bracket is sound on random monotone DNFs: the exact best
        /// Shapley value always lands inside [lower, upper].
        #[test]
        fn prop_bounds_bracket_the_exact_maximum(
            conjs in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 1..4), 1..6),
        ) {
            let mut d = Dnf::new();
            for c in &conjs {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let fp = fingerprint(&d);
            let b = shapley_bounds(fp.key());
            let planner = Planner::new(PlannerConfig::default());
            let best = max_exact(&planner, &d, 6);
            prop_assert!(b.lower <= best, "lower {:?} > exact {:?}", b.lower, best);
            prop_assert!(best <= b.upper, "exact {:?} > upper {:?}", best, b.upper);
        }

        /// The integer kernel equals the set-algebra definition, bit for
        /// bit, on narrow structures (the `Vli<1>` tier).
        #[test]
        fn prop_kernel_matches_reference_narrow(
            conjs in proptest::collection::vec(
                proptest::collection::vec(0u32..40, 1..6), 1..14),
        ) {
            let key = canonical_key(&conjs);
            prop_assert!(kernel_bits(num_vars(&key)) <= 64);
            prop_assert_eq!(shapley_bounds(&key), reference_bounds(&key));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// … on ~50–300-variable structures (`Vli<2/4/8>`).
        #[test]
        fn prop_kernel_matches_reference_mid(
            conjs in proptest::collection::vec(
                proptest::collection::vec(0u32..5_000, 2..7), 16..80),
        ) {
            let key = canonical_key(&conjs);
            let n = num_vars(&key);
            prop_assume!(kernel_bits(n) > 64);
            prop_assert_eq!(shapley_bounds(&key), reference_bounds(&key));
        }

        /// … with a few shared hub variables, so most facts sit in several
        /// conjuncts and competitor choice is contested.
        #[test]
        fn prop_kernel_matches_reference_overlapping(
            conjs in proptest::collection::vec(
                (proptest::collection::vec(0u32..6, 1..3),
                 proptest::collection::vec(6u32..120, 1..5)), 8..30),
        ) {
            let conjs: Vec<Vec<u32>> = conjs
                .into_iter()
                .map(|(hubs, rest)| hubs.into_iter().chain(rest).collect())
                .collect();
            let key = canonical_key(&conjs);
            prop_assert_eq!(shapley_bounds(&key), reference_bounds(&key));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// … on ≥ 400-variable structures (`BigUint`).
        #[test]
        fn prop_kernel_matches_reference_wide(
            conjs in proptest::collection::vec(
                proptest::collection::vec(0u32..100_000, 6..10), 70..90),
        ) {
            let key = canonical_key(&conjs);
            let n = num_vars(&key);
            prop_assume!(n >= 400);
            prop_assert!(kernel_bits(n) > 512);
            prop_assert_eq!(shapley_bounds(&key), reference_bounds(&key));
        }
    }

    /// A key drawn by `shape` from `raw` for the state-leak test: narrow
    /// (≤ 12 variables, so union sizes tie), mid (up to 150 variables:
    /// multi-word rows, `Vli<2/4/8>`), wide (≥ 360 variables, `BigUint`) or
    /// constant.
    fn shaped_key(shape: u32, raw: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let pick = |conjs: usize, width: usize, modulus: u32| -> Vec<Vec<u32>> {
            raw.iter()
                .take(conjs)
                .map(|c| c.iter().take(width).map(|v| v % modulus).collect())
                .collect()
        };
        match shape {
            0..=12 => canonical_key(&pick(12, 3, 12)),
            13..=20 => canonical_key(&pick(30, 5, 150)),
            21 => {
                // Width-6 windows overlapping by two variables.
                let n = 360 + raw[0][0] % 40;
                let windows: Vec<Vec<u32>> = (0..n - 5)
                    .step_by(4)
                    .map(|i| (i..i + 6).collect())
                    .collect();
                canonical_key(&windows)
            }
            _ if raw.len().is_multiple_of(2) => Vec::new(),
            _ => vec![Vec::new()],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// One table set bounds a random sequence of keys of every tier,
        /// as a ranking run does: each bound equals the definition, through
        /// a key and through a lineage loaded into the same scratch, so no
        /// order, pairwise size or memoized term leaks from one structure
        /// into the next. The unreduced threshold test agrees with the
        /// reduced bound.
        #[test]
        fn prop_one_table_set_matches_the_reference_across_structures(
            keys in proptest::collection::vec(
                (0u32..24, proptest::collection::vec(
                    proptest::collection::vec(0u32..100_000, 1..7), 1..50)),
                2..10),
        ) {
            let mut tables = BoundTables::default();
            for (shape, raw) in &keys {
                let key = shaped_key(*shape, raw);
                let want = reference_bounds(&key);
                prop_assert_eq!(tables.bounds(&key), want.clone());

                // The same structure as a lineage over sparse fact ids.
                let mut lineage = Dnf::new();
                for c in &key {
                    lineage.add_conjunct(c.iter().map(|&v| VarId(7 * v + 3)).collect());
                }
                let want = reference_bounds(&dense_key(&lineage));
                let upper = tables.lineage_upper(&lineage);
                prop_assert_eq!(upper.lower(), want.lower);
                for t in [0, 1, 2, 3, upper.vars, upper.vars + 1] {
                    let tau = match t {
                        0 => Rational::zero(),
                        t => Rational::from_ratio(1, t as u64),
                    };
                    prop_assert_eq!(upper.below(Lower(t)), want.upper < tau, "t={}", t);
                }
                prop_assert_eq!(upper.into_rational(), want.upper);
            }
        }
    }

    /// A mixed corpus: scores 1, 1/2 (×2, isomorphic), 43/105, 1/3 (×2,
    /// isomorphic twins with distinct renamings), 1/4, 1/8.
    fn corpus() -> Vec<Dnf> {
        vec![
            dnf(&[&[0]]),
            dnf(&[&[1, 2]]),
            dnf(&[&[30, 40]]),
            dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]),
            dnf(&[&[7, 8], &[8, 9], &[7, 9]]),
            dnf(&[&[17, 28], &[28, 39], &[17, 39]]),
            disjoint_pairs(2, 50),
            disjoint_pairs(4, 60),
        ]
    }

    /// The solve-everything baseline ranking: (index, score) under
    /// (score desc, index asc).
    fn full_ranking(planner: &Planner, lineages: &[Dnf], n_endo: usize) -> Vec<(usize, Rational)> {
        let report = BatchExecutor::new(planner.clone()).with_threads(1).run(
            lineages,
            n_endo,
            &Budget::unlimited(),
            &[Measure::Shapley],
        );
        let mut scored: Vec<(usize, Rational)> = report
            .items
            .iter()
            .map(|it| {
                let r = it.result.as_ref().unwrap();
                let s = match &r.values {
                    EngineValues::Exact(v) => v
                        .first()
                        .map(|(_, x)| x.clone())
                        .unwrap_or_else(Rational::zero),
                    EngineValues::Approx(_) => panic!("exact expected"),
                };
                (it.index, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }

    #[test]
    fn top_k_equals_the_full_rankings_prefix() {
        let lineages = corpus();
        let n = lineages.len();
        let baseline = full_ranking(&Planner::new(PlannerConfig::default()), &lineages, 70);
        for k in [1, 2, 3, 5, n, n + 3, usize::MAX] {
            let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
            let report = run_lineages(&exec, &lineages, k, 70).unwrap();
            let got: Vec<(usize, Rational)> = report
                .top
                .iter()
                .map(|i| (i.index, i.score.clone()))
                .collect();
            assert_eq!(
                got,
                baseline[..k.min(n)].to_vec(),
                "k={k}: prefix must be bit-identical, ties included"
            );
            // Every returned result is on the answer's own facts and its
            // top value is the reported score.
            for item in &report.top {
                let EngineValues::Exact(v) = &item.result.values else {
                    panic!("exact expected");
                };
                if let Some((_, best)) = v.first() {
                    assert_eq!(best, &item.score);
                }
            }
            assert_eq!(report.answers, n);
            assert_eq!(report.solved_answers + report.pruned_answers, n);
            if k >= n {
                assert_eq!(report.pruned_answers, 0, "k≥n never prunes");
            }
        }
    }

    #[test]
    fn pruning_engages_below_the_kth_score() {
        // Five isomorphic strong answers (score 1/2, both bounds 1/2) ahead
        // of six weak ones (upper bounds 1/8): at k = 3 the strong answers
        // pin τ at 1/2, the weak ones are dropped in the stream without
        // being fingerprinted, and the strong structure solves once.
        let mut lineages: Vec<Dnf> = (0..5).map(|i| dnf(&[&[2 * i, 2 * i + 1]])).collect();
        for i in 0..3u32 {
            lineages.push(disjoint_pairs(4, 100 + 10 * i));
        }
        for i in 0..3u32 {
            lineages.push(disjoint_pairs(5, 200 + 12 * i));
        }
        let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
        let report = run_lineages(&exec, &lineages, 3, 64).unwrap();
        assert_eq!(report.solved_structures, 1, "only the strong structure");
        assert_eq!(report.pruned_structures, 0, "the weak ones never group");
        assert_eq!(report.solved_answers, 5);
        assert_eq!(report.pruned_answers, 6);
        assert_eq!(report.profile.engine_runs(), 1);
        assert_eq!(report.profile.get(&TOPK_BOUND_PASSES), 11, "one per answer");
        assert_eq!(report.dedup.distinct, 1);
        assert_eq!(report.dedup.tasks, 5, "the survivors");
        for (i, reason) in report.reasons.iter().enumerate() {
            if i < 5 {
                assert_ne!(*reason, PlanReason::TopKPruned, "answer {i} solved");
            } else {
                assert_eq!(*reason, PlanReason::TopKPruned, "answer {i} pruned");
            }
        }
        // The prefix is still exact: the three earliest strong answers.
        let got: Vec<usize> = report.top.iter().map(|i| i.index).collect();
        assert_eq!(got, vec![0, 1, 2]);
        for item in &report.top {
            assert_eq!(item.score, Rational::from_ratio(1, 2));
        }
    }

    /// Runs the executor at `k` and asserts its list is the full
    /// ranking's length-`k` prefix, bit for bit: indices, scores (ties
    /// broken by index) and the values translated onto each answer's own
    /// facts.
    fn assert_lossless(lineages: &[Dnf], k: usize, n_endo: usize) -> TopKReport {
        let planner = Planner::new(PlannerConfig::default());
        let batch = BatchExecutor::new(planner.clone()).with_threads(1).run(
            lineages,
            n_endo,
            &Budget::unlimited(),
            &[Measure::Shapley],
        );
        let baseline = full_ranking(&planner, lineages, n_endo);
        let n = lineages.len();
        let report = run_lineages(&TopKExecutor::new(planner), lineages, k, n_endo).unwrap();
        let got: Vec<(usize, Rational)> = report
            .top
            .iter()
            .map(|i| (i.index, i.score.clone()))
            .collect();
        assert_eq!(got, baseline[..k.min(n)].to_vec(), "k={k}");
        for item in &report.top {
            let want = batch.items[item.index].result.as_ref().unwrap();
            assert_eq!(item.result.values, want.values, "k={k} #{}", item.index);
        }
        assert_eq!(report.answers, n);
        assert_eq!(report.solved_answers + report.pruned_answers, n);
        assert_eq!(report.reasons.len(), n);
        report
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The stream filter and the admission loop together are lossless
        /// on random corpora: overlapping facts, repeated and isomorphic
        /// structures, constants (`⊥`), and many score ties.
        #[test]
        fn prop_topk_is_the_full_rankings_prefix(
            answers in proptest::collection::vec(
                (0u32..3, proptest::collection::vec(
                    proptest::collection::vec(0u32..7, 1..4), 0..5)),
                1..10),
        ) {
            let lineages: Vec<Dnf> = answers
                .iter()
                .map(|(shift, conjs)| {
                    let mut d = Dnf::new();
                    for c in conjs {
                        d.add_conjunct(c.iter().map(|&v| VarId(v + 7 * shift)).collect());
                    }
                    d
                })
                .collect();
            let n = lineages.len();
            for k in [0, 1, 3, n, n + 3] {
                let report = assert_lossless(&lineages, k, 21);
                if k >= n {
                    prop_assert_eq!(report.dedup.tasks, n, "k ≥ n drops nothing");
                }
            }
        }
    }

    #[test]
    fn an_upper_bound_tied_with_tau_survives() {
        // Both bounds of a single width-2 conjunct are 1/2 (its exact
        // score), and a singleton's are 1. At k = 2, τ ends at 1/2: answers
        // 0 and 2 have `upper` = τ exactly. Answer 2 meets τ in the stream
        // (after answers 0 and 1 set it), answer 0 only at the final
        // filter, and answer 0 is the list's second entry by its index.
        let lineages = vec![dnf(&[&[1, 2]]), dnf(&[&[0]]), dnf(&[&[3, 4]])];
        let report = assert_lossless(&lineages, 2, 5);
        assert_eq!(report.dedup.tasks, 3, "ties at τ stay");
        let got: Vec<usize> = report.top.iter().map(|i| i.index).collect();
        assert_eq!(got, vec![1, 0]);
        // One more weak answer (upper 1/4 < τ) is dropped in the stream.
        let mut lineages = lineages;
        lineages.push(disjoint_pairs(2, 10));
        let report = assert_lossless(&lineages, 2, 14);
        assert_eq!(report.dedup.tasks, 3);
        assert_eq!(report.pruned_answers, 1);
        assert_eq!(report.reasons[3], PlanReason::TopKPruned);
    }

    #[test]
    fn the_final_threshold_drops_answers_that_came_early() {
        // The weak answer (both bounds 1/4) arrives before any lower bound
        // is known and passes the stream check; the two pairs after it
        // raise τ to 1/2, and the final filter drops it unfingerprinted.
        let lineages = vec![disjoint_pairs(2, 10), dnf(&[&[0, 1]]), dnf(&[&[2, 3]])];
        let report = assert_lossless(&lineages, 2, 14);
        assert_eq!(report.dedup.tasks, 2);
        assert_eq!(report.profile.get(&CIRCUIT_FACTOR_PASSES), 2);
        assert_eq!(report.reasons[0], PlanReason::TopKPruned);
        assert_eq!((report.solved_answers, report.pruned_answers), (2, 1));
    }

    #[test]
    fn weak_lower_bounds_drop_nothing() {
        // Every answer has six facts, so every lower bound is 1/6 and τ is
        // 1/6 — no upper bound falls below it, and every answer reaches
        // the admission loop.
        let lineages = vec![
            disjoint_pairs(3, 0),
            dnf(&[&[0], &[1, 2, 3, 4, 5]]),
            dnf(&[&[0, 1, 2], &[3, 4, 5]]),
            dnf(&[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5]]),
            dnf(&[&[10, 11], &[12, 13], &[14, 15]]),
            dnf(&[&[0, 1], &[0, 2], &[0, 3], &[0, 4], &[0, 5]]),
        ];
        let n = lineages.len();
        for k in [1, 3, n] {
            let report = assert_lossless(&lineages, k, 16);
            assert_eq!(report.dedup.tasks, n, "k={k}: nothing drops");
            assert_eq!(report.profile.get(&TOPK_BOUND_PASSES) as usize, n);
        }
    }

    #[test]
    fn admission_prunes_survivors_below_the_kth_score() {
        // x0 ∨ (x1 ∧ … ∧ x7) gives x0 the value 7/8 but a lower bound of
        // only 1/8, so τ stays at 1/8 and the disjoint-pair answers (both
        // bounds 1/8) survive the stream. The admission loop then solves
        // the strong structure once and prunes theirs unsolved.
        let star: &[&[u32]] = &[&[0], &[1, 2, 3, 4, 5, 6, 7]];
        let mut lineages = vec![dnf(star)];
        for i in 0..3u32 {
            lineages.push(disjoint_pairs(4, 10 + 10 * i));
        }
        lineages.push(dnf(&[&[40], &[41, 42, 43, 44, 45, 46, 47]]));
        let report = assert_lossless(&lineages, 2, 48);
        assert_eq!(report.dedup.tasks, 5, "nothing drops in the stream");
        assert_eq!(report.dedup.distinct, 2);
        assert_eq!(report.solved_structures, 1);
        assert_eq!(report.pruned_structures, 1);
        assert_eq!((report.solved_answers, report.pruned_answers), (2, 3));
        assert_eq!(report.profile.engine_runs(), 1);
        let got: Vec<usize> = report.top.iter().map(|i| i.index).collect();
        assert_eq!(got, vec![0, 4]);
        assert_eq!(report.top[0].score, Rational::from_ratio(7, 8));
    }

    #[test]
    fn k_zero_solves_nothing() {
        let lineages = corpus();
        let n = lineages.len();
        let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
        let report = run_lineages(&exec, &lineages, 0, 70).unwrap();
        assert!(report.top.is_empty());
        assert_eq!(report.pruned_answers, n);
        assert_eq!(report.profile.engine_runs(), 0);
        assert!(report.reasons.iter().all(|r| *r == PlanReason::TopKPruned));
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
        let report = run_lineages(&exec, &[], 5, 0).unwrap();
        assert!(report.top.is_empty());
        assert_eq!(report.answers, 0);
        assert_eq!(report.profile.get(&TOPK_BOUND_PASSES), 0);
    }

    #[test]
    fn inexact_planners_are_rejected() {
        // A forced sampling engine hands back estimates: the threshold
        // cannot soundly compare them, so the run errors out instead of
        // quietly mis-ranking.
        let exec = TopKExecutor::new(Planner::new(PlannerConfig {
            force: Some(EngineKind::Proxy),
            ..Default::default()
        }));
        let lineages = vec![dnf(&[&[0, 1], &[1, 2], &[0, 2]])];
        let err = run_lineages(&exec, &lineages, 1, 3).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn a_result_cache_serves_repeat_rankings() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        let exec = TopKExecutor::new(planner);
        let lineages = corpus();
        let cold = run_lineages(&exec, &lineages, 3, 70).unwrap();
        assert!(CacheRunStats::of(&cold.profile).misses > 0);
        let warm = run_lineages(&exec, &lineages, 3, 70).unwrap();
        assert_eq!(
            warm.profile.engine_runs(),
            0,
            "all solved structures cached"
        );
        assert_eq!(
            CacheRunStats::of(&warm.profile).hits,
            CacheRunStats::of(&cold.profile).misses
        );
        for (a, b) in cold.top.iter().zip(&warm.top) {
            assert_eq!((a.index, &a.score), (b.index, &b.score));
            assert_eq!(a.result.values, b.result.values);
        }
    }
}
