//! Join planning: one left-deep atom order per (disjunct, set of initially
//! bound variables), fixed before the search starts.
//!
//! The cost of an order is the sum of its estimated intermediate result
//! sizes. A prefix's size multiplies each atom's row count (scaled by the
//! share of rows matching its constants) by the selectivity of every join:
//! a variable occurring at positions with distinct-value counts
//! `d₁ ≥ … ≥ d_k` divides by every count but the smallest (by all of them
//! when the variable is bound from the start); a comparison predicate keeps
//! a fixed share. Distinct counts come from single-column indexes, which
//! double as the probe index of every atom with one bound position. Up to
//! [`DP_ATOMS`] atoms a subset dynamic program finds the cheapest order;
//! past that a greedy pass takes the cheapest next atom. Neither appends an
//! atom sharing no variable with the prefix while one that does remains.

use crate::ast::{CmpOp, ConjunctiveQuery, Predicate, Term, MAX_ATOM_TERMS};
use shapdb_data::{Database, Index, Value};
use std::sync::Arc;

/// Widest disjunct ordered by the exact subset dynamic program.
const DP_ATOMS: usize = 12;

/// Where a bound position's value comes from.
pub(crate) enum Src {
    Const(Value),
    Var(usize),
}

/// One atom of a plan: how to find its rows and what each row binds.
pub(crate) struct Step {
    /// Position of the relation in `db.relations()`.
    pub rel: usize,
    /// The index probed with the values of `bound`; `None` scans.
    pub index: Option<Arc<Index>>,
    /// Positions whose value is known before this step, ascending: the
    /// probe key, re-checked on every probed row.
    pub bound: Vec<(usize, Src)>,
    /// Positions binding a variable for the first time.
    pub binds: Vec<(usize, usize)>,
    /// Positions repeating a variable first bound at this same atom.
    pub repeats: Vec<(usize, usize)>,
    /// Predicates first decidable once this atom is joined.
    pub preds: Vec<Predicate>,
}

/// A disjunct's join order for one set of initially bound variables.
pub(crate) struct Plan {
    /// `None` when the disjunct has no derivation on this database: an
    /// atom names a missing relation, or a predicate mentions a variable
    /// that no atom binds.
    pub steps: Option<Vec<Step>>,
    /// Predicates decided by the initially bound variables alone.
    pub pre: Vec<Predicate>,
    /// Steps after which every head variable is bound (0 for a Boolean or
    /// all-constant head): matches that agree on these steps are the same
    /// answer.
    pub head_depth: usize,
}

fn term_vars(t: &Term) -> Option<usize> {
    match t {
        Term::Var(v) => Some(v.index()),
        Term::Const(_) => None,
    }
}

fn pred_vars(p: &Predicate) -> impl Iterator<Item = usize> {
    term_vars(&p.lhs).into_iter().chain(term_vars(&p.rhs))
}

/// The bitmask of `positions`, an index's key columns.
pub(crate) fn positions(positions: impl IntoIterator<Item = usize>) -> u64 {
    positions.into_iter().fold(0, |m, i| m | 1 << i)
}

/// The share of rows a comparison keeps, for cost estimates only.
fn selectivity(op: CmpOp) -> f64 {
    match op {
        CmpOp::Eq => 0.1,
        CmpOp::Ne => 0.9,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
    }
}

/// What the cost model knows about a disjunct.
struct Stats {
    /// Per atom: rows matching its constants.
    rows: Vec<f64>,
    /// Per atom: its variables (deduplicated).
    vars: Vec<Vec<usize>>,
    /// Per variable: `(atom, distinct values at that position)`, one entry
    /// per occurrence.
    occ: Vec<Vec<(usize, f64)>>,
    seeded: Vec<bool>,
    /// Per predicate: its variables and the share of rows it keeps.
    preds: Vec<(Vec<usize>, f64)>,
}

impl Stats {
    /// Estimated size of the join of the atoms `has` accepts.
    fn size(&self, has: impl Fn(usize) -> bool) -> f64 {
        let mut size: f64 = (0..self.rows.len())
            .filter(|&a| has(a))
            .map(|a| self.rows[a])
            .product();
        for (x, occ) in self.occ.iter().enumerate() {
            let (mut all, mut min) = (1.0, f64::INFINITY);
            for &(_, d) in occ.iter().filter(|&&(a, _)| has(a)) {
                all *= d;
                min = min.min(d);
            }
            size /= if self.seeded[x] || min == f64::INFINITY {
                all
            } else {
                all / min
            };
        }
        for (vars, sel) in &self.preds {
            if vars.iter().all(|&x| self.bound(x, &has)) {
                size *= sel;
            }
        }
        size
    }

    fn bound(&self, x: usize, has: &impl Fn(usize) -> bool) -> bool {
        self.seeded[x] || self.occ[x].iter().any(|&(a, _)| has(a))
    }

    /// True iff atom `a` shares a variable with the atoms `has` accepts or
    /// with the initially bound ones.
    fn connected(&self, a: usize, has: impl Fn(usize) -> bool) -> bool {
        self.vars[a].iter().any(|&x| self.bound(x, &has))
    }

    /// True iff appending `a` to the prefix `has` accepts joins it to the
    /// prefix, or no remaining atom could (so a cross product is forced).
    fn admissible(&self, a: usize, has: impl Fn(usize) -> bool + Copy) -> bool {
        self.connected(a, has) || !(0..self.rows.len()).any(|b| !has(b) && self.connected(b, has))
    }

    /// The cheapest left-deep order over `k ≤ DP_ATOMS` atoms.
    fn order_dp(&self) -> Vec<usize> {
        let k = self.rows.len();
        let full = (1usize << k) - 1;
        // (cost, last atom) of the cheapest order of each subset.
        let mut best = vec![(f64::INFINITY, 0usize); full + 1];
        best[0].0 = 0.0;
        for set in 1..=full {
            let size = self.size(|a| set >> a & 1 == 1);
            for a in (0..k).filter(|&a| set >> a & 1 == 1) {
                let prefix = set & !(1 << a);
                let cost = best[prefix].0 + size;
                if cost < best[set].0 && self.admissible(a, |b| prefix >> b & 1 == 1) {
                    best[set] = (cost, a);
                }
            }
        }
        let mut order = Vec::with_capacity(k);
        let mut set = full;
        while set != 0 {
            let a = best[set].1;
            order.push(a);
            set &= !(1 << a);
        }
        order.reverse();
        order
    }

    /// Greedy order for wide disjuncts: the cheapest admissible next atom.
    fn order_greedy(&self) -> Vec<usize> {
        let k = self.rows.len();
        let mut chosen = vec![false; k];
        let mut order = Vec::with_capacity(k);
        while order.len() < k {
            let mut pick = (f64::INFINITY, usize::MAX);
            for a in (0..k).filter(|&a| !chosen[a]) {
                if !self.admissible(a, |b| chosen[b]) {
                    continue;
                }
                let size = self.size(|b| chosen[b] || b == a);
                if size < pick.0 || pick.1 == usize::MAX {
                    pick = (size, a);
                }
            }
            chosen[pick.1] = true;
            order.push(pick.1);
        }
        order
    }
}

impl Plan {
    /// The plan of a disjunct with no derivation.
    const NONE: Plan = Plan {
        steps: None,
        pre: Vec::new(),
        head_depth: 0,
    };

    /// Plans `cq` with the variables flagged in `seeded` bound from the
    /// start, over `db`'s indexes (built on first use).
    ///
    /// # Panics
    /// If an atom's arity differs from its relation's, or an atom has more
    /// than [`MAX_ATOM_TERMS`] terms.
    pub(crate) fn new(cq: &ConjunctiveQuery, seeded: &[bool], db: &Database) -> Plan {
        debug_assert_eq!(seeded.len(), cq.num_vars(), "seeded arity");
        let mut rels = Vec::with_capacity(cq.atoms.len());
        for atom in &cq.atoms {
            let Some(rel) = db.relation_id(&atom.relation) else {
                return Plan::NONE;
            };
            assert!(
                atom.terms.len() <= MAX_ATOM_TERMS,
                "atom `{}` has more than {MAX_ATOM_TERMS} terms",
                atom.relation
            );
            assert_eq!(
                db.relations()[rel].schema().arity(),
                atom.terms.len(),
                "arity mismatch for `{}`",
                atom.relation
            );
            rels.push(rel);
        }

        let stats = Self::stats(cq, seeded, db, &rels);
        let order = if cq.atoms.len() <= DP_ATOMS {
            stats.order_dp()
        } else {
            stats.order_greedy()
        };

        // Each predicate joins the first step after which it is decidable.
        let mut bound_after: Vec<Option<usize>> = seeded.iter().map(|&s| s.then_some(0)).collect();
        for (i, &a) in order.iter().enumerate() {
            for x in stats.vars[a].iter().copied() {
                bound_after[x].get_or_insert(i + 1);
            }
        }
        let head_depth = cq
            .head_vars()
            .iter()
            .map(|v| bound_after[v.index()].unwrap_or(order.len()))
            .max()
            .unwrap_or(0);
        let mut pre = Vec::new();
        let mut preds_at: Vec<Vec<Predicate>> = (0..order.len()).map(|_| Vec::new()).collect();
        for p in &cq.predicates {
            let mut at = 0;
            for x in pred_vars(p) {
                match bound_after[x] {
                    Some(i) => at = at.max(i),
                    None => return Plan::NONE,
                }
            }
            match at {
                0 => pre.push(p.clone()),
                i => preds_at[i - 1].push(p.clone()),
            }
        }

        let mut bound: Vec<bool> = seeded.to_vec();
        let steps = order
            .iter()
            .zip(preds_at)
            .map(|(&a, preds)| {
                let atom = &cq.atoms[a];
                let mut step = Step {
                    rel: rels[a],
                    index: None,
                    bound: Vec::new(),
                    binds: Vec::new(),
                    repeats: Vec::new(),
                    preds,
                };
                for (i, t) in atom.terms.iter().enumerate() {
                    match t {
                        Term::Const(c) => step.bound.push((i, Src::Const(c.clone()))),
                        Term::Var(v) if bound[v.index()] => {
                            step.bound.push((i, Src::Var(v.index())))
                        }
                        Term::Var(v) if step.binds.iter().any(|&(_, x)| x == v.index()) => {
                            step.repeats.push((i, v.index()))
                        }
                        Term::Var(v) => step.binds.push((i, v.index())),
                    }
                }
                for &(_, x) in &step.binds {
                    bound[x] = true;
                }
                if !step.bound.is_empty() {
                    let cols = positions(step.bound.iter().map(|&(i, _)| i));
                    step.index = Some(db.index(step.rel, cols));
                }
                step
            })
            .collect();
        Plan {
            steps: Some(steps),
            pre,
            head_depth,
        }
    }

    /// Row counts, distinct counts and predicate shares for the cost model.
    fn stats(cq: &ConjunctiveQuery, seeded: &[bool], db: &Database, rels: &[usize]) -> Stats {
        let mut occurrences = vec![0usize; cq.num_vars()];
        for atom in &cq.atoms {
            for x in atom.terms.iter().filter_map(term_vars) {
                occurrences[x] += 1;
            }
        }
        let mut stats = Stats {
            rows: Vec::with_capacity(cq.atoms.len()),
            vars: Vec::with_capacity(cq.atoms.len()),
            occ: vec![Vec::new(); cq.num_vars()],
            seeded: seeded.to_vec(),
            preds: cq
                .predicates
                .iter()
                .map(|p| (pred_vars(p).collect(), selectivity(p.op)))
                .collect(),
        };
        for (a, (atom, &rel)) in cq.atoms.iter().zip(rels).enumerate() {
            let n = db.relations()[rel].len();
            let mut rows = n as f64;
            let mut vars = Vec::new();
            for (i, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        let matching = db.index(rel, 1 << i).bucket_len([c]);
                        rows *= matching as f64 / n.max(1) as f64;
                    }
                    Term::Var(v) => {
                        let x = v.index();
                        if !vars.contains(&x) {
                            vars.push(x);
                        }
                        // A variable seen once and bound by no seed filters
                        // nothing: its column needs no statistics.
                        let d = if seeded[x] || occurrences[x] > 1 {
                            db.index(rel, 1 << i).distinct().max(1) as f64
                        } else {
                            1.0
                        };
                        stats.occ[x].push((a, d));
                    }
                }
            }
            stats.rows.push(rows);
            stats.vars.push(vars);
        }
        stats
    }
}
