//! The `BigUint` read-once DP the tiered one replaced: two conditioned
//! passes per fact, every sibling of every ancestor re-convolved. It is a
//! test oracle only — [`power_read_once`](super::power_read_once) and
//! [`sat_k_read_once`](super::sat_k_read_once) must match it bit for bit.

use super::{Arena, RNode};
use crate::measure::Measure;
use crate::weights::oracle::{power_weights, weighted_difference};
use shapdb_circuit::{ReadOnce, VarId};
use shapdb_num::{combinatorics::BinomialTable, BigUint, Rational};

/// `#SAT_ℓ` arrays (`ℓ = 0..=nvars`) for every node, bottom-up.
fn base_counts(a: &Arena, binomials: &mut BinomialTable) -> Vec<Vec<BigUint>> {
    let mut sat: Vec<Vec<BigUint>> = Vec::with_capacity(a.nodes.len());
    for (i, n) in a.nodes.iter().enumerate() {
        let counts = match n {
            RNode::True => vec![BigUint::one()],
            RNode::False => vec![BigUint::zero()],
            RNode::Var(_) => vec![BigUint::zero(), BigUint::one()],
            RNode::And(kids) => {
                let arrays: Vec<&[BigUint]> = kids.iter().map(|&k| sat[k].as_slice()).collect();
                convolve(&arrays)
            }
            RNode::Or(kids) => {
                let unsats: Vec<Vec<BigUint>> = kids
                    .iter()
                    .map(|&k| complement(&sat[k], a.nvars[k], binomials))
                    .collect();
                let refs: Vec<&[BigUint]> = unsats.iter().map(Vec::as_slice).collect();
                complement(&convolve(&refs), a.nvars[i], binomials)
            }
        };
        assert_eq!(counts.len(), a.nvars[i] + 1);
        sat.push(counts);
    }
    sat
}

/// `#UNSAT_ℓ = C(n, ℓ) − #SAT_ℓ` (and vice versa; complement is an
/// involution).
fn complement(counts: &[BigUint], nvars: usize, binomials: &mut BinomialTable) -> Vec<BigUint> {
    let row = binomials.row(nvars).to_vec();
    counts
        .iter()
        .zip(row)
        .map(|(c, total)| &total - c)
        .collect()
}

/// Level-wise product of variable-disjoint functions.
fn convolve(arrays: &[&[BigUint]]) -> Vec<BigUint> {
    let mut acc = vec![BigUint::one()];
    for arr in arrays {
        let mut next = vec![BigUint::zero(); acc.len() + arr.len() - 1];
        for (i, ai) in acc.iter().enumerate() {
            if ai.is_zero() {
                continue;
            }
            for (j, bj) in arr.iter().enumerate() {
                if bj.is_zero() {
                    continue;
                }
                next[i + j] += &(ai * bj);
            }
        }
        acc = next;
    }
    acc
}

/// Recomputes the counts along the path from `leaf` to the root with the
/// leaf's variable conditioned to `value`, re-convolving every off-path
/// child. Returns the root's conditioned `#SAT` array (over `m − 1`
/// variables).
fn conditioned_root(
    a: &Arena,
    base: &[Vec<BigUint>],
    leaf: usize,
    value: bool,
    binomials: &mut BinomialTable,
) -> Vec<BigUint> {
    let mut cur = if value {
        vec![BigUint::one()]
    } else {
        vec![BigUint::zero()]
    };
    let mut child = leaf;
    while let Some(p) = a.parent[child] {
        let kids = match &a.nodes[p] {
            RNode::And(kids) | RNode::Or(kids) => kids,
            _ => unreachable!("leaf parents are gates"),
        };
        if matches!(&a.nodes[p], RNode::And(_)) {
            let arrays: Vec<&[BigUint]> = kids
                .iter()
                .map(|&k| if k == child { &cur[..] } else { &base[k][..] })
                .collect();
            cur = convolve(&arrays);
        } else {
            let unsats: Vec<Vec<BigUint>> = kids
                .iter()
                .map(|&k| {
                    if k == child {
                        complement(&cur, a.nvars[k] - 1, binomials)
                    } else {
                        complement(&base[k], a.nvars[k], binomials)
                    }
                })
                .collect();
            let refs: Vec<&[BigUint]> = unsats.iter().map(Vec::as_slice).collect();
            cur = complement(&convolve(&refs), a.nvars[p] - 1, binomials);
        }
        assert_eq!(cur.len(), a.nvars[p]);
        child = p;
    }
    cur
}

/// The power index of each of `facts` (variables of `tree`), by two
/// conditioned passes per fact. A variable folded away under a constant
/// is a null player (value 0).
pub fn reference_power(tree: &ReadOnce, facts: &[VarId], measure: Measure) -> Vec<Rational> {
    let a = Arena::build(tree);
    let m = a.nvars[a.root];
    let mut binomials = BinomialTable::new();
    let base = base_counts(&a, &mut binomials);
    let (weights, denom) = power_weights(measure, m);
    facts
        .iter()
        .map(|v| match a.leaf_of.get(v) {
            None => Rational::zero(),
            Some(&leaf) => {
                let gamma = conditioned_root(&a, &base, leaf, true, &mut binomials);
                let delta = conditioned_root(&a, &base, leaf, false, &mut binomials);
                weighted_difference(&gamma, &delta, &weights, &denom)
            }
        })
        .collect()
}

/// The root's `#SAT_ℓ` array of the (constant-folded) arena of `tree`.
pub fn reference_sat_k(tree: &ReadOnce) -> Vec<BigUint> {
    let a = Arena::build(tree);
    let mut base = base_counts(&a, &mut BinomialTable::new());
    base.swap_remove(a.root)
}
