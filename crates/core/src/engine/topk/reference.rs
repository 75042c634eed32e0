//! The set-algebra definition of [`shapley_bounds`](super::shapley_bounds):
//! `HashSet` unions and `Rational` sums, straight from the formula. It is
//! a test oracle only — the production kernel must match it bit for bit.
//!
//! Shared by the `topk` unit tests and the JOB corpus integration test
//! (`tests/job_bounds.rs`, which includes this file by path); in both, the
//! including module provides `ScoreBounds` to `super`.

use super::ScoreBounds;
use shapdb_num::Rational;
use std::collections::HashSet;

/// [`shapley_bounds`](super::shapley_bounds) computed by the definition.
pub fn reference_bounds(key: &[Vec<u32>]) -> ScoreBounds {
    if key.is_empty() || key.iter().any(|c| c.is_empty()) {
        return ScoreBounds {
            lower: Rational::zero(),
            upper: Rational::zero(),
        };
    }
    let num_vars = key
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut by_var: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    for (ci, c) in key.iter().enumerate() {
        for &v in c {
            by_var[v as usize].push(ci);
        }
    }
    let one = Rational::one();
    let mut best = Rational::zero();
    for (v, conjs) in by_var.iter().enumerate() {
        let mut sum = Rational::zero();
        for &ci in conjs {
            sum += &conjunct_term(key, ci, v as u32);
            if sum >= one {
                break;
            }
        }
        let ub = if sum > one { one.clone() } else { sum };
        if ub > best {
            best = ub;
        }
        if best == one {
            break;
        }
    }
    ScoreBounds {
        lower: Rational::from_ratio(1, num_vars as u64),
        upper: best,
    }
}

/// One conjunct's contribution to the bound of `v ∈ key[ci]`: the exact
/// probability that `key[ci] \ {v}` precedes `v` while none of up to
/// three greedily chosen competitor conjuncts fully precedes `v`.
fn conjunct_term(key: &[Vec<u32>], ci: usize, v: u32) -> Rational {
    let c = &key[ci];
    // Competitors: conjuncts not containing v, closest-union first.
    let mut competitors: Vec<(usize, usize)> = key
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.contains(&v))
        .map(|(j, d)| (union_size(c, d), j))
        .collect();
    competitors.sort_unstable();
    competitors.truncate(3);
    let mut term = Rational::zero();
    for mask in 0u32..(1 << competitors.len()) {
        let mut union: HashSet<u32> = c.iter().copied().collect();
        for (bit, &(_, j)) in competitors.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                union.extend(key[j].iter().copied());
            }
        }
        let frac = Rational::from_ratio(1, union.len() as u64);
        term = if mask.count_ones() % 2 == 0 {
            term + frac
        } else {
            term - frac
        };
    }
    term
}

/// `|a ∪ b|` for two conjuncts.
fn union_size(a: &[u32], b: &[u32]) -> usize {
    let set: HashSet<u32> = a.iter().chain(b).copied().collect();
    set.len()
}
