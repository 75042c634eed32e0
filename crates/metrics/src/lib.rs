//! # shapdb-metrics — ranking-quality and error metrics
//!
//! The measures §6.2 of the paper uses to compare the inexact methods
//! against the exact ground truth:
//!
//! * [`ndcg`] / [`ndcg_at_k`] — normalized discounted cumulative gain of a
//!   candidate ranking against ground-truth relevances;
//! * [`precision_at_k`] — overlap of the top-k sets;
//! * [`l1_error`] / [`l2_error`] — mean absolute / mean squared error of the
//!   estimated values;
//! * [`kendall_tau`] — rank correlation (an extra not in the paper, useful
//!   for the ablation reports);
//! * [`Summary`] — mean/percentile aggregation used by Table 1's columns;
//! * [`counters`] — the engine counter registry (batch dedup, planner
//!   routing, hierarchical-vs-factorizer disagreements, caches, service
//!   traffic, arithmetic routing) and the service queue gauges. Each
//!   counter has a process-global cell and adds to the [`Profile`] active
//!   on the calling thread: a copy of the registry scoped to one run or one
//!   service, which executor reports and service stats carry;
//! * [`timing`] — per-route compile/solve timing histograms (log₂-µs
//!   buckets), the ground truth a learned planner cost model trains on;
//!   each [`Profile`] carries its own set next to its counters.

pub mod counters;
pub mod timing;

pub use counters::{Counter, CounterSnapshot, DedupStats, Gauge, Profile, ProfileScope};
pub use timing::{RouteTimings, TimingHisto, TimingSnapshot};

use std::cmp::Ordering;

/// Indices `0..n` sorted by decreasing score (ties broken by index for
/// determinism).
pub fn ranking_of(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| match scores[b].partial_cmp(&scores[a]) {
        Some(Ordering::Equal) | None => a.cmp(&b),
        Some(o) => o,
    });
    idx
}

/// DCG of `ranking` (a permutation prefix of item indices) with ground-truth
/// `relevance` per item: `Σ rel[ranking[i]] / log2(i+2)`.
fn dcg(ranking: &[usize], relevance: &[f64]) -> f64 {
    ranking
        .iter()
        .enumerate()
        .map(|(i, &item)| relevance[item].max(0.0) / ((i + 2) as f64).log2())
        .sum()
}

/// Normalized DCG of a candidate ranking against ground-truth relevances
/// (here: the exact Shapley values). 1.0 means the candidate ordering is
/// ideal; an all-zero ground truth scores 1.0 by convention.
pub fn ndcg(candidate_ranking: &[usize], relevance: &[f64]) -> f64 {
    ndcg_at_k(candidate_ranking, relevance, relevance.len())
}

/// nDCG truncated to the top `k` positions.
pub fn ndcg_at_k(candidate_ranking: &[usize], relevance: &[f64], k: usize) -> f64 {
    let k = k.min(relevance.len());
    if k == 0 {
        return 1.0;
    }
    let ideal = ranking_of(relevance);
    let ideal_dcg = dcg(&ideal[..k], relevance);
    if ideal_dcg == 0.0 {
        return 1.0;
    }
    dcg(
        &candidate_ranking[..k.min(candidate_ranking.len())],
        relevance,
    ) / ideal_dcg
}

/// Precision@k: `|top_k(candidate) ∩ top_k(truth)| / k`.
///
/// Ties in the ground truth are handled generously, as is standard: any item
/// whose true score equals the k-th true score counts as a valid top-k
/// member (otherwise arbitrary tie-breaking would penalize correct answers).
pub fn precision_at_k(candidate_scores: &[f64], true_scores: &[f64], k: usize) -> f64 {
    assert_eq!(candidate_scores.len(), true_scores.len());
    let n = true_scores.len();
    if n == 0 || k == 0 {
        return 1.0;
    }
    let k = k.min(n);
    let true_rank = ranking_of(true_scores);
    let threshold = true_scores[true_rank[k - 1]];
    let cand_rank = ranking_of(candidate_scores);
    let hits = cand_rank[..k]
        .iter()
        .filter(|&&item| true_scores[item] >= threshold)
        .count();
    hits as f64 / k as f64
}

/// Mean absolute error.
pub fn l1_error(estimate: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimate.len(), truth.len());
    if estimate.is_empty() {
        return 0.0;
    }
    estimate
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / estimate.len() as f64
}

/// Mean squared error.
pub fn l2_error(estimate: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(estimate.len(), truth.len());
    if estimate.is_empty() {
        return 0.0;
    }
    estimate
        .iter()
        .zip(truth)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / estimate.len() as f64
}

/// Kendall rank correlation coefficient (τ-a) between two score vectors.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let x = (a[i] - a[j]).signum();
            let y = (b[i] - b[j]).signum();
            let prod = x * y;
            if prod > 0.0 {
                concordant += 1;
            } else if prod < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Mean + percentile summary of a sample (the shape of Table 1's columns:
/// mean, p25, p50, p75, p99).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample (empty samples give all-zero summaries).
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| -> f64 {
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Summary {
            count: values.len(),
            mean: values.iter().sum::<f64>() / values.len() as f64,
            p25: pct(25.0),
            p50: pct(50.0),
            p75: pct(75.0),
            p99: pct(99.0),
            max: *sorted.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_breaks_ties_deterministically() {
        assert_eq!(ranking_of(&[0.5, 0.9, 0.5]), vec![1, 0, 2]);
        assert_eq!(ranking_of(&[]), Vec::<usize>::new());
    }

    #[test]
    fn perfect_ranking_scores_one() {
        let truth = [0.5, 0.3, 0.2, 0.0];
        let ranking = ranking_of(&truth);
        assert!((ndcg(&ranking, &truth) - 1.0).abs() < 1e-12);
        assert!((ndcg_at_k(&ranking, &truth, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_ranking_scores_below_one() {
        let truth = [0.5, 0.3, 0.2, 0.1];
        let reversed = [3, 2, 1, 0];
        let score = ndcg(&reversed, &truth);
        assert!(score < 1.0 && score > 0.0);
    }

    #[test]
    fn ndcg_of_zero_relevance_is_one() {
        assert_eq!(ndcg(&[0, 1], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn precision_at_k_basics() {
        let truth = [0.9, 0.8, 0.1, 0.0];
        let same = [0.9, 0.8, 0.1, 0.0];
        assert_eq!(precision_at_k(&same, &truth, 2), 1.0);
        let swapped = [0.0, 0.1, 0.8, 0.9];
        assert_eq!(precision_at_k(&swapped, &truth, 2), 0.0);
        let half = [0.9, 0.0, 0.8, 0.1];
        assert_eq!(precision_at_k(&half, &truth, 2), 0.5);
    }

    #[test]
    fn precision_handles_true_ties() {
        // Items 1 and 2 tie at the k-th score: either is a valid top-2 pick.
        let truth = [0.9, 0.5, 0.5, 0.1];
        let candidate = [0.9, 0.1, 0.5, 0.0]; // picks {0, 2}
        assert_eq!(precision_at_k(&candidate, &truth, 2), 1.0);
    }

    #[test]
    fn errors() {
        let est = [0.5, 0.0];
        let truth = [0.0, 0.0];
        assert!((l1_error(&est, &truth) - 0.25).abs() < 1e-12);
        assert!((l2_error(&est, &truth) - 0.125).abs() < 1e-12);
        assert_eq!(l1_error(&[], &[]), 0.0);
    }

    #[test]
    fn kendall() {
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        assert_eq!(kendall_tau(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    fn summary_percentiles() {
        let vals: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = Summary::of(&vals);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.p25, 25.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p75, 75.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(Summary::of(&[]).count, 0);
    }
}
