//! Cross-algorithm agreement harness: on small random instances, every
//! engine must agree with the `O(2ⁿ)` naive evaluation of Equation (2) —
//! per Livshits et al., the definitional ground truth.
//!
//! * `naive` vs `exact` (Algorithm 1 over a compiled d-DNNF) vs `readonce`
//!   (the factorization fast path, when the lineage factors): identical
//!   `Rational`s, on random monotone DNF lineages *and* on random databases
//!   driven through the full public pipeline — for the Shapley value, and
//!   on the same lineages for the Banzhaf value, the other power index;
//! * Monte Carlo permutation sampling: converges within tolerance.

use rand::prelude::*;
use shapdb::circuit::{factor, Circuit, Dnf, VarId};
use shapdb::core::banzhaf::banzhaf_naive;
use shapdb::core::engine::{EngineValues, KcEngine};
use shapdb::core::exact::{power_index_all_facts, ExactConfig};
use shapdb::core::montecarlo::{monte_carlo_shapley, MonteCarloConfig};
use shapdb::core::naive::shapley_naive;
use shapdb::core::readonce::{power_read_once, shapley_read_once};
use shapdb::data::{Database, Value};
use shapdb::kc::{compile_circuit_topdown, Budget};
use shapdb::num::{Bitset, Rational};
use shapdb::query::{evaluate, parse_ucq};
use shapdb::Measure;
use shapdb::ShapleyAnalyzer;

/// A random monotone DNF over `n` variables: 1–6 conjuncts of 1–3 variables.
fn random_dnf(rng: &mut StdRng, n: usize) -> Dnf {
    let mut d = Dnf::new();
    for _ in 0..rng.random_range(1..=6usize) {
        let width = rng.random_range(1..=3usize.min(n));
        let vars: Vec<VarId> = (0..width)
            .map(|_| VarId(rng.random_range(0..n) as u32))
            .collect();
        d.add_conjunct(vars);
    }
    d
}

/// Shapley values of `lineage` through the full Figure-3 pipeline
/// (Tseytin → compile → project → Algorithm 1), densified to `n` entries.
fn exact_dense(lineage: &Dnf, n: usize) -> Vec<Rational> {
    let mut circuit = Circuit::new();
    let root = lineage.to_circuit(&mut circuit);
    let result = KcEngine::analyze_circuit(&circuit, root, n, &Budget::unlimited())
        .expect("unlimited budget cannot time out");
    let EngineValues::Exact(pairs) = result.values else {
        panic!("the KC engine yields exact values");
    };
    let mut out = vec![Rational::zero(); n];
    for (fact, shapley) in pairs {
        out[fact.0 as usize] = shapley;
    }
    out
}

#[test]
fn naive_exact_and_readonce_agree_on_random_lineages() {
    let mut read_once_hits = 0usize;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(3..=9usize);
        let d = random_dnf(&mut rng, n);

        let naive = shapley_naive(&|s: &Bitset| d.eval_set(s), n);
        let exact = exact_dense(&d, n);
        assert_eq!(naive, exact, "naive vs Algorithm 1, seed {seed}, dnf {d:?}");

        if let Some(tree) = factor(&d) {
            read_once_hits += 1;
            let mut ro = vec![Rational::zero(); n];
            for (v, val) in shapley_read_once(&tree, n, None).expect("no deadline set") {
                ro[v.0 as usize] = val;
            }
            assert_eq!(naive, ro, "naive vs read-once, seed {seed}, dnf {d:?}");
        }
    }
    // The harness must actually exercise the fast path, not just skip it.
    assert!(
        read_once_hits >= 10,
        "only {read_once_hits}/60 lineages factored"
    );
}

#[test]
fn banzhaf_naive_exact_and_readonce_agree_on_random_lineages() {
    let mut read_once_hits = 0usize;
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(3..=9usize);
        let d = random_dnf(&mut rng, n);

        let naive = banzhaf_naive(&|s: &Bitset| d.eval_set(s), n);

        // Algorithm 1's DP with the Banzhaf weights over the compiled
        // d-DNNF, densified through the compilation's fact map.
        let mut circuit = Circuit::new();
        let root = d.to_circuit(&mut circuit);
        let comp = compile_circuit_topdown(&circuit, root, &Budget::unlimited(), None)
            .expect("unlimited budget cannot time out");
        let values =
            power_index_all_facts(&comp.ddnnf, n, &ExactConfig::default(), Measure::Banzhaf)
                .expect("no deadline set");
        let mut exact = vec![Rational::zero(); n];
        for (fact, value) in comp.fact_vars.iter().zip(values) {
            exact[fact.0 as usize] = value;
        }
        assert_eq!(naive, exact, "naive vs Algorithm 1, seed {seed}, dnf {d:?}");

        if let Some(tree) = factor(&d) {
            read_once_hits += 1;
            let mut ro = vec![Rational::zero(); n];
            for (v, val) in
                power_read_once(&tree, n, None, Measure::Banzhaf).expect("no deadline set")
            {
                ro[v.0 as usize] = val;
            }
            assert_eq!(naive, ro, "naive vs read-once, seed {seed}, dnf {d:?}");
        }
    }
    // The harness must actually exercise the fast path, not just skip it.
    assert!(
        read_once_hits >= 10,
        "only {read_once_hits}/60 lineages factored"
    );
}

/// A random database for `q(b) :- R(a), S(a, b)` and
/// `q() :- R(a), S(a, b), T(b)`: endogenous facts only, so fact ids map
/// 1:1 onto lineage variables.
fn random_database(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.create_relation("R", &["a"]);
    db.create_relation("S", &["a", "b"]);
    db.create_relation("T", &["b"]);
    for _ in 0..rng.random_range(2..=4usize) {
        db.insert_endo("R", vec![Value::int(rng.random_range(0..3))]);
    }
    for _ in 0..rng.random_range(3..=6usize) {
        db.insert_endo(
            "S",
            vec![
                Value::int(rng.random_range(0..3)),
                Value::int(rng.random_range(0..3)),
            ],
        );
    }
    for _ in 0..rng.random_range(2..=3usize) {
        db.insert_endo("T", vec![Value::int(rng.random_range(0..3))]);
    }
    db
}

#[test]
fn full_pipeline_agrees_with_naive_on_random_databases() {
    let queries = [
        parse_ucq("q(b) :- R(a), S(a, b)").unwrap(),
        parse_ucq("q() :- R(a), S(a, b), T(b)").unwrap(),
    ];
    let mut compared = 0usize;
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0xDB + seed);
        let db = random_database(&mut rng);
        let n = db.num_endogenous();
        for q in &queries {
            let explanations = ShapleyAnalyzer::new(&db).explain(q).unwrap();
            let evaluated = evaluate(q, &db);
            assert_eq!(explanations.len(), evaluated.outputs.len());
            for (e, out) in explanations.iter().zip(&evaluated.outputs) {
                let elin = out.endo_lineage(&db);
                let naive = shapley_naive(&|s: &Bitset| elin.eval_set(s), n);
                for (fact, value) in &e.attributions {
                    assert_eq!(
                        value,
                        &naive[fact.0 as usize],
                        "seed {seed}, tuple {:?}, fact {}",
                        out.tuple,
                        db.display_fact(*fact),
                    );
                    compared += 1;
                }
                // Every nonzero naive value must appear among the
                // attributions (the facade omits only null players).
                let attributed: usize = e.attributions.iter().filter(|(_, v)| !v.is_zero()).count();
                let nonzero = naive.iter().filter(|v| !v.is_zero()).count();
                assert_eq!(attributed, nonzero, "seed {seed}");
            }
        }
    }
    assert!(
        compared >= 50,
        "only {compared} attributions compared end-to-end"
    );
}

#[test]
fn monte_carlo_converges_to_ground_truth() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(0x3C0 + seed);
        let n = rng.random_range(4..=8usize);
        let d = random_dnf(&mut rng, n);

        let naive = shapley_naive(&|s: &Bitset| d.eval_set(s), n);
        let cfg = MonteCarloConfig {
            permutations: 20_000,
            seed: 7 * seed + 1,
        };
        let mc = monte_carlo_shapley(&|s: &Bitset| d.eval_set(s), n, &cfg);

        for (i, estimate) in mc.iter().enumerate() {
            let truth = naive[i].to_f64();
            assert!(
                (estimate - truth).abs() < 0.02,
                "seed {seed}, var {i}: MC {estimate} vs exact {truth}"
            );
        }
    }
}
