//! End-to-end check of the paper's running example (Figure 1 / Example 2.1):
//! the direct JFK→CDG flight must get Shapley value exactly 43/105, through
//! every exact engine the workspace ships — the automatic facade pipeline,
//! the read-once fast path, full knowledge compilation (Tseytin → d-DNNF →
//! Algorithm 1), and the naive `O(2ⁿ)` evaluation of Equation (2).

use shapdb::circuit::Circuit;
use shapdb::core::engine::{EngineValues, KcEngine};
use shapdb::core::naive::shapley_naive;
use shapdb::data::flights_example;
use shapdb::kc::Budget;
use shapdb::num::{Bitset, Rational};
use shapdb::query::ast::flights_query;
use shapdb::query::evaluate;
use shapdb::ShapleyAnalyzer;

/// Example 2.1's exact values, by tier: the direct JFK→CDG flight, the four
/// facts on the two-hop LHR routes, and the two on the MUC route.
fn expected_tiers() -> [Rational; 3] {
    [
        Rational::from_ratio(43, 105),
        Rational::from_ratio(23, 210),
        Rational::from_ratio(8, 105),
    ]
}

#[test]
fn facade_reproduces_example_2_1_exactly() {
    let (db, a) = flights_example();
    let explanations = ShapleyAnalyzer::new(&db).explain(&flights_query()).unwrap();

    // Boolean query: exactly one (empty) output tuple.
    assert_eq!(explanations.len(), 1);
    let e = &explanations[0];
    assert!(e.tuple.is_empty());

    let [top, mid, low] = expected_tiers();
    // a1 = Flights(JFK, CDG) leads with 43/105; a8 is a null player, omitted.
    assert_eq!(e.attributions.len(), 7);
    assert_eq!(e.attributions[0].0, a[0]);
    assert_eq!(e.attributions[0].1, top);
    assert_eq!(db.display_fact(e.attributions[0].0), "Flights(JFK, CDG)");
    for (_, v) in &e.attributions[1..5] {
        assert_eq!(v, &mid);
    }
    for (_, v) in &e.attributions[5..7] {
        assert_eq!(v, &low);
    }

    // Efficiency: the values sum to v(D_n) − v(∅) = 1 − 0 = 1.
    let sum = e
        .attributions
        .iter()
        .fold(Rational::zero(), |acc, (_, v)| &acc + v);
    assert_eq!(sum, Rational::one());
}

#[test]
fn knowledge_compilation_path_agrees_with_fast_path() {
    // The flights lineage is read-once, so the facade's automatic pipeline
    // takes the factorization fast path. Force the full Figure-3 pipeline
    // (Tseytin → compile → project → Algorithm 1) and demand identical
    // rationals.
    let (db, _) = flights_example();
    let q = flights_query();
    let res = evaluate(&q, &db);
    assert_eq!(res.outputs.len(), 1);
    let elin = res.outputs[0].endo_lineage(&db);

    let mut circuit = Circuit::new();
    let root = elin.to_circuit(&mut circuit);
    let result =
        KcEngine::analyze_circuit(&circuit, root, db.num_endogenous(), &Budget::unlimited())
            .unwrap();

    let auto = ShapleyAnalyzer::new(&db).explain(&q).unwrap();
    let fast: Vec<_> = auto[0]
        .attributions
        .iter()
        .map(|(f, v)| (f.0, v.clone()))
        .collect();
    let EngineValues::Exact(pairs) = result.values else {
        panic!("the KC engine yields exact values");
    };
    let mut kc: Vec<_> = pairs.into_iter().map(|(f, v)| (f.0, v)).collect();
    // Same ordering convention: decreasing value, ties by fact id.
    kc.sort_by(|(fa, va), (fb, vb)| vb.cmp(va).then(fa.cmp(fb)));
    assert_eq!(fast, kc);
    assert_eq!(kc[0].1, expected_tiers()[0]);
}

#[test]
fn naive_ground_truth_agrees_on_figure_1() {
    // Equation (2) by brute force over all 2⁷ sub-databases of the lineage's
    // facts — the independent oracle for 43/105.
    let (db, a) = flights_example();
    let res = evaluate(&flights_query(), &db);
    let elin = res.outputs[0].endo_lineage(&db);

    let n = db.num_endogenous();
    let naive = shapley_naive(&|s: &Bitset| elin.eval_set(s), n);

    let [top, mid, low] = expected_tiers();
    assert_eq!(naive[a[0].0 as usize], top);
    for fact in &a[1..5] {
        assert_eq!(naive[fact.0 as usize], mid);
    }
    for fact in &a[5..7] {
        assert_eq!(naive[fact.0 as usize], low);
    }
    // a8 (MUC→CDG's missing leg partner) is a null player.
    assert_eq!(naive[a[7].0 as usize], Rational::zero());
}
