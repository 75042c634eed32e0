//! Algorithm 1 scaling sweep: synthetic d-DNNFs from 64 to 4096 variables.
//!
//! The replay corpus (`exact_cold`) tops out under a hundred variables per
//! structure, so it never exercises the wide-circuit substrate — the NTT/CRT
//! convolution path and the BigUint fallback tier. This sweep does, on a
//! family whose exact answer is known in closed form:
//!
//! a balanced ∧-tree over `(xᵢ ∨ yᵢ)` decision gadgets is a fully symmetric
//! monotone game, so every Shapley value is exactly `1/n` — each solve is
//! checked against that, making the sweep a correctness gate as well as a
//! timing series. The balanced tree also makes the top ∧-convolutions as
//! wide as possible (`n/2 × n/2` coefficient arrays), the worst case the
//! NTT path exists for.
//!
//! Sizes ≤ 256 solve **all facts** (the regime the paper's Figure 4
//! measures) by the two-pass adjoint DP: one forward and one backward pass,
//! whatever the fact count. 512–4096 solve a **single fact** by one
//! conditioned pass (the per-fact cost users pay for top-k attributions on
//! wide lineages). Each size records
//! its arithmetic-substrate routing — fixed-limb vs bignum passes, NTT
//! convolutions — via the `num.*` counters, and the run asserts the
//! expected tier actually engaged: Vli up to 512 variables, the NTT path
//! from 1024 up. Results land in `results/bench_alg1.json`
//! (`make bench-alg1`); timings are recorded, not asserted.

use shapdb_bench::{median_ns, write_result};
use shapdb_circuit::Lit;
use shapdb_core::exact::{shapley_all_facts, shapley_single_fact, ExactConfig};
use shapdb_kc::ddnnf::{DdnnfBuilder, NodeIdx};
use shapdb_kc::Ddnnf;
use shapdb_metrics::counters::{NUM_BIGNUM_FALLBACKS, NUM_NTT_CONVOLUTIONS, NUM_VLI_HITS};
use shapdb_metrics::Profile;
use shapdb_num::Rational;
use std::sync::Arc;

/// Balanced ∧-tree over `(xᵢ ∨ yᵢ)` decision gadgets: `2·pairs` variables,
/// every Shapley value exactly `1/(2·pairs)`.
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

/// All-facts up to here; single-fact beyond, where the sweep pins the
/// wide-tier and NTT routing of one conditioned pass.
const ALL_FACTS_MAX_VARS: usize = 256;
const SIZES: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
const SAMPLES: usize = 3;

fn main() {
    let cfg = ExactConfig::default();
    let mut rows = Vec::new();
    for &n in &SIZES {
        let dd = symmetric_tree(n / 2);
        let expect = Rational::from_ratio(1, n as u64);
        let all_facts = n <= ALL_FACTS_MAX_VARS;
        // One counted solve for the substrate-routing snapshot (and the
        // exactness check), then the timed medians.
        let profile = Arc::new(Profile::new());
        let scope = profile.enter();
        if all_facts {
            let values = shapley_all_facts(&dd, n, &cfg).expect("no deadline");
            assert_eq!(values.len(), n);
            for v in &values {
                assert_eq!(v, &expect, "symmetric game must give exactly 1/{n}");
            }
        } else {
            let v = shapley_single_fact(&dd, n, 0, &cfg).expect("no deadline");
            assert_eq!(v, expect, "symmetric game must give exactly 1/{n}");
        }
        drop(scope);
        let (vli, bignum, ntt) = (
            profile.get(&NUM_VLI_HITS),
            profile.get(&NUM_BIGNUM_FALLBACKS),
            profile.get(&NUM_NTT_CONVOLUTIONS),
        );
        // The routing the substrate must take on this family: fixed-limb
        // tiers while the cap fits 512 bits (n ≤ 512), the NTT path once
        // the top convolutions are wide (n ≥ 1024, which also exceeds
        // every Vli tier: C(n, n/2) needs ~n bits).
        if n <= 512 {
            assert!(vli > 0, "n={n} must run on a Vli tier");
            assert_eq!(bignum, 0, "n={n} must not fall back");
        } else {
            assert!(bignum > 0, "n={n} must use BigUint");
        }
        if n >= 1024 {
            assert!(ntt > 0, "n={n} must exercise the NTT path");
        }
        let ns = median_ns(SAMPLES, || {
            if all_facts {
                std::hint::black_box(shapley_all_facts(&dd, n, &cfg).expect("no deadline").len());
            } else {
                std::hint::black_box(shapley_single_fact(&dd, n, 0, &cfg).expect("no deadline"));
            }
        });
        let mode = if all_facts {
            "all_facts"
        } else {
            "single_fact"
        };
        println!(
            "alg1_sweep n={n:5} {mode:11} median {:9.3} ms  (vli {} / bignum {} passes, {} ntt conv)",
            ns as f64 / 1e6,
            vli,
            bignum,
            ntt,
        );
        rows.push(format!(
            concat!(
                "    {{ \"vars\": {}, \"mode\": \"{}\", \"median_ms\": {:.3}, ",
                "\"vli_passes\": {}, \"bignum_passes\": {}, \"ntt_convolutions\": {} }}"
            ),
            n,
            mode,
            ns as f64 / 1e6,
            vli,
            bignum,
            ntt,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"alg1_sweep\",\n",
            "  \"samples\": {},\n",
            "  \"family\": \"balanced and-tree of (x or y) gadgets; exact value 1/n\",\n",
            "  \"all_facts_max_vars\": {},\n",
            "  \"sizes\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SAMPLES,
        ALL_FACTS_MAX_VARS,
        rows.join(",\n"),
    );
    write_result("bench_alg1.json", "alg1_sweep summary", &json);
}
