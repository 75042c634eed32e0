//! NTT accounting: a forced multi-operand convolution counts one
//! `num.ntt_convolutions` per fold step it replaces.
//!
//! This file holds a single `#[test]` on purpose: both the routing policy
//! (`set_ntt_policy`) and the counter are process-wide, and being the only
//! test in its own integration binary makes the delta exact and keeps the
//! forced policy from leaking into other tests. The transform's values are
//! also checked in the unit test of the same name in `ntt.rs`.

use shapdb_metrics::counters::NUM_NTT_CONVOLUTIONS;
use shapdb_num::ntt::{convolve_many_if_faster, convolve_ntt, set_ntt_policy, NttPolicy};
use shapdb_num::BigUint;

#[test]
fn many_counts_one_convolution_per_fold_step() {
    let v = (BigUint::one() << 300) - BigUint::from_u64(3);
    let op: Vec<BigUint> = (0..64).map(|_| v.clone()).collect();
    let ops: Vec<&[BigUint]> = vec![&op, &op, &op, &op];
    set_ntt_policy(NttPolicy::Force);
    let before = NUM_NTT_CONVOLUTIONS.get();
    let got = convolve_many_if_faster::<BigUint>(&ops).expect("forced");
    set_ntt_policy(NttPolicy::Auto);
    assert_eq!(NUM_NTT_CONVOLUTIONS.get() - before, 3);
    // Against the pairwise NTT fold (itself schoolbook-verified).
    let mut want = convolve_ntt::<BigUint>(&op, &op);
    want = convolve_ntt::<BigUint>(&want, &op);
    want = convolve_ntt::<BigUint>(&want, &op);
    assert_eq!(got, want);
}
