//! The harness tested with itself: seeds reproduce identical matrices,
//! generated CSR inputs always validate, and shrinking terminates on a
//! still-failing minimal case (the satellite coverage contract).

use quickprop::prelude::*;
use quickprop::{check, sparse_gen, Config};

fn cfg(cases: u32) -> Config {
    Config { cases, max_shrink_iters: 400, max_rejects: cases * 16 + 64, seed: 0xD15EA5E }
}

#[test]
fn seeds_reproduce_identical_csr_matrices() {
    let g = sparse_gen::csr(80, 500);
    for seed in [1u64, 42, 0xFFFF_FFFF_0000_0001] {
        let a = g.generate(&mut Rng64::new(seed));
        let b = g.generate(&mut Rng64::new(seed));
        assert_eq!(a, b, "seed {seed} must regenerate the same matrix");
    }
    // Different seeds should (essentially always) differ.
    let a = g.generate(&mut Rng64::new(7));
    let b = g.generate(&mut Rng64::new(8));
    assert_ne!(a, b);
}

#[test]
fn csr_shrinking_terminates_on_still_failing_minimal_case() {
    // Property: "fewer than 3 nonzeros". Fails whenever nnz >= 3; the
    // greedy shrinker should descend to a still-failing matrix and stop.
    let fail = check(&cfg(64), &sparse_gen::csr_square(100, 600), |m| {
        if m.nnz() < 3 {
            Ok(())
        } else {
            Err(CaseError::fail(format!("nnz = {}", m.nnz())))
        }
    })
    .expect("property must fail on random square matrices");
    assert!(fail.minimal.nnz() >= 3, "minimal case still fails the property");
    assert!(fail.minimal.nnz() <= fail.original.nnz(), "shrinking never grows the counterexample");
    assert!(fail.minimal.validate().is_ok(), "shrunk matrix stays valid");
    assert!(fail.shrink_steps <= 400, "shrinking respects its budget");
    // Greedy triplet-dropping should reach a genuinely small witness.
    assert!(
        fail.minimal.nnz() <= 8,
        "expected a near-minimal witness, got nnz = {}",
        fail.minimal.nnz()
    );
}

#[test]
fn shape_shrinking_reaches_small_matrices() {
    // Property: "fewer than 10 rows" — only the shape halving can fix
    // this, so the minimal case exercises that path.
    let fail = check(&cfg(64), &sparse_gen::csr(120, 200), |m| {
        if m.rows() < 10 {
            Ok(())
        } else {
            Err(CaseError::fail("too tall"))
        }
    })
    .expect("property must fail");
    assert!(fail.minimal.rows() >= 10);
    assert!(fail.minimal.rows() <= 19, "halving descends to just above the boundary");
    assert!(fail.minimal.validate().is_ok());
}

quickprop! {
    #![config(cases = 48)]

    #[test]
    fn generated_csr_always_validates(a in sparse_gen::csr(100, 700)) {
        prop_assert!(a.validate().is_ok());
    }

    #[test]
    fn generated_pairs_share_shape(
        (a, b) in sparse_gen::csr_pair(60, 300)
    ) {
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!(a.cols(), b.cols());
        prop_assert!(a.validate().is_ok() && b.validate().is_ok());
    }

    #[test]
    fn generated_chains_are_product_compatible(
        (a, b) in sparse_gen::csr_chain(60, 300)
    ) {
        prop_assert_eq!(a.cols(), b.rows());
    }

    #[test]
    fn assume_filters_inputs(n in 0usize..1000) {
        prop_assume!(n % 3 == 0);
        prop_assert_eq!(n % 3, 0);
    }
}
