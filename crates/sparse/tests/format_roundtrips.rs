//! Property tests across storage and file formats: conversions and the
//! Matrix Market text form must be lossless.

use quickprop::prelude::*;
use sparse::{Csr, Scalar};

fn arb_csr() -> sparse_gen::CsrGen {
    sparse_gen::csr_in(2..80, 2..80, 400).values(-8.0, 8.0)
}

/// Values the text format must carry exactly: signed zeros, infinities,
/// subnormals, the extremes, a non-terminating fraction, and NaN.
const EDGE_VALUES: [f64; 10] = [
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -2.2250738585072e-308,
    1e-40, // subnormal once cast to f32
    f64::MAX,
    1.0 / 3.0,
    f64::NAN,
];

/// `a`'s structure with its values overwritten from [`EDGE_VALUES`]:
/// entry `i` takes `EDGE_VALUES[picks[i % picks.len()]]`, or keeps its
/// generated value where the pick is out of range.
fn with_edge_values<T: Scalar>(a: &Csr<f64>, picks: &[usize]) -> Csr<T> {
    let vals = (0..a.nnz())
        .map(|i| {
            T::from_f64(EDGE_VALUES.get(picks[i % picks.len()]).copied().unwrap_or(a.val()[i]))
        })
        .collect();
    Csr::from_parts(a.rows(), a.cols(), a.rpt().to_vec(), a.col().to_vec(), vals).unwrap()
}

/// Write `a` as Matrix Market, read it back, and require the same
/// structure and bitwise-equal values (NaN only as NaN: the text form
/// keeps no payload).
fn matrix_market_roundtrip<T: Scalar>(a: &Csr<T>) -> CaseResult {
    let mut buf = Vec::new();
    sparse::io::write_matrix_market(a, &mut buf).unwrap();
    let back: Csr<T> = sparse::io::read_matrix_market(&buf[..]).unwrap();
    prop_assert_eq!(back.rpt(), a.rpt());
    prop_assert_eq!(back.col(), a.col());
    for (&got, &want) in back.val().iter().zip(a.val()) {
        let (got, want) = (got.to_f64(), want.to_f64());
        if want.is_nan() {
            prop_assert!(got.is_nan(), "NaN read back as {got}");
        } else {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{want:e} read back as {got:e}");
        }
    }
    Ok(())
}

quickprop! {
    #![config(cases = 64)]

    #[test]
    fn matrix_market_roundtrip_via_string(
        a in arb_csr(),
        picks in collection::vec(0usize..14, 1..40)
    ) {
        matrix_market_roundtrip(&with_edge_values::<f64>(&a, &picks))?;
        matrix_market_roundtrip(&with_edge_values::<f32>(&a, &picks))?;
    }

    #[test]
    fn add_commutes_and_transpose_distributes(
        (a, b) in sparse_gen::csr_pair(60, 300).values(-8.0, 8.0)
    ) {
        let s1 = a.add(&b).unwrap();
        let s2 = b.add(&a).unwrap();
        prop_assert_eq!(s1.clone(), s2);
        // (A + B)^T == A^T + B^T
        prop_assert_eq!(s1.transpose(), a.transpose().add(&b.transpose()).unwrap());
    }
}
