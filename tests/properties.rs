//! Property-based tests (quickprop): the virtual-GPU SpGEMM must agree
//! with the CPU reference on *arbitrary* sparse matrices, and the core
//! data structures must uphold their invariants under arbitrary inputs.
//!
//! Strategies come from `quickprop::sparse_gen`, so failing matrices are
//! greedily shrunk (triplets dropped, shapes halved) and every failure
//! prints a replayable seed.

use nsparse_repro::prelude::*;
use quickprop::prelude::*;
use sparse::spgemm_ref::{spgemm_gustavson, spgemm_heap};

quickprop! {
    #![config(cases = 48)]

    #[test]
    fn proposal_matches_reference_on_random_matrices(a in sparse_gen::csr_square(120, 800)) {
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (c, _) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        prop_assert_eq!(c.rpt(), c_ref.rpt());
        prop_assert_eq!(c.col(), c_ref.col());
        prop_assert!(c.approx_eq(&c_ref, 1e-10, 1e-12));
    }

    #[test]
    fn baselines_match_reference_on_random_matrices(a in sparse_gen::csr_square(80, 400)) {
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        for alg in [Algorithm::Cusparse, Algorithm::Cusp, Algorithm::Bhsparse] {
            let mut gpu = Gpu::new(DeviceConfig::p100());
            let (c, _) = alg.run::<f64>(&mut gpu, &a, &a).unwrap();
            prop_assert_eq!(c.rpt(), c_ref.rpt(), "{}", alg.name());
            prop_assert_eq!(c.col(), c_ref.col(), "{}", alg.name());
            prop_assert!(c.approx_eq(&c_ref, 1e-10, 1e-12), "{}", alg.name());
        }
    }

    #[test]
    fn rectangular_products_match((a, b) in sparse_gen::csr_chain(60, 300)) {
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (c, _) = nsparse_core::multiply(&mut gpu, &a, &b, &Options::default()).unwrap();
        prop_assert_eq!(c, c_ref);
    }

    #[test]
    fn reference_implementations_agree(a in sparse_gen::csr_square(100, 600)) {
        let g = spgemm_gustavson(&a, &a).unwrap();
        let h = spgemm_heap(&a, &a).unwrap();
        prop_assert_eq!(g.rpt(), h.rpt());
        prop_assert_eq!(g.col(), h.col());
        prop_assert!(g.approx_eq(&h, 1e-10, 1e-12));
    }

    #[test]
    fn transpose_is_involution(a in sparse_gen::csr(100, 600)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        prop_assert!(a.transpose().validate().is_ok());
    }

    #[test]
    fn spmv_distributes_over_add((a, b) in sparse_gen::csr_pair(60, 300)) {
        let x: Vec<f64> = (0..a.cols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let lhs = a.add(&b).unwrap().spmv(&x).unwrap();
        let ya = a.spmv(&x).unwrap();
        let yb = b.spmv(&x).unwrap();
        for i in 0..lhs.len() {
            prop_assert!((lhs[i] - (ya[i] + yb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn coo_roundtrip_preserves_matrix(a in sparse_gen::csr(100, 500)) {
        // CSR -> coordinate triplets -> CSR is the identity.
        let triplets: Vec<(usize, u32, f64)> = (0..a.rows())
            .flat_map(|r| {
                let (cols, vals) = a.row(r);
                cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
            })
            .collect();
        prop_assert_eq!(Csr::from_triplets(a.rows(), a.cols(), &triplets).unwrap(), a);
    }

    #[test]
    fn matrix_market_roundtrip(a in sparse_gen::csr(50, 200)) {
        let mut buf = Vec::new();
        sparse::io::write_matrix_market(&a, &mut buf).unwrap();
        let back: Csr<f64> = sparse::io::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(back.rpt(), a.rpt());
        prop_assert_eq!(back.col(), a.col());
        prop_assert!(back.approx_eq(&a, 1e-12, 1e-300));
    }

    #[test]
    fn hash_table_behaves_like_a_map(keys in collection::vec(0u32..10_000, 1..300)) {
        let cap = (2 * keys.len()).next_power_of_two().max(16);
        let mut table = nsparse_repro::nsparse_core::HashTable::<f64>::new(cap, true);
        table.reset(cap);
        let mut model = std::collections::BTreeMap::new();
        for &k in &keys {
            table.insert_numeric(k, 1.5);
            *model.entry(k).or_insert(0.0f64) += 1.5;
        }
        prop_assert_eq!(table.occupied(), model.len());
        let (cols, vals) = table.extract_sorted();
        let expect_cols: Vec<u32> = model.keys().copied().collect();
        prop_assert_eq!(cols, expect_cols);
        for (c, v) in model.keys().zip(vals) {
            prop_assert!((model[c] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn intermediate_products_upper_bound_nnz(a in sparse_gen::csr_square(100, 600)) {
        // Alg. 2's count is an upper bound on the output nnz, row by row.
        let prod = sparse::spgemm_ref::row_intermediate_products(&a, &a).unwrap();
        let nnz = sparse::spgemm_ref::symbolic_row_nnz(&a, &a).unwrap();
        for (p, n) in prod.iter().zip(&nnz) {
            prop_assert!(n <= p);
        }
    }

    #[test]
    fn simulated_time_positive_and_memory_bounded(a in sparse_gen::csr_square(80, 400)) {
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, r) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        prop_assert!(r.total_time > SimTime::ZERO);
        prop_assert!(r.peak_mem_bytes <= gpu.config().device_mem_bytes);
        prop_assert_eq!(gpu.live_mem_bytes(), 0);
    }
}
