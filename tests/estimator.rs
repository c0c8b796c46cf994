//! Estimation-based planning properties (DESIGN.md §16): the sampled
//! estimator may only change planning cost and hash-table sizes — never
//! the product. Two quickprop properties pin the contract:
//!
//! 1. every row's padded sampled table either admits the exact output
//!    row or triggers exactly one replan (the replan count equals the
//!    number of under-sized rows, and is thread-count independent) — on
//!    a narrow `B` (the host's dense accumulator) and on one wider than
//!    `DENSE_MAX_COLS` (whose rows the host runs with ESC);
//! 2. exact and sampled plans produce bitwise-identical `Csr` output on
//!    both backends (sim and host), across seeded R-MAT / power-law
//!    matrices and sample budgets.
//!
//! One fixed-matrix test pins what the sampled estimator is for: on
//! dense hub-heavy rows its planning pass costs less simulated time than
//! the exact count pass. Another forces the replan path on a registry
//! dataset and checks it is visible: a `replan` telemetry event on the
//! sim, a non-zero replan count on the host.

use nsparse_core::host::DENSE_MAX_COLS;
use nsparse_repro::prelude::*;
use quickprop::prelude::*;

/// Hub-heavy seeded matrices — the regime where row sampling actually
/// under-estimates and the replan path earns its keep.
fn hub_matrix(rmat: bool, seed: u64) -> Csr<f64> {
    if rmat {
        matgen::generators::rmat(512, 8192, 256, (0.6, 0.2, 0.15, 0.05), seed)
    } else {
        matgen::generators::power_law(512, 8.0, 256, 1.1, 0.5, 32, seed)
    }
}

fn bits(c: &Csr<f64>) -> Vec<u64> {
    c.val().iter().map(|v| v.to_bits()).collect()
}

/// `a` with its columns spread over more than `DENSE_MAX_COLS` columns
/// (order kept): `A · widen(A)` has the row structure of `A²`.
fn widen(a: &Csr<f64>) -> Csr<f64> {
    let wide = DENSE_MAX_COLS + 4_464;
    let stride = (wide / a.cols()) as u32;
    let mut t = Vec::with_capacity(a.nnz());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        t.extend(cols.iter().zip(vals).map(|(&c, &v)| (r, c * stride, v)));
    }
    Csr::from_triplets(a.rows(), wide, &t).unwrap()
}

fn sim_multiply(a: &Csr<f64>, b: &Csr<f64>, opts: &Options) -> Csr<f64> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    let (c, _) = nsparse_core::multiply(&mut gpu, a, b, opts).unwrap();
    assert_eq!(gpu.live_mem_bytes(), 0, "multiply leaked device memory");
    c
}

/// Row sampling truncates the planning pass to `sample` draws per row,
/// so on rows far longer than the sample it must be cheaper than the
/// exact count, while the product stays bitwise identical. Alg. 2's
/// Setup charge reads only A's row lengths, so `B = I` keeps the
/// multiplies cheap without changing it.
#[test]
fn sampled_planning_is_cheaper_than_exact_on_hub_heavy_rows() {
    let matrices: [(&str, Csr<f64>); 2] = [
        ("rmat_16k", matgen::generators::rmat(1 << 14, 1 << 22, 8192, (0.7, 0.15, 0.1, 0.05), 42)),
        ("powlaw_8k", matgen::generators::power_law(1 << 13, 96.0, 4096, 1.1, 0.5, 64, 3)),
    ];
    for (name, a) in matrices {
        let b = Csr::identity(a.cols());
        let run = |estimator| {
            let mut gpu = Gpu::new(DeviceConfig::p100());
            let opts = Options { estimator, ..Options::default() };
            nsparse_core::multiply(&mut gpu, &a, &b, &opts).unwrap()
        };
        let (exact, exact_report) = run(Estimator::Exact);
        let (sampled, sampled_report) = run(Estimator::Sampled { sample: 64 });
        let (t_exact, t_sampled) =
            (exact_report.phase_time(Phase::Setup), sampled_report.phase_time(Phase::Setup));
        assert!(
            t_sampled < t_exact,
            "{name}: sampled planning {t_sampled} not below exact {t_exact}"
        );
        assert_eq!(sampled.rpt(), exact.rpt(), "{name}");
        assert_eq!(sampled.col(), exact.col(), "{name}");
        assert_eq!(bits(&sampled), bits(&exact), "{name}");
    }
}

/// `sampled:1` on Circuit's skewed `--tiny` rows under-sizes some
/// tables (the `spgemm trace --dataset Circuit --tiny --estimator
/// sampled:1` run): the sim's replan pass emits a `replan` event, the
/// host's walk counts the rows it finished past their tables, and both
/// products equal the exact plan's bit for bit.
#[test]
fn forced_under_estimate_replans_visibly_on_both_backends() {
    let a = matgen::by_name("Circuit").unwrap().generate::<f32>(matgen::Scale::Tiny);
    let bits32 = |c: &Csr<f32>| c.val().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let exact = {
        let mut gpu = Gpu::new(DeviceConfig::p100());
        nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap().0
    };
    let opts = Options { estimator: Estimator::Sampled { sample: 1 }, ..Options::default() };
    let mut gpu = Gpu::new(DeviceConfig::p100());
    gpu.enable_telemetry();
    let (sim, _) = nsparse_core::multiply(&mut gpu, &a, &a, &opts).unwrap();
    let jsonl = gpu.telemetry().unwrap().to_jsonl();
    assert!(jsonl.contains("\"kind\":\"replan\""), "no replan event in the sim's trace");
    let host = HostParallelExecutor::new(2).multiply(&a, &a, &opts).unwrap();
    assert!(host.replans > 0, "the host walk replanned no rows");
    for (c, backend) in [(&sim, "sim"), (&host.matrix, "host:2")] {
        assert_eq!(c.rpt(), exact.rpt(), "{backend}");
        assert_eq!(c.col(), exact.col(), "{backend}");
        assert_eq!(bits32(c), bits32(&exact), "{backend}");
    }
}

quickprop! {
    #![config(cases = 12)]

    #[test]
    fn sampled_tables_admit_exact_nnz_or_replan_once(
        rmat in prop_oneof![Just(true), Just(false)],
        seed in 0u64..256,
        sample in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let a = hub_matrix(rmat, seed);
        let opts = Options { estimator: Estimator::Sampled { sample }, ..Options::default() };
        for b in [a.clone(), widen(&a)] {
            let c_exact = sim_multiply(&a, &b, &Options::default());

            // First-pass table capacities of the sampled plan, per row.
            let plan = SpgemmPlan::new(&DeviceConfig::p100(), &a, &b, &opts).unwrap();
            let undersized = (0..a.rows())
                .filter(|&r| c_exact.row_nnz(r) > plan.count.table_size_for(r))
                .count() as u64;

            // Each under-sized row replans exactly once; admitted rows
            // never do. The count must not depend on the worker count.
            let mut host1 = HostParallelExecutor::new(1);
            let run1 = host1.multiply(&a, &b, &opts).unwrap();
            let mut host4 = HostParallelExecutor::new(4);
            let run4 = host4.multiply(&a, &b, &opts).unwrap();
            prop_assert_eq!(run1.replans, undersized);
            prop_assert_eq!(run4.replans, undersized);
            prop_assert_eq!(bits(&run1.matrix), bits(&c_exact));
            prop_assert_eq!(bits(&run4.matrix), bits(&c_exact));
        }
    }

    #[test]
    fn sampled_plans_match_exact_bitwise_on_both_backends(
        rmat in prop_oneof![Just(true), Just(false)],
        seed in 0u64..256,
        sample in prop_oneof![Just(1usize), Just(4), Just(64)],
    ) {
        let a = hub_matrix(rmat, seed);
        let exact = sim_multiply(&a, &a, &Options::default());
        let opts = Options { estimator: Estimator::Sampled { sample }, ..Options::default() };
        let sim = sim_multiply(&a, &a, &opts);
        prop_assert_eq!(sim.rpt(), exact.rpt());
        prop_assert_eq!(sim.col(), exact.col());
        prop_assert_eq!(bits(&sim), bits(&exact));
        let mut host = HostParallelExecutor::new(3);
        let run = host.multiply(&a, &a, &opts).unwrap();
        prop_assert_eq!(run.matrix.rpt(), exact.rpt());
        prop_assert_eq!(run.matrix.col(), exact.col());
        prop_assert_eq!(bits(&run.matrix), bits(&exact));
    }
}
