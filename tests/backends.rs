//! Backend-equivalence properties (quickprop): the simulated backend,
//! the host-thread backend at several thread counts, and the CPU
//! reference must all agree on arbitrary sparse matrices.
//!
//! The determinism contract (DESIGN.md §12) is stronger than "same
//! matrix": sim and host accumulate each output row in the same order
//! (A-row traversal), so their floating-point values are *bitwise*
//! identical, and the host result does not depend on the thread count.
//! Against the reference — which accumulates in a different order —
//! values are compared approximately, except on integer-valued inputs
//! where every order gives the exact same sums.
//!
//! The host backend runs rows on its dense accumulator when `B` has
//! at most `DENSE_MAX_COLS` columns and on the ESC row kernel beyond, so
//! the equivalence properties run on a narrow and on a wide `B`.

use nsparse_core::host::DENSE_MAX_COLS;
use nsparse_core::Execution;
use nsparse_repro::prelude::*;
use quickprop::prelude::*;
use sparse::spgemm_ref::spgemm_gustavson;

/// Column count of a `B` too wide for the host's dense accumulator.
const WIDE: usize = DENSE_MAX_COLS + 4_464;

/// `A · B` on the host backend with `threads` workers.
fn host_ab<T: Scalar>(a: &Csr<T>, b: &Csr<T>, threads: usize) -> Csr<T> {
    let mut exec = HostParallelExecutor::new(threads);
    exec.multiply(a, b, &Options::default()).unwrap().matrix
}

/// `A · B` on the simulated backend.
fn sim_ab<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    nsparse_core::multiply(&mut gpu, a, b, &Options::default()).unwrap().0
}

/// `A²` on the host backend with `threads` workers.
fn host<T: Scalar>(a: &Csr<T>, threads: usize) -> Csr<T> {
    host_ab(a, a, threads)
}

/// `A²` on the simulated backend.
fn sim<T: Scalar>(a: &Csr<T>) -> Csr<T> {
    sim_ab(a, a)
}

/// `a` with its columns spread over [`WIDE`] columns (order kept), so
/// `A · widen(A)` has `A²`'s row structure on the host's ESC path.
fn widen(a: &Csr<f64>) -> Csr<f64> {
    let stride = (WIDE / a.cols().max(1)) as u32;
    let mut t = Vec::with_capacity(a.nnz());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        t.extend(cols.iter().zip(vals).map(|(&c, &v)| (r, c * stride, v)));
    }
    Csr::from_triplets(a.rows(), WIDE, &t).unwrap()
}

/// Bitwise equality of two CSR results (structure exact, values by
/// bits; widening an `f32` to `f64` keeps every bit).
fn assert_bitwise_eq<T: Scalar>(x: &Csr<T>, y: &Csr<T>, what: &str) {
    assert_eq!(x.rpt(), y.rpt(), "{what}: row pointer differs");
    assert_eq!(x.col(), y.col(), "{what}: columns differ");
    let xb: Vec<u64> = x.val().iter().map(|v| v.to_f64().to_bits()).collect();
    let yb: Vec<u64> = y.val().iter().map(|v| v.to_f64().to_bits()).collect();
    assert_eq!(xb, yb, "{what}: values differ bitwise");
}

/// Round a matrix's values to small integers (sums of products of small
/// integers are exact in f64, so cross-backend equality is exact too).
fn integerize(a: &Csr<f64>) -> Csr<f64> {
    let mut t = Vec::with_capacity(a.nnz());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            t.push((r, c, v.round().clamp(-4.0, 4.0)));
        }
    }
    Csr::from_triplets(a.rows(), a.cols(), &t).unwrap()
}

/// `multiply` against the plan-reuse path (`SymbolicPlan::from_executor`,
/// then `execute_with`) at 1, 2 and 7 workers: the same row pointer,
/// columns, value bits and `replans`. Every `multiply` walks each
/// intermediate product once: the first into fresh staging, the second
/// and third into the staging the call before kept. Returns the
/// replans.
fn assert_one_phase_matches_plan_reuse(
    a: &Csr<f64>,
    b: &Csr<f64>,
    opts: &Options,
    what: &str,
) -> u64 {
    let mut replans = None;
    for threads in [1usize, 2, 7] {
        let what = format!("{what}, host:{threads}");
        let mut exec = HostParallelExecutor::new(threads);
        let mut planner = HostParallelExecutor::new(threads);
        let plan = SymbolicPlan::from_executor(&mut planner, a, b, opts).unwrap();
        let split = plan.execute_with(&mut exec, a, b).unwrap();
        assert_eq!(split.replans, plan.symbolic().replans, "{what}");
        assert_eq!(*replans.get_or_insert(split.replans), split.replans, "{what}: replans moved");
        for call in ["fresh staging", "reused", "reused"] {
            let run = exec.multiply(a, b, opts).unwrap();
            assert_bitwise_eq(&run.matrix, &split.matrix, &format!("{what}: {call}"));
            assert_eq!(run.replans, split.replans, "{what}: {call}: replans differ");
        }
    }
    replans.unwrap_or(0)
}

/// The option sets the one-phase equivalence runs under: the default
/// plan and a sampled plan that under-sizes rows.
fn equivalence_options() -> [(Options, &'static str); 2] {
    [
        (Options::default(), "exact"),
        (
            Options { estimator: Estimator::Sampled { sample: 1 }, ..Options::default() },
            "sampled:1",
        ),
    ]
}

quickprop! {
    #![config(cases = 32)]

    #[test]
    fn one_phase_multiply_matches_plan_reuse((a, b) in sparse_gen::csr_chain(120, 800)) {
        for (b, width) in [(b.clone(), "narrow"), (widen(&b), "wide")] {
            for (opts, est) in equivalence_options() {
                assert_one_phase_matches_plan_reuse(&a, &b, &opts, &format!("{width} B, {est}"));
            }
        }
    }

    #[test]
    fn all_backends_agree_on_random_matrices(a in sparse_gen::csr_square(120, 800)) {
        // B = A takes the dense accumulator, B = widen(A) the ESC kernel.
        for (b, what) in [(a.clone(), "narrow"), (widen(&a), "wide")] {
            let c_ref = spgemm_gustavson(&a, &b).unwrap();
            let c_sim = sim_ab(&a, &b);
            prop_assert_eq!(c_sim.rpt(), c_ref.rpt());
            prop_assert_eq!(c_sim.col(), c_ref.col());
            prop_assert!(c_sim.approx_eq(&c_ref, 1e-10, 1e-12));
            for threads in [1usize, 2, 8] {
                let c_host = host_ab(&a, &b, threads);
                assert_bitwise_eq(&c_sim, &c_host, &format!("{what} B, sim vs host:{threads}"));
            }
        }
    }

    #[test]
    fn host_output_is_thread_count_invariant(a in sparse_gen::csr_square(100, 600)) {
        let c1 = host(&a, 1);
        for threads in [2usize, 3, 8] {
            let ct = host(&a, threads);
            assert_bitwise_eq(&c1, &ct, &format!("host:1 vs host:{threads}"));
        }
    }

    #[test]
    fn integer_matrices_are_exact_across_all_backends(a in sparse_gen::csr_square(90, 500)) {
        let a = integerize(&a);
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let c_sim = sim(&a);
        let c_host = host(&a, 2);
        // Integer-valued inputs: every accumulation order is exact, so
        // even the reference must match bitwise.
        assert_bitwise_eq(&c_sim, &c_ref, "sim vs reference (integer)");
        assert_bitwise_eq(&c_host, &c_ref, "host vs reference (integer)");
    }
}

/// A 7 × 4 `A` and, for `B` of `width` columns (`stride` apart), rows
/// whose first product is -0.0, rows that meet +inf and -inf, rows with
/// NaN products, a row whose products are all -0.0 and one that mixes
/// -0.0 and +0.0 products.
fn edge_value_pair(width: usize, stride: u32) -> (Csr<f64>, Csr<f64>) {
    let a = Csr::from_triplets(
        7,
        4,
        &[
            (0, 0, -1.0),
            (0, 1, 2.0),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (2, 0, 1.0),
            (2, 2, 1.0),
            (3, 1, -3.0),
            (4, 2, 0.0),
            (4, 3, -2.0),
            (5, 0, -0.0),
            (6, 0, -0.0),
            (6, 1, 0.0),
        ],
    )
    .unwrap();
    let b_rows = [
        vec![(0u32, 0.0f64), (3, 5.0)],
        vec![(0, -0.0), (3, f64::MIN_POSITIVE)],
        vec![(1, f64::INFINITY), (2, f64::NAN), (3, -0.0)],
        vec![(1, f64::NEG_INFINITY), (2, 1.0), (4, f64::MAX)],
    ];
    let t: Vec<_> = b_rows
        .iter()
        .enumerate()
        .flat_map(|(r, row)| row.iter().map(move |&(c, v)| (r, c * stride, v)))
        .collect();
    (a, Csr::from_triplets(4, width, &t).unwrap())
}

/// The narrow and the wide shape of [`edge_value_pair`].
const EDGE_SHAPES: [(usize, u32); 2] = [(8, 1), (WIDE, (WIDE / 8) as u32)];

#[test]
fn edge_values_match_bitwise_on_narrow_and_wide_b() {
    // Each value must be the same sequence of IEEE operations on every
    // backend and path: the first product of a column assigns, later
    // ones add (0 + -0.0 would give +0.0). A plan-cache hit adds every
    // product to -0.0, the exact identity, and rechecks the rows that
    // hold a -0.0 for unreached columns.
    let bits = |row: (&[u32], &[f64])| row.1.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let (neg, pos) = ((-0.0f64).to_bits(), 0.0f64.to_bits());
    for (width, stride) in EDGE_SHAPES {
        let (a, b) = edge_value_pair(width, stride);
        let c_sim = sim_ab(&a, &b);
        // Row 0, column 0: -1·0.0 = -0.0 assigned, then += 2·-0.0.
        assert_eq!(c_sim.row(0).1[0].to_bits(), neg, "width {width}");
        // Row 1, column 1: +inf + -inf; column 2: NaN + 1.
        assert!(c_sim.row(1).1[0].is_nan() && c_sim.row(1).1[1].is_nan());
        // Row 5: only -0.0 products. Row 6: column 0 adds -0.0 to -0.0,
        // column 3 adds +0.0 to -0.0.
        assert_eq!(bits(c_sim.row(5)), [neg, neg], "width {width}");
        assert_eq!(bits(c_sim.row(6)), [neg, pos], "width {width}");
        for threads in [1usize, 3] {
            let what = format!("width {width}, host:{threads}");
            let mut host = HostParallelExecutor::new(threads);
            let cold = host.multiply(&a, &b, &Options::default()).unwrap().matrix;
            assert_bitwise_eq(&c_sim, &cold, &what);
            let plan = SymbolicPlan::from_executor(&mut host, &a, &b, &Options::default()).unwrap();
            let hit = plan.execute_with(&mut host, &a, &b).unwrap().matrix;
            assert_bitwise_eq(&c_sim, &hit, &format!("{what}, plan-cache hit"));
        }
    }
}

/// An `A · B` with rows of ~64 scattered products (compression ≈ 1)
/// plus four rows concatenating eight disjoint 3000-column B-rows
/// (24 000 products and as many outputs: group-0 rows in both phases).
fn scattered_and_fat_rows() -> (Csr<f64>, Csr<f64>) {
    let (m, k, n) = (1500usize, 1500usize, 30_000usize);
    let mut seed = 17u64;
    let mut next = |below: usize| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) as usize % below
    };
    let mut ta = Vec::new();
    for r in 0..m {
        if r < 4 {
            ta.extend((0..8u32).map(|c| (r, c, 1.0 + c as f64)));
        } else {
            ta.extend((0..8).map(|_| (r, (8 + next(k - 8)) as u32, 0.5 + next(4) as f64)));
        }
    }
    let mut tb = Vec::new();
    for r in 0..k {
        if r < 8 {
            tb.extend((r * 3000..(r + 1) * 3000).map(|c| (r, c as u32, 1.0 - (c % 5) as f64)));
        } else {
            tb.extend((0..8).map(|_| (r, next(n) as u32, 1.5)));
        }
    }
    let a = Csr::from_triplets(m, k, &ta).unwrap();
    let b = Csr::from_triplets(k, n, &tb).unwrap();
    let plan = SpgemmPlan::new(&DeviceConfig::p100(), &a, &b, &Options::default()).unwrap();
    assert!(plan.count.rows_by_group[0].len() >= 4, "test needs group-0 rows");
    (a, b)
}

/// `plan`'s numeric phase on a fresh simulated P100.
fn sim_replay(plan: &SymbolicPlan<f64>, a: &Csr<f64>, b: &Csr<f64>) -> Execution<f64> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    plan.execute_with(&mut SimExecutor::new(&mut gpu), a, b).unwrap()
}

/// Plans built on one backend replayed on the other: a sim plan on
/// host:1/2/7 and host plans on the sim, all bitwise equal to a
/// standalone multiply. Both backends record `C`'s structure, so the
/// host replays the sim plan's record as it stands, and the two records
/// are equal; a host plan's sim report equals the sim plan's. Returns
/// the host plans' replans.
fn assert_cross_backend_replay(a: &Csr<f64>, b: &Csr<f64>, opts: &Options, what: &str) -> u64 {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    let want = nsparse_core::multiply(&mut gpu, a, b, opts).unwrap().0;
    let sim_plan =
        SymbolicPlan::from_executor(&mut SimExecutor::new(&mut gpu), a, b, opts).unwrap();
    let sim_sym = sim_plan.symbolic();
    assert_eq!(sim_sym.structure, want.col(), "{what}: the sim records C's structure");
    let sim_report = sim_replay(&sim_plan, a, b).report;
    let mut replans = 0;
    for threads in [1usize, 2, 7] {
        let what = format!("{what}, host:{threads}");
        let mut host = HostParallelExecutor::new(threads);
        let run = sim_plan.execute_with(&mut host, a, b).unwrap();
        assert_bitwise_eq(&run.matrix, &want, &format!("{what}: sim plan on the host"));
        let host_plan = SymbolicPlan::from_executor(&mut host, a, b, opts).unwrap();
        let host_sym = host_plan.symbolic();
        assert_eq!(host_sym.structure, sim_sym.structure, "{what}");
        assert_eq!(host_sym.rpt, sim_sym.rpt, "{what}");
        assert_eq!(host_sym.replans, sim_sym.replans, "{what}");
        replans += host_sym.replans;
        let run = sim_replay(&host_plan, a, b);
        assert_bitwise_eq(&run.matrix, &want, &format!("{what}: host plan on the sim"));
        let r = &run.report;
        assert_eq!(r.total_time.secs().to_bits(), sim_report.total_time.secs().to_bits(), "{what}");
        assert_eq!(r.phase_times, sim_report.phase_times, "{what}");
        assert_eq!(r.hash_probes, sim_report.hash_probes, "{what}");
        assert_eq!(r.peak_mem_bytes, sim_report.peak_mem_bytes, "{what}");
    }
    replans
}

#[test]
fn plans_replay_across_backends() {
    let [(exact, _), (sampled, _)] = equivalence_options();
    let replans: u64 = (0..2)
        .map(|seed| {
            let a = matgen::generators::power_law(512, 8.0, 256, 1.1, 0.5, 32, seed);
            assert_cross_backend_replay(&a, &a, &exact, "power-law, exact");
            assert_cross_backend_replay(&a, &a, &sampled, "power-law, sampled:1")
        })
        .sum();
    assert!(replans > 0, "test needs replanned rows");
    let (a, b) = scattered_and_fat_rows();
    assert_cross_backend_replay(&a, &b, &exact, "scattered and fat rows");
    let (a, b) = edge_value_pair(8, 1);
    assert_cross_backend_replay(&a, &b, &exact, "edge values");
}

#[test]
fn one_phase_multiply_matches_plan_reuse_on_structured_inputs() {
    let [(exact, _), (sampled, _)] = equivalence_options();
    // Power-law rows: exact, and sampled:1, whose under-estimates replan.
    let replans: u64 = (0..3)
        .map(|seed| {
            let a = matgen::generators::power_law(512, 8.0, 256, 1.1, 0.5, 32, seed);
            assert_one_phase_matches_plan_reuse(&a, &a, &exact, "power-law, exact");
            assert_one_phase_matches_plan_reuse(&a, &a, &sampled, "power-law, sampled:1")
        })
        .sum();
    assert!(replans > 0, "test needs replanned rows");

    // Low-compression rows beside group-0 rows.
    let (a, b) = scattered_and_fat_rows();
    assert_one_phase_matches_plan_reuse(&a, &b, &exact, "scattered and fat rows");

    // Edge values (-0.0 first products, ±inf, NaN) on narrow and wide B,
    // empty rows between dense ones, a 0-row A and a 0-column B.
    let mut cases: Vec<(Csr<f64>, Csr<f64>, String)> = EDGE_SHAPES
        .iter()
        .map(|&(width, stride)| {
            let (a, b) = edge_value_pair(width, stride);
            (a, b, format!("edge values, width {width}"))
        })
        .collect();
    let mut t = Vec::new();
    for c in 0..10u32 {
        t.push((0usize, c, 1.5 + c as f64));
        t.push((9, c, -0.25 * c as f64));
    }
    let sparse_rows = Csr::from_triplets(10, 10, &t).unwrap();
    cases.push((sparse_rows.clone(), sparse_rows.clone(), "empty rows".into()));
    cases.push((Csr::zeros(0, 10), sparse_rows.clone(), "0-row A".into()));
    cases.push((sparse_rows, Csr::zeros(10, 0), "0-column B".into()));
    for (a, b, what) in &cases {
        for (opts, est) in equivalence_options() {
            assert_one_phase_matches_plan_reuse(a, b, &opts, &format!("{what}, {est}"));
        }
    }
}

#[test]
fn empty_matrix_on_every_backend() {
    let z = Csr::<f64>::zeros(64, 64);
    let c_sim = sim(&z);
    assert_eq!(c_sim.nnz(), 0);
    for threads in [1usize, 2, 8] {
        let c_host = host(&z, threads);
        assert_bitwise_eq(&c_sim, &c_host, "empty matrix");
    }
}

#[test]
fn empty_rows_between_dense_rows() {
    // Rows 0 and 9 populated, the rest empty — exercises zero-nnz rows
    // inside the partitioner and the PWARP group.
    let n = 10;
    let mut t = Vec::new();
    for c in 0..n {
        t.push((0usize, c as u32, 1.5 + c as f64));
        t.push((n - 1, c as u32, 0.25 * c as f64));
    }
    let a = Csr::from_triplets(n, n, &t).unwrap();
    let c_ref = spgemm_gustavson(&a, &a).unwrap();
    let c_sim = sim(&a);
    assert_eq!(c_sim.rpt(), c_ref.rpt());
    assert!(c_sim.approx_eq(&c_ref, 1e-12, 1e-12));
    for threads in [1usize, 2, 8] {
        assert_bitwise_eq(&c_sim, &host(&a, threads), "empty-row matrix");
    }
}

#[test]
fn group0_overflow_rows_match_across_backends() {
    // One output row above the largest shared table (4096 numeric /
    // 8192 count): lands in the global-memory group on the sim backend
    // and in a per-row global-size table on the host backend.
    let n = 6000;
    let mut t1 = Vec::new();
    for k in 0..3 {
        t1.push((0usize, k as u32, 1.0 + k as f64));
    }
    let mut t2 = Vec::new();
    for r in 0..3usize {
        for c in 0..n {
            if (c + r) % 2 == 0 {
                t2.push((r, c as u32, 1.0 + (c % 7) as f64));
            }
        }
    }
    for r in 3..n {
        t1.push((r, (r % n) as u32, 1.0));
        t2.push((r, (r % n) as u32, 1.0));
    }
    let a = Csr::from_triplets(n, n, &t1).unwrap();
    let b = Csr::from_triplets(n, n, &t2).unwrap();
    let c_ref = spgemm_gustavson(&a, &b).unwrap();
    assert!(c_ref.row_nnz(0) > 4096, "test needs a group-0 row");

    let mut gpu = Gpu::new(DeviceConfig::p100());
    let c_sim = nsparse_core::multiply(&mut gpu, &a, &b, &Options::default()).unwrap().0;
    assert_eq!(c_sim.rpt(), c_ref.rpt());
    assert!(c_sim.approx_eq(&c_ref, 1e-12, 1e-12));
    for threads in [1usize, 2, 8] {
        let mut exec = HostParallelExecutor::new(threads);
        let c_host = exec.multiply(&a, &b, &Options::default()).unwrap().matrix;
        assert_bitwise_eq(&c_sim, &c_host, &format!("group-0 row, host:{threads}"));
    }
}

#[test]
fn batched_fallback_agrees_across_backends() {
    // Both backends size batches from the same forecast, so at the same
    // capacity they must make the same batching decision and produce
    // the same bits as the unconstrained run (DESIGN.md §13).
    let a = {
        let mut s = 77u64;
        let mut t = Vec::new();
        for r in 0..300usize {
            for _ in 0..6 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % 300) as u32, 1.0 + (s % 9) as f64));
            }
        }
        Csr::from_triplets(300, 300, &t).unwrap()
    };
    let c_full = sim(&a);
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();

    for denom in [2u64, 4] {
        let cap = est / denom;
        let mut gpu = Gpu::new(DeviceConfig::p100_with_memory(cap));
        let (c_sim_batched, sim_batches) = {
            let mut exec = BatchedExecutor::sim(&mut gpu);
            let run = exec.multiply(&a, &a, &Options::default()).unwrap();
            (run.matrix, exec.batches_used())
        };
        assert_eq!(gpu.live_mem_bytes(), 0);

        let mut exec = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(cap));
        let run = exec.multiply(&a, &a, &Options::default()).unwrap();
        let host_batches = exec.batches_used();

        assert!(sim_batches > 1, "est/{denom} must force batching");
        assert_eq!(sim_batches, host_batches, "backends batched differently at est/{denom}");
        assert_bitwise_eq(&c_sim_batched, &c_full, &format!("sim batched at est/{denom}"));
        assert_bitwise_eq(&run.matrix, &c_full, &format!("host batched at est/{denom}"));
    }
}

#[test]
fn batched_runs_record_a_plan_only_unsplit() {
    // A batched run that splits the rows ran one plan per batch, so it
    // records none and `from_executor` reports an invariant error; one
    // that fits runs unbatched and records the plan of its one multiply.
    let a = matgen::generators::random_uniform::<f64>(300, 6.0, 24, 5);
    let est = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound();
    let opts = Options::default();
    let mut split = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(est / 2));
    assert!(split.multiply(&a, &a, &opts).unwrap().record.is_none());
    assert!(split.batches_used() > 1, "est/2 must force batching");
    let err = SymbolicPlan::from_executor(&mut split, &a, &a, &opts).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Invariant);
    let mut whole = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(est));
    let plan = SymbolicPlan::from_executor(&mut whole, &a, &a, &opts).unwrap();
    assert_eq!(whole.batches_used(), 1);
    assert_bitwise_eq(&plan.execute_with(&mut whole, &a, &a).unwrap().matrix, &sim(&a), "unsplit");
}

#[test]
fn backends_classify_capacity_errors_identically() {
    // A device too small for even one row's working set: both backends
    // must fail with the same structured error — same variant, same
    // kind, same (fatal) recovery — because the classification is
    // forecast-driven, not device-driven.
    let a = Csr::<f64>::identity(64);
    let cap = 64; // far below B's footprint
    let mut gpu = Gpu::new(DeviceConfig::p100_with_memory(cap));
    let sim_err = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        exec.multiply(&a, &a, &Options::default()).unwrap_err()
    };
    assert_eq!(gpu.live_mem_bytes(), 0);
    let mut exec = BatchedExecutor::host(2, DeviceConfig::p100_with_memory(cap));
    let host_err = exec.multiply(&a, &a, &Options::default()).unwrap_err();

    for (name, e) in [("sim", &sim_err), ("host", &host_err)] {
        assert!(matches!(e, Error::CapacityExhausted(_)), "{name}: {e}");
        assert_eq!(e.kind(), ErrorKind::DeviceOom, "{name}");
        assert_eq!(e.recovery(), Recovery::Fatal, "{name}");
    }
    // And the diagnostics agree on the numbers (same forecast math).
    let (Error::CapacityExhausted(ds), Error::CapacityExhausted(dh)) = (&sim_err, &host_err) else {
        unreachable!()
    };
    assert_eq!(ds.estimate_upper, dh.estimate_upper);
    assert_eq!(ds.capacity, dh.capacity);
}

/// What one row of the registry table asserts about a dataset's `A²`.
#[derive(Clone, Copy, Debug)]
enum Gate {
    /// The sim's product equals `host:2`'s.
    SimEqualsHost,
    /// `host:1`'s product equals `host:3`'s.
    HostThreadInvariant,
    /// A `sampled:64` plan gives the exact plan's product, on the sim
    /// and on `host:2`.
    SampledEqualsExact,
    /// Capped at a quarter of `estimate_memory`'s upper bound (the
    /// CLI's `--max-device-mem 0.25x`), the sim batches, leaves no
    /// device memory live and equals the unbatched product.
    QuarterCapacityBatched,
    /// Under the fault plan `seed=7;malloc-oom=3` exactly one OOM is
    /// injected; the batched fallback recovers, leaves no device memory
    /// live and equals the clean product.
    InjectedOom,
}

fn check_registry_gate<T: Scalar>(name: &str, gate: Gate) {
    let a = matgen::by_name(name).unwrap().generate::<T>(matgen::Scale::Tiny);
    let what = format!("{name} {}: {gate:?}", T::PRECISION);
    match gate {
        Gate::SimEqualsHost => assert_bitwise_eq(&sim(&a), &host(&a, 2), &what),
        Gate::HostThreadInvariant => assert_bitwise_eq(&host(&a, 1), &host(&a, 3), &what),
        Gate::SampledEqualsExact => {
            let opts =
                Options { estimator: Estimator::Sampled { sample: 64 }, ..Options::default() };
            let mut gpu = Gpu::new(DeviceConfig::p100());
            let on_sim = nsparse_core::multiply(&mut gpu, &a, &a, &opts).unwrap().0;
            assert_bitwise_eq(&on_sim, &sim(&a), &format!("{what}, sim"));
            let on_host = HostParallelExecutor::new(2).multiply(&a, &a, &opts).unwrap().matrix;
            assert_bitwise_eq(&on_host, &host(&a, 2), &format!("{what}, host:2"));
        }
        Gate::QuarterCapacityBatched => {
            let cap = nsparse_core::estimate_memory(&a, &a).unwrap().upper_bound().div_ceil(4);
            let mut gpu = Gpu::new(DeviceConfig::p100_with_memory(cap));
            let batched = {
                let mut exec = BatchedExecutor::sim(&mut gpu);
                let run = exec.multiply(&a, &a, &Options::default()).unwrap();
                assert!(exec.batches_used() > 1, "{what}: a quarter of the forecast must batch");
                run.matrix
            };
            assert_eq!(gpu.live_mem_bytes(), 0, "{what}: device memory left live");
            assert_bitwise_eq(&batched, &sim(&a), &what);
        }
        Gate::InjectedOom => {
            let mut gpu = Gpu::new(DeviceConfig::p100());
            gpu.set_fault_plan(FaultPlan::parse("seed=7;malloc-oom=3").unwrap());
            let faulted =
                BatchedExecutor::sim(&mut gpu).multiply(&a, &a, &Options::default()).unwrap();
            assert_eq!(gpu.injected_faults(), 1, "{what}");
            assert_eq!(gpu.live_mem_bytes(), 0, "{what}: device memory left live");
            assert_bitwise_eq(&faulted.matrix, &sim(&a), &what);
        }
    }
}

#[test]
fn registry_datasets_agree_across_backends_estimators_and_capacity() {
    // `--tiny` registry datasets squared the way `spgemm --dataset NAME
    // --tiny` squares them: a Table-3-class graph, Protein (compression
    // ratio ~25) and Economics (~1.1), cit-Patents batched, QCD faulted.
    // No `--tiny` dataset is wider than `DENSE_MAX_COLS`; the host's ESC
    // rows are held to the same bits by the properties above.
    for (name, gate) in [
        ("wb-edu", Gate::SimEqualsHost),
        ("Economics", Gate::HostThreadInvariant),
        ("QCD", Gate::SampledEqualsExact),
        ("Economics", Gate::SampledEqualsExact),
    ] {
        check_registry_gate::<f32>(name, gate);
    }
    for (name, gate) in [
        ("Protein", Gate::SimEqualsHost),
        ("Economics", Gate::SimEqualsHost),
        ("cit-Patents", Gate::QuarterCapacityBatched),
        ("QCD", Gate::InjectedOom),
    ] {
        check_registry_gate::<f64>(name, gate);
    }
}
