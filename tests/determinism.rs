//! Determinism: the whole stack — generators, functional kernels, cost
//! model, scheduler — must be bit-reproducible, because every figure of
//! the reproduction is regenerated rather than archived.

use nsparse_repro::prelude::*;

#[test]
fn generators_are_bit_identical_across_calls() {
    for d in matgen::standard_datasets().iter().chain(matgen::large_datasets().iter()) {
        let a = d.generate::<f64>(matgen::Scale::Tiny);
        let b = d.generate::<f64>(matgen::Scale::Tiny);
        assert_eq!(a, b, "{}", d.name);
    }
}

#[test]
fn simulated_times_are_bit_identical() {
    let d = matgen::by_name("FEM/Harbor").unwrap();
    let a = d.generate::<f32>(matgen::Scale::Tiny);
    let run = || {
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, r) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        (r.total_time.secs(), r.peak_mem_bytes, r.output_nnz)
    };
    let first = run();
    for _ in 0..3 {
        let again = run();
        assert_eq!(first.0.to_bits(), again.0.to_bits(), "time must be bit-identical");
        assert_eq!(first.1, again.1);
        assert_eq!(first.2, again.2);
    }
}

/// The proposal's simulated time in seconds and its peak device memory
/// in bytes on the benchmark's five `paper-sim` datasets, run as it runs
/// them: `Scale::Repro`, f32, C = A², each one `multiply` on a fresh
/// P100. Both are pure functions of the input and the cost model and are
/// compared exactly (times by their bits), so any change to either is a
/// cost-model change: paste the printed table over this one and say why
/// in CHANGES.md.
const PINNED_PROPOSAL_RUNS: [(&str, f64, u64); 5] = [
    ("Protein", 0.0016099562505351966, 19180704),
    ("QCD", 0.0010513634942687054, 25349776),
    ("Economics", 0.0022820736534067162, 104386728),
    ("Circuit", 0.0019422960049281521, 73807088),
    ("Epidemiology", 0.002543717976220182, 81997516),
];

#[test]
fn proposal_times_and_peak_memory_are_pinned() {
    let fresh: Vec<(&str, f64, u64)> = PINNED_PROPOSAL_RUNS
        .iter()
        .map(|&(name, _, _)| {
            let a = matgen::by_name(name).unwrap().generate::<f32>(matgen::Scale::Repro);
            let mut gpu = Gpu::new(DeviceConfig::p100());
            let (_, r) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
            (name, r.total_time.secs(), r.peak_mem_bytes)
        })
        .collect();
    let same = fresh
        .iter()
        .zip(&PINNED_PROPOSAL_RUNS)
        .all(|(f, p)| f.0 == p.0 && f.1.to_bits() == p.1.to_bits() && f.2 == p.2);
    let table: String =
        fresh.iter().map(|(n, t, m)| format!("    ({n:?}, {t:?}, {m}),\n")).collect();
    assert!(
        same,
        "simulated time or peak memory moved; if the cost-model change is deliberate, \
         paste this over PINNED_PROPOSAL_RUNS and say why in CHANGES.md:\n{table}"
    );
}

#[test]
fn all_baselines_deterministic() {
    let d = matgen::by_name("Circuit").unwrap();
    let a = d.generate::<f32>(matgen::Scale::Tiny);
    for alg in Algorithm::ALL {
        let mut t = Vec::new();
        for _ in 0..2 {
            let mut gpu = Gpu::new(DeviceConfig::p100());
            let (_, r) = alg.run::<f32>(&mut gpu, &a, &a).unwrap();
            t.push((r.total_time.secs().to_bits(), r.peak_mem_bytes));
        }
        assert_eq!(t[0], t[1], "{} not deterministic", alg.name());
    }
}

#[test]
fn phase_times_sum_to_total() {
    let d = matgen::by_name("Protein").unwrap();
    let a = d.generate::<f64>(matgen::Scale::Tiny);
    for alg in Algorithm::ALL {
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let (_, r) = alg.run::<f64>(&mut gpu, &a, &a).unwrap();
        let sum: SimTime =
            r.phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|&(_, t)| t).sum();
        assert!(
            (sum.secs() - r.total_time.secs()).abs() <= 1e-12 * r.total_time.secs().max(1e-30),
            "{}: phases {} vs total {}",
            alg.name(),
            sum,
            r.total_time
        );
    }
}

#[test]
fn gflops_definition_is_paper_metric() {
    // §IV: FLOPS = 2 * intermediate products / time.
    let d = matgen::by_name("QCD").unwrap();
    let a = d.generate::<f32>(matgen::Scale::Tiny);
    let ip = sparse::spgemm_ref::total_intermediate_products(&a, &a).unwrap();
    let mut gpu = Gpu::new(DeviceConfig::p100());
    let (_, r) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
    assert_eq!(r.intermediate_products, ip);
    let expect = 2.0 * ip as f64 / r.total_time.secs() / 1e9;
    assert!((r.gflops() - expect).abs() < 1e-9);
}
