//! Ablation benches (§IV-C and §III-B): CUDA streams on Circuit,
//! PWARP/ROW on Epidemiology, the PWARP width sweep, and the HASH_SCAL
//! scrambling switch. Each configuration's simulated time is one bench
//! id; speedups are printed on stderr, and each ablation's
//! `results/<tag>.csv` (the `repro` schema) is written alongside the
//! timing CSV `results/bench_ablations.csv`.

use bench::experiments as exp;
use bench::{harness, report};

fn record(g: &mut harness::Group, tag: &str, rows: Vec<exp::AblationRow>) {
    for r in &rows {
        eprintln!("{tag} {} [{}]: {} ({:.3} GFLOPS)", r.dataset, r.label, r.time, r.gflops);
        g.bench_sim(
            &format!("{tag}/{}/{}", r.dataset.replace('/', "_"), r.label.replace(' ', "_")),
            r.time,
        );
    }
    let p = report::write_ablation_csv(tag, &rows);
    println!("{tag} -> {}", p.display());
}

fn main() {
    let mut g = harness::group("ablations");
    record(&mut g, "ablation_streams", exp::ablation_streams::<f32>());
    record(&mut g, "ablation_pwarp", exp::ablation_pwarp::<f32>());
    record(&mut g, "ablation_pwarp_width", exp::ablation_pwarp_width::<f32>());
    record(&mut g, "ablation_hash", exp::ablation_hash::<f32>());
    record(&mut g, "extension_devices", exp::extension_devices::<f32>());
    // Plan reuse: numeric-only vs full multiply on one dataset.
    {
        let d = matgen::by_name("FEM/Cantilever").unwrap();
        let a = bench::matrix_f32(&d);
        let mut gpu = bench::device_for(&d);
        let (_, full) =
            nsparse_core::multiply(&mut gpu, &a, &a, &nsparse_core::Options::default()).unwrap();
        let opts = nsparse_core::Options::default();
        let mut exec = nsparse_core::SimExecutor::new(&mut gpu);
        let plan = nsparse_core::SymbolicPlan::from_executor(&mut exec, &a, &a, &opts).unwrap();
        let planned = plan.execute_with(&mut exec, &a, &a).unwrap().report;
        eprintln!(
            "plan_reuse FEM/Cantilever: full {} vs numeric-only {} (x{:.2})",
            full.total_time,
            planned.total_time,
            full.total_time.secs() / planned.total_time.secs()
        );
        for (label, t) in [("full", full.total_time), ("numeric_only", planned.total_time)] {
            g.bench_sim(&format!("plan_reuse/FEM_Cantilever/{label}"), t);
        }
    }
    g.finish();
}
