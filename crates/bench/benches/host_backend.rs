//! Host-backend wall-clock trajectory: the grouped hash algorithm run
//! for real on OS threads, next to the sim backend's model prediction,
//! over a Figure 2/3-class dataset subset.
//!
//! Two kinds of rows land in `results/bench_host_backend.csv`:
//!
//! * `<dataset>/sim` — simulated kernel time of the proposal (the model
//!   prediction the host numbers sit next to);
//! * `<dataset>/host:N` — real median wall-clock of
//!   [`nsparse_core::HostParallelExecutor`] with N worker threads.
//!
//! Thread counts 1/2/4/8 chart the scaling curve; on a single-core runner
//! the three coincide (the executor is low-overhead, not magic) and the
//! CSV records that honestly.

use bench::harness;

const DATASETS: &[&str] = &["Protein", "QCD", "Economics", "Circuit", "Epidemiology"];
const THREADS: &[usize] = &[1, 2, 4, 8];

fn main() {
    let mut g = harness::group("host_backend");
    // Wall times on a shared machine drift; seven samples keep the
    // median stable where three did not.
    g.sample_size(7);
    for name in DATASETS {
        let d = matgen::by_name(name).unwrap();
        let id = d.name.replace('/', "_");
        // Model prediction for the same multiply (single precision).
        let sim = bench::run_one::<f32>(baselines::Algorithm::Proposal, &d);
        if let Some(r) = &sim.report {
            g.bench_sim(&format!("{id}/sim"), r.total_time);
        }
        for &t in THREADS {
            let a = bench::matrix_f32(&d);
            g.bench_wall(&format!("{id}/host:{t}"), || {
                use nsparse_core::Executor;
                let mut exec = nsparse_core::HostParallelExecutor::new(t);
                let run = exec
                    .multiply(&a, &a, &nsparse_core::Options::default())
                    .expect("host multiply");
                std::hint::black_box(run.matrix.nnz());
            });
        }
        // One-shot phase breakdown on stderr for the record.
        let run = bench::run_one_host::<f32>(&d, 1);
        if let Some(w) = run.wall {
            eprintln!(
                "{id} host:1 total {:?} (setup {:?}, calc {:?}), {:.3} GFLOPS",
                w.total,
                w.phase(vgpu::Phase::Setup),
                w.phase(vgpu::Phase::Calc),
                w.gflops(run.report.intermediate_products)
            );
        }
    }
    g.finish();
}
