//! Symbolic-plan reuse: when the same sparsity pattern multiplies many
//! times with changing values (AMG re-setup, Jacobian refresh), plan
//! once and run the numeric phase only.
//!
//! ```text
//! cargo run --release --example plan_reuse [dataset-name] [repeats]
//! ```

use nsparse_repro::nsparse_core::{SimExecutor, SymbolicPlan};
use nsparse_repro::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "FEM/Cantilever".to_string());
    let repeats: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let dataset = matgen::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown dataset '{name}'");
        std::process::exit(1);
    });
    let a = dataset.generate::<f32>(matgen::Scale::Repro);
    println!(
        "dataset '{}': {} rows, {} nnz, {repeats} repeated products",
        dataset.name,
        a.rows(),
        a.nnz()
    );

    let mut gpu = Gpu::new(DeviceConfig::p100());
    // Baseline: full multiply every time.
    let mut full_total = SimTime::ZERO;
    for _ in 0..repeats {
        let (_, r) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
        full_total += r.total_time;
    }
    // Planned: one symbolic pass, numeric-only afterwards.
    let mut exec = SimExecutor::new(&mut gpu);
    let plan = SymbolicPlan::from_executor(&mut exec, &a, &a, &Options::default()).unwrap();
    let mut planned_total = plan.plan_time;
    for i in 0..repeats {
        // Values change between applications; the pattern does not.
        let a_i = a.scaled(1.0 + i as f32 * 0.125);
        let run = plan.execute_with(&mut exec, &a_i, &a_i).unwrap();
        planned_total += run.report.total_time;
    }
    println!("\nfull multiply x{repeats}        : {full_total}");
    println!("plan once + numeric x{repeats} : {planned_total} (plan itself: {})", plan.plan_time);
    println!("speedup                  : x{:.2}", full_total.secs() / planned_total.secs());
    println!("output nnz (from plan)   : {}", plan.output_nnz());
}
