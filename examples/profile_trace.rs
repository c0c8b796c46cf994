//! Dump the virtual device's kernel timeline as Chrome trace-event JSON
//! (open `results/trace.json` at chrome://tracing or ui.perfetto.dev) —
//! the per-group stream overlap of §IV-C is directly visible.
//!
//! ```text
//! cargo run --release --example profile_trace [dataset-name]
//! ```

use nsparse_repro::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Circuit".to_string());
    let dataset = matgen::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown dataset '{name}'");
        std::process::exit(1);
    });
    let a = dataset.generate::<f32>(matgen::Scale::Repro);
    let mut gpu = Gpu::new(DeviceConfig::p100());
    gpu.enable_telemetry();
    let (_, report) = nsparse_core::multiply(&mut gpu, &a, &a, &Options::default()).unwrap();
    println!(
        "'{}' multiplied in {} ({:.2} GFLOPS)",
        dataset.name,
        report.total_time,
        report.gflops()
    );

    std::fs::create_dir_all("results").unwrap();
    let path = "results/trace.json";
    let timeline = gpu.timeline();
    std::fs::write(path, timeline.chrome_trace()).unwrap();
    println!("kernel timeline ({} events) written to {path}", timeline.len());
    println!("open it at chrome://tracing — streams appear as separate tracks");
}
