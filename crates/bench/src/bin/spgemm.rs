//! `spgemm` — command-line SpGEMM on the virtual Pascal GPU.
//!
//! ```text
//! spgemm --dataset QCD                          # synthetic analogue
//! spgemm --matrix path/to/matrix.mtx            # real Matrix Market file
//! spgemm --dataset webbase --algorithm bhsparse --precision f64
//! spgemm --dataset Circuit --device v100 --trace trace.json
//! spgemm --dataset Protein --include-transfers --output c.mtx
//! ```
//!
//! Squares the chosen matrix with one of the four implementations,
//! prints the report (time, GFLOPS, phase breakdown, peak memory), and
//! optionally writes the result and a chrome://tracing timeline.

use baselines::Algorithm;
use nsparse_core::{
    AlgorithmPolicy, Backend, BatchedExecutor, Estimator, Executor, HostParallelExecutor, Options,
};
use sparse::{Csr, Scalar};
use vgpu::{DeviceConfig, FaultPlan, Gpu, Phase};

/// `--max-device-mem` argument: absolute bytes or a fraction of the
/// multiply's memory estimate (`0.25x` = a quarter of the forecast).
#[derive(Clone, Copy)]
enum MemLimit {
    Bytes(u64),
    Fraction(f64),
}

fn parse_mem_limit(s: &str) -> Option<MemLimit> {
    if let Some(frac) = s.strip_suffix('x') {
        let v: f64 = frac.parse().ok()?;
        return (v > 0.0 && v.is_finite()).then_some(MemLimit::Fraction(v));
    }
    let (digits, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
        'M' | 'm' => (&s[..s.len() - 1], 1 << 20),
        'G' | 'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    let v: u64 = digits.parse().ok()?;
    (v > 0).then(|| MemLimit::Bytes(v.saturating_mul(mult)))
}

struct Args {
    dataset: Option<String>,
    matrix: Option<String>,
    algorithm: Algorithm,
    backend: Backend,
    precision: String,
    device: String,
    trace: Option<String>,
    output: Option<String>,
    include_transfers: bool,
    tiny: bool,
    max_device_mem: Option<MemLimit>,
    faults: Option<FaultPlan>,
    estimator: Estimator,
    policy: AlgorithmPolicy,
}

impl Args {
    /// Multiply options for the proposal pipeline, from the planner flags.
    fn opts(&self) -> Options {
        Options { estimator: self.estimator, policy: self.policy, ..Options::default() }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: spgemm (--dataset NAME | --matrix FILE.mtx) \
         [--algorithm proposal|cusparse|cusp|bhsparse] [--backend sim|host|host:N] \
         [--precision f32|f64] \
         [--device p100|v100|vega64] [--trace OUT.json] [--output OUT.mtx] \
         [--include-transfers] [--tiny] \
         [--max-device-mem BYTES[K|M|G]|FRACx] [--faults SPEC] \
         [--estimator exact|sampled[:K]] [--policy hash|adaptive]\n\
         --max-device-mem caps device memory (e.g. 256M, or 0.25x = a quarter\n\
         of the memory estimate) and runs the proposal through the row-batched\n\
         fallback; --faults injects deterministic device faults\n\
         (e.g. 'seed=7;malloc-oom=3;kernel-fail=NAME;memcpy-fail=2', sim only)\n\
         --estimator sampled[:K] plans from K sampled rows instead of an exact\n\
         count pass; --policy adaptive picks hash/ESC/merge per row group.\n\
         Both change planning cost only — the product stays bitwise identical\n\
       spgemm trace ...  (telemetry inspection; `spgemm trace --help`)\n\
       spgemm serve ...  (job-engine serving mode; `spgemm serve --help`)\n\
       spgemm chaos ...  (deterministic chaos soak; `spgemm chaos --help`)\n\
         datasets: {}",
        matgen::standard_datasets()
            .iter()
            .chain(matgen::large_datasets().iter())
            .map(|d| d.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dataset: None,
        matrix: None,
        algorithm: Algorithm::Proposal,
        backend: Backend::Sim,
        precision: "f32".into(),
        device: "p100".into(),
        trace: None,
        output: None,
        include_transfers: false,
        tiny: false,
        max_device_mem: None,
        faults: None,
        estimator: Estimator::Exact,
        policy: AlgorithmPolicy::HashOnly,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--dataset" => args.dataset = Some(value(&mut it)),
            "--matrix" => args.matrix = Some(value(&mut it)),
            "--algorithm" => {
                args.algorithm = match value(&mut it).to_ascii_lowercase().as_str() {
                    "proposal" | "nsparse" => Algorithm::Proposal,
                    "cusparse" => Algorithm::Cusparse,
                    "cusp" | "esc" => Algorithm::Cusp,
                    "bhsparse" => Algorithm::Bhsparse,
                    other => {
                        eprintln!("unknown algorithm '{other}'");
                        usage()
                    }
                }
            }
            "--backend" => {
                let spec = value(&mut it).to_ascii_lowercase();
                args.backend = Backend::parse(&spec).unwrap_or_else(|| {
                    eprintln!("unknown backend '{spec}' (sim, host, host:N)");
                    usage()
                });
            }
            "--precision" => args.precision = value(&mut it).to_ascii_lowercase(),
            "--device" => args.device = value(&mut it).to_ascii_lowercase(),
            "--trace" => args.trace = Some(value(&mut it)),
            "--output" => args.output = Some(value(&mut it)),
            "--include-transfers" => args.include_transfers = true,
            "--tiny" => args.tiny = true,
            "--max-device-mem" => {
                let spec = value(&mut it);
                args.max_device_mem = Some(parse_mem_limit(&spec).unwrap_or_else(|| {
                    eprintln!("bad --max-device-mem '{spec}' (e.g. 4G, 256M, 0.25x)");
                    usage()
                }));
            }
            "--faults" => {
                let spec = value(&mut it);
                args.faults = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --faults '{spec}': {e}");
                    usage()
                }));
            }
            "--estimator" => {
                let spec = value(&mut it);
                args.estimator = Estimator::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --estimator '{spec}': {e}");
                    usage()
                });
            }
            "--policy" => {
                let spec = value(&mut it);
                args.policy = AlgorithmPolicy::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("bad --policy '{spec}': {e}");
                    usage()
                });
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if args.dataset.is_none() == args.matrix.is_none() {
        eprintln!("exactly one of --dataset / --matrix is required");
        usage();
    }
    if !matches!(args.precision.as_str(), "f32" | "f64") {
        eprintln!("precision must be f32 or f64");
        usage();
    }
    if matches!(args.backend, Backend::Host { .. }) {
        if args.algorithm != Algorithm::Proposal {
            eprintln!("--backend host runs the proposal only (baselines are simulation models)");
            usage();
        }
        if args.trace.is_some() || args.include_transfers {
            eprintln!("--trace / --include-transfers are sim-only (no device on the host backend)");
            usage();
        }
        if args.faults.is_some() {
            eprintln!("--faults is sim-only (no device to inject faults into on the host backend)");
            usage();
        }
    }
    if (args.max_device_mem.is_some() || args.faults.is_some())
        && args.algorithm != Algorithm::Proposal
    {
        eprintln!("--max-device-mem / --faults need --algorithm proposal (the batched fallback)");
        usage();
    }
    if (args.estimator != Estimator::Exact || args.policy != AlgorithmPolicy::HashOnly)
        && args.algorithm != Algorithm::Proposal
    {
        eprintln!("--estimator / --policy need --algorithm proposal (baselines plan exactly)");
        usage();
    }
    args
}

fn device_config(name: &str) -> DeviceConfig {
    match name {
        "p100" => DeviceConfig::p100(),
        "v100" => DeviceConfig::v100(),
        "vega64" => DeviceConfig::vega64(),
        other => {
            eprintln!("unknown device '{other}' (p100, v100, vega64)");
            std::process::exit(2);
        }
    }
}

fn load<T: Scalar>(args: &Args) -> Csr<T> {
    if let Some(name) = &args.dataset {
        let d = matgen::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown dataset '{name}'");
            usage()
        });
        let scale = if args.tiny { matgen::Scale::Tiny } else { matgen::Scale::Repro };
        eprintln!("generating '{}' ({:?} scale)...", d.name, scale);
        d.generate::<T>(scale)
    } else {
        let path = args.matrix.as_ref().unwrap();
        eprintln!("reading {path}...");
        match sparse::io::read_matrix_market_file::<T>(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn run<T: Scalar>(args: &Args) {
    let a = load::<T>(args);
    if a.rows() != a.cols() {
        eprintln!("matrix must be square to compute A^2 ({}x{})", a.rows(), a.cols());
        std::process::exit(1);
    }
    eprintln!(
        "{} rows, {} nnz ({:.2} nnz/row)",
        a.rows(),
        a.nnz(),
        a.nnz() as f64 / a.rows().max(1) as f64
    );

    if matches!(args.backend, Backend::Host { .. }) {
        run_host::<T>(args, &a);
        return;
    }
    if args.max_device_mem.is_some() || args.faults.is_some() {
        run_constrained::<T>(args, &a);
        return;
    }

    let mut gpu = Gpu::new(device_config(&args.device));
    if args.include_transfers {
        gpu.memcpy(2 * a.device_bytes(), true).expect("memcpy cannot fail without fault injection");
    }
    let (c, report) = match args.algorithm.run_with_opts::<T>(&mut gpu, &a, &a, &args.opts()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{} failed: {e}", args.algorithm.name());
            std::process::exit(1);
        }
    };
    let mut total = report.total_time;
    if args.include_transfers {
        let before = gpu.elapsed();
        gpu.memcpy(c.device_bytes(), false).expect("memcpy cannot fail without fault injection");
        let h2d = gpu.cost_model().memcpy_time(2 * a.device_bytes());
        total += (gpu.elapsed() - before) + h2d;
    }

    println!("device      : {}", gpu.config().name);
    println!("algorithm   : {} ({})", args.algorithm.name(), report.precision);
    if args.algorithm == Algorithm::Proposal {
        println!("planner     : {} estimator, {} policy", args.estimator, args.policy);
    }
    println!("output nnz  : {}", c.nnz());
    println!("intermediate: {}", report.intermediate_products);
    println!("kernel time : {}", report.total_time);
    if args.include_transfers {
        println!("with PCIe   : {total}");
    }
    println!("performance : {:.3} GFLOPS (2*ip/kernel-time)", report.gflops());
    println!("peak memory : {:.1} MB", report.peak_mem_bytes as f64 / (1 << 20) as f64);
    for (phase, t) in &report.phase_times {
        if *phase != Phase::Other && t.secs() > 0.0 {
            println!(
                "  {:10} {} ({:.1}%)",
                phase.label(),
                t,
                100.0 * t.secs() / report.total_time.secs()
            );
        }
    }
    if let Some(path) = &args.trace {
        std::fs::write(path, gpu.profiler().chrome_trace()).expect("write trace");
        println!("trace       : {path} (open at chrome://tracing)");
    }
    if let Some(path) = &args.output {
        sparse::io::write_matrix_market_file(&c, path).expect("write output");
        println!("result      : {path}");
    }
}

/// Resolve `--max-device-mem` to bytes (fractions are of the multiply's
/// memory forecast; no flag means the device's native capacity).
fn resolve_capacity<T: Scalar>(args: &Args, a: &Csr<T>) -> u64 {
    let cfg = device_config(&args.device);
    match args.max_device_mem {
        Some(MemLimit::Bytes(b)) => b,
        Some(MemLimit::Fraction(f)) => {
            let est = nsparse_core::estimate_memory(a, a)
                .expect("dimensions were validated")
                .upper_bound();
            ((est as f64 * f).ceil() as u64).max(1)
        }
        None => cfg.device_mem_bytes,
    }
}

/// Run the proposal on the sim backend through the row-batched fallback,
/// under a memory cap and/or injected faults. The run either completes
/// (bitwise equal to an unconstrained run) or reports a structured
/// error; either way the device must end with zero live bytes (exit 3
/// on a leak — the CI no-leak gate greps the `leak check` line).
fn run_constrained<T: Scalar>(args: &Args, a: &Csr<T>) {
    let capacity = resolve_capacity(args, a);
    let mut cfg = device_config(&args.device);
    cfg.device_mem_bytes = capacity;
    let mut gpu = Gpu::new(cfg);
    if let Some(plan) = &args.faults {
        gpu.set_fault_plan(plan.clone());
    }

    let (result, batches) = {
        let mut exec = BatchedExecutor::sim(&mut gpu);
        let result = exec.multiply(a, a, &args.opts());
        (result, exec.batches_used())
    };

    println!("device      : {} (capped at {} B)", gpu.config().name, capacity);
    println!("algorithm   : {} ({})", args.algorithm.name(), args.precision);
    if let Some(plan) = &args.faults {
        println!("faults      : {plan} ({} injected)", gpu.injected_faults());
    }
    let failed = match &result {
        Ok(run) => {
            println!("batches     : {batches}");
            println!("output nnz  : {}", run.matrix.nnz());
            println!("intermediate: {}", run.report.intermediate_products);
            println!("kernel time : {}", run.report.total_time);
            println!("performance : {:.3} GFLOPS (2*ip/kernel-time)", run.report.gflops());
            println!("peak memory : {:.1} MB", run.report.peak_mem_bytes as f64 / (1 << 20) as f64);
            if let Some(path) = &args.output {
                sparse::io::write_matrix_market_file(&run.matrix, path).expect("write output");
                println!("result      : {path}");
            }
            false
        }
        Err(e) => {
            println!("error       : {e}");
            println!("error kind  : {:?} (recovery: {:?})", e.kind(), e.recovery());
            true
        }
    };
    if let Some(path) = &args.trace {
        std::fs::write(path, gpu.profiler().chrome_trace()).expect("write trace");
        println!("trace       : {path} (open at chrome://tracing)");
    }
    let live = gpu.live_mem_bytes();
    if live == 0 {
        println!("leak check  : ok (0 B live)");
    } else {
        println!("leak check  : FAILED ({live} B live)");
        std::process::exit(3);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Run the proposal for real on host threads and print wall-clock times
/// in the layout of the sim report (plus threads and real GFLOPS).
/// `--max-device-mem` wraps the run in the same batched fallback as the
/// sim backend, budgeted identically, so both backends batch alike.
fn run_host<T: Scalar>(args: &Args, a: &Csr<T>) {
    let Backend::Host { threads } = args.backend else { unreachable!() };
    if args.max_device_mem.is_some() {
        run_host_constrained::<T>(args, a, threads);
        return;
    }
    let mut exec = HostParallelExecutor::with_config(threads, device_config(&args.device));
    let run = match exec.multiply(a, a, &args.opts()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("host backend failed: {e}");
            std::process::exit(1);
        }
    };
    let wall = run.wall.as_ref().expect("host backend reports wall time");
    println!("backend     : host ({} threads)", exec.threads());
    println!("algorithm   : {} ({})", args.algorithm.name(), run.report.precision);
    println!(
        "planner     : {} estimator ({} replanned rows), {} policy",
        args.estimator, run.replans, args.policy
    );
    println!("output nnz  : {}", run.matrix.nnz());
    println!("intermediate: {}", run.report.intermediate_products);
    println!("wall time   : {:.3} us", wall.total.as_secs_f64() * 1e6);
    println!(
        "performance : {:.3} GFLOPS (2*ip/wall-time)",
        wall.gflops(run.report.intermediate_products)
    );
    println!(
        "peak memory : {:.1} MB (host working set)",
        run.report.peak_mem_bytes as f64 / (1 << 20) as f64
    );
    for (phase, t) in &wall.phases {
        println!(
            "  {:10} {:.3} us ({:.1}%)",
            phase.label(),
            t.as_secs_f64() * 1e6,
            100.0 * t.as_secs_f64() / wall.total.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    }
    if let Some(path) = &args.output {
        sparse::io::write_matrix_market_file(&run.matrix, path).expect("write output");
        println!("result      : {path}");
    }
}

/// Host backend under a byte budget: identical batching decisions to
/// the sim backend (both are forecast-driven), wall-clock reporting.
fn run_host_constrained<T: Scalar>(args: &Args, a: &Csr<T>, threads: usize) {
    let capacity = resolve_capacity(args, a);
    let mut cfg = device_config(&args.device);
    cfg.device_mem_bytes = capacity;
    let mut exec = BatchedExecutor::host(threads, cfg);
    let result = exec.multiply(a, a, &args.opts());
    println!("backend     : host ({} threads, capped at {capacity} B)", {
        let caps: nsparse_core::BackendCaps = Executor::<T>::capabilities(&exec);
        caps.threads
    });
    println!("algorithm   : {} ({})", args.algorithm.name(), args.precision);
    match result {
        Ok(run) => {
            println!("batches     : {}", exec.batches_used());
            println!("output nnz  : {}", run.matrix.nnz());
            println!("intermediate: {}", run.report.intermediate_products);
            if let Some(wall) = &run.wall {
                println!("wall time   : {:.3} us", wall.total.as_secs_f64() * 1e6);
            }
            if let Some(path) = &args.output {
                sparse::io::write_matrix_market_file(&run.matrix, path).expect("write output");
                println!("result      : {path}");
            }
            println!("leak check  : ok (0 B live)");
        }
        Err(e) => {
            println!("error       : {e}");
            println!("error kind  : {:?} (recovery: {:?})", e.kind(), e.recovery());
            println!("leak check  : ok (0 B live)");
            std::process::exit(1);
        }
    }
}

fn main() {
    // `spgemm trace ...` delegates to the telemetry inspection CLI;
    // `spgemm serve` to the job-engine serving mode; `spgemm bench` to the
    // perf-regression observatory.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace") {
        std::process::exit(bench::tracecli::run_trace(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("serve") {
        std::process::exit(bench::servecli::run_serve(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("bench") {
        std::process::exit(bench::benchcli::run_bench(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("chaos") {
        std::process::exit(bench::chaoscli::run_chaos_cli(&argv[1..]));
    }
    let args = parse_args();
    if args.precision == "f64" {
        run::<f64>(&args);
    } else {
        run::<f32>(&args);
    }
}
