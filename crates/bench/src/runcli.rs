//! The `spgemm` main command and its `trace` subcommand: one parser,
//! one runner, one report.
//!
//! Both square one matrix on one backend and print the same report —
//! the device or backend line, the algorithm and planner, the batch
//! count of a capped run, output size, time, GFLOPS, peak memory and
//! the phase table. `trace` is the same run with device telemetry on,
//! followed by the tables and exports of [`crate::tracecli`].
//!
//! Exit codes: 0 ok, 1 failure (or an invalid `--check` export),
//! 2 usage, 3 device memory left live on the sim backend.

use crate::cli::{self, Flags, Size};
use baselines::Algorithm;
use nsparse_core::{
    Backend, BatchedExecutor, Error, Estimator, Execution, Executor, HostParallelExecutor, Options,
    SimExecutor,
};
use sparse::{Csr, Scalar};
use vgpu::{DeviceConfig, FaultPlan, Gpu, Phase, SimTime};

/// A parsed `spgemm [trace] ...` command line.
#[derive(Debug)]
pub struct RunArgs {
    /// `spgemm trace`: telemetry on, trace tables and exports after the
    /// report.
    pub trace: bool,
    /// `--dataset`: a registry dataset (exclusive with `matrix`).
    pub dataset: Option<matgen::Dataset>,
    /// `--matrix`: a Matrix Market file.
    pub matrix: Option<String>,
    /// `--tiny`: the dataset at test scale.
    pub tiny: bool,
    /// `--algorithm`.
    pub algorithm: Algorithm,
    /// `--backend`.
    pub backend: Backend,
    /// `--precision f64`.
    pub f64: bool,
    /// `--device`, before `--max-device-mem` caps it.
    pub device: DeviceConfig,
    /// `--max-device-mem`.
    pub max_device_mem: Option<Size>,
    /// `--faults`.
    pub faults: Option<FaultPlan>,
    /// `--estimator`.
    pub opts: Options,
    /// `--trace` / `--chrome-trace`: the Chrome trace-event export.
    pub chrome_trace: Option<String>,
    /// `--jsonl` (`trace` only): the telemetry event log.
    pub jsonl: Option<String>,
    /// `--check` (`trace` only): validate both exports.
    pub check: bool,
    /// `--output`: the product as Matrix Market.
    pub output: Option<String>,
    /// `--include-transfers`: add the PCIe copies of A, B and C.
    pub include_transfers: bool,
}

/// The usage text of the main command and of `trace`.
pub fn usage() -> String {
    let datasets: Vec<&str> = matgen::standard_datasets()
        .iter()
        .chain(matgen::large_datasets().iter())
        .map(|d| d.name)
        .collect();
    format!(
        "usage: spgemm [trace] (--dataset NAME | --matrix FILE.mtx) \
         [--algorithm proposal|cusparse|cusp|bhsparse] [--backend sim|host|host:N] \
         [--precision f32|f64] [--device p100|v100|vega64] [--tiny] \
         [--trace OUT.json] [--output OUT.mtx] [--include-transfers] \
         [--max-device-mem BYTES[K|M|G]|FRACx] [--faults SPEC] \
         [--estimator exact|sampled[:K]]\n\
         --max-device-mem caps device memory (e.g. 256M, or 0.25x = a quarter\n\
         of the memory estimate) and runs the proposal through the row-batched\n\
         fallback; --faults injects deterministic device faults\n\
         (e.g. 'seed=7;malloc-oom=3;kernel-fail=NAME;memcpy-fail=2', sim only)\n\
         --estimator sampled[:K] plans from K sampled rows instead of an exact\n\
         count pass: it changes planning cost only — the product stays bitwise\n\
         identical\n\
       spgemm trace ... [--chrome-trace OUT.json] [--jsonl OUT.jsonl] [--check]\n\
         the same run with device telemetry (sim only), then phase x kernel x\n\
         stream, stream, group, histogram and peak-memory tables;\n\
         --chrome-trace is --trace, --jsonl writes the event log, --check\n\
         validates both exports\n\
       spgemm trace --per-job {}\n\
         the seeded engine driver with job tracing: a per-job stage table\n\
         (queue-wait, plan cache, symbolic, numeric, batched retries) plus\n\
         p50/p90/p99 per stage\n\
       spgemm serve ...  (job-engine serving mode; `spgemm serve --help`)\n\
       spgemm chaos ...  (deterministic chaos soak; `spgemm chaos --help`)\n\
         datasets: {}",
        cli::DRIVER_FLAGS,
        datasets.join(", ")
    )
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    match s.to_ascii_lowercase().as_str() {
        "proposal" | "nsparse" => Ok(Algorithm::Proposal),
        "cusparse" => Ok(Algorithm::Cusparse),
        "cusp" | "esc" => Ok(Algorithm::Cusp),
        "bhsparse" => Ok(Algorithm::Bhsparse),
        other => Err(format!("unknown algorithm '{other}'")),
    }
}

fn parse_device(s: &str) -> Result<DeviceConfig, String> {
    match s.to_ascii_lowercase().as_str() {
        "p100" => Ok(DeviceConfig::p100()),
        "v100" => Ok(DeviceConfig::v100()),
        "vega64" => Ok(DeviceConfig::vega64()),
        other => Err(format!("unknown device '{other}' (p100, v100, vega64)")),
    }
}

/// Parse `spgemm [trace] ...` (`argv` without the program name).
pub fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let trace = argv.first().is_some_and(|a| a == "trace");
    let mut args = RunArgs {
        trace,
        dataset: None,
        matrix: None,
        tiny: false,
        algorithm: Algorithm::Proposal,
        backend: Backend::Sim,
        f64: false,
        device: DeviceConfig::p100(),
        max_device_mem: None,
        faults: None,
        opts: Options::default(),
        chrome_trace: None,
        jsonl: None,
        check: false,
        output: None,
        include_transfers: false,
    };
    let mut flags = Flags::new(&argv[usize::from(trace)..]);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--dataset" => {
                let name = flags.value(flag)?;
                let d = matgen::by_name(name).ok_or_else(|| format!("unknown dataset '{name}'"))?;
                args.dataset = Some(d);
            }
            "--matrix" => args.matrix = Some(flags.value(flag)?.into()),
            "--tiny" => args.tiny = true,
            "--algorithm" => args.algorithm = parse_algorithm(flags.value(flag)?)?,
            "--backend" => args.backend = cli::parse_backend(flags.value(flag)?)?,
            "--precision" => args.f64 = cli::parse_f64(flags.value(flag)?)?,
            "--device" => args.device = parse_device(flags.value(flag)?)?,
            "--max-device-mem" => {
                let spec = flags.value(flag)?;
                let size = cli::parse_size(spec).ok_or_else(|| {
                    format!("bad --max-device-mem '{spec}' (e.g. 4G, 256M, 0.25x)")
                })?;
                args.max_device_mem = Some(size);
            }
            "--faults" => {
                let spec = flags.value(flag)?;
                let plan =
                    FaultPlan::parse(spec).map_err(|e| format!("bad --faults '{spec}': {e}"))?;
                args.faults = Some(plan);
            }
            "--estimator" => args.opts.estimator = cli::parse_estimator(flags.value(flag)?)?,
            "--trace" | "--chrome-trace" => args.chrome_trace = Some(flags.value(flag)?.into()),
            "--jsonl" => args.jsonl = Some(flags.value(flag)?.into()),
            "--check" => args.check = true,
            "--output" => args.output = Some(flags.value(flag)?.into()),
            "--include-transfers" => args.include_transfers = true,
            other => return Err(cli::unknown(other)),
        }
    }
    check_run_args(&args)?;
    Ok(args)
}

/// The combinations one parsed command line may not hold.
fn check_run_args(args: &RunArgs) -> Result<(), String> {
    if args.dataset.is_none() == args.matrix.is_none() {
        return Err("exactly one of --dataset / --matrix is required".into());
    }
    if !args.trace && (args.jsonl.is_some() || args.check) {
        return Err("--jsonl / --check export telemetry: run `spgemm trace`".into());
    }
    if matches!(args.backend, Backend::Host { .. }) {
        if args.trace {
            return Err("`spgemm trace` reads the virtual device: it has no host backend".into());
        }
        if args.algorithm != Algorithm::Proposal {
            return Err(
                "--backend host runs the proposal only (baselines are simulation models)".into()
            );
        }
        if args.chrome_trace.is_some() || args.include_transfers {
            return Err(
                "--trace / --include-transfers are sim-only (no device on the host backend)".into(),
            );
        }
        if args.faults.is_some() {
            return Err(
                "--faults is sim-only (no device to inject faults into on the host backend)".into(),
            );
        }
    }
    if args.algorithm != Algorithm::Proposal {
        if args.max_device_mem.is_some() || args.faults.is_some() {
            return Err(
                "--max-device-mem / --faults need --algorithm proposal (the batched fallback)"
                    .into(),
            );
        }
        if args.opts.estimator != Estimator::Exact {
            return Err("--estimator needs --algorithm proposal (baselines plan exactly)".into());
        }
    }
    Ok(())
}

fn load<T: Scalar>(args: &RunArgs) -> Result<Csr<T>, String> {
    if let Some(d) = &args.dataset {
        let scale = if args.tiny { matgen::Scale::Tiny } else { matgen::Scale::Repro };
        eprintln!("generating '{}' ({:?} scale)...", d.name, scale);
        return Ok(d.generate::<T>(scale));
    }
    let path = args.matrix.as_deref().unwrap_or_default();
    eprintln!("reading {path}...");
    sparse::io::read_matrix_market_file::<T>(path)
        .map_err(|e| format!("failed to read {path}: {e}"))
}

/// One finished multiply and what the report adds to it.
struct Outcome<T> {
    run: Execution<T>,
    /// Batches of a capped run.
    batches: Option<usize>,
    /// Kernel time plus the PCIe copies (`--include-transfers`).
    with_pcie: Option<SimTime>,
}

/// Multiply `a · a` on `exec`, through the row-batched fallback when
/// the run is capped.
fn multiply<T: Scalar, E: Executor<T>>(
    mut exec: E,
    cap: Option<u64>,
    a: &Csr<T>,
    opts: &Options,
) -> Result<Outcome<T>, Error> {
    let Some(cap) = cap else {
        return Ok(Outcome { run: exec.multiply(a, a, opts)?, batches: None, with_pcie: None });
    };
    let mut exec = BatchedExecutor::new(exec, cap);
    let run = exec.multiply(a, a, opts)?;
    Ok(Outcome { run, batches: Some(exec.batches_used()), with_pcie: None })
}

/// The sim run: the proposal through its executor or a baseline's
/// model, between the PCIe copies when `--include-transfers` asks.
fn sim_multiply<T: Scalar>(
    gpu: &mut Gpu,
    args: &RunArgs,
    a: &Csr<T>,
    cap: Option<u64>,
) -> Result<Outcome<T>, Error> {
    let h2d = 2 * a.device_bytes();
    if args.include_transfers {
        gpu.memcpy(h2d, true)?;
    }
    let mut out = if args.algorithm == Algorithm::Proposal {
        multiply(SimExecutor::new(gpu), cap, a, &args.opts)?
    } else {
        let (matrix, report) = args.algorithm.run_with_opts(gpu, a, a, &args.opts)?;
        let run = Execution { matrix, report, wall: None, replans: 0, record: None };
        Outcome { run, batches: None, with_pcie: None }
    };
    if args.include_transfers {
        let before = gpu.elapsed();
        gpu.memcpy(out.run.matrix.device_bytes(), false)?;
        let copies = (gpu.elapsed() - before) + gpu.cost_model().memcpy_time(h2d);
        out.with_pcie = Some(out.run.report.total_time + copies);
    }
    Ok(out)
}

/// Run the parsed command; returns the process exit code.
pub fn run(args: &RunArgs) -> i32 {
    if args.f64 {
        run_typed::<f64>(args)
    } else {
        run_typed::<f32>(args)
    }
}

fn run_typed<T: Scalar>(args: &RunArgs) -> i32 {
    let a = match load::<T>(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if a.rows() != a.cols() {
        eprintln!("matrix must be square to compute A^2 ({}x{})", a.rows(), a.cols());
        return 1;
    }
    eprintln!(
        "{} rows, {} nnz ({:.2} nnz/row)",
        a.rows(),
        a.nnz(),
        a.nnz() as f64 / a.rows().max(1) as f64
    );
    let mut cfg = args.device.clone();
    cfg.device_mem_bytes = match args.max_device_mem {
        Some(Size::Bytes(b)) => b,
        Some(Size::Fraction(f)) => {
            let est = nsparse_core::estimate_memory(&a, &a)
                .expect("dimensions were validated")
                .upper_bound();
            ((est as f64 * f).ceil() as u64).max(1)
        }
        None => cfg.device_mem_bytes,
    };
    let cap =
        (args.max_device_mem.is_some() || args.faults.is_some()).then_some(cfg.device_mem_bytes);
    let Backend::Host { threads } = args.backend else {
        return run_on_device::<T>(args, &a, cfg, cap);
    };
    let exec = HostParallelExecutor::with_config(threads, cfg);
    let capped = cap.map(|c| format!(", capped at {c} B")).unwrap_or_default();
    println!("backend     : host ({} threads{capped})", exec.threads());
    let outcome = multiply(exec, cap, &a, &args.opts);
    i32::from(!print_report(args, &outcome))
}

fn run_on_device<T: Scalar>(
    args: &RunArgs,
    a: &Csr<T>,
    cfg: DeviceConfig,
    cap: Option<u64>,
) -> i32 {
    let mut gpu = Gpu::new(cfg);
    if let Some(plan) = &args.faults {
        gpu.set_fault_plan(plan.clone());
    }
    // The Chrome export reads the telemetry log.
    if args.trace || args.chrome_trace.is_some() {
        gpu.enable_telemetry();
    }
    let outcome = sim_multiply(&mut gpu, args, a, cap);
    let capped = cap.map(|c| format!(" (capped at {c} B)")).unwrap_or_default();
    println!("device      : {}{capped}", gpu.config().name);
    if let Some(plan) = &args.faults {
        println!("faults      : {plan} ({} injected)", gpu.injected_faults());
    }
    let mut ok = print_report(args, &outcome);
    if let (true, Ok(out)) = (args.trace, &outcome) {
        crate::tracecli::print_tables(&mut gpu, &out.run.report);
    }
    ok &= crate::tracecli::export(&gpu, args);
    let live = gpu.live_mem_bytes();
    if live > 0 {
        println!("leak check  : FAILED ({live} B live)");
        return 3;
    }
    println!("leak check  : ok (0 B live)");
    i32::from(!ok)
}

/// The report every backend and route prints after its device or
/// backend line; writes `--output`. Returns whether the multiply ran.
fn print_report<T: Scalar>(args: &RunArgs, outcome: &Result<Outcome<T>, Error>) -> bool {
    println!("algorithm   : {} ({})", args.algorithm.name(), T::PRECISION);
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            println!("error       : {e}");
            println!("error kind  : {:?} (recovery: {:?})", e.kind(), e.recovery());
            return false;
        }
    };
    let run = &out.run;
    if args.algorithm == Algorithm::Proposal {
        println!(
            "planner     : {} estimator ({} replanned rows)",
            args.opts.estimator, run.replans
        );
    }
    if let Some(batches) = out.batches {
        println!("batches     : {batches}");
    }
    println!("output nnz  : {}", run.matrix.nnz());
    let products = run.report.intermediate_products;
    println!("intermediate: {products}");
    // The sim backend reports model time; the host backend wall time.
    let secs = |d: std::time::Duration| SimTime::from_secs(d.as_secs_f64());
    let (clock, total, phases) = match &run.wall {
        Some(w) => ("wall", secs(w.total), w.phases.iter().map(|&(p, d)| (p, secs(d))).collect()),
        None => ("kernel", run.report.total_time, run.report.phase_times.clone()),
    };
    println!("{:12}: {total}", format!("{clock} time"));
    if let Some(t) = out.with_pcie {
        println!("with PCIe   : {t}");
    }
    let gflops =
        if total > SimTime::ZERO { 2.0 * products as f64 / total.secs() / 1e9 } else { 0.0 };
    println!("performance : {gflops:.3} GFLOPS (2*ip/{clock}-time)");
    println!("peak memory : {:.1} MB", run.report.peak_mem_bytes as f64 / (1 << 20) as f64);
    for (phase, t) in phases {
        if phase != Phase::Other && t > SimTime::ZERO {
            println!("  {:10} {t} ({:.1}%)", phase.label(), 100.0 * t.secs() / total.secs());
        }
    }
    if let Some(path) = &args.output {
        sparse::io::write_matrix_market_file(&run.matrix, path).expect("write output");
        println!("result      : {path}");
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<RunArgs, String> {
        parse_run_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn rejected(s: &str) {
        assert!(parse(s).is_err(), "{s:?} must be rejected");
    }

    #[test]
    fn exactly_one_input() {
        assert!(parse("--dataset QCD").is_ok());
        assert!(parse("--matrix a.mtx").is_ok());
        rejected("");
        rejected("--tiny");
        rejected("--dataset QCD --matrix a.mtx");
        rejected("--dataset NoSuchDataset");
    }

    #[test]
    fn host_backend_rejects_device_only_flags() {
        assert!(parse("--dataset QCD --backend host:2 --max-device-mem 0.25x").is_ok());
        for extra in [
            "--trace t.json",
            "--chrome-trace t.json",
            "--faults seed=7;malloc-oom=3",
            "--include-transfers",
            "--algorithm cusparse",
            "--algorithm bhsparse",
        ] {
            rejected(&format!("--dataset QCD --backend host {extra}"));
        }
    }

    #[test]
    fn baselines_reject_batching_and_planner_flags() {
        assert!(parse("--dataset QCD --algorithm cusp").is_ok());
        for extra in ["--max-device-mem 256M", "--faults seed=1", "--estimator sampled:4"] {
            rejected(&format!("--dataset QCD --algorithm cusp {extra}"));
        }
        assert!(parse("--dataset QCD --estimator sampled:4").is_ok());
    }

    #[test]
    fn trace_is_the_main_run_with_telemetry_on_the_device() {
        let t = parse("trace --dataset QCD --tiny --jsonl a.jsonl --chrome-trace b.json --check")
            .unwrap();
        assert!(t.trace && t.tiny && t.check);
        assert_eq!(
            (t.jsonl.as_deref(), t.chrome_trace.as_deref()),
            (Some("a.jsonl"), Some("b.json"))
        );
        // `--trace` is `trace --chrome-trace`.
        let m = parse("--dataset QCD --trace b.json").unwrap();
        assert!(!m.trace);
        assert_eq!(m.chrome_trace.as_deref(), Some("b.json"));
        rejected("trace --dataset QCD --backend host");
        rejected("trace --dataset QCD --backend host:2");
        rejected("--dataset QCD --jsonl a.jsonl");
        rejected("--dataset QCD --check");
    }

    #[test]
    fn values_are_parsed_and_checked() {
        let a = parse(
            "--dataset QCD --precision F64 --device v100 --algorithm NSPARSE --backend host:3 \
             --max-device-mem 0.25x",
        )
        .unwrap();
        assert!(a.f64);
        assert_eq!(a.device.name, DeviceConfig::v100().name);
        assert_eq!(a.algorithm, Algorithm::Proposal);
        assert_eq!(a.backend, Backend::Host { threads: 3 });
        assert_eq!(a.max_device_mem, Some(Size::Fraction(0.25)));
        assert_eq!(
            parse("--dataset QCD --max-device-mem 64K").unwrap().max_device_mem,
            Some(Size::Bytes(64 << 10))
        );
        for bad in [
            "--precision f16",
            "--device h100",
            "--algorithm gemm",
            "--backend gpu",
            "--max-device-mem 0",
            "--max-device-mem 4Q",
            "--faults bogus",
            "--estimator nope",
            "--output",
            "--frobnicate",
            "--help",
        ] {
            rejected(&format!("--dataset QCD {bad}"));
        }
    }
}
