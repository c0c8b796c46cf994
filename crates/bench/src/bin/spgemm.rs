//! `spgemm` — command-line SpGEMM on the virtual Pascal GPU.
//!
//! ```text
//! spgemm --dataset QCD                          # synthetic analogue
//! spgemm --matrix path/to/matrix.mtx            # real Matrix Market file
//! spgemm --dataset webbase --algorithm bhsparse --precision f64
//! spgemm --dataset Circuit --device v100 --trace trace.json
//! spgemm --dataset Protein --include-transfers --output c.mtx
//! spgemm trace --dataset QCD --tiny --jsonl run.jsonl --check
//! ```
//!
//! Squares the chosen matrix with one of the four implementations and
//! prints the report (time, GFLOPS, peak memory, phase breakdown); see
//! [`bench::runcli`]. `trace`, `serve` and `chaos` are subcommands.

#![warn(clippy::wildcard_enum_match_arm)]

use bench::{chaoscli, cli, runcli, servecli, tracecli};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let code = match argv.first().map(String::as_str) {
        Some("serve") => servecli::run_serve(rest),
        Some("chaos") => chaoscli::run_chaos_cli(rest),
        Some("trace") if rest.iter().any(|a| a == "--per-job") => tracecli::run_per_job(rest),
        _ => match runcli::parse_run_args(&argv) {
            Ok(args) => runcli::run(&args),
            Err(msg) => cli::usage_error(&msg, &runcli::usage()),
        },
    };
    std::process::exit(code);
}
