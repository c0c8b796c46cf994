//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- table1 table2 fig2 fig3 \
//!     table3 fig4 fig5 fig6 ablation-streams ablation-pwarp \
//!     ablation-pwarp-width ablation-hash
//! ```
//!
//! Each experiment prints an aligned text table and writes a CSV under
//! `results/`. All numbers are simulated-device measurements and are
//! bit-reproducible across runs.

#![warn(clippy::wildcard_enum_match_arm)]

use baselines::Algorithm;
use bench::experiments as exp;
use bench::report;
use bench::table::{gflops_cell, mb, render};
use bench::write_csv;
use nsparse_core::Assignment;
use vgpu::Phase;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table1",
            "table2",
            "fig2",
            "fig3",
            "table3",
            "fig4",
            "fig5",
            "fig6",
            "ablation-streams",
            "ablation-pwarp",
            "ablation-pwarp-width",
            "ablation-hash",
            "extension-devices",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for w in wanted {
        match w {
            "table1" => table1(),
            "table2" => table2(),
            "fig2" => fig23::<f32>("fig2", "Figure 2: SpGEMM performance, single precision"),
            "fig3" => fig23::<f64>("fig3", "Figure 3: SpGEMM performance, double precision"),
            "table3" => table3(),
            "fig4" => {
                fig4::<f32>();
                fig4::<f64>();
            }
            "fig5" => fig56::<f32>("fig5"),
            "fig6" => fig56::<f64>("fig6"),
            "ablation-streams" => ablation(
                "ablation_streams",
                "§IV-C: CUDA stream ablation (paper: x1.3 on Circuit)",
                exp::ablation_streams::<f32>(),
            ),
            "ablation-pwarp" => ablation(
                "ablation_pwarp",
                "§IV-C: PWARP/ROW ablation (paper: x3.1 on Epidemiology)",
                exp::ablation_pwarp::<f32>(),
            ),
            "ablation-pwarp-width" => ablation(
                "ablation_pwarp_width",
                "§III-B: PWARP width sweep (paper fixed 4)",
                exp::ablation_pwarp_width::<f32>(),
            ),
            "extension-devices" => ablation(
                "extension_devices",
                "§VI future work: the proposal on other virtual devices",
                exp::extension_devices::<f32>(),
            ),
            "ablation-hash" => ablation(
                "ablation_hash",
                "extra: HASH_SCAL scrambling vs identity hashing",
                exp::ablation_hash::<f32>(),
            ),
            other => eprintln!("unknown experiment: {other}"),
        }
    }
}

fn table1() {
    println!("\n== Table I: parameter setting for each group on Tesla P100 (double precision) ==");
    let (count, numeric) = exp::table1();
    let mut rows = vec![vec![
        "Group".to_string(),
        "(3) products".to_string(),
        "(6) nnz".to_string(),
        "Assignment".to_string(),
        "TB size".to_string(),
        "table".to_string(),
    ]];
    let mut csv = Vec::new();
    for (c, n) in count.groups.iter().zip(&numeric.groups) {
        let range = |lo: usize, hi: usize| {
            if hi == usize::MAX {
                format!("{lo}-")
            } else {
                format!("{lo}-{hi}")
            }
        };
        let assign = match n.assignment {
            Assignment::Pwarp { width } => format!("PWARP({width})/ROW"),
            Assignment::TbRow => "TB/ROW".to_string(),
            Assignment::TbRowGlobal => "TB/ROW (global)".to_string(),
        };
        rows.push(vec![
            c.id.to_string(),
            range(c.lower, c.upper),
            range(n.lower, n.upper),
            assign.clone(),
            n.block_threads.to_string(),
            n.table_size.to_string(),
        ]);
        csv.push(format!(
            "{},{},{},{},{},{}",
            c.id,
            range(c.lower, c.upper),
            range(n.lower, n.upper),
            assign,
            n.block_threads,
            n.table_size
        ));
    }
    print!("{}", render(&rows));
    let p = write_csv("table1", "group,count_range,nnz_range,assignment,tb_size,table_size", &csv);
    println!("-> {}", p.display());
}

fn table2() {
    println!("\n== Table II: matrix data (paper vs synthetic analogue at repro scale) ==");
    let mut rows = vec![vec![
        "Name".to_string(),
        "rows".to_string(),
        "nnz".to_string(),
        "nnz/row".to_string(),
        "max".to_string(),
        "ip(A^2)".to_string(),
        "nnz(A^2)".to_string(),
        "paper nnz/row".to_string(),
        "paper ip/nnzsq".to_string(),
        "ours ip/nnzsq".to_string(),
        "scale".to_string(),
    ]];
    let mut csv = Vec::new();
    for r in exp::table2() {
        let ip = r.measured.intermediate_products.unwrap_or(0);
        let nsq = r.measured.nnz_of_square.unwrap_or(0).max(1);
        rows.push(vec![
            r.name.clone(),
            r.measured.rows.to_string(),
            r.measured.nnz.to_string(),
            format!("{:.1}", r.measured.nnz_per_row),
            r.measured.max_nnz_row.to_string(),
            ip.to_string(),
            nsq.to_string(),
            format!("{:.1}", r.paper.nnz_per_row),
            format!("{:.2}", r.paper.intermediate_products as f64 / r.paper.nnz_of_square as f64),
            format!("{:.2}", ip as f64 / nsq as f64),
            format!("{:.1}x", r.scale),
        ]);
        csv.push(format!(
            "{},{},{},{:.2},{},{},{},{:.2}",
            r.name,
            r.measured.rows,
            r.measured.nnz,
            r.measured.nnz_per_row,
            r.measured.max_nnz_row,
            ip,
            nsq,
            r.scale
        ));
    }
    print!("{}", render(&rows));
    let p = write_csv("table2", "name,rows,nnz,nnz_per_row,max_nnz_row,ip,nnz_sq,row_scale", &csv);
    println!("-> {}", p.display());
}

fn fig23<T: bench::CachedMatrix>(tag: &str, title: &str) {
    println!("\n== {title} ==");
    let results = exp::fig23::<T>();
    print_gflops_table(tag, &results);
}

fn table3() {
    println!("\n== Table III: performance for large graph data [GFLOPS] ==");
    for prec in ["single", "double"] {
        let results = if prec == "single" { exp::table3::<f32>() } else { exp::table3::<f64>() };
        println!("-- {prec} precision --");
        print_gflops_table(&format!("table3_{prec}"), &results);
    }
}

fn print_gflops_table(tag: &str, results: &[bench::EvalResult]) {
    let datasets = report::dataset_order(results);
    let mut rows = vec![vec![
        "Matrix".to_string(),
        "CUSP".to_string(),
        "cuSPARSE".to_string(),
        "BHSPARSE".to_string(),
        "PROPOSAL".to_string(),
        "speedup".to_string(),
    ]];
    for d in &datasets {
        let g = |alg: Algorithm| {
            results.iter().find(|r| &r.dataset == d && r.algorithm == alg).and_then(|r| r.gflops())
        };
        let (cusp, cusparse, bh, prop) = (
            g(Algorithm::Cusp),
            g(Algorithm::Cusparse),
            g(Algorithm::Bhsparse),
            g(Algorithm::Proposal),
        );
        let best_other = [cusp, cusparse, bh].iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        let speedup = if best_other > 0.0 { prop.map(|p| p / best_other) } else { None };
        rows.push(vec![
            d.clone(),
            gflops_cell(cusp),
            gflops_cell(cusparse),
            gflops_cell(bh),
            gflops_cell(prop),
            speedup.map(|s| format!("x{s:.2}")).unwrap_or_default(),
        ]);
    }
    print!("{}", render(&rows));
    let p = report::write_gflops_csv(tag, results);
    println!("-> {}", p.display());
}

fn fig4<T: bench::CachedMatrix>() {
    let prec = T::PRECISION;
    println!("\n== Figure 4: maximum memory usage relative to cuSPARSE ({prec}) ==");
    let mut rows = vec![vec![
        "Matrix".to_string(),
        "CUSP".to_string(),
        "cuSPARSE(MB)".to_string(),
        "BHSPARSE".to_string(),
        "PROPOSAL".to_string(),
    ]];
    let data = exp::fig4::<T>();
    let mut prop_sum = 0.0;
    let mut n = 0usize;
    for row in &data {
        let find = |alg: Algorithm| row.entries.iter().find(|e| e.0 == alg).cloned().unwrap();
        let ratio = |alg: Algorithm| find(alg).2.map(|x| format!("{x:.3}")).unwrap_or("-".into());
        let cu_peak = find(Algorithm::Cusparse).1.map(mb).unwrap_or("-".into());
        if let Some(r) = find(Algorithm::Proposal).2 {
            prop_sum += r;
            n += 1;
        }
        rows.push(vec![
            row.dataset.clone(),
            ratio(Algorithm::Cusp),
            cu_peak,
            ratio(Algorithm::Bhsparse),
            ratio(Algorithm::Proposal),
        ]);
    }
    print!("{}", render(&rows));
    if n > 0 {
        println!(
            "average proposal/cuSPARSE memory: {:.3} (reduction {:.1}%; paper: 14.7% single / 10.9% double)",
            prop_sum / n as f64,
            100.0 * (1.0 - prop_sum / n as f64)
        );
    }
    let p = report::write_fig4_csv(prec, &data);
    println!("-> {}", p.display());
}

fn fig56<T: bench::CachedMatrix>(tag: &str) {
    let prec = T::PRECISION;
    println!(
        "\n== Figure {}: execution-time breakdown vs cuSPARSE ({prec}) ==",
        if tag == "fig5" { 5 } else { 6 }
    );
    let mut rows = vec![vec![
        "Matrix".to_string(),
        "cu:setup".to_string(),
        "cu:count".to_string(),
        "cu:calc".to_string(),
        "cu:malloc".to_string(),
        "pr:setup".to_string(),
        "pr:count".to_string(),
        "pr:calc".to_string(),
        "pr:malloc".to_string(),
        "pr:total".to_string(),
    ]];
    let data = exp::fig56::<T>();
    for row in &data {
        let get = report::phase_frac;
        let f = |x: f64| format!("{x:.3}");
        rows.push(vec![
            row.dataset.clone(),
            f(get(&row.cusparse, Phase::Setup)),
            f(get(&row.cusparse, Phase::Count)),
            f(get(&row.cusparse, Phase::Calc)),
            f(get(&row.cusparse, Phase::Malloc)),
            f(get(&row.proposal, Phase::Setup)),
            f(get(&row.proposal, Phase::Count)),
            f(get(&row.proposal, Phase::Calc)),
            f(get(&row.proposal, Phase::Malloc)),
            f(row.proposal_total),
        ]);
    }
    print!("{}", render(&rows));
    let p = report::write_fig56_csv(tag, &data);
    println!("-> {}", p.display());
}

fn ablation(tag: &str, title: &str, rows_in: Vec<exp::AblationRow>) {
    println!("\n== {title} ==");
    let mut rows = vec![vec![
        "Matrix".to_string(),
        "config".to_string(),
        "time".to_string(),
        "GFLOPS".to_string(),
    ]];
    for r in &rows_in {
        rows.push(vec![
            r.dataset.clone(),
            r.label.clone(),
            format!("{}", r.time),
            format!("{:.3}", r.gflops),
        ]);
    }
    print!("{}", render(&rows));
    // For on/off ablations, print the speedup of the first config.
    let mut seen = Vec::new();
    for r in &rows_in {
        if !seen.contains(&r.dataset) {
            seen.push(r.dataset.clone());
        }
    }
    for d in seen {
        let of: Vec<&exp::AblationRow> = rows_in.iter().filter(|r| r.dataset == d).collect();
        if of.len() == 2 {
            println!("{d}: speedup x{:.2}", of[1].time.secs() / of[0].time.secs());
        }
    }
    let p = report::write_ablation_csv(tag, &rows_in);
    println!("-> {}", p.display());
}
