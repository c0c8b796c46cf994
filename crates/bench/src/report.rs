//! CSV emission for every table/figure the `repro` binary writes, one
//! `results/*.csv` schema each.

use crate::experiments::{AblationRow, BreakdownRow, MemoryRow};
use crate::table::gflops_cell;
use crate::{write_csv, EvalResult};
use baselines::Algorithm;
use std::path::PathBuf;
use vgpu::Phase;

/// Dataset names in first-seen order.
pub fn dataset_order(results: &[EvalResult]) -> Vec<String> {
    let mut seen = Vec::new();
    for r in results {
        if !seen.contains(&r.dataset) {
            seen.push(r.dataset.clone());
        }
    }
    seen
}

/// `results/<tag>.csv` with the Figure 2/3 / Table III GFLOPS schema:
/// `matrix,cusp,cusparse,bhsparse,proposal` ("-" on OOM).
pub fn write_gflops_csv(tag: &str, results: &[EvalResult]) -> PathBuf {
    let rows: Vec<String> = dataset_order(results)
        .iter()
        .map(|d| {
            let g = |alg: Algorithm| {
                results
                    .iter()
                    .find(|r| &r.dataset == d && r.algorithm == alg)
                    .and_then(|r| r.gflops())
            };
            format!(
                "{},{},{},{},{}",
                d,
                gflops_cell(g(Algorithm::Cusp)),
                gflops_cell(g(Algorithm::Cusparse)),
                gflops_cell(g(Algorithm::Bhsparse)),
                gflops_cell(g(Algorithm::Proposal))
            )
        })
        .collect();
    write_csv(tag, "matrix,cusp,cusparse,bhsparse,proposal", &rows)
}

/// `results/fig4_<precision>.csv`:
/// `matrix,cusp_ratio,cusparse_mb,bhsparse_ratio,proposal_ratio`.
pub fn write_fig4_csv(precision: &str, rows: &[MemoryRow]) -> PathBuf {
    let body: Vec<String> = rows
        .iter()
        .map(|row| {
            let find = |alg: Algorithm| row.entries.iter().find(|e| e.0 == alg).cloned().unwrap();
            let ratio =
                |alg: Algorithm| find(alg).2.map(|x| format!("{x:.3}")).unwrap_or("-".into());
            let cu_peak = find(Algorithm::Cusparse).1.map(crate::table::mb).unwrap_or("-".into());
            format!(
                "{},{},{},{},{}",
                row.dataset,
                ratio(Algorithm::Cusp),
                cu_peak,
                ratio(Algorithm::Bhsparse),
                ratio(Algorithm::Proposal)
            )
        })
        .collect();
    write_csv(
        &format!("fig4_{precision}"),
        "matrix,cusp_ratio,cusparse_mb,bhsparse_ratio,proposal_ratio",
        &body,
    )
}

/// Phase fraction from a breakdown row ("0.0" when the phase is absent).
pub fn phase_frac(v: &[(Phase, f64)], p: Phase) -> f64 {
    v.iter().find(|&&(q, _)| q == p).map(|&(_, f)| f).unwrap_or(0.0)
}

/// `results/<tag>.csv` (fig5/fig6):
/// `matrix,cu_setup,cu_count,cu_calc,cu_malloc,pr_setup,pr_count,pr_calc,pr_malloc`.
pub fn write_fig56_csv(tag: &str, rows: &[BreakdownRow]) -> PathBuf {
    let body: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                row.dataset,
                phase_frac(&row.cusparse, Phase::Setup),
                phase_frac(&row.cusparse, Phase::Count),
                phase_frac(&row.cusparse, Phase::Calc),
                phase_frac(&row.cusparse, Phase::Malloc),
                phase_frac(&row.proposal, Phase::Setup),
                phase_frac(&row.proposal, Phase::Count),
                phase_frac(&row.proposal, Phase::Calc),
                phase_frac(&row.proposal, Phase::Malloc),
            )
        })
        .collect();
    write_csv(
        tag,
        "matrix,cu_setup,cu_count,cu_calc,cu_malloc,pr_setup,pr_count,pr_calc,pr_malloc",
        &body,
    )
}

/// `results/<tag>.csv` (ablations): `matrix,config,time_s,gflops`.
pub fn write_ablation_csv(tag: &str, rows: &[AblationRow]) -> PathBuf {
    let body: Vec<String> = rows
        .iter()
        .map(|r| format!("{},{},{:.9},{:.3}", r.dataset, r.label, r.time.secs(), r.gflops))
        .collect();
    write_csv(tag, "matrix,config,time_s,gflops", &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_csv_has_stable_schema() {
        // OOM rows ("-") exercise the schema without running a multiply.
        let results: Vec<EvalResult> = Algorithm::ALL
            .iter()
            .map(|&alg| EvalResult {
                dataset: "Economics".into(),
                algorithm: alg,
                precision: "single",
                report: None,
            })
            .collect();
        let p = write_gflops_csv("selftest_fig2_schema", &results);
        let text = std::fs::read_to_string(&p).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "matrix,cusp,cusparse,bhsparse,proposal");
        assert_eq!(lines.next().unwrap(), "Economics,-,-,-,-");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn ablation_csv_has_stable_schema() {
        let rows = vec![AblationRow {
            dataset: "X".into(),
            label: "on".into(),
            time: vgpu::SimTime::from_secs(1e-3),
            gflops: 2.0,
        }];
        let p = write_ablation_csv("selftest_ablation_schema", &rows);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().next().unwrap(), "matrix,config,time_s,gflops");
        assert!(text.lines().nth(1).unwrap().starts_with("X,on,0.001"));
        std::fs::remove_file(p).ok();
    }
}
