//! Common result type every SpGEMM algorithm returns.

use crate::profiler::Phase;
use crate::simtime::SimTime;

/// Timing, phase breakdown and memory profile of one SpGEMM execution on
/// the virtual device. The output matrix itself is returned separately
/// by each algorithm (it is generic over the scalar type).
#[derive(Debug, Clone)]
pub struct SpgemmReport {
    /// Algorithm name ("proposal", "cusparse", "cusp", "bhsparse", ...).
    pub algorithm: String,
    /// "single" or "double".
    pub precision: &'static str,
    /// Total simulated execution time.
    pub total_time: SimTime,
    /// Time attributed to each phase (Figure 5/6 categories).
    pub phase_times: Vec<(Phase, SimTime)>,
    /// Peak device-memory bytes during the run (Figure 4 metric).
    pub peak_mem_bytes: u64,
    /// Intermediate products of the multiplication (`FLOP = 2 × this`).
    pub intermediate_products: u64,
    /// Non-zeros of the output matrix.
    pub output_nnz: u64,
    /// Total hash-table probe steps observed during the run (0 for
    /// algorithms that use no hash tables, e.g. ESC-based CUSP, and for
    /// the host backend, whose row accumulators are dense arrays).
    pub hash_probes: u64,
    /// The device's histograms (probe lengths, row populations) when it
    /// ran with telemetry enabled; `None` for uninstrumented runs (the
    /// default).
    pub telemetry: Option<obs::Registry>,
}

impl SpgemmReport {
    /// FLOPS performance exactly as §IV defines it: "twice the number of
    /// intermediate products divided by execution time", in GFLOPS.
    pub fn gflops(&self) -> f64 {
        if self.total_time <= SimTime::ZERO {
            return 0.0;
        }
        2.0 * self.intermediate_products as f64 / self.total_time.secs() / 1e9
    }

    /// Time attributed to one phase.
    pub fn phase_time(&self, phase: Phase) -> SimTime {
        self.phase_times.iter().find(|(p, _)| *p == phase).map(|&(_, t)| t).unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SpgemmReport {
        SpgemmReport {
            algorithm: "test".into(),
            precision: "single",
            total_time: SimTime(0.001),
            phase_times: vec![
                (Phase::Setup, SimTime(0.0001)),
                (Phase::Count, SimTime(0.0004)),
                (Phase::Calc, SimTime(0.0005)),
            ],
            peak_mem_bytes: 1024,
            intermediate_products: 500_000,
            output_nnz: 100_000,
            hash_probes: 0,
            telemetry: None,
        }
    }

    #[test]
    fn gflops_definition_matches_paper() {
        // 2 * 500k / 1 ms = 1e9 FLOPS = 1 GFLOPS.
        assert!((report().gflops() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_gives_zero_gflops() {
        let mut r = report();
        r.total_time = SimTime::ZERO;
        assert_eq!(r.gflops(), 0.0);
    }

    #[test]
    fn phase_lookup() {
        let r = report();
        assert_eq!(r.phase_time(Phase::Count), SimTime(0.0004));
        assert_eq!(r.phase_time(Phase::Malloc), SimTime::ZERO);
    }
}
