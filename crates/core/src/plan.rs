//! The backend-neutral execution plan: *what* to compute, separated
//! from *how* a backend runs or charges it.
//!
//! [`SpgemmPlan`] captures every decision of the paper's pipeline that
//! does not depend on the execution substrate: per-row intermediate
//! products (Alg. 2), the count- and calc-phase group tables of Table I
//! ([`crate::groups::build_groups`]), per-row hash-table capacities
//! (including the group-0 global-table sizing rule of §III-B-2), the
//! group→stream mapping of §IV-C, and a weighted row partition for
//! backends that execute on real threads. Both the simulated-device
//! backend ([`crate::SimExecutor`]) and the host thread-pool backend
//! ([`crate::HostParallelExecutor`]) consume the same plan: every
//! decision that could make their outputs diverge (which rows replan)
//! is made exactly once, here. The simulation sizes
//! its hash tables from the plan; the host treats the count-phase sizes
//! only as each row's overflow bound and sizes its own accumulators.

#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use crate::groups::{build_groups, Assignment, GroupPhase, GroupTable};
use crate::pipeline::{overflow_err, Error, Options, Result};
use sparse::spgemm_ref::row_intermediate_products;
use sparse::{ix, to_u64, try_usize, Csr, Scalar};
use std::ops::Range;
use vgpu::device::DEFAULT_STREAM;
use vgpu::{DeviceConfig, StreamId};

/// Global-memory hash-table size for an overflow (group 0) row with the
/// given metric: next power of two above `2 × metric` (≤50% load factor,
/// "set based on the number of intermediate products", §III-B-2).
/// `None` when the doubled metric has no representable power-of-two
/// ceiling — every caller surfaces that as a structured
/// `SparseError::Overflow` planning error instead of wrapping (the
/// engine's admission path feeds untrusted metrics through here).
pub fn global_table_size_checked(metric: usize) -> Option<usize> {
    metric.max(1).checked_mul(2)?.checked_next_power_of_two()
}

/// How the count-phase metric (intermediate products per row, Alg. 2)
/// is obtained: the paper's exact count, or a seeded row-sampling
/// upper-bound estimate (OCEAN-style, PAPERS.md) that is O(sample) per
/// row instead of O(nnz(A-row)).
///
/// Estimation changes **only planning cost and hash-table sizes** —
/// never values: the symbolic pass still computes exact output counts,
/// and rows whose padded table under-estimated recover through the
/// replan path (exact recount for just those rows; see
/// `SymbolicOutput::replans`). Output is bitwise identical across
/// estimator modes and backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Estimator {
    /// Exact Alg. 2 count (the paper's pipeline; the default).
    #[default]
    Exact,
    /// Sample up to `sample` A-row elements per row; rows at most
    /// `sample` long are counted exactly. The extrapolated mean is
    /// doubled (the padding that makes under-estimates rare).
    Sampled {
        /// A-row elements sampled per long row (≥ 1).
        sample: usize,
    },
}

/// Seed of the sampling stream; fixed so every backend and every run
/// draws identical samples (plans must be deterministic).
const ESTIMATE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Estimator {
    /// Default sample size of `sampled` without an explicit `:K`.
    pub const DEFAULT_SAMPLE: usize = 64;

    /// The sampled estimator at the default sample size.
    pub fn sampled() -> Self {
        Estimator::Sampled { sample: Self::DEFAULT_SAMPLE }
    }

    /// True for any `Sampled` configuration.
    pub fn is_sampled(&self) -> bool {
        matches!(self, Estimator::Sampled { .. })
    }

    /// Parse a CLI spelling: `exact`, `sampled`, or `sampled:K`.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "exact" => Ok(Estimator::Exact),
            "sampled" => Ok(Estimator::sampled()),
            other => match other.strip_prefix("sampled:") {
                Some(k) => match k.parse::<usize>() {
                    Ok(sample) if sample >= 1 => Ok(Estimator::Sampled { sample }),
                    _ => Err(format!("bad sample size '{k}' (need an integer >= 1)")),
                },
                None => Err(format!("unknown estimator '{other}' (exact|sampled|sampled:K)")),
            },
        }
    }

    /// The count-phase metric for every row of `C = A · B`: exact
    /// intermediate products, or the padded sampling estimate.
    pub fn row_products<T: Scalar>(&self, a: &Csr<T>, b: &Csr<T>) -> Result<Vec<usize>> {
        match *self {
            Estimator::Exact => Ok(row_intermediate_products(a, b)?),
            Estimator::Sampled { sample } => sampled_row_products(a, b, sample.max(1)),
        }
    }
}

impl std::fmt::Display for Estimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Estimator::Exact => f.write_str("exact"),
            Estimator::Sampled { sample } => write!(f, "sampled:{sample}"),
        }
    }
}

/// Exact intermediate products of one row (Alg. 2 restricted to `row`)
/// — what the replan path recounts when a sampled table overflowed.
pub(crate) fn exact_row_products<T: Scalar>(a: &Csr<T>, b: &Csr<T>, row: usize) -> usize {
    let rpt_b = b.rpt();
    let (acols, _) = a.row(row);
    acols.iter().map(|&k| rpt_b[ix(k) + 1] - rpt_b[ix(k)]).sum()
}

/// The sampled estimator: rows with at most `sample` A-elements are
/// counted exactly; longer rows extrapolate the mean B-row length of
/// `sample` seeded draws and double it (`est = 2·⌈mean · a_len⌉`).
/// Arithmetic runs in `u128` and clamps to `usize::MAX` — a clamped
/// estimate is caught by the plan's checked table-size validation.
fn sampled_row_products<T: Scalar>(a: &Csr<T>, b: &Csr<T>, sample: usize) -> Result<Vec<usize>> {
    if a.cols() != b.rows() {
        return Err(sparse::SparseError::DimensionMismatch(format!(
            "spgemm: A is {}x{}, B is {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        ))
        .into());
    }
    let rpt_b = b.rpt();
    let blen = |k: u32| rpt_b[ix(k) + 1] - rpt_b[ix(k)];
    let mut out = vec![0usize; a.rows()];
    for (r, np) in out.iter_mut().enumerate() {
        let (acols, _) = a.row(r);
        if acols.len() <= sample {
            *np = acols.iter().map(|&k| blen(k)).sum();
        } else {
            let mut state = ESTIMATE_SEED ^ to_u64(r);
            let mut sum: u128 = 0;
            for _ in 0..sample {
                // The draw is reduced modulo a usize length, so the
                // narrowing cannot actually fail.
                let idx = try_usize(splitmix64(&mut state) % to_u64(acols.len()))?;
                sum += blen(acols[idx]) as u128;
            }
            let est = (sum * acols.len() as u128).div_ceil(sample as u128).saturating_mul(2);
            *np = usize::try_from(est).unwrap_or(usize::MAX);
        }
    }
    Ok(out)
}

/// One phase's worth of row grouping: the group table, the per-row
/// metric it was bucketed by (intermediate products for the count
/// phase, output nnz for the numeric phase), and the resulting buckets.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// The Table I group table of this phase.
    pub groups: GroupTable,
    /// Per-row grouping metric (one entry per row of `A`).
    pub metric: Vec<usize>,
    /// Rows of each group, ascending, aligned with `groups.groups`.
    pub rows_by_group: Vec<Vec<u32>>,
}

impl PhasePlan {
    /// Bucket `metric` into `groups` and validate every group-0 row's
    /// global-table size up front, so [`PhasePlan::table_size_for`] is
    /// infallible afterwards; an unrepresentable size is a structured
    /// `SparseError::Overflow` planning error.
    fn new(groups: GroupTable, metric: Vec<usize>) -> Result<Self> {
        let rows_by_group = groups.bucket_rows(&metric);
        for (gi, g) in groups.groups.iter().enumerate() {
            if g.assignment == Assignment::TbRowGlobal {
                for &r in &rows_by_group[gi] {
                    global_table_size_checked(metric[ix(r)])
                        .ok_or_else(|| overflow_err("global hash-table size"))?;
                }
            }
        }
        Ok(PhasePlan { groups, metric, rows_by_group })
    }

    /// Hash-table capacity of `row` in this phase: the group's
    /// shared-memory table size, or the per-row global-table size for
    /// group-0 rows. The simulation allocates exactly this; the host
    /// backend only checks a row's distinct columns against it (a count
    /// row that exceeds it replans). Capacities only ever *bound* the
    /// table — the accumulation order inside a row is the A-row
    /// traversal order regardless — so outputs stay backend-independent.
    pub fn table_size_for(&self, row: usize) -> usize {
        let spec = &self.groups.groups[self.groups.group_of(self.metric[row])];
        match spec.assignment {
            #[expect(
                clippy::expect_used,
                reason = "every group-0 row was checked in PhasePlan::new"
            )]
            Assignment::TbRowGlobal => {
                global_table_size_checked(self.metric[row]).expect("validated at plan construction")
            }
            Assignment::Pwarp { .. } | Assignment::TbRow => spec.table_size,
        }
    }

    /// Split `0..rows` into at most `parts` contiguous ranges of roughly
    /// equal total metric weight (for thread-parallel backends).
    pub fn partition(&self, parts: usize) -> Vec<Range<usize>> {
        crate::partition::weighted_ranges(&self.metric, parts)
    }
}

/// A backend-neutral plan for one `C = A · B`: everything the pipeline
/// of Figure 1 decides *before* any kernel runs.
///
/// Built once per multiply by [`crate::Executor::plan`] (or directly via
/// [`SpgemmPlan::new`]); the numeric-phase bucketing depends on the
/// symbolic result and is derived later via [`SpgemmPlan::numeric_phase`].
#[derive(Debug, Clone)]
pub struct SpgemmPlan {
    /// Rows of `A` (= rows of `C`).
    pub rows: usize,
    /// Columns of `B` (= columns of `C`).
    pub cols: usize,
    /// Value width the group tables were derived for (`T::BYTES`).
    pub value_bytes: usize,
    /// The options the plan was built with.
    pub opts: Options,
    /// Total intermediate products (Σ count metric) — the FLOP basis.
    pub total_products: u64,
    /// Count-phase grouping, bucketed by intermediate products.
    pub count: PhasePlan,
    /// Numeric-phase group table (bucketing waits for the symbolic nnz).
    pub numeric_groups: GroupTable,
}

impl SpgemmPlan {
    /// Build the plan for `C = A · B` on a device class described by
    /// `cfg`. Pure host work: validates dimensions, counts intermediate
    /// products, derives both phases' Table I group tables and buckets
    /// the count phase.
    pub fn new<T: Scalar>(
        cfg: &DeviceConfig,
        a: &Csr<T>,
        b: &Csr<T>,
        opts: &Options,
    ) -> Result<Self> {
        let nprod = opts.estimator.row_products(a, b)?;
        let total_products: u64 = nprod.iter().map(|&x| to_u64(x)).sum();
        let count_groups =
            build_groups(cfg, T::BYTES, GroupPhase::Count, opts.pwarp_width, opts.use_pwarp);
        let numeric_groups =
            build_groups(cfg, T::BYTES, GroupPhase::Numeric, opts.pwarp_width, opts.use_pwarp);
        let count = PhasePlan::new(count_groups, nprod)?;
        Ok(SpgemmPlan {
            rows: a.rows(),
            cols: b.cols(),
            value_bytes: T::BYTES,
            opts: opts.clone(),
            total_products,
            count,
            numeric_groups,
        })
    }

    /// Derive the numeric-phase bucketing from the symbolic result
    /// (the output row pointer `rpt`), regrouping rows by their output
    /// size — step (6) of Figure 1. The metric here is always *exact*
    /// (the symbolic pass counted real output rows, whatever the
    /// estimator), so numeric tables can never under-size. A row
    /// pointer that is not one non-decreasing entry per row plus one is
    /// an [`Error::invariant`].
    pub fn numeric_phase(&self, rpt: &[usize]) -> Result<PhasePlan> {
        let metric = rpt
            .windows(2)
            .map(|w| w[1].checked_sub(w[0]))
            .collect::<Option<Vec<usize>>>()
            .filter(|m| m.len() == self.rows)
            .ok_or_else(|| Error::invariant("symbolic row pointer does not fit the plan"))?;
        PhasePlan::new(self.numeric_groups.clone(), metric)
    }

    /// The CUDA stream group `gi` launches on (§IV-C): its own stream
    /// when streams are enabled, the default stream otherwise.
    pub fn stream_for(&self, gi: usize) -> StreamId {
        if self.opts.use_streams {
            StreamId(gi + 1)
        } else {
            DEFAULT_STREAM
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceConfig;

    fn mat(n: usize, deg: usize) -> Csr<f64> {
        let mut t = Vec::new();
        for r in 0..n {
            for d in 0..deg {
                t.push((r, ((r * 31 + d * 7) % n) as u32, 1.0));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn plan_buckets_cover_all_rows() {
        let a = mat(500, 6);
        let plan = SpgemmPlan::new(&DeviceConfig::p100(), &a, &a, &Options::default()).unwrap();
        let total: usize = plan.count.rows_by_group.iter().map(|v| v.len()).sum();
        assert_eq!(total, a.rows());
        assert_eq!(plan.rows, 500);
        assert_eq!(plan.cols, 500);
        assert_eq!(plan.total_products, 500 * 6 * 6);
    }

    #[test]
    fn plan_rejects_dimension_mismatch() {
        let a = Csr::<f64>::zeros(4, 5);
        assert!(SpgemmPlan::new(&DeviceConfig::p100(), &a, &a, &Options::default()).is_err());
    }

    #[test]
    fn table_size_for_matches_group_rule() {
        let a = mat(300, 5);
        let plan = SpgemmPlan::new(&DeviceConfig::p100(), &a, &a, &Options::default()).unwrap();
        for r in 0..a.rows() {
            let cap = plan.count.table_size_for(r);
            assert!(cap.is_power_of_two());
            // Never smaller than what the row's products need at ≤100% load.
            assert!(cap >= plan.count.metric[r].min(cap));
        }
        // Group-0 rows get the per-row global size.
        let big = 100_000usize;
        let gi = plan.count.groups.group_of(big);
        assert_eq!(plan.count.groups.groups[gi].assignment, Assignment::TbRowGlobal);
        assert_eq!(global_table_size_checked(big), Some((2 * big).next_power_of_two()));
    }

    #[test]
    fn checked_table_size_rejects_overflow() {
        assert_eq!(global_table_size_checked(0), Some(2));
        assert_eq!(global_table_size_checked(100_000), Some(262_144));
        assert_eq!(global_table_size_checked(usize::MAX), None);
        assert_eq!(global_table_size_checked(usize::MAX / 2), None);
        assert_eq!(global_table_size_checked(1 << (usize::BITS - 2)), Some(1 << (usize::BITS - 1)));
    }

    #[test]
    fn estimator_parses_and_displays() {
        assert_eq!(Estimator::parse("exact").unwrap(), Estimator::Exact);
        assert_eq!(Estimator::parse("sampled").unwrap(), Estimator::Sampled { sample: 64 });
        assert_eq!(Estimator::parse("sampled:8").unwrap(), Estimator::Sampled { sample: 8 });
        assert!(Estimator::parse("sampled:0").is_err());
        assert!(Estimator::parse("magic").is_err());
        assert_eq!(Estimator::Exact.to_string(), "exact");
        assert_eq!(Estimator::Sampled { sample: 16 }.to_string(), "sampled:16");
        assert_eq!(Estimator::default(), Estimator::Exact);
        assert!(Estimator::sampled().is_sampled());
        assert!(!Estimator::Exact.is_sampled());
    }

    #[test]
    fn sampled_metric_is_exact_for_short_rows_and_deterministic() {
        let a = mat(400, 6);
        let exact = Estimator::Exact.row_products(&a, &a).unwrap();
        // Every row has 6 A-elements ≤ 64 → sampled falls back to exact.
        let sampled = Estimator::sampled().row_products(&a, &a).unwrap();
        assert_eq!(sampled, exact);
        // Force sampling (sample < a_len): deterministic across calls,
        // and the padding doubles the extrapolated mean.
        let s1 = Estimator::Sampled { sample: 2 }.row_products(&a, &a).unwrap();
        let s2 = Estimator::Sampled { sample: 2 }.row_products(&a, &a).unwrap();
        assert_eq!(s1, s2);
        // Uniform 6-nnz rows: every sampled estimate is 2 × exact.
        for (r, (&s, &e)) in s1.iter().zip(&exact).enumerate() {
            assert_eq!(s, 2 * e, "row {r}");
        }
        // Dimension mismatch is still a planning error under sampling.
        let bad = Csr::<f64>::zeros(4, 5);
        assert!(Estimator::sampled().row_products(&bad, &bad).is_err());
    }

    #[test]
    fn exact_row_products_matches_alg2() {
        let a = mat(120, 5);
        let nprod = Estimator::Exact.row_products(&a, &a).unwrap();
        for (r, &n) in nprod.iter().enumerate() {
            assert_eq!(exact_row_products(&a, &a, r), n);
        }
    }

    #[test]
    fn stream_mapping_follows_options() {
        let a = mat(50, 2);
        let on = SpgemmPlan::new(&DeviceConfig::p100(), &a, &a, &Options::default()).unwrap();
        assert_eq!(on.stream_for(0), StreamId(1));
        assert_eq!(on.stream_for(3), StreamId(4));
        let off = SpgemmPlan::new(
            &DeviceConfig::p100(),
            &a,
            &a,
            &Options { use_streams: false, ..Options::default() },
        )
        .unwrap();
        assert_eq!(off.stream_for(3), DEFAULT_STREAM);
    }

    #[test]
    fn numeric_phase_buckets_by_nnz() {
        let a = mat(200, 4);
        let plan = SpgemmPlan::new(&DeviceConfig::p100(), &a, &a, &Options::default()).unwrap();
        let rpt: Vec<usize> = (0..=200).map(|r| 3 * r).collect();
        let numeric = plan.numeric_phase(&rpt).unwrap();
        assert_eq!(numeric.metric, vec![3usize; 200]);
        let total: usize = numeric.rows_by_group.iter().map(|v| v.len()).sum();
        assert_eq!(total, 200);
        // nnz 3 lands in the PWARP group (≤ 16).
        let pwarp = numeric.groups.len() - 1;
        assert_eq!(numeric.rows_by_group[pwarp].len(), 200);
    }
}
