//! The host-parallel backend: the paper's row-wise SpGEMM run for real
//! on OS threads, with CPU-native row accumulators.
//!
//! Nagasaka's follow-up work (KNL/multicore, PAPERS.md) shows the
//! row-grouped hash design maps directly onto CPU threads. This backend
//! keeps the paper's pipeline — the same [`SpgemmPlan`] the simulation
//! consumes decides the row algorithm, the overflow bound of each row's
//! count pass and the work partition; `std::thread::scope` workers pull
//! contiguous row ranges from a [`JobQueue`] — but accumulates rows the
//! way a CPU wants to, not the way shared memory forces a GPU to. Every
//! worker owns a **dense accumulator** for the plan's hash rows: a stamp
//! and a value per column of `B`, reset between rows in O(1) by bumping
//! an epoch. Each new column is appended to the row's own output slice,
//! the slice is sorted in place and the values are gathered from the
//! accumulator: no per-row allocation, no scan over empty slots, no
//! `(column, value)` pair sort. Only a `B` wider than [`DENSE_MAX_COLS`]
//! skips the arrays; its hash rows run the ESC row kernel instead.
//!
//! # Determinism
//!
//! The output is bitwise identical for every thread count — and to the
//! simulated backend — although the two share no accumulation code.
//! Within a row, the first product of a column *assigns* its entry and
//! every later product `+=`s into it, in A-row traversal order; the
//! simulation's hash table (and the ESC kernel) does exactly the same,
//! so every output value is the same sequence of IEEE operations on both
//! backends (the value is never formed as `0 + x`, which would turn
//! `-0.0` into `+0.0`). Every job writes only its own disjoint output
//! slice (carved with `split_at_mut` at row-pointer boundaries), so
//! scheduling decides *when* a row is computed, never *what* it
//! computes.
//!
//! The host inspects no hash slots, so its `hash_probes` is 0
//! (DESIGN.md §12).

// lint:allow-file(wallclock) — the host backend measures real elapsed time by
// design (WallClock is its deliverable); determinism lives in the output, not
// the timings.
use crate::exec::{Backend, BackendCaps, Execution, Executor, SymbolicOutput, WallClock};
use crate::partition::{run_workers, JobQueue};
use crate::pipeline::{overflow_err, Error, Options, Result};
use crate::plan::SpgemmPlan;
use crate::rowalg::{
    esc_numeric_row, esc_symbolic_row, merge_numeric_row, merge_symbolic_row, AlgorithmChoice,
    RowAlgScratch,
};
use sparse::{ix, Csr, Scalar, DEVICE_INDEX_BYTES};
use std::time::Instant;
use vgpu::{DeviceConfig, Phase, SimTime, SpgemmReport};

/// Ranges cut per worker thread: small enough to rebalance skewed
/// matrices through the pull queue, large enough to amortize locking.
const CHUNKS_PER_THREAD: usize = 8;

/// Widest `B`, in columns, whose hash rows use the dense accumulator.
///
/// Measured on a 2-core Xeon (2 MiB L2 per core, 300 MiB shared L3),
/// `A²` at 1 and 2 threads: the dense arrays beat a linear-probing hash
/// table sized to each row on every registered dataset, from Protein
/// (3 000 columns) to webbase (1 000 005), by 9–39% in median wall
/// time. So this bound is set by memory, not speed: per worker the
/// arrays take `4 + size_of::<T>()` bytes a column (12 MiB in f64 at
/// this width) whatever the rows hold. For a wider `B` the accumulator, not the
/// work, would set the host's footprint, and its hash rows run the ESC
/// kernel, whose scratch grows with the row.
pub const DENSE_MAX_COLS: usize = 1 << 20;

/// A worker thread's accumulator for the plan's hash rows: a stamp and
/// (numeric phase) a value per column of `B`, allocated on the first row
/// and reused for every later one. An epoch stamp marks the columns of
/// the current row, so a reset is O(1). A `B` wider than
/// [`DENSE_MAX_COLS`] gets no arrays: its rows run the ESC kernel.
struct RowAccumulator<T> {
    /// `B` is narrow enough for the column-indexed arrays.
    dense: bool,
    /// Column count of `B` (the arrays' length).
    width: usize,
    /// Whether values are accumulated (numeric phase) or only columns
    /// counted (symbolic phase).
    numeric: bool,
    /// The epoch that last claimed each column.
    stamp: Vec<u32>,
    /// Numeric only: accumulated value per column.
    vals: Vec<T>,
    /// Stamp of the current row.
    epoch: u32,
    /// Row scratch of the ESC kernel, when `B` is too wide for the arrays.
    esc: RowAlgScratch<T>,
}

impl<T: Scalar> RowAccumulator<T> {
    /// The accumulator rows of `C = A · B` need, given `B`'s column count.
    fn new(b_cols: usize, numeric: bool) -> Self {
        RowAccumulator {
            dense: b_cols <= DENSE_MAX_COLS,
            width: b_cols,
            numeric,
            stamp: Vec::new(),
            vals: Vec::new(),
            epoch: 0,
            esc: RowAlgScratch::new(),
        }
    }

    /// Bytes of the dense arrays this accumulator holds.
    fn bytes(&self) -> u64 {
        (4 * self.stamp.len() + T::BYTES * self.vals.len()) as u64
    }

    /// Start a dense row: allocate the arrays on first use and advance
    /// the epoch.
    fn start_row(&mut self) {
        if self.stamp.len() < self.width {
            self.stamp = vec![0; self.width];
            if self.numeric {
                self.vals = vec![T::ZERO; self.width];
            }
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: hard-clear once every 2^32 rows.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Count row `row`'s distinct output columns. `None` when they
    /// exceed `bound` — the plan's table capacity for the row; the walk
    /// stops there and the row is replanned. `usize::MAX` never stops.
    fn count_row(
        &mut self,
        a: &Csr<T>,
        b: &Csr<T>,
        row: usize,
        bound: usize,
    ) -> Result<Option<u32>> {
        if !self.dense {
            let nnz = esc_symbolic_row(a, b, row, &mut self.esc).nnz;
            return Ok((ix(nnz) <= bound).then_some(nnz));
        }
        self.start_row();
        let (stamp, epoch) = (&mut self.stamp, self.epoch);
        let mut nnz = 0usize;
        for &k in a.row(row).0 {
            for &j in b.row(ix(k)).0 {
                let seen = &mut stamp[ix(j)];
                if *seen != epoch {
                    *seen = epoch;
                    nnz += 1;
                    if nnz > bound {
                        return Ok(None);
                    }
                }
            }
        }
        u32::try_from(nnz).map(Some).map_err(|_| overflow_err("host row nnz"))
    }

    /// Accumulate row `row` into `out_cols`/`out_vals`, which hold
    /// exactly the row's nnz entries (its symbolic count). Each new
    /// column is listed in `out_cols` as it appears; `out_cols` is then
    /// sorted in place and `out_vals` gathered in that order. The first
    /// product of a column *assigns*, later ones `+=`, in A-row
    /// traversal order — never `0 + x`, which would turn `-0.0` into
    /// `+0.0`.
    fn numeric_row(
        &mut self,
        a: &Csr<T>,
        b: &Csr<T>,
        row: usize,
        out_cols: &mut [u32],
        out_vals: &mut [T],
    ) -> Result<()> {
        if !self.dense {
            esc_numeric_row(a, b, row, &mut self.esc, out_cols, out_vals);
            return Ok(());
        }
        self.start_row();
        let (stamp, vals, epoch) = (&mut self.stamp, &mut self.vals, self.epoch);
        let mismatch = || Error::invariant("host numeric row disagrees with its symbolic nnz");
        let mut nnz = 0usize;
        let (acols, avals) = a.row(row);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(ix(k));
            for (&j, &bv) in bcols.iter().zip(bvals) {
                let col = ix(j);
                if stamp[col] == epoch {
                    vals[col] += av * bv;
                    continue;
                }
                stamp[col] = epoch;
                vals[col] = av * bv;
                *out_cols.get_mut(nnz).ok_or_else(mismatch)? = j;
                nnz += 1;
            }
        }
        if nnz != out_cols.len() {
            return Err(mismatch());
        }
        out_cols.sort_unstable();
        for (v, &j) in out_vals.iter_mut().zip(out_cols.iter()) {
            *v = vals[ix(j)];
        }
        Ok(())
    }
}

/// How the backend's worker count was chosen — kept around (and logged)
/// because `available_parallelism()` *can* fail (e.g. restricted
/// sandboxes), and a silent fall-back to one thread looks exactly like
/// an 8× performance regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadResolution {
    /// The count the caller asked for (`0` = auto-detect).
    pub requested: usize,
    /// What `available_parallelism()` reported (`None` = detection
    /// failed).
    pub detected: Option<usize>,
    /// The worker count actually used.
    pub resolved: usize,
}

impl ThreadResolution {
    /// Pure resolution rule: an explicit request wins; `0` means the
    /// detected core count, degrading to a single worker only when
    /// detection itself fails.
    pub fn resolve(requested: usize, detected: Option<usize>) -> Self {
        let resolved = if requested > 0 { requested } else { detected.unwrap_or(1) };
        ThreadResolution { requested, detected, resolved }
    }

    /// [`ThreadResolution::resolve`] against the cores
    /// `available_parallelism()` reports right now.
    pub(crate) fn detect(requested: usize) -> Self {
        Self::resolve(requested, std::thread::available_parallelism().ok().map(|n| n.get()))
    }

    /// `true` when auto-detection failed and the backend silently-ish
    /// dropped to one worker — the case worth surfacing loudly.
    pub fn degraded(&self) -> bool {
        self.requested == 0 && self.detected.is_none()
    }
}

/// Executes SpGEMM on host threads with a dense row accumulator per
/// thread (see the module docs). The plan is still derived from a device class — the
/// paper's P100 by default — because it decides each row's algorithm
/// and its count-pass overflow bound; it no longer sizes host scratch.
pub struct HostParallelExecutor {
    threads: usize,
    cfg: DeviceConfig,
    resolution: ThreadResolution,
    /// Opt-in telemetry session (the host has no device feeding one).
    telemetry: Option<Box<obs::Telemetry>>,
}

impl HostParallelExecutor {
    /// Backend with `threads` workers; `0` means one per available core.
    /// When core detection fails the backend runs with **one** worker
    /// and says so on stderr (and in telemetry, when enabled) — see
    /// [`ThreadResolution`].
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, DeviceConfig::p100())
    }

    /// Backend planning against a specific device class.
    pub fn with_config(threads: usize, cfg: DeviceConfig) -> Self {
        let resolution = ThreadResolution::detect(threads);
        if resolution.degraded() {
            eprintln!(
                "host backend: available_parallelism() failed; running with 1 worker \
                 (pass an explicit thread count to override)"
            );
        }
        HostParallelExecutor { threads: resolution.resolved, cfg, resolution, telemetry: None }
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How the worker count was arrived at.
    pub fn thread_resolution(&self) -> ThreadResolution {
        self.resolution
    }

    /// Opt into a telemetry session; records a `thread_resolution`
    /// event immediately so a degraded fall-back is visible in traces.
    /// Idempotent.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            let mut t = Box::<obs::Telemetry>::default();
            t.emit(
                obs::Event::new("thread_resolution")
                    .u64("requested", self.resolution.requested as u64)
                    .u64("detected", self.resolution.detected.unwrap_or(0) as u64)
                    .u64("resolved", self.resolution.resolved as u64)
                    .str("fallback", if self.resolution.degraded() { "degraded" } else { "ok" }),
            );
            self.telemetry = Some(t);
        }
    }

    /// Install an existing telemetry session (the engine threads a
    /// per-job session through the executor stack so engine spans and
    /// backend events share one id space). Replaces any current one.
    pub fn set_telemetry(&mut self, t: obs::Telemetry) {
        self.telemetry = Some(Box::new(t));
    }

    /// Detach the telemetry session (capture stops).
    pub fn take_telemetry(&mut self) -> Option<obs::Telemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Record a deterministic stage marker (no wall times — traces must
    /// stay byte-identical across runs) when telemetry is enabled.
    fn mark_stage(&mut self, name: &str) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(obs::Event::new("stage").str("name", name));
        }
    }
}

impl<T: Scalar> Executor<T> for HostParallelExecutor {
    fn backend(&self) -> Backend {
        Backend::Host { threads: self.threads }
    }

    fn capabilities(&self) -> BackendCaps {
        BackendCaps {
            simulated_time: false,
            wall_clock: true,
            concurrent_streams: false,
            threads: self.threads,
            deterministic_output: true,
        }
    }

    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan> {
        SpgemmPlan::new(&self.cfg, a, b, opts)
    }

    fn execute_symbolic(
        &mut self,
        plan: &SpgemmPlan,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<SymbolicOutput> {
        let mut nnz_row = vec![0u32; a.rows()];
        // Carve the output into per-range slices so each job owns its
        // rows' counters outright.
        let mut jobs = Vec::new();
        let mut rest: &mut [u32] = &mut nnz_row;
        for range in plan.count.partition(self.threads * CHUNKS_PER_THREAD) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push((range, chunk));
        }
        let workers = self.threads.min(jobs.len());
        let queue = JobQueue::new(jobs);
        // Each worker returns the rows whose distinct columns exceeded the
        // plan's table capacity (under a sampled estimate); those are
        // replanned sequentially below.
        let tallies = run_workers(workers, || -> Result<Vec<u32>> {
            let mut acc = RowAccumulator::<T>::new(b.cols(), false);
            let mut scratch = RowAlgScratch::<T>::new();
            let mut overflow = Vec::new();
            while let Some((range, out)) = queue.next() {
                for (slot, r) in out.iter_mut().zip(range) {
                    match plan.count.algorithm_for(r) {
                        AlgorithmChoice::Esc => {
                            *slot = esc_symbolic_row(a, b, r, &mut scratch).nnz;
                        }
                        AlgorithmChoice::Merge => {
                            *slot = merge_symbolic_row(a, b, r, &mut scratch).nnz;
                        }
                        AlgorithmChoice::Hash => {
                            match acc.count_row(a, b, r, plan.count.table_size_for(r))? {
                                Some(nnz) => *slot = nnz,
                                None => overflow.push(r as u32),
                            }
                        }
                    }
                }
            }
            Ok(overflow)
        });
        drop(queue); // releases the borrows of `nnz_row`
        let mut overflow = Vec::new();
        for rows in tallies {
            overflow.extend(rows?);
        }
        let replans = overflow.len() as u64;
        if !overflow.is_empty() {
            if !plan.opts.estimator.is_sampled() {
                return Err(Error::invariant(
                    "exact-estimator symbolic table overflowed its planned capacity",
                ));
            }
            // Arrival order depends on worker scheduling; sort so the
            // replan pass is identical for every thread count.
            overflow.sort_unstable();
            let mut acc = RowAccumulator::<T>::new(b.cols(), false);
            for &r in &overflow {
                nnz_row[r as usize] = acc
                    .count_row(a, b, r as usize, usize::MAX)?
                    .ok_or_else(|| Error::invariant("unbounded replan count overflowed"))?;
            }
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.emit(obs::Event::new("replan").str("phase", "count").u64("rows", replans));
            }
        }
        Ok(SymbolicOutput::from_nnz_row(nnz_row, 0, replans))
    }

    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        let t0 = Instant::now();
        let numeric = plan.numeric_phase(&symbolic.nnz_row)?;
        let nnz_c = symbolic.output_nnz();
        let mut col_c = vec![0u32; nnz_c];
        let mut val_c = vec![T::ZERO; nnz_c];
        // Disjoint output slices per range, cut at row-pointer bounds.
        let mut jobs = Vec::new();
        let (mut crest, mut vrest): (&mut [u32], &mut [T]) = (&mut col_c, &mut val_c);
        for range in plan.count.partition(self.threads * CHUNKS_PER_THREAD) {
            let span = symbolic.rpt[range.end] - symbolic.rpt[range.start];
            let (cchunk, ctail) = crest.split_at_mut(span);
            let (vchunk, vtail) = vrest.split_at_mut(span);
            crest = ctail;
            vrest = vtail;
            jobs.push((range, cchunk, vchunk));
        }
        let workers = self.threads.min(jobs.len());
        let queue = JobQueue::new(jobs);
        // Each worker returns its accumulator's bytes.
        let tallies = run_workers(workers, || -> Result<u64> {
            let mut acc = RowAccumulator::<T>::new(b.cols(), true);
            let mut scratch = RowAlgScratch::<T>::new();
            while let Some((range, cols, vals)) = queue.next() {
                let base = symbolic.rpt[range.start];
                for r in range {
                    let lo = symbolic.rpt[r] - base;
                    let hi = symbolic.rpt[r + 1] - base;
                    let (cols, vals) = (&mut cols[lo..hi], &mut vals[lo..hi]);
                    match numeric.algorithm_for(r) {
                        AlgorithmChoice::Esc => {
                            esc_numeric_row(a, b, r, &mut scratch, cols, vals);
                        }
                        AlgorithmChoice::Merge => {
                            merge_numeric_row(a, b, r, &mut scratch, cols, vals);
                        }
                        AlgorithmChoice::Hash => acc.numeric_row(a, b, r, cols, vals)?,
                    }
                }
            }
            Ok(acc.bytes())
        });
        drop(queue); // releases the borrows of `col_c`/`val_c`
        let mut acc_bytes = 0;
        for bytes in tallies {
            acc_bytes += bytes?;
        }
        let calc = t0.elapsed();
        let report = self.host_report::<T>(plan, symbolic, acc_bytes);
        // lint:allow(unchecked-ctor) — hot-path assembly; rows are sorted by kernel construction
        let c = Csr::from_parts_unchecked(plan.rows, plan.cols, symbolic.rpt.clone(), col_c, val_c)
            .map_err(|e| Error::invariant(format!("numeric phase assembled malformed C: {e}")))?;
        let wall = WallClock { total: calc, phases: vec![(Phase::Calc, calc)] };
        Ok(Execution { matrix: c, report, wall: Some(wall), replans: symbolic.replans })
    }

    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>> {
        let t0 = Instant::now();
        let plan = <Self as Executor<T>>::plan(self, a, b, opts)?;
        let setup = t0.elapsed();

        let t1 = Instant::now();
        self.mark_stage("symbolic");
        let symbolic = self.execute_symbolic(&plan, a, b)?;
        let count = t1.elapsed();

        let t2 = Instant::now();
        self.mark_stage("numeric");
        let mut run = self.execute_numeric(&plan, &symbolic, a, b)?;
        let calc = t2.elapsed();

        run.report.algorithm = format!("proposal (host:{})", self.threads);
        run.wall = Some(WallClock {
            total: t0.elapsed(),
            phases: vec![(Phase::Setup, setup), (Phase::Count, count), (Phase::Calc, calc)],
        });
        Ok(run)
    }

    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.telemetry.as_deref_mut()
    }
}

impl HostParallelExecutor {
    /// The host backend's report: simulated fields are zero (there is no
    /// device model), counters are real, and `peak_mem_bytes` estimates
    /// the host heap the numeric phase — the larger of the two — holds:
    /// the output, the per-row working arrays and the dense accumulator
    /// arrays its workers actually allocated (`acc_bytes`). The host
    /// inspects no hash slots, so `hash_probes` is 0.
    fn host_report<T: Scalar>(
        &self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        acc_bytes: u64,
    ) -> SpgemmReport {
        let m = plan.rows as u64;
        let nnz_c = symbolic.output_nnz() as u64;
        let inputs: u64 = 0; // inputs are borrowed, not copied
        let working = 4 * m // nnz_row
            + 8 * (m + 1) // rpt (usize)
            + acc_bytes;
        let output = DEVICE_INDEX_BYTES * (m + 1) + (DEVICE_INDEX_BYTES + T::BYTES as u64) * nnz_c;
        SpgemmReport {
            algorithm: format!("proposal (host:{} numeric)", self.threads),
            precision: T::PRECISION,
            total_time: SimTime::ZERO,
            phase_times: Vec::new(),
            peak_mem_bytes: inputs + working + output,
            intermediate_products: plan.total_products,
            output_nnz: nnz_c,
            hash_probes: 0,
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::spgemm_ref::spgemm_gustavson;

    fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..deg {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 5) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    /// `A` (`rows` × 40) and `B` (40 × `b_cols`) with small-integer
    /// values, so every accumulation order gives the same sums.
    fn int_pair(rows: usize, b_cols: usize, seed: u64) -> (Csr<f64>, Csr<f64>) {
        let mut s = seed;
        let mut draw = |m: usize| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize % m
        };
        let mut ta = Vec::new();
        for r in 0..rows {
            for _ in 0..6 {
                ta.push((r, draw(40) as u32, 1.0 + draw(4) as f64));
            }
        }
        let mut tb = Vec::new();
        for r in 0..40 {
            for _ in 0..30 {
                tb.push((r, draw(b_cols) as u32, draw(5) as f64 - 2.0));
            }
        }
        (Csr::from_triplets(rows, 40, &ta).unwrap(), Csr::from_triplets(40, b_cols, &tb).unwrap())
    }

    /// Count and accumulate every row of `A · B` through one pair of
    /// accumulators, checking each row against the reference; returns
    /// the (symbolic, numeric) accumulators.
    fn check_rows(a: &Csr<f64>, b: &Csr<f64>) -> (RowAccumulator<f64>, RowAccumulator<f64>) {
        let c_ref = spgemm_gustavson(a, b).unwrap();
        let mut sym = RowAccumulator::new(b.cols(), false);
        let mut num = RowAccumulator::new(b.cols(), true);
        for r in 0..a.rows() {
            let (want_cols, want_vals) = c_ref.row(r);
            let nnz = sym.count_row(a, b, r, usize::MAX).unwrap().unwrap() as usize;
            assert_eq!(nnz, want_cols.len(), "row {r}");
            let (mut cols, mut vals) = (vec![0u32; nnz], vec![0.0; nnz]);
            num.numeric_row(a, b, r, &mut cols, &mut vals).unwrap();
            assert_eq!((cols.as_slice(), vals.as_slice()), (want_cols, want_vals), "row {r}");
        }
        (sym, num)
    }

    #[test]
    fn dense_accumulator_rows_match_reference() {
        let (a, b) = int_pair(60, 500, 5);
        let (mut sym, mut num) = check_rows(&a, &b);
        assert!(sym.dense && num.dense);
        // The arrays span B's columns; only the numeric one holds values.
        assert_eq!(sym.bytes(), 4 * 500);
        assert_eq!(num.bytes(), (4 + 8) * 500);
        // The count stops as soon as the distinct columns pass the bound.
        let nnz = sym.count_row(&a, &b, 0, usize::MAX).unwrap().unwrap();
        assert_eq!(sym.count_row(&a, &b, 0, nnz as usize).unwrap(), Some(nnz));
        assert_eq!(sym.count_row(&a, &b, 0, nnz as usize - 1).unwrap(), None);
        // A wrapped epoch clears the stamps instead of aliasing old rows.
        num.epoch = u32::MAX;
        let (mut cols, mut vals) = (vec![0u32; nnz as usize], vec![0.0; nnz as usize]);
        num.numeric_row(&a, &b, 0, &mut cols, &mut vals).unwrap();
        assert_eq!(num.epoch, 1);
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        assert_eq!((cols.as_slice(), vals.as_slice()), c_ref.row(0));
        // A symbolic count that disagrees with the row is an error.
        let mut short = vec![0u32; nnz as usize - 1];
        let mut short_vals = vec![0.0; nnz as usize - 1];
        assert!(num.numeric_row(&a, &b, 0, &mut short, &mut short_vals).is_err());
    }

    #[test]
    fn rows_of_b_wider_than_dense_max_cols_run_esc() {
        let (a, b) = int_pair(60, DENSE_MAX_COLS + 4_464, 9);
        let (mut sym, num) = check_rows(&a, &b);
        assert!(!sym.dense && !num.dense);
        // No column-indexed arrays for a B this wide.
        assert_eq!(sym.bytes() + num.bytes(), 0);
        // The plan's bound still decides which rows replan.
        let nnz = spgemm_gustavson(&a, &b).unwrap().row_nnz(3);
        assert_eq!(sym.count_row(&a, &b, 3, nnz).unwrap(), Some(nnz as u32));
        assert_eq!(sym.count_row(&a, &b, 3, nnz - 1).unwrap(), None);
    }

    #[test]
    fn report_charges_allocated_accumulators() {
        let (a, b) = int_pair(60, 500, 5);
        let mut ex = HostParallelExecutor::new(1);
        let run = Executor::<f64>::multiply(&mut ex, &a, &b, &Options::default()).unwrap();
        let (m, nnz) = (a.rows() as u64, run.matrix.nnz() as u64);
        let output = DEVICE_INDEX_BYTES * (m + 1) + (DEVICE_INDEX_BYTES + 8) * nnz;
        let dense = (4 + 8) * 500;
        assert_eq!(run.report.peak_mem_bytes, 4 * m + 8 * (m + 1) + dense + output);
        assert_eq!(run.report.hash_probes, 0, "the host inspects no hash slots");
    }

    #[test]
    fn host_matches_reference() {
        let a = rand_mat(400, 6, 3);
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        let mut ex = HostParallelExecutor::new(2);
        let run = Executor::<f64>::multiply(&mut ex, &a, &a, &Options::default()).unwrap();
        assert_eq!(run.matrix, c_ref);
        assert_eq!(run.report.output_nnz, c_ref.nnz() as u64);
        assert!(run.wall.is_some());
        assert!(run.wall.unwrap().total.as_nanos() > 0);
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let a = rand_mat(500, 7, 11);
        let runs: Vec<Csr<f64>> = [1usize, 2, 5]
            .iter()
            .map(|&t| {
                let mut ex = HostParallelExecutor::new(t);
                Executor::<f64>::multiply(&mut ex, &a, &a, &Options::default()).unwrap().matrix
            })
            .collect();
        for c in &runs[1..] {
            assert_eq!(c.rpt(), runs[0].rpt());
            assert_eq!(c.col(), runs[0].col());
            let bits = |m: &Csr<f64>| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(c), bits(&runs[0]), "values must be bitwise identical");
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_cores() {
        let ex = HostParallelExecutor::new(0);
        assert!(ex.threads() >= 1);
        let caps = Executor::<f64>::capabilities(&ex);
        assert!(caps.wall_clock && !caps.simulated_time);
        assert_eq!(caps.threads, ex.threads());
        assert_eq!(ex.thread_resolution().resolved, ex.threads());
    }

    #[test]
    fn thread_resolution_rule() {
        // Explicit request always wins.
        let r = ThreadResolution::resolve(3, Some(16));
        assert_eq!((r.resolved, r.degraded()), (3, false));
        let r = ThreadResolution::resolve(3, None);
        assert_eq!((r.resolved, r.degraded()), (3, false));
        // Auto uses the detected count.
        let r = ThreadResolution::resolve(0, Some(8));
        assert_eq!((r.resolved, r.degraded()), (8, false));
        // Failed detection degrades to 1 — and flags it.
        let r = ThreadResolution::resolve(0, None);
        assert_eq!((r.resolved, r.degraded()), (1, true));
    }

    #[test]
    fn telemetry_records_thread_resolution() {
        let mut ex = HostParallelExecutor::new(2);
        assert!(Executor::<f64>::telemetry_mut(&mut ex).is_none());
        ex.enable_telemetry();
        ex.enable_telemetry(); // idempotent
        assert!(Executor::<f64>::telemetry_mut(&mut ex).is_some());
        let t = ex.take_telemetry().unwrap();
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"thread_resolution\""));
        assert!(jsonl.contains("\"requested\":2"));
        assert!(ex.take_telemetry().is_none());
    }

    #[test]
    fn empty_matrix_works() {
        let z = Csr::<f64>::zeros(64, 64);
        let mut ex = HostParallelExecutor::new(4);
        let run = Executor::<f64>::multiply(&mut ex, &z, &z, &Options::default()).unwrap();
        assert_eq!(run.matrix.nnz(), 0);
        assert_eq!(run.report.intermediate_products, 0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = Csr::<f64>::zeros(4, 5);
        let mut ex = HostParallelExecutor::new(2);
        assert!(Executor::<f64>::multiply(&mut ex, &a, &a, &Options::default()).is_err());
    }
}
