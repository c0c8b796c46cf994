//! The host-parallel backend: the paper's row-wise SpGEMM run for real
//! on OS threads, with CPU-native row accumulators.
//!
//! Nagasaka's follow-up work (KNL/multicore, PAPERS.md) shows the
//! row-grouped hash design maps directly onto CPU threads. This backend
//! keeps the paper's plan — the same [`SpgemmPlan`] the simulation
//! consumes decides each row's overflow bound and the work partition;
//! `std::thread::scope` workers pull contiguous row ranges from a
//! [`JobQueue`] — but accumulates rows the way a CPU wants to, not the
//! way shared memory forces a GPU to. The kernel follows from one
//! property of the input, the width of `B`: every worker owns
//! column-indexed arrays over `B`'s columns — a **dense accumulator**, a
//! stamp and a value per column, for a cold walk, and a **position map**
//! for a replay — reset between rows in O(1) by bumping an epoch: no
//! per-row allocation, no scan over empty slots, no `(column, value)`
//! pair sort. Only a `B` wider than [`DENSE_MAX_COLS`] skips the arrays;
//! its rows run the ESC row kernel (expand, sort, compress) instead.
//!
//! # Walk, then checked values
//!
//! The paper counts every row before computing it so it can allocate
//! exactly enough GPU memory for `C`. The host has no such constraint,
//! so `multiply` walks each row once: it counts and accumulates
//! together and appends the sorted row to its chunk's **staging**
//! buffers, then copies the chunks into `C` in parallel once the prefix
//! sum of the row counts has placed them. The staging (a column and a
//! value per output entry, grown with checked reservations) is held
//! next to `C` until the copy, and `peak_mem_bytes` charges it. The
//! executor keeps its emptied staging for the next `multiply` of the
//! same value type, trimmed when it holds far more than the call
//! needed, so a repeated multiply refills pages that are already
//! mapped. A cacheable [`crate::SymbolicPlan`] is what such a walk
//! leaves behind: its plan and `C`'s row pointer and sorted column
//! array, the output's **structure** ([`SymbolicOutput::structure`]).
//!
//! The structure depends only on the patterns, so `execute_numeric` —
//! the numeric phase and the plan-cache hit path — is a values-only
//! pass, and `C`'s own row is its accumulator. Every worker owns a
//! **position map**, 8 bytes per column of `B`: the epoch of the row
//! that last recorded the column and the column's position in that row.
//! A row maps its recorded columns, presets its values to −0.0 and adds
//! every product straight into its position: one map load per product,
//! no value array, no gather pass, no data-dependent branch. It builds
//! no column list and sorts nothing; `C`'s column array is the
//! structure, copied from the symbolic result. A hash row above the
//! plan's table capacity for it (a sampled under-estimate) is complete
//! all the same and counts as a replan.
//!
//! Replay is verified, not trusted. The recorded columns must increase
//! strictly within `B`'s width. Every product's column must be mapped
//! for this row: the map entry is xor-ed with the row's epoch tag, so an
//! entry of any other epoch yields an index past the row, and the bounds
//! check on `C`'s row is the epoch check. Every recorded column must be
//! reached, which follows from the preset: an unreached entry keeps its
//! −0.0, and a reached one reads −0.0 only if all of its products were
//! −0.0 (an IEEE sum is −0.0 only when both addends are). So only a row
//! that holds a −0.0 is rechecked, by a walk that marks each product's
//! column in the map. Together these make the two column sets equal, so
//! a stale or corrupted structure is an [`Error::invariant`], never a
//! wrong matrix. Rows of a wide `B` run the ESC kernel and compare the
//! columns it produces. A structure recorded by the simulator replays
//! the same way: both backends' `C` have the same bits.
//!
//! # Determinism
//!
//! The output is bitwise identical for every thread count — and to the
//! simulated backend — although the two share no accumulation code.
//! Within a row, the first product of a column *assigns* its entry and
//! every later product `+=`s into it, in A-row traversal order; the
//! simulation's hash table (and the ESC kernel) does exactly the same,
//! so every output value is the same sequence of IEEE operations on both
//! backends (the value is never formed as `+0.0 + x`, which would turn
//! `-0.0` into `+0.0`). The values pass forms it as `−0.0 + x`, which
//! is bitwise `x` for every `x`: `−0.0 + ±0.0` is `±0.0`, and
//! `−0.0 + NaN` returns that NaN with its payload. A product is never a
//! signalling NaN (an arithmetic result is quiet), so no payload is
//! changed by quieting. Every job writes only its own rows — its own
//! staging, or its own output slice carved with `split_at_mut` at
//! row-pointer boundaries — so scheduling decides *when* a row is
//! computed, never *what* it computes. The dense arrays, the position
//! map and the ESC kernel produce the same bits.
//!
//! The host inspects no hash slots, so its `hash_probes` is 0
//! (DESIGN.md §12).

use crate::exec::{Backend, ColdRecord, Execution, Executor, SymbolicOutput, WallClock};
use crate::partition::{run_workers, JobQueue};
use crate::pipeline::{Error, Options, Result};
use crate::plan::{exact_row_products, SpgemmPlan};
use sparse::{ix, to_u64, Csr, Scalar, SparseError, DEVICE_INDEX_BYTES};
use std::any::Any;
use std::time::Instant;
use vgpu::{DeviceConfig, Phase, SimTime, SpgemmReport};

/// Now, on the wall clock: the host backend measures real elapsed time
/// by design, and this is its only clock read.
#[expect(
    clippy::disallowed_methods,
    reason = "WallClock is the host backend's deliverable; determinism lives in the output, not \
              the timings"
)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Ranges cut per worker thread: small enough to rebalance skewed
/// matrices through the pull queue, large enough to amortize locking.
const CHUNKS_PER_THREAD: usize = 8;

/// How many times the bytes a walk staged its kept staging may hold
/// before it is trimmed to that walk's need. Products within this
/// factor of each other reuse one set of buffers — `A²` over the five
/// Table II analogues spans nnz(C) 1.7–9.5 M — while a small multiply
/// after a large one releases the excess.
const STAGING_SLACK: u64 = 8;

/// Widest `B`, in columns, whose rows use the column-indexed arrays.
///
/// Measured on a 2-core Xeon (2 MiB L2 per core, 300 MiB shared L3),
/// `A²` at 1 and 2 threads: the dense arrays beat a linear-probing hash
/// table sized to each row on every registered dataset, from Protein
/// (3 000 columns) to webbase (1 000 005), by 9–39% in median wall
/// time. So this bound is set by memory, not speed: per worker the
/// walk's arrays take `4 + size_of::<T>()` bytes a column (12 MiB in
/// f64 at this width) and the values pass's position map 8, whatever
/// the rows hold. For a wider `B` the arrays, not the work, would set
/// the host's footprint, and its rows run the ESC kernel, whose scratch
/// grows with the row.
pub const DENSE_MAX_COLS: usize = 1 << 20;

/// A worker thread's row accumulator: a stamp and a value per column of
/// `B`, allocated on the first row and reused for every later row. An
/// epoch stamp marks the columns of the current row, so a reset is O(1). A `B` wider than [`DENSE_MAX_COLS`] gets no
/// arrays: its rows run the ESC kernel.
struct RowAccumulator<T> {
    /// `B` is narrow enough for the column-indexed arrays.
    dense: bool,
    /// Column count of `B` (the arrays' length).
    width: usize,
    /// The epoch that last claimed each column.
    stamp: Vec<u32>,
    /// Accumulated value per column.
    vals: Vec<T>,
    /// Stamp of the current row.
    epoch: u32,
}

impl<T: Scalar> RowAccumulator<T> {
    /// The accumulator rows of `C = A · B` need, given `B`'s column count.
    fn new(b_cols: usize) -> Self {
        RowAccumulator {
            dense: b_cols <= DENSE_MAX_COLS,
            width: b_cols,
            stamp: Vec::new(),
            vals: Vec::new(),
            epoch: 0,
        }
    }

    /// Bytes of the dense arrays this accumulator holds.
    fn bytes(&self) -> u64 {
        (4 * self.stamp.len() + T::BYTES * self.vals.len()) as u64
    }

    /// Walk row `row` through the dense arrays, allocating them on first
    /// use and advancing the epoch. The first product of a column *assigns*
    /// its value, later ones `+=`, in A-row traversal order — never
    /// `0 + x`, which would turn `-0.0` into `+0.0`. `new_col` receives
    /// each column the first time it appears.
    #[inline]
    fn accumulate(&mut self, a: &Csr<T>, b: &Csr<T>, row: usize, mut new_col: impl FnMut(u32)) {
        if self.stamp.len() < self.width {
            self.stamp = vec![0; self.width];
            self.vals = vec![T::ZERO; self.width];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: hard-clear once every 2^32 rows.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let (stamp, vals, epoch) = (&mut self.stamp, &mut self.vals, self.epoch);
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
                new_col(j);
            }
        }
    }

    /// Count and accumulate row `row` in one walk of the dense arrays,
    /// appending its sorted columns and their values to `out`; returns
    /// the row's nnz. The columns are reserved up front for the row's
    /// bound (its products, at most `B`'s width), so the walk itself
    /// never reallocates. Kept out of line: inlined into the row-walk
    /// driver's worker loop, the accumulate loop's array bounds and
    /// epoch were spilled to the stack (Protein `A²` 1.17× slower
    /// single-threaded on a 2-core Xeon VM).
    #[inline(never)]
    fn stage_row(
        &mut self,
        a: &Csr<T>,
        b: &Csr<T>,
        row: usize,
        out: &mut Staged<T>,
    ) -> Result<usize> {
        let start = out.cols.len();
        reserve(&mut out.cols, exact_row_products(a, b, row).min(self.width))?;
        let cols = &mut out.cols;
        self.accumulate(a, b, row, |j| cols.push(j));
        let row_cols = &mut out.cols[start..];
        row_cols.sort_unstable();
        reserve(&mut out.vals, row_cols.len())?;
        out.vals.extend(row_cols.iter().map(|&j| self.vals[ix(j)]));
        Ok(row_cols.len())
    }
}

/// The mark the values pass's coverage walk sets in a map entry's
/// position: no row of `C` is as long as [`DENSE_MAX_COLS`], so bit 31
/// is free.
const REACHED: u64 = 1 << 31;

/// A worker thread's map for the values pass: per column of `B`, the
/// epoch of the row that last recorded it (high 32 bits) and its
/// position in that row of `C` (low 32 bits), allocated on the first row
/// and reused for every later row. Bumping the epoch unmaps every
/// column, so a reset is O(1).
struct PositionMap {
    /// Column count of `B` (the map's length).
    width: usize,
    map: Vec<u64>,
    /// Epoch of the current row.
    epoch: u32,
}

impl PositionMap {
    fn new(b_cols: usize) -> Self {
        PositionMap { width: b_cols, map: Vec::new(), epoch: 0 }
    }

    /// Bytes of the map this worker holds.
    fn bytes(&self) -> u64 {
        8 * self.map.len() as u64
    }

    /// Fill `out`, row `row` of `C`, whose recorded columns are `cols`
    /// (as long as `out`). Each recorded column is mapped to its
    /// position and `out` is preset to −0.0, IEEE's exact additive
    /// identity (`−0.0 + x` is bitwise `x`); then every product, in A-row
    /// traversal order, adds straight into its position. So each value
    /// is the sequence of operations where the first product assigns and
    /// later ones add, with no data-dependent branch per product.
    ///
    /// The replay is checked, so the produced and the recorded column
    /// sets are equal: the record must increase strictly within `B`'s
    /// width, and every product's column must be mapped for this row
    /// (the epoch check is folded into the bounds check on `out`). Every
    /// recorded column must also be reached. An unreached entry keeps
    /// its −0.0, and a reached one reads −0.0 only if all of its products
    /// were −0.0, so only a row holding a −0.0 is rechecked, by
    /// [`Self::all_reached`].
    fn values_row<T: Scalar>(
        &mut self,
        a: &Csr<T>,
        b: &Csr<T>,
        row: usize,
        cols: &[u32],
        out: &mut [T],
    ) -> Result<()> {
        if self.map.len() < self.width {
            self.map = vec![0; self.width];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: hard-clear once every 2^32 rows.
            self.map.fill(0);
            self.epoch = 1;
        }
        let tag = u64::from(self.epoch) << 32;
        // A flag, not a branch per column: the record increases strictly.
        let (mut sorted, mut prev) = (true, -1);
        for (pos, &j) in cols.iter().enumerate() {
            sorted &= i64::from(j) > prev;
            prev = i64::from(j);
            *self.map.get_mut(ix(j)).ok_or_else(replay_mismatch)? = tag | to_u64(pos);
        }
        out.fill(-T::ZERO);
        let (acols, avals) = a.row(row);
        let map = &self.map;
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(ix(k));
            for (&j, &bv) in bcols.iter().zip(bvals) {
                // The epoch check is the bounds check: a column mapped for
                // this row yields its position, any other column an index
                // of at least 2^32, past every row.
                let pos = usize::try_from(map[ix(j)] ^ tag).ok();
                let Some(v) = pos.and_then(|p| out.get_mut(p)) else {
                    return Err(replay_mismatch());
                };
                *v += av * bv;
            }
        }
        // One pass with no early exit: most rows hold no −0.0.
        let neg_zero = |v: &T| (*v == T::ZERO) & v.to_f64().is_sign_negative();
        let any_neg_zero = out.iter().fold(false, |any, v| any | neg_zero(v));
        if !sorted || (any_neg_zero && !self.all_reached(a, b, row, cols)) {
            return Err(replay_mismatch());
        }
        Ok(())
    }

    /// The coverage recheck of a row whose products all mapped: mark
    /// every product's column, then test that each recorded column was
    /// marked. The marks live in this row's entries, which the next
    /// row's epoch unmaps.
    fn all_reached<T: Scalar>(&mut self, a: &Csr<T>, b: &Csr<T>, row: usize, cols: &[u32]) -> bool {
        for &k in a.row(row).0 {
            for &j in b.row(ix(k)).0 {
                self.map[ix(j)] |= REACHED;
            }
        }
        cols.iter().all(|&j| self.map[ix(j)] & REACHED != 0)
    }
}

/// The error of a values pass whose row disagrees with the structure it
/// replays.
fn replay_mismatch() -> Error {
    Error::invariant("host numeric row disagrees with its recorded structure")
}

/// The ESC row kernel (expand, sort, compress) for a `B` too wide for
/// the dense arrays: expand row `row`'s `(column, a_ik · b_kj)` products
/// into `scratch` in A-row traversal order, stable-sort them by column
/// (ties keep traversal order) and reduce each run left to right,
/// appending the row's sorted columns and values to `out`; returns the
/// row's nnz. The first product of a column starts its sum and later
/// ones add in traversal order: the addition order of the dense arrays
/// and of the simulated hash kernels, so all three agree bitwise.
fn esc_row<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    scratch: &mut Vec<(u32, T)>,
    out: &mut Staged<T>,
) -> Result<usize> {
    scratch.clear();
    let (acols, avals) = a.row(row);
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(ix(k));
        scratch.extend(bcols.iter().zip(bvals).map(|(&j, &bv)| (j, av * bv)));
    }
    scratch.sort_by_key(|&(j, _)| j);
    reserve(&mut out.cols, scratch.len())?;
    reserve(&mut out.vals, scratch.len())?;
    let start = out.cols.len();
    let mut i = 0;
    while i < scratch.len() {
        let (j, mut sum) = scratch[i];
        i += 1;
        while i < scratch.len() && scratch[i].0 == j {
            sum += scratch[i].1;
            i += 1;
        }
        out.cols.push(j);
        out.vals.push(sum);
    }
    Ok(out.cols.len() - start)
}

/// One chunk's rows of `C`, staged by the walk until the prefix sum of
/// the row counts places them: the rows' sorted columns and values, back
/// to back. Grown only through [`reserve`], so an allocation failure is
/// an [`Error`], not an abort.
struct Staged<T> {
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T> Default for Staged<T> {
    fn default() -> Self {
        Staged { cols: Vec::new(), vals: Vec::new() }
    }
}

impl<T: Scalar> Staged<T> {
    /// Bytes of the staged entries (length, not capacity).
    fn bytes(&self) -> u64 {
        (4 * self.cols.len() + T::BYTES * self.vals.len()) as u64
    }

    /// Heap bytes the buffers hold (capacity, not length).
    fn held_bytes(&self) -> u64 {
        (4 * self.cols.capacity() + T::BYTES * self.vals.capacity()) as u64
    }

    /// Empty the buffers for the next walk; with `trim`, first release
    /// the capacity beyond the staged entries.
    fn clear(&mut self, trim: bool) {
        if trim {
            self.cols.shrink_to_fit();
            self.vals.shrink_to_fit();
        }
        self.cols.clear();
        self.vals.clear();
    }
}

/// Make room for `additional` more elements of `v` (amortized growth),
/// turning an allocation failure into a structured error. It is not a
/// `DeviceOom`: that one asks the batched fallback to retry in smaller
/// batches, and batching decisions stay with the shared memory forecast
/// on every backend (DESIGN.md §13).
fn reserve<E>(v: &mut Vec<E>, additional: usize) -> Result<()> {
    v.try_reserve(additional).map_err(|_| {
        let bytes = |n: usize| n.saturating_mul(std::mem::size_of::<E>());
        Error::Planning(SparseError::Overflow(format!(
            "host staging of {} B more (holding {} B) does not fit the heap",
            bytes(additional),
            bytes(v.capacity())
        )))
    })
}

/// How a backend's worker count was chosen. `available_parallelism()`
/// *can* fail (e.g. restricted sandboxes), and a silent fall-back to one
/// thread looks exactly like an 8× performance regression, so the
/// fall-back is flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ThreadResolution {
    /// The worker count actually used.
    pub resolved: usize,
    /// Auto-detection failed and the count dropped to one worker.
    pub degraded: bool,
}

impl ThreadResolution {
    /// Pure resolution rule: an explicit request wins; `0` means the
    /// detected core count, degrading to a single worker only when
    /// detection itself fails.
    fn resolve(requested: usize, detected: Option<usize>) -> Self {
        let resolved = if requested > 0 { requested } else { detected.unwrap_or(1) };
        ThreadResolution { resolved, degraded: requested == 0 && detected.is_none() }
    }

    /// [`ThreadResolution::resolve`] against the cores
    /// `available_parallelism()` reports right now.
    pub(crate) fn detect(requested: usize) -> Self {
        Self::resolve(requested, std::thread::available_parallelism().ok().map(|n| n.get()))
    }
}

/// Executes SpGEMM on host threads with column-indexed row arrays per
/// thread (see the module docs). The plan is still derived from a device class — the
/// paper's P100 by default — because it decides each row's count-pass
/// overflow bound and the work partition; it does not size host scratch.
/// Between calls the executor holds the staging of its last
/// `multiply`, emptied: at most [`STAGING_SLACK`] times what that call
/// staged (a column and a value per entry of its `C`). Drop the
/// executor to release it.
pub struct HostParallelExecutor {
    threads: usize,
    cfg: DeviceConfig,
    /// The job's telemetry session, when one is installed (the host has
    /// no device feeding one).
    telemetry: Option<Box<obs::Telemetry>>,
    /// The staging the next `multiply` of the last value type refills
    /// (`Vec<Staged<T>>`, type-erased because one executor serves every
    /// value type), so its rows land in memory that is already mapped
    /// instead of faulting in fresh pages.
    spare: Option<Box<dyn Any + Send + Sync>>,
}

impl HostParallelExecutor {
    /// Backend with `threads` workers; `0` means one per available core.
    /// When core detection fails the backend runs with **one** worker
    /// and says so on stderr.
    pub fn new(threads: usize) -> Self {
        Self::with_config(threads, DeviceConfig::p100())
    }

    /// Backend planning against a specific device class.
    pub fn with_config(threads: usize, cfg: DeviceConfig) -> Self {
        let resolution = ThreadResolution::detect(threads);
        if resolution.degraded {
            eprintln!(
                "host backend: available_parallelism() failed; running with 1 worker \
                 (pass an explicit thread count to override)"
            );
        }
        HostParallelExecutor { threads: resolution.resolved, cfg, telemetry: None, spare: None }
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
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
}

impl<T: Scalar> Executor<T> for HostParallelExecutor {
    fn backend(&self) -> Backend {
        Backend::Host { threads: self.threads }
    }

    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan> {
        SpgemmPlan::new(&self.cfg, a, b, opts)
    }

    /// The values pass over `symbolic`'s structure, which becomes `C`'s
    /// column array.
    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        let t0 = wall_now();
        let (val_c, acc_bytes) = self.values_pass(plan, symbolic, a, b)?;
        let report = self.host_report::<T>(plan, val_c.len(), acc_bytes);
        let (rpt, col_c) = (symbolic.rpt.clone(), symbolic.structure.clone());
        #[expect(
            clippy::disallowed_methods,
            reason = "hot-path assembly; the values pass checked every row against its structure"
        )]
        let matrix = Csr::from_parts_unchecked(plan.rows, plan.cols, rpt, col_c, val_c)
            .map_err(|e| Error::invariant(format!("numeric phase assembled malformed C: {e}")))?;
        let calc = t0.elapsed();
        let wall = WallClock { total: calc, phases: vec![(Phase::Calc, calc)] };
        Ok(Execution { matrix, report, wall: Some(wall), replans: symbolic.replans, record: None })
    }

    /// Plan, then one walk per intermediate product: every row is
    /// counted and accumulated at once into per-chunk staging (refilling
    /// the staging an earlier `multiply` of this value type kept), and
    /// [`Self::stitch`] places the chunks once the row pointer is known.
    /// The output and `replans` equal `execute_numeric` replaying the
    /// run's record.
    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>> {
        let t0 = wall_now();
        let plan = <Self as Executor<T>>::plan(self, a, b, opts)?;
        let setup = t0.elapsed();
        let spare = self.spare.take().and_then(|s| s.downcast::<Vec<Staged<T>>>().ok());

        let t1 = wall_now();
        let walk = self.walk_rows(&plan, a, b, spare.map_or_else(Vec::new, |s| *s))?;
        self.note_replans(&plan, walk.replans)?;
        let matrix = self.stitch(&plan, walk.rpt, &walk.chunks)?;
        let calc = t1.elapsed();
        let mut chunks = walk.chunks;
        let staged: u64 = chunks.iter().map(Staged::bytes).sum();
        let trim = chunks.iter().map(Staged::held_bytes).sum::<u64>() > STAGING_SLACK * staged;
        chunks.iter_mut().for_each(|c| c.clear(trim));
        self.spare = Some(Box::new(chunks));

        let mut report = self.host_report::<T>(&plan, matrix.nnz(), walk.acc_bytes + staged);
        report.algorithm = format!("proposal (host:{})", self.threads);
        let wall = WallClock {
            total: t0.elapsed(),
            phases: vec![(Phase::Setup, setup), (Phase::Calc, calc)],
        };
        let record = Some(ColdRecord { plan, count_probes: 0 });
        Ok(Execution { matrix, report, wall: Some(wall), replans: walk.replans, record })
    }

    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.telemetry.as_deref_mut()
    }
}

/// What [`HostParallelExecutor::walk_rows`] leaves for assembly.
struct RowWalk<T> {
    /// `C`'s row pointer.
    rpt: Vec<usize>,
    /// Staged rows of each partition chunk, in row order.
    chunks: Vec<Staged<T>>,
    /// Hash rows whose nnz exceeded the plan's table capacity.
    replans: u64,
    /// Bytes of the dense arrays the workers allocated.
    acc_bytes: u64,
}

impl HostParallelExecutor {
    /// Check the rows whose nnz exceeded the plan's table capacity:
    /// an invariant error under the exact estimator, whose tables are
    /// sized from every row's products, else a `replan` event.
    fn note_replans(&mut self, plan: &SpgemmPlan, replans: u64) -> Result<()> {
        if replans == 0 {
            return Ok(());
        }
        if !plan.opts.estimator.is_sampled() {
            return Err(Error::invariant(
                "exact-estimator symbolic table overflowed its planned capacity",
            ));
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.emit(obs::Event::new("replan").str("phase", "count").u64("rows", replans));
        }
        Ok(())
    }

    /// The row walk of `multiply`: each worker pulls a product-weighted
    /// chunk of rows and runs every row once, through the dense arrays
    /// or, for a wide `B`, the ESC kernel, appending its sorted columns
    /// and values to the chunk's staging; the row's nnz lands in the
    /// chunk's slice of `rpt[1..]`, which a scan then turns into `C`'s
    /// row pointer. A row whose nnz exceeds the plan's table capacity
    /// counts as a replan; it is already complete, so nothing is
    /// recounted. The chunks refill `spare`, the emptied staging of an
    /// earlier walk, before they allocate.
    fn walk_rows<T: Scalar>(
        &self,
        plan: &SpgemmPlan,
        a: &Csr<T>,
        b: &Csr<T>,
        spare: Vec<Staged<T>>,
    ) -> Result<RowWalk<T>> {
        let ranges = plan.count.partition(self.threads * CHUNKS_PER_THREAD);
        let mut rpt = vec![0usize; plan.rows + 1];
        let mut spare = spare.into_iter();
        let mut chunks: Vec<Staged<T>> =
            ranges.iter().map(|_| spare.next().unwrap_or_default()).collect();
        // Each job owns its rows' counters and its chunk's staging.
        let mut jobs = Vec::with_capacity(ranges.len());
        let mut rest: &mut [usize] = &mut rpt[1..];
        for (range, staged) in ranges.into_iter().zip(&mut chunks) {
            let (counts, tail) = rest.split_at_mut(range.len());
            rest = tail;
            jobs.push((range, counts, staged));
        }
        let workers = self.threads.min(jobs.len());
        let queue = JobQueue::new(jobs);
        // Each worker returns its replan count and its accumulator's bytes.
        let tallies = run_workers(workers, || -> Result<(u64, u64)> {
            let mut acc = RowAccumulator::<T>::new(plan.cols);
            let mut esc = Vec::new();
            let mut replans = 0u64;
            while let Some((range, counts, chunk)) = queue.next() {
                // Grow a worker-local handle: the chunks' headers sit side
                // by side, and a push per new column to a shared cache
                // line would serialize the workers.
                let mut staged = std::mem::take(chunk);
                for (slot, r) in counts.iter_mut().zip(range) {
                    let nnz = if acc.dense {
                        acc.stage_row(a, b, r, &mut staged)?
                    } else {
                        esc_row(a, b, r, &mut esc, &mut staged)?
                    };
                    replans += u64::from(nnz > plan.count.table_size_for(r));
                    *slot = nnz;
                }
                *chunk = staged;
            }
            Ok((replans, acc.bytes()))
        });
        drop(queue); // releases the borrows of `rpt` and `chunks`
        let (mut replans, mut acc_bytes) = (0, 0);
        for tally in tallies {
            let (r, bytes) = tally?;
            replans += r;
            acc_bytes += bytes;
        }
        let mut total = 0;
        for end in &mut rpt {
            total += *end;
            *end = total;
        }
        Ok(RowWalk { rpt, chunks, replans, acc_bytes })
    }

    /// The values pass: each worker pulls a product-weighted chunk of
    /// rows and fills its disjoint slice of `C`'s values, cut at the row
    /// pointer, replaying each row against its recorded columns through
    /// its position map or, for a wide `B`, the ESC kernel. Returns the
    /// values and the bytes of the maps the workers allocated.
    fn values_pass<T: Scalar>(
        &self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<(Vec<T>, u64)> {
        let (rpt, structure) = (&symbolic.rpt, &symbolic.structure);
        if rpt.len() != plan.rows + 1
            || rpt[0] != 0
            || rpt.windows(2).any(|w| w[0] > w[1])
            || structure.len() != symbolic.output_nnz()
        {
            return Err(Error::invariant("symbolic row pointer disagrees with the structure"));
        }
        let mut val_c = vec![T::ZERO; structure.len()];
        // Disjoint output slices per range, cut at row-pointer bounds.
        let mut jobs = Vec::new();
        let mut rest: &mut [T] = &mut val_c;
        for range in plan.count.partition(self.threads * CHUNKS_PER_THREAD) {
            let (chunk, tail) = rest.split_at_mut(rpt[range.end] - rpt[range.start]);
            rest = tail;
            jobs.push((range, chunk));
        }
        let workers = self.threads.min(jobs.len());
        let queue = JobQueue::new(jobs);
        // Each worker returns its map's bytes.
        let dense = b.cols() <= DENSE_MAX_COLS;
        let tallies = run_workers(workers, || -> Result<u64> {
            let mut map = PositionMap::new(b.cols());
            let (mut esc, mut buf) = (Vec::new(), Staged::default());
            while let Some((range, vals)) = queue.next() {
                let base = rpt[range.start];
                for r in range {
                    let (lo, hi) = (rpt[r], rpt[r + 1]);
                    let (cols, vals) = (&structure[lo..hi], &mut vals[lo - base..hi - base]);
                    if dense {
                        map.values_row(a, b, r, cols, vals)?;
                    } else {
                        // The ESC kernel runs into `buf`; its columns must
                        // be the recorded ones.
                        buf.clear(false);
                        esc_row(a, b, r, &mut esc, &mut buf)?;
                        if buf.cols != cols {
                            return Err(replay_mismatch());
                        }
                        vals.copy_from_slice(&buf.vals);
                    }
                }
            }
            Ok(map.bytes())
        });
        drop(queue); // releases the borrow of `val_c`
        let mut acc_bytes = 0;
        for bytes in tallies {
            acc_bytes += bytes?;
        }
        Ok((val_c, acc_bytes))
    }

    /// Assemble `C` from staged chunks: the workers copy each chunk into
    /// its disjoint span of `col_c`/`val_c`, cut at the row pointer.
    fn stitch<T: Scalar>(
        &self,
        plan: &SpgemmPlan,
        rpt: Vec<usize>,
        chunks: &[Staged<T>],
    ) -> Result<Csr<T>> {
        let nnz_c = *rpt.last().unwrap_or(&0);
        let mut col_c = vec![0u32; nnz_c];
        let mut val_c = vec![T::ZERO; nnz_c];
        let mut jobs = Vec::with_capacity(chunks.len());
        let (mut crest, mut vrest): (&mut [u32], &mut [T]) = (&mut col_c, &mut val_c);
        for staged in chunks {
            let span = staged.cols.len();
            if span > crest.len() || staged.vals.len() != span {
                return Err(Error::invariant("staged rows disagree with the row pointer"));
            }
            let (cchunk, ctail) = crest.split_at_mut(span);
            let (vchunk, vtail) = vrest.split_at_mut(span);
            crest = ctail;
            vrest = vtail;
            jobs.push((cchunk, vchunk, staged));
        }
        if !crest.is_empty() {
            return Err(Error::invariant("staged rows disagree with the row pointer"));
        }
        let workers = self.threads.min(jobs.len());
        let queue = JobQueue::new(jobs);
        run_workers(workers, || {
            while let Some((cols, vals, staged)) = queue.next() {
                cols.copy_from_slice(&staged.cols);
                vals.copy_from_slice(&staged.vals);
            }
        });
        drop(queue); // releases the borrows of `col_c`/`val_c`

        #[expect(
            clippy::disallowed_methods,
            reason = "hot-path assembly; rows are sorted by kernel construction"
        )]
        let c = Csr::from_parts_unchecked(plan.rows, plan.cols, rpt, col_c, val_c);
        c.map_err(|e| Error::invariant(format!("host walk assembled malformed C: {e}")))
    }

    /// The host backend's report: simulated fields are zero (there is no
    /// device model), counters are real, and `peak_mem_bytes` bounds the
    /// host heap a multiply holds: the output, the row pointer and the
    /// `scratch` its workers actually allocated. For `multiply` that is
    /// the dense accumulator arrays (`4 + size_of::<T>()` bytes per
    /// column of `B`) and the staged entries held next to `C` until the
    /// copy, for the values pass the position maps (8 bytes per column
    /// of `B`): what the call needed, not the capacity an earlier call
    /// left, so the figure depends only on the operands and the path.
    /// The host inspects no hash slots, so `hash_probes` is 0.
    fn host_report<T: Scalar>(
        &self,
        plan: &SpgemmPlan,
        nnz_c: usize,
        scratch: u64,
    ) -> SpgemmReport {
        let m = plan.rows as u64;
        let nnz_c = to_u64(nnz_c);
        let inputs: u64 = 0; // inputs are borrowed, not copied
        let working = 8 * (m + 1) + scratch; // rpt (usize)
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

    /// Walk every row of `A · B` through a dense accumulator and replay
    /// it through a position map, checking each row against the
    /// reference; returns the walk's accumulator and the map.
    fn check_rows(a: &Csr<f64>, b: &Csr<f64>) -> (RowAccumulator<f64>, PositionMap) {
        let c_ref = spgemm_gustavson(a, b).unwrap();
        let mut walk = RowAccumulator::new(b.cols());
        let mut num = PositionMap::new(b.cols());
        for r in 0..a.rows() {
            let mut staged = Staged::default();
            let nnz = walk.stage_row(a, b, r, &mut staged).unwrap();
            let staged_row = (staged.cols.as_slice(), staged.vals.as_slice());
            assert_eq!(staged_row, c_ref.row(r), "row {r}");
            let mut vals = vec![0.0; nnz];
            num.values_row(a, b, r, &staged.cols, &mut vals).unwrap();
            assert_eq!(vals, staged.vals, "row {r}");
        }
        (walk, num)
    }

    #[test]
    fn dense_accumulator_rows_match_reference() {
        let (a, b) = int_pair(60, 500, 5);
        let (walk, mut num) = check_rows(&a, &b);
        assert!(walk.dense);
        // The arrays span B's columns: a stamp and a value per column for
        // the walk, an epoch and a position per column for the replay.
        assert_eq!(walk.bytes(), (4 + 8) * 500);
        assert_eq!(num.bytes(), 8 * 500);
        // A wrapped epoch clears the stamps instead of aliasing old rows.
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let (cols, want) = c_ref.row(0);
        num.epoch = u32::MAX;
        let mut vals = vec![0.0; cols.len()];
        num.values_row(&a, &b, 0, cols, &mut vals).unwrap();
        assert_eq!(num.epoch, 1);
        assert_eq!(vals, want);
        // A recorded row that is not the row's column set is an error: a
        // column short, one too many (which only the coverage walk finds),
        // out of order, or past B's width.
        let n = cols.len();
        let unsorted: Vec<u32> = cols.iter().rev().copied().collect();
        let mut outside = cols.to_vec();
        outside[n - 1] = 500;
        let mut more = cols.to_vec();
        let missing = (0..).find(|c| !cols.contains(c)).unwrap();
        more.insert(cols.partition_point(|&c| c < missing), missing);
        for bad in [&cols[..n - 1], &more, &unsorted, &outside] {
            let mut vals = vec![0.0; bad.len()];
            let err = num.values_row(&a, &b, 0, bad, &mut vals).unwrap_err();
            assert_eq!(err.kind(), crate::ErrorKind::Invariant);
        }
    }

    #[test]
    fn esc_rows_are_bitwise_equal_to_hash() {
        // Values in steps of 0.1 round their sums, so the order shows.
        let (a, b) = (rand_mat(160, 7, 3).scaled(0.1), rand_mat(160, 6, 11).scaled(0.1));
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let mut table = crate::hash::HashTable::<f64>::new(4096, true);
        let (mut esc, mut staged) = (Vec::new(), Staged::default());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for row in 0..a.rows() {
            let nnz = c_ref.row_nnz(row);
            let (mut hc, mut hv) = (vec![0u32; nnz], vec![0.0f64; nnz]);
            crate::kernels::tb_numeric_row(&a, &b, row, 4096, &mut table, &mut hc, &mut hv);
            staged.clear(false);
            assert_eq!(esc_row(&a, &b, row, &mut esc, &mut staged).unwrap(), nnz, "row {row}");
            assert_eq!(staged.cols, hc, "esc cols row {row}");
            assert_eq!(bits(&staged.vals), bits(&hv), "esc vals row {row}");
        }
    }

    #[test]
    fn rows_of_b_wider_than_dense_max_cols_run_esc() {
        let width = DENSE_MAX_COLS + 4_464;
        let (a, b) = int_pair(60, width, 9);
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        // No column-indexed arrays for a B this wide.
        assert!(!RowAccumulator::<f64>::new(width).dense);
        let mut ex = HostParallelExecutor::new(2);
        let opts = Options::default();
        let plan = Executor::<f64>::plan(&ex, &a, &b, &opts).unwrap();
        let run = Executor::<f64>::multiply(&mut ex, &a, &b, &opts).unwrap();
        assert_eq!(run.matrix, c_ref);
        // One walk: its staged columns and values, but no dense arrays.
        let staged = (4 + 8) * c_ref.nnz() as u64;
        let no_arrays = ex.host_report::<f64>(&plan, c_ref.nnz(), staged);
        assert_eq!(run.report.peak_mem_bytes, no_arrays.peak_mem_bytes);

        // The plan's bound still decides which rows replan: power-law
        // rows of A over a B spread across `width` columns, under a
        // sampled estimate that under-sizes some of them.
        let a: Csr<f64> = matgen::generators::power_law(512, 8.0, 256, 1.1, 0.5, 32, 0);
        let stride = (width / a.cols()) as u32;
        let mut t = Vec::new();
        for r in 0..a.rows() {
            let (cols, vals) = a.row(r);
            t.extend(cols.iter().zip(vals).map(|(&c, &v)| (r, c * stride, v)));
        }
        let b = Csr::from_triplets(a.rows(), width, &t).unwrap();
        let c_ref = spgemm_gustavson(&a, &b).unwrap();
        let sampled =
            Options { estimator: crate::Estimator::Sampled { sample: 1 }, ..Options::default() };
        let plan = crate::SymbolicPlan::from_executor(&mut ex, &a, &b, &sampled).unwrap();
        let sym = plan.symbolic();
        assert_eq!(sym.structure, c_ref.col());
        let bound = |r| plan.plan().count.table_size_for(r);
        let over = (0..a.rows()).filter(|&r| c_ref.row_nnz(r) > bound(r)).count() as u64;
        assert!(over > 0, "test needs under-sized rows");
        assert_eq!(sym.replans, over);
    }

    /// The host plan of `a · b` and its symbolic result with one row
    /// tampered: a recorded column swapped for one the row does not
    /// produce (order and counts kept), a count one short (the row's last
    /// column dropped), and an extra recorded column that no product
    /// reaches, which only the coverage walk finds; the row arrays are
    /// kept consistent.
    fn tampered(
        ex: &mut HostParallelExecutor,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> (crate::SymbolicPlan<f64>, [SymbolicOutput; 3]) {
        let plan = crate::SymbolicPlan::from_executor(ex, a, b, &Options::default()).unwrap();
        let good = plan.symbolic();
        let structure = &good.structure;
        let row = |r: usize| &structure[good.rpt[r]..good.rpt[r + 1]];
        let r = (0..a.rows()).find(|&r| row(r).len() >= 2).unwrap();
        // A column strictly between the row's first and third entries (or
        // past its second), other than its second: not in the row.
        let cols = row(r);
        let hi = cols.get(2).copied().unwrap_or(b.cols() as u32);
        let col = (cols[0] + 1..hi).find(|&c| c != cols[1]).unwrap();
        let mut swapped = good.clone();
        swapped.structure[good.rpt[r] + 1] = col;
        let resized = |at: usize, structure: Vec<u32>| {
            let shift = |i, p: usize| if i > r { p - good.rpt[r + 1] + at } else { p };
            let rpt = good.rpt.iter().enumerate().map(|(i, &p)| shift(i, p)).collect();
            SymbolicOutput { rpt, replans: 0, structure }
        };
        let mut fewer = structure.clone();
        fewer.remove(good.rpt[r + 1] - 1);
        let short = resized(good.rpt[r + 1] - 1, fewer);
        // The first column the row does not produce, inserted in order.
        let col = (0..).find(|c| !cols.contains(c)).unwrap();
        let mut more = structure.clone();
        more.insert(good.rpt[r] + cols.partition_point(|&c| c < col), col);
        let extra = resized(good.rpt[r + 1] + 1, more);
        (plan, [swapped, short, extra])
    }

    #[test]
    fn tampered_structure_is_an_invariant_error() {
        // Row 0 of the second pair has only −0.0 products, so every value
        // it reaches reads −0.0 like one it does not.
        let neg_zero_a = Csr::from_triplets(2, 2, &[(0, 0, -0.0), (0, 1, 0.0), (1, 0, 1.0)]);
        let neg_zero_b =
            Csr::from_triplets(2, 8, &[(0, 1, 1.0), (0, 3, 2.0), (1, 1, -1.0), (1, 5, -3.0)]);
        let pairs = [int_pair(60, 500, 5), (neg_zero_a.unwrap(), neg_zero_b.unwrap())];
        let bits = |m: &Csr<f64>| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in &pairs {
            for threads in [1, 2] {
                let mut ex = HostParallelExecutor::new(threads);
                let want = Executor::<f64>::multiply(&mut ex, a, b, &Options::default()).unwrap();
                let (plan, bad) = tampered(&mut ex, a, b);
                let hit = plan.execute_with(&mut ex, a, b).unwrap().matrix;
                assert_eq!(hit, want.matrix);
                assert_eq!(bits(&hit), bits(&want.matrix));
                let whats = ["swapped column", "count one short", "extra unreached column"];
                for (sym, what) in bad.iter().zip(whats) {
                    let err = Executor::<f64>::execute_numeric(&mut ex, plan.plan(), sym, a, b)
                        .unwrap_err();
                    assert_eq!(err.kind(), crate::ErrorKind::Invariant, "{what}, host:{threads}");
                }
            }
        }
        let c = spgemm_gustavson(&pairs[1].0, &pairs[1].1).unwrap();
        assert_eq!(c.row(0).0, [1, 3, 5], "the −0.0 row");
    }

    #[test]
    fn report_charges_allocated_accumulators() {
        let (a, b) = int_pair(60, 500, 5);
        let opts = Options::default();
        let mut ex = HostParallelExecutor::new(1);
        let (m, nnz) = (a.rows() as u64, spgemm_gustavson(&a, &b).unwrap().nnz() as u64);
        let output = |nnz: u64| DEVICE_INDEX_BYTES * (m + 1) + (DEVICE_INDEX_BYTES + 8) * nnz;
        // The values pass of a plan-cache hit holds the row pointer, the
        // position map (8 B per column of B) and C.
        let plan = crate::SymbolicPlan::from_executor(&mut ex, &a, &b, &opts).unwrap();
        let split = plan.execute_with(&mut ex, &a, &b).unwrap();
        assert_eq!(split.matrix.nnz() as u64, nnz);
        let values_pass = 8 * (m + 1) + 8 * 500 + output(nnz);
        assert_eq!(split.report.peak_mem_bytes, values_pass);
        // `multiply` walks once through the dense arrays (a stamp and a
        // value per column of B) and holds its staging next to C until
        // the copy: a column and a value per entry, into fresh staging or
        // the staging the call before kept.
        let walk = 8 * (m + 1) + (4 + 8) * 500 + output(nnz);
        for _ in 0..2 {
            let run = Executor::<f64>::multiply(&mut ex, &a, &b, &opts).unwrap();
            assert_eq!(run.matrix, split.matrix);
            assert_eq!(run.report.peak_mem_bytes, walk + (4 + 8) * nnz);
            assert_eq!(run.report.hash_probes, 0, "the host inspects no hash slots");
            assert_eq!(phases(&run), [Phase::Setup, Phase::Calc]);
        }
    }

    fn phases<T>(run: &Execution<T>) -> Vec<Phase> {
        run.wall.as_ref().unwrap().phases.iter().map(|&(p, _)| p).collect()
    }

    /// Capacity of the staging `ex` keeps for its next f64 walk.
    fn kept_staging(ex: &HostParallelExecutor) -> u64 {
        let spare = ex.spare.as_ref().unwrap().downcast_ref::<Vec<Staged<f64>>>().unwrap();
        spare.iter().map(Staged::held_bytes).sum()
    }

    #[test]
    fn multiply_refills_staging_across_value_types_and_sizes() {
        // Walks refill the staging of the walk before: smaller products
        // after larger ones, larger after smaller, and a switch of value
        // type between them must all come out as if the executor were
        // fresh.
        let mut ex = HostParallelExecutor::new(2);
        let opts = Options::default();
        let mats = [(400usize, 3u64), (60, 4), (900, 5)].map(|(n, seed)| rand_mat(n, 6, seed));
        for _ in 0..2 {
            for a in &mats {
                let run = Executor::<f64>::multiply(&mut ex, a, a, &opts).unwrap();
                assert_eq!(run.matrix, spgemm_gustavson(a, a).unwrap(), "f64, n = {}", a.rows());
            }
            for a in mats.iter().map(Csr::<f64>::cast::<f32>) {
                let run = Executor::<f32>::multiply(&mut ex, &a, &a, &opts).unwrap();
                assert_eq!(run.matrix, spgemm_gustavson(&a, &a).unwrap(), "f32, n = {}", a.rows());
            }
        }
    }

    #[test]
    fn kept_staging_is_bounded_by_the_last_walk() {
        let opts = Options::default();
        let (large, small) = (rand_mat(3000, 8, 7), rand_mat(200, 4, 8));
        // One worker, so the dense arrays it charges do not depend on
        // how many workers found a chunk. The walk on `small`, after a
        // walk on `small`...
        let mut warm = HostParallelExecutor::new(1);
        Executor::<f64>::multiply(&mut warm, &small, &small, &opts).unwrap();
        let want = Executor::<f64>::multiply(&mut warm, &small, &small, &opts).unwrap();
        // ...and after one on a product sixty times larger.
        let mut ex = HostParallelExecutor::new(1);
        Executor::<f64>::multiply(&mut ex, &large, &large, &opts).unwrap();
        let held_large = kept_staging(&ex);
        let run = Executor::<f64>::multiply(&mut ex, &small, &small, &opts).unwrap();
        assert_eq!(run.matrix, want.matrix);
        // The report charges what the call staged, whatever came before.
        assert_eq!(run.report.peak_mem_bytes, want.report.peak_mem_bytes);
        // The large walk's staging was trimmed to the small one's need.
        let staged = (4 + 8) * run.matrix.nnz() as u64;
        let held = kept_staging(&ex);
        assert!(held >= staged && held <= STAGING_SLACK * staged, "kept {held} B for {staged} B");
        assert!(held < held_large / 10, "kept {held} B after {held_large} B");
        // A product within the slack keeps the buffers as they are.
        let run = Executor::<f64>::multiply(&mut ex, &large, &large, &opts).unwrap();
        assert_eq!(run.matrix, spgemm_gustavson(&large, &large).unwrap());
        let regrown = kept_staging(&ex);
        Executor::<f64>::multiply(&mut ex, &large, &large, &opts).unwrap();
        assert_eq!(kept_staging(&ex), regrown);
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
        let backend = Executor::<f64>::backend(&ex);
        assert_eq!(backend, Backend::Host { threads: ex.threads() });
    }

    #[test]
    fn thread_resolution_rule() {
        // Explicit request always wins.
        let r = ThreadResolution::resolve(3, Some(16));
        assert_eq!((r.resolved, r.degraded), (3, false));
        let r = ThreadResolution::resolve(3, None);
        assert_eq!((r.resolved, r.degraded), (3, false));
        // Auto uses the detected count.
        let r = ThreadResolution::resolve(0, Some(8));
        assert_eq!((r.resolved, r.degraded), (8, false));
        // Failed detection degrades to 1 — and flags it.
        let r = ThreadResolution::resolve(0, None);
        assert_eq!((r.resolved, r.degraded), (1, true));
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
