//! The simulated-device backend: the paper's pipeline charged to the
//! [`vgpu`] virtual Pascal GPU.
//!
//! This is the pre-refactor `pipeline::multiply` body split along the
//! [`Executor`](crate::Executor) phase boundaries. The device-operation
//! sequence (mallocs, phase transitions, kernel launches, scans,
//! telemetry emits) is preserved *exactly*, so simulated phase times,
//! peak memory, hash-probe counts and every telemetry export stay
//! byte-identical to the monolithic implementation — the plan building
//! that moved out of this file was pure host work the device never saw.

use crate::exec::{prefix_sum, Backend, ColdRecord, Execution, Executor, SymbolicOutput};
use crate::groups::{Assignment, GroupTable};
use crate::hash::{HashTable, ProbeStats};
use crate::host::ThreadResolution;
use crate::kernels::{
    count_products_block_cost, pwarp_block_cost, pwarp_row, tb_block_cost, tb_global_block_cost,
    tb_numeric_row, tb_symbolic_row,
};
use crate::partition::{run_workers, weighted_ranges, JobQueue};
use crate::pipeline::{overflow_err, Error, Options, Result};
use crate::plan::{
    exact_row_products, global_table_size_checked, Estimator, PhasePlan, SpgemmPlan,
};
use sparse::{Csr, Scalar, DEVICE_INDEX_BYTES};
use std::ops::Range;
use vgpu::device::DEFAULT_STREAM;
use vgpu::{primitives, AllocId, Gpu, KernelDesc, MemRange, Phase, SimTime, SpgemmReport};

/// Frees a set of device allocations on drop-equivalent cleanup.
pub(crate) struct OwnedAllocs {
    ids: Vec<AllocId>,
}

impl OwnedAllocs {
    pub(crate) fn new() -> Self {
        OwnedAllocs { ids: Vec::new() }
    }
    pub(crate) fn push(&mut self, id: AllocId) -> AllocId {
        self.ids.push(id);
        id
    }
    pub(crate) fn free_all(&mut self, gpu: &mut Gpu) {
        for id in self.ids.drain(..) {
            gpu.free(id);
        }
    }
}

/// The virtual-GPU backend. Borrows the device for its lifetime; every
/// phase charges kernels to the cost model and feeds the device
/// telemetry, exactly as `pipeline::multiply` always has.
///
/// The functional half of the row kernels runs on one worker thread per
/// available core; the device sees the same operations in the same
/// order at any thread count (DESIGN.md §12).
pub struct SimExecutor<'g> {
    gpu: &'g mut Gpu,
    /// Worker threads for the row kernels.
    threads: usize,
}

impl<'g> SimExecutor<'g> {
    /// Wrap a device. Row kernels run on as many threads as
    /// `available_parallelism()` reports, exactly like
    /// `HostParallelExecutor::new(0)`.
    pub fn new(gpu: &'g mut Gpu) -> Self {
        SimExecutor { gpu, threads: ThreadResolution::detect(0).resolved }
    }
}

impl<T: Scalar> Executor<T> for SimExecutor<'_> {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn plan(&self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<SpgemmPlan> {
        SpgemmPlan::new(self.gpu.config(), a, b, opts)
    }

    /// Standalone numeric phase against a cached symbolic result (the
    /// execution path of [`crate::SymbolicPlan`]): charges the output
    /// malloc + calc device work.
    fn execute_numeric(
        &mut self,
        plan: &SpgemmPlan,
        symbolic: &SymbolicOutput,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<Execution<T>> {
        let gpu = &mut *self.gpu;
        let phase_before = gpu.phase_times();
        let m = a.rows();
        let nnz_c = symbolic.output_nnz();
        gpu.set_phase(Phase::Malloc);
        let c_bytes = DEVICE_INDEX_BYTES * (m as u64 + 1)
            + (DEVICE_INDEX_BYTES + T::BYTES as u64) * nnz_c as u64;
        let c_buf = gpu.malloc(c_bytes, "C")?;
        gpu.set_phase(Phase::Calc);
        let d_c = MemRange { id: c_buf, offset: 0, len: c_bytes };
        let res = run_numeric(gpu, a, b, plan, &symbolic.rpt, Some(d_c), self.threads);
        gpu.set_phase(Phase::Other);
        gpu.free(c_buf);
        let (col_c, val_c, calc_probes) = res?;
        let report = report_from_delta(
            gpu,
            phase_before,
            "proposal (planned)".into(),
            T::PRECISION,
            plan.total_products,
            nnz_c as u64,
            calc_probes,
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "hot-path assembly; rows are sorted by kernel construction"
        )]
        let c = Csr::from_parts_unchecked(m, plan.cols, symbolic.rpt.clone(), col_c, val_c)
            .map_err(|e| Error::invariant(format!("numeric phase assembled malformed C: {e}")))?;
        Ok(Execution { matrix: c, report, wall: None, replans: symbolic.replans, record: None })
    }

    fn telemetry_mut(&mut self) -> Option<&mut obs::Telemetry> {
        self.gpu.telemetry_mut()
    }

    fn device_elapsed_us(&self) -> Option<f64> {
        Some(self.gpu.elapsed().us())
    }

    fn multiply(&mut self, a: &Csr<T>, b: &Csr<T>, opts: &Options) -> Result<Execution<T>> {
        let plan = Executor::<T>::plan(self, a, b, opts)?;
        let mut allocs = OwnedAllocs::new();
        // Open the run span here (not in the inner body) so it closes on
        // error paths too, and make it the ambient parent so every
        // device event of this run lands under it in the span tree.
        let t_run0 = self.gpu.elapsed().us();
        let run_span = self.gpu.telemetry_mut().map(|t| {
            let span = t.span_begin("spgemm", t_run0);
            (span, t.set_parent(Some(span)))
        });
        let res = multiply_inner(self.gpu, plan, a, b, &mut allocs, self.threads);
        allocs.free_all(self.gpu);
        let t_run1 = self.gpu.elapsed().us();
        if let Some((span, prev)) = run_span {
            if let Some(t) = self.gpu.telemetry_mut() {
                t.set_parent(prev);
                t.span_end(span, t_run1);
            }
        }
        match res {
            Ok(out) => Ok(out),
            Err(e) => {
                self.gpu.set_phase(Phase::Other);
                Err(e)
            }
        }
    }
}

/// Assemble a report from the phase-time delta since `phase_before`.
fn report_from_delta(
    gpu: &mut Gpu,
    phase_before: Vec<(Phase, SimTime)>,
    algorithm: String,
    precision: &'static str,
    intermediate_products: u64,
    output_nnz: u64,
    hash_probes: u64,
) -> SpgemmReport {
    let phase_after = gpu.phase_times();
    let phase_times: Vec<(Phase, SimTime)> =
        phase_after.iter().zip(&phase_before).map(|(&(p, t1), &(_, t0))| (p, t1 - t0)).collect();
    let total_time = phase_times.iter().filter(|(p, _)| *p != Phase::Other).map(|&(_, t)| t).sum();
    SpgemmReport {
        algorithm,
        precision,
        total_time,
        phase_times,
        peak_mem_bytes: gpu.peak_mem_bytes(),
        intermediate_products,
        output_nnz,
        hash_probes,
        telemetry: gpu.telemetry_summary(),
    }
}

fn multiply_inner<T: Scalar>(
    gpu: &mut Gpu,
    plan: SpgemmPlan,
    a: &Csr<T>,
    b: &Csr<T>,
    allocs: &mut OwnedAllocs,
    threads: usize,
) -> Result<Execution<T>> {
    let m = a.rows();
    let phase_before = gpu.phase_times();

    // Device inputs; allocation time is outside the measured phases (the
    // paper's breakdown starts at its setup phase).
    let d_a = allocs.push(gpu.malloc(a.device_bytes(), "A")?);
    let d_b = allocs.push(gpu.malloc(b.device_bytes(), "B")?);
    // The host uploads A and B before the measured pipeline starts;
    // sanitizer annotations are zero-cost, so the clock is untouched.
    gpu.san_note_h2d(d_a, 0, a.device_bytes());
    gpu.san_note_h2d(d_b, 0, b.device_bytes());

    // ---------------- Setup: (1) count products, (2) group ----------------
    gpu.set_phase(Phase::Setup);
    let nprod_bytes = DEVICE_INDEX_BYTES * (m as u64 + 1);
    let d_nprod = allocs.push(gpu.malloc(nprod_bytes, "d_nprod")?);
    {
        // Kernel (1): 256 rows per block; Alg. 2 traffic per row under
        // the exact estimator, only the sampled prefix under sampled:K
        // (the planning-cost saving the estimator stage buys).
        let (kernel, per_row_cap) = match plan.opts.estimator {
            Estimator::Exact => ("count_products", usize::MAX),
            Estimator::Sampled { sample } => ("estimate_products", sample.max(1)),
        };
        let mut blocks = Vec::with_capacity(m.div_ceil(256));
        for start in (0..m).step_by(256) {
            let end = (start + 256).min(m);
            let a_elems: u64 = (start..end).map(|r| a.row_nnz(r).min(per_row_cap) as u64).sum();
            blocks.push(count_products_block_cost(gpu, a_elems, (end - start) as u64));
        }
        gpu.launch(
            KernelDesc::new(kernel, DEFAULT_STREAM, 256, 0)
                .reading(d_a, 0, a.device_bytes())
                .reading(d_b, 0, b.device_bytes())
                .writing(d_nprod, 0, nprod_bytes),
            blocks,
        )?;
        if plan.opts.estimator.is_sampled() {
            if let Some(t) = gpu.telemetry_mut() {
                t.emit(
                    obs::Event::new("estimate")
                        .str("estimator", &plan.opts.estimator.to_string())
                        .u64("rows", m as u64),
                );
            }
        }
    }
    // Group arrays (the algorithm's only sizable extra memory, §III-A).
    let grp_bytes = DEVICE_INDEX_BYTES * m as u64;
    let d_grp = allocs.push(gpu.malloc(grp_bytes, "group_rows")?);
    grouping_kernel(
        gpu,
        m,
        Some((
            MemRange { id: d_nprod, offset: 0, len: nprod_bytes },
            MemRange { id: d_grp, offset: 0, len: grp_bytes },
        )),
    )?;

    // ---------------- Count: (3) symbolic hash per group ----------------
    gpu.set_phase(Phase::Count);
    let (nnz_row, count_probes, replans) = run_count(gpu, a, b, &plan, threads)?;
    // (4) scan row counts into the output row pointer.
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64 + 1, DEVICE_INDEX_BYTES as u32)?;
    let rpt_c = prefix_sum(&nnz_row);
    let nnz_c = rpt_c.last().copied().unwrap_or(0);

    // ---------------- Malloc: (5) allocate the output ----------------
    gpu.set_phase(Phase::Malloc);
    let c_bytes =
        DEVICE_INDEX_BYTES * (m as u64 + 1) + (DEVICE_INDEX_BYTES + T::BYTES as u64) * nnz_c as u64;
    let d_c = allocs.push(gpu.malloc(c_bytes, "C")?);

    // ---------------- Calc: (6) regroup, (7) numeric ----------------
    gpu.set_phase(Phase::Calc);
    let c_range = MemRange { id: d_c, offset: 0, len: c_bytes };
    let (col_c, val_c, calc_probes) =
        run_numeric(gpu, a, b, &plan, &rpt_c, Some(c_range), threads)?;
    gpu.set_phase(Phase::Other);
    // Assemble the report from the phase-time delta of this call.
    let report = report_from_delta(
        gpu,
        phase_before,
        "proposal".to_string(),
        T::PRECISION,
        plan.total_products,
        nnz_c as u64,
        count_probes + calc_probes,
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "hot-path assembly; rows are sorted by kernel construction"
    )]
    let c = Csr::from_parts_unchecked(m, b.cols(), rpt_c, col_c, val_c)
        .map_err(|e| Error::invariant(format!("numeric phase assembled malformed C: {e}")))?;
    let record = Some(ColdRecord { plan, count_probes });
    Ok(Execution { matrix: c, report, wall: None, replans, record })
}

/// The symbolic (count) phase: run the per-group hash row kernels from
/// the count-phase bucketing, handle global-table overflow rows, and —
/// under a sampled estimator — replan rows whose padded table still
/// under-sized.
/// Returns the exact nnz of every output row, the total hash-probe
/// steps observed, and the replanned-row count. The caller sets the
/// device phase. The row walks run on up to `threads` workers; every
/// device call is made here, in row order.
pub(crate) fn run_count<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    plan: &SpgemmPlan,
    threads: usize,
) -> Result<(Vec<u32>, u64, u64)> {
    let count = &plan.count;
    let nprod = &count.metric;
    emit_group_summary(gpu, &count.groups, nprod, "count");
    let m = a.rows();
    let mut nnz_row = vec![0u32; m];
    let mut runner = RowRunner::new(gpu, plan, threads);
    let mut total_probes = 0u64;
    let mut count_overflow: Vec<u32> = Vec::new();
    for (gi, spec) in count.groups.groups.iter().enumerate() {
        let rows = &count.rows_by_group[gi];
        if rows.is_empty() {
            continue;
        }
        let stream = plan.stream_for(gi);
        match spec.assignment {
            Assignment::TbRow | Assignment::TbRowGlobal => {
                let stats = runner.map::<T, _>(rows, None, |w, _, r, _| {
                    tb_symbolic_row(a, b, r, spec.table_size, &mut w.table)
                });
                let mut blocks = Vec::with_capacity(rows.len());
                for (&r, s) in rows.iter().zip(&stats) {
                    total_probes += s.probes;
                    if s.overflowed {
                        count_overflow.push(r);
                    } else {
                        nnz_row[r as usize] = s.nnz;
                    }
                    blocks.push(tb_block_cost(gpu, spec, s, None));
                }
                gpu.launch(
                    KernelDesc::new(
                        format!("symbolic_tb_g{gi}"),
                        stream,
                        spec.block_threads,
                        spec.shared_bytes,
                    ),
                    blocks,
                )?;
            }
            Assignment::Pwarp { width } => {
                let stats = runner.map::<T, _>(rows, None, |w, _, r, _| {
                    pwarp_row(a, b, r, width, spec.table_size, &mut w.table, &mut w.lanes, None)
                });
                let rows_per_block = count.groups.pwarp_rows_per_block();
                let mut blocks = Vec::with_capacity(rows.len().div_ceil(rows_per_block));
                for (chunk, stats) in rows.chunks(rows_per_block).zip(stats.chunks(rows_per_block))
                {
                    for (&r, s) in chunk.iter().zip(stats) {
                        // A sampled under-estimate can misplace a fat row
                        // into PWARP; it funnels into the global pass.
                        if s.overflowed {
                            count_overflow.push(r);
                        } else {
                            nnz_row[r as usize] = s.nnz;
                        }
                    }
                    total_probes += stats.iter().map(|s| s.probes).sum::<u64>();
                    blocks.push(pwarp_block_cost(gpu, spec, width, stats, None));
                }
                gpu.launch(
                    KernelDesc::new(
                        format!("symbolic_pwarp_g{gi}"),
                        stream,
                        spec.block_threads,
                        spec.shared_bytes,
                    ),
                    blocks,
                )?;
            }
        }
        drain_probe_stats(gpu, &mut runner, "count", gi);
    }
    // Second pass for rows whose table overflowed shared memory:
    // per-row global tables sized from their intermediate products.
    let mut replans = 0u64;
    if !count_overflow.is_empty() {
        let (replan_rows, probes) = global_count_pass(
            gpu,
            &mut runner,
            (a, b),
            &count_overflow,
            |r| nprod[r],
            ("symbolic_global", "count_global_tables"),
            &mut nnz_row,
        )?;
        total_probes += probes;

        // Third pass (DESIGN.md §16's replan contract): recount the
        // under-estimated rows with tables sized from *exact* products.
        // An exact cap is ≥ 2 × the row's true products ≥ its nnz, so
        // this pass cannot overflow — at most one replan per row.
        if !replan_rows.is_empty() {
            if !plan.opts.estimator.is_sampled() {
                return Err(Error::invariant(
                    "exact-estimator symbolic table overflowed its global capacity",
                ));
            }
            replans = replan_rows.len() as u64;
            let (overflowed, probes) = global_count_pass(
                gpu,
                &mut runner,
                (a, b),
                &replan_rows,
                |r| exact_row_products(a, b, r),
                ("symbolic_replan", "replan_global_tables"),
                &mut nnz_row,
            )?;
            total_probes += probes;
            if !overflowed.is_empty() {
                return Err(Error::invariant("exact-cap replan table overflowed"));
            }
            if let Some(t) = gpu.telemetry_mut() {
                t.emit(obs::Event::new("replan").str("phase", "count").u64("rows", replans));
            }
        }
    }
    Ok((nnz_row, total_probes, replans))
}

/// One global-table pass of the count phase: `rows` each get a table
/// sized from `products(row)` — checked capacities, then malloc under
/// `tag`, memset, row walk, launch of `kernel`, free and probe drain.
/// The table is freed on every exit, so an injected memset or launch
/// fault cannot leak it. Every row that fits its table gets its nnz in
/// `nnz_row`; returns the rows that still overflowed (only possible
/// when `products` is a sampled under-estimate) and the probe steps
/// observed. The group-0 overflow pass and the sampled replan pass are
/// this one sequence with different capacities and names.
fn global_count_pass<T: Scalar>(
    gpu: &mut Gpu,
    runner: &mut RowRunner<'_>,
    (a, b): (&Csr<T>, &Csr<T>),
    rows: &[u32],
    products: impl Fn(usize) -> usize,
    (kernel, tag): (&str, &str),
    nnz_row: &mut [u32],
) -> Result<(Vec<u32>, u64)> {
    // Capacities up front (the `?` must run before the malloc).
    let mut caps = Vec::with_capacity(rows.len());
    for &r in rows {
        caps.push(
            global_table_size_checked(products(r as usize))
                .ok_or_else(|| overflow_err("global hash-table size"))?,
        );
    }
    let table_bytes: u64 = caps.iter().map(|&c| DEVICE_INDEX_BYTES * c as u64).sum();
    let gt = gpu.malloc(table_bytes, tag)?;
    let memset_res = primitives::memset(gpu, DEFAULT_STREAM, table_bytes);
    if memset_res.is_ok() {
        gpu.san_note_memset(gt, 0, table_bytes);
    }
    let stats = runner
        .map::<T, _>(rows, None, |w, i, r, _| tb_symbolic_row(a, b, r, caps[i], &mut w.table));
    let mut blocks = Vec::with_capacity(rows.len());
    let (mut overflowed, mut probes) = (Vec::new(), 0u64);
    for ((&r, &cap), s) in rows.iter().zip(&caps).zip(&stats) {
        probes += s.probes;
        if s.overflowed {
            overflowed.push(r);
        } else {
            nnz_row[r as usize] = s.nnz;
        }
        blocks.push(tb_global_block_cost(gpu, s, cap, None));
    }
    let launch_res = memset_res.and_then(|()| {
        gpu.launch(
            KernelDesc::new(kernel, DEFAULT_STREAM, gpu.config().max_threads_per_block, 0)
                .reading(gt, 0, table_bytes)
                .writing(gt, 0, table_bytes),
            blocks,
        )
    });
    gpu.free(gt); // synchronizes; the table only lives through the pass
    launch_res?;
    // Both passes re-run group-0-scale rows with global tables.
    drain_probe_stats(gpu, runner, "count", 0);
    Ok((overflowed, probes))
}

/// The numeric (calc) phase: regroup rows by output nnz via the plan,
/// run the per-group value kernels (shared, global and PWARP variants),
/// producing the output column/value arrays plus the total hash-probe
/// steps observed. The caller sets the device phase. The row walks run
/// on up to `threads` workers; every device call is made here, in row
/// order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_numeric<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    plan: &SpgemmPlan,
    rpt_c: &[usize],
    d_c: Option<MemRange>,
    threads: usize,
) -> Result<(Vec<u32>, Vec<T>, u64)> {
    let m = a.rows();
    let nnz_c = rpt_c.last().copied().unwrap_or(0);
    let mut runner = RowRunner::new(gpu, plan, threads);
    let mut total_probes = 0u64;
    let numeric: PhasePlan = plan.numeric_phase(rpt_c)?;
    emit_group_summary(gpu, &numeric.groups, &numeric.metric, "calc");
    grouping_kernel(gpu, m, None)?;
    // Each numeric group kernel scatters into its rows' slice of C;
    // annotating the whole output range per launch is coarse but sound
    // (writes only mark initialization, they cannot false-positive).
    let write_c = |desc: KernelDesc| match d_c {
        Some(c) => desc.writing(c.id, c.offset, c.len),
        None => desc,
    };

    let mut col_c = vec![0u32; nnz_c];
    let mut val_c = vec![T::ZERO; nnz_c];
    for (gi, spec) in numeric.groups.groups.iter().enumerate() {
        let rows = &numeric.rows_by_group[gi];
        if rows.is_empty() {
            continue;
        }
        let stream = plan.stream_for(gi);
        let out = Some((rpt_c, &mut col_c[..], &mut val_c[..]));
        match spec.assignment {
            Assignment::TbRow => {
                let stats = runner.map(rows, out, |w, _, r, (cols, vals)| {
                    tb_numeric_row(a, b, r, spec.table_size, &mut w.table, cols, vals)
                });
                total_probes += stats.iter().map(|s| s.probes).sum::<u64>();
                let blocks =
                    stats.iter().map(|s| tb_block_cost(gpu, spec, s, Some(T::BYTES))).collect();
                gpu.launch(
                    write_c(KernelDesc::new(
                        format!("numeric_tb_g{gi}"),
                        stream,
                        spec.block_threads,
                        spec.shared_bytes,
                    )),
                    blocks,
                )?;
            }
            Assignment::TbRowGlobal => {
                // The numeric metric is the exact symbolic nnz, so the
                // checked size was validated at phase construction.
                let table_bytes: u64 = rows
                    .iter()
                    .map(|&r| {
                        (DEVICE_INDEX_BYTES + T::BYTES as u64)
                            * numeric.table_size_for(r as usize) as u64
                    })
                    .sum();
                let gt = gpu.malloc(table_bytes, "numeric_global_tables")?;
                // As in the count phase: free the table on every exit
                // so injected faults cannot leak it.
                let memset_res = primitives::memset(gpu, stream, table_bytes);
                if memset_res.is_ok() {
                    gpu.san_note_memset(gt, 0, table_bytes);
                }
                let stats = runner.map(rows, out, |w, _, r, (cols, vals)| {
                    tb_numeric_row(a, b, r, numeric.table_size_for(r), &mut w.table, cols, vals)
                });
                total_probes += stats.iter().map(|s| s.probes).sum::<u64>();
                let blocks = rows
                    .iter()
                    .zip(&stats)
                    .map(|(&r, s)| {
                        let cap = numeric.table_size_for(r as usize);
                        tb_global_block_cost(gpu, s, cap, Some(T::BYTES))
                    })
                    .collect();
                let launch_res = memset_res.and_then(|()| {
                    gpu.launch(
                        write_c(KernelDesc::new(
                            format!("numeric_global_g{gi}"),
                            stream,
                            spec.block_threads,
                            0,
                        ))
                        .reading(gt, 0, table_bytes)
                        .writing(gt, 0, table_bytes),
                        blocks,
                    )
                });
                gpu.free(gt);
                launch_res?;
            }
            Assignment::Pwarp { width } => {
                let stats = runner.map(rows, out, |w, _, r, out| {
                    pwarp_row(
                        a,
                        b,
                        r,
                        width,
                        spec.table_size,
                        &mut w.table,
                        &mut w.lanes,
                        Some(out),
                    )
                });
                total_probes += stats.iter().map(|s| s.probes).sum::<u64>();
                let rows_per_block = numeric.groups.pwarp_rows_per_block();
                let blocks = stats
                    .chunks(rows_per_block)
                    .map(|block| pwarp_block_cost(gpu, spec, width, block, Some(T::BYTES)))
                    .collect();
                gpu.launch(
                    write_c(KernelDesc::new(
                        format!("numeric_pwarp_g{gi}"),
                        stream,
                        spec.block_threads,
                        spec.shared_bytes,
                    )),
                    blocks,
                )?;
            }
        }
        drain_probe_stats(gpu, &mut runner, "calc", gi);
    }
    Ok((col_c, val_c, total_probes))
}

/// Intermediate products each worker needs before a group's rows are
/// split across threads: below `threads × PRODUCTS_PER_WORKER` products
/// a group runs on fewer workers, and below two workers' worth on the
/// calling thread, so small jobs spawn no threads. On one core of a
/// 2-core Xeon VM a whole sim multiply costs 15–86 ns per product
/// (`A²` of the five Table II analogues at repro scale), so a worker's
/// 2^16 products stand for about 1–6 ms, while a scoped spawn and join
/// of one or two workers took 27–65 µs: a spawn costs at most a few
/// percent of the work it carries. Unit tests split every group that
/// has work, so small inputs drive the threaded path.
const PRODUCTS_PER_WORKER: usize = if cfg!(test) { 1 } else { 1 << 16 };

/// Chunks cut per worker: enough for the pull queue to rebalance skewed
/// rows, few enough to amortize its lock.
const CHUNKS_PER_WORKER: usize = 8;

/// A worker's row-kernel state, reused across the rows it pulls: its own
/// hash table (probe observer included) and PWARP lane counts.
struct RowWorker<T> {
    table: HashTable<T>,
    /// PWARP per-lane step counts.
    lanes: Vec<u64>,
}

/// A row's slice of the output: `(columns, values)`, empty in the count
/// phase.
type RowOut<'o, T> = (&'o mut [u32], &'o mut [T]);

/// Runs the functional half of a phase's row kernels on up to `threads`
/// workers and collects the hash tables' probe observations between
/// drains. Which worker walks which row cannot show in the results: each
/// row's stats land in its own slot, output rows are disjoint, and probe
/// histograms merge exactly.
struct RowRunner<'p> {
    threads: usize,
    /// Row weights (intermediate products) for the work split.
    weight: &'p [usize],
    scramble: bool,
    observe: bool,
    probes: Option<ProbeStats>,
}

impl<'p> RowRunner<'p> {
    fn new(gpu: &Gpu, plan: &'p SpgemmPlan, threads: usize) -> Self {
        RowRunner {
            threads: threads.max(1),
            weight: &plan.count.metric,
            scramble: plan.opts.use_mul_hash,
            observe: gpu.telemetry_enabled(),
            probes: None,
        }
    }

    /// Run `kernel(worker, i, rows[i], out)` for every `i`, returning
    /// the stats in `rows` order. With `out = Some((rpt, cols, vals))`
    /// — `rows` ascending — each row receives its `rpt` span of
    /// `cols`/`vals`; otherwise empty slices.
    fn map<T: Scalar, S: Default + Clone + Send>(
        &mut self,
        rows: &[u32],
        out: Option<(&[usize], &mut [u32], &mut [T])>,
        kernel: impl Fn(&mut RowWorker<T>, usize, usize, RowOut<'_, T>) -> S + Sync,
    ) -> Vec<S> {
        debug_assert!(out.is_none() || rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        let weight = |&r: &u32| self.weight[r as usize];
        let products = rows.iter().map(weight).fold(0usize, usize::saturating_add);
        let workers = self.threads.min(products / PRODUCTS_PER_WORKER).max(1);
        let ranges: Vec<Range<usize>> = if workers == 1 {
            std::iter::once(0..rows.len()).collect()
        } else {
            let w: Vec<usize> = rows.iter().map(weight).collect();
            weighted_ranges(&w, workers * CHUNKS_PER_WORKER)
        };
        // Cut the stats and (numeric) the output into one disjoint slice
        // per range; a range's rows ascend, so its output rows sit in
        // one span that the next range's span starts after.
        let mut stats = vec![S::default(); rows.len()];
        let (rpt, mut cols, mut vals) = match out {
            Some((rpt, cols, vals)) => (Some(rpt), cols, vals),
            None => (None, Default::default(), Default::default()),
        };
        let span = |range: &Range<usize>| match (rpt, range.is_empty()) {
            (Some(rpt), false) => {
                rpt[rows[range.start] as usize]..rpt[rows[range.end - 1] as usize + 1]
            }
            _ => 0..0,
        };
        let mut jobs = Vec::with_capacity(ranges.len());
        let (mut st_rest, mut pos) = (&mut stats[..], 0);
        for range in ranges {
            let sp = span(&range);
            let (st, st_tail) = st_rest.split_at_mut(range.len());
            st_rest = st_tail;
            let (_, c_tail) = cols.split_at_mut(sp.start - pos);
            let (c, c_tail) = c_tail.split_at_mut(sp.len());
            let (_, v_tail) = vals.split_at_mut(sp.start - pos);
            let (v, v_tail) = v_tail.split_at_mut(sp.len());
            (cols, vals, pos) = (c_tail, v_tail, sp.end);
            jobs.push((range, st, c, v, sp.start));
        }
        let queue = JobQueue::new(jobs);
        let work = || {
            let mut w = RowWorker { table: HashTable::new(1024, self.scramble), lanes: Vec::new() };
            w.table.observe_probes(self.observe);
            while let Some((range, st, cols, vals, base)) = queue.next() {
                for (slot, i) in st.iter_mut().zip(range) {
                    let r = rows[i] as usize;
                    let row = rpt.map_or(0..0, |rpt| rpt[r] - base..rpt[r + 1] - base);
                    *slot = kernel(&mut w, i, r, (&mut cols[row.clone()], &mut vals[row]));
                }
            }
            w.table.take_probe_stats()
        };
        let observed = if workers == 1 { vec![work()] } else { run_workers(workers, work) };
        for p in observed.into_iter().flatten() {
            match &mut self.probes {
                Some(acc) => acc.merge(&p),
                None => self.probes = Some(p),
            }
        }
        stats
    }

    /// Take the probe observations since the last take: `None` when
    /// telemetry (and hence observation) is off, as
    /// [`HashTable::take_probe_stats`].
    fn take_probe_stats(&mut self) -> Option<ProbeStats> {
        let taken = self.probes.take();
        self.observe.then(|| taken.unwrap_or_default())
    }
}

/// Drain the row runner's probe observations into the device telemetry
/// under `{phase}.g{gi}.*` histogram names (no-op when telemetry and
/// hence the observer are off).
fn drain_probe_stats(gpu: &mut Gpu, runner: &mut RowRunner<'_>, phase: &str, gi: usize) {
    if let Some(stats) = runner.take_probe_stats() {
        if let Some(t) = gpu.telemetry_mut() {
            t.registry.hist_merge(&format!("{phase}.g{gi}.probe_len"), &stats.probe_len);
            t.registry.hist_merge(&format!("{phase}.g{gi}.row_occupancy"), &stats.row_occupancy);
            t.registry.hist_merge(&format!("{phase}.g{gi}.load_permille"), &stats.load_permille);
        }
    }
}

/// Emit one `group` event per group plus per-group row-metric
/// histograms (no-op when telemetry is off).
fn emit_group_summary(gpu: &mut Gpu, groups: &GroupTable, metric: &[usize], phase: &str) {
    if !gpu.telemetry_enabled() {
        return;
    }
    let occ = groups.summarize(metric);
    if let Some(t) = gpu.telemetry_mut() {
        for o in &occ {
            t.emit(
                obs::Event::new("group")
                    .str("phase", phase)
                    .u64("group", o.id as u64)
                    .u64("rows", o.rows)
                    .u64("metric_total", o.metric_total),
            );
            t.registry.counter_add(&format!("{phase}.g{}.rows", o.id), o.rows);
            t.registry.hist_merge(&format!("{phase}.g{}.row_metric", o.id), &o.metric_hist);
        }
    }
}

/// Device cost of one grouping pass: read the per-row metric, histogram,
/// scan, scatter row indices (≈ two reads + one write of 4 B per row).
/// `san` optionally names the (metric, group-rows) device ranges so the
/// sanitizer can check the pass when those buffers have device ids.
pub(crate) fn grouping_kernel(
    gpu: &mut Gpu,
    m: usize,
    san: Option<(MemRange, MemRange)>,
) -> Result<()> {
    let n = gpu.config().num_sms * 4;
    let per_block_bytes = 12.0 * m as f64 / n as f64;
    let blocks = vec![
        {
            let mut c = gpu.block_cost();
            c.global_coalesced(per_block_bytes);
            c.compute(m as f64 / 32.0 / n as f64 * 3.0);
            c.finish()
        };
        n
    ];
    let mut desc = KernelDesc::new("grouping", DEFAULT_STREAM, 256, 0);
    if let Some((metric, out)) = san {
        desc =
            desc.reading(metric.id, metric.offset, metric.len).writing(out.id, out.offset, out.len);
    }
    gpu.launch(desc, blocks)?;
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64, DEVICE_INDEX_BYTES as u32)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceConfig;

    /// Everything a run exposes that must not depend on the worker count.
    #[derive(Debug, PartialEq)]
    struct Observed {
        rpt: Vec<usize>,
        col: Vec<u32>,
        val_bits: Vec<u64>,
        total_time_bits: u64,
        phase_time_bits: Vec<(Phase, u64)>,
        peak_mem_bytes: u64,
        hash_probes: u64,
        replans: u64,
        telemetry: Option<obs::Summary>,
        events_jsonl: String,
    }

    /// `A · B` on a fresh telemetry-enabled P100 with `threads` row
    /// workers, once through `multiply` and once through the numeric
    /// phase replaying the plan that `multiply` recorded.
    fn observe(a: &Csr<f64>, b: &Csr<f64>, opts: &Options, threads: usize) -> [Observed; 2] {
        let mut gpu = Gpu::new(DeviceConfig::p100());
        gpu.enable_telemetry();
        let mut exec = SimExecutor { gpu: &mut gpu, threads };
        let mut whole = exec.multiply(a, b, opts).unwrap();
        let plan = crate::SymbolicPlan::from_run(&mut whole, 0, 0).unwrap();
        let split = exec.execute_numeric(plan.plan(), plan.symbolic(), a, b).unwrap();
        let events_jsonl = gpu.telemetry().map(|t| t.to_jsonl()).unwrap_or_default();
        assert_eq!(gpu.live_mem_bytes(), 0);
        [whole, split].map(|run| Observed {
            rpt: run.matrix.rpt().to_vec(),
            col: run.matrix.col().to_vec(),
            val_bits: run.matrix.val().iter().map(|v| v.to_bits()).collect(),
            total_time_bits: run.report.total_time.secs().to_bits(),
            phase_time_bits: run
                .report
                .phase_times
                .iter()
                .map(|&(p, t)| (p, t.secs().to_bits()))
                .collect(),
            peak_mem_bytes: run.report.peak_mem_bytes,
            hash_probes: run.report.hash_probes,
            replans: run.replans,
            telemetry: run.report.telemetry,
            events_jsonl: events_jsonl.clone(),
        })
    }

    fn assert_thread_invariant(what: &str, a: &Csr<f64>, b: &Csr<f64>, opts: &Options) -> u64 {
        let one = observe(a, b, opts, 1);
        for threads in [2, 7] {
            assert!(one == observe(a, b, opts, threads), "{what}: 1 vs {threads} workers differ");
        }
        let c_ref = sparse::spgemm_ref::spgemm_gustavson(a, b).unwrap();
        assert_eq!(one[0].rpt, c_ref.rpt(), "{what}: wrong structure");
        assert_eq!(one[0].col, c_ref.col(), "{what}: wrong structure");
        one[0].replans
    }

    fn power_law(rows: usize, avg: f64, max: usize, seed: u64) -> Csr<f64> {
        matgen::generators::power_law(rows, avg, max, 1.1, 0.5, 32, seed)
    }

    #[test]
    fn power_law_is_thread_count_invariant() {
        let a = power_law(1500, 8.0, 300, 3);
        assert_thread_invariant("power-law A²", &a, &a, &Options::default());
    }

    #[test]
    fn group0_global_rows_are_thread_count_invariant() {
        // Rows 0..4 each select three dense B-rows: more output columns
        // than the largest shared table, so both phases run them in
        // global-memory tables.
        let n = 9000;
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        for r in 0..4usize {
            for k in 0..3u32 {
                ta.push((r, k + r as u32, 1.0 + k as f64));
            }
        }
        for r in 0..8usize {
            for c in (r % 2..n).step_by(2) {
                tb.push((r, c as u32, 1.0 + (c % 7) as f64 * 0.5));
            }
        }
        for r in 8..n {
            ta.push((r, r as u32, 0.5));
            ta.push((r, ((r * 7) % n) as u32, -1.5));
            tb.push((r, ((r * 3) % n) as u32, 2.0));
        }
        let a = Csr::from_triplets(n, n, &ta).unwrap();
        let b = Csr::from_triplets(n, n, &tb).unwrap();
        let plan = SpgemmPlan::new(&DeviceConfig::p100(), &a, &b, &Options::default()).unwrap();
        assert!(plan.count.groups.groups[0].assignment == Assignment::TbRowGlobal);
        assert!(plan.count.rows_by_group[0].len() >= 4, "test needs group-0 rows");
        assert_thread_invariant("group-0 rows", &a, &b, &Options::default());
    }

    #[test]
    fn sampled_replans_are_thread_count_invariant() {
        let opts = Options { estimator: Estimator::Sampled { sample: 2 }, ..Options::default() };
        let replans: u64 = (0..4)
            .map(|seed| {
                let a = power_law(512, 8.0, 256, seed);
                assert_thread_invariant("sampled:2", &a, &a, &opts)
            })
            .sum();
        assert!(replans > 0, "test needs replanned rows");
    }
}
