//! cuSPARSE baseline: Demouth's two-phase hash SpGEMM (§V, \[18\]).
//!
//! "The SpGEMM kernel of cuSPARSE allocates hash table on shared memory
//! and global memory. If the insertion to the hash table on shared
//! memory does not succeed, the algorithm tries for global memory. This
//! algorithm causes many random global memory access and do not
//! efficiently utilize fast shared memory" (§V).
//!
//! Modeled accordingly:
//!
//! * one warp per row, **no grouping** — a fixed launch shape regardless
//!   of row size, so irregular matrices create heavy load imbalance
//!   (Table III: 0.028 GFLOPS on cit-Patents);
//! * a fixed-size shared hash table per warp ([`SHARED_TABLE_SIZE`]);
//!   inserts that do not fit spill into a per-row global-memory table
//!   with global atomics — the "many random global memory access";
//! * global overflow tables are allocated for every row whose
//!   *intermediate product* count exceeds the shared table, which is why
//!   cuSPARSE's footprint (the Figure 4 baseline) sits above the
//!   proposal's;
//! * two phases, exactly like the proposal: count, output malloc, then
//!   numeric with a final in-table sort.

use crate::common::{check_dims, finish_report, phase_snapshot, Allocs};
use nsparse_core::hash::{HashTable, Insert};
use nsparse_core::pipeline::Result;
use sparse::spgemm_ref::row_intermediate_products;
use sparse::{Csr, Scalar};
use vgpu::device::DEFAULT_STREAM;
use vgpu::{primitives, BlockCost, Gpu, KernelDesc, Phase, SpgemmReport};

/// Entries of the per-warp shared-memory hash table. Demouth's kernels
/// used small per-warp tables; 512 keys (2 KB) keeps 8 warps per block
/// within the 16 KB shared-memory budget of the original design.
pub const SHARED_TABLE_SIZE: usize = 512;

/// Warps (rows) per thread block.
const WARPS_PER_BLOCK: usize = 8;

/// Probe budget in the shared table before an insert spills to global
/// memory ("if the insertion to the hash table on shared memory does not
/// succeed, the algorithm tries for global memory", §V).
const MAX_SHARED_PROBES: usize = 24;

/// Per-row pipeline cost of the production `csrgemm` (issue slots per
/// phase): the library's generic row machinery — global table set-up,
/// work descriptors, uncoalesced metadata — dominates tiny rows, which
/// is why cuSPARSE lands near the bottom of the paper's low-throughput
/// figure. Calibrated against Figure 2b.
const ROW_PIPELINE_SLOTS: f64 = 2500.0;

/// Per-row observed work for one phase.
struct RowWork {
    products: u64,
    chunks: u64,
    shared_probes: u64,
    global_inserts: u64,
    global_probes: u64,
    nnz: u32,
    a_len: u64,
}

/// Walk one row: shared table first, global table for what overflows.
#[allow(clippy::too_many_arguments)]
fn row_pass<T: Scalar>(
    a: &Csr<T>,
    b: &Csr<T>,
    row: usize,
    shared: &mut HashTable<T>,
    global: &mut HashTable<T>,
    global_cap: usize,
    numeric: bool,
    out: Option<(&mut [u32], &mut [T])>,
) -> RowWork {
    shared.reset(SHARED_TABLE_SIZE);
    global.reset(global_cap);
    let (acols, avals) = a.row(row);
    let mut w = RowWork {
        products: 0,
        chunks: 0,
        shared_probes: 0,
        global_inserts: 0,
        global_probes: 0,
        nnz: 0,
        a_len: acols.len() as u64,
    };
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        w.products += bcols.len() as u64;
        w.chunks += bcols.len().div_ceil(32) as u64;
        for (&j, &bv) in bcols.iter().zip(bvals) {
            let r = if numeric {
                shared.insert_bounded_numeric(j, av * bv, MAX_SHARED_PROBES)
            } else {
                shared.insert_bounded_symbolic(j, MAX_SHARED_PROBES)
            };
            if r == Insert::Overflow {
                w.global_inserts += 1;
                if numeric {
                    global.insert_numeric(j, av * bv);
                } else {
                    global.insert_symbolic(j);
                }
            }
        }
    }
    w.shared_probes = shared.take_probes();
    w.global_probes = global.take_probes();
    w.nnz = (shared.occupied() + global.occupied()) as u32;
    if let Some((oc, ov)) = out {
        // Merge the two tables' sorted contents (device: gather both,
        // sort; values for a key live in exactly one table).
        let (c1, v1) = shared.extract_sorted();
        let (c2, v2) = global.extract_sorted();
        let (mut i, mut j, mut o) = (0, 0, 0);
        while i < c1.len() || j < c2.len() {
            let take1 = j >= c2.len() || (i < c1.len() && c1[i] < c2[j]);
            if take1 {
                oc[o] = c1[i];
                ov[o] = v1[i];
                i += 1;
            } else {
                oc[o] = c2[j];
                ov[o] = v2[j];
                j += 1;
            }
            o += 1;
        }
        debug_assert_eq!(o, w.nnz as usize);
    }
    w
}

/// Charge one row-warp's work; rows are packed [`WARPS_PER_BLOCK`] per
/// block, so the block cost is the sum over its rows.
fn charge_row(gpu: &Gpu, w: &RowWork, value_bytes: Option<usize>) -> BlockCost {
    let mut c = gpu.block_cost();
    c.compute(ROW_PIPELINE_SLOTS);
    // Shared table init + A loads + coalesced B traffic.
    c.shared_access(SHARED_TABLE_SIZE as f64 / 32.0);
    c.global_random(w.a_len as f64 * 2.0, 4.0);
    let elem = 4.0 + value_bytes.unwrap_or(0) as f64;
    c.global_coalesced(w.products as f64 * elem);
    c.compute(w.chunks as f64 * 2.0);
    let shared_excess = w.shared_probes.saturating_sub(w.products) as f64;
    c.shared_atomic(w.chunks as f64, shared_excess / 32.0 * 4.0);
    // Global overflow: every spilled insert is a global atomic plus its
    // probe chain in DRAM — "many random global memory access".
    c.global_atomic(w.global_inserts as f64, elem);
    c.global_random(w.global_probes as f64, elem);
    if let Some(vb) = value_bytes {
        let nnz = w.nnz as f64;
        let shared_part = nnz.min(SHARED_TABLE_SIZE as f64);
        // Gather both tables, count-sort shared part, merge global part.
        c.shared_access(SHARED_TABLE_SIZE as f64 / 32.0 + shared_part * shared_part / 32.0);
        // (the shared part is at most 256 wide, the quadratic term is fine)
        let global_part = nnz - shared_part;
        if global_part > 0.0 {
            let logn = global_part.max(2.0).log2();
            c.global_random(global_part * logn * logn / 32.0, 4.0 + vb as f64);
        }
        c.global_coalesced(nnz * (4.0 + vb as f64));
    } else {
        c.global_random(1.0, 4.0);
    }
    c.finish()
}

/// cuSPARSE-like SpGEMM `C = A * B` on the virtual device.
pub fn multiply<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
) -> Result<(Csr<T>, SpgemmReport)> {
    let mut allocs = Allocs::new();
    let res = multiply_inner(gpu, a, b, &mut allocs);
    allocs.free_all(gpu);
    if res.is_err() {
        gpu.set_phase(Phase::Other);
    }
    res
}

fn multiply_inner<T: Scalar>(
    gpu: &mut Gpu,
    a: &Csr<T>,
    b: &Csr<T>,
    allocs: &mut Allocs,
) -> Result<(Csr<T>, SpgemmReport)> {
    check_dims(a, b)?;
    let m = a.rows();
    let before = phase_snapshot(gpu);
    let nprod = row_intermediate_products(a, b)?;
    let ip: u64 = nprod.iter().map(|&x| x as u64).sum();

    allocs.push(gpu.malloc(a.device_bytes(), "A")?);
    allocs.push(gpu.malloc(b.device_bytes(), "B")?);

    // Global overflow tables for every row whose product count exceeds
    // the shared table. The count phase stores bare 4-byte keys and caps
    // each table (re-hashing in segments beyond the cap), so its pool is
    // `4 × min(next_pow2(2·products), COUNT_TABLE_CAP)` per row.
    let global_cap_of = |products: usize| {
        if products > SHARED_TABLE_SIZE {
            (2 * products).next_power_of_two()
        } else {
            // A minimal table still exists so the kernel has somewhere
            // to spill hash-unlucky rows; it is shared-table sized.
            SHARED_TABLE_SIZE
        }
    };
    const COUNT_TABLE_CAP: usize = 16_384;
    let count_pool_bytes: u64 = nprod
        .iter()
        .filter(|&&p| p > SHARED_TABLE_SIZE)
        .map(|&p| global_cap_of(p).min(COUNT_TABLE_CAP) as u64 * 4)
        .sum();

    // --- Count phase ---
    gpu.set_phase(Phase::Count);
    allocs.push(gpu.malloc(4 * (m as u64 + 1), "row_nnz")?);
    let count_pool = allocs.push(gpu.malloc(count_pool_bytes, "count_hash_pool")?);
    primitives::memset(gpu, DEFAULT_STREAM, count_pool_bytes)?;

    let mut shared = HashTable::<T>::new(SHARED_TABLE_SIZE, true);
    let mut global = HashTable::<T>::new(SHARED_TABLE_SIZE, true);
    let mut nnz_row = vec![0u32; m];
    let mut total_probes = 0u64;
    {
        let mut blocks = Vec::with_capacity(m.div_ceil(WARPS_PER_BLOCK));
        let mut acc = BlockCost::default();
        for row in 0..m {
            let w = row_pass(
                a,
                b,
                row,
                &mut shared,
                &mut global,
                global_cap_of(nprod[row]),
                false,
                None,
            );
            nnz_row[row] = w.nnz;
            total_probes += w.shared_probes + w.global_probes;
            let c = charge_row(gpu, &w, None);
            acc.slots += c.slots;
            acc.dram_bytes += c.dram_bytes;
            if (row + 1) % WARPS_PER_BLOCK == 0 || row + 1 == m {
                blocks.push(acc);
                acc = BlockCost::default();
            }
        }
        gpu.launch(
            KernelDesc::new(
                "cusparse_count",
                DEFAULT_STREAM,
                WARPS_PER_BLOCK * 32,
                SHARED_TABLE_SIZE * 4 * WARPS_PER_BLOCK,
            ),
            blocks,
        )?;
    }
    primitives::exclusive_scan(gpu, DEFAULT_STREAM, m as u64 + 1, 4)?;
    let rpt_c: Vec<usize> = std::iter::once(0usize)
        .chain(nnz_row.iter().scan(0usize, |s, &n| {
            *s += n as usize;
            Some(*s)
        }))
        .collect();
    let nnz_c = *rpt_c.last().unwrap();

    // --- Output malloc ---
    gpu.set_phase(Phase::Malloc);
    allocs.push(gpu.malloc(4 * (m as u64 + 1) + (4 + T::BYTES as u64) * nnz_c as u64, "C")?);

    // --- Numeric phase ---
    // The key+value tables are sized from the counted nnz of each row
    // (that is the point of the two-phase design); the count-phase pool
    // is released first.
    gpu.set_phase(Phase::Calc);
    allocs.free_now(gpu, count_pool);
    let numeric_pool_bytes: u64 = nnz_row
        .iter()
        .filter(|&&n| n as usize > SHARED_TABLE_SIZE)
        .map(|&n| (2 * n as u64).next_power_of_two() * (4 + T::BYTES as u64))
        .sum();
    allocs.push(gpu.malloc(numeric_pool_bytes, "numeric_hash_pool")?);
    primitives::memset(gpu, DEFAULT_STREAM, numeric_pool_bytes)?;
    let mut col_c = vec![0u32; nnz_c];
    let mut val_c = vec![T::ZERO; nnz_c];
    {
        let mut blocks = Vec::with_capacity(m.div_ceil(WARPS_PER_BLOCK));
        let mut acc = BlockCost::default();
        for row in 0..m {
            let span = rpt_c[row]..rpt_c[row + 1];
            let (head, tail) = col_c.split_at_mut(span.start);
            let _ = head;
            let oc = &mut tail[..span.len()];
            let ov = &mut val_c[span.clone()];
            let w = row_pass(
                a,
                b,
                row,
                &mut shared,
                &mut global,
                global_cap_of(nprod[row]),
                true,
                Some((oc, ov)),
            );
            total_probes += w.shared_probes + w.global_probes;
            let c = charge_row(gpu, &w, Some(T::BYTES));
            acc.slots += c.slots;
            acc.dram_bytes += c.dram_bytes;
            if (row + 1) % WARPS_PER_BLOCK == 0 || row + 1 == m {
                blocks.push(acc);
                acc = BlockCost::default();
            }
        }
        gpu.launch(
            KernelDesc::new(
                "cusparse_numeric",
                DEFAULT_STREAM,
                WARPS_PER_BLOCK * 32,
                SHARED_TABLE_SIZE * (4 + T::BYTES) * WARPS_PER_BLOCK,
            ),
            blocks,
        )?;
    }

    let report =
        finish_report(gpu, &before, "cusparse", T::PRECISION, ip, nnz_c as u64, total_probes);
    #[expect(
        clippy::disallowed_methods,
        reason = "hot-path assembly; rows sorted by the merge kernel"
    )]
    let c = Csr::from_parts_unchecked(m, b.cols(), rpt_c, col_c, val_c)?;
    Ok((c, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::spgemm_ref::spgemm_gustavson;
    use vgpu::DeviceConfig;

    fn rand_mat(n: usize, deg: usize, seed: u64) -> Csr<f64> {
        let mut s = seed;
        let mut t = Vec::new();
        for r in 0..n {
            for _ in 0..deg {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t.push((r, ((s >> 33) as usize % n) as u32, 1.0 + (s % 7) as f64));
            }
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn result_matches_reference() {
        let a = rand_mat(400, 7, 3);
        let mut g = Gpu::new(DeviceConfig::p100());
        let (c, _) = multiply(&mut g, &a, &a).unwrap();
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        assert_eq!(c.rpt(), c_ref.rpt());
        assert_eq!(c.col(), c_ref.col());
        assert!(c.approx_eq(&c_ref, 1e-12, 1e-12));
        assert_eq!(g.live_mem_bytes(), 0);
    }

    #[test]
    fn overflow_rows_handled_correctly() {
        // Rows wider than the shared table must still merge exactly.
        let n = 3000;
        let mut t = Vec::new();
        for r in 0..4usize {
            for c in 0..n {
                t.push((r, c as u32, 1.0));
            }
        }
        for r in 4..n {
            t.push((r, (r % n) as u32, 2.0));
        }
        let a = Csr::from_triplets(n, n, &t).unwrap();
        let c_ref = spgemm_gustavson(&a, &a).unwrap();
        assert!(c_ref.row_nnz(0) > SHARED_TABLE_SIZE);
        let mut g = Gpu::new(DeviceConfig::p100());
        let (c, _) = multiply(&mut g, &a, &a).unwrap();
        assert_eq!(c.rpt(), c_ref.rpt());
        assert!(c.approx_eq(&c_ref, 1e-12, 1e-12));
    }

    #[test]
    fn memory_includes_overflow_tables() {
        let a = rand_mat(1500, 30, 5); // products/row ~900 > 512
        let mut g = Gpu::new(DeviceConfig::p100());
        let (_, r) = multiply(&mut g, &a, &a).unwrap();
        // Peak must exceed inputs + output by the overflow tables.
        let io = 2 * a.device_bytes() + r.output_nnz * 12;
        assert!(r.peak_mem_bytes > io, "peak {} io {}", r.peak_mem_bytes, io);
    }

    #[test]
    fn irregular_rows_cause_load_imbalance() {
        // A handful of massive rows + many tiny rows vs. a balanced
        // matrix with MORE intermediate products: the fixed warp-per-row
        // launch shape leaves the skewed case slower per FLOP.
        let n = 20_000;
        let mut t = Vec::new();
        let mut s = 3u64;
        let mut rnd = |m: usize| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize % m
        };
        for r in 0..8usize {
            for _ in 0..4000 {
                t.push((r, rnd(n) as u32, 1.0));
            }
        }
        for r in 8..n {
            for _ in 0..8 {
                t.push((r, rnd(n) as u32, 1.0));
            }
        }
        let skew = Csr::from_triplets(n, n, &t).unwrap();
        let balanced = rand_mat(n, 16, 11);
        let ip_skew = sparse::spgemm_ref::total_intermediate_products(&skew, &skew).unwrap();
        let ip_bal = sparse::spgemm_ref::total_intermediate_products(&balanced, &balanced).unwrap();
        assert!(ip_bal > ip_skew / 2, "keep workloads comparable");
        let mut g1 = Gpu::new(DeviceConfig::p100());
        let (_, r1) = multiply(&mut g1, &skew, &skew).unwrap();
        let mut g2 = Gpu::new(DeviceConfig::p100());
        let (_, r2) = multiply(&mut g2, &balanced, &balanced).unwrap();
        assert!(
            r1.gflops() < 0.8 * r2.gflops(),
            "skewed {} vs balanced {}",
            r1.gflops(),
            r2.gflops()
        );
    }
}
