//! Row grouping and per-group launch parameters (§III-A, §III-D, Table I).
//!
//! The paper derives its seven groups from device constants rather than
//! hand-tuning, and so does this module:
//!
//! 1. The largest hash table that fits a thread block's shared memory is
//!    the largest power of two ≤ `48 KB / entry_bytes` (powers of two so
//!    the modulo in Algorithm 5 is a bit-mask). In double precision an
//!    entry is 12 bytes (4 B column + 8 B value) → 4096 — Table I's
//!    group 1. The symbolic ("count") phase needs no value array, so its
//!    tables are 2× larger and the count-side thresholds double.
//! 2. Each following group halves both table size and thread-block size,
//!    raising the number of co-resident blocks per SM, until that number
//!    reaches the hardware cap of 32 blocks/SM (Table I's "#TB" column:
//!    2, 2, 4, 8, 16, 32).
//! 3. Rows below the PWARP borderline (16 output non-zeros / 32
//!    intermediate products) go to the PWARP/ROW group (4 threads per
//!    row, 512-thread blocks).
//! 4. Rows exceeding the group-1 table go to group 0: same launch shape
//!    as group 1 but with the hash table spilled to global memory.

use vgpu::occupancy::occupancy;
use vgpu::DeviceConfig;

/// Thread-to-row assignment strategy of a group (§III-B-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// 4 threads (one partial warp) per row; `width` lanes.
    Pwarp {
        /// Lanes per row (the paper's preliminary sweep fixed 4).
        width: usize,
    },
    /// One thread block per row, hash table in shared memory.
    TbRow,
    /// One thread block per row, hash table in global memory (group 0).
    TbRowGlobal,
}

/// Launch parameters of one row group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// Group id in Table I order (0 = global-table overflow group).
    pub id: usize,
    /// Inclusive lower bound on the grouping metric (intermediate
    /// products for the count phase, output nnz for the numeric phase).
    pub lower: usize,
    /// Inclusive upper bound (`usize::MAX` for group 0).
    pub upper: usize,
    /// Thread assignment.
    pub assignment: Assignment,
    /// Threads per block.
    pub block_threads: usize,
    /// Hash-table entries per row (power of two). For group 0 this is
    /// the *shared-memory attempt* size of the count phase's first pass;
    /// the global table is sized per row at runtime.
    pub table_size: usize,
    /// Shared memory bytes per block this group's kernel declares.
    pub shared_bytes: usize,
}

/// The phase a grouping is built for; determines entry width and
/// thresholds (count-side thresholds are 2× the numeric ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupPhase {
    /// Symbolic phase (3): hash entries are bare 4-byte keys.
    Count,
    /// Numeric phase (7): entries are key + value (`4 + value_bytes`).
    Numeric,
}

/// Complete grouping table for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTable {
    /// Groups in Table I order: group 0 first, PWARP group last.
    pub groups: Vec<GroupSpec>,
    /// The phase this table was built for.
    pub phase: GroupPhase,
}

/// Largest power of two ≤ `x` (x ≥ 1).
fn prev_pow2(x: usize) -> usize {
    debug_assert!(x >= 1);
    1usize << (usize::BITS - 1 - x.leading_zeros())
}

/// PWARP borderline on the numeric metric (§III-D: "16 for (7)").
pub const PWARP_BORDER_NUMERIC: usize = 16;
/// PWARP borderline on the count metric (§III-D: "32 for (3)").
pub const PWARP_BORDER_COUNT: usize = 32;
/// PWARP block size (Table I: 512 threads).
pub const PWARP_BLOCK_THREADS: usize = 512;

/// Build the grouping table for a device, value width and phase.
///
/// `value_bytes` is 4 in single precision, 8 in double; `pwarp_width` is
/// normally 4 (the paper's preliminary sweep) and exposed for the width
/// ablation. Setting `use_pwarp = false` folds the PWARP range into the
/// smallest TB/ROW group (the §IV-C ablation).
pub fn build_groups(
    cfg: &DeviceConfig,
    value_bytes: usize,
    phase: GroupPhase,
    pwarp_width: usize,
    use_pwarp: bool,
) -> GroupTable {
    assert!(pwarp_width >= 1 && pwarp_width <= cfg.warp_size);
    let numeric_entry = 4 + value_bytes;
    // Largest numeric table that fits one block's shared memory.
    let t_numeric_max = prev_pow2(cfg.max_shared_per_block / numeric_entry);

    // The grouping metric thresholds are defined on the numeric scale
    // and doubled for the count phase; table sizes likewise.
    let (metric_scale, entry_bytes, table_scale) = match phase {
        GroupPhase::Count => (2usize, 4usize, 2usize),
        GroupPhase::Numeric => (1, numeric_entry, 1),
    };
    let pwarp_border = if !use_pwarp {
        0
    } else {
        match phase {
            GroupPhase::Count => PWARP_BORDER_COUNT,
            GroupPhase::Numeric => PWARP_BORDER_NUMERIC,
        }
    };

    let mut groups = Vec::new();
    // Group 0: rows whose table exceeds shared memory; the count phase
    // first *attempts* them with the maximum shared table.
    groups.push(GroupSpec {
        id: 0,
        lower: t_numeric_max * metric_scale + 1,
        upper: usize::MAX,
        assignment: Assignment::TbRowGlobal,
        block_threads: cfg.max_threads_per_block,
        table_size: t_numeric_max * table_scale,
        shared_bytes: match phase {
            GroupPhase::Count => t_numeric_max * table_scale * entry_bytes,
            GroupPhase::Numeric => 0, // numeric group 0 works in global memory
        },
    });

    // TB/ROW groups: halve table and block size until 32 blocks/SM.
    let mut t_numeric = t_numeric_max;
    let mut block_threads = cfg.max_threads_per_block;
    let mut id = 1;
    loop {
        let table_size = t_numeric * table_scale;
        groups.push(GroupSpec {
            id,
            lower: t_numeric / 2 * metric_scale + 1,
            upper: t_numeric * metric_scale,
            assignment: Assignment::TbRow,
            block_threads,
            table_size,
            shared_bytes: table_size * entry_bytes,
        });
        // Stop once the *count-phase* residency hits the per-SM block cap
        // (§III-D; the paper derives the group count from the count-phase
        // table, which is the larger of the two phases'). Devices whose
        // thread limit binds before the block cap (so halving the table
        // can never reach 32 blocks/SM) stop at the PWARP borderline
        // instead — subdividing below it would create empty groups.
        let count_shared = t_numeric * 2 * 4;
        let count_occ = occupancy(cfg, block_threads, count_shared)
            .map(|o| o.blocks_per_sm)
            .unwrap_or(cfg.max_blocks_per_sm);
        if count_occ >= cfg.max_blocks_per_sm || t_numeric <= 2 * PWARP_BORDER_NUMERIC {
            break;
        }
        t_numeric /= 2;
        block_threads = (block_threads / 2).max(2 * cfg.warp_size);
        id += 1;
    }
    // Extend the last TB group down to the PWARP borderline.
    if let Some(last) = groups.last_mut() {
        last.lower = pwarp_border + 1;
    }

    if use_pwarp {
        // PWARP group: `block_threads / width` rows per block, one small
        // hash table per row in shared memory. Narrow widths pack more
        // rows per block, so the block size shrinks until the per-row
        // tables fit the 48 KB budget.
        let per_row_table = (pwarp_border.max(1) * 2).next_power_of_two();
        let max_rows_by_shared = cfg.max_shared_per_block / (per_row_table * entry_bytes);
        let rows_per_block = (PWARP_BLOCK_THREADS / pwarp_width).min(max_rows_by_shared).max(1);
        // Round the block down to a warp multiple; never round *up*, or
        // the per-row tables would overflow the block's shared budget on
        // small-LDS devices. A sub-warp block is legal (just inefficient)
        // when even one warp's worth of rows does not fit.
        let mut block_threads = (rows_per_block * pwarp_width) / cfg.warp_size * cfg.warp_size;
        if block_threads == 0 {
            block_threads = rows_per_block * pwarp_width;
        }
        let rows_per_block = (block_threads / pwarp_width).max(1);
        groups.push(GroupSpec {
            id: groups.len(),
            lower: 0,
            upper: pwarp_border,
            assignment: Assignment::Pwarp { width: pwarp_width },
            block_threads,
            table_size: per_row_table,
            shared_bytes: rows_per_block * per_row_table * entry_bytes,
        });
    }
    GroupTable { groups, phase }
}

/// Per-group occupancy of one grouping pass (telemetry): how many rows
/// landed in each group and how their metric is distributed — the data
/// behind Table I's row-population analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupOccupancy {
    /// Group id (Table I order; equals the group's index).
    pub id: usize,
    /// Rows assigned to the group.
    pub rows: u64,
    /// Sum of the grouping metric over those rows.
    pub metric_total: u64,
    /// Log2 histogram of the per-row metric.
    pub metric_hist: obs::Log2Histogram,
}

impl GroupTable {
    /// Bucket `metric` (one entry per row) into the groups and summarize
    /// each group's row population. Entries align with `self.groups`.
    ///
    /// Derived from [`GroupTable::bucket_rows`] — the one classification
    /// path every backend executes — so the occupancy telemetry can
    /// never disagree with the actual row assignment (the two used to
    /// classify independently; `crates/core/tests/group_invariants.rs`
    /// pins the agreement as a property).
    pub fn summarize(&self, metric: &[usize]) -> Vec<GroupOccupancy> {
        self.groups
            .iter()
            .zip(self.bucket_rows(metric))
            .map(|(g, rows)| {
                let mut o = GroupOccupancy {
                    id: g.id,
                    rows: rows.len() as u64,
                    metric_total: 0,
                    metric_hist: obs::Log2Histogram::new(),
                };
                for &r in &rows {
                    let v = metric[r as usize] as u64;
                    o.metric_total += v;
                    o.metric_hist.record(v);
                }
                o
            })
            .collect()
    }

    /// Bucket rows into groups by their metric (one entry per row):
    /// entry `i` of the result lists, in ascending row order, the rows
    /// whose metric falls in `self.groups[i]`. This is the host mirror
    /// of the grouping kernel; every backend shares it through
    /// [`crate::SpgemmPlan`], which is what makes their group
    /// assignments identical by construction.
    pub fn bucket_rows(&self, metric: &[usize]) -> Vec<Vec<u32>> {
        let mut buckets = vec![Vec::new(); self.len()];
        for (r, &v) in metric.iter().enumerate() {
            buckets[self.group_of(v)].push(r as u32);
        }
        buckets
    }

    /// Index of the group a row with the given metric belongs to.
    pub fn group_of(&self, metric: usize) -> usize {
        for (i, g) in self.groups.iter().enumerate() {
            if metric >= g.lower && metric <= g.upper {
                return i;
            }
        }
        // Metric 0 with PWARP disabled: smallest TB group.
        self.groups.len() - 1
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if there are no groups (never happens in practice).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Rows-per-block of the PWARP group (panics if PWARP is disabled).
    pub fn pwarp_rows_per_block(&self) -> usize {
        #[expect(clippy::expect_used, reason = "build_groups always emits at least one group")]
        let last = self.groups.last().expect("group table never empty");
        match last.assignment {
            Assignment::Pwarp { width } => last.block_threads / width,
            #[expect(
                clippy::panic,
                reason = "panic documented above; callers dispatch on assignment"
            )]
            Assignment::TbRow | Assignment::TbRowGlobal => panic!("PWARP group not present"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p100() -> DeviceConfig {
        DeviceConfig::p100()
    }

    /// The derived double-precision table must be exactly Table I.
    #[test]
    fn double_precision_numeric_matches_table1() {
        let t = build_groups(&p100(), 8, GroupPhase::Numeric, 4, true);
        // (lower, upper, block_threads) per Table I's "(6) nnz" column.
        let expect = [
            (4097, usize::MAX, 1024), // group 0
            (2049, 4096, 1024),       // group 1
            (1025, 2048, 512),        // group 2
            (513, 1024, 256),         // group 3
            (257, 512, 128),          // group 4
            (17, 256, 64),            // group 5
            (0, 16, 512),             // group 6 (PWARP)
        ];
        assert_eq!(t.groups.len(), 7, "{:#?}", t.groups);
        for (g, &(lo, hi, bt)) in t.groups.iter().zip(&expect) {
            assert_eq!((g.lower, g.upper, g.block_threads), (lo, hi, bt), "group {}", g.id);
        }
        // Group 1 numeric: 4096 entries × 12 B = 48 KB (§III-D).
        assert_eq!(t.groups[1].table_size, 4096);
        assert_eq!(t.groups[1].shared_bytes, 48 * 1024);
        assert_eq!(t.groups[1].assignment, Assignment::TbRow);
        assert_eq!(t.groups[0].assignment, Assignment::TbRowGlobal);
        assert!(matches!(t.groups[6].assignment, Assignment::Pwarp { width: 4 }));
    }

    #[test]
    fn double_precision_count_matches_table1() {
        let t = build_groups(&p100(), 8, GroupPhase::Count, 4, true);
        let expect = [
            (8193, usize::MAX), // group 0
            (4097, 8192),       // group 1
            (2049, 4096),       // group 2
            (1025, 2048),       // group 3
            (513, 1024),        // group 4
            (33, 512),          // group 5
            (0, 32),            // group 6
        ];
        assert_eq!(t.groups.len(), 7);
        for (g, &(lo, hi)) in t.groups.iter().zip(&expect) {
            assert_eq!((g.lower, g.upper), (lo, hi), "group {}", g.id);
        }
        // Count tables are key-only: group 1 = 8192 entries × 4 B = 32 KB.
        assert_eq!(t.groups[1].table_size, 8192);
        assert_eq!(t.groups[1].shared_bytes, 32 * 1024);
    }

    #[test]
    fn count_phase_tb_residency_matches_table1() {
        // The "#TB" column: 2, 2, 4, 8, 16, 32 for groups 0-5.
        let t = build_groups(&p100(), 8, GroupPhase::Count, 4, true);
        let expect_tb = [2usize, 2, 4, 8, 16, 32];
        for (g, &e) in t.groups.iter().take(6).zip(&expect_tb) {
            let occ = occupancy(&p100(), g.block_threads, g.shared_bytes).unwrap();
            assert_eq!(occ.blocks_per_sm, e, "group {}", g.id);
        }
    }

    #[test]
    fn single_precision_has_same_boundaries_larger_residency() {
        // 8-byte entries: same 4096-entry max table (next pow2 below
        // 6144), but only 32 KB → more blocks fit.
        let t = build_groups(&p100(), 4, GroupPhase::Numeric, 4, true);
        assert_eq!(t.groups[1].table_size, 4096);
        assert_eq!(t.groups[1].shared_bytes, 32 * 1024);
        let occ = occupancy(&p100(), 1024, t.groups[1].shared_bytes).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
    }

    #[test]
    fn group_lookup_covers_all_metrics() {
        let t = build_groups(&p100(), 8, GroupPhase::Numeric, 4, true);
        assert_eq!(t.group_of(0), 6);
        assert_eq!(t.group_of(16), 6);
        assert_eq!(t.group_of(17), 5);
        assert_eq!(t.group_of(256), 5);
        assert_eq!(t.group_of(257), 4);
        assert_eq!(t.group_of(4096), 1);
        assert_eq!(t.group_of(4097), 0);
        assert_eq!(t.group_of(usize::MAX), 0);
    }

    #[test]
    fn disabling_pwarp_folds_small_rows_into_tb_group() {
        let t = build_groups(&p100(), 8, GroupPhase::Numeric, 4, false);
        assert!(t.groups.iter().all(|g| !matches!(g.assignment, Assignment::Pwarp { .. })));
        assert_eq!(t.group_of(0), t.len() - 1);
        assert_eq!(t.groups.last().unwrap().lower, 1);
    }

    #[test]
    fn pwarp_width_configurable() {
        for w in [1, 2, 4, 8, 16] {
            let t = build_groups(&p100(), 8, GroupPhase::Numeric, w, true);
            let g = t.groups.last().unwrap();
            assert!(matches!(g.assignment, Assignment::Pwarp { width } if width == w));
            // Rows per block never exceed the 512-thread budget and the
            // per-row tables always fit the block's shared memory.
            assert!(t.pwarp_rows_per_block() <= PWARP_BLOCK_THREADS / w);
            assert!(g.shared_bytes <= p100().max_shared_per_block, "width {w}");
            assert_eq!(g.block_threads % p100().warp_size, 0);
        }
        // The paper's width (4) keeps the full 128-rows-per-block layout.
        let t4 = build_groups(&p100(), 8, GroupPhase::Numeric, 4, true);
        assert_eq!(t4.pwarp_rows_per_block(), 128);
        assert_eq!(t4.groups.last().unwrap().block_threads, PWARP_BLOCK_THREADS);
    }

    #[test]
    fn groups_tile_the_metric_space() {
        for phase in [GroupPhase::Count, GroupPhase::Numeric] {
            let t = build_groups(&p100(), 8, phase, 4, true);
            // Sorted descending by lower bound, contiguous coverage.
            let mut gs = t.groups.clone();
            gs.sort_by_key(|g| g.lower);
            assert_eq!(gs[0].lower, 0);
            for w in gs.windows(2) {
                assert_eq!(w[0].upper + 1, w[1].lower, "gap between groups");
            }
            assert_eq!(gs.last().unwrap().upper, usize::MAX);
        }
    }

    #[test]
    fn summarize_partitions_rows() {
        let t = build_groups(&p100(), 8, GroupPhase::Numeric, 4, true);
        let metric = [0usize, 5, 16, 17, 300, 5000];
        let occ = t.summarize(&metric);
        assert_eq!(occ.len(), t.len());
        assert_eq!(occ.iter().map(|o| o.rows).sum::<u64>(), metric.len() as u64);
        assert_eq!(
            occ.iter().map(|o| o.metric_total).sum::<u64>(),
            metric.iter().map(|&v| v as u64).sum::<u64>()
        );
        // Rows land where group_of sends them.
        assert_eq!(occ[0].rows, 1); // 5000 → group 0
        assert_eq!(occ[6].rows, 3); // 0, 5, 16 → PWARP
        assert_eq!(occ[6].metric_hist.count(), 3);
        assert_eq!(occ[6].metric_hist.max(), Some(16));
    }

    #[test]
    fn prev_pow2_works() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(4095), 2048);
        assert_eq!(prev_pow2(4096), 4096);
        assert_eq!(prev_pow2(6144), 4096);
    }
}
