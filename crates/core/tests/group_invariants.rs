//! Property tests of the Table I derivation across arbitrary devices:
//! the grouping rules must stay sound for any plausible hardware.

use nsparse_core::{build_groups, Assignment, GroupPhase};
use quickprop::prelude::*;
use vgpu::occupancy::occupancy;
use vgpu::DeviceConfig;

fn arb_device() -> impl Gen<Value = DeviceConfig> {
    (
        1usize..128, // num_sms
        4u32..8,     // log2(shared KB per block): 16..128 KB
        1usize..3,   // threads-per-SM multiplier (1024 or 2048)
        prop_oneof![Just(32usize), Just(64usize)],
    )
        .prop_map(|(sms, lg_shared, tmul, warp)| {
            let max_shared = (1usize << lg_shared) * 1024;
            DeviceConfig {
                name: "quickprop".into(),
                num_sms: sms,
                clock_hz: 1.0e9,
                warp_size: warp,
                shared_mem_per_sm: max_shared.max(64 * 1024),
                max_shared_per_block: max_shared,
                max_threads_per_sm: 1024 * tmul,
                max_blocks_per_sm: 32,
                max_threads_per_block: 1024,
                device_mem_bytes: 1 << 32,
                mem_bandwidth: 500e9,
            }
        })
}

quickprop! {
    #![config(cases = 128)]

    #[test]
    fn groups_tile_metric_space_on_any_device(
        cfg in arb_device(),
        value_bytes in prop_oneof![Just(4usize), Just(8usize)],
        phase in prop_oneof![Just(GroupPhase::Count), Just(GroupPhase::Numeric)],
    ) {
        let t = build_groups(&cfg, value_bytes, phase, 4, true);
        // Sorted coverage from 0 to usize::MAX with no gaps or overlaps.
        let mut gs = t.groups.clone();
        gs.sort_by_key(|g| g.lower);
        prop_assert_eq!(gs[0].lower, 0);
        for w in gs.windows(2) {
            prop_assert_eq!(w[0].upper + 1, w[1].lower);
        }
        prop_assert_eq!(gs.last().unwrap().upper, usize::MAX);
    }

    #[test]
    fn every_group_launch_fits_the_device(
        cfg in arb_device(),
        value_bytes in prop_oneof![Just(4usize), Just(8usize)],
        width in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        for phase in [GroupPhase::Count, GroupPhase::Numeric] {
            let t = build_groups(&cfg, value_bytes, phase, width, true);
            for g in &t.groups {
                // The numeric group-0 kernel uses global tables (0 shared).
                prop_assert!(
                    occupancy(&cfg, g.block_threads, g.shared_bytes).is_some(),
                    "group {} ({} threads, {} B shared) unlaunchable",
                    g.id, g.block_threads, g.shared_bytes
                );
                // Table sizes are powers of two (Alg. 5's bit-mask modulo).
                prop_assert!(g.table_size.is_power_of_two());
            }
        }
    }

    #[test]
    fn shared_tables_hold_their_group_ranges(
        cfg in arb_device(),
        value_bytes in prop_oneof![Just(4usize), Just(8usize)],
    ) {
        // Every TB/ROW group's table must be able to hold the largest
        // row the group admits (the correctness contract of grouping).
        let t = build_groups(&cfg, value_bytes, GroupPhase::Numeric, 4, true);
        for g in &t.groups {
            if matches!(g.assignment, Assignment::TbRow) {
                prop_assert!(g.table_size >= g.upper,
                    "group {}: table {} < upper {}", g.id, g.table_size, g.upper);
            }
        }
        let tc = build_groups(&cfg, value_bytes, GroupPhase::Count, 4, true);
        for g in &tc.groups {
            if matches!(g.assignment, Assignment::TbRow) {
                prop_assert!(g.table_size >= g.upper);
            }
        }
    }

    #[test]
    fn group_lookup_total_and_consistent(
        cfg in arb_device(),
        metrics in collection::vec(0usize..100_000, 32..33),
    ) {
        let t = build_groups(&cfg, 8, GroupPhase::Numeric, 4, true);
        for m in metrics {
            let gi = t.group_of(m);
            let g = &t.groups[gi];
            prop_assert!(g.lower <= m && m <= g.upper, "metric {m} in group {gi}");
        }
    }

    #[test]
    fn summarize_agrees_with_bucket_rows_and_group_of(
        cfg in arb_device(),
        use_pwarp in prop_oneof![Just(true), Just(false)],
        metrics in collection::vec(0usize..1_000_000, 0..64),
    ) {
        // Occupancy telemetry must be *derived from* the one
        // classification path (bucket_rows/group_of), never a parallel
        // reimplementation that could drift from actual assignment.
        for phase in [GroupPhase::Count, GroupPhase::Numeric] {
            let t = build_groups(&cfg, 8, phase, 4, use_pwarp);
            let buckets = t.bucket_rows(&metrics);
            let occ = t.summarize(&metrics);
            prop_assert_eq!(buckets.len(), occ.len());
            for (gi, (rows, o)) in buckets.iter().zip(&occ).enumerate() {
                prop_assert_eq!(rows.len() as u64, o.rows, "group {} rows", gi);
                let total: u64 =
                    rows.iter().map(|&r| metrics[r as usize] as u64).sum();
                prop_assert_eq!(total, o.metric_total, "group {} total", gi);
                prop_assert_eq!(o.metric_hist.count(), o.rows);
                for &r in rows {
                    prop_assert_eq!(t.group_of(metrics[r as usize]), gi);
                }
            }
            // Every row is assigned exactly once.
            let assigned: usize = buckets.iter().map(|b| b.len()).sum();
            prop_assert_eq!(assigned, metrics.len());
        }
    }
}
