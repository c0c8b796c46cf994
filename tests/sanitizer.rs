//! Property tests (quickprop) for the vgpu device-memory sanitizer
//! (DESIGN.md §18): under *arbitrary* seeded allocation histories, every
//! injected corruption — double-free, use-after-free, out-of-bounds,
//! uninitialized read, leak — is caught with a report of exactly the
//! right kind, and the same history without the injection stays clean.
//!
//! The scenarios exercise the real `Gpu` hook points (malloc / free /
//! launch-time range checks / transfer annotations), not the
//! `Sanitizer` struct in isolation, so these properties also pin the
//! device integration: a refactor that unhooks a check path fails here.

use quickprop::prelude::*;
use vgpu::{BlockCost, DeviceConfig, Gpu, KernelDesc, SanKind, StreamId};

/// Injection kinds, indexed by the generated `kind` value.
const INJECTED: [SanKind; 5] = [
    SanKind::DoubleFree,
    SanKind::UseAfterFree,
    SanKind::OutOfBounds,
    SanKind::UninitRead,
    SanKind::Leak,
];

/// Replay a seeded allocation history on a sanitized device, optionally
/// injecting corruption `kind` at a seed-chosen victim, and return the
/// kinds of every report the sanitizer produced.
fn run_scenario(inject: Option<usize>, n_allocs: usize, seed: u64) -> Vec<SanKind> {
    let mut gpu = Gpu::new(DeviceConfig::p100());
    gpu.enable_sanitizer();
    let mut rng = Rng64::new(seed);

    // Benign prologue: n buffers, fully initialized, read back, plus a
    // kernel launch with correct range annotations over the first one.
    let mut bufs = Vec::new();
    for _ in 0..n_allocs {
        let bytes = 64 + rng.next_u64() % 4096;
        let id = gpu.malloc(bytes, "buf").unwrap();
        gpu.san_note_h2d(id, 0, bytes);
        gpu.san_note_d2h(id, 0, bytes.min(128));
        bufs.push((id, bytes));
    }
    let (first, first_bytes) = bufs[0];
    gpu.launch(
        KernelDesc::new("prop_kernel", StreamId(0), 128, 0).reading(first, 0, first_bytes).writing(
            first,
            0,
            first_bytes,
        ),
        vec![BlockCost::raw(64.0, 1024.0)],
    )
    .unwrap();

    let victim = (rng.next_u64() as usize) % bufs.len();
    let (vid, vbytes) = bufs[victim];
    let mut already_freed = None;
    match inject {
        // Double-free: the second free must be intercepted, not panic.
        Some(0) => {
            gpu.free(vid);
            gpu.free(vid);
            already_freed = Some(victim);
        }
        // Use-after-free: read back from a freed buffer.
        Some(1) => {
            gpu.free(vid);
            gpu.san_note_d2h(vid, 0, 8);
            already_freed = Some(victim);
        }
        // Out-of-bounds: a write straddling the end of the buffer.
        Some(2) => gpu.san_note_h2d(vid, vbytes - 4, 64),
        // Uninitialized read: fresh buffer read back before any write.
        Some(3) => {
            let fresh = gpu.malloc(256, "fresh").unwrap();
            gpu.san_note_d2h(fresh, 0, 256);
            gpu.free(fresh);
        }
        // Leak: victim never freed before the end-of-job leak check.
        Some(4) => already_freed = Some(victim),
        _ => {}
    }
    for (i, (id, _)) in bufs.iter().enumerate() {
        if already_freed != Some(i) {
            gpu.free(*id);
        }
    }
    gpu.san_leak_check();
    gpu.san_reports().iter().map(|r| r.kind).collect()
}

quickprop! {
    #![config(cases = 48)]

    #[test]
    fn injected_corruption_is_always_caught(
        kind in 0usize..5,
        n_allocs in 1usize..7,
        seed in 0u64..1_000_000,
    ) {
        let kinds = run_scenario(Some(kind), n_allocs, seed);
        prop_assert!(
            !kinds.is_empty(),
            "injection {:?} with {} allocs (seed {}) went undetected",
            INJECTED[kind], n_allocs, seed
        );
        prop_assert!(
            kinds.contains(&INJECTED[kind]),
            "injection {:?} misclassified as {:?} (seed {})",
            INJECTED[kind], kinds, seed
        );
    }

    #[test]
    fn clean_histories_never_report(n_allocs in 1usize..7, seed in 0u64..1_000_000) {
        let kinds = run_scenario(None, n_allocs, seed);
        prop_assert!(kinds.is_empty(), "clean history reported {:?} (seed {})", kinds, seed);
    }

    #[test]
    fn reports_are_deterministic(kind in 0usize..5, seed in 0u64..1_000_000) {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut gpu = Gpu::new(DeviceConfig::p100());
            gpu.enable_sanitizer();
            let _ = run_jsonl_scenario(&mut gpu, kind, seed);
            runs.push(gpu.san_jsonl());
        }
        prop_assert_eq!(&runs[0], &runs[1]);
        prop_assert!(!runs[0].is_empty());
    }
}

/// Smaller fixed scenario used by the determinism property: the full
/// JSONL dump (seq, simulated time, tag, site, detail) must be
/// byte-identical across repeated runs of the same seed.
fn run_jsonl_scenario(gpu: &mut Gpu, kind: usize, seed: u64) -> Option<()> {
    let mut rng = Rng64::new(seed);
    let bytes = 64 + rng.next_u64() % 512;
    let id = gpu.malloc(bytes, "jsonl").ok()?;
    gpu.san_note_h2d(id, 0, bytes);
    match kind {
        0 => {
            gpu.free(id);
            gpu.free(id);
        }
        1 => {
            gpu.free(id);
            gpu.san_note_d2h(id, 0, 8);
        }
        2 => {
            gpu.san_note_h2d(id, bytes, 8);
            gpu.free(id);
        }
        3 => {
            let fresh = gpu.malloc(128, "fresh").ok()?;
            gpu.san_note_d2h(fresh, 0, 128);
            gpu.free(fresh);
            gpu.free(id);
        }
        _ => {} // leak: never freed
    }
    gpu.san_leak_check();
    Some(())
}
