//! Graph analytics on a webbase-like power-law graph: triangle counting
//! (the full product `A·A`, then masked by `A` on the host) and
//! multi-source BFS (frontier SpGEMM) — the §I graph-algorithm
//! motivation ([3], Combinatorial BLAS).
//!
//! ```text
//! cargo run --release --example web_analytics [rows]
//! ```

use apps::{bfs, triangles};
use nsparse_repro::prelude::*;

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(40_000);
    println!("power-law web graph with {rows} pages...");
    let directed = matgen::generators::power_law::<f64>(rows, 3.1, 400, 0.8, 0.3, 64, 0xEB);
    // Symmetrize for triangle counting and strip the diagonal.
    let sym = directed.add(&directed.transpose()).expect("square");
    let mut t = Vec::new();
    for r in 0..sym.rows() {
        let (cs, _) = sym.row(r);
        for &c in cs {
            if c as usize != r {
                t.push((r, c, 1.0f64));
            }
        }
    }
    let adj = Csr::from_triplets(rows, rows, &t).expect("symmetrized");
    println!("  undirected edges: {}", adj.nnz() / 2);

    let mut gpu = Gpu::new(DeviceConfig::p100());
    let tri = triangles::count_triangles(&mut gpu, &adj).expect("triangles");
    println!("\ntriangles: {}", tri.triangles);
    let busiest =
        tri.per_vertex.iter().enumerate().max_by_key(|&(_, &c)| c).map(|(v, &c)| (v, c)).unwrap();
    println!("  busiest vertex {} sits in {} triangles", busiest.0, busiest.1);
    println!("  A*A SpGEMM time: {}", apps::total_spgemm_time(&tri.reports));

    let sources = [0usize, rows / 3, 2 * rows / 3];
    let res = bfs::multi_source_bfs(&mut gpu, &adj, &sources).expect("BFS");
    println!("\nmulti-source BFS from {sources:?} finished in {} rounds", res.rounds);
    for (s, lv) in res.levels.iter().enumerate() {
        let reached = lv.iter().filter(|&&l| l != u32::MAX).count();
        let ecc = lv.iter().filter(|&&l| l != u32::MAX).max().copied().unwrap_or(0);
        println!("  source {:>8}: reached {:>7} pages, eccentricity {}", sources[s], reached, ecc);
    }
    println!("  frontier SpGEMM time: {}", apps::total_spgemm_time(&res.reports));
}
