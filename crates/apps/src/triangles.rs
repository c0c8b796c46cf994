//! Triangle counting with one SpGEMM.
//!
//! For an undirected simple graph with adjacency `A`, the number of
//! triangles is `trace(A³) / 6`, computed here as `Σ (A·A) ∘ A / 6`:
//! the product `A·A` is computed in full on the device, then masked by
//! `A` on the host — the standard linear-algebra formulation used by
//! GraphBLAS-style frameworks (§I's graph-algorithm motivation).

use crate::spgemm;
use nsparse_core::pipeline::Result;
use sparse::{Csr, Scalar};
use vgpu::{Gpu, SpgemmReport};

/// Triangle-count result.
#[derive(Debug)]
pub struct TriangleCount {
    /// Number of triangles in the graph.
    pub triangles: u64,
    /// Per-vertex triangle counts (each triangle counted at its three
    /// corners).
    pub per_vertex: Vec<u64>,
    /// SpGEMM report of the `A·A` product.
    pub reports: Vec<SpgemmReport>,
}

/// Count triangles of an undirected graph given by a symmetric 0/1
/// adjacency matrix with an empty diagonal.
///
/// Returns an error if dimensions are inconsistent; symmetry and
/// simplicity are the caller's contract (asserted in debug builds).
pub fn count_triangles<T: Scalar>(gpu: &mut Gpu, adj: &Csr<T>) -> Result<TriangleCount> {
    debug_assert_eq!(adj.transpose(), *adj, "adjacency must be symmetric");
    let mut reports = Vec::new();
    let a2 = spgemm(gpu, adj, adj, &mut reports)?;
    // Mask: sum (A²)[i][j] over existing edges (i, j); every triangle
    // {i, j, k} contributes to 6 (ordered) wedge closures.
    let mut per_vertex = vec![0u64; adj.rows()];
    let mut total = 0u64;
    for (i, pv) in per_vertex.iter_mut().enumerate() {
        let (ecols, _) = adj.row(i);
        let (pcols, pvals) = a2.row(i);
        let (mut e, mut p) = (0usize, 0usize);
        let mut wedges = 0u64;
        while e < ecols.len() && p < pcols.len() {
            match ecols[e].cmp(&pcols[p]) {
                std::cmp::Ordering::Less => e += 1,
                std::cmp::Ordering::Greater => p += 1,
                std::cmp::Ordering::Equal => {
                    wedges += pvals[p].to_f64().round() as u64;
                    e += 1;
                    p += 1;
                }
            }
        }
        *pv = wedges / 2; // each vertex-triangle counted twice
        total += wedges;
    }
    Ok(TriangleCount { triangles: total / 6, per_vertex, reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::DeviceConfig;

    fn undirected(n: usize, edges: &[(usize, usize)]) -> Csr<f64> {
        let mut t = Vec::new();
        for &(u, v) in edges {
            t.push((u, v as u32, 1.0));
            t.push((v, u as u32, 1.0));
        }
        Csr::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn single_triangle() {
        let g = undirected(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let res = count_triangles(&mut gpu, &g).unwrap();
        assert_eq!(res.triangles, 1);
        assert_eq!(res.per_vertex, vec![1, 1, 1]);
    }

    #[test]
    fn square_has_no_triangles() {
        let g = undirected(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        assert_eq!(count_triangles(&mut gpu, &g).unwrap().triangles, 0);
    }

    #[test]
    fn complete_graph_count() {
        // K_n has C(n,3) triangles.
        let n = 8;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        let g = undirected(n, &edges);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        let res = count_triangles(&mut gpu, &g).unwrap();
        assert_eq!(res.triangles, 56); // C(8,3)
                                       // Every vertex is in C(7,2) = 21 triangles.
        assert!(res.per_vertex.iter().all(|&c| c == 21));
    }

    #[test]
    fn two_disjoint_triangles() {
        let g = undirected(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut gpu = Gpu::new(DeviceConfig::p100());
        assert_eq!(count_triangles(&mut gpu, &g).unwrap().triangles, 2);
    }
}
