//! Pattern-family generators.
//!
//! Each function produces one *structural family* from Table II. The
//! shared goals: hit a target average nnz/row, respect a maximum
//! nnz/row, and reproduce the access-pattern character that drives
//! SpGEMM behaviour (banded FEM locality, exact-degree lattices,
//! scattered random columns, heavy-tailed web graphs).
//!
//! Determinism: generation uses a self-contained xoshiro256** PRNG
//! ([`Rng64`]) seeded explicitly, so datasets are bit-identical across
//! runs, platforms and dependency upgrades (the `rand` crate's stream
//! stability is not guaranteed across major versions).

use sparse::{Csr, Scalar};

/// Self-contained xoshiro256** PRNG (public domain algorithm by
/// Blackman & Vigna), seeded via SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seed deterministically from a single value.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Rng64 { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // 128-bit multiply avoids modulo bias well enough for generators.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box-Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Matrix value in `[0.5, 1.5)` — positive and well away from zero so
/// products never cancel to denormals and comparisons stay stable.
fn value<T: Scalar>(rng: &mut Rng64) -> T {
    T::from_f64(0.5 + rng.unit())
}

/// A generated sparsity pattern and the generator's RNG, which draws the
/// values next. Every generator builds it in non-generic code, so the
/// pattern work — nearly all of a generator's time — compiles once, here
/// and at this crate's optimization level, rather than in each caller
/// for each value type.
struct Pattern {
    rpt: Vec<usize>,
    col: Vec<u32>,
    rng: Rng64,
}

impl Pattern {
    /// The square pattern of per-row column lists (sorted and deduped
    /// here).
    fn new(row_cols: Vec<Vec<u32>>, rng: Rng64) -> Self {
        let n = row_cols.len();
        let mut rpt = Vec::with_capacity(n + 1);
        rpt.push(0);
        let mut col = Vec::new();
        for mut cs in row_cols {
            cs.sort_unstable();
            cs.dedup();
            debug_assert!(cs.last().is_none_or(|&c| (c as usize) < n));
            col.extend_from_slice(&cs);
            rpt.push(col.len());
        }
        Pattern { rpt, col, rng }
    }

    /// The matrix: one random value per entry, drawn in row order.
    fn values<T: Scalar>(mut self) -> Csr<T> {
        let n = self.rpt.len() - 1;
        let val = self.col.iter().map(|_| value::<T>(&mut self.rng)).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "generator emits rows sorted and bounds-checked by construction"
        )]
        let c = Csr::from_parts_unchecked(n, n, self.rpt, self.col, val);
        c.expect("generator emits sorted, in-bounds rows")
    }
}

/// Banded matrix with clustered off-diagonals — the FEM family
/// (Protein, FEM/Spheres, Cantilever, Ship, Wind Tunnel, Harbor,
/// Accelerator) and cage-like chains.
///
/// Each row holds the diagonal plus short runs of consecutive columns
/// inside `[i - bandwidth/2, i + bandwidth/2]` (mimicking element/dof
/// coupling blocks); the row degree is drawn around `avg_nnz` with small
/// jitter, clamped to `max_nnz`.
pub fn banded<T: Scalar>(
    rows: usize,
    avg_nnz: f64,
    max_nnz: usize,
    bandwidth: usize,
    seed: u64,
) -> Csr<T> {
    banded_pattern(rows, avg_nnz, max_nnz, bandwidth, seed).values()
}

fn banded_pattern(
    rows: usize,
    avg_nnz: f64,
    max_nnz: usize,
    bandwidth: usize,
    seed: u64,
) -> Pattern {
    assert!(rows > 0 && avg_nnz >= 1.0 && max_nnz >= 1);
    let mut rng = Rng64::new(seed);
    let half = (bandwidth / 2).max(1) as i64;
    let mut row_cols = Vec::with_capacity(rows);
    for i in 0..rows {
        let jitter = 1.0 + 0.12 * rng.normal();
        let d = ((avg_nnz * jitter).round() as i64).clamp(1, max_nnz as i64) as usize;
        let mut cs: Vec<u32> = Vec::with_capacity(d + 4);
        cs.push(i as u32);
        let mut guard = 0;
        while cs.len() < d && guard < 8 * d {
            guard += 1;
            let center = i as i64 + (rng.below((2 * half as usize) + 1) as i64 - half);
            let run = (d - cs.len()).min(3);
            for t in 0..run as i64 {
                let c = (center + t).clamp(0, rows as i64 - 1) as u32;
                cs.push(c);
            }
            cs.sort_unstable();
            cs.dedup();
        }
        row_cols.push(cs);
    }
    Pattern::new(row_cols, rng)
}

/// Periodic fixed-offset stencil: every row has exactly the same degree
/// (the offsets' count), columns at `(i + offset) mod rows`.
///
/// Covers the perfectly regular families: Epidemiology (2-D epidemic
/// grid, 4 nnz/row) and QCD (4-D lattice operator, 39 nnz/row).
pub fn periodic_stencil<T: Scalar>(rows: usize, offsets: &[i64], seed: u64) -> Csr<T> {
    periodic_stencil_pattern(rows, offsets, seed).values()
}

fn periodic_stencil_pattern(rows: usize, offsets: &[i64], seed: u64) -> Pattern {
    assert!(rows > 0 && !offsets.is_empty());
    let mut offs: Vec<i64> = offsets.to_vec();
    offs.sort_unstable();
    offs.dedup();
    assert!(offs.len() <= rows, "more offsets than columns");
    let rng = Rng64::new(seed);
    let n = rows as i64;
    let mut row_cols = Vec::with_capacity(rows);
    for i in 0..rows as i64 {
        let cs: Vec<u32> = offs.iter().map(|&o| (i + o).rem_euclid(n) as u32).collect();
        row_cols.push(cs);
    }
    Pattern::new(row_cols, rng)
}

/// Offsets of a periodic 2-D five-minus-diagonal stencil (`±1`, `±width`)
/// — the Epidemiology family (exactly 4 nnz in every row).
pub fn grid2d_offsets(width: usize) -> Vec<i64> {
    vec![-(width as i64), -1, 1, width as i64]
}

/// Offsets of a QCD-like 4-D lattice operator with 3 internal degrees of
/// freedom (colors): a 3-wide diagonal block (3 entries), 3-wide blocks
/// at `±stride` of each of the 4 lattice dimensions (8 × 3 = 24), and
/// second-neighbour links in the two largest dimensions (4 × 3 = 12) —
/// exactly `3 + 24 + 12 = 39` entries per row, matching the paper's QCD
/// matrix (every row has exactly 39 non-zeros).
///
/// Requires the spatial extent ≥ 3 so no two offset blocks collide.
pub fn qcd_offsets(dims: [usize; 4]) -> Vec<i64> {
    assert!(dims[0] >= 3, "QCD lattice needs spatial extent >= 3 to keep 39 distinct offsets");
    let dof = 3i64;
    let strides = [
        dof,
        dof * dims[0] as i64,
        dof * (dims[0] * dims[1]) as i64,
        dof * (dims[0] * dims[1] * dims[2]) as i64,
    ];
    let mut offs = vec![0, 1, 2]; // 3-wide diagonal block
    for s in strides {
        for b in [-s, s] {
            for d in 0..dof {
                offs.push(b + d);
            }
        }
    }
    // Second-neighbour links in the z and t directions.
    for s in [strides[2], strides[3]] {
        for b in [-2 * s, 2 * s] {
            for d in 0..dof {
                offs.push(b + d);
            }
        }
    }
    debug_assert_eq!(offs.len(), 39);
    offs
}

/// Scattered uniform-random columns with mildly varying degree — the
/// Economics family.
pub fn random_uniform<T: Scalar>(rows: usize, avg_nnz: f64, max_nnz: usize, seed: u64) -> Csr<T> {
    random_uniform_pattern(rows, avg_nnz, max_nnz, seed).values()
}

fn random_uniform_pattern(rows: usize, avg_nnz: f64, max_nnz: usize, seed: u64) -> Pattern {
    assert!(rows > 0 && avg_nnz >= 1.0);
    let mut rng = Rng64::new(seed);
    let mut row_cols = Vec::with_capacity(rows);
    for i in 0..rows {
        let jitter = (1.0 + 0.45 * rng.normal()).max(0.15);
        let d = ((avg_nnz * jitter).round() as i64).clamp(1, max_nnz as i64) as usize;
        let mut cs = Vec::with_capacity(d + 1);
        cs.push(i as u32); // diagonal kept: economics matrices have one
        while cs.len() <= d {
            cs.push(rng.below(rows) as u32);
        }
        row_cols.push(cs);
    }
    Pattern::new(row_cols, rng)
}

/// Bounded-Zipf index in `[0, n)` with exponent `theta` via continuous
/// inverse-CDF approximation.
fn zipf_index(rng: &mut Rng64, n: usize, theta: f64) -> usize {
    debug_assert!(theta > 0.0 && theta != 1.0);
    let u = rng.unit();
    let p = 1.0 - theta;
    let x = (u * ((n as f64).powf(p) - 1.0) + 1.0).powf(1.0 / p);
    (x as usize).min(n - 1)
}

/// Heavy-tailed graph with Zipf row degrees and Zipf-preferential
/// columns — the webbase / wb-edu family ("only some rows have many
/// non-zero elements and most rows have very few", §IV).
///
/// The maximum row degree is pinned to `max_nnz` (rank-0 row) and the
/// degree exponent is solved by bisection so the mean hits `avg_nnz`.
/// Column popularity follows the *same* hub ranking as row degrees (web
/// pages with many outlinks also attract inlinks); this correlation is
/// what blows up the intermediate-product count of `A²` on web crawls —
/// hub rows point at hub pages whose rows are themselves huge.
pub fn power_law<T: Scalar>(
    rows: usize,
    avg_nnz: f64,
    max_nnz: usize,
    col_theta: f64,
    hub_mix: f64,
    community: usize,
    seed: u64,
) -> Csr<T> {
    power_law_pattern(rows, avg_nnz, max_nnz, col_theta, hub_mix, community, seed).values()
}

fn power_law_pattern(
    rows: usize,
    avg_nnz: f64,
    max_nnz: usize,
    col_theta: f64,
    hub_mix: f64,
    community: usize,
    seed: u64,
) -> Pattern {
    assert!((0.0..=1.0).contains(&hub_mix));
    assert!(rows > 1 && avg_nnz >= 1.0 && max_nnz as f64 >= avg_nnz);
    let mut rng = Rng64::new(seed);
    // Degree of rank r: 1 + (max-1) * (r+1)^-theta. Solve theta for mean.
    let mean_for = |theta: f64| -> f64 {
        let mut s = 0.0;
        for r in 0..rows {
            s += ((r + 1) as f64).powf(-theta);
        }
        1.0 + (max_nnz as f64 - 1.0) * s / rows as f64
    };
    let (mut lo, mut hi) = (0.05f64, 6.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mean_for(mid) > avg_nnz {
            lo = mid; // steeper decay lowers the mean
        } else {
            hi = mid;
        }
    }
    let theta = 0.5 * (lo + hi);
    // Random rank-to-row permutation (Fisher-Yates). Column popularity
    // reuses the same permutation: rank-r hubs are hubs on both axes.
    let mut perm: Vec<u32> = (0..rows as u32).collect();
    for i in (1..rows).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let cperm = &perm;
    let mut row_cols = vec![Vec::new(); rows];
    for (rank, &row) in perm.iter().enumerate() {
        let d = (1.0 + (max_nnz as f64 - 1.0) * ((rank + 1) as f64).powf(-theta))
            .round()
            .clamp(1.0, max_nnz as f64) as usize;
        let cs = &mut row_cols[row as usize];
        cs.reserve(d);
        let mut guard = 0;
        while cs.len() < d && guard < 6 * d + 16 {
            guard += 1;
            // Link-target mixture: hub-biased (same ranking as row
            // degrees) with probability `hub_mix`; otherwise mostly
            // within the row's site community (this is what makes A²'s
            // products merge — pages of one site point at the same
            // pages), occasionally anywhere.
            let u = rng.unit();
            let col = if u < hub_mix {
                cperm[zipf_index(&mut rng, rows, col_theta)]
            } else if community > 1 && u < hub_mix + (1.0 - hub_mix) * 0.7 {
                let base = row as usize / community * community;
                (base + rng.below(community.min(rows - base))) as u32
            } else {
                rng.below(rows) as u32
            };
            cs.push(col);
            if guard % 8 == 0 {
                cs.sort_unstable();
                cs.dedup();
            }
        }
        cs.sort_unstable();
        cs.dedup();
    }
    Pattern::new(row_cols, rng)
}

/// Modular web crawl — the wb-edu family.
///
/// University crawls are strongly *site-modular*: every site (community
/// of `community` consecutive pages) has `hubs` index pages whose links
/// stay mostly inside the site, and ordinary pages link back to their
/// site's index pages plus a few local/global targets. Squaring such a
/// matrix funnels many intermediate products into the site's small
/// column pool — that is where wb-edu's high merge ratio
/// (ip/nnz(A^2) = 2.48 in Table II) comes from, which neither a pure
/// power-law nor an R-MAT graph reproduces.
pub fn modular_web<T: Scalar>(
    rows: usize,
    avg_nnz: f64,
    max_nnz: usize,
    community: usize,
    hubs: usize,
    seed: u64,
) -> Csr<T> {
    modular_web_pattern(rows, avg_nnz, max_nnz, community, hubs, seed).values()
}

fn modular_web_pattern(
    rows: usize,
    avg_nnz: f64,
    max_nnz: usize,
    community: usize,
    hubs: usize,
    seed: u64,
) -> Pattern {
    assert!(community >= 8 && hubs >= 1 && hubs < community);
    assert!(rows > 2 * community && avg_nnz >= 1.0);
    let mut rng = Rng64::new(seed);
    let n_comm = rows.div_ceil(community);
    // Ordinary-page degree chosen so the overall average hits avg_nnz.
    let hub_deg_target = max_nnz.min(community + community / 8);
    let hub_mass = (n_comm * hubs * hub_deg_target) as f64;
    let ordinary_rows = (rows - n_comm * hubs) as f64;
    // Ordinary pages also carry their index-page links (1 certain +
    // 0.5 per extra hub on average): subtract that from the sampled
    // degree target so the overall mean stays on avg_nnz.
    let hub_links = 1.0 + 0.5 * (hubs as f64 - 1.0);
    let ord_avg = ((avg_nnz * rows as f64 - hub_mass) / ordinary_rows - hub_links).max(1.0);
    let mut row_cols: Vec<Vec<u32>> = Vec::with_capacity(rows);
    for i in 0..rows {
        let base = i / community * community;
        let size = community.min(rows - base);
        let in_comm = |rng: &mut Rng64| (base + rng.below(size)) as u32;
        let is_hub = i - base < hubs && size > hubs;
        let mut cs: Vec<u32> = Vec::new();
        if is_hub {
            // Index page: a near-complete local index plus a few
            // cross-site links.
            let d = hub_deg_target;
            let mut guard = 0;
            while cs.len() < d && guard < 6 * d {
                guard += 1;
                let c = if rng.unit() < 0.98 { in_comm(&mut rng) } else { rng.below(rows) as u32 };
                cs.push(c);
                if guard % 16 == 0 {
                    cs.sort_unstable();
                    cs.dedup();
                }
            }
        } else {
            // Ordinary page: links to the site's index pages (a tail
            // community may be smaller than the hub count), then a few
            // local and occasional global targets.
            for h in 0..hubs.min(size) {
                if h == 0 || rng.unit() < 0.5 {
                    cs.push((base + h) as u32);
                }
            }
            let jitter = (1.0 + 0.7 * rng.normal()).max(0.2);
            let d = ((ord_avg * jitter).round() as i64).clamp(1, max_nnz as i64) as usize;
            let target = d + cs.len();
            let mut guard = 0;
            while cs.len() < target && guard < 6 * d + 12 {
                guard += 1;
                let c = if rng.unit() < 0.92 { in_comm(&mut rng) } else { rng.below(rows) as u32 };
                cs.push(c);
                if guard % 8 == 0 {
                    cs.sort_unstable();
                    cs.dedup();
                }
            }
        }
        row_cols.push(cs);
    }
    Pattern::new(row_cols, rng)
}

/// R-MAT recursive-quadrant graph (Chakrabarti et al.) — the
/// cit-Patents family. `nnz_target` edge samples are drawn; duplicate
/// edges merge, so the final nnz is slightly lower. Rows are truncated
/// to `max_nnz` entries: hub degrees are a *local* property that must
/// scale down with the row count, or the intermediate-product count of
/// the analogue explodes past its target (hub-out × hub-in correlation).
pub fn rmat<T: Scalar>(
    rows: usize,
    nnz_target: usize,
    max_nnz: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> Csr<T> {
    rmat_pattern(rows, nnz_target, max_nnz, probs, seed).values()
}

fn rmat_pattern(
    rows: usize,
    nnz_target: usize,
    max_nnz: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> Pattern {
    assert!(rows > 1);
    let (a, b, c, d) = probs;
    assert!((a + b + c + d - 1.0).abs() < 1e-9, "R-MAT probabilities must sum to 1");
    let levels = usize::BITS - (rows - 1).leading_zeros();
    let mut rng = Rng64::new(seed);
    let mut row_cols = vec![Vec::new(); rows];
    let mut placed = 0usize;
    let mut attempts = 0usize;
    while placed < nnz_target && attempts < 4 * nnz_target {
        attempts += 1;
        let (mut r, mut cidx) = (0usize, 0usize);
        for _ in 0..levels {
            let u = rng.unit();
            let (dr, dc) = if u < a {
                (0, 0)
            } else if u < a + b {
                (0, 1)
            } else if u < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            r = (r << 1) | dr;
            cidx = (cidx << 1) | dc;
        }
        if r < rows && cidx < rows {
            if row_cols[r].len() < 2 * max_nnz {
                row_cols[r].push(cidx as u32);
            }
            placed += 1;
        }
    }
    for cs in &mut row_cols {
        cs.sort_unstable();
        cs.dedup();
        cs.truncate(max_nnz);
    }
    // Decorrelate out-degree from in-degree: R-MAT places both hubs on
    // the same ids, which inflates Σ outdeg·indeg (the intermediate
    // products) far beyond a citation graph's; shuffling row ownership
    // keeps both degree distributions but breaks the correlation (new
    // patents cite, old patents are cited).
    for i in (1..rows).rev() {
        let j = rng.below(i + 1);
        row_cols.swap(i, j);
    }
    Pattern::new(row_cols, rng)
}

/// Circuit-netlist-like matrix: low uniform degree near the diagonal for
/// almost all rows, plus a few high-degree hub rows and hub columns
/// (power/ground nets) — the Circuit family.
pub fn circuit_like<T: Scalar>(rows: usize, avg_nnz: f64, max_nnz: usize, seed: u64) -> Csr<T> {
    circuit_like_pattern(rows, avg_nnz, max_nnz, seed).values()
}

fn circuit_like_pattern(rows: usize, avg_nnz: f64, max_nnz: usize, seed: u64) -> Pattern {
    assert!(rows > 16 && avg_nnz >= 1.0);
    let mut rng = Rng64::new(seed);
    let n_hubs = (rows / 1500).clamp(4, 64);
    let hub_cols: Vec<u32> = (0..n_hubs).map(|_| rng.below(rows) as u32).collect();
    let mut row_cols = Vec::with_capacity(rows);
    let band = 256i64.min(rows as i64 / 2);
    for i in 0..rows {
        let is_hub_row = rng.unit() < n_hubs as f64 / rows as f64;
        let d = if is_hub_row {
            max_nnz / 2 + rng.below(max_nnz / 2 + 1)
        } else {
            let jitter = (1.0 + 0.5 * rng.normal()).max(0.2);
            ((avg_nnz * jitter).round() as i64).clamp(1, 16) as usize
        };
        let mut cs = Vec::with_capacity(d + 1);
        cs.push(i as u32);
        while cs.len() <= d {
            let u = rng.unit();
            let c = if u < 0.04 {
                hub_cols[rng.below(hub_cols.len())]
            } else if is_hub_row {
                rng.below(rows) as u32
            } else {
                let off = rng.below((2 * band as usize) + 1) as i64 - band;
                (i as i64 + off).clamp(0, rows as i64 - 1) as u32
            };
            cs.push(c);
        }
        row_cols.push(cs);
    }
    Pattern::new(row_cols, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::stats::MatrixStats;

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng64::new(43);
        assert_ne!(xs[0], c.next_u64());
        // below() stays in range.
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn banded_hits_targets() {
        let m = banded::<f64>(4000, 50.0, 80, 600, 1);
        m.validate().unwrap();
        let s = MatrixStats::structural(&m);
        assert!((s.nnz_per_row - 50.0).abs() < 5.0, "avg {}", s.nnz_per_row);
        assert!(s.max_nnz_row <= 80);
        assert!(s.min_nnz_row >= 1);
        // Band check: all columns within the band.
        for r in 0..m.rows() {
            let (cs, _) = m.row(r);
            for &c in cs {
                assert!((c as i64 - r as i64).unsigned_abs() <= 302);
            }
        }
    }

    #[test]
    fn banded_is_deterministic() {
        let a = banded::<f32>(500, 20.0, 40, 100, 9);
        let b = banded::<f32>(500, 20.0, 40, 100, 9);
        assert_eq!(a, b);
        let c = banded::<f32>(500, 20.0, 40, 100, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn periodic_stencil_exact_degree() {
        let m = periodic_stencil::<f64>(1024, &grid2d_offsets(32), 3);
        m.validate().unwrap();
        for r in 0..m.rows() {
            assert_eq!(m.row_nnz(r), 4);
        }
        let s = MatrixStats::structural(&m);
        assert_eq!(s.nnz_per_row, 4.0);
        assert_eq!(s.max_nnz_row, 4);
    }

    #[test]
    fn qcd_offsets_give_39() {
        let offs = qcd_offsets([4, 4, 4, 8]);
        assert_eq!(offs.len(), 39);
        let rows = 4 * 4 * 4 * 8 * 3;
        let m = periodic_stencil::<f64>(rows, &offs, 5);
        let s = MatrixStats::structural(&m);
        assert_eq!(s.max_nnz_row, 39);
        assert_eq!(s.min_nnz_row, 39);
    }

    #[test]
    fn random_uniform_scatters() {
        let m = random_uniform::<f64>(20_000, 6.2, 44, 11);
        m.validate().unwrap();
        let s = MatrixStats::structural(&m);
        assert!((s.nnz_per_row - 6.2).abs() < 1.2, "avg {}", s.nnz_per_row);
        assert!(s.max_nnz_row <= 45);
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let m = power_law::<f64>(50_000, 3.1, 1200, 0.75, 0.5, 64, 13);
        m.validate().unwrap();
        let s = MatrixStats::structural(&m);
        assert!((s.nnz_per_row - 3.1).abs() < 0.9, "avg {}", s.nnz_per_row);
        assert!(s.max_nnz_row > 300, "max {}", s.max_nnz_row);
        assert!(s.max_nnz_row <= 1200);
        // Most rows tiny: median degree must be small.
        let mut degs: Vec<usize> = (0..m.rows()).map(|r| m.row_nnz(r)).collect();
        degs.sort_unstable();
        assert!(degs[m.rows() / 2] <= 3);
    }

    #[test]
    fn rmat_generates_requested_density() {
        let m = rmat::<f32>(16_384, 72_000, 64, (0.57, 0.19, 0.19, 0.05), 17);
        m.validate().unwrap();
        let s = MatrixStats::structural(&m);
        // Duplicates merge: allow 25% shrink.
        assert!(s.nnz > 54_000, "nnz {}", s.nnz);
        assert!(s.max_nnz_row > 20); // skewed
    }

    #[test]
    fn circuit_has_hubs_and_low_median() {
        let m = circuit_like::<f64>(30_000, 5.6, 160, 19);
        m.validate().unwrap();
        let s = MatrixStats::structural(&m);
        assert!((s.nnz_per_row - 5.6).abs() < 2.0, "avg {}", s.nnz_per_row);
        assert!(s.max_nnz_row >= 80, "max {}", s.max_nnz_row);
    }

    #[test]
    #[should_panic(expected = "probabilities must sum")]
    fn rmat_validates_probs() {
        rmat::<f64>(64, 100, 16, (0.5, 0.5, 0.5, 0.5), 1);
    }
}
