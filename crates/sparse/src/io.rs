//! Matrix Market (`.mtx`) I/O.
//!
//! The paper's datasets come from the University of Florida Sparse Matrix
//! Collection, distributed as Matrix Market files. This reproduction uses
//! seeded synthetic analogues by default (no network), but the readers
//! here let a user drop in the real files. Supported: `matrix coordinate
//! {real,integer,pattern} {general,symmetric,skew-symmetric}`.
//!
//! The writer prints each value in Rust's shortest round-trip form, so
//! every finite value, −0.0 and ±inf reads back bitwise. NaN reads back
//! as NaN, but the text format keeps neither its payload nor its sign.

use crate::convert::{ix, to_u64, try_u32};
use crate::csr::Csr;
use crate::scalar::Scalar;
use crate::{Result, SparseError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

fn parse_err(msg: impl Into<String>) -> SparseError {
    SparseError::Parse(msg.into())
}

/// Read a Matrix Market coordinate file from any reader.
///
/// Symmetric/skew-symmetric storage is expanded to general form;
/// `pattern` entries get value 1. One-based indices are converted to
/// zero-based. Duplicate coordinates are summed on CSR conversion.
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<Csr<T>> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty file"))?
        .map_err(|e| parse_err(e.to_string()))?;
    let toks: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(parse_err(format!("bad header: {header}")));
    }
    if toks[2] != "coordinate" {
        return Err(parse_err("only coordinate (sparse) format is supported"));
    }
    let field = match toks[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_err(format!("unsupported field type: {other}"))),
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(parse_err(format!("unsupported symmetry: {other}"))),
    };

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| parse_err(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| parse_err(format!("bad size line: {size_line}"))))
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(parse_err(format!("size line must have 3 fields: {size_line}")));
    }
    let (rows, cols, declared_nnz) = (dims[0], dims[1], dims[2]);
    // A 0-based index must fit the 4-byte device index.
    if to_u64(rows) > 1 << 32 || to_u64(cols) > 1 << 32 {
        return Err(parse_err(format!("dimensions exceed 2^32: {size_line}")));
    }
    // Mirrored entries land at (col, row): symmetric storage is square.
    if symmetry != Symmetry::General && rows != cols {
        return Err(parse_err(format!("symmetric storage of a non-square matrix: {size_line}")));
    }

    let mut triplets = Vec::new();
    let mut seen = 0usize;
    for line in lines {
        let line = line.map_err(|e| parse_err(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad row index in: {trimmed}")))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing column index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad column index in: {trimmed}")))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(format!("index out of range (1-based): {trimmed}")));
        }
        let v = match field {
            Field::Pattern => T::ONE,
            Field::Real | Field::Integer => {
                let s = it.next().ok_or_else(|| parse_err("missing value"))?;
                T::from_f64(
                    s.parse::<f64>().map_err(|_| parse_err(format!("bad value in: {trimmed}")))?,
                )
            }
        };
        let (r0, c0) = (try_u32(r - 1)?, try_u32(c - 1)?);
        triplets.push((ix(r0), c0, v));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r0 != c0 => triplets.push((ix(c0), r0, v)),
            Symmetry::SkewSymmetric if r0 != c0 => triplets.push((ix(c0), r0, -v)),
            _ => {}
        }
        seen += 1;
    }
    if seen != declared_nnz {
        return Err(parse_err(format!("declared {declared_nnz} entries, found {seen}")));
    }
    // A size line that passed the 2^32 check can still ask for row
    // arrays the heap cannot hold: `from_triplets` reserves them first.
    Csr::from_triplets(rows, cols, &triplets)
}

/// Read a `.mtx` file from disk.
pub fn read_matrix_market_file<T: Scalar>(path: impl AsRef<Path>) -> Result<Csr<T>> {
    let f = std::fs::File::open(path.as_ref())
        .map_err(|e| parse_err(format!("{}: {e}", path.as_ref().display())))?;
    read_matrix_market(f)
}

/// Write a matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar, W: Write>(m: &Csr<T>, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by nsparse-repro")?;
    writeln!(w, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for r in 0..m.rows() {
        let (cs, vs) = m.row(r);
        for (&c, &v) in cs.iter().zip(vs) {
            writeln!(w, "{} {} {:e}", r + 1, c + 1, v.to_f64())?;
        }
    }
    Ok(())
}

/// Write a `.mtx` file to disk.
pub fn write_matrix_market_file<T: Scalar>(
    m: &Csr<T>,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_matrix_market(m, std::io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_general_real() {
        let m = Csr::from_dense(&[vec![1.5f64, 0.0], vec![-2.0, 3.25]]);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back: Csr<f64> = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let m: Csr<f32> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.to_dense(), vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
    }

    #[test]
    fn expands_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 7.0\n";
        let m: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.to_dense(), vec![vec![4.0, 7.0], vec![7.0, 0.0]]);
    }

    #[test]
    fn expands_skew_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let m: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.to_dense(), vec![vec![0.0, -3.0], vec![3.0, 0.0]]);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let src = "%%MatrixMarket matrix coordinate real general\n% a comment\n\n1 1 1\n\n% more\n1 1 2.0\n";
        let m: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.val()[0], 2.0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(read_matrix_market::<f64, _>("garbage".as_bytes()).is_err());
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix array real general\n2 2\n".as_bytes()
        )
        .is_err());
        // wrong declared count
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n".as_bytes()
        )
        .is_err());
        // out of range index
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n".as_bytes()
        )
        .is_err());
        // zero (not 1-based) index
        assert!(read_matrix_market::<f64, _>(
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_rows_beyond_u32_indices() {
        let src =
            "%%MatrixMarket matrix coordinate real general\n5000000000 1 1\n4294967297 1 2.5\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse(_)), "{err}");
    }

    #[test]
    fn rejects_cols_beyond_u32_indices() {
        let src =
            "%%MatrixMarket matrix coordinate real general\n1 5000000000 1\n1 4294967297 2.5\n";
        let err = read_matrix_market::<f64, _>(src.as_bytes()).unwrap_err();
        assert!(matches!(err, SparseError::Parse(_)), "{err}");
    }

    #[test]
    fn duplicates_summed() {
        let src = "%%MatrixMarket matrix coordinate real general\n1 2 2\n1 1 1.0\n1 1 2.0\n";
        let m: Csr<f64> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.val()[0], 3.0);
    }

    #[test]
    fn file_roundtrip() {
        let m = Csr::from_dense(&[vec![1.0f32, 2.0], vec![0.0, 4.0]]);
        let path = std::env::temp_dir().join("nsparse_repro_io_test.mtx");
        write_matrix_market_file(&m, &path).unwrap();
        let back: Csr<f32> = read_matrix_market_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, m);
    }
}
