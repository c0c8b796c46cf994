//! Sparse-matrix foundation for the nsparse ICPP'17 reproduction.
//!
//! This crate provides the host-side substrate every other crate builds on:
//!
//! * [`Csr`] storage (§II-A of the paper), built from triplets or parts, with
//!   transpose, addition, SpMV and validation;
//! * reference CPU SpGEMM implementations ([`spgemm_ref`]) used as ground
//!   truth by every GPU-simulated algorithm;
//! * Matrix Market I/O ([`io`]) so externally downloaded UF collection
//!   files can be used where available;
//! * the statistics of Table II ([`stats`]): nnz/row, max nnz/row, number
//!   of intermediate products of `A²`, and nnz of `A²`.
//!
//! Column indices are stored as `u32` (the 4-byte indices the paper's
//! device-memory arithmetic assumes in §III-D); row pointers are `usize`
//! on the host for indexing ergonomics, and [`Csr::device_bytes`] reports
//! the 4-byte-int footprint the GPU simulation charges.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod convert;
pub mod csr;
pub mod io;
pub mod ops;
pub mod scalar;
pub mod spgemm_ref;
pub mod stats;

pub use convert::{ix, to_u64, try_u32, try_usize};
pub use csr::{Csr, DEVICE_INDEX_BYTES};
pub use scalar::Scalar;

/// Errors produced when constructing or validating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A column index was `>= cols`.
    ColumnOutOfBounds { row: usize, col: u32, cols: usize },
    /// A row index was `>= rows` (triplet construction).
    RowOutOfBounds { row: usize, rows: usize },
    /// The row-pointer array is not monotonically non-decreasing or has
    /// the wrong length / final value.
    MalformedRowPointers(String),
    /// Column indices within a row are not strictly increasing.
    UnsortedRow { row: usize },
    /// Duplicate column index within a row.
    DuplicateEntry { row: usize, col: u32 },
    /// Dimension mismatch between operands (`A.cols != B.rows` etc.).
    DimensionMismatch(String),
    /// A size/byte computation would overflow its integer type
    /// (adversarially large synthetic inputs; planning must reject them
    /// instead of wrapping around).
    Overflow(String),
    /// I/O or parse failure when reading Matrix Market data.
    Parse(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::ColumnOutOfBounds { row, col, cols } => {
                write!(f, "column index {col} out of bounds (cols = {cols}) in row {row}")
            }
            SparseError::RowOutOfBounds { row, rows } => {
                write!(f, "row index {row} out of bounds (rows = {rows})")
            }
            SparseError::MalformedRowPointers(msg) => write!(f, "malformed row pointers: {msg}"),
            SparseError::UnsortedRow { row } => write!(f, "row {row} has unsorted column indices"),
            SparseError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row}, {col})")
            }
            SparseError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            SparseError::Overflow(msg) => write!(f, "size overflow: {msg}"),
            SparseError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
