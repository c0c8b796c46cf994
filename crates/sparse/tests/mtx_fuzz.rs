//! Untrusted input: the Matrix Market reader returns `Ok` or a
//! `SparseError` on any bytes — truncated and mutated valid files, and
//! random bytes — and never panics. A panic fails the property through
//! the runner's unwind guard, with the case seed printed for replay.

use quickprop::prelude::*;
use sparse::Csr;

/// Valid files covering every field type and symmetry the reader
/// accepts, comments, an empty matrix and the general, square and
/// rectangular shapes.
const SEEDS: [&str; 5] = [
    "%%MatrixMarket matrix coordinate real general\n% a comment\n3 4 4\n1 1 2.5\n2 3 -1e3\n3 4 0.5\n3 1 7\n",
    "%%MatrixMarket matrix coordinate integer symmetric\n3 3 3\n1 1 4\n2 1 -2\n3 2 9\n",
    "%%MatrixMarket matrix coordinate pattern skew-symmetric\n4 4 2\n2 1\n4 3\n",
    "%%MatrixMarket matrix coordinate real symmetric\n%\n5 5 2\n5 1 -0.0\n3 3 inf\n",
    "%%MatrixMarket matrix coordinate real general\n2 6 0\n",
];

/// Bytes a mutation writes: any byte, with the characters the format is
/// made of drawn as often as all the rest together, so edits reach past
/// the header into the size line and the entries.
fn edit_byte() -> impl Gen<Value = u8> {
    const SYNTAX: &[u8] = b"0123456789 \n-.e%";
    (0usize..2 * 256).prop_map(|v| if v < 256 { v as u8 } else { SYNTAX[v % SYNTAX.len()] })
}

/// One edit: replace (0), insert (1) or delete (2) at a position taken
/// modulo the current length.
fn edits() -> impl Gen<Value = Vec<(u8, usize, u8)>> {
    collection::vec((0u8..3, 0usize..1 << 16, edit_byte()), 1..7)
}

fn mutate(seed: &str, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, pos, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

/// Read `bytes` in both precisions: a successful read is a valid CSR.
fn reads_or_errs(bytes: &[u8]) -> CaseResult {
    if let Ok(m) = sparse::io::read_matrix_market::<f64, _>(bytes) {
        prop_assert!(m.validate().is_ok(), "read an invalid CSR: {m:?}");
    }
    if let Ok(m) = sparse::io::read_matrix_market::<f32, _>(bytes) {
        prop_assert!(m.validate().is_ok(), "read an invalid CSR: {m:?}");
    }
    Ok(())
}

quickprop! {
    #![config(cases = 256)]

    #[test]
    fn seeds_read_back_valid(i in 0usize..SEEDS.len()) {
        let m: Csr<f64> = sparse::io::read_matrix_market(SEEDS[i].as_bytes())
            .map_err(|e| CaseError::fail(format!("seed {i}: {e}")))?;
        prop_assert!(m.validate().is_ok());
    }

    #[test]
    fn truncated_files_never_panic(i in 0usize..SEEDS.len(), cut in 0usize..1 << 16) {
        let seed = SEEDS[i].as_bytes();
        reads_or_errs(&seed[..cut % (seed.len() + 1)])?;
    }

    #[test]
    fn mutated_files_never_panic(i in 0usize..SEEDS.len(), edits in edits()) {
        reads_or_errs(&mutate(SEEDS[i], &edits))?;
    }

    #[test]
    fn random_bytes_never_panic(
        header in 0usize..2,
        bytes in collection::vec(edit_byte(), 0..200)
    ) {
        // Half the cases behind a valid header, so the bytes reach the
        // size line and the entries.
        let mut input = if header == 1 {
            b"%%MatrixMarket matrix coordinate real general\n".to_vec()
        } else {
            Vec::new()
        };
        input.extend_from_slice(&bytes);
        reads_or_errs(&input)?;
    }
}

/// Symmetric storage mirrors `(r, c)` to `(c, r)`, so over a non-square
/// size an entry in range mirrors past the last column: that must be a
/// parse error, not a panic.
#[test]
fn symmetric_storage_must_be_square() {
    for symmetry in ["symmetric", "skew-symmetric"] {
        let f = format!("%%MatrixMarket matrix coordinate real {symmetry}\n3 2 1\n3 2 1.0\n");
        let err = sparse::io::read_matrix_market::<f64, _>(f.as_bytes()).unwrap_err();
        assert!(matches!(err, sparse::SparseError::Parse(_)), "{err}");
    }
}
