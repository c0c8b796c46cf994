//! Checked and lossless integer conversions for size/byte arithmetic.
//!
//! The repo's index types are mixed by design: device-side column indices
//! are `u32` (§III-D's 4-byte integers), host-side row pointers are
//! `usize`, and byte budgets are `u64`. Crossing between them with bare
//! `as` casts silently truncates on adversarial inputs, so clippy's cast
//! lints deny `as` narrowing in the size-arithmetic files (DESIGN.md
//! §18) and everything
//! funnels through these helpers instead: the lossless widenings are
//! compile-time guaranteed, and the narrowings return
//! [`SparseError::Overflow`](crate::SparseError::Overflow) so planning
//! rejects impossible shapes instead of wrapping around.

use crate::SparseError;

// The widening helpers below are only lossless on targets where `usize`
// is 32–64 bits wide; refuse to compile anywhere else.
const _: () = assert!(usize::BITS >= 32 && usize::BITS <= 64);

/// Widen a device column index to a host index. Lossless: `usize` is at
/// least 32 bits (asserted above).
#[inline]
pub fn ix(i: u32) -> usize {
    i as usize
}

/// Widen a host size to a byte count. Lossless: `usize` is at most 64
/// bits (asserted above).
#[inline]
pub fn to_u64(x: usize) -> u64 {
    x as u64
}

/// Narrow a host size to a device index, rejecting values that do not
/// fit the 4-byte device integer.
#[inline]
pub fn try_u32(x: usize) -> Result<u32, SparseError> {
    u32::try_from(x)
        .map_err(|_| SparseError::Overflow(format!("{x} does not fit a 4-byte device index")))
}

/// Narrow a byte count to a host size, rejecting values addressable on
/// the device but not on a (32-bit) host.
#[inline]
pub fn try_usize(x: u64) -> Result<usize, SparseError> {
    usize::try_from(x).map_err(|_| SparseError::Overflow(format!("{x} does not fit a host usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widenings_are_identity() {
        assert_eq!(ix(0), 0);
        assert_eq!(ix(u32::MAX), u32::MAX as usize);
        assert_eq!(to_u64(0), 0);
        assert_eq!(to_u64(usize::MAX), usize::MAX as u64);
    }

    #[test]
    fn narrowings_reject_overflow() {
        assert_eq!(try_u32(7).unwrap(), 7);
        assert_eq!(try_usize(7).unwrap(), 7);
        if usize::BITS > 32 {
            assert!(matches!(try_u32(u32::MAX as usize + 1), Err(SparseError::Overflow(_))));
        }
        // u64 → usize only fails on 32-bit hosts; the Ok path is the
        // interesting one everywhere else.
        assert_eq!(try_usize(u32::MAX as u64).unwrap(), u32::MAX as usize);
    }
}
