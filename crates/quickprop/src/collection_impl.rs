//! `collection::vec` — vectors of a given element strategy and length
//! range, shrinking by dropping elements (never below the range's
//! minimum) and simplifying leading elements.

use crate::{Gen, Rng64};
use std::ops::Range;

/// `Vec` strategy: length drawn from `len`, elements from `element`.
pub fn vec<G: Gen>(element: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen { element, len }
}

/// See [`vec()`].
pub struct VecGen<G> {
    element: G,
    len: Range<usize>,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut Rng64) -> Vec<G::Value> {
        let n = self.len.start + rng.below(self.len.end - self.len.start);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let min = self.len.start;
        let n = value.len();
        let mut out = Vec::new();
        if n > min {
            // Most aggressive first: cut straight to the minimum length,
            // then halve, then drop single elements at spread positions.
            out.push(value[..min].to_vec());
            let half = (n / 2).max(min);
            if half < n && half > min {
                out.push(value[..half].to_vec());
            }
            let step = (n / 12).max(1);
            for i in (0..n).step_by(step) {
                if out.len() >= 32 {
                    break;
                }
                let mut c = value.clone();
                c.remove(i);
                if c.len() >= min {
                    out.push(c);
                }
            }
        }
        // Simplify the leading elements in place.
        for i in 0..n.min(8) {
            for s in self.element.shrink(&value[i]) {
                if out.len() >= 64 {
                    return out;
                }
                let mut c = value.clone();
                c[i] = s;
                out.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_range() {
        let g = vec(0usize..10, 3..9);
        let mut rng = Rng64::new(11);
        for _ in 0..500 {
            let v = g.generate(&mut rng);
            assert!((3..9).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn shrinks_never_violate_min_len() {
        let g = vec(0usize..100, 2..50);
        let mut rng = Rng64::new(13);
        let v = g.generate(&mut rng);
        for c in g.shrink(&v) {
            assert!(c.len() >= 2);
        }
    }

    #[test]
    fn minimal_vec_only_shrinks_elements() {
        let g = vec(0usize..100, 2..50);
        let v = vec![0usize, 0];
        assert!(g.shrink(&v).is_empty(), "all-minimal vec has no shrinks");
    }
}
