//! Rotations of sequences: `shift`, lexicographic comparison and Booth's
//! minimal-rotation algorithm.
//!
//! The paper (Section 2.1) defines
//! `shift(D, x) = (d_x, d_{x+1}, …, d_{k-1}, d_0, …, d_{x-1})` and all three
//! algorithms compute the lexicographically minimal sequence among
//! `{shift(D, x) | 0 ≤ x ≤ k-1}`. The index `x` realising the minimum is the
//! agent's `rank` in Algorithm 1 (line 14) and in the relaxed algorithm
//! (Algorithm 6, line 3).

use std::cmp::Ordering;

/// Returns `shift(seq, x)`: the rotation of `seq` starting at index `x`.
///
/// Matches the paper's definition
/// `shift(D, x) = (d_x, …, d_{k-1}, d_0, …, d_{x-1})`. `x` is taken modulo
/// `seq.len()`, so any non-negative shift is accepted.
///
/// # Examples
///
/// ```
/// use ringdeploy_seq::shift;
/// assert_eq!(shift(&[1, 4, 2, 1, 2, 2], 2), vec![2, 1, 2, 2, 1, 4]);
/// assert_eq!(shift(&[5u64], 3), vec![5]);
/// ```
pub fn shift<T: Clone>(seq: &[T], x: usize) -> Vec<T> {
    if seq.is_empty() {
        return Vec::new();
    }
    let x = x % seq.len();
    let mut out = Vec::with_capacity(seq.len());
    out.extend_from_slice(&seq[x..]);
    out.extend_from_slice(&seq[..x]);
    out
}

/// Compares `shift(seq, a)` with `shift(seq, b)` lexicographically without
/// materialising either rotation.
///
/// # Examples
///
/// ```
/// use std::cmp::Ordering;
/// use ringdeploy_seq::compare_rotations;
/// // shift([2,1], 1) = [1,2] < [2,1] = shift([2,1], 0)
/// assert_eq!(compare_rotations(&[2, 1], 1, 0), Ordering::Less);
/// ```
pub fn compare_rotations<T: Ord>(seq: &[T], a: usize, b: usize) -> Ordering {
    let n = seq.len();
    if n == 0 {
        return Ordering::Equal;
    }
    let (a, b) = (a % n, b % n);
    for i in 0..n {
        let x = &seq[(a + i) % n];
        let y = &seq[(b + i) % n];
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Tests whether `shift(seq, x)` equals `seq` itself.
///
/// The ring of a configuration with distance sequence `D` is *periodic*
/// (paper, Section 2.1) when `shifted_eq(D, x)` holds for some `0 < x < k`.
///
/// # Examples
///
/// ```
/// use ringdeploy_seq::shifted_eq;
/// assert!(shifted_eq(&[1, 2, 3, 1, 2, 3], 3));
/// assert!(!shifted_eq(&[1, 2, 3, 1, 2, 3], 2));
/// ```
pub fn shifted_eq<T: Eq>(seq: &[T], x: usize) -> bool {
    let n = seq.len();
    if n == 0 {
        return true;
    }
    let x = x % n;
    (0..n).all(|i| seq[i] == seq[(i + x) % n])
}

/// Returns the smallest index `x` such that `shift(seq, x)` is the
/// lexicographically minimal rotation of `seq`, using Booth's algorithm.
///
/// Runs in `O(n)` time and `O(n)` auxiliary space. This is the `rank`
/// computed by Algorithm 1 (line 14): `min { x ≥ 0 | shift(D, x) = D_min }`.
///
/// Returns `0` for the empty sequence.
///
/// # Examples
///
/// ```
/// use ringdeploy_seq::{min_rotation, shift};
/// let d = [3u64, 1, 3, 1, 2, 1];
/// let x = min_rotation(&d);
/// assert_eq!(x, 3); // shift(D, 3) = [1,2,1,3,1,3] is minimal
/// assert_eq!(shift(&d, x), vec![1, 2, 1, 3, 1, 3]);
/// ```
pub fn min_rotation<T: Ord>(seq: &[T]) -> usize {
    min_rotation_with(seq, &mut Vec::new())
}

/// [`min_rotation`] with a caller-provided scratch buffer for Booth's
/// failure function, so loops that canonicalise many sequences pay no
/// per-call allocation. (Hot paths over *short* sequences — the
/// exhaustive explorer's symbol vectors — prefer [`min_rotation_elim`],
/// which wins there.) The buffer is overwritten; its previous contents
/// are irrelevant.
pub fn min_rotation_with<T: Ord>(seq: &[T], scratch: &mut Vec<isize>) -> usize {
    // Booth's least-rotation algorithm on the doubled sequence, using a
    // failure function. See Booth (1980), "Lexicographically least circular
    // substrings".
    let n = seq.len();
    if n <= 1 {
        return 0;
    }
    let at = |i: usize| -> &T { &seq[i % n] };
    scratch.clear();
    scratch.resize(2 * n, -1);
    let f = scratch;
    let mut k: usize = 0; // candidate least-rotation start
    for j in 1..2 * n {
        let sj = at(j);
        let mut i = f[j - k - 1];
        while i != -1 && *sj != *at(k + i as usize + 1) {
            if *sj < *at(k + i as usize + 1) {
                k = j - i as usize - 1;
            }
            i = f[i as usize];
        }
        // Here i == -1, or sj matches the character after the border.
        // When i == -1 the comparison character is at(k) itself.
        let cmp = if i == -1 { k } else { k + i as usize + 1 };
        if *sj != *at(cmp) {
            debug_assert_eq!(i, -1);
            if *sj < *at(k) {
                k = j;
            }
            f[j - k] = -1;
        } else {
            f[j - k] = i + 1;
        }
    }
    k % n
}

/// [`min_rotation`] by **progressive candidate elimination**, with a
/// reusable scratch buffer for the candidate set.
///
/// Pass 1 collects the positions of the minimal element; each further
/// pass keeps only the candidates whose next element is minimal among
/// the candidates, until one remains (or `n` offsets are exhausted —
/// periodic sequences keep one candidate per period, and the smallest
/// index wins, matching [`min_rotation`]'s tie rule exactly).
///
/// Worst case `O(n · c)` where `c` is the multiplicity of the minimal
/// element, but the candidate set collapses after one or two offsets on
/// typical data — measurably faster than Booth's algorithm (which pays a
/// `2n`-entry failure function per call) on the short sequences the
/// exhaustive explorer canonicalises once per generated child state.
///
/// # Examples
///
/// ```
/// use ringdeploy_seq::{min_rotation, min_rotation_elim};
/// let d = [3u64, 1, 3, 1, 2, 1];
/// let mut scratch = Vec::new();
/// assert_eq!(min_rotation_elim(&d, &mut scratch), min_rotation(&d));
/// ```
pub fn min_rotation_elim<T: Ord>(seq: &[T], scratch: &mut Vec<usize>) -> usize {
    let n = seq.len();
    if n <= 1 {
        return 0;
    }
    let cands = scratch;
    cands.clear();
    cands.push(0);
    let mut min = &seq[0];
    for (i, x) in seq.iter().enumerate().skip(1) {
        match x.cmp(min) {
            Ordering::Less => {
                min = x;
                cands.clear();
                cands.push(i);
            }
            Ordering::Equal => cands.push(i),
            Ordering::Greater => {}
        }
    }
    let mut d = 1;
    while cands.len() > 1 && d < n {
        // Minimum of the candidates' d-th followers…
        let mut best = &seq[(cands[0] + d) % n];
        for &c in cands[1..].iter() {
            let x = &seq[(c + d) % n];
            if x < best {
                best = x;
            }
        }
        // …and retain exactly the candidates that achieve it (in-place
        // compaction preserves ascending order, so ties resolve to the
        // smallest index).
        let mut kept = 0;
        for r in 0..cands.len() {
            if seq[(cands[r] + d) % n] == *best {
                cands[kept] = cands[r];
                kept += 1;
            }
        }
        cands.truncate(kept);
        d += 1;
    }
    cands[0]
}

/// Returns the lexicographically minimal rotation of `seq` itself —
/// `shift(seq, min_rotation(seq))` — the canonical representative of the
/// rotation class of `seq`.
///
/// Two sequences are rotations of each other **iff** their canonical
/// rotations are equal, which is what makes this the quotient map used by
/// the exhaustive explorer's rotation-symmetry reduction (`ringdeploy-sim`
/// hashes the canonical rotation of its per-node state symbols).
///
/// # Examples
///
/// ```
/// use ringdeploy_seq::canonical_rotation;
/// assert_eq!(canonical_rotation(&[3u64, 1, 2]), vec![1, 2, 3]);
/// // All rotations share one canonical form.
/// assert_eq!(canonical_rotation(&[1u64, 2, 3]), canonical_rotation(&[2u64, 3, 1]));
/// ```
pub fn canonical_rotation<T: Ord + Clone>(seq: &[T]) -> Vec<T> {
    shift(seq, min_rotation(seq))
}

/// Reference implementation of [`min_rotation`]: compares all rotations in
/// `O(n²)`. Exposed for differential testing and teaching; prefer
/// [`min_rotation`] in real code.
///
/// Among equal-minimal rotations it returns the smallest index, matching
/// Algorithm 1's `min { x ≥ 0 | shift(D, x) = D_min }`.
///
/// # Examples
///
/// ```
/// use ringdeploy_seq::{min_rotation, min_rotation_naive};
/// let d = [2u64, 2, 1, 2, 2, 1];
/// assert_eq!(min_rotation(&d), min_rotation_naive(&d));
/// ```
pub fn min_rotation_naive<T: Ord>(seq: &[T]) -> usize {
    let n = seq.len();
    if n <= 1 {
        return 0;
    }
    let mut best = 0usize;
    for cand in 1..n {
        if compare_rotations(seq, cand, best) == Ordering::Less {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_matches_paper_definition() {
        let d = [10u64, 20, 30, 40];
        assert_eq!(shift(&d, 0), vec![10, 20, 30, 40]);
        assert_eq!(shift(&d, 1), vec![20, 30, 40, 10]);
        assert_eq!(shift(&d, 3), vec![40, 10, 20, 30]);
        assert_eq!(shift(&d, 4), vec![10, 20, 30, 40]);
        assert_eq!(shift(&d, 7), vec![40, 10, 20, 30]);
    }

    #[test]
    fn shift_empty_is_empty() {
        let d: [u64; 0] = [];
        assert!(shift(&d, 3).is_empty());
    }

    #[test]
    fn shifted_eq_detects_periodicity() {
        assert!(shifted_eq(&[1, 2, 1, 2], 2));
        assert!(!shifted_eq(&[1, 2, 1, 3], 2));
        assert!(shifted_eq(&[7, 7, 7], 1));
        // Every sequence is equal to its 0-shift and len-shift.
        assert!(shifted_eq(&[4, 5, 6], 0));
        assert!(shifted_eq(&[4, 5, 6], 3));
    }

    #[test]
    fn compare_rotations_total_order() {
        let d = [3u64, 1, 2];
        assert_eq!(compare_rotations(&d, 1, 0), Ordering::Less); // [1,2,3] < [3,1,2]
        assert_eq!(compare_rotations(&d, 0, 1), Ordering::Greater);
        assert_eq!(compare_rotations(&d, 2, 2), Ordering::Equal);
    }

    #[test]
    fn min_rotation_simple_cases() {
        assert_eq!(min_rotation::<u64>(&[]), 0);
        assert_eq!(min_rotation(&[42u64]), 0);
        assert_eq!(min_rotation(&[2u64, 1]), 1);
        assert_eq!(min_rotation(&[1u64, 2]), 0);
        assert_eq!(min_rotation(&[1u64, 1, 1]), 0);
    }

    #[test]
    fn min_rotation_fig1a_sequence() {
        // Fig. 1(a): (1,4,2,1,2,2); minimal rotation is (1,2,2,1,4,2) at x=3.
        let d = [1u64, 4, 2, 1, 2, 2];
        let x = min_rotation(&d);
        assert_eq!(x, min_rotation_naive(&d));
        assert_eq!(shift(&d, x), vec![1, 2, 2, 1, 4, 2]);
    }

    #[test]
    fn min_rotation_periodic_prefers_smallest_index() {
        // (1,2,3,1,2,3): rotations starting at 0 and 3 are both minimal;
        // Algorithm 1 takes the smallest index.
        let d = [1u64, 2, 3, 1, 2, 3];
        assert_eq!(min_rotation(&d), 0);
        let d2 = [3u64, 1, 2, 3, 1, 2];
        assert_eq!(min_rotation(&d2), 1);
        assert_eq!(min_rotation_naive(&d2), 1);
    }

    #[test]
    fn canonical_rotation_is_a_rotation_class_invariant() {
        let d = [1u64, 4, 2, 1, 2, 2];
        let canon = canonical_rotation(&d);
        assert_eq!(canon, vec![1, 2, 2, 1, 4, 2]);
        for x in 0..d.len() {
            assert_eq!(canonical_rotation(&shift(&d, x)), canon, "shift {x}");
        }
        // Non-rotations disagree.
        assert_ne!(canonical_rotation(&[1u64, 4, 2, 1, 2, 3]), canon);
        assert_eq!(canonical_rotation::<u64>(&[]), Vec::<u64>::new());
    }

    #[test]
    fn min_rotation_agrees_with_naive_exhaustive_small() {
        // All sequences over {0,1,2} of length up to 7 — Booth, the
        // candidate-elimination variant and the naive reference must
        // agree everywhere (including on the duplicate-heavy and fully
        // periodic sequences where the tie rules bite).
        let mut scratch = Vec::new();
        for len in 1..=7usize {
            let mut idx = vec![0u8; len];
            loop {
                let seq: Vec<u8> = idx.clone();
                assert_eq!(
                    min_rotation(&seq),
                    min_rotation_naive(&seq),
                    "mismatch on {seq:?}"
                );
                assert_eq!(
                    min_rotation_elim(&seq, &mut scratch),
                    min_rotation_naive(&seq),
                    "elim mismatch on {seq:?}"
                );
                // Increment base-3 counter.
                let mut i = 0;
                loop {
                    if i == len {
                        break;
                    }
                    idx[i] += 1;
                    if idx[i] < 3 {
                        break;
                    }
                    idx[i] = 0;
                    i += 1;
                }
                if i == len {
                    break;
                }
            }
        }
    }
}
