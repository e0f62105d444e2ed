//! Leapfrog intersection of sorted value slices (Veldhuizen 2012).
//!
//! The seek kernels shared by every worst-case optimal engine here: given a
//! sorted, duplicate-free slice, find the first value `>=` a target with
//! galloping ([`gallop`]) or block-wise ([`block_seek`]) search — the steps
//! behind an `O(k · n_min · log(n_max / n_min))`-ish k-way intersection. The
//! intersection itself runs over trie levels in [`crate::lftj`];
//! [`intersect`] and [`union`] are the materialising references its tests
//! check against.

use crate::value::ValueId;

/// Stride of the branch-reduced block search: [`block_seek`] resolves the
/// final position inside a window of at most this many elements with a
/// branchless `count_lt` scan instead of a binary search.
pub const SEEK_BLOCK: usize = 32;

/// Counts elements of `window` strictly below `target`.
///
/// Branch-free (`(v < target) as usize` summed), so LLVM autovectorizes it;
/// on a sorted window the count equals the rank of the first element
/// `>= target`, which is how [`block_seek`] finishes without a data-dependent
/// branch per comparison.
#[inline]
fn count_lt(window: &[ValueId], target: ValueId) -> usize {
    window.iter().map(|&v| usize::from(v < target)).sum()
}

/// Returns the first index `i` in `lo..slice.len()` with `slice[i] >= target`
/// (or `slice.len()` when no such index exists), using exponential probing
/// followed by binary search. `slice` must be sorted ascending.
pub fn gallop(slice: &[ValueId], mut lo: usize, target: ValueId) -> usize {
    if lo >= slice.len() || slice[lo] >= target {
        return lo;
    }
    // Invariant below: slice[lo] < target.
    let mut step = 1usize;
    while lo + step < slice.len() && slice[lo + step] < target {
        lo += step;
        step <<= 1;
    }
    let mut hi = (lo + step).min(slice.len());
    // Invariant: slice[lo] < target, and slice[hi..] >= target (or hi == len).
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if slice[mid] < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Block-wise, branch-reduced variant of [`gallop`]: identical contract
/// (first index in `lo..slice.len()` with `slice[i] >= target`, `slice`
/// sorted ascending), different search shape.
///
/// Most leapfrog seeks land within a few elements of the cursor, so the fast
/// path scans one [`SEEK_BLOCK`]-wide window with the branchless
/// `count_lt` kernel. Longer seeks gallop at block granularity (keeping
/// the exponential worst case of [`gallop`]), binary-search down to a single
/// block, and finish with the same branchless scan — replacing the last
/// `log2(SEEK_BLOCK)` unpredictable branches of a plain binary search with
/// one vectorizable pass.
pub fn block_seek(slice: &[ValueId], lo: usize, target: ValueId) -> usize {
    let n = slice.len();
    if lo >= n || slice[lo] >= target {
        return lo;
    }
    // Fast path: the answer lies within the first block after the cursor.
    let b_end = (lo + SEEK_BLOCK).min(n);
    if slice[b_end - 1] >= target {
        return lo + count_lt(&slice[lo..b_end], target);
    }
    if b_end == n {
        return n;
    }
    // Invariant below: slice[cur] < target.
    let mut cur = b_end - 1;
    let mut step = SEEK_BLOCK;
    while cur + step < n && slice[cur + step] < target {
        cur += step;
        step <<= 1;
    }
    let mut hi = (cur + step).min(n);
    // Invariant: slice[cur] < target, and slice[hi..] >= target (or hi == n).
    while hi - cur > SEEK_BLOCK {
        let mid = cur + (hi - cur) / 2;
        if slice[mid] < target {
            cur = mid;
        } else {
            hi = mid;
        }
    }
    cur + 1 + count_lt(&slice[cur + 1..hi], target)
}

/// [`gallop`] with a probe-step count: returns `(position, steps)` where
/// `steps` tallies each exponential probe and each binary-search halving.
/// The position is always identical to `gallop`'s.
pub fn gallop_counted(slice: &[ValueId], mut lo: usize, target: ValueId) -> (usize, u64) {
    if lo >= slice.len() || slice[lo] >= target {
        return (lo, 1);
    }
    let mut steps = 1u64;
    let mut step = 1usize;
    while lo + step < slice.len() && slice[lo + step] < target {
        lo += step;
        step <<= 1;
        steps += 1;
    }
    let mut hi = (lo + step).min(slice.len());
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if slice[mid] < target {
            lo = mid;
        } else {
            hi = mid;
        }
        steps += 1;
    }
    (hi, steps)
}

/// [`block_seek`] with a probe-step count: returns `(position, steps)` where
/// `steps` tallies scanned blocks, block-gallop probes, and binary-search
/// halvings. The position is always identical to `block_seek`'s.
pub fn block_seek_counted(slice: &[ValueId], lo: usize, target: ValueId) -> (usize, u64) {
    let n = slice.len();
    if lo >= n || slice[lo] >= target {
        return (lo, 1);
    }
    let b_end = (lo + SEEK_BLOCK).min(n);
    if slice[b_end - 1] >= target {
        return (lo + count_lt(&slice[lo..b_end], target), 1);
    }
    if b_end == n {
        return (n, 1);
    }
    let mut steps = 1u64;
    let mut cur = b_end - 1;
    let mut step = SEEK_BLOCK;
    while cur + step < n && slice[cur + step] < target {
        cur += step;
        step <<= 1;
        steps += 1;
    }
    let mut hi = (cur + step).min(n);
    while hi - cur > SEEK_BLOCK {
        let mid = cur + (hi - cur) / 2;
        if slice[mid] < target {
            cur = mid;
        } else {
            hi = mid;
        }
        steps += 1;
    }
    // Final branchless block scan.
    steps += 1;
    (cur + 1 + count_lt(&slice[cur + 1..hi], target), steps)
}

/// Materialises the sorted, duplicate-free union of the given sorted
/// duplicate-free slices — the eager counterpart of the lazy k-way union
/// view that layered (base + delta) tries expose to the walk, kept here as
/// the reference the union-cursor differential tests check against.
pub fn union(slices: &[&[ValueId]]) -> Vec<ValueId> {
    let mut out = Vec::with_capacity(slices.iter().map(|s| s.len()).sum());
    let mut pos = vec![0usize; slices.len()];
    loop {
        let mut min: Option<ValueId> = None;
        for (s, &p) in slices.iter().zip(&pos) {
            if p < s.len() {
                let v = s[p];
                min = Some(match min {
                    Some(m) if m <= v => m,
                    _ => v,
                });
            }
        }
        let Some(v) = min else { break };
        out.push(v);
        for (s, p) in slices.iter().zip(&mut pos) {
            if *p < s.len() && s[*p] == v {
                *p += 1;
            }
        }
    }
    out
}

/// Materialises the intersection of the given sorted, duplicate-free
/// slices: each value of the first slice is galloped for in the others. The
/// reference the trie intersection tests check against; empty for no
/// slices.
pub fn intersect(slices: &[&[ValueId]]) -> Vec<ValueId> {
    let Some((first, rest)) = slices.split_first() else {
        return Vec::new();
    };
    let mut pos = vec![0usize; rest.len()];
    first
        .iter()
        .copied()
        .filter(|&v| {
            rest.iter().zip(&mut pos).all(|(s, p)| {
                *p = gallop(s, *p, v);
                s.get(*p) == Some(&v)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<ValueId> {
        xs.iter().map(|&x| ValueId(x)).collect()
    }

    #[test]
    fn gallop_finds_first_geq() {
        let s = ids(&[1, 3, 5, 7, 9, 11]);
        assert_eq!(gallop(&s, 0, ValueId(0)), 0);
        assert_eq!(gallop(&s, 0, ValueId(1)), 0);
        assert_eq!(gallop(&s, 0, ValueId(2)), 1);
        assert_eq!(gallop(&s, 0, ValueId(7)), 3);
        assert_eq!(gallop(&s, 0, ValueId(8)), 4);
        assert_eq!(gallop(&s, 0, ValueId(11)), 5);
        assert_eq!(gallop(&s, 0, ValueId(12)), 6);
    }

    #[test]
    fn gallop_respects_lower_bound() {
        let s = ids(&[1, 3, 5, 7]);
        assert_eq!(gallop(&s, 2, ValueId(2)), 2);
        assert_eq!(gallop(&s, 2, ValueId(6)), 3);
        assert_eq!(gallop(&s, 4, ValueId(0)), 4);
    }

    #[test]
    fn gallop_on_long_runs() {
        let s: Vec<ValueId> = (0..1000).map(|i| ValueId(2 * i)).collect();
        for probe in [0u32, 1, 2, 999, 1000, 1998, 1999, 2000, 5000] {
            let want = s
                .iter()
                .position(|&v| v >= ValueId(probe))
                .unwrap_or(s.len());
            assert_eq!(gallop(&s, 0, ValueId(probe)), want, "probe {probe}");
        }
    }

    #[test]
    fn block_seek_finds_first_geq() {
        let s = ids(&[1, 3, 5, 7, 9, 11]);
        assert_eq!(block_seek(&s, 0, ValueId(0)), 0);
        assert_eq!(block_seek(&s, 0, ValueId(1)), 0);
        assert_eq!(block_seek(&s, 0, ValueId(2)), 1);
        assert_eq!(block_seek(&s, 0, ValueId(7)), 3);
        assert_eq!(block_seek(&s, 0, ValueId(8)), 4);
        assert_eq!(block_seek(&s, 0, ValueId(11)), 5);
        assert_eq!(block_seek(&s, 0, ValueId(12)), 6);
    }

    #[test]
    fn block_seek_respects_lower_bound() {
        let s = ids(&[1, 3, 5, 7]);
        assert_eq!(block_seek(&s, 2, ValueId(2)), 2);
        assert_eq!(block_seek(&s, 2, ValueId(6)), 3);
        assert_eq!(block_seek(&s, 4, ValueId(0)), 4);
        assert_eq!(block_seek(&s, 9, ValueId(0)), 9);
        assert_eq!(block_seek(&[], 0, ValueId(5)), 0);
    }

    #[test]
    fn block_seek_matches_gallop_on_long_runs() {
        // Spans several blocks so the block-gallop + binary-search + residual
        // count_lt path is exercised, not just the first-block fast path.
        let s: Vec<ValueId> = (0..4096).map(|i| ValueId(3 * i)).collect();
        for lo in [0usize, 1, 31, 32, 33, 1000, 4095, 4096, 5000] {
            for probe in [0u32, 1, 95, 96, 97, 3000, 6143, 6144, 12285, 12288, 20000] {
                assert_eq!(
                    block_seek(&s, lo, ValueId(probe)),
                    gallop(&s, lo, ValueId(probe)),
                    "lo {lo} probe {probe}"
                );
            }
        }
    }

    #[test]
    fn counted_seeks_agree_with_uncounted_and_count_work() {
        let s: Vec<ValueId> = (0..4096).map(|i| ValueId(3 * i)).collect();
        for lo in [0usize, 1, 31, 32, 33, 1000, 4095, 4096, 5000] {
            for probe in [0u32, 1, 95, 96, 97, 3000, 6143, 6144, 12285, 12288, 20000] {
                let t = ValueId(probe);
                let (gp, gs) = gallop_counted(&s, lo, t);
                assert_eq!(gp, gallop(&s, lo, t), "gallop lo {lo} probe {probe}");
                assert!(gs >= 1, "gallop steps lo {lo} probe {probe}");
                let (bp, bs) = block_seek_counted(&s, lo, t);
                assert_eq!(bp, block_seek(&s, lo, t), "block lo {lo} probe {probe}");
                assert!(bs >= 1, "block steps lo {lo} probe {probe}");
            }
        }
        // A long seek costs more steps than a no-op seek.
        let (_, near) = block_seek_counted(&s, 0, ValueId(0));
        let (_, far) = block_seek_counted(&s, 0, ValueId(12285));
        assert!(far > near, "far {far} near {near}");
    }

    #[test]
    fn union_merges_and_dedups() {
        let a = ids(&[1, 3, 5]);
        let b = ids(&[2, 3, 6]);
        let c = ids(&[3, 5, 9]);
        assert_eq!(union(&[&a, &b, &c]), ids(&[1, 2, 3, 5, 6, 9]));
        assert_eq!(union(&[&a]), a);
        assert!(union(&[]).is_empty());
        assert_eq!(union(&[&[], &a]), a);
    }

    #[test]
    fn intersect_basic() {
        let a = ids(&[1, 2, 3, 5, 8]);
        let b = ids(&[2, 3, 4, 8, 9]);
        let c = ids(&[0, 2, 8]);
        assert_eq!(intersect(&[&a, &b, &c]), ids(&[2, 8]));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = ids(&[1, 3, 5]);
        let b = ids(&[2, 4, 6]);
        assert!(intersect(&[&a, &b]).is_empty());
    }

    #[test]
    fn intersect_with_empty_slice_is_empty() {
        let a = ids(&[1, 2]);
        let b = ids(&[]);
        assert!(intersect(&[&a, &b]).is_empty());
    }

    #[test]
    fn intersect_single_slice_yields_all() {
        let a = ids(&[4, 6, 9]);
        assert_eq!(intersect(&[&a]), a);
    }

    #[test]
    fn intersect_identical_slices() {
        let a = ids(&[1, 5, 7]);
        assert_eq!(intersect(&[&a, &a, &a]), a);
    }

    #[test]
    fn no_cursors_yields_nothing() {
        assert!(intersect(&[]).is_empty());
    }

    #[test]
    fn intersect_matches_naive_on_skewed_sizes() {
        let a: Vec<ValueId> = (0..500).map(|i| ValueId(i * 3)).collect();
        let b: Vec<ValueId> = (0..50).map(|i| ValueId(i * 30)).collect();
        let naive: Vec<ValueId> = a.iter().filter(|v| b.contains(v)).copied().collect();
        assert_eq!(intersect(&[&a, &b]), naive);
        assert_eq!(intersect(&[&b, &a]), naive);
    }
}
