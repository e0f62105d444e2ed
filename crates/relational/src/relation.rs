//! In-memory relations: row-major stores of dictionary-encoded tuples.

use crate::error::{RelError, Result};
use crate::schema::{Attr, Schema};
use crate::value::ValueId;
use std::collections::HashSet;
use std::fmt;

/// A materialised relation: a [`Schema`] plus a row-major tuple store.
///
/// Relations use *set semantics* after [`Relation::sort_dedup`]; builders may
/// temporarily hold duplicates. All values are dictionary-encoded
/// [`ValueId`]s — decoding back to user values goes through the shared
/// [`crate::value::Dict`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    data: Vec<ValueId>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            data: Vec::new(),
        }
    }

    /// Creates an empty relation, pre-allocating space for `rows` tuples.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            data: Vec::with_capacity(rows * arity),
        }
    }

    /// Wraps a row-major buffer of whole tuples without copying it.
    ///
    /// # Panics
    /// Panics on nullary schemas or if `data` does not hold whole tuples.
    pub(crate) fn from_flat(schema: Schema, data: Vec<ValueId>) -> Self {
        let arity = schema.arity();
        assert!(
            arity > 0 && data.len().is_multiple_of(arity),
            "ragged row buffer"
        );
        Relation { schema, data }
    }

    /// Builds a relation from an iterator of rows, validating arity.
    pub fn from_rows<I>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator,
        I::Item: AsRef<[ValueId]>,
    {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push(row.as_ref())?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of attributes per tuple.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples currently stored (duplicates included until
    /// [`Relation::sort_dedup`] is called).
    pub fn len(&self) -> usize {
        if self.schema.arity() == 0 {
            // A nullary relation holds at most one (empty) tuple; we encode
            // "one tuple" as a non-empty marker in `data`? No: nullary
            // relations are tracked via `nullary_present` semantics below.
            // We store one sentinel per tuple to keep len() meaningful.
            self.data.len()
        } else {
            self.data.len() / self.schema.arity()
        }
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a tuple, validating its arity.
    pub fn push(&mut self, row: &[ValueId]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        if row.is_empty() {
            // Nullary tuple: store a sentinel so len() counts it.
            self.data.push(ValueId(0));
        } else {
            self.data.extend_from_slice(row);
        }
        Ok(())
    }

    /// The `i`-th tuple as a slice.
    ///
    /// # Panics
    /// Panics if `i >= self.len()` or on nullary relations.
    pub fn row(&self, i: usize) -> &[ValueId] {
        let a = self.schema.arity();
        assert!(a > 0, "row() on nullary relation");
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates over tuples as slices. Nullary relations yield empty slices.
    pub fn rows(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        let a = self.schema.arity();
        RowIter {
            data: &self.data,
            arity: a,
            pos: 0,
            remaining: self.len(),
        }
    }

    /// Sorts tuples lexicographically (in schema attribute order) and removes
    /// duplicates, establishing set semantics.
    pub fn sort_dedup(&mut self) {
        let a = self.schema.arity();
        if a == 0 {
            self.data.truncate(1);
            return;
        }
        let n = self.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let data = &self.data;
        perm.sort_unstable_by(|&x, &y| {
            let rx = &data[x as usize * a..x as usize * a + a];
            let ry = &data[y as usize * a..y as usize * a + a];
            rx.cmp(ry)
        });
        let mut out: Vec<ValueId> = Vec::with_capacity(self.data.len());
        let mut last: Option<&[ValueId]> = None;
        for &p in &perm {
            let r = &data[p as usize * a..p as usize * a + a];
            if last != Some(r) {
                out.extend_from_slice(r);
            }
            last = Some(r);
        }
        self.data = out;
    }

    /// Whether the tuples are strictly ascending — sorted and duplicate-free,
    /// the state [`Relation::sort_dedup`] establishes. O(n).
    pub fn is_sorted_set(&self) -> bool {
        let a = self.schema.arity();
        if a == 0 {
            return self.data.len() <= 1;
        }
        self.data
            .chunks_exact(a)
            .zip(self.data.chunks_exact(a).skip(1))
            .all(|(x, y)| x < y)
    }

    /// The set union of two sorted sets ([`Relation::is_sorted_set`]),
    /// sorted, in one pass and without re-sorting: each `batch` row's
    /// insertion point is a binary search over the not-yet-copied suffix of
    /// `self`, and the span of `self` below it is copied wholesale. Costs
    /// `O(|self| + |batch| · log |self|)` — built for a small batch spliced
    /// into a large relation (appends, delta compaction). Batch rows already
    /// in `self` are kept once. The result carries `self`'s schema; the two
    /// arities must agree.
    pub fn splice(&self, batch: &Relation) -> Result<Relation> {
        let a = self.arity();
        if batch.arity() != a {
            return Err(RelError::ArityMismatch {
                expected: a,
                got: batch.arity(),
            });
        }
        debug_assert!(
            self.is_sorted_set() && batch.is_sorted_set(),
            "splice needs sorted, duplicate-free inputs"
        );
        if a == 0 {
            // Nullary: the union holds the empty tuple iff either side does.
            let mut out = Relation::new(self.schema.clone());
            if !self.is_empty() || !batch.is_empty() {
                out.push(&[])?;
            }
            return Ok(out);
        }
        let base = &self.data;
        let n = self.len();
        let mut out = Relation::with_capacity(self.schema.clone(), n + batch.len());
        let mut lo = 0usize; // first base row not yet copied out
        for row in batch.rows() {
            let mut left = lo;
            let mut right = n;
            while left < right {
                let mid = left + (right - left) / 2;
                if &base[mid * a..(mid + 1) * a] < row {
                    left = mid + 1;
                } else {
                    right = mid;
                }
            }
            out.data.extend_from_slice(&base[lo * a..left * a]);
            out.data.extend_from_slice(row);
            // Skip the base copy when the batch re-inserts an existing row.
            lo = if left < n && &base[left * a..(left + 1) * a] == row {
                left + 1
            } else {
                left
            };
        }
        out.data.extend_from_slice(&base[lo * a..]);
        Ok(out)
    }

    /// Keeps only the first `n` tuples (no-op when `n >= len`). Engines use
    /// this to apply a `LIMIT` to an already-materialised result.
    pub fn truncate(&mut self, n: usize) {
        // Nullary tuples are stored as one sentinel value each, so the
        // per-tuple stride is `max(arity, 1)` either way.
        let stride = self.schema.arity().max(1);
        self.data.truncate(n.saturating_mul(stride));
    }

    /// Projects onto `attrs` (with set semantics on the result).
    pub fn project(&self, attrs: &[Attr]) -> Result<Relation> {
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| self.schema.require(a))
            .collect::<Result<_>>()?;
        let out_schema = Schema::new(attrs.iter().cloned())?;
        let mut out = Relation::with_capacity(out_schema, self.len());
        let mut buf = Vec::with_capacity(positions.len());
        for row in self.rows() {
            buf.clear();
            buf.extend(positions.iter().map(|&p| row[p]));
            out.push(&buf)?;
        }
        out.sort_dedup();
        Ok(out)
    }

    /// Selects tuples whose `attr` column equals `value`.
    pub fn select_eq(&self, attr: &Attr, value: ValueId) -> Result<Relation> {
        let p = self.schema.require(attr)?;
        let mut out = Relation::new(self.schema.clone());
        for row in self.rows() {
            if row[p] == value {
                out.push(row)?;
            }
        }
        Ok(out)
    }

    /// Returns a copy with attributes renamed via `f` (schema order kept).
    pub fn rename(&self, f: impl Fn(&Attr) -> Attr) -> Result<Relation> {
        let schema = Schema::new(self.schema.attrs().iter().map(&f))?;
        Ok(Relation {
            schema,
            data: self.data.clone(),
        })
    }

    /// Collects the tuples into a hash set of boxed rows (for membership
    /// tests in reference implementations and tests).
    pub fn row_set(&self) -> HashSet<Box<[ValueId]>> {
        self.rows().map(|r| r.to_vec().into_boxed_slice()).collect()
    }

    /// Whether this relation contains `row` (linear scan; intended for tests
    /// and small relations — engines use tries instead).
    pub fn contains_row(&self, row: &[ValueId]) -> bool {
        self.rows().any(|r| r == row)
    }

    /// Set equality with another relation (ignores tuple order and
    /// duplicates; schemas must match by attribute order).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.row_set() == other.row_set()
    }

    /// Approximate heap footprint of the tuple store in bytes (schema
    /// excluded). Memory budgeters sum this with
    /// [`crate::value::Dict::estimated_bytes`].
    pub fn estimated_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<ValueId>()
    }

    /// Reorders columns into `attrs` order (a permutation of the schema).
    pub fn reorder(&self, attrs: &[Attr]) -> Result<Relation> {
        if attrs.len() != self.arity() {
            return Err(RelError::InvalidOrder(format!(
                "reorder expects {} attributes, got {}",
                self.arity(),
                attrs.len()
            )));
        }
        self.project(attrs)
    }
}

struct RowIter<'a> {
    data: &'a [ValueId],
    arity: usize,
    pos: usize,
    remaining: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [ValueId];

    fn next(&mut self) -> Option<&'a [ValueId]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.arity == 0 {
            return Some(&[]);
        }
        let r = &self.data[self.pos..self.pos + self.arity];
        self.pos += self.arity;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} rows]", self.schema, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    #[test]
    fn push_validates_arity() {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        assert!(r.push(&[v(1), v(2)]).is_ok());
        assert!(r.push(&[v(1)]).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn sort_dedup_establishes_set_semantics() {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        r.push(&[v(2), v(1)]).unwrap();
        r.push(&[v(1), v(9)]).unwrap();
        r.push(&[v(2), v(1)]).unwrap();
        r.push(&[v(1), v(3)]).unwrap();
        r.sort_dedup();
        let rows: Vec<Vec<ValueId>> = r.rows().map(|x| x.to_vec()).collect();
        assert_eq!(
            rows,
            vec![vec![v(1), v(3)], vec![v(1), v(9)], vec![v(2), v(1)]]
        );
    }

    #[test]
    fn project_deduplicates() {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        r.push(&[v(1), v(2)]).unwrap();
        r.push(&[v(1), v(3)]).unwrap();
        let p = r.project(&["a".into()]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.row(0), &[v(1)]);
    }

    #[test]
    fn project_reorders_columns() {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        r.push(&[v(1), v(2)]).unwrap();
        let p = r.project(&["b".into(), "a".into()]).unwrap();
        assert_eq!(p.schema(), &Schema::of(&["b", "a"]));
        assert_eq!(p.row(0), &[v(2), v(1)]);
    }

    #[test]
    fn select_eq_filters_rows() {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        r.push(&[v(1), v(2)]).unwrap();
        r.push(&[v(3), v(2)]).unwrap();
        r.push(&[v(1), v(4)]).unwrap();
        let s = r.select_eq(&"a".into(), v(1)).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains_row(&[v(1), v(2)]));
        assert!(s.contains_row(&[v(1), v(4)]));
        assert!(r.select_eq(&"zz".into(), v(0)).is_err());
    }

    #[test]
    fn rename_changes_schema_only() {
        let mut r = Relation::new(Schema::of(&["a"]));
        r.push(&[v(7)]).unwrap();
        let r2 = r.rename(|a| Attr::new(format!("{}_x", a.name()))).unwrap();
        assert_eq!(r2.schema(), &Schema::of(&["a_x"]));
        assert_eq!(r2.row(0), &[v(7)]);
    }

    #[test]
    fn set_eq_ignores_order_and_duplicates() {
        let s = Schema::of(&["a"]);
        let mut r1 = Relation::new(s.clone());
        r1.push(&[v(1)]).unwrap();
        r1.push(&[v(2)]).unwrap();
        r1.push(&[v(1)]).unwrap();
        let mut r2 = Relation::new(s);
        r2.push(&[v(2)]).unwrap();
        r2.push(&[v(1)]).unwrap();
        assert!(r1.set_eq(&r2));
    }

    #[test]
    fn nullary_relation_counts_tuples() {
        let mut r = Relation::new(Schema::new(Vec::<&str>::new()).unwrap());
        assert!(r.is_empty());
        r.push(&[]).unwrap();
        r.push(&[]).unwrap();
        assert_eq!(r.len(), 2);
        r.sort_dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows().next(), Some(&[][..]));
    }

    #[test]
    fn rows_iterator_size_hint() {
        let mut r = Relation::new(Schema::of(&["a"]));
        r.push(&[v(1)]).unwrap();
        r.push(&[v(2)]).unwrap();
        let it = r.rows();
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn from_rows_builder() {
        let r = Relation::from_rows(Schema::of(&["a", "b"]), [[v(1), v(2)], [v(3), v(4)]]).unwrap();
        assert_eq!(r.len(), 2);
        assert!(Relation::from_rows(Schema::of(&["a"]), [[v(1), v(2)]]).is_err());
    }

    fn set(rows: &[[u32; 2]]) -> Relation {
        let mut r = Relation::new(Schema::of(&["a", "b"]));
        for row in rows {
            r.push(&[v(row[0]), v(row[1])]).unwrap();
        }
        r.sort_dedup();
        r
    }

    /// The splice's reference: clone, push the batch, sort and dedup.
    fn resorted(base: &Relation, batch: &Relation) -> Relation {
        let mut full = base.clone();
        for row in batch.rows() {
            full.push(row).unwrap();
        }
        full.sort_dedup();
        full
    }

    #[test]
    fn splice_into_an_empty_base_is_the_batch() {
        let batch = set(&[[3, 1], [1, 2]]);
        let out = set(&[]).splice(&batch).unwrap();
        assert_eq!(out, batch);
        assert!(out.is_sorted_set());
    }

    #[test]
    fn splice_of_an_empty_batch_is_the_base() {
        let base = set(&[[1, 1], [2, 2]]);
        assert_eq!(base.splice(&set(&[])).unwrap(), base);
    }

    #[test]
    fn splice_of_rows_already_present_keeps_them_once() {
        let base = set(&[[1, 1], [2, 2], [3, 3]]);
        let out = base.splice(&set(&[[1, 1], [3, 3]])).unwrap();
        assert_eq!(out, base);
    }

    #[test]
    fn splice_interleaves_rows_before_between_and_after_the_base() {
        let base = set(&[[2, 2], [4, 4], [6, 6]]);
        let batch = set(&[[0, 9], [2, 2], [2, 3], [5, 0], [9, 9]]);
        let out = base.splice(&batch).unwrap();
        assert_eq!(out, resorted(&base, &batch));
        assert_eq!(out.len(), 7);
        assert!(out.is_sorted_set());
    }

    #[test]
    fn splice_nullary_holds_the_empty_tuple_iff_either_side_does() {
        let empty = Relation::new(Schema::of(&[]));
        let mut one = empty.clone();
        one.push(&[]).unwrap();
        assert_eq!(empty.splice(&empty).unwrap().len(), 0);
        assert_eq!(empty.splice(&one).unwrap().len(), 1);
        assert_eq!(one.splice(&empty).unwrap().len(), 1);
        assert_eq!(one.splice(&one).unwrap().len(), 1);
    }

    #[test]
    fn splice_rejects_an_arity_mismatch() {
        let narrow = Relation::from_rows(Schema::of(&["a"]), [[v(1)]]).unwrap();
        assert!(set(&[[1, 1]]).splice(&narrow).is_err());
    }

    #[test]
    fn is_sorted_set_rejects_disorder_and_duplicates() {
        assert!(set(&[[1, 2], [1, 3], [2, 0]]).is_sorted_set());
        let unsorted = Relation::from_rows(Schema::of(&["a"]), [[v(2)], [v(1)]]).unwrap();
        assert!(!unsorted.is_sorted_set());
        let dup = Relation::from_rows(Schema::of(&["a"]), [[v(1)], [v(1)]]).unwrap();
        assert!(!dup.is_sorted_set());
        let mut nullary = Relation::new(Schema::of(&[]));
        nullary.push(&[]).unwrap();
        assert!(nullary.is_sorted_set());
        nullary.push(&[]).unwrap();
        assert!(!nullary.is_sorted_set());
    }

    #[test]
    fn reorder_requires_full_permutation() {
        let r = Relation::from_rows(Schema::of(&["a", "b"]), [[v(1), v(2)]]).unwrap();
        assert!(r.reorder(&["b".into()]).is_err());
        let rr = r.reorder(&["b".into(), "a".into()]).unwrap();
        assert_eq!(rr.row(0), &[v(2), v(1)]);
    }
}
