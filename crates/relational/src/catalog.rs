//! A tiny catalog: named relations sharing one dictionary.

use crate::error::{RelError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::{Dict, Value, ValueId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named collection of relations sharing a [`Dict`].
///
/// In the multi-model setting, the same dictionary is also handed to XML
/// documents so that values join across models.
///
/// The catalog is versioned: every relation carries a monotonically
/// increasing version (bumped each time the relation is registered or
/// replaced) and the database as a whole carries an epoch (bumped on any
/// mutation). Storage layers use these as cache keys — a trie built for
/// `(name, version)` stays valid exactly as long as the version does.
#[derive(Debug, Default, Clone)]
pub struct Database {
    dict: Dict,
    relations: BTreeMap<String, Relation>,
    versions: BTreeMap<String, u64>,
    epoch: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared read access to the dictionary.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Mutable access to the dictionary (for interning new values).
    pub fn dict_mut(&mut self) -> &mut Dict {
        &mut self.dict
    }

    /// Registers (or replaces) a relation under `name`, bumping its version
    /// and the database epoch.
    ///
    /// Stored relations are sets: `rel` must be sorted and duplicate-free
    /// ([`Relation::is_sorted_set`], as [`Relation::sort_dedup`] leaves it).
    /// Size-only pricing reads a renamed atom's cardinality straight off
    /// the stored relation, and appends splice batches into it, so both
    /// rely on this (checked in debug builds).
    pub fn add_relation(&mut self, name: impl Into<String>, rel: Relation) {
        debug_assert!(
            rel.is_sorted_set(),
            "stored relations must be sorted sets (call sort_dedup first)"
        );
        let name = name.into();
        *self.versions.entry(name.clone()).or_insert(0) += 1;
        self.epoch += 1;
        self.relations.insert(name, rel);
    }

    /// The current version of a relation, if it is registered. Starts at 1
    /// and is bumped on every [`Database::add_relation`] / [`Database::load`]
    /// for the name.
    pub fn relation_version(&self, name: &str) -> Option<u64> {
        self.versions.get(name).copied()
    }

    /// A counter bumped on every catalog mutation; two databases at the same
    /// epoch along one history hold identical relations.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Approximate heap footprint of the catalog in bytes: the shared
    /// dictionary plus every relation's tuple store. Serving layers use this
    /// alongside their trie-cache budgets when reasoning about resident
    /// memory.
    pub fn estimated_bytes(&self) -> usize {
        self.dict.estimated_bytes()
            + self
                .relations
                .values()
                .map(|r| r.estimated_bytes())
                .sum::<usize>()
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelError::UnknownRelation(name.to_owned()))
    }

    /// Names of all registered relations, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// Creates a relation from user-facing values, interning them.
    pub fn load<R, V>(&mut self, name: &str, schema: Schema, rows: R) -> Result<()>
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let mut rel = Relation::new(schema);
        let mut buf: Vec<ValueId> = Vec::new();
        for row in rows {
            buf.clear();
            buf.extend(row.into_iter().map(|v| self.dict.intern(v.into())));
            rel.push(&buf)?;
        }
        rel.sort_dedup();
        self.add_relation(name, rel);
        Ok(())
    }

    /// Decodes a relation's tuples back into user-facing values.
    pub fn decode(&self, rel: &Relation) -> Vec<Vec<Value>> {
        rel.rows()
            .map(|r| r.iter().map(|&id| self.dict.decode(id).clone()).collect())
            .collect()
    }

    /// Renders a relation as a plain-text table (for examples and the
    /// experiments harness).
    pub fn render_table(&self, rel: &Relation) -> String {
        let attrs = rel.schema().attrs();
        let mut cols: Vec<Vec<String>> = attrs.iter().map(|a| vec![a.name().to_owned()]).collect();
        for row in rel.rows() {
            for (c, &id) in row.iter().enumerate() {
                cols[c].push(self.dict.decode(id).to_string());
            }
        }
        let widths: Vec<usize> = cols
            .iter()
            .map(|c| c.iter().map(|s| s.len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let nrows = rel.len() + 1;
        for r in 0..nrows {
            for (c, col) in cols.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", col[r], w = widths[c]);
            }
            out.push('\n');
            if r == 0 {
                for &w in &widths {
                    let _ = write!(out, "{}  ", "-".repeat(w));
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_interns_and_dedups() {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["userID", "ISBN"]),
            vec![
                vec![Value::str("jack"), Value::str("978-3-16-1")],
                vec![Value::str("tom"), Value::str("634-3-12-2")],
                vec![Value::str("jack"), Value::str("978-3-16-1")],
            ],
        )
        .unwrap();
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(db.dict().len(), 4);
    }

    #[test]
    fn unknown_relation_errors() {
        let db = Database::new();
        assert!(db.relation("missing").is_err());
    }

    #[test]
    fn decode_round_trips() {
        let mut db = Database::new();
        db.load("R", Schema::of(&["x"]), vec![vec![Value::Int(42)]])
            .unwrap();
        let rel = db.relation("R").unwrap().clone();
        let rows = db.decode(&rel);
        assert_eq!(rows, vec![vec![Value::Int(42)]]);
    }

    #[test]
    fn render_table_contains_headers_and_values() {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["userID", "price"]),
            vec![vec![Value::str("jack"), Value::str("30")]],
        )
        .unwrap();
        let rel = db.relation("R").unwrap().clone();
        let table = db.render_table(&rel);
        assert!(table.contains("userID"));
        assert!(table.contains("jack"));
        assert!(table.contains("30"));
    }

    #[test]
    fn versions_bump_per_relation_and_epoch_globally() {
        let mut db = Database::new();
        assert_eq!(db.epoch(), 0);
        assert_eq!(db.relation_version("R"), None);
        db.add_relation("R", Relation::new(Schema::of(&["a"])));
        db.add_relation("S", Relation::new(Schema::of(&["a"])));
        assert_eq!(db.relation_version("R"), Some(1));
        assert_eq!(db.relation_version("S"), Some(1));
        assert_eq!(db.epoch(), 2);
        db.load("R", Schema::of(&["a"]), vec![vec![Value::Int(1)]])
            .unwrap();
        assert_eq!(db.relation_version("R"), Some(2));
        assert_eq!(db.relation_version("S"), Some(1));
        assert_eq!(db.epoch(), 3);
    }

    #[test]
    fn loaded_relations_are_stored_as_sets() {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["a", "b"]),
            vec![
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Int(1)],
            ],
        )
        .unwrap();
        db.load_csv("T: x,y\n3,1\n1,1\n3,1\n").unwrap();
        for name in ["R", "T"] {
            let rel = db.relation(name).unwrap();
            assert!(rel.is_sorted_set(), "{name} is not a sorted set");
            assert_eq!(rel.len(), 2);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stored relations must be sorted sets")]
    fn adding_a_relation_with_duplicates_is_caught() {
        let mut r = Relation::new(Schema::of(&["a"]));
        r.push(&[ValueId(1)]).unwrap();
        r.push(&[ValueId(1)]).unwrap();
        Database::new().add_relation("R", r);
    }

    #[test]
    fn relation_names_sorted() {
        let mut db = Database::new();
        db.add_relation("zeta", Relation::new(Schema::of(&["a"])));
        db.add_relation("alpha", Relation::new(Schema::of(&["a"])));
        assert_eq!(db.relation_names(), vec!["alpha", "zeta"]);
    }
}
