//! Atom collection: lowering a multi-model query to one set of join atoms.
//!
//! This is the `S ← Sr ∪ transform(Sx)` line of the paper's Algorithm 1:
//! relational atoms are taken as-is; every twig is decomposed (cut A-D
//! edges → sub-twigs → root-leaf paths) and each path contributes one
//! *path relation*. Path relations are derived from the tag index in time
//! linear in the matching elements (each P-C chain is keyed by its lowest
//! node), which is why the paper can treat them as virtual tables.

use crate::error::Result;
use crate::query::{DataContext, MultiModelQuery, ResolvedAtom};
use relational::Relation;
use xmldb::transform::{decompose, path_relation, Decomposition, PathSpec};
use xmldb::TwigPattern;

/// A join atom: either a borrowed relational table or an owned (derived)
/// path relation.
#[derive(Debug)]
pub enum AtomRel<'a> {
    /// A relational atom from the database.
    Borrowed(&'a Relation),
    /// A derived path relation (or other owned relation).
    Owned(Relation),
}

impl AtomRel<'_> {
    /// The underlying relation.
    pub fn rel(&self) -> &Relation {
        match self {
            AtomRel::Borrowed(r) => r,
            AtomRel::Owned(r) => r,
        }
    }
}

/// The flattened atom set of a multi-model query.
#[derive(Debug)]
pub struct Atoms<'a> {
    /// Human-readable atom names (relation names; `twigN/path(V,…)` for path
    /// relations).
    pub names: Vec<String>,
    /// The atom relations, aligned with `names`.
    pub rels: Vec<AtomRel<'a>>,
    /// Index of the first path-relation atom (relational atoms come first).
    pub first_path_atom: usize,
    /// Per twig: its decomposition (for A-D edges and validation).
    pub decompositions: Vec<Decomposition>,
}

impl<'a> Atoms<'a> {
    /// Borrows all atom relations (for [`relational::JoinPlan`]).
    pub fn rel_refs(&self) -> Vec<&Relation> {
        self.rels.iter().map(|a| a.rel()).collect()
    }

    /// `(name, cardinality)` for every atom.
    pub fn sizes(&self) -> Vec<(String, usize)> {
        self.names
            .iter()
            .zip(&self.rels)
            .map(|(n, r)| (n.clone(), r.rel().len()))
            .collect()
    }
}

/// The display name of twig `t`'s path atom: `twig{t}/path(V,…)`.
pub(crate) fn path_atom_name(t: usize, twig: &TwigPattern, path: &PathSpec) -> String {
    let vars: Vec<&str> = path
        .nodes
        .iter()
        .map(|&q| twig.node(q).var.name())
        .collect();
    format!("twig{}/path({})", t, vars.join(","))
}

/// Lowers the query: relational atoms followed by every twig's path
/// relations.
pub fn collect_atoms<'a>(ctx: &DataContext<'a>, query: &MultiModelQuery) -> Result<Atoms<'a>> {
    let mut names = Vec::new();
    let mut rels: Vec<AtomRel<'a>> = Vec::new();
    for (atom, resolved) in query.relations.iter().zip(ctx.resolve_atoms(query)?) {
        names.push(atom.name.clone());
        rels.push(match resolved {
            ResolvedAtom::Plain(r) => AtomRel::Borrowed(r),
            ResolvedAtom::Renamed(r) => AtomRel::Owned(r),
        });
    }
    let first_path_atom = rels.len();
    let mut decompositions = Vec::with_capacity(query.twigs.len());
    for (t, twig) in query.twigs.iter().enumerate() {
        let dec = decompose(twig);
        for path in &dec.paths {
            names.push(path_atom_name(t, twig, path));
            rels.push(AtomRel::Owned(path_relation(
                ctx.doc, ctx.index, twig, path,
            )));
        }
        decompositions.push(dec);
    }
    Ok(Atoms {
        names,
        rels,
        first_path_atom,
        decompositions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MultiModelQuery;
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        db.load(
            "R",
            Schema::of(&["B", "D"]),
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("A");
        b.leaf("B", 1i64);
        b.leaf("D", 2i64);
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn atoms_include_relations_then_paths() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let atoms = collect_atoms(&ctx, &q).unwrap();
        assert_eq!(atoms.first_path_atom, 1);
        assert_eq!(atoms.names.len(), 3); // R + paths (A,B), (A,D)
        assert!(atoms.names[1].contains("A,B"));
        assert!(atoms.names[2].contains("A,D"));
        let sizes = atoms.sizes();
        assert_eq!(sizes[0].1, 1);
        assert_eq!(sizes[1].1, 1);
    }

    #[test]
    fn decompositions_are_kept_per_twig() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A//B", "//A$a2/D"]).unwrap();
        let atoms = collect_atoms(&ctx, &q).unwrap();
        assert_eq!(atoms.decompositions.len(), 2);
        assert_eq!(atoms.decompositions[0].ad_edges.len(), 1);
        assert!(atoms.decompositions[1].ad_edges.is_empty());
    }
}
