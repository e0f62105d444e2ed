//! Size bounds for multi-model queries (the paper's Section 3 applied to
//! concrete instances).
//!
//! The mixed hypergraph has one edge per relational atom and one per twig
//! path relation; with the atoms' actual cardinalities, the AGM bound of
//! that hypergraph is the worst-case result size the paper's Lemma 3.1
//! states. Prefix restrictions bound every intermediate of a level-wise
//! engine (Lemma 3.5).

use crate::atoms::{path_atom_name, Atoms};
use crate::error::Result;
use crate::query::{DataContext, MultiModelQuery};
use agm::{agm_bound, agm_exponent, log_agm_bound, Hypergraph};
use relational::Attr;
use xmldb::transform::{decompose, path_relation};

/// One hyperedge per `(name, attributes, cardinality)`, in order.
fn hypergraph_of<'e>(
    edges: impl Iterator<Item = (&'e str, &'e [Attr], usize)>,
) -> (Hypergraph, Vec<usize>) {
    let mut h = Hypergraph::new();
    let mut sizes = Vec::new();
    for (name, attrs, size) in edges {
        let attr_names: Vec<&str> = attrs.iter().map(|a| a.name()).collect();
        h.edge(name, &attr_names);
        sizes.push(size);
    }
    (h, sizes)
}

/// Builds the mixed-query hypergraph and the per-edge cardinalities.
pub fn mixed_hypergraph(atoms: &Atoms<'_>) -> (Hypergraph, Vec<usize>) {
    hypergraph_of(
        atoms
            .names
            .iter()
            .zip(&atoms.rels)
            .map(|(name, atom)| (name.as_str(), atom.rel().schema().attrs(), atom.rel().len())),
    )
}

/// [`mixed_hypergraph`] of `collect_atoms(ctx, query)`, edge for edge,
/// without materialising any relational atom: each one contributes its
/// [`DataContext::atom_shape`] (its stored size, or one counting scan when
/// it has constants or a repeated variable). Twig path relations are still
/// derived — their sizes come from walking the document.
fn query_hypergraph(
    ctx: &DataContext<'_>,
    query: &MultiModelQuery,
) -> Result<(Hypergraph, Vec<usize>)> {
    let mut edges: Vec<(String, Vec<Attr>, usize)> = Vec::new();
    for atom in &query.relations {
        let (attrs, size) = ctx.atom_shape(atom)?;
        edges.push((atom.name.clone(), attrs, size));
    }
    for (t, twig) in query.twigs.iter().enumerate() {
        for path in &decompose(twig).paths {
            let rel = path_relation(ctx.doc, ctx.index, twig, path);
            edges.push((
                path_atom_name(t, twig, path),
                rel.schema().attrs().to_vec(),
                rel.len(),
            ));
        }
    }
    Ok(hypergraph_of(
        edges.iter().map(|(n, a, s)| (n.as_str(), &a[..], *s)),
    ))
}

/// [`query_log_bound`] of `collect_atoms(ctx, query)` — bit-identical —
/// without materialising any relational atom: each is priced at its stored
/// size, or by one counting scan when it has constants or a repeated
/// variable. A server re-pricing a cached statement after a write needs
/// no more: the bound depends on the atoms' cardinalities only.
pub fn query_log_bound_of(ctx: &DataContext<'_>, query: &MultiModelQuery) -> Result<f64> {
    let (h, sizes) = query_hypergraph(ctx, query)?;
    Ok(log_agm_bound(&h, &sizes)?)
}

/// The AGM bound of the full query with the atoms' actual sizes
/// (Lemma 3.1's right-hand side).
pub fn query_bound(atoms: &Atoms<'_>) -> Result<f64> {
    let (h, sizes) = mixed_hypergraph(atoms);
    Ok(agm_bound(&h, &sizes)?)
}

/// The natural log of the query's AGM bound (see [`agm::log_agm_bound`]).
///
/// This is the form an admission controller or cost model should consume: a
/// clique over large relations can push the plain bound past `f64::MAX`,
/// but its log still compares and accumulates. `-∞` means some atom is
/// empty (the query provably returns nothing).
pub fn query_log_bound(atoms: &Atoms<'_>) -> Result<f64> {
    let (h, sizes) = mixed_hypergraph(atoms);
    Ok(log_agm_bound(&h, &sizes)?)
}

/// The uniform-size exponent `ρ*` of the query's hypergraph: the bound is
/// `n^{ρ*}` when every atom has `n` tuples (how the paper states Examples
/// 3.3 and 3.4).
pub fn query_exponent(atoms: &Atoms<'_>) -> Result<f64> {
    let (h, _) = mixed_hypergraph(atoms);
    Ok(agm_exponent(&h)?)
}

/// Bounds every expansion stage of a level-wise engine: entry `d` is the AGM
/// bound of the hypergraph restricted to `order[..=d]` with actual sizes —
/// the quantity the paper's Lemma 3.5 says XJoin's intermediates respect.
pub fn prefix_bounds(atoms: &Atoms<'_>, order: &[Attr]) -> Result<Vec<f64>> {
    let (h, sizes) = mixed_hypergraph(atoms);
    let mut out = Vec::with_capacity(order.len());
    for d in 0..order.len() {
        let prefix: Vec<&str> = order[..=d].iter().map(|a| a.name()).collect();
        let restricted = h.restrict(&prefix)?;
        // Edges that vanish in the restriction drop their size entry too.
        let kept_sizes: Vec<usize> = h
            .edges()
            .iter()
            .zip(&sizes)
            .filter(|(e, _)| {
                e.vertices
                    .iter()
                    .any(|&v| prefix.contains(&h.vertex_names()[v].as_str()))
            })
            .map(|(_, &s)| s)
            .collect();
        out.push(agm_bound(&restricted, &kept_sizes)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{lower, xjoin, XJoinConfig};
    use crate::query::{DataContext, MultiModelQuery};
    use relational::{Database, Schema, Value};
    use xmldb::{TagIndex, XmlDocument};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    fn setup() -> (Database, XmlDocument) {
        let mut db = Database::new();
        // R(B, D) with 3 tuples.
        db.load(
            "R",
            Schema::of(&["B", "D"]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(3), Value::Int(30)],
            ],
        )
        .unwrap();
        let mut dict = db.dict().clone();
        let mut b = XmlDocument::builder();
        b.begin("A");
        b.value(100i64);
        for i in 1..=3i64 {
            b.leaf("B", i);
            b.leaf("D", i * 10);
        }
        b.end();
        let doc = b.build(&mut dict);
        *db.dict_mut() = dict;
        (db, doc)
    }

    #[test]
    fn mixed_hypergraph_has_relational_and_path_edges() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let atoms = lower(&ctx, &q).unwrap();
        let (h, sizes) = mixed_hypergraph(&atoms);
        assert_eq!(h.num_edges(), 3); // R + (A,B) + (A,D)
        assert_eq!(sizes, vec![3, 3, 3]);
    }

    #[test]
    fn exponent_of_paper_example_structure() {
        // R(B,D) + paths (A,B), (A,D): triangle on {A,B,D} -> rho* = 1.5.
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let atoms = lower(&ctx, &q).unwrap();
        assert!(close(query_exponent(&atoms).unwrap(), 1.5));
        // Bound with |each atom| = 3 is 3^1.5.
        assert!(close(query_bound(&atoms).unwrap(), 3f64.powf(1.5)));
        // The log form agrees: ln(3^1.5) = 1.5 ln 3.
        assert!(close(query_log_bound(&atoms).unwrap(), 1.5 * 3f64.ln()));
    }

    #[test]
    fn lemma_3_5_intermediates_obey_prefix_bounds() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        let atoms = lower(&ctx, &q).unwrap();
        let bounds = prefix_bounds(&atoms, &out.order).unwrap();
        // The "expand v" stages (skip path materialisation and validation).
        let expand_stages: Vec<usize> = out
            .stats
            .stages
            .iter()
            .filter(|s| s.label.starts_with("expand"))
            .map(|s| s.tuples)
            .collect();
        assert_eq!(expand_stages.len(), bounds.len());
        for (d, (&tuples, &bound)) in expand_stages.iter().zip(&bounds).enumerate() {
            assert!(
                (tuples as f64) <= bound + 1e-6,
                "level {d}: {tuples} tuples > bound {bound}"
            );
        }
    }

    #[test]
    fn prefix_bounds_grow_toward_full_bound() {
        let (db, doc) = setup();
        let idx = TagIndex::build(&doc);
        let ctx = DataContext::new(&db, &doc, &idx);
        let q = MultiModelQuery::new(&["R"], &["//A[/B][/D]"]).unwrap();
        let atoms = lower(&ctx, &q).unwrap();
        let out = xjoin(&ctx, &q, &XJoinConfig::default()).unwrap();
        let bounds = prefix_bounds(&atoms, &out.order).unwrap();
        let full = query_bound(&atoms).unwrap();
        assert!(close(*bounds.last().unwrap(), full));
    }
}
