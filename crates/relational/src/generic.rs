//! The level-wise worst-case optimal join driver (Ngo et al. 2012 style) —
//! the breadth-first strategy every level-wise engine runs.
//!
//! Variables are expanded one at a time in the plan's global order. The
//! driver materialises the intermediate relation after every expansion —
//! exactly the execution model of the paper's Algorithm 1 ("Get expanding
//! result E …; Filter E …; Expand R by E") — and records each intermediate's
//! cardinality in [`JoinStats`], which is what Lemma 3.5 bounds.
//!
//! Each intermediate tuple carries, per atom, the trie node reached by its
//! bound prefix (one node per physical run for atoms overlaid with delta
//! runs), so candidate generation for the next variable is a leapfrog
//! intersection of the atoms' sibling ranges ("satisfying common values")
//! and consistency with already-bound variables is implicit ("satisfying
//! relation between p and A"). The intersection is the depth-first walk's
//! own per-variable state ([`crate::lftj`]), re-opened in place per frontier
//! tuple, so both strategies share one probe core: the block kernel, bitset
//! seeks, and lazy unions over delta runs. An optional per-candidate hook
//! filters the expansion further (the multi-model engine's A-D edge checks
//! and partial twig validation).

use crate::error::Result;
use crate::lftj::{LevelState, ProbeKernel, ABSENT};
use crate::plan::{JoinPlan, ValueRange};
use crate::relation::Relation;
use crate::schema::{Attr, Schema};
use crate::stats::{JoinStats, LevelProbeStats};
use crate::value::ValueId;
use std::time::Instant;

/// A per-candidate filter for [`levelwise_join`]: called as
/// `keep(depth, prefix, v)` for every value `v` the intersection at `depth`
/// produced under the bound `prefix` (the first `depth` values in plan
/// order); returning `false` drops the extension before it is counted.
pub type CandidateHook<'h> = &'h mut dyn FnMut(usize, &[ValueId], ValueId) -> bool;

/// Runs the level-wise join over a validated plan, returning the result
/// relation (schema = the plan's variable order, tuples in lexicographic
/// order) and the per-level `expand <var>` stage counts.
///
/// Only tuples whose **first** variable binding falls inside `root` are
/// expanded. Over a disjoint cover of the value space the per-level
/// intermediates (and the results) partition exactly, so per-stage tuple
/// counts summed across the parts equal the unrestricted run's counts —
/// morsel-parallel execution preserves the Lemma 3.5 measurements.
///
/// Layered atoms (base trie plus delta runs) are unioned lazily, exactly as
/// in the walk; the plan's adaptive ladder, if any, is ignored — level-wise
/// expansion follows the static order.
pub fn levelwise_join(
    plan: &JoinPlan,
    root: &ValueRange,
    mut hook: Option<CandidateHook<'_>>,
) -> (Relation, JoinStats) {
    let start = Instant::now();
    let vps = plan.var_plans();
    let schema = Schema::new(plan.order().iter().cloned()).expect("order vars are distinct");
    let mut stats = JoinStats::default();

    if plan.has_empty_atom() {
        for vp in vps {
            stats.record_var(&vp.var, 0);
        }
        stats.elapsed = start.elapsed();
        return (Relation::new(schema), stats);
    }

    // Every intermediate tuple carries a node frame of `width` slots: atom
    // `a`'s bound node per physical run sits at `span[a]` (ABSENT for runs
    // not containing the prefix), so a solid atom takes a single slot.
    let mut span = Vec::with_capacity(plan.tries().len());
    let mut width = 0usize;
    for a in 0..plan.tries().len() {
        span.push(width..width + plan.runs(a));
        width += plan.runs(a);
    }
    // One initial tuple with empty prefix and no atom positioned anywhere.
    let mut tuples: Vec<ValueId> = Vec::new();
    let mut frames: Vec<u32> = vec![ABSENT; width];
    let mut count = 1usize;
    let mut level = LevelState::default();
    let mut untracked = LevelProbeStats::default();

    for (d, vp) in vps.iter().enumerate() {
        // The last level's node frames would never be read.
        let last = d + 1 == vps.len();
        let mut next_tuples: Vec<ValueId> = Vec::new();
        let mut next_frames: Vec<u32> = Vec::new();
        let mut next_count = 0usize;
        for t in 0..count {
            let prefix = &tuples[t * d..(t + 1) * d];
            let frame = &frames[t * width..(t + 1) * width];
            level.open(plan, vp, (d == 0).then_some(root), |a| {
                &frame[span[a].clone()]
            });
            while let Some(v) = level.advance::<false>(plan, ProbeKernel::Block, &mut untracked) {
                if let Some(keep) = hook.as_mut() {
                    if !keep(d, prefix, v) {
                        continue;
                    }
                }
                next_tuples.extend_from_slice(prefix);
                next_tuples.push(v);
                next_count += 1;
                if !last {
                    let base = next_frames.len();
                    next_frames.extend_from_slice(frame);
                    for (c, part) in vp.participants.iter().enumerate() {
                        let slots = &mut next_frames[base..][span[part.atom].clone()];
                        level.write_match_nodes(c, plan, slots);
                    }
                }
            }
        }
        tuples = next_tuples;
        frames = next_frames;
        count = next_count;
        stats.record_var(&vp.var, count);
        if count == 0 {
            // Remaining levels are trivially empty; record them for a
            // complete per-stage series.
            for rest in &vps[d + 1..] {
                stats.record_var(&rest.var, 0);
            }
            break;
        }
    }

    let out = if vps.is_empty() {
        // Zero-variable plan: the join of non-empty nullary atoms holds
        // exactly one empty tuple.
        let mut one = Relation::new(schema);
        one.push(&[]).expect("nullary row");
        one
    } else {
        Relation::from_flat(schema, tuples)
    };
    stats.output_rows = out.len();
    stats.elapsed = start.elapsed();
    (out, stats)
}

/// Convenience wrapper: plans and runs the generic join over `relations`
/// under the global variable `order`.
pub fn generic_join(relations: &[&Relation], order: &[Attr]) -> Result<(Relation, JoinStats)> {
    let plan = JoinPlan::new(relations, order)?;
    Ok(levelwise_join(&plan, &ValueRange::all(), None))
}

/// Reference nested-loop join used to cross-check the optimal engines in
/// tests: enumerates the full cartesian product of variable assignments drawn
/// from each variable's candidate values and filters by all atoms.
///
/// Exponential — only for tiny test instances.
pub fn naive_join(relations: &[&Relation], order: &[Attr]) -> Result<Relation> {
    use std::collections::BTreeSet;
    let plan = JoinPlan::new(relations, order)?; // reuse validation
    let _ = &plan;
    let schema = Schema::new(order.iter().cloned()).expect("distinct");
    // Candidate domain per variable: union of values in any relation column
    // with that attribute.
    let mut domains: Vec<Vec<ValueId>> = Vec::with_capacity(order.len());
    for var in order {
        let mut dom = BTreeSet::new();
        for rel in relations {
            if let Some(p) = rel.schema().position(var) {
                for row in rel.rows() {
                    dom.insert(row[p]);
                }
            }
        }
        domains.push(dom.into_iter().collect());
    }
    let mut out = Relation::new(schema);
    let mut assign: Vec<ValueId> = Vec::with_capacity(order.len());
    fn rec(
        d: usize,
        domains: &[Vec<ValueId>],
        order: &[Attr],
        relations: &[&Relation],
        assign: &mut Vec<ValueId>,
        out: &mut Relation,
    ) {
        if d == domains.len() {
            for rel in relations {
                let positions: Vec<usize> = rel
                    .schema()
                    .attrs()
                    .iter()
                    .map(|a| order.iter().position(|o| o == a).expect("validated"))
                    .collect();
                let projected: Vec<ValueId> = positions.iter().map(|&p| assign[p]).collect();
                if !rel.contains_row(&projected) {
                    return;
                }
            }
            out.push(assign).expect("arity");
            return;
        }
        for &v in &domains[d] {
            assign.push(v);
            rec(d + 1, domains, order, relations, assign, out);
            assign.pop();
        }
    }
    rec(0, &domains, order, relations, &mut assign, &mut out);
    out.sort_dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn v(i: u32) -> ValueId {
        ValueId(i)
    }

    fn attrs(names: &[&str]) -> Vec<Attr> {
        names.iter().map(|&n| Attr::new(n)).collect()
    }

    fn rel(names: &[&str], rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(Schema::of(names));
        for row in rows {
            let ids: Vec<ValueId> = row.iter().map(|&x| v(x)).collect();
            r.push(&ids).unwrap();
        }
        r
    }

    #[test]
    fn triangle_join() {
        // R(a,b), S(b,c), T(a,c) with a single triangle (1,2,3) plus noise.
        let r = rel(&["a", "b"], &[&[1, 2], &[1, 9], &[4, 2]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[9, 8]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[4, 7]]);
        let (out, stats) = generic_join(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[v(1), v(2), v(3)]);
        assert_eq!(stats.output_rows, 1);
        assert_eq!(stats.stages.len(), 3);
    }

    #[test]
    fn matches_naive_reference() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[3, 3]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[1, 1]]);
        let order = attrs(&["a", "b", "c"]);
        let (out, _) = generic_join(&[&r, &s, &t], &order).unwrap();
        let expect = naive_join(&[&r, &s, &t], &order).unwrap();
        assert!(out.set_eq(&expect), "generic {out:?} != naive {expect:?}");
    }

    #[test]
    fn two_way_equijoin() {
        let r = rel(&["a", "b"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let s = rel(&["b", "c"], &[&[10, 100], &[10, 101], &[30, 300]]);
        let (out, _) = generic_join(&[&r, &s], &attrs(&["a", "b", "c"])).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains_row(&[v(1), v(10), v(100)]));
        assert!(out.contains_row(&[v(1), v(10), v(101)]));
        assert!(out.contains_row(&[v(3), v(30), v(300)]));
    }

    #[test]
    fn empty_atom_short_circuits() {
        let r = rel(&["a"], &[&[1]]);
        let s = rel(&["a"], &[]);
        let (out, stats) = generic_join(&[&r, &s], &attrs(&["a"])).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.max_intermediate(), 0);
    }

    #[test]
    fn disjoint_values_yield_empty_and_full_stage_series() {
        let r = rel(&["a", "b"], &[&[1, 2]]);
        let s = rel(&["a", "b"], &[&[3, 4]]);
        let (out, stats) = generic_join(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.stages.len(), 2);
        assert_eq!(stats.stages[0].tuples, 0);
        assert_eq!(stats.stages[1].tuples, 0);
    }

    #[test]
    fn order_affects_intermediates_not_result() {
        let r = rel(&["a", "b"], &[&[1, 1], &[1, 2], &[2, 1]]);
        let s = rel(&["b", "c"], &[&[1, 1], &[2, 1]]);
        let o1 = attrs(&["a", "b", "c"]);
        let o2 = attrs(&["c", "b", "a"]);
        let (out1, _) = generic_join(&[&r, &s], &o1).unwrap();
        let (out2, _) = generic_join(&[&r, &s], &o2).unwrap();
        let out2_reordered = out2.project(&o1).unwrap();
        assert!(out1.set_eq(&out2_reordered));
    }

    #[test]
    fn intermediate_counts_are_recorded_per_level() {
        // R(a) x S(b): after a -> 2 tuples, after b -> 4 tuples.
        let r = rel(&["a"], &[&[1], &[2]]);
        let s = rel(&["b"], &[&[5], &[6]]);
        let (out, stats) = generic_join(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(stats.stages[0].tuples, 2);
        assert_eq!(stats.stages[1].tuples, 4);
        assert_eq!(stats.max_intermediate(), 4);
        assert_eq!(stats.total_intermediate(), 6);
    }

    #[test]
    fn range_restricted_runs_partition_results_and_stage_counts() {
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 1], &[1, 3]]);
        let s = rel(&["b", "c"], &[&[2, 3], &[3, 1], &[1, 2], &[3, 3]]);
        let t = rel(&["a", "c"], &[&[1, 3], &[2, 1], &[3, 2], &[1, 1]]);
        let plan = JoinPlan::new(&[&r, &s, &t], &attrs(&["a", "b", "c"])).unwrap();
        let (full, full_stats) = levelwise_join(&plan, &ValueRange::all(), None);
        let halves = [
            ValueRange {
                lo: v(0),
                hi: Some(v(2)),
            },
            ValueRange { lo: v(2), hi: None },
        ];
        let parts: Vec<(Relation, JoinStats)> = halves
            .iter()
            .map(|h| levelwise_join(&plan, h, None))
            .collect();
        let mut merged = Relation::new(full.schema().clone());
        for (part, _) in &parts {
            for row in part.rows() {
                merged.push(row).unwrap();
            }
        }
        assert_eq!(merged, full, "concatenation in range order = full result");
        // Per-stage counts partition exactly across the cover.
        for (i, stage) in full_stats.stages.iter().enumerate() {
            let summed: usize = parts.iter().map(|(_, st)| st.stages[i].tuples).sum();
            assert_eq!(summed, stage.tuples, "stage `{}`", stage.label);
        }
    }

    #[test]
    fn hook_filters_candidates_before_they_are_counted() {
        // R(a) x S(b); drop a = 1 at depth 0 and b = 6 at depth 1.
        let r = rel(&["a"], &[&[1], &[2], &[3]]);
        let s = rel(&["b"], &[&[5], &[6]]);
        let plan = JoinPlan::new(&[&r, &s], &attrs(&["a", "b"])).unwrap();
        let mut seen = Vec::new();
        let mut keep = |d: usize, prefix: &[ValueId], x: ValueId| {
            assert_eq!(prefix.len(), d);
            seen.push((d, x));
            x != v(1) && x != v(6)
        };
        let (out, stats) = levelwise_join(&plan, &ValueRange::all(), Some(&mut keep));
        assert_eq!(out.rows().collect::<Vec<_>>(), [[v(2), v(5)], [v(3), v(5)]]);
        assert_eq!(stats.stages[0].tuples, 2);
        assert_eq!(stats.stages[1].tuples, 2);
        // Every candidate of every frontier tuple reached the hook.
        assert_eq!(seen.len(), 3 + 2 * 2);
    }

    #[test]
    fn self_join_same_relation_twice() {
        // Path query: R(a,b) ⋈ R'(b,c) using renamed copies of one relation.
        let r = rel(&["a", "b"], &[&[1, 2], &[2, 3], &[3, 4]]);
        let r2 = r
            .rename(|a| {
                if a.name() == "a" {
                    "b".into()
                } else {
                    "c".into()
                }
            })
            .unwrap();
        let (out, _) = generic_join(&[&r, &r2], &attrs(&["a", "b", "c"])).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains_row(&[v(1), v(2), v(3)]));
        assert!(out.contains_row(&[v(2), v(3), v(4)]));
    }
}
