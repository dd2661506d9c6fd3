//! Property-based tests over the core data structures and invariants,
//! spanning crates (hence hosted as an integration test of `clash-core`).

use clash_common::{AttrId, AttrRef, QueryId, RelationId, RelationSet, Timestamp, Window};
use clash_ilp::{
    enumerate_optimal, solve, LinExpr, Model, Sense, Solution, SolveStatus, SolverConfig, VarId,
};
use clash_query::{construct_probe_orders_for_start, enumerate_mirs, EquiPredicate, JoinQuery};
use proptest::prelude::*;

fn relation_ids(max: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..max, 1..10)
}

/// A random selection-with-sharing model in the shape Algorithm 2 builds:
/// step variables with positive costs (whole numbers times `cost_unit`),
/// choice groups of zero-cost alternatives, and one cost constraint per
/// alternative forcing a random non-empty subset of the steps.
fn random_choice_model(
    seed: u64,
    cost_unit: f64,
    steps: std::ops::Range<usize>,
    groups: std::ops::Range<usize>,
    alts: std::ops::Range<usize>,
) -> Model {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Model::new();
    let n_steps = rng.gen_range(steps);
    let steps: Vec<VarId> = (0..n_steps)
        .map(|i| model.add_binary(format!("y{i}"), rng.gen_range(1..10) as f64 * cost_unit))
        .collect();
    for g in 0..rng.gen_range(groups) {
        let mut choice = Vec::new();
        for a in 0..rng.gen_range(alts.clone()) {
            let x = model.add_binary(format!("x{g}_{a}"), 0.0);
            let mut expr = LinExpr::new();
            let mut total = 0.0;
            for &s in &steps {
                if rng.gen_bool(0.5) {
                    let c = model.objective_coeff(s);
                    expr.add(s, c);
                    total += c;
                }
            }
            if total == 0.0 {
                let c = model.objective_coeff(steps[0]);
                expr.add(steps[0], c);
                total = c;
            }
            expr.add(x, -total);
            model.add_constraint(format!("cost{g}_{a}"), expr, Sense::Ge, 0.0);
            choice.push(x);
        }
        model.add_choose_one(format!("choice{g}"), choice);
    }
    model
}

proptest! {
    /// RelationSet algebra behaves like a set of integers.
    #[test]
    fn relation_set_algebra(a in relation_ids(64), b in relation_ids(64)) {
        use std::collections::BTreeSet;
        let sa: RelationSet = a.iter().map(|i| RelationId::new(*i)).collect();
        let sb: RelationSet = b.iter().map(|i| RelationId::new(*i)).collect();
        let ba: BTreeSet<u32> = a.iter().copied().collect();
        let bb: BTreeSet<u32> = b.iter().copied().collect();
        let union: Vec<u32> = sa.union(&sb).iter().map(|r| r.0).collect();
        let expected: Vec<u32> = ba.union(&bb).copied().collect();
        prop_assert_eq!(union, expected);
        let inter: Vec<u32> = sa.intersection(&sb).iter().map(|r| r.0).collect();
        let expected: Vec<u32> = ba.intersection(&bb).copied().collect();
        prop_assert_eq!(inter, expected);
        let diff: Vec<u32> = sa.difference(&sb).iter().map(|r| r.0).collect();
        let expected: Vec<u32> = ba.difference(&bb).copied().collect();
        prop_assert_eq!(diff, expected);
        prop_assert_eq!(sa.len(), ba.len());
        prop_assert_eq!(sa.is_disjoint(&sb), ba.is_disjoint(&bb));
        prop_assert_eq!(sa.is_subset(&sb), ba.is_subset(&bb));
    }

    /// Window containment is consistent with its horizon.
    #[test]
    fn window_containment(probe in 0u64..1_000_000, age in 0u64..1_000_000, len in 1u64..100_000) {
        let w = Window::new(clash_common::Duration::from_millis(len));
        let stored = Timestamp::from_millis(probe.saturating_sub(age));
        let probe_ts = Timestamp::from_millis(probe);
        let contained = w.contains(probe_ts, stored);
        prop_assert_eq!(contained, stored >= w.horizon(probe_ts) && stored <= probe_ts);
    }

    /// Every probe order produced by Algorithm 1 for a random linear query
    /// is structurally valid, covers the whole query and avoids cross
    /// products; prefixes grow monotonically.
    #[test]
    fn probe_orders_are_valid_for_linear_queries(n in 2usize..6, start_idx in 0usize..6) {
        let n = n.min(5);
        let relations: RelationSet = (0..n as u32).map(RelationId::new).collect();
        let predicates: Vec<EquiPredicate> = (0..n as u32 - 1)
            .map(|i| EquiPredicate::new(
                AttrRef::new(RelationId::new(i), AttrId::new(1)),
                AttrRef::new(RelationId::new(i + 1), AttrId::new(0)),
            ))
            .collect();
        let query = JoinQuery::new(QueryId::new(0), "chain", relations, predicates, None).unwrap();
        let mirs = enumerate_mirs(&query, None);
        let start = RelationId::new((start_idx % n) as u32);
        let orders = construct_probe_orders_for_start(&query, &mirs, start, None);
        prop_assert!(!orders.is_empty());
        for order in &orders {
            prop_assert!(order.is_valid_for(&query));
            prop_assert_eq!(order.covered(), query.relations);
            let mut prev = RelationSet::singleton(start);
            for j in 0..order.len() {
                let head = order.head_after(j);
                prop_assert!(prev.is_proper_subset(&head));
                prev = head;
            }
        }
    }

    /// MIR enumeration only returns connected subsets, always includes the
    /// singletons, and is closed under the query relations.
    #[test]
    fn mirs_are_connected_subsets(n in 2usize..6) {
        let relations: RelationSet = (0..n as u32).map(RelationId::new).collect();
        let predicates: Vec<EquiPredicate> = (0..n as u32 - 1)
            .map(|i| EquiPredicate::new(
                AttrRef::new(RelationId::new(i), AttrId::new(1)),
                AttrRef::new(RelationId::new(i + 1), AttrId::new(0)),
            ))
            .collect();
        let query = JoinQuery::new(QueryId::new(0), "chain", relations, predicates, None).unwrap();
        let graph = query.graph();
        let mirs = enumerate_mirs(&query, None);
        let singletons = mirs.iter().filter(|m| m.is_base()).count();
        prop_assert_eq!(singletons, n);
        for m in &mirs {
            prop_assert!(m.relations.is_subset(&query.relations));
            prop_assert!(graph.is_connected(&m.relations));
        }
    }

    /// The branch-and-bound solver is exact: on random small
    /// selection-with-sharing models it matches brute-force enumeration.
    #[test]
    fn solver_matches_enumeration(seed in 0u64..500) {
        let model = random_choice_model(seed, 1.0, 2..5, 1..4, 1..4);
        let brute = enumerate_optimal(&model);
        let solved = solve(&model, SolverConfig::default());
        match brute {
            Some((_, expected)) => {
                prop_assert_eq!(solved.status, SolveStatus::Optimal);
                prop_assert!((solved.objective - expected).abs() < 1e-6);
            }
            None => prop_assert_eq!(solved.status, SolveStatus::Infeasible),
        }
    }

    /// Probe costs are non-negative and additive in their steps for random
    /// rates and selectivities.
    #[test]
    fn probe_cost_is_nonnegative_and_additive(
        rates in proptest::collection::vec(1.0f64..10_000.0, 3),
        sel in proptest::collection::vec(0.0001f64..1.0, 2),
    ) {
        use clash_catalog::{Catalog, Statistics};
        use clash_cost::{probe_cost, step_cost, CardinalityEstimator, PartitionedStep};
        use clash_query::parse_query;
        let mut catalog = Catalog::new();
        catalog.register("R", ["a"], Window::unbounded(), 1).unwrap();
        catalog.register("S", ["a", "b"], Window::unbounded(), 1).unwrap();
        catalog.register("T", ["b"], Window::unbounded(), 1).unwrap();
        let mut stats = Statistics::new();
        for (i, r) in rates.iter().enumerate() {
            stats.set_rate(RelationId::new(i as u32), *r);
        }
        stats.set_selectivity(catalog.attr("R", "a").unwrap(), catalog.attr("S", "a").unwrap(), sel[0]);
        stats.set_selectivity(catalog.attr("S", "b").unwrap(), catalog.attr("T", "b").unwrap(), sel[1]);
        let q = parse_query(&catalog, QueryId::new(0), "q", "R(a), S(a,b), T(b)").unwrap();
        let est = CardinalityEstimator::rate_based(&catalog, &stats);
        let order = clash_query::ProbeOrder::new(
            q.id,
            RelationId::new(0),
            vec![RelationSet::singleton(RelationId::new(1)), RelationSet::singleton(RelationId::new(2))],
        );
        let parts: Vec<PartitionedStep> = order
            .steps
            .iter()
            .map(|s| PartitionedStep::unpartitioned(*s))
            .collect();
        let total = probe_cost(&est, &q, &order, &parts);
        prop_assert!(total >= 0.0);
        let sum: f64 = (0..order.len())
            .map(|j| step_cost(&est, &q, &order, j, &parts[j]).cost)
            .sum();
        prop_assert!((total - sum).abs() < 1e-6 * total.max(1.0));
    }
}

/// Lowercase hex of an assignment, four variables per digit, variable `4k`
/// in the lowest bit of digit `k`.
fn assignment_hex(solution: &Solution) -> String {
    let Some(assignment) = &solution.assignment else {
        return String::new();
    };
    let bits: Vec<bool> = (0..assignment.len())
        .map(|i| assignment.get(VarId(i as u32)))
        .collect();
    bits.chunks(4)
        .map(|nibble| {
            let digit = nibble
                .iter()
                .enumerate()
                .fold(0u32, |d, (i, b)| d | (u32::from(*b) << i));
            char::from_digit(digit, 16).expect("a nibble is one hex digit")
        })
        .collect()
}

/// One recorded branch-and-bound run: seed of [`random_choice_model`],
/// node limit, warm start, then status, nodes, objective bits and the
/// assignment as [`assignment_hex`].
type GoldenRun = (u64, u64, bool, SolveStatus, u64, u64, &'static str);

/// Runs recorded from the branch-and-bound solver on random models larger
/// than [`solver_matches_enumeration`]'s, stopped at small node limits.
/// Any change to the branching choice, the bound, the acceptance rule or
/// the node cut-off shows up here as a different node count, objective or
/// assignment.
#[rustfmt::skip]
const GOLDEN_RUNS: &[GoldenRun] = &[
    (0, 1, true, SolveStatus::Feasible, 1, 0x4021333333333333, "7bfff7105808101"),
    (1, 2, true, SolveStatus::Feasible, 2, 0x4024333333333333, "fffb5059021280804280"),
    (2, 3, false, SolveStatus::Unknown, 3, 0x7ff0000000000000, ""),
    (3, 5, true, SolveStatus::Feasible, 5, 0x401a666666666667, "ffdf0614a4101"),
    (4, 10, true, SolveStatus::Feasible, 10, 0x4018000000000001, "af978088"),
    (5, 20, false, SolveStatus::Feasible, 20, 0x401b333333333333, "ffff684020140"),
    (6, 50, true, SolveStatus::Feasible, 50, 0x4018666666666666, "f7f35448018102"),
    (7, 100, true, SolveStatus::Optimal, 71, 0x4008ccccccccccce, "fd7680640410"),
    (8, 200, false, SolveStatus::Optimal, 147, 0x4023333333333333, "bdfaf208405800"),
    (9, 500, true, SolveStatus::Optimal, 57, 0x401b999999999999, "ee7cf90140"),
    (10, 1, true, SolveStatus::Feasible, 1, 0x4012cccccccccccd, "7efb020909012a040"),
    (11, 2, false, SolveStatus::Unknown, 2, 0x7ff0000000000000, ""),
    (12, 3, true, SolveStatus::Feasible, 3, 0x4022000000000001, "fedff1590120"),
    (13, 5, true, SolveStatus::Feasible, 5, 0x4015333333333333, "f3ee50142"),
    (14, 10, false, SolveStatus::Feasible, 10, 0x4025000000000001, "fffff3aa42"),
    (15, 20, true, SolveStatus::Optimal, 15, 0x400b333333333334, "7f384054"),
    (16, 50, true, SolveStatus::Feasible, 50, 0x401cccccccccccce, "fdff30822011280621800"),
    (17, 100, false, SolveStatus::Feasible, 100, 0x4005999999999999, "fe380c402c00112"),
    (18, 200, true, SolveStatus::Optimal, 87, 0x4019333333333332, "6ee7f08804"),
    (19, 500, true, SolveStatus::Optimal, 79, 0x400e666666666666, "ef9060119404801"),
    (20, 1, false, SolveStatus::Unknown, 1, 0x7ff0000000000000, ""),
    (21, 2, true, SolveStatus::Feasible, 2, 0x4012000000000000, "57f70a801"),
    (22, 3, true, SolveStatus::Feasible, 3, 0x401ccccccccccccd, "fea7748012"),
    (23, 5, false, SolveStatus::Unknown, 5, 0x7ff0000000000000, ""),
    (24, 10, true, SolveStatus::Feasible, 10, 0x400f333333333334, "2f6141020"),
    (25, 20, true, SolveStatus::Feasible, 20, 0x4008000000000000, "bfc40480"),
    (26, 50, false, SolveStatus::Feasible, 50, 0x4023333333333334, "ffffb301402201a0280c00"),
    (27, 100, true, SolveStatus::Feasible, 100, 0x4022ccccccccccce, "fffe1128403420042"),
    (28, 200, true, SolveStatus::Feasible, 200, 0x402199999999999a, "f7fbf8882012019820"),
    (29, 500, false, SolveStatus::Optimal, 237, 0x401b99999999999a, "edff98103401a0"),
    (30, 1, true, SolveStatus::Feasible, 1, 0x4010cccccccccccd, "cc7a4020"),
    (31, 2, true, SolveStatus::Feasible, 2, 0x401b99999999999a, "fffba8101440a20"),
    (32, 3, false, SolveStatus::Unknown, 3, 0x7ff0000000000000, ""),
    (33, 5, true, SolveStatus::Feasible, 5, 0x4021666666666667, "ffff75042b040820"),
    (34, 10, true, SolveStatus::Feasible, 10, 0x401a000000000001, "fef74548021402401"),
    (35, 20, false, SolveStatus::Feasible, 20, 0x4016666666666667, "dff3050a0"),
    (36, 50, true, SolveStatus::Feasible, 50, 0x4021cccccccccccb, "7f7ff72440a28018403010"),
    (37, 100, true, SolveStatus::Optimal, 77, 0x4018666666666667, "ffd9884501a5011"),
    (38, 200, false, SolveStatus::Optimal, 101, 0x4026666666666667, "ffbfdf844402a"),
    (39, 500, true, SolveStatus::Optimal, 265, 0x402299999999999a, "bffefb22821824401"),
    (40, 1, true, SolveStatus::Feasible, 1, 0x4024ccccccccccce, "dfffdb084884012120"),
    (41, 2, false, SolveStatus::Unknown, 2, 0x7ff0000000000000, ""),
    (42, 3, true, SolveStatus::Feasible, 3, 0x400f333333333334, "dd60128001"),
    (43, 5, true, SolveStatus::Feasible, 5, 0x4020666666666666, "fffbd015020230"),
    (44, 10, false, SolveStatus::Unknown, 10, 0x7ff0000000000000, ""),
    (45, 20, true, SolveStatus::Feasible, 20, 0x4004ccccccccccce, "d7121090140440"),
    (46, 50, true, SolveStatus::Feasible, 50, 0x4013999999999999, "ffd003142a82410"),
    (47, 100, false, SolveStatus::Feasible, 100, 0x4012000000000000, "7f7180425028018021"),
    (48, 200, true, SolveStatus::Optimal, 67, 0x4015333333333334, "7bfb2c06803020"),
    (49, 500, true, SolveStatus::Optimal, 35, 0x4010cccccccccccd, "bf59542018020"),
];

#[test]
fn solver_search_tree_matches_recorded_runs() {
    assert_eq!(GOLDEN_RUNS.len(), 50);
    let mut mismatches = Vec::new();
    for &(seed, node_limit, warm_start, status, nodes, objective_bits, assignment) in GOLDEN_RUNS {
        let model = random_choice_model(seed, 0.1, 6..24, 3..14, 2..8);
        let config = SolverConfig {
            node_limit,
            time_limit: std::time::Duration::from_secs(3600),
            disable_warm_start: !warm_start,
            ..SolverConfig::default()
        };
        let s = solve(&model, config);
        let actual = (s.status, s.nodes, s.objective.to_bits(), assignment_hex(&s));
        let expected = (status, nodes, objective_bits, assignment.to_string());
        if actual != expected {
            mismatches.push(format!(
                "seed {seed}: expected {expected:?}, got {actual:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The search on the TPC-H five-query model at parallelism 2 (902
/// variables, 743 constraints) with a 20,000-node budget, recorded like
/// [`GOLDEN_RUNS`]: status, nodes, objective bits, assignment.
const GOLDEN_TPCH5_P2: (SolveStatus, u64, u64, &str) = (
    SolveStatus::Feasible,
    20_000,
    0x40d19f12f6006bb8,
    "2a2efffa22080882f00808100000000000030c0000060000060000600000000000c3000000810000000600000000000000000000000000c000000000000000600000000030000000000c000000000000000000008100000000000000000c0c000000000810000000000060000000000030",
);

#[test]
fn solver_search_tree_matches_recorded_tpch_run() {
    use clash_datagen::TpchWorkload;
    use clash_optimizer::{build_ilp, enumerate_candidates, PlannerConfig};
    let workload = TpchWorkload::new(2, Window::secs(3600)).unwrap();
    let queries = workload.five_queries().unwrap();
    let config = PlannerConfig::default();
    let candidates = enumerate_candidates(
        &workload.catalog,
        &workload.stats,
        &queries,
        &config.plan_space,
    );
    let model = build_ilp(&candidates).model;
    assert_eq!((model.num_vars(), model.num_constraints()), (902, 743));
    let s = solve(
        &model,
        SolverConfig {
            node_limit: 20_000,
            time_limit: std::time::Duration::from_secs(3600),
            ..config.solver
        },
    );
    let (status, nodes, objective_bits, assignment) = GOLDEN_TPCH5_P2;
    assert_eq!(
        (s.status, s.nodes, s.objective.to_bits(), assignment_hex(&s)),
        (status, nodes, objective_bits, assignment.to_string())
    );
}
