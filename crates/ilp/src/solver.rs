//! Branch-and-bound solver for 0/1 ILPs.
//!
//! The solver performs depth-first branch-and-bound over the binary
//! domains, with constraint propagation (see [`crate::propagation`]) at
//! every node and the greedy construction of [`crate::greedy()`] as the
//! initial incumbent. The lower bound at a node is the objective mass of
//! the variables already fixed to 1 (plus any negative coefficients still
//! free), plus, for every unsatisfied choice group, the cheapest set of
//! steps one of its free alternatives would still force. For the
//! non-negative step-cost objectives produced by the optimizer the first
//! part is the exact cost of the partially committed plan, so pruning is
//! effective once a good incumbent is known.
//!
//! A node allocates nothing unless it improves the incumbent: the search
//! fixes and propagates on one set of domains and rolls back along its
//! trail, and the bound and branching choice work on lists precomputed
//! once per solve. The tree itself (branching choice, bound bits,
//! acceptance, node count) is pinned by recorded runs in
//! `tests/property_tests.rs`.
//!
//! The solver is exact when it terminates within its node/time limits and
//! degrades into an anytime heuristic (returning the best incumbent) when
//! it does not, mirroring how the paper treats optimization time as a
//! budget that must stay compatible with streaming (Section VII-C).

use crate::greedy::{choice_groups, greedy};
use crate::model::{Assignment, Model, VarId};
use crate::propagation::{Domains, PropagationResult, Propagator};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Termination status of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// The returned solution is provably optimal.
    Optimal,
    /// A feasible solution was found but a limit stopped the proof of
    /// optimality.
    Feasible,
    /// The model has no feasible 0/1 assignment.
    Infeasible,
    /// A limit was hit before any feasible solution was found.
    Unknown,
}

/// Solver limits and tolerances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Maximum number of branch-and-bound nodes to explore.
    pub node_limit: u64,
    /// Wall-clock time limit.
    pub time_limit: Duration,
    /// Feasibility / optimality tolerance.
    pub tolerance: f64,
    /// When `true`, skip the greedy warm start (used by the ablation
    /// benchmark to quantify its benefit).
    pub disable_warm_start: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 200_000,
            time_limit: Duration::from_secs(10),
            tolerance: 1e-6,
            disable_warm_start: false,
        }
    }
}

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Best assignment found (absent for `Infeasible` / `Unknown`).
    pub assignment: Option<Assignment>,
    /// Objective value of the best assignment (`f64::INFINITY` if none).
    pub objective: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl Solution {
    /// `true` when a feasible assignment is available.
    pub fn is_feasible(&self) -> bool {
        self.assignment.is_some()
    }
}

/// What a pass over a choice group's members finds at one node.
#[derive(Debug, Clone, Copy, Default)]
struct GroupScan {
    /// Some member is fixed to 1.
    satisfied: bool,
    /// Number of free members (counted only while unsatisfied).
    free: usize,
    /// The first free member.
    first_free: Option<VarId>,
}

/// The depth-first search. One `Domains` is shared by the whole search and
/// rolled back along its trail, and the bound and branching work in
/// buffers sized once, so a node allocates nothing unless it improves the
/// incumbent.
struct SearchState<'a> {
    model: &'a Model,
    propagator: Propagator<'a>,
    domains: Domains,
    /// Members of every choice group, in constraint order.
    groups: Vec<Vec<VarId>>,
    /// The state of every choice group at the current node.
    scans: Vec<GroupScan>,
    /// Bitset of the variables with a non-zero objective coefficient.
    cost_mask: Vec<u64>,
    /// Variables with a negative objective coefficient, in index order.
    negative_vars: Vec<(VarId, f64)>,
    /// For every choice-group member: the positive-cost variables, free at
    /// the root, that propagation forces to 1 when the member is selected
    /// there, in index order. Used for the lower bound: whatever
    /// alternative of an unsatisfied choice group is eventually selected,
    /// the cheapest requirement set of its still-free alternatives will be
    /// paid for.
    requirements: Vec<Vec<(VarId, f64)>>,
    /// Bound scratch: per variable, the first group whose free members
    /// require it.
    counted_by: Vec<u32>,
    config: SolverConfig,
    started: Instant,
    nodes: u64,
    limit_hit: bool,
    incumbent: Option<(Assignment, f64)>,
}

impl<'a> SearchState<'a> {
    /// Sets up the search from the propagated root domains and computes
    /// the requirement lists by propagating `x = 1` for every choice-group
    /// member.
    fn new(
        model: &'a Model,
        mut propagator: Propagator<'a>,
        mut domains: Domains,
        config: SolverConfig,
        started: Instant,
        incumbent: Option<(Assignment, f64)>,
    ) -> Self {
        let groups = choice_groups(model);
        let mut requirements: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); model.num_vars()];
        for &x in groups.iter().flatten() {
            let mark = domains.mark();
            // A member fixed at the root is never free below it, and a
            // member whose selection conflicts requires nothing (the search
            // discovers the conflict itself).
            if domains.fix(x, true) {
                if let PropagationResult::Fixpoint(_) = propagator.propagate_from(&mut domains, x) {
                    let req = &mut requirements[x.index()];
                    req.clear();
                    for &v in domains.fixed_since(mark) {
                        let c = model.objective_coeff(v);
                        if c > 0.0 && domains.get(v) == Some(true) {
                            req.push((v, c));
                        }
                    }
                    req.sort_unstable_by_key(|(v, _)| *v);
                }
            }
            domains.undo(mark);
        }
        let mut cost_mask = vec![0u64; model.num_vars().div_ceil(64)];
        let mut negative_vars = Vec::new();
        for v in model.vars() {
            let c = model.objective_coeff(v);
            if c != 0.0 {
                cost_mask[v.index() / 64] |= 1 << (v.index() % 64);
            }
            if c < 0.0 {
                negative_vars.push((v, c));
            }
        }
        SearchState {
            model,
            propagator,
            domains,
            scans: vec![GroupScan::default(); groups.len()],
            groups,
            cost_mask,
            negative_vars,
            requirements,
            counted_by: vec![u32::MAX; model.num_vars()],
            config,
            started,
            nodes: 0,
            limit_hit: false,
            incumbent,
        }
    }

    fn lower_bound(&mut self) -> f64 {
        let domains = &self.domains;
        // Objective mass of the variables fixed to 1, in index order.
        let mut bound = 0.0;
        for (w, (&ones, &mask)) in domains.ones_bits().iter().zip(&self.cost_mask).enumerate() {
            let mut bits = ones & mask;
            while bits != 0 {
                let v = VarId((w * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
                bound += self.model.objective_coeff(v);
            }
        }
        // Negative coefficients of free variables can only decrease the
        // objective further; account for them to keep the bound admissible
        // for general models.
        for &(v, c) in &self.negative_vars {
            if domains.is_free(v) {
                bound += c;
            }
        }
        // Sequential-minimum bound over the unsatisfied choice groups.
        //
        // Whatever alternative a group eventually selects, the still-free
        // positive-cost variables in its requirement set must be paid for.
        // Processing groups in a fixed order and blocking every variable
        // that *any* alternative of an earlier group could have provided
        // makes the per-group minima additive without double counting, so
        // the sum stays an admissible lower bound even when groups share
        // steps. `counted_by[v]` is the first group that could provide `v`.
        self.counted_by.fill(u32::MAX);
        for (g, (group, scan)) in self.groups.iter().zip(&self.scans).enumerate() {
            let g = g as u32;
            if scan.satisfied {
                continue;
            }
            let mut group_min: Option<f64> = None;
            for &x in group {
                if !domains.is_free(x) {
                    continue;
                }
                let mut alt_cost = 0.0;
                for &(v, c) in &self.requirements[x.index()] {
                    let first = &mut self.counted_by[v.index()];
                    let pay = *first >= g && domains.is_free(v);
                    *first = (*first).min(g);
                    alt_cost += if pay { c } else { 0.0 };
                }
                group_min = Some(group_min.map_or(alt_cost, |m: f64| m.min(alt_cost)));
            }
            if let Some(m) = group_min {
                bound += m;
            }
        }
        bound
    }

    fn out_of_budget(&mut self) -> bool {
        if self.nodes >= self.config.node_limit || self.started.elapsed() >= self.config.time_limit
        {
            self.limit_hit = true;
            return true;
        }
        false
    }

    /// Refreshes `scans` from the current domains.
    fn scan_groups(&mut self) {
        for (group, scan) in self.groups.iter().zip(&mut self.scans) {
            *scan = GroupScan::default();
            for &v in group {
                match self.domains.get(v) {
                    Some(true) => {
                        scan.satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        scan.first_free.get_or_insert(v);
                        scan.free += 1;
                    }
                }
            }
        }
    }

    /// Chooses the next variable to branch on: the first free member of
    /// the unsatisfied choice group with the fewest free members, falling
    /// back to the first free variable.
    fn branching_variable(&self) -> Option<VarId> {
        let mut best: Option<(VarId, usize)> = None;
        for scan in self.scans.iter().filter(|s| !s.satisfied) {
            if let Some(v) = scan.first_free {
                if best.map(|(_, n)| scan.free < n).unwrap_or(true) {
                    best = Some((v, scan.free));
                }
            }
        }
        best.map(|(v, _)| v).or_else(|| self.domains.first_free())
    }

    fn maybe_accept(&mut self) {
        // Free variables map to 0, so an unsatisfied choice group violates
        // its `Σ x = 1`: the assignment cannot be feasible.
        if self.scans.iter().any(|s| !s.satisfied) {
            return;
        }
        let assignment = self.domains.to_assignment();
        if !self.model.is_feasible(&assignment, self.config.tolerance) {
            return;
        }
        let objective = self.model.objective_value(&assignment);
        let improves = self
            .incumbent
            .as_ref()
            .map(|(_, best)| objective < best - self.config.tolerance)
            .unwrap_or(true);
        if improves {
            self.incumbent = Some((assignment, objective));
        }
    }

    fn search(&mut self) {
        self.nodes += 1;
        if self.out_of_budget() {
            return;
        }
        self.scan_groups();
        // Bound.
        if let Some(best) = self.incumbent.as_ref().map(|(_, best)| *best) {
            if self.lower_bound() >= best - self.config.tolerance {
                return;
            }
        }
        // Even with free variables left, mapping them to 0 may already be a
        // feasible (and, given the bound above, improving) solution.
        self.maybe_accept();
        if self.domains.is_complete() {
            return;
        }
        let Some(var) = self.branching_variable() else {
            return;
        };
        for value in [true, false] {
            let mark = self.domains.mark();
            if self.domains.fix(var, value) {
                if let PropagationResult::Fixpoint(_) =
                    self.propagator.propagate_from(&mut self.domains, var)
                {
                    self.search();
                }
            }
            self.domains.undo(mark);
            if self.limit_hit {
                return;
            }
        }
    }
}

/// Solves a 0/1 ILP.
pub fn solve(model: &Model, config: SolverConfig) -> Solution {
    let started = Instant::now();
    let mut propagator = Propagator::new(model);
    let mut root = Domains::free(model.num_vars());
    if let PropagationResult::Conflict(_) = propagator.propagate_all(&mut root) {
        return Solution {
            status: SolveStatus::Infeasible,
            assignment: None,
            objective: f64::INFINITY,
            nodes: 0,
            elapsed: started.elapsed(),
        };
    }

    let incumbent = if config.disable_warm_start {
        None
    } else {
        greedy(model)
    };

    let mut state = SearchState::new(model, propagator, root, config, started, incumbent);
    state.search();

    let elapsed = started.elapsed();
    match state.incumbent {
        Some((assignment, objective)) => Solution {
            status: if state.limit_hit {
                SolveStatus::Feasible
            } else {
                SolveStatus::Optimal
            },
            assignment: Some(assignment),
            objective,
            nodes: state.nodes,
            elapsed,
        },
        None => Solution {
            status: if state.limit_hit {
                SolveStatus::Unknown
            } else {
                SolveStatus::Infeasible
            },
            assignment: None,
            objective: f64::INFINITY,
            nodes: state.nodes,
            elapsed,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Sense};

    fn assert_optimal(solution: &Solution, expected: f64) {
        assert_eq!(solution.status, SolveStatus::Optimal, "{solution:?}");
        assert!(
            (solution.objective - expected).abs() < 1e-6,
            "objective {} != {expected}",
            solution.objective
        );
    }

    #[test]
    fn solves_simple_choice_model() {
        // min 2a + 3b st a + b = 1  -> a.
        let mut m = Model::new();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        m.add_choose_one("c", [a, b]);
        let s = solve(&m, SolverConfig::default());
        assert_optimal(&s, 2.0);
        assert!(s.assignment.as_ref().unwrap().get(a));
        assert!(!s.assignment.as_ref().unwrap().get(b));
    }

    #[test]
    fn solves_sharing_example_optimally() {
        // The Section V-2 example: sharing ⟨S,T⟩ between q1 and q2 gives 250.
        let mut m = Model::new();
        let y_sr = m.add_binary("y_SR", 100.0);
        let y_srt = m.add_binary("y_SRT", 50.0);
        let y_st = m.add_binary("y_ST", 100.0);
        let y_str = m.add_binary("y_STR", 75.0);
        let y_stu = m.add_binary("y_STU", 75.0);
        let x1 = m.add_binary("x1", 0.0);
        let x2 = m.add_binary("x2", 0.0);
        let x3 = m.add_binary("x3", 0.0);
        m.add_choose_one("q1_S", [x1, x2]);
        m.add_choose_one("q2_S", [x3]);
        m.add_constraint(
            "cost_x1",
            LinExpr::from_terms([(x1, -150.0), (y_sr, 100.0), (y_srt, 50.0)]),
            Sense::Ge,
            0.0,
        );
        m.add_constraint(
            "cost_x2",
            LinExpr::from_terms([(x2, -175.0), (y_st, 100.0), (y_str, 75.0)]),
            Sense::Ge,
            0.0,
        );
        m.add_constraint(
            "cost_x3",
            LinExpr::from_terms([(x3, -175.0), (y_st, 100.0), (y_stu, 75.0)]),
            Sense::Ge,
            0.0,
        );
        let s = solve(&m, SolverConfig::default());
        assert_optimal(&s, 250.0);
        let asg = s.assignment.unwrap();
        assert!(asg.get(x2) && asg.get(x3) && !asg.get(x1));
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new();
        let a = m.add_binary("a", 1.0);
        m.add_constraint("ge", LinExpr::sum([a]), Sense::Ge, 2.0);
        let s = solve(&m, SolverConfig::default());
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert!(!s.is_feasible());
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new();
        let s = solve(&m, SolverConfig::default());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn warm_start_can_be_disabled() {
        let mut m = Model::new();
        let a = m.add_binary("a", 2.0);
        let b = m.add_binary("b", 3.0);
        m.add_choose_one("c", [a, b]);
        let cfg = SolverConfig {
            disable_warm_start: true,
            ..SolverConfig::default()
        };
        let s = solve(&m, cfg);
        assert_optimal(&s, 2.0);
    }

    #[test]
    fn node_limit_returns_best_incumbent() {
        // Build a model big enough that one node cannot close it, and check
        // the anytime behaviour.
        let mut m = Model::new();
        let mut groups = Vec::new();
        for g in 0..20 {
            let steps: Vec<VarId> = (0..4)
                .map(|i| m.add_binary(format!("y_{g}_{i}"), (i + 1) as f64))
                .collect();
            let alts: Vec<VarId> = (0..4)
                .map(|i| m.add_binary(format!("x_{g}_{i}"), 0.0))
                .collect();
            for (i, x) in alts.iter().enumerate() {
                m.add_constraint(
                    format!("cost_{g}_{i}"),
                    LinExpr::from_terms([(*x, -((i + 1) as f64)), (steps[i], (i + 1) as f64)]),
                    Sense::Ge,
                    0.0,
                );
            }
            m.add_choose_one(format!("choice_{g}"), alts.clone());
            groups.push(alts);
        }
        // A zero time budget stops the search at the first node; the greedy
        // warm start still provides a feasible incumbent (anytime behaviour).
        let cfg = SolverConfig {
            time_limit: Duration::ZERO,
            ..SolverConfig::default()
        };
        let s = solve(&m, cfg);
        assert_eq!(s.status, SolveStatus::Feasible);
        assert!(s.is_feasible());
        assert!(s.nodes <= 1);
        // Optimal is picking the cost-1 alternative everywhere = 20.
        let full = solve(&m, SolverConfig::default());
        assert_optimal(&full, 20.0);
        assert!(full.objective <= s.objective + 1e-9);
    }

    #[test]
    fn negative_objective_coefficients_are_handled() {
        // min -5a + 1b st a + b >= 1 -> a=1 (b free to be 0), objective -5.
        let mut m = Model::new();
        let a = m.add_binary("a", -5.0);
        let b = m.add_binary("b", 1.0);
        m.add_constraint("cover", LinExpr::sum([a, b]), Sense::Ge, 1.0);
        let s = solve(&m, SolverConfig::default());
        assert_optimal(&s, -5.0);
        assert!(s.assignment.unwrap().get(a));
    }
}
