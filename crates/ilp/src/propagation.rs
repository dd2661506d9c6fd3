//! Constraint propagation over binary domains.
//!
//! The solver never relaxes integrality: it reasons directly over the
//! three-valued domains {0, 1, free} of the binary variables. For every
//! constraint the propagator computes the smallest and largest achievable
//! left-hand side under the current domains; values that would make the
//! constraint unsatisfiable are pruned, which fixes variables. The models
//! produced by Algorithm 2 propagate very strongly: choosing a probe order
//! variable immediately fixes all of its step variables through the cost
//! constraints.

use crate::model::{Model, Sense, VarId};

/// Three-valued domains of all variables, with a trail of the fixes made
/// so that a search can roll back to an earlier state without copying.
#[derive(Debug, Clone)]
pub struct Domains {
    values: Vec<Option<bool>>,
    /// Bitset of the variables fixed to 1.
    ones: Vec<u64>,
    /// The fixed variables, in the order they were fixed.
    trail: Vec<VarId>,
}

impl Domains {
    /// All-free domains for `n` variables.
    pub fn free(n: usize) -> Self {
        Domains {
            values: vec![None; n],
            ones: vec![0; n.div_ceil(64)],
            trail: Vec::with_capacity(n),
        }
    }

    /// Current domain of a variable.
    pub fn get(&self, var: VarId) -> Option<bool> {
        self.values[var.index()]
    }

    /// `true` when the variable is not yet fixed.
    pub fn is_free(&self, var: VarId) -> bool {
        self.values[var.index()].is_none()
    }

    /// Fixes a variable. Returns `false` when the variable was already
    /// fixed to the opposite value (conflict).
    pub fn fix(&mut self, var: VarId, value: bool) -> bool {
        match self.values[var.index()] {
            None => {
                self.values[var.index()] = Some(value);
                self.ones[var.index() / 64] |= u64::from(value) << (var.index() % 64);
                self.trail.push(var);
                true
            }
            Some(v) => v == value,
        }
    }

    /// The current point of the trail, to return to with [`Domains::undo`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Frees every variable fixed since `mark` was taken.
    pub fn undo(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.values[v.index()] = None;
            self.ones[v.index() / 64] &= !(1 << (v.index() % 64));
        }
    }

    /// The variables fixed since `mark` was taken, in fixing order.
    pub fn fixed_since(&self, mark: usize) -> &[VarId] {
        &self.trail[mark..]
    }

    /// Number of fixed variables.
    pub fn fixed_count(&self) -> usize {
        self.trail.len()
    }

    /// `true` when every variable is fixed.
    pub fn is_complete(&self) -> bool {
        self.trail.len() == self.values.len()
    }

    /// Index of the first free variable, if any.
    pub fn first_free(&self) -> Option<VarId> {
        self.values
            .iter()
            .position(|v| v.is_none())
            .map(|i| VarId(i as u32))
    }

    /// Converts to a full assignment, mapping free variables to 0 (the
    /// cheapest completion for non-negative objectives).
    pub fn to_assignment(&self) -> crate::model::Assignment {
        crate::model::Assignment::from_values(
            self.values.iter().map(|v| v.unwrap_or(false)).collect(),
        )
    }

    /// Ids of variables currently fixed to 1.
    pub fn ones(&self) -> impl Iterator<Item = VarId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == Some(true))
            .map(|(i, _)| VarId(i as u32))
    }

    /// The variables fixed to 1 as a bitset: bit `i % 64` of word `i / 64`
    /// is variable `i`.
    pub fn ones_bits(&self) -> &[u64] {
        &self.ones
    }
}

/// Result of a propagation run.
#[derive(Debug, Clone, PartialEq)]
pub enum PropagationResult {
    /// A fixpoint was reached without conflicts; the payload is the number
    /// of variables fixed during this run.
    Fixpoint(usize),
    /// Some constraint cannot be satisfied anymore. The payload is the
    /// index of the conflicting constraint.
    Conflict(usize),
}

/// Propagator: precomputes the variable → constraint adjacency of a model
/// and keeps the work queue between runs, so a run allocates nothing.
#[derive(Debug)]
pub struct Propagator<'a> {
    model: &'a Model,
    /// For each variable, the indices of the constraints it appears in.
    var_constraints: Vec<Vec<usize>>,
    /// Constraints still to examine; processed last-in, first-out.
    queue: Vec<usize>,
    /// `in_queue[c]` while constraint `c` is on the queue. All `false`
    /// between runs.
    in_queue: Vec<bool>,
    /// Variables fixed by the constraint being examined.
    newly_fixed: Vec<VarId>,
}

impl<'a> Propagator<'a> {
    /// Builds a propagator for a model.
    pub fn new(model: &'a Model) -> Self {
        let mut var_constraints = vec![Vec::new(); model.num_vars()];
        for (ci, c) in model.constraints().iter().enumerate() {
            for (v, _) in c.expr.terms() {
                var_constraints[v.index()].push(ci);
            }
        }
        Propagator {
            model,
            var_constraints,
            queue: Vec::with_capacity(model.num_constraints()),
            in_queue: vec![false; model.num_constraints()],
            newly_fixed: Vec::new(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Propagates all constraints to a fixpoint.
    pub fn propagate_all(&mut self, domains: &mut Domains) -> PropagationResult {
        self.queue.extend(0..self.model.num_constraints());
        self.in_queue.fill(true);
        self.run(domains)
    }

    /// Propagates starting from the constraints involving `seed_var`
    /// (typically a variable that was just fixed by a branching decision).
    pub fn propagate_from(&mut self, domains: &mut Domains, seed_var: VarId) -> PropagationResult {
        for &ci in &self.var_constraints[seed_var.index()] {
            self.queue.push(ci);
            self.in_queue[ci] = true;
        }
        self.run(domains)
    }

    fn run(&mut self, domains: &mut Domains) -> PropagationResult {
        const EPS: f64 = 1e-9;
        let model = self.model;
        let mut fixed_total = 0usize;
        while let Some(ci) = self.queue.pop() {
            self.in_queue[ci] = false;
            let c = &model.constraints()[ci];
            // Bounds of the LHS under the current domains.
            let mut min_lhs = 0.0;
            let mut max_lhs = 0.0;
            for (v, coeff) in c.expr.terms() {
                match domains.get(*v) {
                    Some(true) => {
                        min_lhs += coeff;
                        max_lhs += coeff;
                    }
                    Some(false) => {}
                    None => {
                        min_lhs += coeff.min(0.0);
                        max_lhs += coeff.max(0.0);
                    }
                }
            }
            let need_ge = matches!(c.sense, Sense::Ge | Sense::Eq);
            let need_le = matches!(c.sense, Sense::Le | Sense::Eq);
            if need_ge && max_lhs < c.rhs - EPS {
                return self.conflict(ci);
            }
            if need_le && min_lhs > c.rhs + EPS {
                return self.conflict(ci);
            }
            // Try to fix free variables whose "wrong" value would violate
            // the constraint.
            for (v, coeff) in c.expr.terms() {
                if !domains.is_free(*v) {
                    continue;
                }
                let amp = coeff.abs();
                if amp <= EPS {
                    continue;
                }
                if need_ge && max_lhs - amp < c.rhs - EPS {
                    // The variable must contribute its maximum.
                    if !domains.fix(*v, *coeff > 0.0) {
                        return self.conflict(ci);
                    }
                    self.newly_fixed.push(*v);
                } else if need_le && min_lhs + amp > c.rhs + EPS {
                    // The variable must contribute its minimum.
                    if !domains.fix(*v, *coeff < 0.0) {
                        return self.conflict(ci);
                    }
                    self.newly_fixed.push(*v);
                }
            }
            fixed_total += self.newly_fixed.len();
            for v in self.newly_fixed.drain(..) {
                for &other in &self.var_constraints[v.index()] {
                    if !self.in_queue[other] {
                        self.in_queue[other] = true;
                        self.queue.push(other);
                    }
                }
                // Re-examine the current constraint as well: fixing one of
                // its variables changes the bounds for the others.
                if !self.in_queue[ci] {
                    self.in_queue[ci] = true;
                    self.queue.push(ci);
                }
            }
        }
        PropagationResult::Fixpoint(fixed_total)
    }

    /// Empties the scratch state left by an interrupted run.
    fn conflict(&mut self, ci: usize) -> PropagationResult {
        for c in self.queue.drain(..) {
            self.in_queue[c] = false;
        }
        self.newly_fixed.clear();
        PropagationResult::Conflict(ci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model};

    #[test]
    fn choose_one_with_single_candidate_is_forced() {
        let mut m = Model::new();
        let x = m.add_binary("x", 1.0);
        m.add_choose_one("only", [x]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(1);
        assert_eq!(p.propagate_all(&mut d), PropagationResult::Fixpoint(1));
        assert_eq!(d.get(x), Some(true));
        assert!(d.is_complete());
    }

    #[test]
    fn implication_propagates_when_antecedent_fixed() {
        // -x + y >= 0, x fixed to 1 forces y = 1.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y = m.add_binary("y", 1.0);
        m.add_implies_any("imp", x, [y]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(2);
        assert!(d.fix(x, true));
        assert_eq!(p.propagate_from(&mut d, x), PropagationResult::Fixpoint(1));
        assert_eq!(d.get(y), Some(true));
    }

    #[test]
    fn cost_constraint_fixes_all_step_variables() {
        // -10 x + 4 y1 + 6 y2 >= 0: x=1 requires both steps.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y1 = m.add_binary("y1", 4.0);
        let y2 = m.add_binary("y2", 6.0);
        let expr = LinExpr::from_terms([(x, -10.0), (y1, 4.0), (y2, 6.0)]);
        m.add_constraint("cost", expr, Sense::Ge, 0.0);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(3);
        d.fix(x, true);
        assert_eq!(p.propagate_from(&mut d, x), PropagationResult::Fixpoint(2));
        assert_eq!(d.get(y1), Some(true));
        assert_eq!(d.get(y2), Some(true));
    }

    #[test]
    fn choose_one_excludes_remaining_after_selection() {
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        let b = m.add_binary("b", 0.0);
        let c = m.add_binary("c", 0.0);
        m.add_choose_one("choice", [a, b, c]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(3);
        d.fix(a, true);
        assert!(matches!(
            p.propagate_from(&mut d, a),
            PropagationResult::Fixpoint(2)
        ));
        assert_eq!(d.get(b), Some(false));
        assert_eq!(d.get(c), Some(false));
    }

    #[test]
    fn conflict_detected_when_constraint_unsatisfiable() {
        let mut m = Model::new();
        let a = m.add_binary("a", 0.0);
        let b = m.add_binary("b", 0.0);
        m.add_choose_one("choice", [a, b]);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(2);
        d.fix(a, false);
        d.fix(b, false);
        assert!(matches!(
            p.propagate_all(&mut d),
            PropagationResult::Conflict(_)
        ));
    }

    #[test]
    fn fix_conflicting_value_reports_false() {
        let mut d = Domains::free(2);
        assert!(d.fix(VarId(0), true));
        assert!(d.fix(VarId(0), true), "re-fixing to the same value is fine");
        assert!(!d.fix(VarId(0), false));
        assert_eq!(d.fixed_count(), 1);
        assert_eq!(d.first_free(), Some(VarId(1)));
        let ones: Vec<VarId> = d.ones().collect();
        assert_eq!(ones, vec![VarId(0)]);
    }

    #[test]
    fn to_assignment_maps_free_to_zero() {
        let mut d = Domains::free(3);
        d.fix(VarId(1), true);
        let asg = d.to_assignment();
        assert!(!asg.get(VarId(0)));
        assert!(asg.get(VarId(1)));
        assert!(!asg.get(VarId(2)));
    }

    #[test]
    fn le_constraints_prune_upwards() {
        // x + y <= 1 with x = 1 forces y = 0.
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let y = m.add_binary("y", 0.0);
        m.add_constraint("le", LinExpr::sum([x, y]), Sense::Le, 1.0);
        let mut p = Propagator::new(&m);
        let mut d = Domains::free(2);
        d.fix(x, true);
        assert!(matches!(
            p.propagate_from(&mut d, x),
            PropagationResult::Fixpoint(1)
        ));
        assert_eq!(d.get(y), Some(false));
    }
}
