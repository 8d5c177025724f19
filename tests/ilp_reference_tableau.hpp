// The rational tableau simplex the int64 pivot kernel in src/ilp/solver.cpp
// replaced, kept only as the reference of the kernel parity tests
// (ilp_test's KernelParityTest). Every cell is its own reduced Rat, so the
// arithmetic is obviously exact, and a problem whose shared row
// denominators leave the int64 budget still solves here as long as each
// cell fits.
//
// The tableau follows the same Bland rule over the same exact values as the
// kernel, and rational_solve repeats solve's branch-and-bound order (root
// relaxation once, first fractional variable, floor branch first, prune on
// the incumbent), so on any problem the kernel solves both must return the
// same status, objective, assignment, pivot count and node count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ilp/solver.hpp"

namespace vc::reference {
namespace rational_lp {

using ilp::Constraint;
using ilp::LinTerm;
using ilp::Problem;
using ilp::Rat;
using ilp::Sense;
using ilp::Solution;
using ilp::Status;

// The kernel's budgets (solver.cpp).
constexpr std::int64_t kMaxPivots = 200000;
constexpr std::int64_t kMaxBnbNodes = 20000;

/// Dense simplex tableau over per-cell rationals. Column layout: see
/// Tableau64 in solver.cpp; the two must make identical pivoting decisions.
class Tableau {
 public:
  Tableau(const Problem& problem, std::int64_t* pivot_budget)
      : n_struct_(problem.num_vars), pivot_budget_(pivot_budget) {
    build(problem);
  }

  /// Runs phase 1 (if artificials exist) and phase 2. Returns the status;
  /// on Optimal, fills `values` (structural vars only) and `objective`.
  Status solve(const Problem& problem, std::vector<Rat>* values,
               Rat* objective) {
    if (!artificial_.empty()) {
      if (!run_phase1()) return Status::Infeasible;
    }
    set_phase2_objective(problem);
    if (!run_simplex()) return Status::Unbounded;
    *objective = -obj_[width_ - 1];
    values->assign(static_cast<std::size_t>(n_struct_), Rat(0));
    for (std::size_t i = 0; i < basis_.size(); ++i)
      if (basis_[i] < n_struct_)
        (*values)[static_cast<std::size_t>(basis_[i])] = rows_[i][rhs_col()];
    return Status::Optimal;
  }

 private:
  [[nodiscard]] std::size_t rhs_col() const {
    return static_cast<std::size_t>(width_ - 1);
  }

  void build(const Problem& problem) {
    const int m = static_cast<int>(problem.constraints.size());
    // One slack/surplus column per inequality, one artificial per Ge/Eq row.
    int n_total = n_struct_;
    std::vector<int> slack_col(static_cast<std::size_t>(m), -1);
    for (int i = 0; i < m; ++i)
      if (problem.constraints[static_cast<std::size_t>(i)].sense != Sense::Eq)
        slack_col[static_cast<std::size_t>(i)] = n_total++;
    std::vector<int> artif_col(static_cast<std::size_t>(m), -1);
    for (int i = 0; i < m; ++i) {
      const Constraint& c = problem.constraints[static_cast<std::size_t>(i)];
      // Le rows with rhs >= 0 start feasible on their slack; everything
      // else needs an artificial. (Negative-rhs rows are sign-flipped
      // below, which can turn Le into Ge and vice versa — decide after
      // normalization, so compute the flipped sense here.)
      const bool flip = c.rhs < Rat(0);
      Sense sense = c.sense;
      if (flip && sense == Sense::Le) sense = Sense::Ge;
      else if (flip && sense == Sense::Ge) sense = Sense::Le;
      if (sense != Sense::Le) artif_col[static_cast<std::size_t>(i)] = n_total++;
    }
    width_ = n_total + 1;
    artificial_.assign(static_cast<std::size_t>(n_total), false);

    rows_.assign(static_cast<std::size_t>(m),
                 std::vector<Rat>(static_cast<std::size_t>(width_), Rat(0)));
    basis_.assign(static_cast<std::size_t>(m), -1);
    for (int i = 0; i < m; ++i) {
      const Constraint& c = problem.constraints[static_cast<std::size_t>(i)];
      std::vector<Rat>& row = rows_[static_cast<std::size_t>(i)];
      for (const LinTerm& t : c.terms) {
        check(t.var >= 0 && t.var < n_struct_,
              "ilp: constraint references variable out of range");
        row[static_cast<std::size_t>(t.var)] += t.coeff;
      }
      row[rhs_col()] = c.rhs;
      const bool flip = c.rhs < Rat(0);
      Sense sense = c.sense;
      if (flip) {
        for (Rat& v : row) v = -v;
        if (sense == Sense::Le) sense = Sense::Ge;
        else if (sense == Sense::Ge) sense = Sense::Le;
      }
      const int sc = slack_col[static_cast<std::size_t>(i)];
      if (sc >= 0)
        row[static_cast<std::size_t>(sc)] =
            (sense == Sense::Ge) ? Rat(-1) : Rat(1);
      const int ac = artif_col[static_cast<std::size_t>(i)];
      if (ac >= 0) {
        row[static_cast<std::size_t>(ac)] = Rat(1);
        artificial_[static_cast<std::size_t>(ac)] = true;
        basis_[static_cast<std::size_t>(i)] = ac;
      } else {
        basis_[static_cast<std::size_t>(i)] = sc;  // Le row: slack is basic
      }
    }
    // Shrink artificial_ bookkeeping: if no artificials were allocated,
    // phase 1 is skipped entirely.
    if (std::none_of(artificial_.begin(), artificial_.end(),
                     [](bool b) { return b; }))
      artificial_.clear();
  }

  /// Phase 1: maximize -(sum of artificials). Returns false if the optimum
  /// is < 0 (original system infeasible).
  bool run_phase1() {
    obj_.assign(static_cast<std::size_t>(width_), Rat(0));
    for (int j = 0; j < width_ - 1; ++j)
      if (artificial_[static_cast<std::size_t>(j)])
        obj_[static_cast<std::size_t>(j)] = Rat(-1);
    price_out_basis();
    check(run_simplex(), "ilp: phase-1 objective unbounded");  // impossible
    if (-obj_[rhs_col()] < Rat(0)) return false;
    eliminate_basic_artificials();
    return true;
  }

  /// Rebuilds the reduced-cost row so basic columns read zero.
  void price_out_basis() {
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      const std::size_t bj = static_cast<std::size_t>(basis_[i]);
      if (obj_[bj].is_zero()) continue;
      const Rat factor = obj_[bj];
      for (std::size_t j = 0; j < static_cast<std::size_t>(width_); ++j)
        obj_[j] -= factor * rows_[i][j];
    }
  }

  /// After a feasible phase 1, artificials still in the basis sit at zero.
  /// Pivot each out on any admissible column, or drop its (redundant) row.
  void eliminate_basic_artificials() {
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      if (!artificial_[static_cast<std::size_t>(basis_[i])]) continue;
      int pivot_col = -1;
      for (int j = 0; j < width_ - 1; ++j) {
        if (artificial_[static_cast<std::size_t>(j)]) continue;
        if (!rows_[i][static_cast<std::size_t>(j)].is_zero()) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) {
        pivot(static_cast<int>(i), pivot_col);
      } else {
        // Row is zero across all real columns: a redundant constraint.
        rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
        basis_.erase(basis_.begin() + static_cast<std::ptrdiff_t>(i));
        --i;
      }
    }
  }

  void set_phase2_objective(const Problem& problem) {
    obj_.assign(static_cast<std::size_t>(width_), Rat(0));
    for (const LinTerm& t : problem.objective) {
      check(t.var >= 0 && t.var < n_struct_,
            "ilp: objective references variable out of range");
      obj_[static_cast<std::size_t>(t.var)] += t.coeff;
    }
    price_out_basis();
  }

  /// Bland's rule simplex to optimality. Returns false on unboundedness.
  bool run_simplex() {
    for (;;) {
      // Entering: the lowest-index admissible column with positive reduced
      // cost (Bland's rule half 1 — this is what prevents cycling).
      int enter = -1;
      for (int j = 0; j < width_ - 1; ++j) {
        // Artificial columns never re-enter once nonbasic (equivalent to
        // deleting them from the problem; required for phase-2 soundness).
        if (!artificial_.empty() && artificial_[static_cast<std::size_t>(j)])
          continue;
        if (obj_[static_cast<std::size_t>(j)] > Rat(0)) {
          enter = j;
          break;
        }
      }
      if (enter < 0) return true;  // optimal
      // Leaving: min ratio rhs/col over positive col entries, ties broken
      // by the lowest basis variable index (Bland's rule half 2).
      int leave = -1;
      Rat best_ratio;
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Rat& a = rows_[i][static_cast<std::size_t>(enter)];
        if (!(a > Rat(0))) continue;
        const Rat ratio = rows_[i][rhs_col()] / a;
        if (leave < 0 || ratio < best_ratio ||
            (ratio == best_ratio &&
             basis_[i] < basis_[static_cast<std::size_t>(leave)])) {
          leave = static_cast<int>(i);
          best_ratio = ratio;
        }
      }
      if (leave < 0) return false;  // column unbounded
      pivot(leave, enter);
    }
  }

  void pivot(int leave, int enter) {
    check(++*pivot_budget_ <= kMaxPivots,
          "ilp: simplex pivot limit exceeded (possible cycling or malformed "
          "system)");
    std::vector<Rat>& prow = rows_[static_cast<std::size_t>(leave)];
    const Rat inv = Rat(1) / prow[static_cast<std::size_t>(enter)];
    for (Rat& v : prow) v *= inv;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (static_cast<int>(i) == leave) continue;
      const Rat factor = rows_[i][static_cast<std::size_t>(enter)];
      if (factor.is_zero()) continue;
      for (std::size_t j = 0; j < static_cast<std::size_t>(width_); ++j)
        rows_[i][j] -= factor * prow[j];
    }
    const Rat ofactor = obj_[static_cast<std::size_t>(enter)];
    if (!ofactor.is_zero())
      for (std::size_t j = 0; j < static_cast<std::size_t>(width_); ++j)
        obj_[j] -= ofactor * prow[j];
    basis_[static_cast<std::size_t>(leave)] = enter;
  }

 private:
  int n_struct_;
  int width_ = 0;  // total columns incl. rhs
  std::vector<std::vector<Rat>> rows_;
  std::vector<Rat> obj_;
  std::vector<int> basis_;
  std::vector<bool> artificial_;  // empty when no artificial columns exist
  std::int64_t* pivot_budget_;
};

inline Solution solve_lp_counted(const Problem& problem, std::int64_t* pivots) {
  Solution sol;
  if (problem.num_vars == 0) {
    // Degenerate: only constant constraints. Feasible iff each holds at 0.
    for (const Constraint& c : problem.constraints) {
      check(c.terms.empty(), "ilp: constraint references variable out of range");
      const bool ok = c.sense == Sense::Le   ? Rat(0) <= c.rhs
                      : c.sense == Sense::Ge ? Rat(0) >= c.rhs
                                             : c.rhs.is_zero();
      if (!ok) return sol;  // Infeasible
    }
    sol.status = Status::Optimal;
    return sol;
  }
  Tableau tableau(problem, pivots);
  sol.status = tableau.solve(problem, &sol.values, &sol.objective);
  return sol;
}

/// Index of the first variable with a fractional value, or -1.
inline int first_fractional(const Solution& relax) {
  for (std::size_t j = 0; j < relax.values.size(); ++j)
    if (!relax.values[j].is_integer()) return static_cast<int>(j);
  return -1;
}

/// Depth-first branch and bound below a node whose LP relaxation `relax` is
/// already solved; bound rows are pushed onto `problem` and popped on unwind.
inline void branch(Problem* problem, Solution relax, Solution* best,
                   std::int64_t* pivots, std::int64_t* nodes) {
  check(++*nodes <= kMaxBnbNodes, "ilp: branch-and-bound node limit exceeded");
  if (relax.status != Status::Optimal) return;
  if (best->status == Status::Optimal && relax.objective <= best->objective)
    return;
  const int frac = first_fractional(relax);
  if (frac < 0) {
    *best = std::move(relax);
    return;
  }
  const Rat v = relax.values[static_cast<std::size_t>(frac)];
  Constraint bound;
  bound.terms = {{frac, Rat(1)}};
  bound.tag = "bnb";
  bound.sense = Sense::Le;
  bound.rhs = Rat(v.floor());
  problem->constraints.push_back(bound);
  branch(problem, solve_lp_counted(*problem, pivots), best, pivots, nodes);
  problem->constraints.back().sense = Sense::Ge;
  problem->constraints.back().rhs = Rat(v.ceil());
  branch(problem, solve_lp_counted(*problem, pivots), best, pivots, nodes);
  problem->constraints.pop_back();
}

}  // namespace rational_lp

/// ilp::solve_lp on the rational tableau.
inline ilp::Solution rational_solve_lp(const ilp::Problem& problem) {
  std::int64_t pivots = 0;
  ilp::Solution sol = rational_lp::solve_lp_counted(problem, &pivots);
  sol.pivots = pivots;
  sol.bnb_nodes = 1;
  return sol;
}

/// ilp::solve on the rational tableau.
inline ilp::Solution rational_solve(const ilp::Problem& problem) {
  if (!problem.integer) return rational_solve_lp(problem);
  std::int64_t pivots = 0;
  ilp::Solution root = rational_lp::solve_lp_counted(problem, &pivots);
  if (root.status != ilp::Status::Optimal) {
    root.pivots = pivots;
    root.bnb_nodes = 1;
    return root;
  }
  ilp::Solution best;
  std::int64_t nodes = 0;
  ilp::Problem scratch = problem;
  rational_lp::branch(&scratch, std::move(root), &best, &pivots, &nodes);
  check(best.status == ilp::Status::Optimal,
        "ilp: integer problem has a feasible relaxation but no integral "
        "point within the branch-and-bound budget");
  best.pivots = pivots;
  best.bnb_nodes = nodes;
  return best;
}

}  // namespace vc::reference
