// Exact LP/ILP solving for implicit path enumeration.
//
// The problem shape is fixed by the IPET lowering (src/wcet/ipet.cpp):
// maximize a linear objective over non-negative variables subject to
// <=/>=/= constraints, with all variables required integral. The solver is
// a dense two-phase primal simplex over exact rationals with Bland's rule
// (anti-cycling), plus depth-first branch-and-bound for integrality.
//
// Trust boundary: nothing in solver.cpp is trusted. A solution is only
// accepted after verify.cpp::check_certificate re-evaluates every
// constraint and the objective against the returned assignment using only
// Rat arithmetic — a few dozen lines that are independent of the pivoting
// machinery. That check proves the returned flow feasible and its objective
// value right, so a solver bug that returns an infeasible flow or misstates
// its objective is a rejected certificate. It does not prove optimality: a
// feasible but suboptimal flow passes and yields a bound that is too low.
// Only the constraint system being a relaxation of real executions, and the
// checks of bounds against observed runs (driver::run_job, the property
// sweep), stand against that case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/rational.hpp"

namespace vc::ilp {

enum class Sense { Le, Ge, Eq };

/// coeff * x[var]; variables are dense indices [0, num_vars).
struct LinTerm {
  int var = 0;
  Rat coeff;
};

struct Constraint {
  std::vector<LinTerm> terms;
  Sense sense = Sense::Le;
  Rat rhs;
  std::string tag;  ///< provenance for diagnostics ("loop@0x40", "flow b3"...)
};

/// Maximize objective . x  subject to constraints and x >= 0 (implicit).
struct Problem {
  int num_vars = 0;
  std::vector<LinTerm> objective;
  std::vector<Constraint> constraints;
  bool integer = false;  ///< require every variable integral (branch & bound)
};

enum class Status { Optimal, Infeasible, Unbounded };

struct Solution {
  Status status = Status::Infeasible;
  Rat objective;
  std::vector<Rat> values;  ///< one per variable when status == Optimal
  std::int64_t pivots = 0;  ///< simplex pivots across all LP solves
  std::int64_t bnb_nodes = 0;  ///< branch-and-bound nodes explored (1 = pure LP)
};

/// Solves the LP relaxation (ignores Problem::integer). The pivot kernel
/// keeps each row as int64 numerators over one denominator (solver.cpp); a
/// value outside that budget, like an exhausted pivot or node budget, is an
/// InternalError, never a rounded answer.
[[nodiscard]] Solution solve_lp(const Problem& problem);

/// Solves the problem; runs branch-and-bound when Problem::integer is set.
[[nodiscard]] Solution solve(const Problem& problem);

/// Independent certificate check (verify.cpp): confirms `values` is
/// feasible for every constraint, non-negative, integral when required, and
/// that the objective evaluates to `objective`. Returns an empty string on
/// success, else a description of the first violated condition.
[[nodiscard]] std::string check_certificate(const Problem& problem,
                                            const std::vector<Rat>& values,
                                            const Rat& objective);

}  // namespace vc::ilp
