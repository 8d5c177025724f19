// Independent certificate verifier for solver results.
//
// This file is the trusted half of src/ilp: it knows nothing about
// tableaux, bases, or pivots. Given the problem statement and a candidate
// assignment, it re-evaluates every constraint and the objective with exact
// Rat arithmetic. Keeping it this small is the point: whatever the simplex
// and branch-and-bound machinery in solver.cpp gets wrong about feasibility
// or the objective value shows up as a rejected certificate (a hard, named
// error upstream). The check does not prove optimality. A feasible but
// suboptimal flow passes and yields a WCET bound that is too low; only the
// checks of bounds against observed runs stand against that (solver.hpp,
// DESIGN.md §10).
#include "ilp/solver.hpp"

namespace vc::ilp {
namespace {

Rat eval_terms(const std::vector<LinTerm>& terms,
               const std::vector<Rat>& values) {
  Rat sum;
  for (const LinTerm& t : terms)
    sum += t.coeff * values[static_cast<std::size_t>(t.var)];
  return sum;
}

std::string describe(const Constraint& c, const Rat& lhs) {
  const char* rel = c.sense == Sense::Le ? "<=" : c.sense == Sense::Ge ? ">=" : "==";
  std::string where = c.tag.empty() ? std::string("<untagged>") : c.tag;
  return "constraint '" + where + "' violated: " + lhs.to_string() + " " +
         rel + " " + c.rhs.to_string() + " does not hold";
}

}  // namespace

std::string check_certificate(const Problem& problem,
                              const std::vector<Rat>& values,
                              const Rat& objective) {
  if (values.size() != static_cast<std::size_t>(problem.num_vars))
    return "certificate has " + std::to_string(values.size()) +
           " values for " + std::to_string(problem.num_vars) + " variables";
  for (std::size_t j = 0; j < values.size(); ++j) {
    if (values[j] < Rat(0))
      return "variable x" + std::to_string(j) + " is negative (" +
             values[j].to_string() + ")";
    if (problem.integer && !values[j].is_integer())
      return "variable x" + std::to_string(j) + " is fractional (" +
             values[j].to_string() + ") in an integer problem";
  }
  for (const Constraint& c : problem.constraints) {
    for (const LinTerm& t : c.terms)
      if (t.var < 0 || t.var >= problem.num_vars)
        return "constraint '" + c.tag + "' references variable x" +
               std::to_string(t.var) + " out of range";
    const Rat lhs = eval_terms(c.terms, values);
    const bool ok = c.sense == Sense::Le   ? lhs <= c.rhs
                    : c.sense == Sense::Ge ? lhs >= c.rhs
                                           : lhs == c.rhs;
    if (!ok) return describe(c, lhs);
  }
  const Rat recomputed = eval_terms(problem.objective, values);
  if (recomputed != objective)
    return "objective mismatch: assignment evaluates to " +
           recomputed.to_string() + ", solver claimed " + objective.to_string();
  return {};
}

}  // namespace vc::ilp
