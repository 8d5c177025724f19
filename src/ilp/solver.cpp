// Two-phase dense tableau simplex with Bland's rule for anti-cycling and
// depth-first branch-and-bound for integrality, on one exact pivot kernel
// (`Tableau64`). Rows live in one flat row-major int64 numerator array with
// a single denominator per row. A row update has two cases. When the pivot
// row and the touched row are both integral (denominator 1), it is one
// 128-bit multiply-subtract per nonzero column of the pivot row, listed once
// per pivot: the dense update would start its gcd at 1 and never run it, and
// would leave every column where the pivot row is zero unchanged, so
// skipping those columns writes the same numbers. Otherwise it is two
// 128-bit multiplies and a subtract per cell followed by one gcd
// normalization pass — no per-cell gcd, no per-cell allocation. IPET
// tableaux are flow conservation plus a few loop rows: on the perfbench
// suite no row turns fractional and a pivot row has ~6% nonzero columns, so
// the integral case is all the work there is. Tableau buffers are the
// solver's thread_local scratch, reused across branch-and-bound nodes and
// across fleet jobs.
//
// A reduced value that no longer fits int64 is an InternalError ("ilp:
// int64 pivot kernel overflow"), never a wrapped or rounded cell. The
// per-cell rational tableau this kernel replaced is kept as the reference
// of the parity tests (tests/ilp_reference_tableau.hpp): both follow the
// same Bland rule over the same exact values, so they take identical pivot
// sequences and return bit-identical solutions.
//
// Untrusted by design: callers must pass the result through
// check_certificate (verify.cpp) before believing it. Pivot and node
// budgets turn pathological instances into InternalError instead of hangs.
#include "ilp/solver.hpp"

#include <algorithm>

namespace vc::ilp {
namespace {

// Far above anything the IPET systems need (they solve in tens of pivots);
// a hit means a malformed system or a solver bug, not a big input.
constexpr std::int64_t kMaxPivots = 200000;
constexpr std::int64_t kMaxBnbNodes = 20000;

/// Narrows a reduced value to a tableau cell. The lazy-message check keeps
/// the passing path inline in the row updates.
std::int64_t fit64(__int128 v) {
  check(v <= INT64_MAX && v >= INT64_MIN,
        [] { return "ilp: int64 pivot kernel overflow"; });
  return static_cast<std::int64_t>(v);
}

__int128 gcd128(__int128 a, __int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const __int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Reusable tableau buffers, one set per thread: branch-and-bound re-solves
/// an LP per node and the fleet runs thousands of IPET systems per worker,
/// so the flat arrays are assigned into instead of reallocated.
struct SolveScratch {
  std::vector<std::int64_t> cells;  // m x width numerators, row-major
  std::vector<std::int64_t> den;    // per-row denominator, always > 0
  std::vector<std::int64_t> obj;    // objective-row numerators
  std::vector<int> basis;
  std::vector<std::uint8_t> artificial;
  std::vector<__int128> wide;       // row-update intermediates
  std::vector<std::size_t> nz;      // nonzero columns of the pivot row
};

SolveScratch& thread_scratch() {
  thread_local SolveScratch scratch;
  return scratch;
}

/// Dense simplex tableau over int64 numerators with one denominator per row.
/// Column layout: [structural | slack/artificial] plus one rhs column; the
/// objective row stores reduced costs with its rhs cell holding the negated
/// objective value.
class Tableau64 {
 public:
  Tableau64(const Problem& problem, std::int64_t* pivot_budget,
            SolveScratch* s)
      : n_struct_(problem.num_vars), pivot_budget_(pivot_budget), s_(*s) {
    build(problem);
  }

  Status solve(const Problem& problem, std::vector<Rat>* values,
               Rat* objective) {
    if (!artificial_empty_) {
      if (!run_phase1()) return Status::Infeasible;
    }
    set_phase2_objective(problem);
    if (!run_simplex()) return Status::Unbounded;
    // -obj_rhs / obj_den, negated without Rat::operator- so the only
    // failure mode here is the kernel's own overflow check (fraction()
    // cannot throw on already-reduced int64 inputs).
    const std::int64_t neg = fit64(-static_cast<__int128>(s_.obj[rhs_col()]));
    *objective = Rat::fraction(neg, obj_den_);
    values->assign(static_cast<std::size_t>(n_struct_), Rat(0));
    for (std::size_t i = 0; i < m_; ++i)
      if (s_.basis[i] < n_struct_)
        (*values)[static_cast<std::size_t>(s_.basis[i])] =
            Rat::fraction(cell(i, rhs_col()), s_.den[i]);
    return Status::Optimal;
  }

 private:
  [[nodiscard]] std::size_t rhs_col() const {
    return static_cast<std::size_t>(width_ - 1);
  }
  [[nodiscard]] std::int64_t& cell(std::size_t row, std::size_t col) {
    return s_.cells[row * static_cast<std::size_t>(width_) + col];
  }

  void build(const Problem& problem) {
    const int m = static_cast<int>(problem.constraints.size());
    int n_total = n_struct_;
    std::vector<int> slack_col(static_cast<std::size_t>(m), -1);
    for (int i = 0; i < m; ++i)
      if (problem.constraints[static_cast<std::size_t>(i)].sense != Sense::Eq)
        slack_col[static_cast<std::size_t>(i)] = n_total++;
    std::vector<int> artif_col(static_cast<std::size_t>(m), -1);
    for (int i = 0; i < m; ++i) {
      const Constraint& c = problem.constraints[static_cast<std::size_t>(i)];
      // Le rows with rhs >= 0 start feasible on their slack; everything else
      // needs an artificial. Decide after sign normalization.
      const bool flip = c.rhs < Rat(0);
      Sense sense = c.sense;
      if (flip && sense == Sense::Le) sense = Sense::Ge;
      else if (flip && sense == Sense::Ge) sense = Sense::Le;
      if (sense != Sense::Le) artif_col[static_cast<std::size_t>(i)] = n_total++;
    }
    width_ = n_total + 1;
    m_ = static_cast<std::size_t>(m);

    s_.artificial.assign(static_cast<std::size_t>(n_total), 0);
    s_.cells.assign(m_ * static_cast<std::size_t>(width_), 0);
    s_.den.assign(m_, 1);
    s_.basis.assign(m_, -1);

    for (int i = 0; i < m; ++i) {
      const Constraint& c = problem.constraints[static_cast<std::size_t>(i)];
      const auto row = static_cast<std::size_t>(i);
      // Accumulate terms over a running row denominator (lcm of the
      // coefficient denominators); coefficients are almost always integral,
      // so the rescale loop rarely runs.
      for (const LinTerm& t : c.terms) {
        check(t.var >= 0 && t.var < n_struct_,
              "ilp: constraint references variable out of range");
        add_into(row, static_cast<std::size_t>(t.var), t.coeff);
      }
      add_into(row, rhs_col(), c.rhs);
      const bool flip = c.rhs < Rat(0);
      Sense sense = c.sense;
      if (flip) {
        for (int j = 0; j < width_; ++j)
          cell(row, static_cast<std::size_t>(j)) =
              fit64(-static_cast<__int128>(cell(row, static_cast<std::size_t>(j))));
        if (sense == Sense::Le) sense = Sense::Ge;
        else if (sense == Sense::Ge) sense = Sense::Le;
      }
      const int sc = slack_col[row];
      if (sc >= 0)
        cell(row, static_cast<std::size_t>(sc)) =
            sense == Sense::Ge ? -s_.den[row] : s_.den[row];
      const int ac = artif_col[row];
      if (ac >= 0) {
        cell(row, static_cast<std::size_t>(ac)) = s_.den[row];
        s_.artificial[static_cast<std::size_t>(ac)] = 1;
        s_.basis[row] = ac;
      } else {
        s_.basis[row] = sc;  // Le row: slack is basic
      }
    }
    artificial_empty_ =
        std::none_of(s_.artificial.begin(), s_.artificial.end(),
                     [](std::uint8_t b) { return b != 0; });
    s_.wide.assign(static_cast<std::size_t>(width_), 0);
  }

  /// row[col] += r, rescaling the row to lcm(row_den, r.den()) first.
  void add_into(std::size_t row, std::size_t col, const Rat& r) {
    if (r.is_zero()) return;
    std::int64_t d = s_.den[row];
    if (r.den() != d) {
      const std::int64_t g = gcd64(d, r.den());
      const std::int64_t lcm =
          fit64(static_cast<__int128>(d) / g * r.den());
      if (lcm != d) {
        const std::int64_t scale = lcm / d;
        for (int j = 0; j < width_; ++j)
          cell(row, static_cast<std::size_t>(j)) = fit64(
              static_cast<__int128>(cell(row, static_cast<std::size_t>(j))) *
              scale);
        s_.den[row] = d = lcm;
      }
    }
    cell(row, col) =
        fit64(static_cast<__int128>(cell(row, col)) +
              static_cast<__int128>(r.num()) * (d / r.den()));
  }

  /// Phase 1: maximize -(sum of artificials).
  bool run_phase1() {
    s_.obj.assign(static_cast<std::size_t>(width_), 0);
    obj_den_ = 1;
    for (int j = 0; j < width_ - 1; ++j)
      if (s_.artificial[static_cast<std::size_t>(j)])
        s_.obj[static_cast<std::size_t>(j)] = -1;
    price_out_basis();
    check(run_simplex(), "ilp: phase-1 objective unbounded");  // impossible
    if (s_.obj[rhs_col()] > 0) return false;  // -obj_rhs < 0: infeasible
    eliminate_basic_artificials();
    return true;
  }

  /// Rebuilds the reduced-cost row so basic columns read zero.
  void price_out_basis() {
    for (std::size_t i = 0; i < m_; ++i) {
      const auto bj = static_cast<std::size_t>(s_.basis[i]);
      if (s_.obj[bj] == 0) continue;
      list_nonzeros(i);
      update_obj_row(i, bj);
    }
  }

  /// After a feasible phase 1, artificials still in the basis sit at zero.
  void eliminate_basic_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (!s_.artificial[static_cast<std::size_t>(s_.basis[i])]) continue;
      int pivot_col = -1;
      for (int j = 0; j < width_ - 1; ++j) {
        if (s_.artificial[static_cast<std::size_t>(j)]) continue;
        if (cell(i, static_cast<std::size_t>(j)) != 0) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col >= 0) {
        pivot(static_cast<int>(i), pivot_col);
      } else {
        // Row is zero across all real columns: a redundant constraint.
        // Flat storage: slide the tail rows up one slot.
        s_.cells.erase(
            s_.cells.begin() +
                static_cast<std::ptrdiff_t>(i * static_cast<std::size_t>(width_)),
            s_.cells.begin() + static_cast<std::ptrdiff_t>(
                                   (i + 1) * static_cast<std::size_t>(width_)));
        s_.den.erase(s_.den.begin() + static_cast<std::ptrdiff_t>(i));
        s_.basis.erase(s_.basis.begin() + static_cast<std::ptrdiff_t>(i));
        --m_;
        --i;
      }
    }
  }

  void set_phase2_objective(const Problem& problem) {
    s_.obj.assign(static_cast<std::size_t>(width_), 0);
    obj_den_ = 1;
    for (const LinTerm& t : problem.objective) {
      check(t.var >= 0 && t.var < n_struct_,
            "ilp: objective references variable out of range");
      obj_add_into(static_cast<std::size_t>(t.var), t.coeff);
    }
    price_out_basis();
  }

  void obj_add_into(std::size_t col, const Rat& r) {
    if (r.is_zero()) return;
    if (r.den() != obj_den_) {
      const std::int64_t g = gcd64(obj_den_, r.den());
      const std::int64_t lcm =
          fit64(static_cast<__int128>(obj_den_) / g * r.den());
      if (lcm != obj_den_) {
        const std::int64_t scale = lcm / obj_den_;
        for (std::int64_t& v : s_.obj)
          v = fit64(static_cast<__int128>(v) * scale);
        obj_den_ = lcm;
      }
    }
    s_.obj[col] = fit64(static_cast<__int128>(s_.obj[col]) +
                        static_cast<__int128>(r.num()) * (obj_den_ / r.den()));
  }

  /// Bland's rule simplex to optimality. Returns false on unboundedness.
  bool run_simplex() {
    for (;;) {
      // Entering: the lowest-index admissible column with positive reduced
      // cost (denominators are positive, so the sign of the numerator is the
      // sign of the value).
      int enter = -1;
      for (int j = 0; j < width_ - 1; ++j) {
        if (!artificial_empty_ && s_.artificial[static_cast<std::size_t>(j)])
          continue;  // artificial columns never re-enter once nonbasic
        if (s_.obj[static_cast<std::size_t>(j)] > 0) {
          enter = j;
          break;
        }
      }
      if (enter < 0) return true;  // optimal
      // Leaving: min ratio rhs/col over positive col entries, ties broken by
      // the lowest basis variable index. Within a row the shared denominator
      // cancels, so the ratio is rhs_num/col_num and comparisons are one
      // 128-bit cross multiplication.
      int leave = -1;
      std::int64_t best_rhs = 0;
      std::int64_t best_a = 1;
      for (std::size_t i = 0; i < m_; ++i) {
        const std::int64_t a = cell(i, static_cast<std::size_t>(enter));
        if (a <= 0) continue;
        const std::int64_t rhs = cell(i, rhs_col());
        if (leave >= 0) {
          const __int128 lhs = static_cast<__int128>(rhs) * best_a;
          const __int128 rhsx = static_cast<__int128>(best_rhs) * a;
          if (lhs > rhsx) continue;
          if (lhs == rhsx &&
              s_.basis[i] >= s_.basis[static_cast<std::size_t>(leave)])
            continue;
        }
        leave = static_cast<int>(i);
        best_rhs = rhs;
        best_a = a;
      }
      if (leave < 0) return false;  // column unbounded
      pivot(leave, enter);
    }
  }

  /// Divides row `i` (numerators + den) by the gcd of all its entries.
  void normalize_row(std::size_t i) {
    std::int64_t g = s_.den[i];
    for (int j = 0; j < width_ && g != 1; ++j)
      g = gcd64(g, cell(i, static_cast<std::size_t>(j)));
    if (g > 1) {
      for (int j = 0; j < width_; ++j)
        cell(i, static_cast<std::size_t>(j)) /= g;
      s_.den[i] /= g;
    }
  }

  /// Lists row `i`'s nonzero columns (rhs included) in s_.nz: the columns
  /// an integral update by that row can change.
  void list_nonzeros(std::size_t i) {
    s_.nz.clear();
    for (std::size_t j = 0; j < static_cast<std::size_t>(width_); ++j)
      if (cell(i, j) != 0) s_.nz.push_back(j);
  }

  /// Integral case of the row updates below (both denominators 1):
  /// row[j] -= f * prow[j] over the pivot row's nonzero columns only, which
  /// s_.nz must list. The dense pass computes the same values and leaves
  /// the other columns as they are.
  void update_integral(std::int64_t* row, std::int64_t f,
                       std::size_t pivot_row) {
    const std::int64_t* prow = &cell(pivot_row, 0);
    for (const std::size_t j : s_.nz)
      row[j] = fit64(static_cast<__int128>(row[j]) -
                     static_cast<__int128>(f) * prow[j]);
  }

  /// row_i -= (row_i[enter]/den_i) * prow, where prow has pivot column value
  /// exactly 1. One pass of 128-bit arithmetic, one gcd normalization.
  void update_row(std::size_t i, std::size_t pivot_row, int enter) {
    const std::int64_t f = cell(i, static_cast<std::size_t>(enter));
    if (f == 0) return;
    const std::int64_t pden = s_.den[pivot_row];
    if (pden == 1 && s_.den[i] == 1) {
      update_integral(&cell(i, 0), f, pivot_row);
      return;
    }
    __int128 den128 = static_cast<__int128>(s_.den[i]) * pden;
    __int128 g = den128;
    for (int j = 0; j < width_; ++j) {
      const __int128 v =
          static_cast<__int128>(cell(i, static_cast<std::size_t>(j))) * pden -
          static_cast<__int128>(f) *
              cell(pivot_row, static_cast<std::size_t>(j));
      s_.wide[static_cast<std::size_t>(j)] = v;
      if (g != 1 && v != 0) g = gcd128(g, v);
    }
    if (g > 1) den128 /= g;
    s_.den[i] = fit64(den128);
    for (int j = 0; j < width_; ++j)
      cell(i, static_cast<std::size_t>(j)) =
          fit64(g > 1 ? s_.wide[static_cast<std::size_t>(j)] / g
                      : s_.wide[static_cast<std::size_t>(j)]);
  }

  /// Same update for the objective row (its own denominator).
  void update_obj_row(std::size_t pivot_row, std::size_t enter) {
    const std::int64_t f = s_.obj[enter];
    if (f == 0) return;
    const std::int64_t pden = s_.den[pivot_row];
    if (pden == 1 && obj_den_ == 1) {
      update_integral(s_.obj.data(), f, pivot_row);
      return;
    }
    __int128 den128 = static_cast<__int128>(obj_den_) * pden;
    __int128 g = den128;
    for (int j = 0; j < width_; ++j) {
      const __int128 v =
          static_cast<__int128>(s_.obj[static_cast<std::size_t>(j)]) * pden -
          static_cast<__int128>(f) *
              cell(pivot_row, static_cast<std::size_t>(j));
      s_.wide[static_cast<std::size_t>(j)] = v;
      if (g != 1 && v != 0) g = gcd128(g, v);
    }
    if (g > 1) den128 /= g;
    obj_den_ = fit64(den128);
    for (int j = 0; j < width_; ++j)
      s_.obj[static_cast<std::size_t>(j)] =
          fit64(g > 1 ? s_.wide[static_cast<std::size_t>(j)] / g
                      : s_.wide[static_cast<std::size_t>(j)]);
  }

  void pivot(int leave, int enter) {
    check(++*pivot_budget_ <= kMaxPivots,
          "ilp: simplex pivot limit exceeded (possible cycling or malformed "
          "system)");
    const auto prow = static_cast<std::size_t>(leave);
    // Scale the pivot row so the pivot cell reads exactly 1: dividing
    // num_j/den by num_e/den leaves num_j/num_e — the old denominator
    // cancels, the new one is |num_e| (values only shrink, no overflow).
    const std::int64_t pe = cell(prow, static_cast<std::size_t>(enter));
    if (pe < 0) {
      for (int j = 0; j < width_; ++j)
        cell(prow, static_cast<std::size_t>(j)) = fit64(
            -static_cast<__int128>(cell(prow, static_cast<std::size_t>(j))));
    }
    s_.den[prow] = pe < 0 ? fit64(-static_cast<__int128>(pe)) : pe;
    normalize_row(prow);
    list_nonzeros(prow);
    for (std::size_t i = 0; i < m_; ++i)
      if (i != prow) update_row(i, prow, enter);
    update_obj_row(prow, static_cast<std::size_t>(enter));
    s_.basis[prow] = enter;
  }

 private:
  int n_struct_;
  int width_ = 0;  // total columns incl. rhs
  std::size_t m_ = 0;
  std::int64_t obj_den_ = 1;
  bool artificial_empty_ = true;
  std::int64_t* pivot_budget_;
  SolveScratch& s_;
};

Solution solve_lp_counted(const Problem& problem, std::int64_t* pivots) {
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
  Tableau64 tableau(problem, pivots, &thread_scratch());
  sol.status = tableau.solve(problem, &sol.values, &sol.objective);
  return sol;
}

/// Index of the first variable with a fractional value, or -1.
int first_fractional(const Solution& relax) {
  for (std::size_t j = 0; j < relax.values.size(); ++j)
    if (!relax.values[j].is_integer()) return static_cast<int>(j);
  return -1;
}

/// Depth-first branch and bound below a node whose LP relaxation `relax` is
/// already solved. Children extend `problem` in place with a bound
/// constraint, which is restored on unwind; `problem` is read only when
/// `relax` is fractional.
void branch(Problem* problem, Solution relax, Solution* best,
            std::int64_t* pivots, std::int64_t* nodes) {
  check(++*nodes <= kMaxBnbNodes, "ilp: branch-and-bound node limit exceeded");
  if (relax.status != Status::Optimal) return;  // pruned: infeasible subtree
  if (best->status == Status::Optimal && relax.objective <= best->objective)
    return;  // pruned: cannot beat the incumbent
  const int frac = first_fractional(relax);
  if (frac < 0) {
    *best = std::move(relax);  // integral and better than the incumbent
    return;
  }
  const Rat v = relax.values[static_cast<std::size_t>(frac)];
  Constraint bound;
  bound.terms = {{frac, Rat(1)}};
  bound.tag = "bnb";
  // x_frac <= floor(v) branch, then x_frac >= ceil(v).
  bound.sense = Sense::Le;
  bound.rhs = Rat(v.floor());
  problem->constraints.push_back(bound);
  branch(problem, solve_lp_counted(*problem, pivots), best, pivots, nodes);
  problem->constraints.back().sense = Sense::Ge;
  problem->constraints.back().rhs = Rat(v.ceil());
  branch(problem, solve_lp_counted(*problem, pivots), best, pivots, nodes);
  problem->constraints.pop_back();
}

}  // namespace

Solution solve_lp(const Problem& problem) {
  std::int64_t pivots = 0;
  Solution sol = solve_lp_counted(problem, &pivots);
  sol.pivots = pivots;
  sol.bnb_nodes = 1;
  return sol;
}

Solution solve(const Problem& problem) {
  if (!problem.integer) return solve_lp(problem);
  std::int64_t pivots = 0;
  // Root relaxation decides infeasible/unbounded up front; branching only
  // ever tightens, so those statuses are final.
  Solution root = solve_lp_counted(problem, &pivots);
  if (root.status != Status::Optimal) {
    root.pivots = pivots;
    root.bnb_nodes = 1;
    return root;
  }
  // The root relaxation is node 1 of the search, solved once. Bound rows
  // need a mutable copy of the problem, made only when the root is
  // fractional: IPET relaxations are almost always integral already.
  Solution best;  // status Infeasible until an integral point is found
  std::int64_t nodes = 0;
  Problem scratch;
  if (first_fractional(root) >= 0) scratch = problem;
  branch(&scratch, std::move(root), &best, &pivots, &nodes);
  check(best.status == Status::Optimal,
        "ilp: integer problem has a feasible relaxation but no integral "
        "point within the branch-and-bound budget");
  best.pivots = pivots;
  best.bnb_nodes = nodes;
  return best;
}

}  // namespace vc::ilp
