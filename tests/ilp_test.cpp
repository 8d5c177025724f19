// The exact-rational LP/ILP solver that backs the IPET WCET engine, with a
// focus on its edge lanes: infeasible systems, unbounded objectives,
// degenerate pivoting (Bland anti-cycling), rational overflow, branch and
// bound on known small ILPs, the independent certificate verifier's
// rejection of corrupted assignments, and the int64 pivot kernel's parity
// with the rational reference tableau (ilp_reference_tableau.hpp).
#include <gtest/gtest.h>

#include "ilp/rational.hpp"
#include "ilp/solver.hpp"
#include "ilp_reference_tableau.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace vc::ilp {
namespace {

Constraint cons(std::vector<LinTerm> terms, Sense sense, Rat rhs,
                std::string tag = {}) {
  Constraint c;
  c.terms = std::move(terms);
  c.sense = sense;
  c.rhs = rhs;
  c.tag = std::move(tag);
  return c;
}

// -------------------------------------------------------------------- Rat

TEST(RatTest, ArithmeticIsExact) {
  const Rat third = Rat::fraction(1, 3);
  const Rat sixth = Rat::fraction(1, 6);
  EXPECT_EQ(third + sixth, Rat::fraction(1, 2));
  EXPECT_EQ(third - sixth, sixth);
  EXPECT_EQ(third * Rat(6), Rat(2));
  EXPECT_EQ(Rat(1) / Rat(3), third);
  EXPECT_EQ((-third).to_string(), "-1/3");
}

TEST(RatTest, NormalizesSignAndGcd) {
  EXPECT_EQ(Rat::fraction(2, -4), Rat::fraction(-1, 2));
  EXPECT_EQ(Rat::fraction(-6, -9), Rat::fraction(2, 3));
  EXPECT_EQ(Rat::fraction(0, -7), Rat(0));
  EXPECT_TRUE(Rat::fraction(8, 4).is_integer());
}

TEST(RatTest, FloorCeilOnNegatives) {
  EXPECT_EQ(Rat::fraction(7, 2).floor(), 3);
  EXPECT_EQ(Rat::fraction(7, 2).ceil(), 4);
  EXPECT_EQ(Rat::fraction(-7, 2).floor(), -4);
  EXPECT_EQ(Rat::fraction(-7, 2).ceil(), -3);
  EXPECT_EQ(Rat(5).floor(), 5);
  EXPECT_EQ(Rat(5).ceil(), 5);
}

TEST(RatTest, ComparisonsCrossMultiply) {
  EXPECT_LT(Rat::fraction(1, 3), Rat::fraction(1, 2));
  EXPECT_LT(Rat::fraction(-1, 2), Rat::fraction(-1, 3));
  EXPECT_LE(Rat::fraction(2, 4), Rat::fraction(1, 2));
  EXPECT_GT(Rat(1), Rat::fraction(999999, 1000000));
}

TEST(RatTest, OverflowIsDetectedNotWrapped) {
  const Rat big = Rat(INT64_MAX / 2);
  EXPECT_THROW((void)(big * Rat(4)), InternalError);
  EXPECT_THROW((void)(big + big + big), InternalError);
  // Denominator blowup: 1/p + 1/q with coprime p, q near 2^32 exceeds the
  // int64 denominator budget even though each operand is representable.
  const Rat a = Rat::fraction(1, (1LL << 31) - 1);  // Mersenne prime 2^31-1
  const Rat b = Rat::fraction(1, (1LL << 33) + 1);
  EXPECT_THROW((void)(a + b), InternalError);
  EXPECT_THROW((void)-Rat(INT64_MIN), InternalError);
}

TEST(RatTest, DivisionByZeroIsAnError) {
  EXPECT_THROW((void)(Rat(1) / Rat(0)), InternalError);
  EXPECT_THROW((void)Rat::fraction(1, 0), InternalError);
}

// --------------------------------------------------------------- simplex

TEST(SimplexTest, SolvesTextbookMaximum) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  → x=2, y=6, obj=36.
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(3)}, {1, Rat(5)}};
  p.constraints = {
      cons({{0, Rat(1)}}, Sense::Le, Rat(4), "x-cap"),
      cons({{1, Rat(2)}}, Sense::Le, Rat(12), "y-cap"),
      cons({{0, Rat(3)}, {1, Rat(2)}}, Sense::Le, Rat(18), "mix"),
  };
  const Solution s = solve_lp(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(36));
  EXPECT_EQ(s.values[0], Rat(2));
  EXPECT_EQ(s.values[1], Rat(6));
  EXPECT_TRUE(check_certificate(p, s.values, s.objective).empty());
}

TEST(SimplexTest, HandlesEqualityAndGeRows) {
  // max x + y  s.t. x + y = 10, x >= 3, y <= 4  → x=6, y=4 (any split works
  // for the objective; the equality pins the optimum at 10).
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {
      cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Eq, Rat(10), "sum"),
      cons({{0, Rat(1)}}, Sense::Ge, Rat(3), "x-min"),
      cons({{1, Rat(1)}}, Sense::Le, Rat(4), "y-cap"),
  };
  const Solution s = solve_lp(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(10));
  EXPECT_TRUE(check_certificate(p, s.values, s.objective).empty());
}

TEST(SimplexTest, NegativeRhsRowsAreNormalized) {
  // -x <= -5 is x >= 5 in disguise; exercises the sign-flip path.
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(-1)}};  // maximize -x → minimize x
  p.constraints = {cons({{0, Rat(-1)}}, Sense::Le, Rat(-5), "neg-rhs")};
  const Solution s = solve_lp(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.values[0], Rat(5));
  EXPECT_EQ(s.objective, Rat(-5));
}

TEST(SimplexTest, DetectsInfeasibleSystem) {
  // x <= 2 and x >= 5 cannot both hold.
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(1)}};
  p.constraints = {
      cons({{0, Rat(1)}}, Sense::Le, Rat(2), "cap"),
      cons({{0, Rat(1)}}, Sense::Ge, Rat(5), "floor"),
  };
  EXPECT_EQ(solve_lp(p).status, Status::Infeasible);
  p.integer = true;
  EXPECT_EQ(solve(p).status, Status::Infeasible);
}

TEST(SimplexTest, DetectsUnboundedObjective) {
  // max x + y with only y capped: x grows without limit.
  Problem p;
  p.num_vars = 2;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {cons({{1, Rat(1)}}, Sense::Le, Rat(3), "y-cap")};
  EXPECT_EQ(solve_lp(p).status, Status::Unbounded);
  p.integer = true;
  EXPECT_EQ(solve(p).status, Status::Unbounded);
}

TEST(SimplexTest, BlandRuleEscapesDegenerateCycling) {
  // Beale's classic cycling example: with Dantzig's most-negative rule a
  // simplex loops forever on these degenerate pivots; Bland's rule must
  // terminate at the optimum (objective 1/20 at x3 = 1, minimization form).
  // Stated as: min -3/4 x0 + 150 x1 - 1/50 x2 + 6 x3  (we maximize the
  // negation) subject to two degenerate rows and x2 <= ... (see Beale 1955 /
  // Chvátal ch. 3).
  Problem p;
  p.num_vars = 4;
  p.objective = {{0, Rat::fraction(3, 4)},
                 {1, Rat(-150)},
                 {2, Rat::fraction(1, 50)},
                 {3, Rat(-6)}};
  p.constraints = {
      cons({{0, Rat::fraction(1, 4)},
            {1, Rat(-60)},
            {2, Rat::fraction(-1, 25)},
            {3, Rat(9)}},
           Sense::Le, Rat(0), "r0"),
      cons({{0, Rat::fraction(1, 2)},
            {1, Rat(-90)},
            {2, Rat::fraction(-1, 50)},
            {3, Rat(3)}},
           Sense::Le, Rat(0), "r1"),
      cons({{2, Rat(1)}}, Sense::Le, Rat(1), "r2"),
  };
  const Solution s = solve_lp(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat::fraction(1, 20));
  EXPECT_LT(s.pivots, 50);  // terminates promptly, no cycling
  EXPECT_TRUE(check_certificate(p, s.values, s.objective).empty());
}

TEST(SimplexTest, EmptyProblemIsTriviallyOptimal) {
  Problem p;
  const Solution s = solve_lp(p);
  EXPECT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(0));
}

// ------------------------------------------------------- branch and bound

TEST(BranchAndBoundTest, RoundsAwayFractionalLpOptimum) {
  // max x + y s.t. 2x + 3y <= 12, 2x + y <= 6.5. LP optimum is fractional;
  // the best integral point is (1, 3) with objective 4.
  Problem p;
  p.num_vars = 2;
  p.integer = true;
  p.objective = {{0, Rat(1)}, {1, Rat(1)}};
  p.constraints = {
      cons({{0, Rat(2)}, {1, Rat(3)}}, Sense::Le, Rat(12), "a"),
      cons({{0, Rat(2)}, {1, Rat(1)}}, Sense::Le, Rat::fraction(13, 2), "b"),
  };
  const Solution relaxed = solve_lp(p);
  ASSERT_EQ(relaxed.status, Status::Optimal);
  EXPECT_FALSE(relaxed.values[0].is_integer() &&
               relaxed.values[1].is_integer());
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(4));
  EXPECT_TRUE(s.values[0].is_integer());
  EXPECT_TRUE(s.values[1].is_integer());
  EXPECT_GT(s.bnb_nodes, 1);
  EXPECT_TRUE(check_certificate(p, s.values, s.objective).empty());
  // (2, 2) and (0, 4) score 4 too; depth-first floor-first search lands on
  // (1, 3). Reusing the root relaxation as node 1 keeps that optimum.
  EXPECT_EQ(s.values[0], Rat(1));
  EXPECT_EQ(s.values[1], Rat(3));
}

TEST(BranchAndBoundTest, IntegralRootRelaxationIsSolvedOnce) {
  // An IPET-shaped system whose relaxation is already integral: a loop
  // header x0 entered once, its body x1 bounded by 10 per entry.
  Problem p;
  p.num_vars = 2;
  p.integer = true;
  p.objective = {{0, Rat(3)}, {1, Rat(7)}};
  p.constraints = {
      cons({{0, Rat(1)}}, Sense::Eq, Rat(1), "entry"),
      cons({{1, Rat(1)}, {0, Rat(-10)}}, Sense::Le, Rat(0), "loop"),
  };
  const Solution relaxed = solve_lp(p);
  ASSERT_EQ(relaxed.status, Status::Optimal);
  ASSERT_GT(relaxed.pivots, 0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(73));
  EXPECT_EQ(s.values, relaxed.values);
  // Node 1 is the root relaxation itself: no second LP solve.
  EXPECT_EQ(s.pivots, relaxed.pivots);
  EXPECT_EQ(s.bnb_nodes, 1);
}

TEST(BranchAndBoundTest, KnapsackOptimum) {
  // 0/1 knapsack: values {10, 13, 7}, weights {3, 4, 2}, capacity 6.
  // Optimum picks items 1 and 3: value 20 (the greedy-by-density LP answer
  // is fractional).
  Problem p;
  p.num_vars = 3;
  p.integer = true;
  p.objective = {{0, Rat(10)}, {1, Rat(13)}, {2, Rat(7)}};
  p.constraints = {
      cons({{0, Rat(3)}, {1, Rat(4)}, {2, Rat(2)}}, Sense::Le, Rat(6), "w"),
      cons({{0, Rat(1)}}, Sense::Le, Rat(1), "x0<=1"),
      cons({{1, Rat(1)}}, Sense::Le, Rat(1), "x1<=1"),
      cons({{2, Rat(1)}}, Sense::Le, Rat(1), "x2<=1"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.objective, Rat(20));
  EXPECT_EQ(s.values[0], Rat(0));
  EXPECT_EQ(s.values[1], Rat(1));
  EXPECT_EQ(s.values[2], Rat(1));
}

// ------------------------------------------------------------ certificate

TEST(CertificateTest, AcceptsExactSolutionRejectsAnyMutation) {
  Problem p;
  p.num_vars = 3;
  p.integer = true;
  p.objective = {{0, Rat(4)}, {1, Rat(3)}, {2, Rat(2)}};
  p.constraints = {
      cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Le, Rat(7), "ab"),
      cons({{1, Rat(1)}, {2, Rat(1)}}, Sense::Eq, Rat(5), "bc"),
      cons({{0, Rat(1)}}, Sense::Ge, Rat(1), "a-min"),
  };
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  ASSERT_TRUE(check_certificate(p, s.values, s.objective).empty());

  // Seeded single-variable mutations: every perturbed assignment must be
  // rejected (each variable is pinned by at least one tight row here, and
  // the objective recomputation catches anything the rows miss).
  Rng rng(20260807);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<Rat> mutated = s.values;
    const std::size_t victim = rng.next_below(mutated.size());
    const std::int64_t delta =
        1 + static_cast<std::int64_t>(rng.next_below(5));
    mutated[victim] += (trial % 2 == 0) ? Rat(delta) : Rat(-delta);
    EXPECT_FALSE(check_certificate(p, mutated, s.objective).empty())
        << "mutation of x" << victim << " by " << delta << " was accepted";
  }
}

TEST(CertificateTest, RejectsWrongObjectiveClaim) {
  Problem p;
  p.num_vars = 1;
  p.objective = {{0, Rat(2)}};
  p.constraints = {cons({{0, Rat(1)}}, Sense::Le, Rat(3), "cap")};
  const Solution s = solve_lp(p);
  ASSERT_EQ(s.status, Status::Optimal);
  const std::string err = check_certificate(p, s.values, s.objective + Rat(1));
  EXPECT_NE(err.find("objective mismatch"), std::string::npos) << err;
}

TEST(CertificateTest, RejectsSizeAndSignErrors) {
  Problem p;
  p.num_vars = 2;
  p.integer = true;
  EXPECT_FALSE(check_certificate(p, {Rat(1)}, Rat(0)).empty());
  EXPECT_NE(check_certificate(p, {Rat(-1), Rat(0)}, Rat(0)).find("negative"),
            std::string::npos);
  EXPECT_NE(check_certificate(p, {Rat::fraction(1, 2), Rat(0)}, Rat(0))
                .find("fractional"),
            std::string::npos);
}

TEST(CertificateTest, NamesTheViolatedConstraintTag) {
  Problem p;
  p.num_vars = 1;
  p.constraints = {cons({{0, Rat(1)}}, Sense::Le, Rat(2), "loop@0x40")};
  const std::string err = check_certificate(p, {Rat(9)}, Rat(0));
  EXPECT_NE(err.find("loop@0x40"), std::string::npos) << err;
}

// ----------------------------------------------------- pivot-kernel parity
//
// The int64 pivot kernel and the rational reference tableau
// (ilp_reference_tableau.hpp) follow the same Bland rule over the same exact
// values, so on any problem where the kernel fits they must return
// bit-identical solutions — same status, same objective, same assignment,
// same pivot/node counts.

/// The kernel and the rational reference agree exactly on `p`.
void expect_kernels_agree(const Problem& p, const char* label) {
  SCOPED_TRACE(label);
  const Solution rational = reference::rational_solve(p);
  const Solution fast = solve(p);
  EXPECT_EQ(fast.status, rational.status);
  EXPECT_EQ(fast.objective, rational.objective);
  ASSERT_EQ(fast.values.size(), rational.values.size());
  for (std::size_t i = 0; i < rational.values.size(); ++i)
    EXPECT_EQ(fast.values[i], rational.values[i]) << "x" << i;
  EXPECT_EQ(fast.pivots, rational.pivots);
  EXPECT_EQ(fast.bnb_nodes, rational.bnb_nodes);
  if (rational.status == Status::Optimal) {
    EXPECT_TRUE(
        check_certificate(p, rational.values, rational.objective).empty());
  }
}

TEST(KernelParityTest, AgreesOnEveryHandWrittenLane) {
  // The same problem shapes the solver lanes above exercise: textbook
  // maximum, equality/>= rows (phase-1 artificials), negative rhs
  // normalization, infeasible, unbounded, degenerate Bland cycling, a
  // fractional LP optimum driven through branch and bound, and a knapsack.
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(3)}, {1, Rat(5)}};
    p.constraints = {
        cons({{0, Rat(1)}}, Sense::Le, Rat(4), "x<=4"),
        cons({{1, Rat(2)}}, Sense::Le, Rat(12), "2y<=12"),
        cons({{0, Rat(3)}, {1, Rat(2)}}, Sense::Le, Rat(18), "mix"),
    };
    expect_kernels_agree(p, "textbook-max");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(2)}, {1, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Eq, Rat(4), "eq"),
        cons({{0, Rat(1)}}, Sense::Ge, Rat(1), "ge"),
        cons({{1, Rat(1)}}, Sense::Le, Rat(3), "le"),
    };
    expect_kernels_agree(p, "eq-and-ge");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(1)}, {1, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(-1)}, {1, Rat(-1)}}, Sense::Le, Rat(-2), "neg-rhs"),
        cons({{0, Rat(1)}, {1, Rat(1)}}, Sense::Le, Rat(10), "cap"),
    };
    expect_kernels_agree(p, "negative-rhs");
  }
  {
    Problem p;
    p.num_vars = 1;
    p.objective = {{0, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(1)}}, Sense::Ge, Rat(5), "lo"),
        cons({{0, Rat(1)}}, Sense::Le, Rat(3), "hi"),
    };
    expect_kernels_agree(p, "infeasible");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.objective = {{0, Rat(1)}, {1, Rat(1)}};
    p.constraints = {cons({{0, Rat(1)}, {1, Rat(-1)}}, Sense::Le, Rat(1),
                          "one-sided")};
    expect_kernels_agree(p, "unbounded");
  }
  {
    // Beale's cycling example — fractional coefficients, so the fast lane
    // exercises its per-row denominator handling, and Bland's rule its
    // anti-cycling guarantee.
    Problem p;
    p.num_vars = 4;
    p.objective = {{0, Rat::fraction(3, 4)},
                   {1, Rat(-150)},
                   {2, Rat::fraction(1, 50)},
                   {3, Rat(-6)}};
    p.constraints = {
        cons({{0, Rat::fraction(1, 4)},
              {1, Rat(-60)},
              {2, Rat::fraction(-1, 25)},
              {3, Rat(9)}},
             Sense::Le, Rat(0), "r0"),
        cons({{0, Rat::fraction(1, 2)},
              {1, Rat(-90)},
              {2, Rat::fraction(-1, 50)},
              {3, Rat(3)}},
             Sense::Le, Rat(0), "r1"),
        cons({{2, Rat(1)}}, Sense::Le, Rat(1), "r2"),
    };
    expect_kernels_agree(p, "beale-degenerate");
  }
  {
    Problem p;
    p.num_vars = 2;
    p.integer = true;
    p.objective = {{0, Rat(1)}, {1, Rat(1)}};
    p.constraints = {
        cons({{0, Rat(2)}, {1, Rat(3)}}, Sense::Le, Rat(12), "a"),
        cons({{0, Rat(2)}, {1, Rat(1)}}, Sense::Le, Rat::fraction(13, 2),
             "b"),
    };
    expect_kernels_agree(p, "fractional-bnb");
  }
  {
    Problem p;
    p.num_vars = 3;
    p.integer = true;
    p.objective = {{0, Rat(10)}, {1, Rat(13)}, {2, Rat(7)}};
    p.constraints = {
        cons({{0, Rat(3)}, {1, Rat(4)}, {2, Rat(2)}}, Sense::Le, Rat(6),
             "w"),
        cons({{0, Rat(1)}}, Sense::Le, Rat(1), "x0<=1"),
        cons({{1, Rat(1)}}, Sense::Le, Rat(1), "x1<=1"),
        cons({{2, Rat(1)}}, Sense::Le, Rat(1), "x2<=1"),
    };
    expect_kernels_agree(p, "knapsack");
  }
}

TEST(KernelParityTest, AgreesOnSeededRandomProblems) {
  // 48 seeded random problems over small fractional coefficients and mixed
  // senses — enough variety to hit phase-1, degenerate, infeasible, and
  // unbounded paths in both lanes. Integer trials are generated so x = 0 is
  // always feasible and every variable is explicitly bounded: the solver
  // treats "feasible relaxation but no integral point" as an internal error
  // (IPET systems always contain one), so parity trials must stay inside
  // that contract.
  Rng rng(0xF1A7C0DE);
  for (int trial = 0; trial < 48; ++trial) {
    Problem p;
    p.num_vars = static_cast<int>(2 + rng.next_below(4));
    p.integer = rng.next_below(2) == 0;
    for (int v = 0; v < p.num_vars; ++v)
      p.objective.push_back(
          {v, Rat::fraction(rng.next_range(-5, 6),
                            1 + static_cast<std::int64_t>(
                                    rng.next_below(3)))});
    const std::size_t rows = 2 + rng.next_below(4);
    for (std::size_t r = 0; r < rows; ++r) {
      Constraint c;
      for (int v = 0; v < p.num_vars; ++v) {
        const std::int64_t num = p.integer ? rng.next_range(0, 6)
                                           : rng.next_range(-4, 6);
        if (num != 0) c.terms.push_back({v, Rat(num)});
      }
      if (c.terms.empty()) c.terms.push_back({0, Rat(1)});
      const std::uint64_t pick = p.integer ? 3 : rng.next_below(4);
      c.sense = pick == 0 ? Sense::Ge : pick == 1 ? Sense::Eq : Sense::Le;
      c.rhs = Rat(p.integer ? rng.next_range(0, 20)
                            : rng.next_range(-8, 20));
      c.tag = "r" + std::to_string(r);
      p.constraints.push_back(std::move(c));
    }
    if (p.integer)
      for (int v = 0; v < p.num_vars; ++v)
        p.constraints.push_back(cons({{v, Rat(1)}}, Sense::Le,
                                     Rat(rng.next_range(0, 8)),
                                     "bound-x" + std::to_string(v)));
    expect_kernels_agree(p, ("seeded-trial-" + std::to_string(trial)).c_str());
  }
}

/// A seeded structured CFG lowered the way analyze_ipet lowers one: a
/// variable per edge (virtual entry edge 0 into block 0, one virtual exit
/// edge), `entry = 1`, a conservation row per block, `k·back <= bound·entry`
/// per loop, and `= 0` pins on a few branch edges.
class IpetShapedSystem {
 public:
  IpetShapedSystem(Rng* rng, int target_blocks, bool mixed)
      : rng_(*rng), mixed_(mixed), target_blocks_(target_blocks) {
    int cur = new_block();
    add_edge(-1, cur);  // virtual entry
    while (blocks_ < target_blocks_) cur = grow(cur, 0);
    add_edge(cur, -1);  // virtual exit
  }

  [[nodiscard]] Problem lower() const {
    Problem p;
    p.num_vars = static_cast<int>(edges_.size());
    p.integer = true;
    for (std::size_t v = 0; v < edges_.size(); ++v)
      if (edges_[v].second >= 0)
        p.objective.push_back(
            {static_cast<int>(v), Rat(cost_[static_cast<std::size_t>(
                                      edges_[v].second)])});
    p.constraints.push_back(cons({{0, Rat(1)}}, Sense::Eq, Rat(1), "entry"));
    for (int b = 0; b < blocks_; ++b) {
      Constraint c;
      for (std::size_t v = 0; v < edges_.size(); ++v) {
        const int var = static_cast<int>(v);
        if (edges_[v].second == b) c.terms.push_back({var, Rat(1)});
        if (edges_[v].first == b) c.terms.push_back({var, Rat(-1)});
      }
      c.sense = Sense::Eq;
      c.rhs = Rat(0);
      c.tag = "flow b" + std::to_string(b);
      p.constraints.push_back(std::move(c));
    }
    for (const LoopRow& l : loops_)
      p.constraints.push_back(cons({{l.back, Rat(l.back_coeff)},
                                    {l.entry, Rat(-l.bound)}},
                                   Sense::Le, Rat(0), "loop"));
    for (const int v : pins_)
      p.constraints.push_back(cons({{v, Rat(1)}}, Sense::Eq, Rat(0),
                                   "infeasible"));
    return p;
  }

 private:
  struct LoopRow {
    int entry;
    int back;
    std::int64_t bound;
    std::int64_t back_coeff;
  };

  [[nodiscard]] bool full() const { return blocks_ >= target_blocks_; }
  int new_block() {
    cost_.push_back(rng_.next_range(1, 40));
    return blocks_++;
  }
  int add_edge(int from, int to) {
    edges_.emplace_back(from, to);
    return static_cast<int>(edges_.size()) - 1;
  }

  /// Appends one construct after block `cur`; returns the block it ends in.
  int grow(int cur, int depth) {
    const std::uint64_t pick = rng_.next_below(depth < 3 ? 3 : 2);
    if (pick == 0) {  // straight-line block
      const int next = new_block();
      add_edge(cur, next);
      return next;
    }
    if (pick == 1) {  // if/else diamond; each arm may be pinned infeasible
      int then_end = new_block();
      const int then_edge = add_edge(cur, then_end);
      const int else_block = new_block();
      const int else_edge = add_edge(cur, else_block);
      for (std::uint64_t n = rng_.next_below(3); n > 0 && !full(); --n)
        then_end = grow(then_end, depth + 1);
      const int join = new_block();
      add_edge(then_end, join);
      add_edge(else_block, join);
      if (rng_.next_below(6) == 0)
        pins_.push_back(rng_.next_below(2) == 0 ? then_edge : else_edge);
      return join;
    }
    // Bounded loop: header, a body of 1-3 constructs, one back edge.
    const int header = new_block();
    const int entry = add_edge(cur, header);
    int latch = new_block();
    add_edge(header, latch);
    for (std::uint64_t n = 1 + rng_.next_below(3); n > 0 && !full(); --n)
      latch = grow(latch, depth + 1);
    const int back = add_edge(latch, header);
    const int exit = new_block();
    add_edge(header, exit);
    const std::int64_t coeff =
        mixed_ && rng_.next_below(3) == 0 ? rng_.next_range(2, 3) : 1;
    loops_.push_back({entry, back, rng_.next_range(1, 16), coeff});
    return exit;
  }

  Rng& rng_;
  bool mixed_;
  int target_blocks_;
  int blocks_ = 0;
  std::vector<std::int64_t> cost_;
  std::vector<std::pair<int, int>> edges_;  // (from, to); -1 = virtual
  std::vector<LoopRow> loops_;
  std::vector<int> pins_;
};

TEST(KernelParityTest, AgreesOnIpetShapedSystems) {
  // The large, sparse tableaux the IPET lowering builds: 55-163 rows of
  // mostly ±1 flow conservation, where the fast lane's integral-row update
  // touches only the pivot row's nonzero columns. Odd trials put a
  // coefficient of 2 or 3 on some loop back edges, so fractional pivot rows
  // meet integral rows in one solve and both update paths run.
  Rng rng(0x1BE7F10F);
  for (int trial = 0; trial < 16; ++trial) {
    const int blocks = static_cast<int>(rng.next_range(36, 140));
    const Problem p = IpetShapedSystem(&rng, blocks, trial % 2 == 1).lower();
    expect_kernels_agree(p, ("ipet-trial-" + std::to_string(trial)).c_str());
  }
}

TEST(KernelParityTest, OverflowFailsLoudlyWhereTheReferenceSolves) {
  // One row whose coefficient denominators are eight large primes: each Rat
  // cell is tiny (1/p), so the rational reference is comfortable, but the
  // kernel stores rows over a single shared denominator — the lcm, here the
  // product of the primes, ~9.7e23 — which cannot fit the int64 budget. The
  // kernel must refuse with an InternalError naming itself instead of
  // wrapping or rounding.
  const std::int64_t primes[] = {947, 953, 967, 971, 977, 983, 991, 997};
  Problem p;
  p.num_vars = 9;
  // Only x8 carries objective weight; the prime row constrains x0..x7,
  // which stay nonbasic at zero, so the reference never pivots on it and
  // its per-cell fractions stay tiny. The kernel, however, scales the whole
  // row to its lcm denominator at build time and must fail.
  p.objective = {{8, Rat(1)}};
  Constraint mixed;
  for (int v = 0; v < 8; ++v)
    mixed.terms.push_back({v, Rat::fraction(1, primes[v])});
  mixed.sense = Sense::Le;
  mixed.rhs = Rat(1);
  mixed.tag = "prime-row";
  p.constraints.push_back(std::move(mixed));
  p.constraints.push_back(cons({{8, Rat(1)}}, Sense::Le, Rat(2), "cap-x8"));

  const Solution rational = reference::rational_solve_lp(p);
  ASSERT_EQ(rational.status, Status::Optimal);
  EXPECT_EQ(rational.objective, Rat(2));  // cap-x8 binds; prime row slack
  try {
    (void)solve_lp(p);
    ADD_FAILURE() << "solve_lp returned on a row outside the int64 budget";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("int64 pivot kernel"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace vc::ilp
