// Compiler fuzzing: randomly generated well-typed mini-C programs (a wider
// space than the ACG emits: nested control flow, integer bit-twiddling,
// masked dynamic array indexing, conversions, guarded divisions) are
// compiled under every configuration and cross-checked against the
// interpreter over stateful call sequences, including trap parity. A
// seeded byte-mutation lane feeds ill-formed source to the front end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "minic/printer.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/rng.hpp"
#include "validate/validate.hpp"

namespace vc {
namespace {

using minic::BinOp;
using minic::ExprPtr;
using minic::StmtPtr;
using minic::Type;
using minic::UnOp;

class ProgramFuzzer {
 public:
  explicit ProgramFuzzer(std::uint64_t seed) : rng_(seed) {}

  minic::Program generate() {
    minic::Program program;
    program.name = "fuzz";
    // A few globals: two scalars per type and one power-of-two array.
    program.globals.push_back({"gf0", Type::F64, 1, {1.5}});
    program.globals.push_back({"gf1", Type::F64, 1, {-0.25}});
    program.globals.push_back({"gi0", Type::I32, 1, {3}});
    program.globals.push_back({"garr", Type::F64, 8,
                               {0, 1, 2, 3, 4, 5, 6, 7}});

    minic::Function fn;
    fn.name = "fuzzed";
    fn.has_return = true;
    fn.return_type = Type::F64;
    fn.params.push_back({"pf0", Type::F64});
    fn.params.push_back({"pf1", Type::F64});
    fn.params.push_back({"pi0", Type::I32});
    fn.locals.push_back({"lf0", Type::F64});
    fn.locals.push_back({"lf1", Type::F64});
    fn.locals.push_back({"li0", Type::I32});
    fn.locals.push_back({"li1", Type::I32});
    fn.locals.push_back({"loop0", Type::I32});
    fn.locals.push_back({"loop1", Type::I32});

    fn.body = gen_block(3);
    fn.body.push_back(minic::return_stmt(gen_f64(3)));
    program.functions.push_back(std::move(fn));
    minic::type_check(program);
    return program;
  }

 private:
  const char* f64_vars_[4] = {"pf0", "pf1", "lf0", "lf1"};
  const char* i32_vars_[3] = {"pi0", "li0", "li1"};

  ExprPtr gen_f64(int depth) {
    if (depth <= 0 || rng_.next_bool(0.3)) {
      switch (rng_.next_below(4)) {
        case 0: return minic::float_lit(rng_.next_double(-16.0, 16.0));
        case 1:
          return minic::local_ref(f64_vars_[rng_.next_below(4)], Type::F64);
        case 2:
          return minic::global_ref(rng_.next_bool() ? "gf0" : "gf1",
                                   Type::F64);
        default:
          // garr[i32 & 7]: always in bounds.
          return minic::index_ref(
              "garr",
              minic::binary(BinOp::IAnd, gen_i32(depth - 1),
                            minic::int_lit(7)),
              Type::F64);
      }
    }
    switch (rng_.next_below(8)) {
      case 0:
        return minic::binary(BinOp::FAdd, gen_f64(depth - 1),
                             gen_f64(depth - 1));
      case 1:
        return minic::binary(BinOp::FSub, gen_f64(depth - 1),
                             gen_f64(depth - 1));
      case 2:
        return minic::binary(BinOp::FMul, gen_f64(depth - 1),
                             gen_f64(depth - 1));
      case 3:
        // Guarded division: |d| + 0.5 keeps it away from zero.
        return minic::binary(
            BinOp::FDiv, gen_f64(depth - 1),
            minic::binary(BinOp::FAdd,
                          minic::unary(UnOp::FAbs, gen_f64(depth - 1)),
                          minic::float_lit(0.5)));
      case 4:
        return minic::binary(rng_.next_bool() ? BinOp::FMin : BinOp::FMax,
                             gen_f64(depth - 1), gen_f64(depth - 1));
      case 5:
        return minic::unary(rng_.next_bool() ? UnOp::FNeg : UnOp::FAbs,
                            gen_f64(depth - 1));
      case 6:
        return minic::unary(UnOp::I2F, gen_i32(depth - 1));
      default:
        return minic::select(gen_bool(depth - 1), gen_f64(depth - 1),
                             gen_f64(depth - 1));
    }
  }

  ExprPtr gen_i32(int depth) {
    if (depth <= 0 || rng_.next_bool(0.3)) {
      switch (rng_.next_below(3)) {
        case 0:
          return minic::int_lit(
              static_cast<std::int32_t>(rng_.next_range(-64, 64)));
        case 1:
          return minic::local_ref(i32_vars_[rng_.next_below(3)], Type::I32);
        default:
          return minic::global_ref("gi0", Type::I32);
      }
    }
    switch (rng_.next_below(8)) {
      case 0:
        return minic::binary(BinOp::IAdd, gen_i32(depth - 1),
                             gen_i32(depth - 1));
      case 1:
        return minic::binary(BinOp::ISub, gen_i32(depth - 1),
                             gen_i32(depth - 1));
      case 2:
        return minic::binary(BinOp::IMul, gen_i32(depth - 1),
                             gen_i32(depth - 1));
      case 3:
        // Guarded integer division: denominator (d & 15) + 1 in [1, 16].
        return minic::binary(
            rng_.next_bool() ? BinOp::IDiv : BinOp::IRem, gen_i32(depth - 1),
            minic::binary(BinOp::IAdd,
                          minic::binary(BinOp::IAnd, gen_i32(depth - 1),
                                        minic::int_lit(15)),
                          minic::int_lit(1)));
      case 4: {
        const BinOp ops[] = {BinOp::IAnd, BinOp::IOr, BinOp::IXor};
        return minic::binary(ops[rng_.next_below(3)], gen_i32(depth - 1),
                             gen_i32(depth - 1));
      }
      case 5:
        return minic::binary(rng_.next_bool() ? BinOp::IShl : BinOp::IShr,
                             gen_i32(depth - 1), gen_i32(depth - 1));
      case 6:
        return minic::unary(rng_.next_bool() ? UnOp::INeg : UnOp::INot,
                            gen_i32(depth - 1));
      default:
        return minic::unary(UnOp::F2I,
                            minic::binary(BinOp::FMin,
                                          minic::binary(BinOp::FMax,
                                                        gen_f64(depth - 1),
                                                        minic::float_lit(-1e6)),
                                          minic::float_lit(1e6)));
    }
  }

  ExprPtr gen_bool(int depth) {
    const bool use_float = rng_.next_bool();
    if (use_float) {
      const BinOp ops[] = {BinOp::FCmpEq, BinOp::FCmpNe, BinOp::FCmpLt,
                           BinOp::FCmpLe, BinOp::FCmpGt, BinOp::FCmpGe};
      return minic::binary(ops[rng_.next_below(6)], gen_f64(depth - 1),
                           gen_f64(depth - 1));
    }
    const BinOp ops[] = {BinOp::ICmpEq, BinOp::ICmpNe, BinOp::ICmpLt,
                         BinOp::ICmpLe, BinOp::ICmpGt, BinOp::ICmpGe};
    return minic::binary(ops[rng_.next_below(6)], gen_i32(depth - 1),
                         gen_i32(depth - 1));
  }

  std::vector<StmtPtr> gen_block(int depth) {
    std::vector<StmtPtr> block;
    const int n = static_cast<int>(rng_.next_range(2, 5));
    for (int i = 0; i < n; ++i) block.push_back(gen_stmt(depth));
    return block;
  }

  StmtPtr gen_stmt(int depth) {
    const double roll = rng_.next_unit();
    if (depth <= 0 || roll < 0.5) {
      // Assignment to a random lvalue.
      switch (rng_.next_below(5)) {
        case 0:
          return minic::assign_local(f64_vars_[2 + rng_.next_below(2)],
                                     gen_f64(2));
        case 1:
          return minic::assign_local(i32_vars_[1 + rng_.next_below(2)],
                                     gen_i32(2));
        case 2:
          return minic::assign_global(rng_.next_bool() ? "gf0" : "gf1",
                                      gen_f64(2));
        case 3:
          return minic::assign_global("gi0", gen_i32(2));
        default:
          return minic::assign_element(
              "garr",
              minic::binary(BinOp::IAnd, gen_i32(1), minic::int_lit(7)),
              gen_f64(2));
      }
    }
    if (roll < 0.8) {
      return minic::if_stmt(gen_bool(2), gen_block(depth - 1),
                            rng_.next_bool() ? gen_block(depth - 1)
                                             : std::vector<StmtPtr>{});
    }
    // Canonical counted loop with a constant bound (auto-annotated). Pick a
    // loop variable that no enclosing loop is using (MISRA 13.6 rule).
    std::string var;
    for (const char* candidate : {"loop0", "loop1"}) {
      if (active_loops_.count(candidate) == 0) {
        var = candidate;
        break;
      }
    }
    if (var.empty())
      return minic::assign_local("lf0", gen_f64(2));  // both counters busy
    active_loops_.insert(var);
    StmtPtr loop = minic::for_stmt(
        var, minic::int_lit(0),
        minic::int_lit(static_cast<std::int32_t>(rng_.next_range(1, 6))),
        gen_block(depth - 1));
    active_loops_.erase(var);
    return loop;
  }

  Rng rng_;
  std::set<std::string> active_loops_;
};

class CompilerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompilerFuzz, AllConfigsMatchInterpreter) {
  const std::uint64_t seed = GetParam();
  for (int variant = 0; variant < 6; ++variant) {
    ProgramFuzzer fuzzer(seed * 1000 + static_cast<std::uint64_t>(variant));
    const minic::Program program = fuzzer.generate();
    for (driver::Config config : driver::kAllConfigs) {
      const driver::Compiled compiled =
          driver::compile_program(program, config);
      const auto result = validate::cross_check_machine(
          program, compiled, "fuzzed", 10, seed ^ 0xF00D);
      ASSERT_TRUE(result.ok)
          << "seed " << seed << " variant " << variant << " config "
          << driver::to_string(config) << ": " << result.message << "\n"
          << minic::print_program(program);
    }
  }
}

TEST_P(CompilerFuzz, FuzzedProgramsRoundTripThroughThePrinter) {
  // The parser canonicalizes (it folds negated literals), so a directly
  // built AST may print differently once; after one parse the fixed point
  // must be reached: print(parse(text)) == print(parse(print(parse(text)))).
  ProgramFuzzer fuzzer(GetParam() ^ 0xABCD);
  const minic::Program program = fuzzer.generate();
  const std::string text0 = minic::print_program(program);
  const minic::Program p1 = minic::parse_program(text0);
  minic::type_check(p1);
  const std::string text1 = minic::print_program(p1);
  const minic::Program p2 = minic::parse_program(text1);
  minic::type_check(p2);
  EXPECT_EQ(minic::print_program(p2), text1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

// ------------------------------------------------------------ byte mutants

/// The example programs and a few fuzzed programs' printed text: the
/// sources the mutation lane corrupts.
std::vector<std::string> mutation_corpus() {
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(VCFLIGHT_EXAMPLES_DIR))
    if (entry.path().extension() == ".mc") examples.push_back(entry.path());
  std::sort(examples.begin(), examples.end());
  std::vector<std::string> corpus;
  for (const std::filesystem::path& path : examples) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(text.str());
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    corpus.push_back(minic::print_program(ProgramFuzzer(seed).generate()));
  return corpus;
}

/// `text` with 1-4 single-byte replacements, deletions or insertions. Half
/// the new bytes are mini-C punctuation, digits, letters or whitespace (so
/// mutants get past the lexer and reach the parser and type checker); the
/// rest are any byte at all.
std::string mutate(std::string text, Rng& rng) {
  constexpr std::string_view kSyntax =
      "(){}[];,=+-*/%<>!&|^~.0123456789 \nfiorw_elxy";
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    const char byte = rng.next_bool()
                          ? kSyntax[rng.next_below(kSyntax.size())]
                          : static_cast<char>(rng.next_below(256));
    const std::size_t at = rng.next_below(text.size() + 1);
    const std::uint64_t kind = at == text.size() ? 2 : rng.next_below(3);
    if (kind == 0)
      text[at] = byte;
    else if (kind == 1)
      text.erase(at, 1);
    else
      text.insert(at, 1, byte);
  }
  return text;
}

// Ill-formed source must end in a CompileError: never an InternalError, a
// ValidationError or a leaked library exception. A mutant that parses and
// type-checks must compile under every configuration and target tried.
TEST(ByteMutationFuzz, MutantsCompileOrRaiseCompileError) {
  constexpr int kMutantsPerSource = 500;
  const std::vector<std::string> corpus = mutation_corpus();
  ASSERT_GE(corpus.size(), 6u);
  Rng rng(0x6D757461);
  int compiled = 0;
  int rejected = 0;
  for (std::size_t source = 0; source < corpus.size(); ++source)
    for (int m = 0; m < kMutantsPerSource; ++m) {
      const std::string text = mutate(corpus[source], rng);
      for (driver::Config config : {driver::Config::O0Pattern,
                                    driver::Config::Verified,
                                    driver::Config::O2Full})
        for (const char* target : {"ppc", "rv32"}) {
          try {
            minic::Program program = minic::parse_program(text, "mutant");
            minic::type_check(program);
            driver::CompileOptions options;
            options.target = target;
            (void)driver::compile_program(program, config, options);
            ++compiled;
          } catch (const CompileError&) {
            ++rejected;
          } catch (const std::exception& e) {
            FAIL() << "source " << source << " mutant " << m << " config "
                   << driver::to_string(config) << " target " << target
                   << ": " << e.what() << "\n"
                   << text;
          }
        }
    }
  // Both outcomes occur, so the lane reaches past the lexer.
  EXPECT_GT(compiled, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace vc
