// SCADE-like block-diagram model: the specification formalism of the paper's
// flight control software (§2.1). A *node* is a directed graph of *symbol*
// instances (the "symbol library": arithmetic, filters, delays, saturations,
// lookup tables, …) with typed wires; the qualified code generator (acg.hpp)
// turns each node into one mini-C step function built from fixed per-symbol
// statement patterns.
//
// Construction discipline: blocks reference earlier blocks only, so graphs
// are acyclic by construction; feedback is expressed through stateful blocks
// (UnitDelay / Filter / Integrator / RateLimiter), whose input may be
// connected *after* creation (`connect_feedback`), reading the previous
// cycle's value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace vc::dataflow {

enum class SymbolKind {
  // Sources
  InputF,      // node input (f64); param: input index
  InputI,      // node input (i32); param: input index
  ConstF,      // f64 constant; param: value
  ConstI,      // i32 constant; param: value
  IoAcquire,   // hardware signal acquisition stand-in: polls an I/O word a
               // fixed number of times (param: poll count), returns f64

  // Pure f64 arithmetic
  Add, Sub, Mul,
  DivSafe,     // x / y with the denominator biased away from zero:
               // y' = fabs(y) + param (param > 0)
  Gain,        // param * x
  Bias,        // x + param
  Abs, Neg,
  Min, Max,
  Saturate,    // clamp(x, param_lo, param_hi)
  Deadzone,    // |x| <= param ? 0 : x

  // Comparisons / logic (i32 booleans)
  CmpGt,       // x > y
  CmpLt,       // x < y
  LogicAnd, LogicOr, LogicNot,
  Switch,      // cond ? x : y (cond i32; x,y f64)

  // Stateful symbols (one state cell or array per instance)
  UnitDelay,        // y = state; state' = x
  FirstOrderLag,    // y = state' = a*x + (1-a)*state; param: a in (0,1]
  Integrator,       // state' = clamp(state + x*dt, lo, hi); y = state'
                    // params: dt, lo, hi
  RateLimiter,      // y = state' = state + clamp(x - state, -down, up)
                    // params: up, down
  MovingAverage,    // y = mean of the last W samples; param: W (2..16);
                    // state: ring buffer + index (generates a loop)
  Biquad,           // direct-form-II-transposed second-order section;
                    // params: b0, b1, b2, a1, a2; states: s1, s2
  Hysteresis,       // i32 output: 1 above `hi`, 0 below `lo`, held between;
                    // params: lo < hi; state: held value
  Debounce,         // i32 output: 1 once the i32 input has been nonzero for
                    // N consecutive cycles; param: N (1..32); state: counter
  Lookup1D,         // piecewise-linear table over [x0, x1], equidistant
                    // breakpoints; params: x0, x1; table: N values

  // Sink
  Output,      // param: output index; writes global <node>_out<k>
};

std::string to_string(SymbolKind kind);

/// Wire type of a symbol's output.
enum class WireType { F64, I32, None };
WireType output_type(SymbolKind kind);

using BlockId = std::uint32_t;
constexpr BlockId kNoBlock = 0xFFFFFFFF;

struct Block {
  SymbolKind kind{};
  std::vector<BlockId> inputs;   // earlier blocks (or kNoBlock placeholders)
  std::vector<double> params;
  std::vector<double> table;     // Lookup1D breakpoint values
};

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }
  [[nodiscard]] int output_count() const { return output_count_; }

  /// Adds a block whose inputs must already exist. Returns its id.
  BlockId add(SymbolKind kind, std::vector<BlockId> inputs = {},
              std::vector<double> params = {}, std::vector<double> table = {});

  /// Connects the (single) input of a stateful block after creation; the
  /// source may be any block (this is how feedback loops are closed).
  void connect_feedback(BlockId delay_block, BlockId source);

  /// Structural checks: arity, wire types, params in range, every feedback
  /// input connected, output indices dense. Throws CompileError.
  void validate() const;

  /// Declared input wire type of input pin `pin` of `kind`.
  static WireType input_type(SymbolKind kind, std::size_t pin);
  /// Number of input pins of `kind`.
  static std::size_t arity(SymbolKind kind);

 private:
  std::string name_;
  std::vector<Block> blocks_;
  int input_count_ = 0;
  int int_input_count_ = 0;
  int output_count_ = 0;
};

}  // namespace vc::dataflow
