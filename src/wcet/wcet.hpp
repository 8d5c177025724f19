// The static WCET analyzer facade (the aiT stand-in of the reproduction).
//
// Phases, mirroring Gebhard et al.'s description of aiT in the same
// proceedings, in two stages:
//   - flow facts (FlowFacts): decode + CFG reconstruction (cfg.hpp), value
//     analysis (value_analysis.hpp), and loop bound analysis (annotations +
//     automatic derivation of canonical counted loops). They depend on
//     neither the cache configuration nor the path engine, so a job computes
//     them once and shares them between the runtime monitor's spec and every
//     bound it asks for;
//   - timing and path analysis (analyze_wcet over FlowFacts): cache analysis
//     (cache.hpp), per-block pipeline timing via the shared IssueModel, and
//     the structural longest-path fold over the loop nest and/or IPET.
//
// Soundness contract (enforced by property tests against the simulator):
// for every input, analyze_wcet(...).wcet_cycles >= observed cycles.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mach/program.hpp"
#include "mach/timing.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cfg.hpp"
#include "wcet/ipet.hpp"
#include "wcet/value_analysis.hpp"

namespace vc::wcet {

/// Which path-analysis backend computes the bound. Structural is the
/// longest-path engine over the collapsed loop nest; Ipet phrases the same
/// question as an ILP over edge frequencies (ipet.hpp) and can exploit
/// infeasible-edge facts; Both runs the two independently and records each
/// bound plus the tightness delta (the N-version cross-check).
enum class WcetEngine { Structural, Ipet, Both };

/// Canonical engine names, indexed by WcetEngine. The single source of
/// truth for CLI parsing, report JSON, and bench footers (the kConfigNames
/// pattern).
inline constexpr const char* kWcetEngineNames[] = {"structural", "ipet",
                                                   "both"};

[[nodiscard]] inline std::string to_string(WcetEngine engine) {
  return kWcetEngineNames[static_cast<int>(engine)];
}

struct WcetOptions {
  /// Consult the image's annotation table (§3.4 flow). Disabling this is the
  /// ablation of bench_annotations.
  bool use_annotations = true;
  /// Run the cache must/persistence analysis. When disabled every access is
  /// charged as a miss (the "no cache analysis" ablation).
  bool cache_analysis = true;
  /// Path-analysis backend(s) to run.
  WcetEngine engine = WcetEngine::Structural;
};

struct LoopBoundInfo {
  std::uint32_t header_addr = 0;
  std::int64_t bound = 0;
  bool from_annotation = false;
  bool derived = false;  // automatically derived from the loop's exit test
};

struct WcetResult {
  /// The bound of the selected engine (the IPET bound when it ran — it is
  /// never looser than structural on systems both can express).
  std::uint64_t wcet_cycles = 0;
  /// The structural engine's bound; set unless engine == Ipet.
  std::optional<std::uint64_t> structural_cycles;
  /// The IPET engine's result; set unless engine == Structural.
  std::optional<IpetInfo> ipet;
  std::vector<LoopBoundInfo> loops;
  std::vector<std::string> warnings;
  /// Diagnostic: per-block base costs (by block start address).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> block_costs;
};

/// How far a FlowFacts value is computed; each depth includes the ones
/// before it. A job computes only the depth its next consumer needs, so
/// every error surfaces in the phase that first needs the failing fact.
enum class FlowDepth {
  None,
  /// The code range and the reconstructed CFG (a Cfg-mode monitor spec).
  Cfg,
  /// Plus the annotation index, the value analysis, and one bound per
  /// natural loop; a loop without any bound throws WcetError here. This is
  /// what both path engines consume.
  Bounds,
  /// Plus the structural fold's schedule (FoldSchedule), whose construction
  /// throws the "cycle in collapsed region graph" WcetError on irreducible
  /// flow. A Full-mode monitor spec requires it, so irreducible code fails
  /// before execution.
  Reducible,
};

/// One region of the structural fold: the whole function, or one natural
/// loop's body, with its immediate inner loops collapsed into their
/// headers. It holds the nodes the region's source reaches, in topological
/// order (the source first).
struct FoldRegion {
  std::vector<int> nodes;  // a block id, or a collapsed loop's header
  std::vector<int> inner;  // per node: the collapsed loop's index, or -1
  /// Successor node indices: node i's are succs[succ_begin[i]] up to
  /// succs[succ_begin[i + 1]].
  std::vector<int> succ_begin;
  std::vector<int> succs;
  /// Loop regions: per latch and per exit edge, the node whose distance
  /// counts for it (-1: none, distance 0).
  std::vector<int> latches;
  std::vector<int> exits;
};

/// The structural fold's schedule over the loop nest. It depends only on
/// the CFG, so it is computed once and evaluated under any costs.
struct FoldSchedule {
  /// regions[0] is the function; regions[l + 1] is loop l, filled when the
  /// fold reaches that loop.
  std::vector<FoldRegion> regions;
};

/// The flow facts of one function of one image: the first stage of the
/// analyzer.
struct FlowFacts {
  FlowFacts() = default;
  FlowFacts(std::string fn_name, bool annotations)
      : function(std::move(fn_name)), use_annotations(annotations) {}

  std::string function;
  /// Whether the image's annotation table is consulted (§3.4 flow).
  bool use_annotations = true;
  FlowDepth depth = FlowDepth::None;
  /// Depth Cfg: the function's code range [lo, hi) and its CFG.
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  Cfg cfg;
  /// Depth Bounds: the annotation index (empty without annotations), the
  /// value analysis, the loop bounds (index-aligned with cfg.loops), and the
  /// annotation warnings.
  AnnotIndex annots;
  ValueAnalysisResult values;
  std::vector<LoopBoundInfo> loops;
  std::vector<std::string> warnings;
  /// Depth Reducible: the structural fold's schedule.
  FoldSchedule fold;
};

/// Computes the flow facts of `fn_name` up to `depth`. Throws
/// UnknownFunctionError, CompileError (malformed code) or WcetError
/// (unbounded loop, irreducible flow) at the first depth that hits one.
FlowFacts flow_facts(const mach::Image& image, const std::string& fn_name,
                     FlowDepth depth, bool use_annotations = true);

/// Extends `facts`, computed from `image`, to `depth`; depths already
/// computed are kept as they are.
void deepen_flow_facts(const mach::Image& image, FlowDepth depth,
                       FlowFacts* facts);

/// The timing and path stage over shared flow facts (at least depth Bounds,
/// computed from `image` with options.use_annotations): cache analysis (or
/// the all-miss ablation), block costs and persistence charges, then the
/// selected path engine(s).
WcetResult analyze_wcet(const mach::Image& image, const FlowFacts& facts,
                        const WcetOptions& options = {});

/// Both stages for one function: flow_facts to depth Bounds, then the
/// timing and path stage.
WcetResult analyze_wcet(const mach::Image& image, const std::string& fn_name,
                        const WcetOptions& options = {});

}  // namespace vc::wcet
