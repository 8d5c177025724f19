#include "wcet/cache.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>

namespace vc::wcet {
namespace {

/// One must-cache entry: `line` (in cache set `set`) is guaranteed cached
/// with an age of at most `age` (0-based).
struct MustLine {
  std::uint32_t set = 0;
  std::uint32_t line = 0;
  int age = 0;
};

bool key_less(const MustLine& a, const MustLine& b) {
  return a.set != b.set ? a.set < b.set : a.line < b.line;
}

/// Abstract must-cache, kept separately for the instruction (0) and data (1)
/// caches. Each space is a flat vector sorted by (set, line), so one set's
/// lines form a contiguous run of at most `ways` entries. A line is
/// guaranteed present iff it has an entry (age < ways by invariant).
struct MustState {
  bool reachable = false;
  std::vector<MustLine> lines[2];
};

/// The run [lo, hi) of `lines` that belongs to cache set `set`.
std::pair<std::size_t, std::size_t> set_run(const std::vector<MustLine>& lines,
                                            std::uint32_t set) {
  const auto lo = static_cast<std::size_t>(
      std::partition_point(lines.begin(), lines.end(),
                           [set](const MustLine& e) { return e.set < set; }) -
      lines.begin());
  std::size_t hi = lo;
  while (hi < lines.size() && lines[hi].set == set) ++hi;
  return {lo, hi};
}

/// dst := dst join src (intersection of the guaranteed lines, each at its
/// larger age), merged in place. Returns whether dst changed.
bool join_into(MustState* dst, const MustState& src) {
  if (!src.reachable) return false;
  if (!dst->reachable) {
    *dst = src;
    return true;
  }
  bool changed = false;
  for (int space = 0; space < 2; ++space) {
    std::vector<MustLine>& d = dst->lines[space];
    const std::vector<MustLine>& s = src.lines[space];
    std::size_t out = 0;
    std::size_t j = 0;
    for (const MustLine& e : d) {
      while (j < s.size() && key_less(s[j], e)) ++j;
      if (j == s.size() || key_less(e, s[j])) {
        changed = true;  // not guaranteed on the src path: dropped
        continue;
      }
      MustLine kept = e;
      if (s[j].age > kept.age) {
        kept.age = s[j].age;
        changed = true;
      }
      d[out++] = kept;
    }
    d.resize(out);
  }
  return changed;
}

/// One abstract access event: either a precise line or an imprecise range.
struct Event {
  bool is_data = false;
  bool precise = false;
  std::uint32_t line = 0;                 // precise
  std::uint32_t range_lo = 0, range_hi = 0;  // imprecise: line range
  int daccess_index = -1;                 // index into values.accesses
  int iline_index = -1;                   // index into result ilines[block]
};

class CacheAnalyzer {
 public:
  CacheAnalyzer(const Cfg& cfg, const ValueAnalysisResult& values,
                const mach::CacheConfig& icfg, const mach::CacheConfig& dcfg)
      : cfg_(cfg), values_(values), icfg_(icfg), dcfg_(dcfg) {}

  CacheAnalysisResult run() {
    build_events();
    fixpoint();
    classify();
    persistence();
    return std::move(result_);
  }

 private:
  void build_events() {
    const std::size_t n = cfg_.blocks.size();
    result_.ilines.assign(n, {});
    result_.daccess.assign(values_.accesses.size(), AccessClass{});
    events_.assign(n, {});

    // Index data accesses by (block, instr index).
    std::map<std::pair<int, int>, int> daccess_at;
    for (std::size_t i = 0; i < values_.accesses.size(); ++i)
      daccess_at[{values_.accesses[i].block, values_.accesses[i].index}] =
          static_cast<int>(i);

    for (std::size_t b = 0; b < n; ++b) {
      const MachineBlock& bb = cfg_.blocks[b];
      std::uint32_t prev_line = 0xFFFFFFFF;
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        const std::uint32_t addr = bb.start + static_cast<std::uint32_t>(i) * 4;
        const std::uint32_t line = icfg_.line_addr(addr);
        if (line != prev_line) {
          prev_line = line;
          Event ev;
          ev.is_data = false;
          ev.precise = true;
          ev.line = line;
          ev.iline_index = static_cast<int>(result_.ilines[b].size());
          ILineEvent ie;
          ie.line_addr = line;
          ie.first_instr = static_cast<int>(i);
          result_.ilines[b].push_back(ie);
          events_[b].push_back(ev);
        }
        auto it = daccess_at.find({static_cast<int>(b), static_cast<int>(i)});
        if (it != daccess_at.end()) {
          const MemAccess& acc = values_.accesses[static_cast<std::size_t>(it->second)];
          Event ev;
          ev.is_data = true;
          ev.daccess_index = it->second;
          if (auto c = acc.address.as_constant()) {
            ev.precise = true;
            ev.line = dcfg_.line_addr(static_cast<std::uint32_t>(*c));
          } else {
            ev.precise = false;
            ev.range_lo = dcfg_.line_addr(static_cast<std::uint32_t>(
                std::max<std::int64_t>(acc.address.lo(), 0)));
            ev.range_hi = dcfg_.line_addr(static_cast<std::uint32_t>(
                std::min<std::int64_t>(acc.address.hi(), 0xFFFFFFFFll)));
          }
          events_[b].push_back(ev);
        }
      }
    }
  }

  void transfer_event(const Event& ev, MustState* s) const {
    const mach::CacheConfig& cfg = ev.is_data ? dcfg_ : icfg_;
    std::vector<MustLine>& lines = s->lines[ev.is_data ? 1 : 0];
    const int ways = static_cast<int>(cfg.ways);
    const auto evicted = [ways](const MustLine& e) { return e.age >= ways; };
    if (ev.precise) {
      const std::uint32_t set = cfg.set_of(ev.line);
      auto [lo, hi] = set_run(lines, set);
      std::size_t pos = lo;
      while (pos < hi && lines[pos].line < ev.line) ++pos;
      const bool present = pos < hi && lines[pos].line == ev.line;
      const int old_age = present ? lines[pos].age : ways;
      // Lines in the same set younger than the accessed line age by one.
      for (std::size_t i = lo; i < hi; ++i)
        if (lines[i].age < old_age) ++lines[i].age;
      if (present) {
        lines[pos].age = 0;
      } else {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pos),
                     MustLine{set, ev.line, 0});
        ++hi;
      }
      // Evict lines whose age reached the associativity.
      const auto first = lines.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto last = lines.begin() + static_cast<std::ptrdiff_t>(hi);
      lines.erase(std::remove_if(first, last, evicted), last);
    } else {
      // Imprecise access: every possibly-touched set ages by one. The range
      // covers `span` consecutive lines, hence the cyclic run of `span` sets
      // starting at the set of its first line (every set once span >= sets).
      const std::uint64_t span =
          (static_cast<std::uint64_t>(ev.range_hi) - ev.range_lo) /
              cfg.line_bytes +
          1;
      const std::uint32_t first_set = cfg.set_of(ev.range_lo);
      const auto touched = [&](std::uint32_t set) {
        return span >= cfg.sets ||
               (set + cfg.sets - first_set) % cfg.sets < span;
      };
      for (MustLine& e : lines)
        if (touched(e.set)) ++e.age;
      lines.erase(std::remove_if(lines.begin(), lines.end(), evicted),
                  lines.end());
    }
  }

  /// Must analysis to its least fixpoint on a worklist, lowest block first.
  /// The transfer and the join are monotone over a finite lattice, so every
  /// iteration order reaches the same least fixpoint, and with it the same
  /// classifications.
  void fixpoint() {
    const std::size_t n = cfg_.blocks.size();
    in_.assign(n, MustState{});
    in_[0].reachable = true;

    std::priority_queue<int, std::vector<int>, std::greater<>> work;
    std::vector<std::uint8_t> queued(n, 0);
    work.push(0);
    queued[0] = 1;
    MustState s;
    while (!work.empty()) {
      const int b = work.top();
      work.pop();
      queued[static_cast<std::size_t>(b)] = 0;
      s = in_[static_cast<std::size_t>(b)];
      for (const Event& ev : events_[static_cast<std::size_t>(b)])
        transfer_event(ev, &s);
      for (int succ : cfg_.blocks[static_cast<std::size_t>(b)].succs) {
        const auto su = static_cast<std::size_t>(succ);
        if (join_into(&in_[su], s) && queued[su] == 0) {
          queued[su] = 1;
          work.push(succ);
        }
      }
    }
  }

  /// True if the must state guarantees the precisely-addressed line of `ev`.
  bool guaranteed(const Event& ev, const MustState& s) const {
    if (!ev.precise) return false;
    const mach::CacheConfig& cfg = ev.is_data ? dcfg_ : icfg_;
    const std::vector<MustLine>& lines = s.lines[ev.is_data ? 1 : 0];
    const auto [lo, hi] = set_run(lines, cfg.set_of(ev.line));
    for (std::size_t i = lo; i < hi; ++i)
      if (lines[i].line == ev.line) return true;
    return false;
  }

  void classify() {
    MustState s;
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      if (!in_[b].reachable) continue;
      s = in_[b];
      for (const Event& ev : events_[b]) {
        AccessClass cls;
        cls.cls = guaranteed(ev, s) ? CacheClass::AlwaysHit : CacheClass::Miss;
        if (ev.is_data)
          result_.daccess[static_cast<std::size_t>(ev.daccess_index)] = cls;
        else
          result_.ilines[b][static_cast<std::size_t>(ev.iline_index)].cls = cls;
        transfer_event(ev, &s);
      }
    }
  }

  /// The loop-nest path of block b, innermost first, ending with -1
  /// (function scope).
  [[nodiscard]] std::vector<int> scopes_of(int b) const {
    std::vector<int> out;
    int l = cfg_.loop_of[static_cast<std::size_t>(b)];
    while (l != -1) {
      out.push_back(l);
      l = cfg_.loops[static_cast<std::size_t>(l)].parent;
    }
    out.push_back(-1);
    return out;
  }

  /// All blocks belonging to scope (loop index or -1 = whole function).
  [[nodiscard]] std::vector<int> blocks_of_scope(int scope) const {
    if (scope == -1) {
      std::vector<int> all(cfg_.blocks.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
      return all;
    }
    return cfg_.loops[static_cast<std::size_t>(scope)].blocks;
  }

  void persistence() {
    // Precompute, per scope, the per-set line population and pollution.
    // Scope ids: -1 (function) and every loop index.
    std::vector<int> scopes{-1};
    for (std::size_t i = 0; i < cfg_.loops.size(); ++i)
      scopes.push_back(static_cast<int>(i));

    struct ScopeInfo {
      // Per cache-space (0 = instruction, 1 = data): set -> distinct lines.
      std::map<std::uint32_t, std::set<std::uint32_t>> lines[2];
      std::set<std::uint32_t> polluted[2];
      bool fully_polluted[2] = {false, false};
    };
    std::map<int, ScopeInfo> info;

    for (int scope : scopes) {
      ScopeInfo& si = info[scope];
      for (int b : blocks_of_scope(scope)) {
        for (const Event& ev : events_[static_cast<std::size_t>(b)]) {
          const mach::CacheConfig& cfg = ev.is_data ? dcfg_ : icfg_;
          const int space = ev.is_data ? 1 : 0;
          if (ev.precise) {
            si.lines[space][cfg.set_of(ev.line)].insert(ev.line);
          } else {
            const std::uint64_t span =
                (static_cast<std::uint64_t>(ev.range_hi) - ev.range_lo) /
                    cfg.line_bytes +
                1;
            if (span >= cfg.sets) {
              si.fully_polluted[space] = true;
            } else {
              for (std::uint32_t line = ev.range_lo; line <= ev.range_hi;
                   line += cfg.line_bytes) {
                si.polluted[space].insert(cfg.set_of(line));
                si.lines[space][cfg.set_of(line)].insert(line);
              }
            }
          }
        }
      }
    }

    auto persistent_in = [&](int scope, bool is_data, std::uint32_t line) {
      const mach::CacheConfig& cfg = is_data ? dcfg_ : icfg_;
      const int space = is_data ? 1 : 0;
      const ScopeInfo& si = info.at(scope);
      if (si.fully_polluted[space]) return false;
      const std::uint32_t set = cfg.set_of(line);
      if (si.polluted[space].count(set) != 0) return false;
      auto it = si.lines[space].find(set);
      const std::size_t population = it == si.lines[space].end()
                                         ? 0
                                         : it->second.size();
      return population <= cfg.ways;
    };

    // Upgrade Miss classifications to Persistent at the outermost fitting
    // scope along the access's loop-nest path.
    auto upgrade = [&](int block, bool is_data, std::uint32_t line,
                       AccessClass* cls) {
      if (cls->cls != CacheClass::Miss) return;
      const std::vector<int> path = scopes_of(block);
      // path is innermost-first; search outermost-first.
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        if (persistent_in(*it, is_data, line)) {
          cls->cls = CacheClass::Persistent;
          cls->scope = *it;
          return;
        }
      }
    };

    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      for (const Event& ev : events_[b]) {
        if (!ev.precise) continue;
        if (ev.is_data)
          upgrade(static_cast<int>(b), true, ev.line,
                  &result_.daccess[static_cast<std::size_t>(ev.daccess_index)]);
        else
          upgrade(static_cast<int>(b), false, ev.line,
                  &result_.ilines[b][static_cast<std::size_t>(ev.iline_index)].cls);
      }
    }
  }

  const Cfg& cfg_;
  const ValueAnalysisResult& values_;
  mach::CacheConfig icfg_;
  mach::CacheConfig dcfg_;
  CacheAnalysisResult result_;
  std::vector<std::vector<Event>> events_;
  std::vector<MustState> in_;
};

}  // namespace

CacheAnalysisResult analyze_caches(const Cfg& cfg,
                                   const ValueAnalysisResult& values,
                                   const mach::MachineConfig& config) {
  return CacheAnalyzer(cfg, values, config.icache, config.dcache).run();
}

}  // namespace vc::wcet
