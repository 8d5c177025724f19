// Hash-consed symbolic terms, the one value representation of the three
// symbolic validators (structure-preserving, machine equivalence, SSA
// equivalence).
//
// A term is a dense 32-bit id into a TermTable, keyed by (kind, child ids,
// 64-bit immediate). Structurally equal terms receive equal ids, so comparing
// two symbolic values of any depth is one integer comparison, and a term DAG
// costs one node per distinct subterm: a checker's cost is linear in the
// length of the code it executes, not in the size of the expression trees
// that code denotes (a chain of n self-adds denotes a tree of 2^n leaves but
// is n nodes here).
//
// Ids are handed out in first-insert order and every child is inserted
// before its parent, so a child's id is always smaller than its parent's.
// Commutative nodes order their children by id (`make_commutative`), a
// canonical form: two commutative applications get equal ids iff their
// operand multisets are equal. Kinds are each checker's own numbering; the
// table never interprets them. A term is rendered to text only when a
// failure message is built (see `for_each_reachable`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace vc::validate {

using TermId = std::uint32_t;
inline constexpr TermId kNoTerm = 0xFFFFFFFF;

/// Two 32-bit fields as one immediate: `hi << 32 | lo`.
inline std::int64_t pack_imm(std::uint64_t hi, std::uint64_t lo) {
  return static_cast<std::int64_t>(hi << 32 | (lo & 0xFFFFFFFF));
}

class TermTable {
 public:
  TermTable() { slots_.assign(kMinSlots, kNoTerm); }

  /// Drops every term; ids restart at 0.
  void clear() {
    nodes_.clear();
    kids_.clear();
    std::fill(slots_.begin(), slots_.end(), kNoTerm);
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// The unique id of (kind, imm, kids), inserting it on first use.
  TermId make(std::uint32_t kind, std::int64_t imm,
              std::span<const TermId> kids) {
    const std::uint32_t h = hash(kind, imm, kids);
    std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      const TermId id = slots_[s];
      if (id == kNoTerm) break;
      if (equal(nodes_[id], h, kind, imm, kids)) return id;
    }
    const auto id = static_cast<TermId>(nodes_.size());
    nodes_.push_back({kind, h, static_cast<std::uint32_t>(kids_.size()),
                      static_cast<std::uint32_t>(kids.size()), imm});
    kids_.insert(kids_.end(), kids.begin(), kids.end());
    if (2 * nodes_.size() > slots_.size()) {
      grow();
      mask = slots_.size() - 1;
    }
    insert(id, mask);
    return id;
  }
  TermId make(std::uint32_t kind, std::int64_t imm = 0,
              std::initializer_list<TermId> kids = {}) {
    return make(kind, imm, std::span<const TermId>(kids.begin(), kids.size()));
  }
  /// Appends a leaf without entering it in the hash index: an atom distinct
  /// from every other term, for leaves the caller never builds with `make`
  /// (the machine checker's per-segment initial values).
  TermId atom(std::uint32_t kind, std::int64_t imm) {
    const auto id = static_cast<TermId>(nodes_.size());
    nodes_.push_back({kind, kAtomHash,
                      static_cast<std::uint32_t>(kids_.size()), 0, imm});
    return id;
  }

  /// A binary node whose operands commute: children ordered by id.
  TermId make_commutative(std::uint32_t kind, TermId a, TermId b,
                          std::int64_t imm = 0) {
    if (b < a) std::swap(a, b);
    return make(kind, imm, {a, b});
  }

  [[nodiscard]] std::uint32_t kind(TermId t) const { return nodes_[t].kind; }
  [[nodiscard]] std::int64_t imm(TermId t) const { return nodes_[t].imm; }
  [[nodiscard]] std::span<const TermId> kids(TermId t) const {
    const Node& n = nodes_[t];
    return {kids_.data() + n.first_kid, n.n_kids};
  }

  /// Visits every term reachable from `root` once, children before parents
  /// (ascending id), without recursion — renderers build each node's text
  /// from its children's, so a deep DAG costs one visit per distinct node.
  template <typename Visit>
  void for_each_reachable(TermId root, Visit visit) const {
    std::vector<bool> reached(root + 1, false);
    reached[root] = true;
    for (TermId t = root + 1; t-- > 0;)
      if (reached[t])
        for (TermId k : kids(t)) reached[k] = true;
    for (TermId t = 0; t <= root; ++t)
      if (reached[t]) visit(t);
  }

 private:
  struct Node {
    std::uint32_t kind;
    std::uint32_t hash;
    std::uint32_t first_kid;
    std::uint32_t n_kids;
    std::int64_t imm;
  };

  static constexpr std::size_t kMinSlots = 256;  // power of two
  static constexpr std::uint32_t kAtomHash = 0;  // never a key's hash

  static std::uint32_t hash(std::uint32_t kind, std::int64_t imm,
                            std::span<const TermId> kids) {
    std::uint64_t h = (kind + 1) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::uint64_t>(imm) * 0xC2B2AE3D27D4EB4FULL;
    for (TermId k : kids) h = (h ^ k) * 0x100000001B3ULL + (h >> 29);
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    return static_cast<std::uint32_t>(h >> 32) | 1;
  }

  bool equal(const Node& n, std::uint32_t h, std::uint32_t kind,
             std::int64_t imm, std::span<const TermId> kids) const {
    if (n.hash != h || n.kind != kind || n.imm != imm ||
        n.n_kids != kids.size())
      return false;
    for (std::size_t i = 0; i < kids.size(); ++i)
      if (kids_[n.first_kid + i] != kids[i]) return false;
    return true;
  }

  void insert(TermId id, std::size_t mask) {
    std::size_t s = nodes_[id].hash & mask;
    while (slots_[s] != kNoTerm) s = (s + 1) & mask;
    slots_[s] = id;
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kNoTerm);
    const std::size_t mask = slots_.size() - 1;
    // The newest node is inserted by the caller; atoms stay out of the index.
    for (TermId id = 0; id + 1 < nodes_.size(); ++id)
      if (nodes_[id].hash != kAtomHash) insert(id, mask);
  }

  std::vector<Node> nodes_;
  std::vector<TermId> kids_;
  std::vector<TermId> slots_;  // open addressing, linear probing
};

}  // namespace vc::validate
