// A content-addressed artifact store: the reproduction's counterpart of a
// build/analysis cache in a CompCert + aiT campaign pipeline. Both tools are
// pure functions of (source, options, tool version), so an artifact is keyed
// by the 128-bit digest of exactly those inputs (support/hash.hpp) and a
// warm rerun of a 2500-file campaign reduces to hash lookups.
//
// Layout:  <dir>/ab/cdef...  one regular file per entry (the first hex byte
//           of the key names the shard directory, the other 30 the file):
//   meta line   one line of JSON: format, key, the caller's `info`, and the
//               size and FNV-128 digest of each payload
//   image       serialized linked executable (artifact/image_io.hpp)
//   annot       human-readable annotation table ("annotation file" of §3.4)
//   stats       caller-owned JSON results document (the fleet stores its
//               per-run execution/WCET stanzas here; the store is agnostic)
//   The payloads follow the meta line back to back, in that order.
//
// Contracts:
//   Sharding      — the in-memory index is split over kShards mutex-striped
//                   maps keyed by digest bits, so fleet workers touching
//                   different artifacts never contend on one lock.
//   Publication   — write-then-rename: the entry lands in a hidden `.tmp-*`
//                   file in its shard directory that is renamed into place
//                   without replacing an existing entry (RENAME_NOREPLACE,
//                   or link + unlink), so readers (and crashes) never
//                   observe a half-written entry, and a lost publish race is
//                   seen and counted; it is benign, as the winner's entry is
//                   equivalent. A stats update rewrites the whole file the
//                   same way, replacing the old one.
//   Integrity     — every lookup reads the file once and checks the format,
//                   the key, each payload's size and digest, and the total
//                   length; a corrupt, truncated, or stale-format entry is
//                   evicted, counted (corrupt_dropped), and reported as a
//                   miss so the caller transparently falls back to a cold
//                   compile.
//   Eviction      — optional byte budget; least-recently-used entries (by a
//                   store-global access tick) are removed until under budget.
//   Persistence   — opening a store re-indexes whatever survives on disk, in
//                   scan order; that is what makes campaign restarts warm.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/hash.hpp"
#include "support/json.hpp"

namespace vc::artifact {

/// Counters for the cache footers and the campaign reports. Monotonic since
/// store open, except resident_* which track the current disk contents.
struct StoreStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  // absent entries AND integrity-failed entries
  std::uint64_t publishes = 0;
  std::uint64_t publish_races = 0;   // lost write-then-rename races (benign)
  std::uint64_t stats_updates = 0;
  std::uint64_t corrupt_dropped = 0;  // integrity/parse failures evicted
  std::uint64_t evictions = 0;        // LRU budget evictions
  std::uint64_t resident_entries = 0;
  std::uint64_t resident_bytes = 0;
  double lookup_seconds = 0.0;
  double publish_seconds = 0.0;

  [[nodiscard]] std::string summary() const;
};

class ArtifactStore {
 public:
  struct Options {
    std::string dir;
    /// LRU payload-byte budget; 0 = unlimited.
    std::uint64_t budget_bytes = 0;
  };

  /// Opens (creating if needed) the store and indexes surviving entries.
  /// Anything else in a shard directory (a torn or mangled entry, `.tmp-*`
  /// debris, an old-format entry directory) is removed and counted in
  /// corrupt_dropped.
  explicit ArtifactStore(const Options& options);

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// Derives the artifact key from everything the compile depends on:
  /// `spec` is the canonical text of the job knobs that key an artifact
  /// (driver::artifact_key renders it from the knob table). The fields are
  /// length-framed, so no two distinct tuples share a digest by
  /// concatenation.
  static Hash128 make_key(std::string_view source, std::string_view entry,
                          std::string_view spec,
                          std::string_view compiler_version);

  struct Loaded {
    std::vector<std::uint8_t> image_bytes;  // still serialized; the caller
                                            // deserializes (image_io) and
                                            // calls invalidate() on failure
    std::string annot;
    json::Value stats;
  };

  /// Integrity-checked load; nullopt on miss or on a dropped corrupt entry.
  std::optional<Loaded> lookup(const Hash128& key);

  /// Publishes a new entry (write-then-rename). `info` is stored in the meta
  /// line under "info" for debuggability (config, compiler version, ...).
  void publish(const Hash128& key,
               const std::vector<std::uint8_t>& image_bytes,
               const std::string& annot, const json::Value& stats,
               json::Value info = {});

  /// Replaces the stats document of a resident entry (image untouched);
  /// false if the entry is not resident.
  bool update_stats(const Hash128& key, const json::Value& stats);

  /// Drops an entry the caller found unusable after lookup (e.g. the image
  /// failed to deserialize); counted as corrupt.
  void invalidate(const Hash128& key);

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

  static constexpr std::size_t kShards = 16;

 private:
  struct Entry {
    std::uint64_t bytes = 0;  // the entry file's length
    std::uint64_t tick = 0;   // last-use order for LRU
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;  // hex key -> entry
  };

  /// Shard = top nibble of the digest — recoverable from the first hex char
  /// of an on-disk entry name, so re-indexing lands entries in the same
  /// shard they would hash to.
  Shard& shard_of(const Hash128& key) {
    return shards_[(key.hi >> 60) & (kShards - 1)];
  }
  [[nodiscard]] std::string entry_path(const std::string& hex) const;
  /// A fresh `.tmp-*` name in the entry's shard directory.
  std::string tmp_path(const std::string& hex);
  void index_existing();
  bool drop_entry_locked(Shard& shard, const std::string& hex);
  void enforce_budget();

  std::string dir_;
  std::uint64_t budget_bytes_ = 0;
  Shard shards_[kShards];

  mutable std::mutex stats_mutex_;
  StoreStats stats_;
  std::atomic<std::uint64_t> next_tick_{1};
  std::atomic<std::uint64_t> tmp_counter_{0};
};

}  // namespace vc::artifact
