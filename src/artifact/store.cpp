#include "artifact/store.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace vc::artifact {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kPayloadFiles[] = {"image.bin", "annot.txt",
                                         "stats.json"};
constexpr int kMetaFormat = 1;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool is_hex(const std::string& s) {
  for (const char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return buffer.str();
}

bool write_file(const fs::path& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  return out.good();
}

/// Atomic same-directory replacement: write `<name>.tmp`, rename over name.
bool write_file_atomic(const fs::path& dir, const std::string& name,
                       std::string_view content) {
  const fs::path tmp = dir / (name + ".tmp");
  if (!write_file(tmp, content)) return false;
  std::error_code ec;
  fs::rename(tmp, dir / name, ec);
  if (ec) fs::remove(tmp, ec);
  return !ec;
}

json::Value file_stanza(std::string_view content) {
  json::Value v;
  v["bytes"] = json::Value(static_cast<std::uint64_t>(content.size()));
  v["fnv128"] = json::Value(fnv128(content).hex());
  return v;
}

/// Total on-disk bytes a meta document accounts for (payloads + meta itself).
std::uint64_t meta_total_bytes(const json::Value& meta,
                               std::size_t meta_bytes) {
  std::uint64_t total = meta_bytes;
  for (const char* name : kPayloadFiles)
    total += meta.at("files").at(name).at("bytes").as_u64();
  return total;
}

}  // namespace

std::string StoreStats::summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "artifact store: %llu lookup(s): %llu hit(s), %llu miss(es); "
      "%llu publish(es), %llu stats update(s); %llu corrupt dropped, "
      "%llu evicted; resident %llu entr%s / %.1f MiB; "
      "lookup %.2fs, publish %.2fs",
      static_cast<unsigned long long>(lookups),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(stats_updates),
      static_cast<unsigned long long>(corrupt_dropped),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(resident_entries),
      resident_entries == 1 ? "y" : "ies",
      static_cast<double>(resident_bytes) / (1024.0 * 1024.0), lookup_seconds,
      publish_seconds);
  return buf;
}

ArtifactStore::ArtifactStore(const Options& options)
    : dir_(options.dir), budget_bytes_(options.budget_bytes) {
  fs::create_directories(dir_);
  index_existing();
}

Hash128 ArtifactStore::make_key(std::string_view source,
                                std::string_view entry, std::string_view spec,
                                std::string_view compiler_version) {
  Fnv128 h;
  h.update_sized(source);
  h.update_sized(entry);
  h.update_sized(spec);
  h.update_sized(compiler_version);
  return h.digest();
}

std::string ArtifactStore::entry_dir(const std::string& hex) const {
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex.substr(2);
}

void ArtifactStore::index_existing() {
  std::error_code ec;
  for (const fs::directory_entry& shard_dir : fs::directory_iterator(dir_, ec)) {
    if (!shard_dir.is_directory()) continue;
    const std::string prefix = shard_dir.path().filename().string();
    if (prefix.size() != 2 || !is_hex(prefix)) continue;
    std::error_code inner_ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(shard_dir.path(), inner_ec)) {
      const std::string rest = entry.path().filename().string();
      if (rest.size() != 30 || !is_hex(rest) || !entry.is_directory()) {
        // Crash debris: tmp dirs/files from a publication or stats update
        // that was killed mid-write. Atomic rename guarantees none of it was
        // ever visible as an entry; drop it and account it so a restart
        // after a crash is observable in the corruption counter.
        fs::remove_all(entry.path(), inner_ec);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.corrupt_dropped;
        continue;
      }
      const std::string hex = prefix + rest;
      bool valid = false;
      std::uint64_t bytes = 0;
      json::Value meta_doc;
      if (const auto meta_text = read_file(entry.path() / "meta")) {
        json::Parsed meta = json::parse(*meta_text);
        if (meta.ok() && meta.value.at("format").as_i64() == kMetaFormat &&
            meta.value.at("key").as_string() == hex) {
          bytes = meta_total_bytes(meta.value, meta_text->size());
          meta_doc = std::move(meta.value);
          valid = true;
        }
      }
      // Stray "<name>.tmp" files inside an entry (a crashed write_file_atomic)
      // are not referenced by meta; garbage-collect and count them so a kill
      // mid-write is observable in the corruption counter.
      for (const fs::directory_entry& inner :
           fs::directory_iterator(entry.path(), inner_ec)) {
        if (inner.path().extension() == ".tmp") {
          fs::remove(inner.path(), inner_ec);
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.corrupt_dropped;
        }
      }
      // Crash-consistency: an entry is only indexed when every payload file
      // is present with exactly the byte count meta recorded — a truncated
      // image from a kill mid-write must never be re-served. (Lookups
      // re-hash payloads anyway; this catches the damage at restart, before
      // anything can be handed out.)
      if (valid) {
        for (const char* name : kPayloadFiles) {
          std::error_code size_ec;
          const std::uint64_t on_disk =
              fs::file_size(entry.path() / name, size_ec);
          if (size_ec ||
              on_disk != meta_doc.at("files").at(name).at("bytes").as_u64()) {
            valid = false;
            break;
          }
        }
      }
      if (!valid) {
        fs::remove_all(entry.path(), inner_ec);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.corrupt_dropped;
        continue;
      }
      // The shard is the top nibble of the digest = the first hex char.
      const char c0 = hex[0];
      const std::size_t shard_index = static_cast<std::size_t>(
          c0 <= '9' ? c0 - '0' : c0 - 'a' + 10);
      Shard& shard = shards_[shard_index & (kShards - 1)];
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries[hex] = Entry{bytes, next_tick_.fetch_add(1)};
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.resident_entries;
      stats_.resident_bytes += bytes;
    }
  }
  enforce_budget();
}

bool ArtifactStore::drop_entry_locked(Shard& shard, const std::string& hex) {
  const auto it = shard.entries.find(hex);
  if (it == shard.entries.end()) return false;
  const std::uint64_t bytes = it->second.bytes;
  shard.entries.erase(it);
  std::error_code ec;
  fs::remove_all(entry_dir(hex), ec);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  --stats_.resident_entries;
  stats_.resident_bytes -= bytes;
  return true;
}

std::optional<ArtifactStore::Loaded> ArtifactStore::lookup(
    const Hash128& key) {
  const auto t_start = Clock::now();
  const std::string hex = key.hex();
  Shard& shard = shard_of(key);
  std::unique_lock<std::mutex> lock(shard.mutex);

  const auto note = [&](bool hit, bool corrupt) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.lookups;
    ++(hit ? stats_.hits : stats_.misses);
    if (corrupt) ++stats_.corrupt_dropped;
    stats_.lookup_seconds += seconds_since(t_start);
  };

  const auto it = shard.entries.find(hex);
  if (it == shard.entries.end()) {
    lock.unlock();
    note(false, false);
    return std::nullopt;
  }

  // Re-read and re-hash everything: disk contents are untrusted (truncation,
  // corruption, concurrent external eviction). Any surprise drops the entry
  // and reports a miss so the caller falls back to a cold compile.
  const fs::path edir = entry_dir(hex);
  Loaded loaded;
  bool ok = false;
  do {
    const auto meta_text = read_file(edir / "meta");
    if (!meta_text) break;
    const json::Parsed meta = json::parse(*meta_text);
    if (!meta.ok() || meta.value.at("format").as_i64() != kMetaFormat ||
        meta.value.at("key").as_string() != hex)
      break;
    std::string contents[3];
    bool intact = true;
    for (int i = 0; i < 3; ++i) {
      const auto text = read_file(edir / kPayloadFiles[i]);
      const json::Value& stanza = meta.value.at("files").at(kPayloadFiles[i]);
      if (!text || text->size() != stanza.at("bytes").as_u64() ||
          fnv128(*text).hex() != stanza.at("fnv128").as_string()) {
        intact = false;
        break;
      }
      contents[i] = std::move(*text);
    }
    if (!intact) break;
    const json::Parsed stats_doc = json::parse(contents[2]);
    if (!stats_doc.ok()) break;
    loaded.image_bytes.assign(contents[0].begin(), contents[0].end());
    loaded.annot = std::move(contents[1]);
    loaded.stats = stats_doc.value;
    ok = true;
  } while (false);

  if (!ok) {
    drop_entry_locked(shard, hex);
    lock.unlock();
    note(false, true);
    return std::nullopt;
  }

  it->second.tick = next_tick_.fetch_add(1);
  lock.unlock();
  note(true, false);
  return loaded;
}

void ArtifactStore::publish(const Hash128& key,
                            const std::vector<std::uint8_t>& image_bytes,
                            const std::string& annot, const json::Value& stats,
                            json::Value info) {
  const auto t_start = Clock::now();
  const std::string hex = key.hex();
  const std::string image_text(image_bytes.begin(), image_bytes.end());
  const std::string stats_text = stats.dump(1);

  json::Value meta;
  meta["format"] = json::Value(static_cast<std::int64_t>(kMetaFormat));
  meta["key"] = json::Value(hex);
  meta["files"]["image.bin"] = file_stanza(image_text);
  meta["files"]["annot.txt"] = file_stanza(annot);
  meta["files"]["stats.json"] = file_stanza(stats_text);
  if (!info.is_null()) meta["info"] = std::move(info);
  const std::string meta_text = meta.dump(1);

  const fs::path shard_path = fs::path(dir_) / hex.substr(0, 2);
  const fs::path final_path = shard_path / hex.substr(2);
  const fs::path tmp_path =
      shard_path / (".tmp-" + hex.substr(2, 8) + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(tmp_counter_.fetch_add(1)));

  std::error_code ec;
  fs::create_directories(shard_path, ec);
  fs::create_directory(tmp_path, ec);
  const bool written = !ec && write_file(tmp_path / "image.bin", image_text) &&
                       write_file(tmp_path / "annot.txt", annot) &&
                       write_file(tmp_path / "stats.json", stats_text) &&
                       write_file(tmp_path / "meta", meta_text);
  bool published = false;
  bool raced = false;
  if (written) {
    fs::rename(tmp_path, final_path, ec);
    if (!ec) {
      published = true;
    } else {
      // Another worker/process published this key first; its entry is
      // equivalent by construction (same key = same inputs).
      raced = fs::exists(final_path / "meta");
    }
  }
  fs::remove_all(tmp_path, ec);

  const std::uint64_t total_bytes = image_text.size() + annot.size() +
                                    stats_text.size() + meta_text.size();
  if (published) {
    Shard& shard = shard_of(key);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.entries[hex] = Entry{total_bytes, next_tick_.fetch_add(1)};
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.publishes;
    ++stats_.resident_entries;
    stats_.resident_bytes += total_bytes;
    stats_.publish_seconds += seconds_since(t_start);
  } else {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (raced) ++stats_.publish_races;
    stats_.publish_seconds += seconds_since(t_start);
  }
  if (published) enforce_budget();
}

bool ArtifactStore::update_stats(const Hash128& key,
                                 const json::Value& stats) {
  const std::string hex = key.hex();
  const std::string stats_text = stats.dump(1);
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(hex);
  if (it == shard.entries.end()) return false;

  const fs::path edir = entry_dir(hex);
  const auto meta_text = read_file(edir / "meta");
  if (!meta_text) return false;
  json::Parsed meta = json::parse(*meta_text);
  if (!meta.ok()) return false;
  const std::uint64_t old_total = it->second.bytes;
  meta.value["files"]["stats.json"] = file_stanza(stats_text);
  const std::string new_meta = meta.value.dump(1);
  // stats.json first, meta last: a crash between the two leaves a hash
  // mismatch that the next lookup detects and repairs via cold fallback.
  if (!write_file_atomic(edir, "stats.json", stats_text)) return false;
  if (!write_file_atomic(edir, "meta", new_meta)) return false;

  const std::uint64_t new_total =
      meta_total_bytes(meta.value, new_meta.size());
  it->second.bytes = new_total;
  it->second.tick = next_tick_.fetch_add(1);
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.stats_updates;
  stats_.resident_bytes += new_total - old_total;
  return true;
}

void ArtifactStore::invalidate(const Hash128& key) {
  Shard& shard = shard_of(key);
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    dropped = drop_entry_locked(shard, key.hex());
  }
  if (dropped) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.corrupt_dropped;
  }
}

void ArtifactStore::enforce_budget() {
  if (budget_bytes_ == 0) return;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      if (stats_.resident_bytes <= budget_bytes_) return;
    }
    // Victim = globally least-recently-used entry (scan shard minima).
    std::string victim;
    std::uint64_t victim_tick = UINT64_MAX;
    std::size_t victim_shard = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      for (const auto& [hex, entry] : shards_[s].entries) {
        if (entry.tick < victim_tick) {
          victim_tick = entry.tick;
          victim = hex;
          victim_shard = s;
        }
      }
    }
    if (victim.empty()) return;  // budget smaller than any entry: store empty
    {
      std::lock_guard<std::mutex> lock(shards_[victim_shard].mutex);
      drop_entry_locked(shards_[victim_shard], victim);
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.evictions;
  }
}

StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace vc::artifact
