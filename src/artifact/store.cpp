#include "artifact/store.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <unistd.h>

namespace vc::artifact {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// The payloads, in the order they follow the meta line in an entry file.
constexpr const char* kPayloads[] = {"image", "annot", "stats"};
constexpr std::size_t kPayloadCount = 3;
constexpr int kMetaFormat = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool is_hex(const std::string& s) {
  for (const char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

/// Reads up to `limit` bytes of the regular file `path` (all of it by
/// default) with one open; `size`, if given, receives the file's length.
/// nullopt if unreadable.
std::optional<std::string> read_file(const std::string& path,
                                     std::uint64_t limit = UINT64_MAX,
                                     std::uint64_t* size = nullptr) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> out;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    const auto length = static_cast<std::uint64_t>(st.st_size);
    if (size != nullptr) *size = length;
    std::string buf(static_cast<std::size_t>(std::min(length, limit)), '\0');
    std::size_t got = 0;
    while (got < buf.size()) {
      const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (got == buf.size()) out = std::move(buf);
  }
  ::close(fd);
  return out;
}

/// Creates `path` (which must not exist) holding `content`; on failure
/// removes whatever was written.
bool write_new_file(const std::string& path, std::string_view content) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t put = 0;
  while (put < content.size()) {
    const ssize_t n = ::write(fd, content.data() + put, content.size() - put);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    put += static_cast<std::size_t>(n);
  }
  const bool ok = ::close(fd) == 0 && put == content.size();
  if (!ok) ::unlink(path.c_str());
  return ok;
}

/// Moves `from` to `to` unless `to` exists: 0 on success, else the errno
/// (EEXIST when another publisher got there first). A plain rename(2)
/// would replace the winner's file without error, so the lost race would go
/// uncounted and both publishers would index the entry. Filesystems without
/// RENAME_NOREPLACE get link(2) + unlink(2), which is just as exclusive.
int rename_noreplace(const std::string& from, const std::string& to) {
  if (::renameat2(AT_FDCWD, from.c_str(), AT_FDCWD, to.c_str(),
                  RENAME_NOREPLACE) == 0)
    return 0;
  if (errno != EINVAL && errno != ENOSYS && errno != ENOTSUP) return errno;
  if (::link(from.c_str(), to.c_str()) != 0) return errno;
  ::unlink(from.c_str());
  return 0;
}

/// An entry file's meta line, checked against the name the file is filed
/// under and against the file's length.
struct Meta {
  json::Value doc;
  std::size_t header_bytes = 0;  // the meta line and its newline
  std::uint64_t sizes[kPayloadCount] = {};
};

std::optional<Meta> parse_meta(std::string_view line, const std::string& hex,
                               std::uint64_t file_size) {
  json::Parsed parsed = json::parse(line);
  if (!parsed.ok() || parsed.value.at("format").as_i64() != kMetaFormat ||
      parsed.value.at("key").as_string() != hex)
    return std::nullopt;
  Meta meta;
  meta.header_bytes = line.size() + 1;
  std::uint64_t total = meta.header_bytes;
  for (std::size_t i = 0; i < kPayloadCount; ++i) {
    meta.sizes[i] = parsed.value.at(kPayloads[i]).at("bytes").as_u64();
    if (meta.sizes[i] > file_size) return std::nullopt;
    total += meta.sizes[i];
  }
  if (total != file_size) return std::nullopt;
  meta.doc = std::move(parsed.value);
  return meta;
}

/// The payloads of a whole entry file, each checked against the size and
/// FNV-128 its meta stanza records; nullopt on any mismatch.
struct Decoded {
  Meta meta;
  std::string_view payloads[kPayloadCount];
};

std::optional<Decoded> decode_entry(std::string_view file,
                                    const std::string& hex) {
  const std::size_t newline = file.find('\n');
  if (newline == std::string_view::npos) return std::nullopt;
  std::optional<Meta> meta = parse_meta(file.substr(0, newline), hex,
                                        file.size());
  if (!meta) return std::nullopt;
  Decoded decoded;
  std::size_t offset = meta->header_bytes;
  for (std::size_t i = 0; i < kPayloadCount; ++i) {
    decoded.payloads[i] = file.substr(offset, meta->sizes[i]);
    offset += meta->sizes[i];
    if (fnv128(decoded.payloads[i]).hex() !=
        meta->doc.at(kPayloads[i]).at("fnv128").as_string())
      return std::nullopt;
  }
  decoded.meta = std::move(*meta);
  return decoded;
}

/// An entry file: one meta line (format, key, `info`, and each payload's
/// size and FNV-128), then the payloads back to back.
std::string encode_entry(const std::string& hex,
                         const std::string_view (&payloads)[kPayloadCount],
                         json::Value info) {
  json::Value meta;
  meta["format"] = json::Value(static_cast<std::int64_t>(kMetaFormat));
  meta["key"] = json::Value(hex);
  std::size_t payload_bytes = 0;
  for (std::size_t i = 0; i < kPayloadCount; ++i) {
    json::Value& stanza = meta[kPayloads[i]];
    stanza["bytes"] =
        json::Value(static_cast<std::uint64_t>(payloads[i].size()));
    stanza["fnv128"] = json::Value(fnv128(payloads[i]).hex());
    payload_bytes += payloads[i].size();
  }
  if (!info.is_null()) meta["info"] = std::move(info);
  std::string out = meta.dump();
  out.reserve(out.size() + 1 + payload_bytes);
  out += '\n';
  for (const std::string_view payload : payloads) out += payload;
  return out;
}

/// Reads the meta line of the entry file at `path` without its payloads.
std::optional<Meta> read_meta(const std::string& path, const std::string& hex) {
  std::uint64_t size = 0;
  for (std::uint64_t limit = 1024;; limit *= 4) {
    const auto head = read_file(path, limit, &size);
    if (!head) return std::nullopt;
    const std::size_t newline = head->find('\n');
    if (newline != std::string::npos)
      return parse_meta(std::string_view(*head).substr(0, newline), hex, size);
    if (head->size() == size) return std::nullopt;
  }
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

std::string ArtifactStore::entry_path(const std::string& hex) const {
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex.substr(2);
}

std::string ArtifactStore::tmp_path(const std::string& hex) {
  return dir_ + "/" + hex.substr(0, 2) + "/.tmp-" + hex.substr(2, 8) + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(tmp_counter_.fetch_add(1));
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
      const std::string hex = prefix + rest;
      // Only a well-formed entry file is indexed: its name is the rest of
      // the key and its length is what its meta line accounts for, so an
      // entry torn by a kill mid-write is never re-served. Everything else
      // is dropped and counted, so a restart after a crash is observable:
      // `.tmp-*` files of an interrupted publication or stats rewrite, torn
      // or mangled files, and directory entries of the old four-file layout.
      std::optional<Meta> meta;
      if (rest.size() == 30 && is_hex(rest) && entry.is_regular_file())
        meta = read_meta(entry.path().string(), hex);
      if (!meta) {
        fs::remove_all(entry.path(), inner_ec);
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.corrupt_dropped;
        continue;
      }
      std::uint64_t bytes = meta->header_bytes;
      for (const std::uint64_t size : meta->sizes) bytes += size;
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
  ::unlink(entry_path(hex).c_str());
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
  Loaded loaded;
  bool ok = false;
  const auto file = read_file(entry_path(hex));
  if (const auto decoded = file ? decode_entry(*file, hex) : std::nullopt) {
    json::Parsed stats_doc = json::parse(decoded->payloads[2]);
    if (stats_doc.ok()) {
      loaded.image_bytes.assign(decoded->payloads[0].begin(),
                                decoded->payloads[0].end());
      loaded.annot = std::string(decoded->payloads[1]);
      loaded.stats = std::move(stats_doc.value);
      ok = true;
    }
  }

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
  const std::string stats_text = stats.dump(1);
  const std::string_view payloads[kPayloadCount] = {
      {reinterpret_cast<const char*>(image_bytes.data()), image_bytes.size()},
      annot,
      stats_text};
  const std::string content = encode_entry(hex, payloads, std::move(info));

  const std::string final_path = entry_path(hex);
  const std::string tmp = tmp_path(hex);
  // EEXIST after the shard's first entry.
  ::mkdir((dir_ + "/" + hex.substr(0, 2)).c_str(), 0755);
  bool published = false;
  bool raced = false;
  if (write_new_file(tmp, content)) {
    const int error = rename_noreplace(tmp, final_path);
    published = error == 0;
    // EEXIST: another worker/process published this key first; its entry
    // is equivalent by construction (same key = same inputs).
    raced = error == EEXIST;
    if (!published) ::unlink(tmp.c_str());
  }

  const std::uint64_t total_bytes = content.size();
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

  const std::string path = entry_path(hex);
  const auto file = read_file(path);
  if (!file) return false;
  const auto decoded = decode_entry(*file, hex);
  if (!decoded) return false;
  const std::string_view payloads[kPayloadCount] = {
      decoded->payloads[0], decoded->payloads[1], stats_text};
  const std::string content =
      encode_entry(hex, payloads, decoded->meta.doc.at("info"));
  // The whole file is rewritten and renamed over the old one: a crash
  // leaves either entry intact, plus at most a `.tmp-*` file that the next
  // store open drops.
  const std::string tmp = tmp_path(hex);
  if (!write_new_file(tmp, content)) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }

  const std::uint64_t old_total = it->second.bytes;
  it->second.bytes = content.size();
  it->second.tick = next_tick_.fetch_add(1);
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  ++stats_.stats_updates;
  stats_.resident_bytes += content.size() - old_total;
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
