// Unit tests for the artifact subsystem: the FNV-1a/128 hasher, the JSON
// reader/writer, image serialization, and the content-addressed store
// itself — publication and its races, integrity-checked lookup, corruption
// fallback, persistence across store instances, old-format entries, and LRU
// budget eviction. Fleet-level caching behavior lives in
// fleet_cache_test.cpp.
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include "artifact/image_io.hpp"
#include "artifact/store.hpp"
#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace vc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- Hash128

TEST(HashTest, EmptyInputIsTheOffsetBasis) {
  // FNV-1a with zero bytes folds nothing: the digest is the 128-bit offset
  // basis (fnv.org reference parameters).
  EXPECT_EQ(fnv128("").hex(), "6c62272e07bb014262b821756295c58d");
}

TEST(HashTest, HexIs32LowercaseChars) {
  const std::string hex = fnv128("hello").hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

TEST(HashTest, StreamingMatchesOneShot) {
  Fnv128 h;
  h.update("hel");
  h.update("");
  h.update("lo world");
  EXPECT_EQ(h.digest(), fnv128("hello world"));
}

TEST(HashTest, DistinctInputsDistinctDigests) {
  EXPECT_NE(fnv128("a"), fnv128("b"));
  EXPECT_NE(fnv128("a"), fnv128(""));
  EXPECT_NE(fnv128("ab"), fnv128("ba"));
}

TEST(HashTest, SizedFramingPreventsConcatenationCollisions) {
  Fnv128 a;
  a.update_sized("ab");
  a.update_sized("c");
  Fnv128 b;
  b.update_sized("a");
  b.update_sized("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(HashTest, MakeKeyDependsOnEveryField) {
  using artifact::ArtifactStore;
  const Hash128 base = ArtifactStore::make_key("src", "f", "O2|ppc", "v1");
  EXPECT_EQ(base, ArtifactStore::make_key("src", "f", "O2|ppc", "v1"));
  EXPECT_NE(base, ArtifactStore::make_key("src2", "f", "O2|ppc", "v1"));
  EXPECT_NE(base, ArtifactStore::make_key("src", "g", "O2|ppc", "v1"));
  EXPECT_NE(base, ArtifactStore::make_key("src", "f", "O0|ppc", "v1"));
  EXPECT_NE(base, ArtifactStore::make_key("src", "f", "O2|rv32", "v1"));
  EXPECT_NE(base, ArtifactStore::make_key("src", "f", "O2|ppc", "v2"));
  // Length framing: moving bytes between fields changes the key.
  EXPECT_NE(base, ArtifactStore::make_key("srcf", "", "O2|ppc", "v1"));
}

// ------------------------------------------------------------------- JSON

TEST(JsonTest, U64AndI64RoundTripExactly) {
  json::Value doc;
  doc["max_u64"] = json::Value(UINT64_MAX);
  doc["min_i64"] = json::Value(INT64_MIN);
  doc["cycles"] = json::Value(static_cast<std::uint64_t>(1) << 63);
  const json::Parsed back = json::parse(doc.dump());
  ASSERT_TRUE(back.ok()) << back.error;
  EXPECT_EQ(back.value.at("max_u64").as_u64(), UINT64_MAX);
  EXPECT_EQ(back.value.at("min_i64").as_i64(), INT64_MIN);
  EXPECT_EQ(back.value.at("cycles").as_u64(), static_cast<std::uint64_t>(1)
                                                  << 63);
}

TEST(JsonTest, NestedDocumentRoundTrips) {
  json::Value doc;
  doc["name"] = json::Value("node_042");
  doc["ok"] = json::Value(true);
  doc["ratio"] = json::Value(1.625);  // exactly representable
  doc["list"] = json::Value(json::Array{json::Value(1), json::Value("two"),
                                        json::Value(nullptr)});
  const json::Parsed back = json::parse(doc.dump(2));
  ASSERT_TRUE(back.ok()) << back.error;
  EXPECT_EQ(back.value.at("name").as_string(), "node_042");
  EXPECT_TRUE(back.value.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(back.value.at("ratio").as_double(), 1.625);
  ASSERT_EQ(back.value.at("list").as_array().size(), 3u);
  EXPECT_EQ(back.value.at("list").as_array()[0].as_i64(), 1);
  EXPECT_EQ(back.value.at("list").as_array()[1].as_string(), "two");
  EXPECT_TRUE(back.value.at("list").as_array()[2].is_null());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07";
  json::Value doc;
  doc["s"] = json::Value(nasty);
  const json::Parsed back = json::parse(doc.dump());
  ASSERT_TRUE(back.ok()) << back.error;
  EXPECT_EQ(back.value.at("s").as_string(), nasty);
}

TEST(JsonTest, StrictParserRejectsGarbage) {
  EXPECT_FALSE(json::parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(json::parse("{\"a\": ").ok());
  EXPECT_FALSE(json::parse("[1, 2,]").ok());
  EXPECT_FALSE(json::parse("\x00\xFF\x12 not json").ok());
  EXPECT_FALSE(json::parse("").ok());
}

TEST(JsonTest, AccessorsFallBackInsteadOfThrowing) {
  const json::Parsed doc = json::parse("{\"n\": 7}");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc.value.at("missing").is_null());
  EXPECT_EQ(doc.value.at("missing").as_u64(42), 42u);
  EXPECT_EQ(doc.value.at("n").at("deeper").as_string("dflt"), "dflt");
  EXPECT_TRUE(doc.value.at("n").as_array().empty());
  EXPECT_TRUE(doc.value.at("n").as_object().empty());
}

// --------------------------------------------------------------- image_io

/// A program with globals, two functions, a bounded loop, and annotations —
/// every Image table is populated.
const char kSource[] = R"(
global f64 gains[4] = {1.0, 0.5, 0.25, 0.125};
global i32 count = 0;

func f64 scale(f64 x, i32 n) {
  local f64 a;
  local i32 i;
  __annot("0 <= %1 <= 3", n);
  a = x;
  i = 0;
  while (i < n) {
    __annot("loop <= 3");
    a = a * gains[i];
    i = i + 1;
  }
  count = count + 1;
  return a;
}

func f64 clamp2(f64 x) {
  local f64 y;
  y = x > 2.0 ? 2.0 : x;
  y = y < -2.0 ? -2.0 : y;
  count = count + 1;
  return y;
}
)";

mach::Image compile_image(driver::Config config = driver::Config::O2Full) {
  minic::Program program = minic::parse_program(kSource, "artifact_test");
  minic::type_check(program);
  return driver::compile_program(program, config).image;
}

TEST(ImageIoTest, SerializedImageRoundTripsExactly) {
  const mach::Image image = compile_image();
  ASSERT_FALSE(image.words.empty());
  ASSERT_FALSE(image.annotations.empty());

  const std::vector<std::uint8_t> bytes = artifact::serialize_image(image);
  const artifact::ImageParse parsed = artifact::deserialize_image(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  EXPECT_EQ(parsed.image.words, image.words);
  EXPECT_EQ(parsed.image.data_init, image.data_init);
  EXPECT_EQ(parsed.image.fn_entry, image.fn_entry);
  EXPECT_EQ(parsed.image.fn_end, image.fn_end);
  EXPECT_EQ(parsed.image.global_addr, image.global_addr);
  ASSERT_EQ(parsed.image.annotations.size(), image.annotations.size());
  // Canonical form: re-serializing the parsed image reproduces the bytes,
  // which covers annotation payloads without enumerating AnnotEntry fields.
  EXPECT_EQ(artifact::serialize_image(parsed.image), bytes);
  // The cached image must behave identically downstream: same disassembly.
  EXPECT_EQ(parsed.image.disassemble(), image.disassemble());
}

TEST(ImageIoTest, TruncatedBytesAreACleanError) {
  const std::vector<std::uint8_t> bytes =
      artifact::serialize_image(compile_image());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    const artifact::ImageParse parsed = artifact::deserialize_image(cut);
    EXPECT_FALSE(parsed.ok()) << "truncation to " << keep << " bytes parsed";
    EXPECT_FALSE(parsed.error.empty());
  }
}

TEST(ImageIoTest, WrongMagicAndVersionAreCleanErrors) {
  std::vector<std::uint8_t> bytes = artifact::serialize_image(compile_image());
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xFF;  // magic is the first word
    EXPECT_FALSE(artifact::deserialize_image(bad).ok());
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] ^= 0xFF;  // version is the second word
    EXPECT_FALSE(artifact::deserialize_image(bad).ok());
  }
}

TEST(ImageIoTest, AnnotationTextListsEveryEntry) {
  const mach::Image image = compile_image();
  const std::string text = artifact::annotation_text(image);
  // One line per annotation entry.
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  EXPECT_GE(lines, image.annotations.size());
  EXPECT_NE(text.find("loop"), std::string::npos);
}

// ------------------------------------------------------------------ store

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("vcflight-store-test-" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "-" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Hash128 key_of(const std::string& tag) {
    return artifact::ArtifactStore::make_key(tag, "f", "O2|ppc",
                                             driver::kCompilerVersion);
  }

  /// Publishes a synthetic entry whose payloads embed `tag`.
  static void publish_tagged(artifact::ArtifactStore& store,
                             const std::string& tag,
                             std::size_t image_size = 64) {
    std::vector<std::uint8_t> image(image_size);
    for (std::size_t i = 0; i < image.size(); ++i)
      image[i] = static_cast<std::uint8_t>((i + tag.size()) & 0xFF);
    json::Value stats;
    stats["tag"] = json::Value(tag);
    json::Value info;
    info["config"] = json::Value("O2");
    store.publish(key_of(tag), image, "annot for " + tag, stats,
                  std::move(info));
  }

  /// Path of an entry's file on disk.
  [[nodiscard]] fs::path entry_path(const std::string& tag) const {
    const std::string hex = key_of(tag).hex();
    return fs::path(dir_) / hex.substr(0, 2) / hex.substr(2);
  }

  static std::string read_bytes(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static void write_bytes(const fs::path& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// Offset of an entry file's first payload byte (the first image byte),
  /// just past its meta line.
  static std::size_t payload_offset(const std::string& entry) {
    return entry.find('\n') + 1;
  }

  std::string dir_;
};

TEST_F(StoreTest, PublishThenLookupRoundTrips) {
  artifact::ArtifactStore store({dir_, 0});
  publish_tagged(store, "alpha");

  const auto loaded = store.lookup(key_of("alpha"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->annot, "annot for alpha");
  EXPECT_EQ(loaded->stats.at("tag").as_string(), "alpha");
  EXPECT_EQ(loaded->image_bytes.size(), 64u);

  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_FALSE(s.summary().empty());
}

TEST_F(StoreTest, MissingKeyIsAMiss) {
  artifact::ArtifactStore store({dir_, 0});
  EXPECT_FALSE(store.lookup(key_of("never-published")).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().corrupt_dropped, 0u);
}

TEST_F(StoreTest, OnDiskLayoutIsShardedByHexPrefix) {
  artifact::ArtifactStore store({dir_, 0});
  publish_tagged(store, "layout");
  const fs::path path = entry_path("layout");
  ASSERT_TRUE(fs::is_regular_file(path));
  // One file: a meta line, then image, annotation and stats back to back.
  const std::string entry = read_bytes(path);
  const std::size_t offset = payload_offset(entry);
  ASSERT_NE(offset, 0u);
  const json::Parsed meta = json::parse(entry.substr(0, offset - 1));
  ASSERT_TRUE(meta.ok()) << meta.error;
  EXPECT_EQ(meta.value.at("key").as_string(), key_of("layout").hex());
  EXPECT_EQ(meta.value.at("info").at("config").as_string(), "O2");
  EXPECT_EQ(meta.value.at("image").at("bytes").as_u64(), 64u);
  const std::string annot = "annot for layout";
  EXPECT_EQ(entry.substr(offset + 64, annot.size()), annot);
  EXPECT_EQ(store.stats().resident_bytes, entry.size());
  // Nothing else is left in the shard directory.
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& f :
       fs::directory_iterator(path.parent_path()))
    ++files;
  EXPECT_EQ(files, 1u);
}

TEST_F(StoreTest, PersistsAcrossStoreInstances) {
  { // First store publishes and is destroyed.
    artifact::ArtifactStore store({dir_, 0});
    publish_tagged(store, "persist");
  }
  // A fresh store over the same directory re-indexes the entry (a campaign
  // restart must be warm).
  artifact::ArtifactStore restarted({dir_, 0});
  EXPECT_EQ(restarted.stats().resident_entries, 1u);
  const auto loaded = restarted.lookup(key_of("persist"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->stats.at("tag").as_string(), "persist");
}

TEST_F(StoreTest, CorruptImageIsDroppedCountedAndBecomesAMiss) {
  artifact::ArtifactStore store({dir_, 0});
  publish_tagged(store, "victim");

  { // Flip one byte of the stored image.
    std::string entry = read_bytes(entry_path("victim"));
    entry[payload_offset(entry)] ^= 0x5A;
    write_bytes(entry_path("victim"), entry);
  }

  EXPECT_FALSE(store.lookup(key_of("victim")).has_value());
  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.corrupt_dropped, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.resident_entries, 0u);
  // The entry was evicted from disk too; re-publication then hits again.
  EXPECT_FALSE(fs::exists(entry_path("victim")));
  publish_tagged(store, "victim");
  EXPECT_TRUE(store.lookup(key_of("victim")).has_value());
}

TEST_F(StoreTest, TruncatedStatsFileIsDetected) {
  artifact::ArtifactStore store({dir_, 0});
  publish_tagged(store, "truncated");
  // The stats document is the entry's last payload: cut the file inside it.
  const std::uintmax_t size = fs::file_size(entry_path("truncated"));
  fs::resize_file(entry_path("truncated"), size - 3);
  EXPECT_FALSE(store.lookup(key_of("truncated")).has_value());
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
}

TEST_F(StoreTest, DeletedPayloadIsDetected) {
  artifact::ArtifactStore store({dir_, 0});
  publish_tagged(store, "deleted");
  // Remove the annotation's first byte: every later payload shifts by one.
  std::string entry = read_bytes(entry_path("deleted"));
  entry.erase(payload_offset(entry) + 64, 1);
  write_bytes(entry_path("deleted"), entry);
  EXPECT_FALSE(store.lookup(key_of("deleted")).has_value());
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
}

TEST_F(StoreTest, MangledMetaIsGarbageCollectedOnRestart) {
  {
    artifact::ArtifactStore store({dir_, 0});
    publish_tagged(store, "stale");
  }
  { // Replace the meta line with junk, payloads kept; the restart scan
    // must drop the entry.
    const std::string entry = read_bytes(entry_path("stale"));
    write_bytes(entry_path("stale"),
                "not json at all\n" + entry.substr(payload_offset(entry)));
  }
  artifact::ArtifactStore restarted({dir_, 0});
  EXPECT_EQ(restarted.stats().resident_entries, 0u);
  EXPECT_EQ(restarted.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(restarted.lookup(key_of("stale")).has_value());
}

TEST_F(StoreTest, LeftoverTmpDirsAreGarbageCollectedOnRestart) {
  {
    artifact::ArtifactStore store({dir_, 0});
    publish_tagged(store, "survivor");
  }
  // Simulate a crash mid-publication: a tmp dir inside a shard directory.
  const std::string hex = key_of("survivor").hex();
  const fs::path tmp = fs::path(dir_) / hex.substr(0, 2) / ".tmp-dead-1-2";
  fs::create_directories(tmp);
  { std::ofstream f(tmp / "image.bin"); f << "partial"; }

  artifact::ArtifactStore restarted({dir_, 0});
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(restarted.stats().resident_entries, 1u);
  EXPECT_TRUE(restarted.lookup(key_of("survivor")).has_value());
}

TEST_F(StoreTest, KillMidPublishDebrisIsDroppedAndCountedOnRestart) {
  {
    artifact::ArtifactStore store({dir_, 0});
    publish_tagged(store, "survivor");
    publish_tagged(store, "torn");
  }
  // Simulate a process killed mid-write: half of a rewritten entry in a
  // temp file next to the published one (a crashed stats update)...
  const fs::path stray =
      entry_path("survivor").parent_path() / ".tmp-dead-3-4";
  {
    const std::string entry = read_bytes(entry_path("survivor"));
    write_bytes(stray, entry.substr(0, entry.size() / 2));
  }
  // ...and an entry whose image was torn mid-write: meta says 64 bytes but
  // only 7 landed on disk.
  {
    const std::string entry = read_bytes(entry_path("torn"));
    fs::resize_file(entry_path("torn"), payload_offset(entry) + 7);
  }

  artifact::ArtifactStore restarted({dir_, 0});
  // Both pieces of damage are dropped at re-index and accounted.
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_FALSE(fs::exists(entry_path("torn")));
  EXPECT_EQ(restarted.stats().corrupt_dropped, 2u);
  // The partial image is never served; the intact neighbor still is.
  EXPECT_EQ(restarted.stats().resident_entries, 1u);
  EXPECT_FALSE(restarted.lookup(key_of("torn")).has_value());
  const auto loaded = restarted.lookup(key_of("survivor"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->image_bytes.size(), 64u);
}

TEST_F(StoreTest, ShardLevelTmpFileIsDroppedAndCountedOnRestart) {
  {
    artifact::ArtifactStore store({dir_, 0});
    publish_tagged(store, "survivor");
  }
  // A crash can also leave a non-directory stray at the shard level.
  const std::string hex = key_of("survivor").hex();
  const fs::path stray = fs::path(dir_) / hex.substr(0, 2) / ".tmp-dead-9-9";
  { std::ofstream f(stray); f << "partial"; }

  artifact::ArtifactStore restarted({dir_, 0});
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_EQ(restarted.stats().corrupt_dropped, 1u);
  EXPECT_EQ(restarted.stats().resident_entries, 1u);
  EXPECT_TRUE(restarted.lookup(key_of("survivor")).has_value());
}

TEST_F(StoreTest, InvalidateDropsAndCountsOnce) {
  artifact::ArtifactStore store({dir_, 0});
  publish_tagged(store, "bad-image");
  store.invalidate(key_of("bad-image"));
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
  EXPECT_EQ(store.stats().resident_entries, 0u);
  // Invalidating an absent entry must not inflate the corruption counter.
  store.invalidate(key_of("bad-image"));
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
}

TEST_F(StoreTest, UpdateStatsReplacesDocumentAndSurvivesRestart) {
  {
    artifact::ArtifactStore store({dir_, 0});
    publish_tagged(store, "stats");
    json::Value updated;
    updated["tag"] = json::Value("stats");
    updated["runs"] = json::Value(static_cast<std::uint64_t>(2));
    EXPECT_TRUE(store.update_stats(key_of("stats"), updated));
    EXPECT_EQ(store.stats().stats_updates, 1u);
    // Updating a non-resident key reports failure.
    EXPECT_FALSE(store.update_stats(key_of("nonexistent"), updated));
  }
  // The rewritten entry must verify after restart.
  artifact::ArtifactStore restarted({dir_, 0});
  const auto loaded = restarted.lookup(key_of("stats"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->stats.at("runs").as_u64(), 2u);
  EXPECT_EQ(restarted.stats().corrupt_dropped, 0u);
}

TEST_F(StoreTest, BudgetEvictsLeastRecentlyUsed) {
  artifact::ArtifactStore store({dir_, 2800});
  // Each entry is ~800 bytes of payload+meta; three fit, the fourth forces
  // an eviction of the least recently used.
  publish_tagged(store, "one", 400);
  publish_tagged(store, "two", 400);
  publish_tagged(store, "three", 400);
  ASSERT_EQ(store.stats().evictions, 0u);
  // Touch "one" so "two" becomes the LRU victim.
  ASSERT_TRUE(store.lookup(key_of("one")).has_value());
  publish_tagged(store, "four", 400);

  EXPECT_GE(store.stats().evictions, 1u);
  EXPECT_TRUE(store.lookup(key_of("one")).has_value());
  EXPECT_FALSE(store.lookup(key_of("two")).has_value());
  EXPECT_TRUE(store.lookup(key_of("four")).has_value());
  EXPECT_LE(store.stats().resident_bytes, 2800u);
}

TEST_F(StoreTest, BudgetAppliedWhenReindexing)  {
  {
    artifact::ArtifactStore store({dir_, 0});  // unlimited while filling
    for (const char* tag : {"r1", "r2", "r3", "r4", "r5", "r6"})
      publish_tagged(store, tag, 400);
  }
  artifact::ArtifactStore store({dir_, 1500});
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_LE(store.stats().resident_bytes, 1500u);
  EXPECT_LT(store.stats().resident_entries, 6u);
}

TEST_F(StoreTest, SameKeyPublishedAtOnceIsOneEntry) {
  artifact::ArtifactStore store({dir_, 0});
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      publish_tagged(store, "contended");
    });
  for (std::thread& t : threads) t.join();

  // Exactly one publication lands; every other one is a counted race, not
  // a second resident entry over the same file.
  const artifact::StoreStats s = store.stats();
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.resident_bytes, fs::file_size(entry_path("contended")));
  EXPECT_EQ(s.publishes + s.publish_races, static_cast<std::uint64_t>(kThreads));
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& f :
       fs::directory_iterator(entry_path("contended").parent_path()))
    ++files;
  EXPECT_EQ(files, 1u) << "temp files left behind";
  EXPECT_TRUE(store.lookup(key_of("contended")).has_value());
}

/// Rewrites every entry file under `dir` as the directory an earlier store
/// wrote for it (format 1): image.bin, annot.txt and stats.json, and a
/// pretty-printed meta document with each file's size and FNV-128. Returns
/// the number of entries rewritten.
std::size_t rewrite_as_format1(const std::string& dir) {
  std::size_t rewritten = 0;
  for (const auto& shard : fs::directory_iterator(dir)) {
    std::vector<fs::path> entries;
    for (const auto& entry : fs::directory_iterator(shard.path()))
      if (entry.is_regular_file()) entries.push_back(entry.path());
    for (const fs::path& path : entries) {
      std::ifstream in(path, std::ios::binary);
      const std::string file(std::istreambuf_iterator<char>(in), {});
      in.close();
      const std::size_t newline = file.find('\n');
      const json::Parsed meta = json::parse(file.substr(0, newline));
      if (!meta.ok()) return 0;
      json::Value old_meta;
      old_meta["format"] = json::Value(static_cast<std::int64_t>(1));
      old_meta["key"] = meta.value.at("key");
      old_meta["info"] = meta.value.at("info");
      fs::remove(path);
      fs::create_directory(path);
      std::size_t offset = newline + 1;
      const std::pair<const char*, const char*> payloads[] = {
          {"image", "image.bin"}, {"annot", "annot.txt"},
          {"stats", "stats.json"}};
      for (const auto& [stanza, name] : payloads) {
        const std::size_t bytes = meta.value.at(stanza).at("bytes").as_u64();
        const std::string content = file.substr(offset, bytes);
        offset += bytes;
        std::ofstream(path / name, std::ios::binary) << content;
        old_meta["files"][name]["bytes"] = json::Value(
            static_cast<std::uint64_t>(content.size()));
        old_meta["files"][name]["fnv128"] = json::Value(fnv128(content).hex());
      }
      std::ofstream(path / "meta", std::ios::binary) << old_meta.dump(1);
      ++rewritten;
    }
  }
  return rewritten;
}

TEST_F(StoreTest, FormatOneEntriesAreDroppedAtOpenAndRecompiled) {
  std::vector<minic::Program> programs;
  std::vector<driver::FleetUnit> units;
  const std::vector<dataflow::Node> nodes =
      dataflow::generate_suite(20110318, 2);
  programs.reserve(nodes.size());
  for (const dataflow::Node& node : nodes) {
    minic::Program& program = programs.emplace_back();
    program.name = node.name();
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    units.push_back({node.name(), &program, dataflow::step_function_name(node),
                     std::nullopt});
  }
  driver::FleetOptions options;
  options.jobs = 1;
  options.exec_cycles = 5;
  options.wcet = true;

  std::vector<std::string> cold;
  {
    artifact::ArtifactStore store({dir_, 0});
    options.store = &store;
    for (const driver::FleetRecord& r : driver::run_fleet(units, options).records)
      cold.push_back(driver::record_core_json(r).dump());
  }
  ASSERT_EQ(rewrite_as_format1(dir_), cold.size());

  // Opening the store drops every old-format entry and counts it.
  artifact::ArtifactStore store({dir_, 0});
  EXPECT_EQ(store.stats().resident_entries, 0u);
  EXPECT_EQ(store.stats().corrupt_dropped, cold.size());
  for (const auto& shard : fs::directory_iterator(dir_))
    for (const auto& entry : fs::directory_iterator(shard.path()))
      EXPECT_FALSE(entry.is_directory()) << entry.path();

  // The rerun recompiles every job to the same records and republishes.
  options.store = &store;
  const driver::FleetReport rerun = driver::run_fleet(units, options);
  EXPECT_EQ(rerun.cache_misses, cold.size());
  ASSERT_EQ(rerun.records.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(driver::record_core_json(rerun.records[i]).dump(), cold[i]);
  EXPECT_EQ(store.stats().publishes, cold.size());
}

}  // namespace
}  // namespace vc
