// vccd service contract: strict frame/request parsing against both daemon
// topologies (every malformed input gets one error reply and a dropped
// connection — the daemon never crashes), one status schema for both, the
// latency histogram, vccd's flag ranges, the incremental-recompilation memo,
// a shard killed mid-campaign, and the determinism soak — the same 200-job
// mix submitted through one client, eight concurrent clients, and a spawned
// `vccd --shards=4` supervisor must yield byte-identical record documents
// and identical certificate counts. Complements bench_service (cold/warm/
// restart/kill-one-shard arms against the serial reference) and
// vcc_cli_test (local batch CLI).
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/fleet.hpp"
#include "minic/printer.hpp"
#include "minic/typecheck.hpp"
#include "service/client.hpp"
#include "service/frontend.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

#ifndef VCFLIGHT_VCCD_PATH
#define VCFLIGHT_VCCD_PATH "vccd"
#endif

namespace vc {
namespace {

std::string unique_socket(const char* tag) {
  static int counter = 0;
  return "/tmp/vcsvc-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter++) + ".sock";
}

/// In-process daemon: the front end over a ServiceServer, serve() on a
/// thread, drained in stop().
class InProcessServer {
 public:
  explicit InProcessServer(const char* tag,
                           service::ServerOptions options = {})
      : socket_(unique_socket(tag)), frontend_(socket_) {
    std::string error;
    const bool started = frontend_.start(&error);
    EXPECT_TRUE(started) << error;
    if (!started) return;
    backend_ = std::make_unique<service::ServiceServer>(&frontend_,
                                                        std::move(options));
    thread_ = std::thread(
        [this] { exit_code_ = frontend_.serve(backend_.get()); });
  }

  ~InProcessServer() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    frontend_.request_drain();
    thread_.join();
    EXPECT_EQ(exit_code_, 0);
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  service::Frontend frontend_;
  std::unique_ptr<service::ServiceServer> backend_;
  int exit_code_ = -1;
  std::thread thread_;
};

/// A spawned `vccd --shards=N` supervisor, drained by stop() (or by the
/// destructor if a test bailed out first, so no shard outlives the test).
class ShardedDaemon {
 public:
  ShardedDaemon(const char* tag, int shards)
      : socket_(unique_socket(tag)),
        pid_(service::spawn_daemon(
            VCFLIGHT_VCCD_PATH,
            {"--socket=" + socket_, "--shards=" + std::to_string(shards)})) {
    ready_ = pid_ > 0 && service::wait_until_ready(socket_, 30.0);
  }

  ~ShardedDaemon() {
    if (pid_ > 0) stop();
  }
  ShardedDaemon(const ShardedDaemon&) = delete;
  ShardedDaemon& operator=(const ShardedDaemon&) = delete;

  /// SIGTERM drain; the supervisor's exit code.
  int stop() {
    const int code = service::terminate_daemon(pid_, 60.0);
    pid_ = -1;
    return code;
  }

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_;
  bool ready_ = false;
};

json::Value op(const char* name) {
  json::Value doc;
  doc["op"] = json::Value(name);
  return doc;
}

/// The daemon's status document, fetched over a fresh connection.
json::Value query_status(const std::string& socket) {
  service::ServiceClient client;
  if (!client.connect(socket)) return json::Value();
  const auto reply = client.call(op("status"));
  return reply.has_value() ? reply->at("status") : json::Value();
}

/// One frame, little-endian length prefix + payload, as raw bytes.
std::string framed(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out += payload;
  return out;
}

std::string raw_header(std::uint32_t n) {
  std::string out;
  out.push_back(static_cast<char>(n & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  return out;
}

void raw_send(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// The strict-protocol contract: the daemon answers `bytes` with exactly
/// one {"ok":false,...} frame, drops the connection, and keeps serving
/// other clients.
void expect_error_then_drop(const std::string& socket,
                            const std::string& bytes,
                            const std::string& names = "") {
  const int fd = service::connect_unix(socket);
  ASSERT_GE(fd, 0);
  raw_send(fd, bytes);
  const service::Frame reply = service::read_frame(fd);
  ASSERT_EQ(reply.status, service::Frame::Status::Ok) << reply.error;
  const json::Parsed parsed = json::parse(reply.payload);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_FALSE(parsed.value.at("ok").as_bool(true));
  EXPECT_FALSE(parsed.value.at("error").as_string().empty());
  EXPECT_NE(parsed.value.at("error").as_string().find(names),
            std::string::npos)
      << parsed.value.at("error").as_string();
  // The connection is dropped after the error frame.
  const service::Frame next = service::read_frame(fd);
  EXPECT_EQ(next.status, service::Frame::Status::Eof);
  ::close(fd);
  // ...and the daemon is still alive for well-formed clients.
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(socket));
  const auto pong = client.call(op("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("pong").as_bool());
}

enum class Topology { InProcess, Sharded };

/// The malformed-input cases run against both daemon topologies: a fresh
/// in-process server per case, and one spawned `vccd --shards=2` shared by
/// every case (which must still drain-exit 0 at the end).
class ServiceProtocolTest : public ::testing::TestWithParam<Topology> {
 protected:
  static void TearDownTestSuite() {
    if (sharded_ != nullptr) {
      EXPECT_EQ(sharded_->stop(), 0);
    }
    sharded_.reset();
  }

  const std::string& socket() {
    if (GetParam() == Topology::InProcess) {
      if (local_ == nullptr) local_ = std::make_unique<InProcessServer>("proto");
      return local_->socket();
    }
    if (sharded_ == nullptr) {
      sharded_ = std::make_unique<ShardedDaemon>("proto-shards", 2);
      EXPECT_TRUE(sharded_->ready());
    }
    return sharded_->socket();
  }

 private:
  std::unique_ptr<InProcessServer> local_;
  static std::unique_ptr<ShardedDaemon> sharded_;
};

std::unique_ptr<ShardedDaemon> ServiceProtocolTest::sharded_;

INSTANTIATE_TEST_SUITE_P(
    Topologies, ServiceProtocolTest,
    ::testing::Values(Topology::InProcess, Topology::Sharded),
    [](const ::testing::TestParamInfo<Topology>& info) {
      return info.param == Topology::InProcess ? "InProcess" : "Sharded";
    });

TEST_P(ServiceProtocolTest, PingAndStatusRoundTrip) {
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(socket()));
  const auto pong = client.call(op("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("ok").as_bool());
  EXPECT_TRUE(pong->at("pong").as_bool());

  const auto status = client.call(op("status"));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->at("ok").as_bool());
  const json::Value& doc = status->at("status");
  EXPECT_GE(doc.at("requests").as_u64(), 1u);
  EXPECT_EQ(doc.at("queue_depth").as_u64(), 0u);
  EXPECT_GE(doc.at("uptime_seconds").as_double(), 0.0);
  EXPECT_TRUE(doc.at("cache").is_object());
}

TEST_P(ServiceProtocolTest, MalformedJsonGetsErrorAndDrop) {
  expect_error_then_drop(socket(), framed("this is not json {{"));
}

TEST_P(ServiceProtocolTest, ZeroLengthFrameIsRejected) {
  expect_error_then_drop(socket(), raw_header(0));
}

TEST_P(ServiceProtocolTest, OversizeLengthIsRejected) {
  expect_error_then_drop(socket(),
                         raw_header(service::kMaxFrameBytes + 1));
}

TEST_P(ServiceProtocolTest, NonObjectPayloadIsRejected) {
  expect_error_then_drop(socket(), framed("[1,2,3]"));
}

TEST_P(ServiceProtocolTest, UnknownOpIsRejected) {
  expect_error_then_drop(socket(), framed("{\"op\":\"frobnicate\"}"));
}

TEST_P(ServiceProtocolTest, IllTypedFieldsAreRejected) {
  // Non-string source.
  expect_error_then_drop(socket(),
                         framed("{\"op\":\"job\",\"id\":1,\"source\":12}"));
  // Job without an integer id.
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"source\":\"func f64 f(f64 x){return x;}\"}"));
  // Ill-typed run parameter.
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"exec_cycles\":\"nope\"}"));
  // Unknown config name.
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"config\":\"O9\"}"));
}

TEST_P(ServiceProtocolTest, UnknownJobKeysAreRejectedByName) {
  // A typo'd knob must not silently run the default (structural) engine.
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"wcet_engin\":\"ipet\"}"),
      "'wcet_engin'");
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"bogus_field\":3}"),
      "'bogus_field'");
  // Known keys with ill-typed or unknown values are named too.
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"disable_passes\":\"cse\"}"),
      "'disable_passes'");
  expect_error_then_drop(
      socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"disable_passes\":[\"ssa-gnv\"]}"),
      "unknown pass 'ssa-gnv'");
}

TEST_P(ServiceProtocolTest, TruncatedFrameDoesNotCrashTheDaemon) {
  const int fd = service::connect_unix(socket());
  ASSERT_GE(fd, 0);
  // Header promises 100 bytes; deliver 10 and vanish.
  raw_send(fd, raw_header(100));
  raw_send(fd, "0123456789");
  ::close(fd);
  // Partial header, then vanish.
  const int fd2 = service::connect_unix(socket());
  ASSERT_GE(fd2, 0);
  raw_send(fd2, "\x07");
  ::close(fd2);
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(socket()));
  const auto pong = client.call(op("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("pong").as_bool());
}

// --- determinism soak ------------------------------------------------------

struct SuiteJob {
  service::JobRequest request;  // id stamped at submission time
};

/// The 200-job mix: 25 generated filter nodes x all four configurations x
/// two input seeds, every job running execution + both WCET engines.
std::vector<SuiteJob> make_job_mix() {
  const std::vector<dataflow::Node> nodes = dataflow::generate_suite(42, 25);
  std::vector<SuiteJob> jobs;
  jobs.reserve(nodes.size() * 4 * 2);
  for (const dataflow::Node& node : nodes) {
    minic::Program program;
    dataflow::generate_node(node, &program);
    minic::type_check(program);
    const std::string source = minic::print_program(program);
    const std::string entry = dataflow::step_function_name(node);
    for (const driver::Config config : driver::kAllConfigs) {
      for (int seed = 0; seed < 2; ++seed) {
        SuiteJob job;
        job.request.name = node.name();
        job.request.source = source;
        job.request.entry = entry;
        job.request.config = config;
        job.request.exec_cycles = 20;
        job.request.wcet = true;
        job.request.wcet_engine = wcet::WcetEngine::Both;
        job.request.input_seed =
            driver::fleet_job_seed(7, static_cast<std::size_t>(seed));
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

struct SoakOutcome {
  // job id -> canonical record document (json::Object is ordered, so
  // dump() is a byte-stable canonical form).
  std::map<std::int64_t, std::string> records;
  std::size_t certified = 0;
  std::size_t failures = 0;
};

/// Submits every job (ids = indices) across `n_clients` pipelined
/// connections, stride-sliced like the bench does.
SoakOutcome submit_jobs(const std::string& socket,
                        const std::vector<SuiteJob>& jobs, int n_clients) {
  SoakOutcome out;
  std::mutex merge_mutex;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(n_clients));
  for (int c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      service::ServiceClient client;
      if (!client.connect(socket)) {
        std::lock_guard<std::mutex> lock(merge_mutex);
        out.failures += 1;
        return;
      }
      std::size_t sent = 0;
      for (std::size_t i = static_cast<std::size_t>(c); i < jobs.size();
           i += static_cast<std::size_t>(n_clients)) {
        service::JobRequest request = jobs[i].request;
        request.id = static_cast<std::int64_t>(i);
        if (client.send(service::job_to_json(request))) ++sent;
      }
      std::map<std::int64_t, std::string> local;
      std::size_t local_certified = 0;
      std::size_t local_failures = 0;
      for (std::size_t r = 0; r < sent; ++r) {
        const auto reply = client.recv();
        if (!reply.has_value() || !reply->at("ok").as_bool(false)) {
          ++local_failures;
          continue;
        }
        const json::Value& record = reply->at("record");
        if (!record.at("ok").as_bool(false)) ++local_failures;
        if (record.at("wcet_ipet_certified").as_bool(false))
          ++local_certified;
        local.emplace(reply->at("id").as_i64(), record.dump());
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      out.records.insert(local.begin(), local.end());
      out.certified += local_certified;
      out.failures += local_failures;
    });
  }
  for (std::thread& t : clients) t.join();
  return out;
}

TEST(ServiceSoakTest, TwoHundredJobMixIsDeterministicAcrossTopologies) {
  const std::vector<SuiteJob> jobs = make_job_mix();
  ASSERT_EQ(jobs.size(), 200u);

  // Way 1: one client, one in-process daemon.
  SoakOutcome serial;
  {
    InProcessServer server("soak1");
    serial = submit_jobs(server.socket(), jobs, 1);
  }
  EXPECT_EQ(serial.failures, 0u);
  ASSERT_EQ(serial.records.size(), jobs.size());
  EXPECT_GT(serial.certified, 0u);

  // Way 2: eight concurrent pipelined clients against a fresh daemon —
  // batching and reply interleaving must not leak into the records.
  SoakOutcome concurrent;
  {
    InProcessServer server("soak8");
    concurrent = submit_jobs(server.socket(), jobs, 8);
  }
  EXPECT_EQ(concurrent.failures, 0u);
  ASSERT_EQ(concurrent.records.size(), jobs.size());
  EXPECT_EQ(concurrent.certified, serial.certified);
  EXPECT_TRUE(concurrent.records == serial.records)
      << "concurrent-client records diverge from the serial reference";

  // Way 3: a spawned `vccd --shards=4` supervisor: round-robin forwarding
  // across four worker processes must still be invisible in the records.
  ShardedDaemon daemon("soak-shards", 4);
  ASSERT_TRUE(daemon.ready());
  const SoakOutcome sharded = submit_jobs(daemon.socket(), jobs, 8);
  EXPECT_EQ(daemon.stop(), 0) << "sharded daemon failed to drain-exit 0";
  EXPECT_EQ(sharded.failures, 0u);
  ASSERT_EQ(sharded.records.size(), jobs.size());
  EXPECT_EQ(sharded.certified, serial.certified);
  EXPECT_TRUE(sharded.records == serial.records)
      << "sharded records diverge from the serial reference";
}

TEST(ServiceIncrementalTest, ResubmissionIsAnsweredFromTheMemo) {
  InProcessServer server("memo");
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));

  service::JobRequest request;
  request.id = 1;
  request.name = "lowpass";
  request.source = "func f64 lowpass(f64 x) { return 0.2 * x; }\n";
  request.entry = "lowpass";
  request.exec_cycles = 10;
  request.wcet = true;
  request.wcet_engine = wcet::WcetEngine::Both;

  const auto first = client.call(service::job_to_json(request));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->at("ok").as_bool(false));
  EXPECT_NE(first->at("cache").as_string(), "incremental");

  request.id = 2;
  const auto second = client.call(service::job_to_json(request));
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->at("ok").as_bool(false));
  EXPECT_EQ(second->at("cache").as_string(), "incremental");
  EXPECT_EQ(second->at("id").as_i64(), 2);
  // The memoized record is byte-identical to the compiled one.
  EXPECT_EQ(second->at("record").dump(), first->at("record").dump());

  // A different seed is a different dependency hash: no false sharing.
  request.id = 3;
  request.input_seed = 99;
  const auto third = client.call(service::job_to_json(request));
  ASSERT_TRUE(third.has_value());
  ASSERT_TRUE(third->at("ok").as_bool(false));
  EXPECT_NE(third->at("cache").as_string(), "incremental");
}

// A batch of memo hits only is sent at once: behind a fixed 5 ms gather
// window twenty serial resubmissions would take at least 100 ms; they take
// about 2 ms. The 60 ms bar leaves a wide margin for a loaded host.
TEST(ServiceIncrementalTest, SerialMemoHitsSkipTheGatherWindow) {
  InProcessServer server("memofast");
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));

  service::JobRequest request;
  request.id = 0;
  request.name = "lowpass";
  request.source = "func f64 lowpass(f64 x) { return 0.2 * x; }\n";
  request.entry = "lowpass";
  request.exec_cycles = 10;
  const auto first = client.call(service::job_to_json(request));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->at("ok").as_bool(false));

  constexpr int kHits = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= kHits; ++i) {
    request.id = i;
    const auto reply = client.call(service::job_to_json(request));
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->at("cache").as_string(), "incremental");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(60))
      << kHits << " serial memo hits took "
      << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
}

/// A small job whose source differs per `k`: each one is a memo miss.
service::JobRequest distinct_miss(int k) {
  service::JobRequest request;
  request.id = k;
  request.name = "lowpass";
  request.source = "func f64 lowpass(f64 x) { return " + std::to_string(k) +
                   ".0 * x; }\n";
  request.entry = "lowpass";
  request.exec_cycles = 10;
  return request;
}

// A batch holding a miss waits only while a queued job's connection is
// still being read. A closed-loop client has nothing more in flight, so
// each miss goes to the fleet after two idle checks 100 us apart. Each job
// here names an undeclared variable: a miss that fails its type check,
// which the batcher takes exactly like a compile, at no compile cost (a
// compiled miss takes about 4 ms under the address sanitizer, close to the
// old window itself). Behind a fixed 5 ms gather window twenty serial
// misses take at least 100 ms, so any bar below that fails it; they take
// about 7 ms here and 35-50 ms under the address sanitizer, and the 80 ms
// bar leaves room for a loaded host.
TEST(ServiceIncrementalTest, SerialMissesSkipTheGatherWindow) {
  InProcessServer server("missfast");
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));

  constexpr int kMisses = 20;
  const auto start = std::chrono::steady_clock::now();
  for (int k = 1; k <= kMisses; ++k) {
    service::JobRequest request = distinct_miss(k);
    request.source = "func f64 lowpass(f64 x) { return " + std::to_string(k) +
                     ".0 * undeclared; }\n";
    const auto reply = client.call(service::job_to_json(request));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->at("ok").as_bool(false));
    ASSERT_EQ(reply->at("cache").as_string(), "miss");
    ASSERT_FALSE(reply->at("record").at("ok").as_bool(true));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(80))
      << kMisses << " serial misses took "
      << std::chrono::duration<double, std::milli>(elapsed).count() << " ms";
}

// The other half of the gather rule: a pipelined burst of misses written
// with one write() is still compiled as one batch, because the batcher
// keeps gathering while the burst's bytes are being read. A batcher that
// never waited would take the first job alone and split the burst.
TEST(ServiceIncrementalTest, PipelinedMissBurstIsOneBatch) {
  InProcessServer server("missburst");
  const std::uint64_t before =
      query_status(server.socket()).at("batches").as_u64();

  constexpr int kBurst = 8;
  std::string bytes;
  for (int k = 1; k <= kBurst; ++k)
    bytes += framed(service::job_to_json(distinct_miss(k)).dump());
  const int fd = service::connect_unix(server.socket());
  ASSERT_GE(fd, 0);
  raw_send(fd, bytes);
  std::set<std::int64_t> ids;
  for (int k = 0; k < kBurst; ++k) {
    const service::Frame frame = service::read_frame(fd);
    ASSERT_EQ(frame.status, service::Frame::Status::Ok) << frame.error;
    const json::Parsed reply = json::parse(frame.payload);
    ASSERT_TRUE(reply.ok()) << reply.error;
    ASSERT_TRUE(reply.value.at("ok").as_bool(false));
    EXPECT_EQ(reply.value.at("cache").as_string(), "miss");
    ids.insert(reply.value.at("id").as_i64());
  }
  ::close(fd);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(query_status(server.socket()).at("batches").as_u64(), before + 1);
}

// The memo holds a byte budget with least-recently-used eviction. With
// room for two records, three distinct misses evict the first; then the
// newest resubmission is a memo hit and the oldest is compiled again.
TEST(ServiceIncrementalTest, MemoBudgetEvictsTheLeastRecentlyUsedRecord) {
  // One record's memo cost, measured on a server with the default budget.
  std::uint64_t entry_bytes = 0;
  {
    InProcessServer probe("memoprobe");
    service::ServiceClient client;
    ASSERT_TRUE(client.connect(probe.socket()));
    ASSERT_TRUE(client.call(service::job_to_json(distinct_miss(1))));
    const json::Value status = query_status(probe.socket());
    ASSERT_EQ(status.at("memo_entries").as_u64(), 1u);
    entry_bytes = status.at("memo_bytes").as_u64();
  }
  ASSERT_GT(entry_bytes, 0u);

  service::ServerOptions options;
  options.memo_budget_bytes = entry_bytes * 5 / 2;
  InProcessServer server("memobudget", options);
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));
  const auto submit = [&client](int k, std::int64_t id) {
    service::JobRequest request = distinct_miss(k);
    request.id = id;
    const auto reply = client.call(service::job_to_json(request));
    EXPECT_TRUE(reply.has_value() && reply->at("ok").as_bool(false));
    return reply.has_value() ? reply->at("cache").as_string() : "";
  };
  for (int k = 1; k <= 3; ++k) EXPECT_EQ(submit(k, k), "miss");
  const json::Value full = query_status(server.socket());
  EXPECT_EQ(full.at("memo_entries").as_u64(), 2u);
  EXPECT_EQ(full.at("memo_evictions").as_u64(), 1u);
  EXPECT_LE(full.at("memo_bytes").as_u64(), options.memo_budget_bytes);

  EXPECT_EQ(submit(3, 4), "incremental");  // newest
  EXPECT_EQ(submit(1, 5), "miss");         // oldest: evicted
  EXPECT_EQ(query_status(server.socket()).at("memo_evictions").as_u64(), 2u);
}

// Regression: the warm-campaign pipelining deadlock. Memo-hit replies used
// to be sent inline on the connection's read thread (holding the memo
// mutex); a client that pipelined a resubmission burst larger than the
// kernel socket buffers without draining any reply wedged the daemon — the
// reader blocked in send(), stopped reading, both buffers filled, and the
// client's own send blocked too. Replies now always originate on the
// batcher thread, so the reader keeps draining and the burst completes.
TEST(ServiceIncrementalTest, PipelinedMemoBurstDoesNotDeadlock) {
  InProcessServer server("memoburst");

  const std::vector<dataflow::Node> nodes = dataflow::generate_suite(42, 1);
  minic::Program program;
  dataflow::generate_node(nodes[0], &program);
  minic::type_check(program);

  service::JobRequest request;
  request.name = nodes[0].name();
  request.source = minic::print_program(program);
  request.entry = dataflow::step_function_name(nodes[0]);
  request.exec_cycles = 5;

  // Compile once so every burst job below is a memo hit.
  service::ServiceClient warmup;
  ASSERT_TRUE(warmup.connect(server.socket()));
  request.id = 0;
  const auto first = warmup.call(service::job_to_json(request));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->at("ok").as_bool(false));

  // Pipeline far more request/reply bytes than the socket buffers hold,
  // without reading a single reply until everything has been sent.
  constexpr int kBurst = 1200;
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));
  for (int i = 1; i <= kBurst; ++i) {
    request.id = i;
    ASSERT_TRUE(client.send(service::job_to_json(request)));
  }
  std::set<std::int64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->at("ok").as_bool(false));
    EXPECT_EQ(reply->at("cache").as_string(), "incremental");
    EXPECT_EQ(reply->at("record").dump(), first->at("record").dump());
    ids.insert(reply->at("id").as_i64());
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kBurst));
}

// Sharded resubmission: the supervisor keeps no record memo of its own
// (its readers must never send — see supervisor.cpp), so an incremental
// hit through `--shards=N` only happens because the placement map routes
// the repeat back to the shard whose memo already holds it.
TEST(ServiceIncrementalTest, ShardedResubmissionHitsTheOwningShardsMemo) {
  ShardedDaemon daemon("shardmemo", 2);
  ASSERT_TRUE(daemon.ready());
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(daemon.socket()));

  service::JobRequest request;
  request.id = 1;
  request.name = "gain";
  request.source = "func f64 gain(f64 x) { return 3.0 * x; }\n";
  request.entry = "gain";
  request.exec_cycles = 5;

  const auto first = client.call(service::job_to_json(request));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->at("ok").as_bool(false));
  EXPECT_NE(first->at("cache").as_string(), "incremental");

  request.id = 2;
  const auto second = client.call(service::job_to_json(request));
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(second->at("ok").as_bool(false));
  EXPECT_EQ(second->at("cache").as_string(), "incremental");
  EXPECT_EQ(second->at("record").dump(), first->at("record").dump());

  EXPECT_EQ(daemon.stop(), 0);
}

// Ablation arms over vccd: a disable_passes job is its own job. It runs the
// ablated pipeline (the in-process run_fleet record, byte for byte), and
// the full-pipeline memo entry for the same source must not answer it.
TEST(ServiceIncrementalTest, AblatedJobIsServedAsItsOwnJob) {
  InProcessServer server("ablation");
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));

  const std::vector<dataflow::Node> nodes = dataflow::generate_suite(42, 1);
  minic::Program program;
  dataflow::generate_node(nodes[0], &program);
  minic::type_check(program);

  service::JobRequest request;
  request.id = 1;
  request.name = nodes[0].name();
  request.source = minic::print_program(program);
  request.entry = dataflow::step_function_name(nodes[0]);
  request.exec_cycles = 10;
  request.wcet = true;
  request.input_seed = 5;
  const auto full = client.call(service::job_to_json(request));
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(full->at("ok").as_bool(false));

  request.id = 2;
  request.disable_passes = {"cse", "constprop", "dce"};
  const auto ablated = client.call(service::job_to_json(request));
  ASSERT_TRUE(ablated.has_value());
  ASSERT_TRUE(ablated->at("ok").as_bool(false)) << ablated->dump();
  EXPECT_NE(ablated->at("cache").as_string(), "incremental");
  EXPECT_NE(ablated->at("record").dump(), full->at("record").dump());

  driver::FleetOptions options;
  static_cast<driver::RunSpec&>(options) = request;
  options.jobs = 1;
  options.configs = {request.config};
  const driver::FleetReport reference = driver::run_fleet(
      {{request.name, &program, request.entry, request.input_seed}},
      options);
  ASSERT_EQ(reference.records.size(), 1u);
  EXPECT_TRUE(reference.records[0].ok) << reference.records[0].error;
  EXPECT_EQ(ablated->at("record").dump(),
            driver::record_core_json(reference.records[0]).dump());
}

TEST(ServiceIncrementalTest, FailedParseIsReportedPerJobNotAsProtocolError) {
  InProcessServer server("badjob");
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));
  service::JobRequest request;
  request.id = 7;
  request.name = "broken";
  request.source = "func f64 broken(f64 x) { return undeclared_name; }\n";
  const auto reply = client.call(service::job_to_json(request));
  ASSERT_TRUE(reply.has_value());
  // The job failed, but the protocol succeeded: ok record with ok=false.
  ASSERT_TRUE(reply->at("ok").as_bool(false));
  EXPECT_FALSE(reply->at("record").at("ok").as_bool(true));
  EXPECT_FALSE(reply->at("record").at("error").as_string().empty());
  // The connection survives a failed job (unlike a malformed frame).
  const auto pong = client.call(op("ping"));
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("pong").as_bool());
}

// --- one status schema, bounded latency ----------------------------------

/// One job submitted three times (a compile, then two memo hits); returns
/// the daemon's status afterwards.
json::Value status_after_three_submissions(const std::string& socket) {
  service::ServiceClient client;
  EXPECT_TRUE(client.connect(socket));
  service::JobRequest request;
  request.name = "envelope";
  request.source = "func f64 envelope(f64 x) { return 0.5 * x + 1.0; }\n";
  request.entry = "envelope";
  request.exec_cycles = 5;
  for (std::int64_t id = 1; id <= 3; ++id) {
    request.id = id;
    const auto reply = client.call(service::job_to_json(request));
    EXPECT_TRUE(reply.has_value() && reply->at("ok").as_bool(false));
  }
  return query_status(socket);
}

std::set<std::string> keys_of(const json::Value& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.as_object()) keys.insert(key);
  return keys;
}

// Both topologies serve through one front end, so their status documents
// share one schema: the same cache taxonomy and latency entries, counted by
// the same completion path.
TEST(ServiceStatusTest, BothTopologiesReportOneCacheAndLatencySchema) {
  InProcessServer server("schema");
  const json::Value single = status_after_three_submissions(server.socket());
  ShardedDaemon daemon("schema-shards", 2);
  ASSERT_TRUE(daemon.ready());
  const json::Value sharded = status_after_three_submissions(daemon.socket());
  EXPECT_EQ(daemon.stop(), 0);

  const std::set<std::string> cache_keys = {"full", "image", "incremental",
                                            "miss"};
  EXPECT_EQ(keys_of(single.at("cache")), cache_keys);
  EXPECT_EQ(keys_of(sharded.at("cache")), cache_keys);
  for (const json::Value* status : {&single, &sharded}) {
    EXPECT_EQ(status->at("cache").at("incremental").as_u64(), 2u);
    EXPECT_EQ(status->at("cache").at("miss").as_u64(), 1u);
    EXPECT_EQ(status->at("jobs_completed").as_u64(), 3u);
  }
  ASSERT_EQ(keys_of(single.at("latency")), keys_of(sharded.at("latency")));
  for (const auto& [job_class, entry] : single.at("latency").as_object()) {
    EXPECT_EQ(keys_of(entry), keys_of(sharded.at("latency").at(job_class)));
    EXPECT_EQ(entry.at("count").as_u64(), 3u);
  }
  // The backend-specific fields stay with their backend.
  EXPECT_FALSE(single.at("batches").is_null());
  EXPECT_TRUE(sharded.at("batches").is_null());
  EXPECT_EQ(sharded.at("mode").as_string(), "supervisor");
  EXPECT_EQ(sharded.at("shard_list").as_array().size(), 2u);
}

TEST(ServiceStatusTest, LatencyHistogramCountsExactlyAndQuantilesWithinABucket) {
  service::LatencyHistogram histogram;
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
  // Log-uniform samples from 20 us to 2 s.
  Rng rng(20110318);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i)
    samples.push_back(20e-6 * std::pow(1e5, rng.next_unit()));
  for (const double s : samples) histogram.add(s);
  EXPECT_EQ(histogram.count(), samples.size());
  std::sort(samples.begin(), samples.end());
  for (const double p : {0.5, 0.99}) {
    const double exact = samples[std::min(
        samples.size() - 1, static_cast<std::size_t>(p * samples.size()))];
    const double buckets_off = std::abs(std::log2(histogram.quantile(p) / exact)) *
                               service::LatencyHistogram::kBucketsPerOctave;
    EXPECT_LE(buckets_off, 1.0) << "p" << p;
  }
  // Samples outside 1 us .. 100 s land in the end buckets, still counted.
  service::LatencyHistogram edges;
  for (const double s : {0.0, 1e-9, 1e4}) edges.add(s);
  EXPECT_EQ(edges.count(), 3u);
  EXPECT_LT(edges.quantile(0.0), 2e-6);
  EXPECT_GT(edges.quantile(1.0), 50.0);
}

// --- vccd flags ------------------------------------------------------------

/// Runs vccd with `args`; its exit code and merged output. An accepted
/// flag set starts a daemon that never exits, so it is killed after 10 s.
std::pair<int, std::string> run_vccd(const std::string& args) {
  const std::string cmd = std::string("timeout -s KILL 10 \"") +
                          VCFLIGHT_VCCD_PATH + "\" " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

// Count flags are parsed by the one bounded parser: a value past its range
// is rejected by name, never truncated into a running daemon.
TEST(VccdFlagsTest, OutOfRangeCountsExitTwoNamingTheFlag) {
  for (const std::string flag :
       {"--jobs=4294967297", "--cache-budget-mb=99999999999", "--jobs=-1",
        "--shards=65", "--shard-index=-1", "--jobs=4x"}) {
    const auto [code, out] =
        run_vccd("--socket=" + unique_socket("flags") + " " + flag);
    EXPECT_EQ(code, 2) << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(out.find("bad " + name + " value"), std::string::npos) << out;
  }
}

// --- shard restart ---------------------------------------------------------

// A shard SIGKILLed while jobs are pending: the supervisor respawns it and
// resubmits its pending table, so every job is answered exactly once, the
// restart is counted, and every shard is up again.
TEST(ServiceShardTest, KilledShardIsRespawnedAndEveryJobAnsweredOnce) {
  ShardedDaemon daemon("kill", 2);
  ASSERT_TRUE(daemon.ready());
  const json::Value before = query_status(daemon.socket());
  const pid_t victim = static_cast<pid_t>(
      before.at("shard_list").as_array().at(0).at("pid").as_i64());
  ASSERT_GT(victim, 0);

  std::vector<SuiteJob> jobs = make_job_mix();
  jobs.resize(40);
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(daemon.socket()));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].request.id = static_cast<std::int64_t>(i);
    ASSERT_TRUE(client.send(service::job_to_json(jobs[i].request)));
  }
  // Kill the victim once its pending table holds work.
  bool pending = false;
  for (int i = 0; i < 200 && !pending; ++i)
    pending = query_status(daemon.socket())
                  .at("shard_list").as_array().at(0).at("pending")
                  .as_u64() > 0;
  ASSERT_TRUE(pending);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  std::multiset<std::int64_t> ids;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto reply = client.recv();
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->at("ok").as_bool(false)) << reply->dump();
    EXPECT_TRUE(reply->at("record").at("ok").as_bool(false));
    ids.insert(reply->at("id").as_i64());
  }
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(ids.count(static_cast<std::int64_t>(i)), 1u) << "job " << i;

  // The respawn may still be settling after the last reply.
  json::Value status;
  const auto all_up = [&status] {
    for (const json::Value& shard : status.at("shard_list").as_array())
      if (!shard.at("up").as_bool(false)) return false;
    return true;
  };
  for (int i = 0; i < 100; ++i) {
    status = query_status(daemon.socket());
    if (status.at("shard_restarts").as_u64() >= 1 && all_up()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(status.at("shard_restarts").as_u64(), 1u);
  EXPECT_TRUE(all_up()) << status.dump();
  EXPECT_NE(status.at("shard_list").as_array().at(0).at("pid").as_i64(),
            victim);
  EXPECT_EQ(daemon.stop(), 0);
}

}  // namespace
}  // namespace vc
