// vccd service contract: strict frame/request parsing (every malformed
// input gets one error reply and a dropped connection — the daemon never
// crashes), the incremental-recompilation memo, and the determinism soak —
// the same 200-job mix submitted through one client, eight concurrent
// clients, and a spawned `vccd --shards=4` supervisor must yield
// byte-identical record documents and identical certificate counts.
// Complements bench_service (cold/warm/restart/kill-one-shard arms against
// the serial reference) and vcc_cli_test (local batch CLI).
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
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
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/json.hpp"

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

/// In-process daemon: start() + serve() on a thread, drained in stop().
class InProcessServer {
 public:
  explicit InProcessServer(const char* tag)
      : socket_(unique_socket(tag)) {
    service::ServerOptions options;
    options.socket_path = socket_;
    server_ = std::make_unique<service::ServiceServer>(options);
    std::string error;
    started_ = server_->start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) thread_ = std::thread([this] { exit_code_ = server_->serve(); });
  }

  ~InProcessServer() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    server_->request_drain();
    thread_.join();
    EXPECT_EQ(exit_code_, 0);
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  std::unique_ptr<service::ServiceServer> server_;
  bool started_ = false;
  int exit_code_ = -1;
  std::thread thread_;
};

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
  json::Value ping;
  ping["op"] = json::Value("ping");
  const auto pong = client.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("pong").as_bool());
}

TEST(ServiceProtocolTest, PingAndStatusRoundTrip) {
  InProcessServer server("ping");
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));
  json::Value ping;
  ping["op"] = json::Value("ping");
  const auto pong = client.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("ok").as_bool());
  EXPECT_TRUE(pong->at("pong").as_bool());

  json::Value status_req;
  status_req["op"] = json::Value("status");
  const auto status = client.call(status_req);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->at("ok").as_bool());
  const json::Value& doc = status->at("status");
  EXPECT_GE(doc.at("requests").as_u64(), 1u);
  EXPECT_EQ(doc.at("queue_depth").as_u64(), 0u);
  EXPECT_GE(doc.at("uptime_seconds").as_double(), 0.0);
  EXPECT_TRUE(doc.at("cache").is_object());
}

TEST(ServiceProtocolTest, MalformedJsonGetsErrorAndDrop) {
  InProcessServer server("badjson");
  expect_error_then_drop(server.socket(), framed("this is not json {{"));
}

TEST(ServiceProtocolTest, ZeroLengthFrameIsRejected) {
  InProcessServer server("zerolen");
  expect_error_then_drop(server.socket(), raw_header(0));
}

TEST(ServiceProtocolTest, OversizeLengthIsRejected) {
  InProcessServer server("oversize");
  expect_error_then_drop(server.socket(),
                         raw_header(service::kMaxFrameBytes + 1));
}

TEST(ServiceProtocolTest, NonObjectPayloadIsRejected) {
  InProcessServer server("nonobject");
  expect_error_then_drop(server.socket(), framed("[1,2,3]"));
}

TEST(ServiceProtocolTest, UnknownOpIsRejected) {
  InProcessServer server("unknownop");
  expect_error_then_drop(server.socket(), framed("{\"op\":\"frobnicate\"}"));
}

TEST(ServiceProtocolTest, IllTypedFieldsAreRejected) {
  InProcessServer server("illtyped");
  // Non-string source.
  expect_error_then_drop(server.socket(),
                         framed("{\"op\":\"job\",\"id\":1,\"source\":12}"));
  // Job without an integer id.
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"source\":\"func f64 f(f64 x){return x;}\"}"));
  // Ill-typed run parameter.
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"exec_cycles\":\"nope\"}"));
  // Unknown config name.
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"config\":\"O9\"}"));
}

TEST(ServiceProtocolTest, UnknownJobKeysAreRejectedByName) {
  InProcessServer server("unknownkey");
  // A typo'd knob must not silently run the default (structural) engine.
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"wcet_engin\":\"ipet\"}"),
      "'wcet_engin'");
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"bogus_field\":3}"),
      "'bogus_field'");
  // Known keys with ill-typed or unknown values are named too.
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"disable_passes\":\"cse\"}"),
      "'disable_passes'");
  expect_error_then_drop(
      server.socket(),
      framed("{\"op\":\"job\",\"id\":1,\"source\":\"func f64 f(f64 x)"
             "{return x;}\",\"disable_passes\":[\"ssa-gnv\"]}"),
      "unknown pass 'ssa-gnv'");
}

TEST(ServiceProtocolTest, TruncatedFrameDoesNotCrashTheDaemon) {
  InProcessServer server("truncated");
  const int fd = service::connect_unix(server.socket());
  ASSERT_GE(fd, 0);
  // Header promises 100 bytes; deliver 10 and vanish.
  raw_send(fd, raw_header(100));
  raw_send(fd, "0123456789");
  ::close(fd);
  // Partial header, then vanish.
  const int fd2 = service::connect_unix(server.socket());
  ASSERT_GE(fd2, 0);
  raw_send(fd2, "\x07");
  ::close(fd2);
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(server.socket()));
  json::Value ping;
  ping["op"] = json::Value("ping");
  const auto pong = client.call(ping);
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
  const std::string socket = unique_socket("soak-shards");
  const pid_t pid = service::spawn_daemon(
      VCFLIGHT_VCCD_PATH, {"--socket=" + socket, "--shards=4"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(service::wait_until_ready(socket, 30.0));
  const SoakOutcome sharded = submit_jobs(socket, jobs, 8);
  EXPECT_EQ(service::terminate_daemon(pid, 60.0), 0)
      << "sharded daemon failed to drain-exit 0";
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
  const std::string socket = unique_socket("shardmemo");
  const pid_t pid = service::spawn_daemon(
      VCFLIGHT_VCCD_PATH, {"--socket=" + socket, "--shards=2"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(service::wait_until_ready(socket, 30.0));
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(socket));

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

  EXPECT_EQ(service::terminate_daemon(pid, 60.0), 0);
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
  json::Value ping;
  ping["op"] = json::Value("ping");
  const auto pong = client.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->at("pong").as_bool());
}

}  // namespace
}  // namespace vc
