#include "service/frontend.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace vc::service {

namespace {

using Clock = std::chrono::steady_clock;

/// The cache taxonomy, in status and stats-line order: memo hit, store
/// artifact+stats hit, store image-only hit, cold compile.
constexpr std::array<const char*, 4> kCacheKinds = {"incremental", "full",
                                                    "image", "miss"};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kBucketRatio = 1.0905077326652576592;     // 2^(1/8)
constexpr double kHalfBucketRatio = 1.0442737824274138403;  // 2^(1/16)

/// Bucket i starts at kMinSeconds * 2^(i/8). The table is multiplied out at
/// compile time: recording a sample is a binary search, with no call into
/// libm (whose pages would otherwise count toward the daemon's RSS).
constexpr std::array<double, LatencyHistogram::kBuckets> kBucketStarts = [] {
  std::array<double, LatencyHistogram::kBuckets> starts{};
  double start = LatencyHistogram::kMinSeconds;
  for (double& s : starts) {
    s = start;
    start *= kBucketRatio;
  }
  return starts;
}();

}  // namespace

void LatencyHistogram::add(double seconds) {
  // The first start above `seconds`, searched from bucket 1 so that
  // anything below 1 us lands in bucket 0 and anything past the end in the
  // last bucket.
  const auto above = std::upper_bound(kBucketStarts.begin() + 1,
                                      kBucketStarts.end(), seconds);
  ++buckets_[static_cast<std::size_t>(above - kBucketStarts.begin()) - 1];
  ++count_;
}

double LatencyHistogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const std::uint64_t rank = std::min(
      count_ - 1,
      static_cast<std::uint64_t>(p * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  while ((seen += buckets_[bucket]) <= rank) ++bucket;
  return kBucketStarts[bucket] * kHalfBucketRatio;
}

Frontend::Frontend(std::string socket_path)
    : socket_path_(std::move(socket_path)), started_(Clock::now()) {}

Frontend::~Frontend() {
  for (const auto& conn : conns_)
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  for (const auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  ::unlink(socket_path_.c_str());
}

bool Frontend::start(std::string* error) {
  if (::pipe(wake_pipe_) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  listen_fd_ = listen_unix(socket_path_, error);
  return listen_fd_ >= 0;
}

void Frontend::request_drain() {
  // Only async-signal-safe calls here: this runs from SIGTERM handlers.
  const char byte = 'q';
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

int Frontend::serve(Backend* backend) {
  backend_ = backend;
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      // Reap connections whose reader already finished, so a long-lived
      // daemon does not accumulate one zombie thread per past client. The
      // write mutex serializes the close against a reply writer holding a
      // reference — the writer sees fd == -1, never a recycled descriptor.
      std::erase_if(conns_, [](const std::shared_ptr<Connection>& old) {
        if (!old->done.load()) return false;
        old->reader.join();
        std::lock_guard<std::mutex> wlock(old->write_mutex);
        ::close(old->fd);
        old->fd = -1;
        return true;
      });
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { read_loop(conn); });
  }

  // Graceful drain: stop accepting, stop reading (clients see EOF), let the
  // backend answer everything already dispatched, then the stats line.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(socket_path_.c_str());
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
    // Join the readers first: after this nothing can dispatch, so the
    // backend's drain really waits for the last job.
    for (const auto& conn : conns_)
      if (conn->reader.joinable()) conn->reader.join();
  }
  const int code = backend_->drain();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> wlock(conn->write_mutex);
      if (conn->fd >= 0) ::close(conn->fd);
      conn->fd = -1;
    }
    conns_.clear();
  }
  std::fprintf(stderr, "%s\n", stats_line().c_str());
  std::fflush(stderr);
  return code;
}

void Frontend::read_loop(const std::shared_ptr<Connection>& conn) {
  // Set on a protocol violation: the connection is actively dropped
  // (SHUT_RDWR, so the client sees EOF now, not at the next reap). A clean
  // client EOF leaves the socket half-open — replies to still-pending
  // pipelined jobs must be able to go out.
  bool dropped = false;
  const auto mark_in_hand = [&conn] { conn->frame_in_hand.store(true); };
  for (;;) {
    conn->frame_in_hand.store(false);
    Frame frame = read_frame(conn->fd, mark_in_hand);
    if (frame.status == Frame::Status::Eof) break;
    if (frame.status == Frame::Status::Error) {
      reply(conn, error_reply(frame.error));
      dropped = true;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++requests_;
    }
    ParsedRequest request = parse_request(frame.payload);
    if (!request.ok()) {
      reply(conn, error_reply(request.error, request.id));
      dropped = true;
      break;  // strict protocol: a malformed request drops the connection
    }
    if (request.job) {
      JobTicket ticket{conn, request.job->id, request.job->job_class(),
                       Clock::now()};
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++job_requests_;
        queue_peak_ = std::max(queue_peak_, ++queue_depth_);
      }
      backend_->dispatch(std::move(ticket), std::move(*request.job));
      continue;
    }
    json::Value doc;
    doc["ok"] = json::Value(true);
    if (request.op == "ping") {
      doc["pong"] = json::Value(true);
    } else if (request.op == "status") {
      doc["status"] = status_json();
    } else {  // shutdown
      doc["draining"] = json::Value(true);
    }
    reply(conn, doc.dump());
    if (request.op == "shutdown") request_drain();
  }
  if (dropped) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  conn->frame_in_hand.store(false);
  conn->done.store(true);
}

void Frontend::reply(const std::shared_ptr<Connection>& conn,
                     const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->fd < 0) return;
  // A client that disconnected mid-campaign loses its replies; the daemon
  // shrugs (write failure is not an error worth more than dropping).
  (void)write_frame(conn->fd, payload);
}

void Frontend::complete(const JobTicket& ticket, json::Value record,
                        std::string_view cache_kind) {
  const double seconds = seconds_since(ticket.arrived);
  json::Value doc;
  doc["ok"] = json::Value(true);
  doc["id"] = json::Value(ticket.id);
  doc["record"] = std::move(record);
  doc["cache"] = json::Value(std::string(cache_kind));
  doc["seconds"] = json::Value(seconds);
  {
    // Counted before the reply goes out: a client that asks for status
    // the moment it holds every reply sees every job counted.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    const auto kind =
        std::find(kCacheKinds.begin(), kCacheKinds.end(), cache_kind);
    ++cache_counts_[kind == kCacheKinds.end()
                        ? kCacheKinds.size() - 1  // unknown => miss
                        : static_cast<std::size_t>(kind - kCacheKinds.begin())];
    ++jobs_completed_;
    --queue_depth_;
    latency_[ticket.job_class].add(seconds);
  }
  reply(ticket.conn, doc.dump());
}

void Frontend::fail(const JobTicket& ticket, const std::string& error) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    --queue_depth_;
  }
  reply(ticket.conn, error_reply(error, ticket.id));
}

bool Frontend::has_unread_bytes(Connection& conn) {
  // The reaper closes a finished reader's fd and sets it to -1 under the
  // write mutex, so the fd is only read with that mutex held.
  std::unique_lock<std::mutex> lock(conn.write_mutex, std::try_to_lock);
  if (!lock.owns_lock() || conn.fd < 0) return false;
  // Peek, not poll: a half-closed socket polls readable with nothing in it.
  // The socket is asked first: a reader raises frame_in_hand before it
  // reads a frame's payload, so a frame that has just left the socket is
  // still seen by the second check.
  char byte = 0;
  if (::recv(conn.fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0) return true;
  return conn.frame_in_hand.load();
}

json::Value Frontend::status_json() {
  json::Value status;
  const double uptime = seconds_since(started_);
  status["uptime_seconds"] = json::Value(uptime);
  status["pid"] = json::Value(static_cast<std::int64_t>(::getpid()));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    status["requests"] = json::Value(requests_);
    status["job_requests"] = json::Value(job_requests_);
    status["jobs_completed"] = json::Value(jobs_completed_);
    status["jobs_per_second"] = json::Value(
        uptime > 0.0 ? static_cast<double>(jobs_completed_) / uptime : 0.0);
    status["queue_depth"] = json::Value(queue_depth_);
    status["queue_peak"] = json::Value(queue_peak_);
    json::Value& cache = status["cache"];
    for (std::size_t k = 0; k < kCacheKinds.size(); ++k)
      cache[kCacheKinds[k]] = json::Value(cache_counts_[k]);
    json::Value& latency = status["latency"];
    for (const auto& [job_class, histogram] : latency_) {
      json::Value& l = latency[job_class];
      l["count"] = json::Value(histogram.count());
      l["p50_ms"] = json::Value(1e3 * histogram.quantile(0.50));
      l["p99_ms"] = json::Value(1e3 * histogram.quantile(0.99));
    }
  }
  backend_->add_status(&status);
  return status;
}

std::string Frontend::stats_line() {
  const json::Value status = status_json();
  const json::Value& cache = status.at("cache");
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "vccd: served %llu job(s) over %.1fs (%.1f jobs/s); cache: %llu "
      "incremental, %llu full, %llu image, %llu miss; queue peak %llu;",
      static_cast<unsigned long long>(status.at("jobs_completed").as_u64()),
      status.at("uptime_seconds").as_double(),
      status.at("jobs_per_second").as_double(),
      static_cast<unsigned long long>(cache.at("incremental").as_u64()),
      static_cast<unsigned long long>(cache.at("full").as_u64()),
      static_cast<unsigned long long>(cache.at("image").as_u64()),
      static_cast<unsigned long long>(cache.at("miss").as_u64()),
      static_cast<unsigned long long>(status.at("queue_peak").as_u64()));
  std::string line = buf;
  // Then every scalar field the backend contributed (batches, monitor and
  // arena counters; or mode, shards and restarts), in key order.
  json::Value own;
  backend_->add_status(&own);
  for (const auto& [key, value] : own.as_object())
    if (!value.is_object() && !value.is_array())
      line += " " + key + "=" + value.dump();
  return line;
}

}  // namespace vc::service
