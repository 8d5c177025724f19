#include "service/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace vc::service {

namespace {

/// read() the exact byte count, retrying on EINTR. Returns bytes read
/// (== size on success; 0 on immediate EOF; -1 on error; a short count
/// means EOF mid-buffer).
ssize_t read_exact(int fd, void* buf, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n =
        ::read(fd, static_cast<char*>(buf) + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // EOF
    done += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

}  // namespace

Frame read_frame(int fd, const std::function<void()>& on_header) {
  Frame frame;
  std::uint8_t header[4];
  const ssize_t got = read_exact(fd, header, sizeof header);
  if (got == 0) {
    frame.status = Frame::Status::Eof;
    return frame;
  }
  if (got != sizeof header) {
    frame.error = "connection died mid-header";
    return frame;
  }
  const std::uint32_t length = static_cast<std::uint32_t>(header[0]) |
                               static_cast<std::uint32_t>(header[1]) << 8 |
                               static_cast<std::uint32_t>(header[2]) << 16 |
                               static_cast<std::uint32_t>(header[3]) << 24;
  if (length == 0 || length > kMaxFrameBytes) {
    frame.error = "invalid frame length " + std::to_string(length) +
                  " (must be 1.." + std::to_string(kMaxFrameBytes) + ")";
    return frame;
  }
  if (on_header) on_header();
  frame.payload.resize(length);
  if (read_exact(fd, frame.payload.data(), length) !=
      static_cast<ssize_t>(length)) {
    frame.payload.clear();
    frame.error = "connection died mid-payload";
    return frame;
  }
  frame.status = Frame::Status::Ok;
  return frame;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxFrameBytes) return false;
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::string buffer;
  buffer.reserve(4 + payload.size());
  buffer.push_back(static_cast<char>(length & 0xFF));
  buffer.push_back(static_cast<char>((length >> 8) & 0xFF));
  buffer.push_back(static_cast<char>((length >> 16) & 0xFF));
  buffer.push_back(static_cast<char>((length >> 24) & 0xFF));
  buffer.append(payload);
  std::size_t done = 0;
  while (done < buffer.size()) {
    // MSG_NOSIGNAL: a client that vanished must surface as EPIPE, never as
    // a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, buffer.data() + done, buffer.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

int listen_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    *error = "socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 128) < 0) {
    *error = "cannot listen on " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string JobRequest::class_key() const {
  return driver::spec_identity(*this, driver::kSaltClass);
}

std::string JobRequest::job_class() const {
  return driver::kConfigNames[static_cast<int>(config)].cli;
}

Hash128 JobRequest::request_hash() const {
  Fnv128 h;
  // Length-framed fields, exactly like the artifact-store key: no two
  // distinct requests may collide by concatenation.
  h.update_sized(driver::kCompilerVersion);  // pass-pipeline identity
  h.update_sized(source);
  h.update_sized(entry);
  h.update_sized(name);
  h.update_sized(driver::spec_identity(*this, driver::kSaltRequest));
  return h.digest();
}

ParsedRequest parse_request(const std::string& payload) {
  ParsedRequest out;
  json::Parsed parsed = json::parse(payload);
  if (!parsed.ok()) {
    out.error = "malformed JSON: " + parsed.error;
    return out;
  }
  const json::Value& doc = parsed.value;
  if (!doc.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }
  if (doc.at("id").kind() == json::Value::Kind::Int ||
      doc.at("id").kind() == json::Value::Kind::UInt)
    out.id = doc.at("id").as_i64();
  if (doc.at("op").kind() != json::Value::Kind::String) {
    out.error = "missing or non-string 'op'";
    return out;
  }
  out.op = doc.at("op").as_string();
  if (out.op == "ping" || out.op == "status" || out.op == "shutdown")
    return out;
  if (out.op != "job") {
    out.error = "unknown op '" + out.op + "'";
    return out;
  }

  JobRequest job;
  if (!out.id) {
    out.error = "job request needs an integer 'id'";
    return out;
  }
  job.id = *out.id;
  if (doc.at("source").kind() != json::Value::Kind::String ||
      doc.at("source").as_string().empty()) {
    out.error = "job request needs a non-empty string 'source'";
    return out;
  }
  job.source = doc.at("source").as_string();
  // Every key must be known: an unknown one is a typo'd knob, and running
  // the job with that knob at its default would answer a different job.
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "op" || key == "id" || key == "source" ||
        driver::find_spec_field(key) != nullptr)
      continue;
    std::string* text = key == "name"    ? &job.name
                        : key == "entry" ? &job.entry
                                         : nullptr;
    if (text == nullptr) {
      out.error = "unknown job field '" + key + "'";
      return out;
    }
    if (value.kind() != json::Value::Kind::String) {
      out.error = "field '" + key + "' must be a string";
      return out;
    }
    *text = value.as_string();
  }
  out.error = driver::spec_from_json(doc, &job);
  if (!out.ok()) return out;
  if (job.name.empty()) job.name = "job" + std::to_string(job.id);
  out.job = std::move(job);
  return out;
}

json::Value job_to_json(const JobRequest& job) {
  json::Value doc = driver::spec_json(job, ~0u);
  doc["op"] = json::Value("job");
  doc["id"] = json::Value(job.id);
  doc["name"] = json::Value(job.name);
  doc["source"] = json::Value(job.source);
  doc["entry"] = json::Value(job.entry);
  return doc;
}

std::string error_reply(const std::string& message,
                        std::optional<std::int64_t> id) {
  json::Value doc;
  doc["ok"] = json::Value(false);
  doc["error"] = json::Value(message);
  if (id) doc["id"] = json::Value(*id);
  return doc.dump();
}

}  // namespace vc::service
