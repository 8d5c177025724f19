// The vccd wire protocol: length-prefixed JSON frames over a local
// Unix-domain socket.
//
// Frame layout: a 4-byte little-endian payload length, then exactly that
// many bytes of UTF-8 JSON. The length must be non-zero and at most
// kMaxFrameBytes; the payload must parse as a JSON object. Every violation
// — short header, oversized length, trailing garbage, non-object payload,
// unknown "op", unknown job key, ill-typed field or unknown value name — is
// answered with one error frame and the connection is dropped. The daemon
// never crashes on client input: it is an UNTRUSTED convenience layer.
// Every artifact it serves was produced by the verified pipeline and gated
// by the translation validators, the IPET certificate checker, and (when
// armed) the execution monitor — none of which live in this directory
// (DESIGN.md §13).
//
// Requests (all JSON objects with an "op" field):
//   {"op":"ping"}                          -> {"ok":true,"pong":true}
//   {"op":"status"}                        -> {"ok":true,"status":{...}}
//   {"op":"shutdown"}                      -> {"ok":true} + graceful drain
//   {"op":"job","id":N,"source":...,...}   -> {"ok":true,"id":N,
//                                              "record":{...},"cache":...,
//                                              "seconds":...}
// A job's other keys are "name", "entry" and the knob table's keys
// (driver::spec_fields()), each optional. Any other key is an error naming
// it: a typo such as "wcet_engin" must not silently run the default job.
// Replies to jobs may arrive out of submission order (clients pipeline);
// the "id" ties a reply to its request. Error replies are
// {"ok":false,"error":"..."} (plus "id" when the request carried one).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "driver/run_spec.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace vc::service {

/// Upper bound on one frame's payload; a length above this is a malformed
/// frame (drop), not an allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

// --- framing ---------------------------------------------------------------

struct Frame {
  enum class Status { Ok, Eof, Error };
  Status status = Status::Error;
  std::string payload;  // set when Ok
  std::string error;    // set when Error
};

/// Reads one frame from `fd` (blocking). Eof only at a clean frame
/// boundary; a connection that dies mid-frame is an Error. `on_header`, if
/// set, runs once a valid length prefix is in, before the payload is read.
Frame read_frame(int fd, const std::function<void()>& on_header = {});

/// Writes one frame to `fd`. Returns false on any write failure (the
/// caller drops the connection; SIGPIPE is suppressed via MSG_NOSIGNAL).
bool write_frame(int fd, std::string_view payload);

// --- socket helpers --------------------------------------------------------

/// Binds and listens on a Unix-domain socket at `path` (unlinking any stale
/// socket first). Returns the listening fd, or -1 with `*error` set.
int listen_unix(const std::string& path, std::string* error);

/// Connects to the daemon socket at `path`. Returns the fd, or -1.
int connect_unix(const std::string& path);

// --- requests --------------------------------------------------------------

/// A validated "op":"job" request: one (source, entry) job under a JobSpec
/// — the service-side mirror of one fleet (unit, config) job. Every knob
/// and both per-job fields (config, input_seed) travel as the knob table's
/// rows (driver/run_spec.hpp), under their table keys.
struct JobRequest : driver::JobSpec {
  std::int64_t id = 0;
  std::string name;          // record name (defaults to "job<id>")
  std::string source;        // full mini-C program text
  std::string entry;         // entry function; "auto" = the sole function

  /// Groups jobs that can share one run_fleet call: the table fields that
  /// salt kSaltClass (every knob and the config; not the per-unit fields).
  [[nodiscard]] std::string class_key() const;
  /// Latency class for the status percentiles (the config's cli name).
  [[nodiscard]] std::string job_class() const;
  /// The incremental-recompilation key: a dependency hash over the source,
  /// entry, name, compiler version (pass-pipeline identity) and every table
  /// field that salts kSaltRequest. Equal hash => the cached record is THE
  /// answer, no disk touched.
  [[nodiscard]] Hash128 request_hash() const;
};

/// Outcome of strictly parsing one request payload.
struct ParsedRequest {
  std::string error;  // non-empty => malformed (error reply, then drop)
  std::string op;     // "ping" | "status" | "shutdown" | "job"
  std::optional<std::int64_t> id;  // echoed in error replies when present
  std::optional<JobRequest> job;   // set when op == "job"
  [[nodiscard]] bool ok() const { return error.empty(); }
};

ParsedRequest parse_request(const std::string& payload);

/// Serializes `job` back into a request payload (client side; also used by
/// the shard supervisor to re-stamp ids when forwarding).
json::Value job_to_json(const JobRequest& job);

/// {"ok":false,"error":message} (+ "id" when given).
std::string error_reply(const std::string& message,
                        std::optional<std::int64_t> id = std::nullopt);

}  // namespace vc::service
