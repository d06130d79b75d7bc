// Versioned wire schema of the serve front-end (DESIGN.md §14).
//
// Transport: length-prefixed frames over a stream socket — a 4-byte
// little-endian byte count followed by that many bytes of UTF-8 JSON.
// One frame carries one request or one response envelope:
//
//   request  { "schema": "eccm0.req.v1",  "id": u64, "op": "...",
//              "params": { op-specific } }
//   response { "schema": "eccm0.resp.v1", "id": u64, "op": "...",
//              "ok": bool,
//              "error":   { "code": "...", "message": "..." }   (!ok)
//              "payload": { op-owned shape }                    (ok) }
//
// Key order is fixed (insertion-ordered telemetry::Json, the same
// discipline as the eccm0.run.v1 manifest): schema, id, op, ok, then
// error or payload. Error codes are a closed, stable set — clients
// may switch on the strings below; messages are human-readable and
// carry no contract. An unknown request schema version gets a typed
// `bad_schema` response on the same connection, never a disconnect.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/json.h"

namespace eccm0::service::wire {

inline constexpr const char* kRequestSchema = "eccm0.req.v1";
inline constexpr const char* kResponseSchema = "eccm0.resp.v1";

/// Hard bound on one frame's body; a larger announced length is a
/// protocol error (bad_frame) and desynchronizes the stream, so the
/// server responds and then closes that connection.
inline constexpr std::uint32_t kMaxFrameBytes = 4u << 20;

/// Stable, closed error-code set of eccm0.resp.v1.
enum class ErrorCode : std::uint8_t {
  kBadFrame,      ///< unframeable bytes (zero/oversized length prefix)
  kBadJson,       ///< frame body is not parseable JSON
  kBadSchema,     ///< unknown/missing request schema version
  kBadRequest,    ///< envelope malformed (id/op missing or mistyped)
  kUnknownOp,     ///< op is not served
  kBadParam,      ///< op-specific parameter invalid
  kBusy,          ///< bounded work queue full — backpressure, retry later
  kShuttingDown,  ///< server is draining; no new work accepted
  kInternal,      ///< handler threw; message carries what()
};

/// The wire spelling of a code ("bad_frame", "busy", ...). Stable.
const char* error_code_name(ErrorCode code);

/// Parsed request envelope.
struct Request {
  std::uint64_t id = 0;
  std::string op;
  telemetry::Json params = telemetry::Json::object();
};

/// Validate a parsed request document against eccm0.req.v1. On failure
/// returns false and fills code/message (id is recovered when present
/// so the error response can still correlate).
struct RequestParse {
  bool ok = false;
  Request req;
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};
RequestParse parse_request(const telemetry::Json& doc);

/// Build the request envelope in wire key order.
telemetry::Json make_request(std::uint64_t id, const std::string& op,
                             telemetry::Json params);

/// Build a success response (ok, payload) in wire key order.
telemetry::Json make_response(std::uint64_t id, const std::string& op,
                              telemetry::Json payload);

/// Build a typed error response (ok=false, error object) in wire key
/// order.
telemetry::Json make_error(std::uint64_t id, const std::string& op,
                           ErrorCode code, const std::string& message);

// ---- framing over a connected stream socket --------------------------

/// Read one length-prefixed frame into `body`. Returns false on clean
/// EOF before the prefix, on transport error, or on a bad length
/// (`*bad_frame` distinguishes the last case when non-null). The body
/// grows as its bytes arrive (at most 64 KiB per step), so a prefix
/// alone commits no memory.
bool read_frame(int fd, std::string& body, bool* bad_frame = nullptr);

/// Write one length-prefixed frame, prefix and body in a single buffer.
/// False on transport error.
bool write_frame(int fd, const std::string& body);

}  // namespace eccm0::service::wire
