#include "service/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace eccm0::service::wire {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kBadJson: return "bad_json";
    case ErrorCode::kBadSchema: return "bad_schema";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kBadParam: return "bad_param";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

RequestParse parse_request(const telemetry::Json& doc) {
  RequestParse out;
  if (!doc.is_object()) {
    out.code = ErrorCode::kBadRequest;
    out.message = "request is not a JSON object";
    return out;
  }
  // Recover the id first so even schema errors correlate to a request.
  const telemetry::Json* id = doc.get("id");
  if (id != nullptr && id->kind() == telemetry::Json::Kind::kNumber) {
    out.req.id = id->as_u64();
  }
  const telemetry::Json* schema = doc.get("schema");
  if (schema == nullptr ||
      schema->kind() != telemetry::Json::Kind::kString) {
    out.code = ErrorCode::kBadSchema;
    out.message = std::string("missing schema tag; this server speaks ") +
                  kRequestSchema;
    return out;
  }
  if (schema->as_string() != kRequestSchema) {
    out.code = ErrorCode::kBadSchema;
    out.message = "unsupported schema '" + schema->as_string() +
                  "'; this server speaks " + kRequestSchema;
    return out;
  }
  if (id == nullptr || id->kind() != telemetry::Json::Kind::kNumber) {
    out.code = ErrorCode::kBadRequest;
    out.message = "request 'id' must be a number";
    return out;
  }
  const telemetry::Json* op = doc.get("op");
  if (op == nullptr || op->kind() != telemetry::Json::Kind::kString ||
      op->as_string().empty()) {
    out.code = ErrorCode::kBadRequest;
    out.message = "request 'op' must be a non-empty string";
    return out;
  }
  out.req.op = op->as_string();
  const telemetry::Json* params = doc.get("params");
  if (params != nullptr) {
    if (!params->is_object()) {
      out.code = ErrorCode::kBadRequest;
      out.message = "request 'params' must be an object";
      return out;
    }
    out.req.params = *params;
  }
  out.ok = true;
  return out;
}

telemetry::Json make_request(std::uint64_t id, const std::string& op,
                             telemetry::Json params) {
  telemetry::Json req = telemetry::Json::object();
  req.set("schema", telemetry::Json::str(kRequestSchema));
  req.set("id", telemetry::Json::number(id));
  req.set("op", telemetry::Json::str(op));
  req.set("params", std::move(params));
  return req;
}

namespace {

telemetry::Json response_head(std::uint64_t id, const std::string& op,
                              bool ok) {
  telemetry::Json resp = telemetry::Json::object();
  resp.set("schema", telemetry::Json::str(kResponseSchema));
  resp.set("id", telemetry::Json::number(id));
  resp.set("op", telemetry::Json::str(op));
  resp.set("ok", telemetry::Json::boolean(ok));
  return resp;
}

}  // namespace

telemetry::Json make_response(std::uint64_t id, const std::string& op,
                              telemetry::Json payload) {
  telemetry::Json resp = response_head(id, op, true);
  resp.set("payload", std::move(payload));
  return resp;
}

telemetry::Json make_error(std::uint64_t id, const std::string& op,
                           ErrorCode code, const std::string& message) {
  telemetry::Json resp = response_head(id, op, false);
  telemetry::Json err = telemetry::Json::object();
  err.set("code", telemetry::Json::str(error_code_name(code)));
  err.set("message", telemetry::Json::str(message));
  resp.set("error", std::move(err));
  return resp;
}

namespace {

/// Largest step by which read_frame grows a body.
constexpr std::size_t kReadChunk = 64u << 10;

bool read_exact(int fd, void* buf, std::size_t n) {
  std::uint8_t* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) return false;  // EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(buf);
  std::size_t put = 0;
  while (put < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not SIGPIPE.
    const ssize_t r = ::send(fd, p + put, n - put, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

bool read_frame(int fd, std::string& body, bool* bad_frame) {
  if (bad_frame != nullptr) *bad_frame = false;
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof(prefix))) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            static_cast<std::uint32_t>(prefix[1]) << 8 |
                            static_cast<std::uint32_t>(prefix[2]) << 16 |
                            static_cast<std::uint32_t>(prefix[3]) << 24;
  if (len == 0 || len > kMaxFrameBytes) {
    if (bad_frame != nullptr) *bad_frame = true;
    return false;
  }
  // A prefix is only a claim: grow the body chunk by chunk as bytes
  // arrive, so a peer that announces 4 MiB and stalls holds one chunk.
  body.clear();
  while (body.size() < len) {
    const std::size_t got = body.size();
    body.resize(got + std::min<std::size_t>(len - got, kReadChunk));
    if (!read_exact(fd, body.data() + got, body.size() - got)) return false;
  }
  return true;
}

bool write_frame(int fd, const std::string& body) {
  if (body.empty() || body.size() > kMaxFrameBytes) return false;
  // Prefix and body leave in one send(): a separate 4-byte write makes
  // the body wait on Nagle until the peer's delayed ACK (~40 ms).
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  std::string frame;
  frame.reserve(4 + body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>(len >> shift & 0xFF));
  }
  frame += body;
  return write_exact(fd, frame.data(), frame.size());
}

}  // namespace eccm0::service::wire
