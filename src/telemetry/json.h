// Minimal ordered JSON value model: the repo's one JSON emitter and
// parser. Every bench, every ecctool subcommand and the serve wire
// protocol build a Json tree and dump it; `ecctool stats` and serve
// parse documents back. A tiny DOM with a strict recursive-descent
// parser and a deterministic serializer. Two rules keep manifests
// byte-stable across runs:
//
//   * objects preserve insertion order (a std::vector of pairs, no
//     hashing) — building the same manifest twice dumps the same bytes;
//   * numbers parsed from text keep their original spelling, and
//     numbers built programmatically have one fixed format ("%.6g" for
//     doubles, full decimal for integers), so a parse/dump round trip
//     is the identity.
//
// Not a general-purpose JSON library: no \uXXXX decoding beyond
// pass-through, 64-bit integers only, nesting capped at kMaxDepth,
// throws std::invalid_argument on malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace eccm0::telemetry {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,  ///< stored as its token text (exact round trip)
    kString,
    kArray,
    kObject,
  };

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so without a cap a frame of ~100 000 '[' bytes
  /// overflows the stack of whatever thread parses it; deeper input is
  /// rejected like any other malformed document.
  static constexpr std::size_t kMaxDepth = 256;

  Json() = default;

  // ---- constructors ---------------------------------------------------
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(std::uint64_t v);
  static Json number(std::int64_t v);
  static Json number(double v);  ///< "%.6g"
  /// Number node carrying an exact token spelling (the parser uses this
  /// so a parse/dump round trip preserves the source bytes).
  static Json number_token(std::string token);
  static Json str(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // ---- building -------------------------------------------------------
  /// Append (object) — duplicate keys are kept; get() returns the first.
  Json& set(std::string key, Json value);
  /// Append (array).
  Json& push(Json value);

  // ---- reading --------------------------------------------------------
  /// First member named `key`, or nullptr (object only).
  const Json* get(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  const std::vector<Json>& items() const { return items_; }
  std::size_t size() const {
    return kind_ == Kind::kObject ? members_.size() : items_.size();
  }

  bool as_bool() const { return scalar_ == "true"; }
  const std::string& as_string() const { return scalar_; }
  /// Numeric token text (kNumber) — what dump() would emit.
  const std::string& token() const { return scalar_; }
  double as_f64() const;
  std::uint64_t as_u64() const;  ///< truncates; 0 for non-numeric text

  // ---- serialization --------------------------------------------------
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Strict parse of a complete JSON document (trailing garbage rejected).
  /// Throws std::invalid_argument with an offset on malformed input,
  /// including nesting deeper than kMaxDepth.
  static Json parse(std::string_view text);

  static std::string escape(std::string_view s);

 private:
  Kind kind_ = Kind::kNull;
  std::string scalar_;  ///< bool/number token or string payload
  std::vector<std::pair<std::string, Json>> members_;  ///< kObject
  std::vector<Json> items_;                            ///< kArray
};

}  // namespace eccm0::telemetry
