#include "telemetry/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace eccm0::telemetry {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.scalar_ = b ? "true" : "false";
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.scalar_ = std::to_string(v);
  return j;
}

Json Json::number(std::int64_t v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.scalar_ = std::to_string(v);
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  j.scalar_ = buf;
  return j;
}

Json Json::number_token(std::string token) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.scalar_ = std::move(token);
  return j;
}

Json Json::str(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.scalar_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) throw std::invalid_argument("set() on non-object");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) throw std::invalid_argument("push() on non-array");
  items_.push_back(std::move(value));
  return *this;
}

const Json* Json::get(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::as_f64() const { return std::strtod(scalar_.c_str(), nullptr); }

std::uint64_t Json::as_u64() const {
  return std::strtoull(scalar_.c_str(), nullptr, 10);
}

std::string Json::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
    case Kind::kNumber:
      out += scalar_;
      break;
    case Kind::kString:
      out += '"';
      out += escape(scalar_);
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : items_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += escape(k);
        out += "\":";
        v.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool try_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // Basic-plane code points only; encode as UTF-8.
            if (v < 0x80) {
              out += static_cast<char>(v);
            } else if (v < 0x800) {
              out += static_cast<char>(0xC0 | (v >> 6));
              out += static_cast<char>(0x80 | (v & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (v >> 12));
              out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (v & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("bad number");
    return Json::number_token(std::string(text_.substr(start, pos_ - start)));
  }

  /// Enter one array/object level; the matching leave() runs on every
  /// successful return (a throw abandons the whole parse).
  void enter() {
    if (++depth_ > Json::kMaxDepth) fail("nesting too deep");
    ++pos_;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{') {
      enter();
      Json obj = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return obj;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string_body();
        skip_ws();
        expect(':');
        obj.set(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        --depth_;
        return obj;
      }
    }
    if (c == '[') {
      enter();
      Json arr = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return arr;
      }
      for (;;) {
        arr.push(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        --depth_;
        return arr;
      }
    }
    if (c == '"') return Json::str(parse_string_body());
    if (try_literal("true")) return Json::boolean(true);
    if (try_literal("false")) return Json::boolean(false);
    if (try_literal("null")) return Json::null();
    return parse_number();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace eccm0::telemetry
