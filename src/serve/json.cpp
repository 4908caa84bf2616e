#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace proteus::serve {

namespace {

/// Nesting ceiling for parsed documents: far beyond any protocol message,
/// small enough that a crafted request cannot overflow the parser stack.
constexpr int kMaxJsonDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse(std::string* error) {
    std::optional<Json> v = value(0);
    skip_ws();
    if (v.has_value() && pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      v.reset();
    }
    if (!v.has_value() && error != nullptr) {
      *error = error_.empty() ? "malformed JSON" : error_;
    }
    return v;
  }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at byte " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    fail("unrecognized literal");
    return false;
  }

  std::optional<Json> value(int depth) {
    if (depth > kMaxJsonDepth) {
      fail("JSON nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case 'n':
        return literal("null") ? std::optional<Json>(Json(nullptr))
                               : std::nullopt;
      case 't':
        return literal("true") ? std::optional<Json>(Json(true))
                               : std::nullopt;
      case 'f':
        return literal("false") ? std::optional<Json>(Json(false))
                                : std::nullopt;
      case '"':
        return string();
      case '[':
        return array(depth);
      case '{':
        return object(depth);
      default:
        return number();
    }
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") {
      fail("malformed number");
      return std::nullopt;
    }
    // JSON forbids leading zeros ("01"), which octal-minded clients send
    // by accident; silently reading them as decimal would mask the bug.
    const std::string_view mag = tok[0] == '-' ? tok.substr(1) : tok;
    if (mag.size() > 1 && mag[0] == '0' && mag[1] != '.' && mag[1] != 'e' &&
        mag[1] != 'E') {
      fail("malformed number (leading zero)");
      return std::nullopt;
    }
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(i);
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                         d);
    if (ec != std::errc() || p != tok.data() + tok.size() ||
        !std::isfinite(d)) {
      fail("malformed number");
      return std::nullopt;
    }
    return Json(d);
  }

  std::optional<Json> string() {
    std::optional<std::string> s = raw_string();
    if (!s.has_value()) return std::nullopt;
    return Json(std::move(*s));
  }

  std::optional<std::string> raw_string() {
    if (!eat('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("malformed \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs collapse to
          // U+FFFD; the protocol carries program text, not emoji).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            out += "\xEF\xBF\xBD";
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unrecognized escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> array(int depth) {
    (void)eat('[');
    Json::Array out;
    skip_ws();
    // Built in place: returning a Json temporary trips GCC 12's
    // -Wmaybe-uninitialized on its variant once inlined in Release.
    if (eat(']')) return std::make_optional<Json>(std::move(out));
    while (true) {
      std::optional<Json> v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      out.push_back(std::move(*v));
      skip_ws();
      if (eat(']')) return std::make_optional<Json>(std::move(out));
      if (!eat(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> object(int depth) {
    (void)eat('{');
    Json::Object out;
    skip_ws();
    if (eat('}')) return std::make_optional<Json>(std::move(out));
    while (true) {
      skip_ws();
      std::optional<std::string> key = raw_string();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!eat(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<Json> v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      out[std::move(*key)] = std::move(*v);
      skip_ws();
      if (eat('}')) return std::make_optional<Json>(std::move(out));
      if (!eat(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_value(const Json& v, std::string& out);

void dump_array(const Json::Array& a, std::string& out) {
  out.push_back('[');
  bool first = true;
  for (const Json& v : a) {
    if (!first) out.push_back(',');
    first = false;
    dump_value(v, out);
  }
  out.push_back(']');
}

void dump_object(const Json::Object& o, std::string& out) {
  out.push_back('{');
  bool first = true;
  for (const auto& [key, v] : o) {
    if (!first) out.push_back(',');
    first = false;
    dump_string(key, out);
    out.push_back(':');
    dump_value(v, out);
  }
  out.push_back('}');
}

void dump_value(const Json& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
    out += buf;
  } else if (v.is_string()) {
    dump_string(v.as_string(), out);
  } else if (v.is_array()) {
    dump_array(v.as_array(), out);
  } else {
    dump_object(v.as_object(), out);
  }
}

}  // namespace

const Json& Json::get(std::string_view key) const {
  static const Json kNull;
  const Object* o = std::get_if<Object>(&node_);
  if (o == nullptr) return kNull;
  auto it = o->find(std::string(key));
  return it == o->end() ? kNull : it->second;
}

bool Json::has(std::string_view key) const {
  const Object* o = std::get_if<Object>(&node_);
  return o != nullptr && o->find(std::string(key)) != o->end();
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::optional<Json> parse_json(std::string_view text, std::string* error) {
  return Parser(text).parse(error);
}

}  // namespace proteus::serve
