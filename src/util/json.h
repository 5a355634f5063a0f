// A minimal streaming JSON writer, and the matching reader.
//
// The writer is just enough for the machine-readable outputs this project
// emits (sweep NDJSON journals, `foraygen lint --json`, the bench
// BENCH_*.json files): objects, arrays, strings with escaping, integers,
// doubles and booleans, with comma placement handled by the writer.
//
// The reader (parse_json / JsonValue) is the exact inverse, added for
// `foraygen sweep --resume`: it must re-read journals this writer
// produced, so doubles go through std::from_chars — the round-trip
// partner of the writer's shortest-form std::to_chars — and reprint
// byte-identically. It is a strict little parser (no comments, no
// trailing commas), not a general-purpose JSON library.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace foray::util {

class JsonWriter {
 public:
  std::string take() { return std::move(out_); }
  const std::string& str() const { return out_; }

  JsonWriter& begin_object() {
    comma();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  JsonWriter& end_object() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  JsonWriter& begin_array() {
    comma();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  JsonWriter& end_array() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }

  /// Object key; follow with exactly one value (or container).
  JsonWriter& key(std::string_view k) {
    comma();
    append_string(k);
    out_ += ':';
    fresh_ = true;  // the upcoming value needs no comma
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    comma();
    append_string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double v) {
    comma();
    if (std::isfinite(v)) {
      // Shortest round-trip form: a reader that parses the number and
      // reprints it reproduces the bytes exactly. The sweep --resume
      // path leans on this — reduction sums over journal-parsed values
      // must match sums over freshly-computed ones bit for bit.
      char buf[40];
      auto res = std::to_chars(buf, buf + sizeof buf, v);
      out_.append(buf, res.ptr);
    } else {
      out_ += "null";  // JSON has no NaN/Inf
    }
    return *this;
  }
  JsonWriter& value(int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<uint64_t>(v)); }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }

  void append_string(std::string_view s) {
    out_ += '"';
    // Runs of characters that need no escape go out in one append.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      const char* esc = nullptr;
      switch (c) {
        case '"': esc = "\\\""; break;
        case '\\': esc = "\\\\"; break;
        case '\n': esc = "\\n"; break;
        case '\r': esc = "\\r"; break;
        case '\t': esc = "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) >= 0x20) continue;
      }
      out_.append(s.data() + run, i - run);
      run = i + 1;
      if (esc != nullptr) {
        out_ += esc;
      } else {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(c) & 0xff);
        out_ += buf;
      }
    }
    out_.append(s.data() + run, s.size() - run);
    out_ += '"';
  }

  std::string out_;
  bool fresh_ = true;
};

/// The fields of a failed row, in the order every NDJSON and JSON output
/// writes them: error_class, phase, error. The class and phase are what a
/// consumer (retry policy, service dashboard, --resume) keys on; the
/// message stays free-form.
inline void write_error_fields(JsonWriter& w, const Status& st) {
  w.key("error_class").value(st.code_name());
  w.key("phase").value(st.phase());
  w.key("error").value(st.message());
}

// -- reader -------------------------------------------------------------------

/// A parsed JSON document node. Numbers are kept as double (the only
/// numeric type JSON has); integer-valued fields that must survive at
/// full 64-bit precision should be range-checked by the caller.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> items;                                 ///< Array
  std::vector<std::pair<std::string, JsonValue>> fields;        ///< Object

  bool is_null() const { return kind == Kind::Null; }
  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_string() const { return kind == Kind::String; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_bool() const { return kind == Kind::Bool; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

namespace json_detail {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : p_(text.data()), end_(text.data() + text.size()), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (p_ != end_) return fail("trailing characters after JSON value");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 96;  ///< bounds stack use on hostile input

  bool fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = msg + " at offset " + std::to_string(off());
    }
    return false;
  }

  size_t off() const { return static_cast<size_t>(p_ - start_ptr_); }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool literal(std::string_view word) {
    if (end_ - p_ < static_cast<ptrdiff_t>(word.size()) ||
        std::string_view(p_, word.size()) != word) {
      return fail("invalid literal");
    }
    p_ += word.size();
    return true;
  }

  bool parse_string(std::string* out) {
    ++p_;  // opening quote
    while (p_ != end_) {
      const char c = *p_++;
      if (c == '"') return true;
      if (c == '\\') {
        if (p_ == end_) break;
        const char e = *p_++;
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (end_ - p_ < 4) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *p_++;
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape digit");
            }
            // The writer only emits \u00xx for control bytes; decode the
            // BMP point as UTF-8 so round-trips are exact.
            if (cp < 0x80) {
              *out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              *out += static_cast<char>(0xc0 | (cp >> 6));
              *out += static_cast<char>(0x80 | (cp & 0x3f));
            } else {
              *out += static_cast<char>(0xe0 | (cp >> 12));
              *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
              *out += static_cast<char>(0x80 | (cp & 0x3f));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        *out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (p_ == end_) return fail("unexpected end of input");
    switch (*p_) {
      case 'n':
        out->kind = JsonValue::Kind::Null;
        return literal("null");
      case 't':
        out->kind = JsonValue::Kind::Bool;
        out->b = true;
        return literal("true");
      case 'f':
        out->kind = JsonValue::Kind::Bool;
        out->b = false;
        return literal("false");
      case '"':
        out->kind = JsonValue::Kind::String;
        return parse_string(&out->str);
      case '[': {
        out->kind = JsonValue::Kind::Array;
        ++p_;
        skip_ws();
        if (p_ != end_ && *p_ == ']') {
          ++p_;
          return true;
        }
        while (true) {
          out->items.emplace_back();
          skip_ws();
          if (!parse_value(&out->items.back(), depth + 1)) return false;
          skip_ws();
          if (p_ == end_) return fail("unterminated array");
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == ']') {
            ++p_;
            return true;
          }
          return fail("expected ',' or ']' in array");
        }
      }
      case '{': {
        out->kind = JsonValue::Kind::Object;
        ++p_;
        skip_ws();
        if (p_ != end_ && *p_ == '}') {
          ++p_;
          return true;
        }
        while (true) {
          skip_ws();
          if (p_ == end_ || *p_ != '"') return fail("expected object key");
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (p_ == end_ || *p_ != ':') return fail("expected ':'");
          ++p_;
          skip_ws();
          out->fields.emplace_back(std::move(key), JsonValue{});
          if (!parse_value(&out->fields.back().second, depth + 1)) {
            return false;
          }
          skip_ws();
          if (p_ == end_) return fail("unterminated object");
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == '}') {
            ++p_;
            return true;
          }
          return fail("expected ',' or '}' in object");
        }
      }
      default: {
        // Number. from_chars is the exact inverse of the writer's
        // to_chars shortest form, so journal values reprint bit-exactly.
        out->kind = JsonValue::Kind::Number;
        auto res = std::from_chars(p_, end_, out->num);
        if (res.ec != std::errc() || res.ptr == p_) {
          return fail("invalid number");
        }
        p_ = res.ptr;
        return true;
      }
    }
  }

  const char* p_;
  const char* const end_;
  const char* const start_ptr_ = p_;
  std::string* error_;
};

}  // namespace json_detail

/// Parses `text` into *out. On failure returns false and, when `error` is
/// non-null, describes the first problem (with a byte offset).
inline bool parse_json(std::string_view text, JsonValue* out,
                       std::string* error = nullptr) {
  *out = JsonValue{};
  if (error != nullptr) error->clear();
  json_detail::Parser parser(text, error);
  return parser.parse(out);
}

}  // namespace foray::util
