#include "util/strings.h"

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace foray::util {

std::string to_hex(uint64_t v) {
  char buf[20];
  int n = std::snprintf(buf, sizeof buf, "%llx",
                        static_cast<unsigned long long>(v));
  return std::string(buf, static_cast<size_t>(n));
}

bool parse_i64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (ec != std::errc() || p != s.data() + s.size()) return false;
  *out = v;
  return true;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

int count_lines(std::string_view s) {
  if (s.empty()) return 0;
  int n = 0;
  for (char c : s)
    if (c == '\n') ++n;
  if (s.back() != '\n') ++n;
  return n;
}

void append_format(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const size_t at = out->size();
    // vsnprintf writes a terminating NUL, so format into one byte more.
    out->resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + at, static_cast<size_t>(n) + 1, fmt, again);
    out->resize(at + static_cast<size_t>(n));
  }
  va_end(again);
}

std::string pct(double numer, double denom) {
  if (denom == 0.0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * numer / denom);
  return buf;
}

std::string human_count(uint64_t n) {
  char buf[32];
  if (n >= 10'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 1'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.2fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000ull) {
    std::snprintf(buf, sizeof buf, "%.1fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(n));
  }
  return buf;
}

std::string pad_left(std::string s, size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string pad_right(std::string s, size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::str() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out += "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
      out += ' ';
      out += pad_right(c < cells.size() ? cells[c] : "", widths[c]);
      out += " |";
    }
    out += '\n';
  };
  emit_row(headers_);
  out += "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += std::string(widths[c] + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

}  // namespace foray::util
