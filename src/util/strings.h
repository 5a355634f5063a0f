// Small string helpers used across the library (formatting of addresses,
// table rendering for the benchmark harness, splitting for spec parsers).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace foray::util {

/// Lower-case hexadecimal rendering without 0x prefix, e.g. 4002a0.
std::string to_hex(uint64_t v);

/// Parse signed decimal. Returns false on bad input.
bool parse_i64(std::string_view s, int64_t* out);

/// Split on a single character; keeps empty tokens.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Strip leading spaces and tabs, and trailing spaces, tabs and carriage
/// returns (so a line of a CRLF file trims like its LF twin).
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Count '\n'-terminated lines; a trailing partial line counts as one.
int count_lines(std::string_view s);

/// Appends printf-style output to `out`, however long it formats.
void append_format(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Render "12.3%" style percentage with one decimal.
std::string pct(double numer, double denom);

/// Human-readable access counts: 123, 45.6K, 8.3M.
std::string human_count(uint64_t n);

/// Fixed-width left/right aligned cell used by table printers.
std::string pad_left(std::string s, size_t width);
std::string pad_right(std::string s, size_t width);

/// Simple markdown-ish table printer used by the bench binaries so every
/// reproduced table has a uniform look.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  /// Render with column widths fitted to content.
  std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace foray::util
