// The text layer's shared pieces. Manifests, config keys, spec strings,
// trace files, DF_* variables and command-line flags all read numbers
// through parse_number, so every input is equally strict, and each call
// site adds its own pointed message when a value does not parse.
#pragma once

#include <charconv>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dfsim {

/// The number `text` spells, or nullopt unless all of `text` is one
/// decimal number in T's range. No leading whitespace, '+' or trailing
/// characters; an unsigned T takes no '-', so "-5" never wraps to
/// 2^64 - 5. A floating T also takes exponents, "inf" and "nan".
template <class T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A "+N" / "-N" offset at the start of `text`, as in the traffic specs
/// advg+1 and shift-2 and the motif shift+N: its value and whatever
/// follows the digits. nullopt unless `text` starts with a sign and a
/// digit and the value fits an int.
struct SignedPrefix {
  int value = 0;
  std::string_view rest;
};
std::optional<SignedPrefix> parse_signed_prefix(std::string_view text);

/// The fields of `s` between `sep`s, empty ones included ("" is one
/// empty field).
std::vector<std::string> split(std::string_view s, char sep);

/// `s` without leading and trailing spaces, tabs and carriage returns.
std::string trim(std::string_view s);

/// `s` in ASCII lower case.
std::string lower(std::string_view s);

/// `v` printed "%.17g", which reparses to exactly `v`.
std::string fmt_f64(double v);

/// Calls set(key, value), both trimmed, for each `key = value` line of
/// `text`; blank lines and `#` comments are skipped. A line without '='
/// or one whose set() throws std::invalid_argument throws
/// std::invalid_argument naming it ("<what> line N: ...").
void for_each_setting(
    const std::string& text, const char* what,
    const std::function<void(const std::string&, const std::string&)>& set);

/// The first line (1-based, std::getline's split) where two texts part
/// ways, with both lines ("<missing>" past a text's end); nullopt when
/// every line matches.
struct LineDifference {
  int line = 0;
  std::string a, b;
};
std::optional<LineDifference> first_line_difference(const std::string& a,
                                                    const std::string& b);

}  // namespace dfsim
