// Strict number parsing for command-line values.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace dlb {

/// Parses all of `s` as a decimal number of type T (an integer or a
/// floating-point type). No leading whitespace or '+', no trailing bytes,
/// and the value must fit T; otherwise returns nullopt. So "2abc", "",
/// " 2" and a value past T's range are all refused.
template <class T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace dlb
