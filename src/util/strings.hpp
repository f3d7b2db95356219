// ASCII string helpers shared across the library.  DNS names are ASCII (or
// punycode-encoded) by the time they reach us, so these deliberately operate
// on bytes, never on locale-dependent ctype tables.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nxd::util {

constexpr char ascii_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_alnum(char c) noexcept { return is_digit(c) || is_alpha(c); }

std::string to_lower(std::string_view s);

/// Case-insensitive ASCII equality (DNS names compare case-insensitively,
/// RFC 1035 §2.3.3).
bool iequals(std::string_view a, std::string_view b) noexcept;

bool icontains(std::string_view haystack, std::string_view needle) noexcept;

std::vector<std::string_view> split(std::string_view s, char sep);

/// Like split, but drops empty pieces ("a..b" -> {a, b}).
std::vector<std::string_view> split_nonempty(std::string_view s, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view trim(std::string_view s) noexcept;

bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// True when `a` and `b` are one substitution, one insertion or deletion,
/// or one adjacent transposition apart (Damerau-Levenshtein distance 1, the
/// distance typo generators induce).  O(n), no allocation.
bool is_one_edit(std::string_view a, std::string_view b) noexcept;

/// Percent-decode a URI component; invalid escapes are passed through.
std::string url_decode(std::string_view s);

/// Formats an integer with thousands separators ("5925311" -> "5,925,311"),
/// matching how the paper reports counts.
std::string with_commas(std::uint64_t v);
std::string with_commas(std::int64_t v);

}  // namespace nxd::util
