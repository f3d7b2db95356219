#include "util/strings.hpp"

#include <algorithm>

namespace nxd::util {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](char c) { return ascii_lower(c); });
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

bool icontains(std::string_view haystack, std::string_view needle) noexcept {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_nonempty(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (auto piece : split(s, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool is_one_edit(std::string_view a, std::string_view b) noexcept {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > 1) return false;
  std::size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  if (a.size() < b.size()) return a.substr(i) == b.substr(i + 1);  // indel
  if (i == a.size()) return false;  // equal strings
  if (a.substr(i + 1) == b.substr(i + 1)) return true;  // substitution
  return i + 1 < a.size() && a[i] == b[i + 1] && a[i + 1] == b[i] &&
         a.substr(i + 2) == b.substr(i + 2);  // adjacent transposition
}

std::string url_decode(std::string_view s) {
  auto hex_val = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_val(s[i + 1]);
      const int lo = hex_val(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    if (s[i] == '+') {
      out.push_back(' ');
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string with_commas(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string with_commas(std::int64_t v) {
  if (v < 0) return "-" + with_commas(static_cast<std::uint64_t>(-v));
  return with_commas(static_cast<std::uint64_t>(v));
}

}  // namespace nxd::util
