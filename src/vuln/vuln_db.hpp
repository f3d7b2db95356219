// NVD-substitute vulnerability database (paper §6.2, field ③).
//
// The categorizer asks one question of this DB: does a requested URI name a
// file with known vulnerabilities of severity >= Medium?  If yes, the
// request is a likely vulnerability probe ("Malicious Request"); otherwise
// it stays in Script & Software.  We ship the well-known sensitive paths the
// paper cites (wp-login.php, changepassword.php, ...) plus a CVSS-scored
// entry model so new paths can be registered with their advisories.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nxd::vuln {

/// CVSS v3 qualitative severity bands (NIST "Vulnerability Metrics").
enum class Severity : std::uint8_t {
  None = 0,
  Low = 1,
  Medium = 2,
  High = 3,
  Critical = 4,
};

std::string to_string(Severity s);

/// CVSS base score -> qualitative band.
Severity severity_from_score(double cvss_base) noexcept;

struct Advisory {
  std::string cve_id;        // "CVE-2021-xxxxx"
  double cvss_base = 0.0;
  std::string summary;

  Severity severity() const noexcept { return severity_from_score(cvss_base); }
};

class VulnDb {
 public:
  /// Register an advisory against a filename (matched case-insensitively
  /// against the basename of a requested URI path).
  void add(std::string filename, Advisory advisory);

  /// Highest severity among advisories for the file; None when unlisted.
  Severity file_severity(std::string_view filename) const;

  /// Severity of the basename of a URI path ("/admin/wp-login.php?x=1"
  /// -> lookup "wp-login.php").
  Severity uri_severity(std::string_view uri) const;

  /// Paper rule: sensitive iff associated vulnerabilities have severity
  /// >= Medium.
  bool is_sensitive_uri(std::string_view uri) const {
    return uri_severity(uri) >= Severity::Medium;
  }

  std::vector<Advisory> advisories(std::string_view filename) const;

  std::size_t file_count() const noexcept { return files_.size(); }

  /// Database preloaded with the sensitive files the paper names and the
  /// usual suspects probed on fresh web servers.
  static VulnDb with_defaults();

  /// Basename of a URI path, query string stripped, lowercased.
  static std::string uri_basename(std::string_view uri);

 private:
  std::unordered_map<std::string, std::vector<Advisory>> files_;
};

}  // namespace nxd::vuln
