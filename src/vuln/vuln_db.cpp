#include "vuln/vuln_db.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace nxd::vuln {

std::string to_string(Severity s) {
  switch (s) {
    case Severity::None: return "none";
    case Severity::Low: return "low";
    case Severity::Medium: return "medium";
    case Severity::High: return "high";
    case Severity::Critical: return "critical";
  }
  return "unknown";
}

Severity severity_from_score(double cvss_base) noexcept {
  if (cvss_base >= 9.0) return Severity::Critical;
  if (cvss_base >= 7.0) return Severity::High;
  if (cvss_base >= 4.0) return Severity::Medium;
  if (cvss_base > 0.0) return Severity::Low;
  return Severity::None;
}

void VulnDb::add(std::string filename, Advisory advisory) {
  files_[util::to_lower(filename)].push_back(std::move(advisory));
}

Severity VulnDb::file_severity(std::string_view filename) const {
  const auto it = files_.find(util::to_lower(filename));
  if (it == files_.end()) return Severity::None;
  Severity best = Severity::None;
  for (const auto& advisory : it->second) {
    best = std::max(best, advisory.severity());
  }
  return best;
}

std::string VulnDb::uri_basename(std::string_view uri) {
  // Strip query string and fragment first.
  if (const auto q = uri.find_first_of("?#"); q != std::string_view::npos) {
    uri = uri.substr(0, q);
  }
  if (const auto slash = uri.find_last_of('/'); slash != std::string_view::npos) {
    uri = uri.substr(slash + 1);
  }
  return util::to_lower(uri);
}

Severity VulnDb::uri_severity(std::string_view uri) const {
  // Try the full path first (some advisories key on multi-segment paths,
  // e.g. "boaform/admin/formlogin"), then fall back to the basename.
  std::string_view path = uri;
  if (const auto q = path.find_first_of("?#"); q != std::string_view::npos) {
    path = path.substr(0, q);
  }
  while (!path.empty() && path.front() == '/') path.remove_prefix(1);
  if (!path.empty()) {
    if (const Severity s = file_severity(path); s != Severity::None) return s;
  }
  const std::string base = uri_basename(uri);
  if (base.empty()) return Severity::None;
  return file_severity(base);
}

std::vector<Advisory> VulnDb::advisories(std::string_view filename) const {
  const auto it = files_.find(util::to_lower(filename));
  if (it == files_.end()) return {};
  return it->second;
}

VulnDb VulnDb::with_defaults() {
  VulnDb db;
  // The two files the paper calls out explicitly (§6.2/§6.3), plus the
  // standard probe set every exposed web server sees.  CVE ids with year
  // 1999 zeros are synthetic placeholders for aggregate classes.
  auto add = [&db](const char* file, const char* cve, double score,
                   const char* summary) {
    db.add(file, Advisory{cve, score, summary});
  };
  add("wp-login.php", "CVE-2022-21661", 8.0, "WordPress login brute-force / SQLi surface");
  // Botnet task-poll endpoint observed on gpclick.com (paper Fig 12); the
  // beacons leak IMEI/phone PII, so requests for it are vulnerability-grade.
  add("gettask.php", "CVE-2013-0000", 8.5, "Android SMS-fraud botnet C&C task poll");
  add("changepassword.php", "CVE-2019-16123", 7.5, "Unauthenticated password change");
  add("changepasswd.php", "CVE-2019-16123", 7.5, "Unauthenticated password change");
  add("xmlrpc.php", "CVE-2014-5266", 6.4, "WordPress XML-RPC amplification / brute force");
  add("wp-config.php", "CVE-2016-10033", 9.8, "Configuration disclosure");
  add("admin.php", "CVE-2020-0618", 6.5, "Admin panel exposure");
  add("setup.php", "CVE-2018-1000226", 7.2, "phpMyAdmin setup RCE");
  add("shell.php", "CVE-2017-1000486", 9.8, "Webshell upload artifact");
  add("cmd.php", "CVE-2017-1000486", 9.8, "Webshell upload artifact");
  add("config.php", "CVE-2015-1397", 7.5, "Configuration disclosure");
  add(".env", "CVE-2017-16894", 7.5, "Laravel environment file disclosure");
  add("phpinfo.php", "CVE-2007-1287", 5.3, "Information disclosure");
  add("login.action", "CVE-2023-22527", 9.8, "Confluence OGNL injection");
  add("manager/html", "CVE-2017-12615", 8.1, "Tomcat manager PUT RCE");
  add("id_rsa", "CVE-2017-15999", 9.1, "Private key disclosure");
  add("backup.sql", "CVE-2018-1002105", 7.5, "Database dump disclosure");
  add("install.php", "CVE-2020-13671", 7.2, "Installer re-run");
  add("adminer.php", "CVE-2021-21311", 7.2, "Adminer SSRF");
  add("boaform/admin/formlogin", "CVE-2020-8958", 7.2, "Router admin login probe");
  // Low-severity (below Medium): present in the DB but not "sensitive".
  add("robots.txt", "CVE-1999-0000", 2.0, "Crawler policy disclosure (benign)");
  add("favicon.ico", "CVE-1999-0001", 1.0, "Fingerprinting aid (benign)");
  return db;
}

}  // namespace nxd::vuln
