// DGA family attribution: which family (and which generation day) produced
// a given domain?
//
// Classification (classifier.hpp) says "this looks algorithmic"; a sinkhole
// operator needs more — *whose* algorithm, so the hit maps to a botnet and
// its takedown playbook.  Since DGAs are deterministic given (seed, date),
// attribution is dictionary search: regenerate each known family over a
// date window and index the output.  This mirrors DGArchive-style services.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dga/families.hpp"

namespace nxd::dga {

struct Attribution {
  std::string family;
  util::Day generation_day = 0;  // first day in the window that emits it
};

class FamilyAttributor {
 public:
  /// Index `families` over [first_day, last_day] generating `per_day` names
  /// per family per day (use the family's real daily volume where known).
  FamilyAttributor(const std::vector<std::unique_ptr<DgaFamily>>& families,
                   util::Day first_day, util::Day last_day,
                   std::size_t per_day = 250);

  /// Attribute a domain; nullopt when no indexed family emits it in the
  /// window.
  std::optional<Attribution> attribute(const dns::DomainName& name) const;

  std::size_t index_size() const noexcept { return index_.size(); }

 private:
  std::unordered_map<std::string, Attribution> index_;
};

}  // namespace nxd::dga
