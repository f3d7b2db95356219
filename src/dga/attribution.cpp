#include "dga/attribution.hpp"

namespace nxd::dga {

FamilyAttributor::FamilyAttributor(
    const std::vector<std::unique_ptr<DgaFamily>>& families,
    util::Day first_day, util::Day last_day, std::size_t per_day) {
  for (const auto& family : families) {
    for (util::Day day = first_day; day <= last_day; ++day) {
      for (const auto& name : family->generate(day, per_day)) {
        // Keep the earliest (family, day) that emits the name.
        index_.try_emplace(name.to_string(),
                           Attribution{family->name(), day});
      }
    }
  }
}

std::optional<Attribution> FamilyAttributor::attribute(
    const dns::DomainName& name) const {
  const auto it = index_.find(name.to_string());
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace nxd::dga
