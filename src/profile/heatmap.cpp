#include "profile/heatmap.h"

#include <algorithm>

namespace eccm0::profile {

std::vector<std::pair<std::size_t, std::uint64_t>> MemHeatmap::hottest(
    std::size_t n) const {
  std::vector<std::pair<std::size_t, std::uint64_t>> all;
  for (std::size_t w = 0; w < loads_.size(); ++w) {
    if (traffic_at(w) != 0) all.emplace_back(w, traffic_at(w));
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (all.size() > n) all.resize(n);
  return all;
}

void MemHeatmap::clear() {
  std::fill(loads_.begin(), loads_.end(), 0);
  std::fill(stores_.begin(), stores_.end(), 0);
  total_loads_ = total_stores_ = 0;
}

}  // namespace eccm0::profile
