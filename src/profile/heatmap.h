// Per-word load/store heatmap of the simulated SRAM.
//
// Counts every data access a traced run makes, bucketed by the RAM word
// it touches (sub-word accesses count against their containing word).
// Summarized over the kernel RAM layout (asmkernels/gen.h offsets) this
// observationally verifies the paper's fixed-register claim: the product
// words the LD multiplication pins in registers show near-zero traffic,
// while the plain-memory variant hammers them on every inner step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "armvm/cpu.h"

namespace eccm0::profile {

class MemHeatmap final : public armvm::TraceSink {
 public:
  explicit MemHeatmap(std::size_t ram_bytes)
      : loads_(ram_bytes / 4, 0), stores_(ram_bytes / 4, 0) {}

  void on_retire(const armvm::TraceEvent& ev) override {
    for (unsigned i = 0; i < ev.num_accesses; ++i) {
      const armvm::MemAccess& a = ev.accesses[i];
      if (a.addr < armvm::kRamBase) continue;  // literal pools, code space
      const std::size_t w = (a.addr - armvm::kRamBase) / 4;
      if (w >= loads_.size()) continue;
      if (a.store) {
        ++stores_[w];
        ++total_stores_;
      } else {
        ++loads_[w];
        ++total_loads_;
      }
    }
  }

  std::size_t words() const { return loads_.size(); }
  std::uint64_t loads_at(std::size_t word) const { return loads_[word]; }
  std::uint64_t stores_at(std::size_t word) const { return stores_[word]; }
  std::uint64_t traffic_at(std::size_t word) const {
    return loads_[word] + stores_[word];
  }
  std::uint64_t total_loads() const { return total_loads_; }
  std::uint64_t total_stores() const { return total_stores_; }

  /// A named span of the RAM layout, in words.
  struct Region {
    std::string name;
    std::uint32_t byte_offset = 0;
    std::uint32_t num_words = 0;
  };

  struct RegionReport {
    std::string name;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t peak_word_traffic = 0;  ///< hottest single word
  };

  RegionReport summarize(const Region& r) const {
    RegionReport out;
    out.name = r.name;
    const std::size_t first = r.byte_offset / 4;
    for (std::uint32_t i = 0; i < r.num_words; ++i) {
      const std::size_t w = first + i;
      if (w >= loads_.size()) break;
      out.loads += loads_[w];
      out.stores += stores_[w];
      if (traffic_at(w) > out.peak_word_traffic) {
        out.peak_word_traffic = traffic_at(w);
      }
    }
    return out;
  }

  std::vector<RegionReport> summarize(std::span<const Region> rs) const {
    std::vector<RegionReport> out;
    out.reserve(rs.size());
    for (const Region& r : rs) out.push_back(summarize(r));
    return out;
  }

  /// The `n` hottest words as (word index, loads+stores), descending.
  std::vector<std::pair<std::size_t, std::uint64_t>> hottest(
      std::size_t n) const;

  void clear();

 private:
  std::vector<std::uint64_t> loads_;
  std::vector<std::uint64_t> stores_;
  std::uint64_t total_loads_ = 0;
  std::uint64_t total_stores_ = 0;
};

}  // namespace eccm0::profile
