#include "core/priority_profiler.hpp"

#include <algorithm>

namespace dnnd::core {

quant::BitSkipSet ProfileResult::secured_set(usize n) const {
  quant::BitSkipSet set;
  const usize count = (n == 0 || n > priority_bits.size()) ? priority_bits.size() : n;
  for (usize i = 0; i < count; ++i) set.insert(priority_bits[i]);
  return set;
}

PriorityProfiler::PriorityProfiler(quant::QuantizedModel& qm, nn::Tensor attack_x,
                                   std::vector<u32> attack_y, ProfilerConfig cfg)
    : qm_(qm), attack_x_(std::move(attack_x)), attack_y_(std::move(attack_y)), cfg_(cfg) {}

ProfileResult PriorityProfiler::profile() {
  ProfileResult result;
  const auto clean_snapshot = qm_.snapshot();
  quant::BitSkipSet exclude;
  for (usize round = 0; round < cfg_.rounds; ++round) {
    attack::ProgressiveBitSearch search(qm_, attack_x_, attack_y_);
    const attack::SearchResult res = search.run(exclude);
    // Flip everything back (the profiler must not damage the model) and
    // exclude this round's bits from the next round.
    qm_.restore(clean_snapshot);
    if (res.steps.empty()) break;  // search space exhausted
    result.round_sizes.push_back(res.steps.size());
    for (const auto& rec : res.steps) {
      exclude.insert(rec.loc);
      result.priority_bits.push_back(rec.loc);
    }
  }
  return result;
}

ProfileResult PriorityProfiler::profile_blocked_attacker(usize n_bits) {
  ProfileResult result;
  quant::BitSkipSet skip;
  for (usize i = 0; i < n_bits; ++i) {
    // A fresh search per selection: the blocked attacker's model never
    // changes, only its knowledge of which bits are futile.
    attack::ProgressiveBitSearch search(qm_, attack_x_, attack_y_);
    const auto rec = search.step(skip);
    if (!rec.has_value()) break;
    qm_.flip(rec->loc);  // undo the search's commit
    skip.insert(rec->loc);
    result.priority_bits.push_back(rec->loc);
  }
  result.round_sizes.push_back(result.priority_bits.size());
  return result;
}

std::vector<dram::RowAddr> PriorityProfiler::target_rows(const ProfileResult& result,
                                                         const mapping::WeightMapping& mapping,
                                                         usize max_bits) {
  std::vector<dram::RowAddr> rows;
  const usize count = (max_bits == 0 || max_bits > result.priority_bits.size())
                          ? result.priority_bits.size()
                          : max_bits;
  for (usize i = 0; i < count; ++i) {
    const auto& bit = result.priority_bits[i];
    const dram::RowAddr row = mapping.locate(bit.layer, bit.index).row;
    if (std::find(rows.begin(), rows.end(), row) == rows.end()) rows.push_back(row);
  }
  return rows;
}

}  // namespace dnnd::core
