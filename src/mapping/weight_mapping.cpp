#include "mapping/weight_mapping.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sys/rng.hpp"

namespace dnnd::mapping {

using dram::RowAddr;

WeightMapping::WeightMapping(const quant::QuantizedModel& qm, const dram::DramConfig& cfg,
                             MappingConfig mapping_cfg)
    : cfg_(mapping_cfg), geo_(cfg.geo) {
  // Global weight ordinals per layer.
  usize total = 0;
  for (usize l = 0; l < qm.num_layers(); ++l) {
    layer_offsets_.push_back(total);
    total += qm.layer(l).size();
  }
  layer_offsets_.push_back(total);

  const usize rows_needed = (total + geo_.row_bytes - 1) / geo_.row_bytes;

  // Subarray visit order: all (bank, subarray) pairs, seeded shuffle, so data
  // rows spread unevenly but widely (threat-model assumption 2).
  sys::Rng rng(cfg_.placement_seed);
  std::vector<std::pair<u32, u32>> subarrays;
  for (u32 b = 0; b < geo_.banks; ++b) {
    for (u32 s = 0; s < geo_.subarrays_per_bank; ++s) subarrays.emplace_back(b, s);
  }
  rng.shuffle(subarrays);

  // Within each subarray: usable rows start at a jittered offset and step by
  // 3 when aggressor gaps are requested (weight row + free rows either side).
  const u32 reserved = cfg_.reserved_rows_per_subarray;
  if (reserved + 4 >= geo_.rows_per_subarray) {
    throw std::invalid_argument("WeightMapping: reserved region leaves no usable rows");
  }
  const u32 step = cfg_.leave_aggressor_gaps ? 3 : 1;
  std::vector<u32> next_row(subarrays.size());
  for (usize i = 0; i < subarrays.size(); ++i) {
    next_row[i] = 1 + static_cast<u32>(rng.uniform(step));
  }

  row_index_of_flat_.assign(static_cast<usize>(geo_.total_rows()), -1);
  usize placed = 0;
  usize cursor = 0;
  usize exhausted = 0;
  while (spans_.size() < rows_needed) {
    if (exhausted == subarrays.size()) {
      throw std::invalid_argument("WeightMapping: device too small for model weights");
    }
    const usize si = cursor % subarrays.size();
    cursor++;
    const auto [bank, sub] = subarrays[si];
    const u32 limit = geo_.rows_per_subarray - reserved;
    if (next_row[si] >= limit) {
      ++exhausted;
      continue;
    }
    exhausted = 0;
    const RowAddr row{bank, sub, next_row[si]};
    next_row[si] += step;
    RowSpan span;
    span.row = row;
    span.first_weight = placed;
    span.count = std::min<usize>(geo_.row_bytes, total - placed);
    placed += span.count;
    row_index_of_flat_[static_cast<usize>(flat_row_id(geo_, row))] =
        static_cast<i64>(spans_.size());
    rows_.push_back(row);
    spans_.push_back(span);
  }
}

Placement WeightMapping::locate(usize layer, usize index) const {
  assert(layer + 1 < layer_offsets_.size());
  const usize global = layer_offsets_[layer] + index;
  assert(global < layer_offsets_.back());
  const usize span_idx = global / geo_.row_bytes;
  return Placement{spans_[span_idx].row, global % geo_.row_bytes};
}

const WeightMapping::RowSpan* WeightMapping::span_for(const RowAddr& row) const {
  const i64 idx = row_index_of_flat_[static_cast<usize>(flat_row_id(geo_, row))];
  return idx < 0 ? nullptr : &spans_[static_cast<usize>(idx)];
}

std::optional<WeightLocation> WeightMapping::weight_at(const RowAddr& row, usize col) const {
  const RowSpan* span = span_for(row);
  if (span == nullptr || col >= span->count) return std::nullopt;
  const usize global = span->first_weight + col;
  // Find the layer via the offsets table (upper_bound - 1).
  const auto it = std::upper_bound(layer_offsets_.begin(), layer_offsets_.end(), global);
  const usize layer = static_cast<usize>(it - layer_offsets_.begin()) - 1;
  return WeightLocation{layer, global - layer_offsets_[layer]};
}

usize WeightMapping::weights_in_row(const RowAddr& row) const {
  const RowSpan* span = span_for(row);
  return span == nullptr ? 0 : span->count;
}

quant::BitSkipSet WeightMapping::bits_in_rows(std::span<const RowAddr> rows) const {
  quant::BitSkipSet set;
  for (const RowAddr& row : rows) {
    const usize count = weights_in_row(row);
    for (usize col = 0; col < count; ++col) {
      const auto w = weight_at(row, col);
      for (u32 bit = 0; bit < 8; ++bit) set.insert({w->layer, w->index, bit});
    }
  }
  return set;
}

void WeightMapping::upload(const quant::QuantizedModel& qm, dram::DramDevice& dev,
                           const dram::RowRemapper& remap) const {
  for (const RowSpan& span : spans_) {
    const RowAddr phys = remap.to_physical(span.row);
    for (usize c = 0; c < span.count; ++c) {
      const auto w = weight_at(span.row, c);
      assert(w.has_value());
      dev.poke(phys, c, static_cast<u8>(qm.get_q(w->layer, w->index)));
    }
  }
}

void WeightMapping::download(quant::QuantizedModel& qm, const dram::DramDevice& dev,
                             const dram::RowRemapper& remap) const {
  for (const RowSpan& span : spans_) {
    const RowAddr phys = remap.to_physical(span.row);
    for (usize c = 0; c < span.count; ++c) {
      const auto w = weight_at(span.row, c);
      assert(w.has_value());
      qm.set_q(w->layer, w->index, static_cast<i8>(dev.peek(phys, c)));
    }
  }
}

}  // namespace dnnd::mapping
