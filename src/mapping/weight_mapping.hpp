// Weight-to-DRAM layout: the "mapping file" of the paper's threat model
// (Fig. 4). Quantized weights are stored one byte per weight, packed into
// DRAM rows that are spread over banks/subarrays (threat-model assumption:
// vulnerable data rows are neither concentrated in one subarray nor exactly
// evenly distributed). Both the victim system and the white-box attacker
// hold this mapping.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dram/dram_device.hpp"
#include "dram/row_remapper.hpp"
#include "quant/bit_gradient.hpp"

namespace dnnd::mapping {

struct MappingConfig {
  u32 reserved_rows_per_subarray = 4;  ///< rows at the top of each subarray kept free
                                       ///< for the defense's reserved region
  u64 placement_seed = 0xA110C;        ///< jitters row placement across subarrays
  bool leave_aggressor_gaps = true;    ///< keep the rows adjacent to weight rows free
                                       ///< (they belong to other processes; the
                                       ///< attacker massages its pages into them)
};

/// Physical byte position of one weight.
struct Placement {
  dram::RowAddr row;  ///< logical row (defense indirection applies on top)
  usize col = 0;      ///< byte within the row
};

/// Identifies one weight (without a bit index).
struct WeightLocation {
  usize layer = 0;
  usize index = 0;

  friend bool operator==(const WeightLocation&, const WeightLocation&) = default;
};

class WeightMapping {
 public:
  /// Plans the layout for `qm` on a device with geometry `cfg.geo`.
  WeightMapping(const quant::QuantizedModel& qm, const dram::DramConfig& cfg,
                MappingConfig mapping_cfg = {});

  /// Where does weight (layer, index) live (logical address)?
  [[nodiscard]] Placement locate(usize layer, usize index) const;

  /// Which weight occupies byte `col` of logical row `row`? nullopt when the
  /// byte is padding / not a weight.
  [[nodiscard]] std::optional<WeightLocation> weight_at(const dram::RowAddr& row,
                                                        usize col) const;

  /// All logical rows that hold at least one weight, in layout order.
  [[nodiscard]] const std::vector<dram::RowAddr>& weight_rows() const { return rows_; }

  /// Writes every quantized weight into the device (direct cell write;
  /// setup, not timed traffic). `remap` translates logical->physical.
  void upload(const quant::QuantizedModel& qm, dram::DramDevice& dev,
              const dram::RowRemapper& remap) const;

  /// Reads every weight byte back from the device into the quantized model
  /// and re-materializes (this is how RowHammer flips reach inference).
  void download(quant::QuantizedModel& qm, const dram::DramDevice& dev,
                const dram::RowRemapper& remap) const;

  /// Number of weight bytes stored in a given logical row.
  [[nodiscard]] usize weights_in_row(const dram::RowAddr& row) const;

  /// All 8 bits of every weight stored in `rows`: the Secured Bits of a
  /// defense that protects whole rows.
  [[nodiscard]] quant::BitSkipSet bits_in_rows(std::span<const dram::RowAddr> rows) const;

  [[nodiscard]] const MappingConfig& config() const { return cfg_; }

 private:
  struct RowSpan {
    dram::RowAddr row;
    usize first_weight = 0;  ///< global weight ordinal of col 0
    usize count = 0;         ///< weight bytes used in this row
  };

  [[nodiscard]] const RowSpan* span_for(const dram::RowAddr& row) const;

  MappingConfig cfg_;
  dram::Geometry geo_;
  std::vector<usize> layer_offsets_;  ///< global ordinal of each layer's first weight
  std::vector<RowSpan> spans_;        ///< one per allocated row, layout order
  std::vector<dram::RowAddr> rows_;
  std::vector<i64> row_index_of_flat_;  ///< flat logical row id -> span index or -1
};

}  // namespace dnnd::mapping
