#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "rowhammer/attacker.hpp"
#include "rowhammer/hammer_model.hpp"

namespace dnnd::rowhammer {
namespace {

using dram::DramConfig;
using dram::DramDevice;
using dram::RowAddr;

DramConfig small_config(u32 t_rh = 1000) {
  DramConfig cfg = DramConfig::sim_small();
  cfg.t_rh = t_rh;
  return cfg;
}

HammerModelConfig dense_cells() {
  HammerModelConfig h;
  h.p_vulnerable = 0.2;  // plenty of flippable cells for small-row tests
  h.threshold_spread = 0.5;
  h.seed = 99;
  return h;
}

class HammerTest : public ::testing::Test {
 protected:
  HammerTest() : dev_(small_config()), model_(dev_, dense_cells()), attacker_(dev_, sys::Rng(5)) {}

  void fill_row(const RowAddr& r, u8 value) {
    std::vector<u8> data(dev_.config().geo.row_bytes, value);
    dev_.write_row(r, data);
  }

  DramDevice dev_;
  HammerModel model_;
  HammerAttacker attacker_;
};

TEST_F(HammerTest, NoFlipsBelowThreshold) {
  fill_row({0, 0, 10}, 0xFF);
  const auto res = attacker_.double_sided({0, 0, 10}, dev_.config().t_rh / 2);
  EXPECT_FALSE(res.any_flip());
  EXPECT_EQ(model_.flips_injected(), 0u);
}

TEST_F(HammerTest, FlipsAppearPastThreshold) {
  fill_row({0, 0, 10}, 0xFF);
  const auto res = attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  EXPECT_TRUE(res.any_flip());
  EXPECT_GT(model_.flips_injected(), 0u);
}

TEST_F(HammerTest, FirstFlipRequiresAtLeastThresholdDisturbance) {
  fill_row({0, 0, 10}, 0xFF);
  // Hammer one ACT at a time; record the count at the first observed flip.
  const RowAddr aggressors[2] = {{0, 0, 9}, {0, 0, 11}};
  u64 acts = 0;
  while (!model_.flips_injected() && acts < 3 * dev_.config().t_rh) {
    attacker_.hammer(aggressors, 2);
    acts += 2;
  }
  ASSERT_GT(model_.flips_injected(), 0u) << "no flip within 3x threshold";
  // Double-sided: each aggressor pair adds 2 disturbances to the victim, so
  // the flip cannot appear before t_rh aggressor ACTs.
  EXPECT_GE(acts, dev_.config().t_rh);
}

TEST_F(HammerTest, DisturbanceConfinedToNeighbors) {
  fill_row({0, 0, 10}, 0xFF);
  fill_row({0, 0, 13}, 0xFF);
  attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  // Row 13 is 2+ rows away from both aggressors (9 and 11): untouched.
  EXPECT_EQ(model_.disturbance({0, 0, 13}), 0u);
  for (u8 b : dev_.peek_row({0, 0, 13})) EXPECT_EQ(b, 0xFF);
}

TEST_F(HammerTest, RefreshResetsProgress) {
  fill_row({0, 0, 10}, 0xFF);
  const RowAddr aggressors[2] = {{0, 0, 9}, {0, 0, 11}};
  // Hammer to 90% of threshold, refresh, hammer another 90%: no flip ever.
  const u64 burst = dev_.config().t_rh * 9 / 10;
  attacker_.hammer(aggressors, burst);
  dev_.refresh_all();
  attacker_.hammer(aggressors, burst);
  EXPECT_EQ(model_.flips_injected(), 0u);
}

TEST_F(HammerTest, RewriteRearmsFlippedCells) {
  fill_row({0, 0, 10}, 0xFF);
  attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  const u64 first = model_.flips_injected();
  ASSERT_GT(first, 0u);
  // Rewriting the row recharges the cells; the same attack flips them again.
  fill_row({0, 0, 10}, 0xFF);
  attacker_.double_sided({0, 0, 10}, 2 * dev_.config().t_rh);
  EXPECT_GT(model_.flips_injected(), first);
}

TEST_F(HammerTest, DirectionalCellsOnlyFlipChargedState) {
  // All-zero row: only anti-cells (0->1) can flip.
  fill_row({0, 0, 20}, 0x00);
  const auto res = attacker_.double_sided({0, 0, 20}, 2 * dev_.config().t_rh);
  for (const auto& f : res.flips) {
    EXPECT_EQ(f.before & (1u << f.bit), 0u) << "flip started from 0";
    EXPECT_NE(f.after & (1u << f.bit), 0u) << "flip went to 1";
  }
}

TEST_F(HammerTest, OnesRowOnlyFlipsToZero) {
  fill_row({0, 0, 30}, 0xFF);
  const auto res = attacker_.double_sided({0, 0, 30}, 2 * dev_.config().t_rh);
  ASSERT_TRUE(res.any_flip());
  for (const auto& f : res.flips) {
    EXPECT_NE(f.before & (1u << f.bit), 0u);
    EXPECT_EQ(f.after & (1u << f.bit), 0u);
  }
}

TEST_F(HammerTest, SingleSidedWeakerThanDoubleSided) {
  fill_row({0, 0, 40}, 0xFF);
  // Same ACT budget: single-sided delivers ~half the disturbance.
  const u64 budget = dev_.config().t_rh + dev_.config().t_rh / 2;
  const auto single = attacker_.single_sided({0, 0, 40}, budget);
  fill_row({0, 0, 40}, 0xFF);
  dev_.refresh_all();
  const auto dbl = attacker_.double_sided({0, 0, 40}, budget);
  EXPECT_GE(dbl.flips.size(), single.flips.size());
  EXPECT_TRUE(dbl.any_flip());
  EXPECT_FALSE(single.any_flip());  // budget < 2x threshold
}

TEST_F(HammerTest, SusceptibilityIsDeterministicPerSeed) {
  DramDevice dev2(small_config());
  HammerModel model2(dev2, dense_cells());
  const auto& a = model_.vulnerable_cells({0, 1, 17});
  const auto& b = model2.vulnerable_cells({0, 1, 17});
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].col, b[i].col);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].threshold, b[i].threshold);
    EXPECT_EQ(a[i].one_to_zero, b[i].one_to_zero);
  }
}

TEST_F(HammerTest, SusceptibilityDiffersAcrossSeeds) {
  DramDevice dev2(small_config());
  HammerModelConfig other = dense_cells();
  other.seed = 12345;
  HammerModel model2(dev2, other);
  const auto& a = model_.vulnerable_cells({0, 1, 17});
  const auto& b = model2.vulnerable_cells({0, 1, 17});
  // Same density but different cells.
  bool identical = a.size() == b.size();
  if (identical) {
    for (usize i = 0; i < a.size(); ++i) {
      if (a[i].col != b[i].col || a[i].bit != b[i].bit) {
        identical = false;
        break;
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST_F(HammerTest, VulnerableDensityTracksConfig) {
  usize total = 0, rows = 0;
  for (u32 r = 0; r < 32; ++r) {
    total += model_.vulnerable_cells({1, 0, r}).size();
    ++rows;
  }
  const double density = static_cast<double>(total) /
                         (static_cast<double>(rows) * dev_.config().geo.row_bytes * 8);
  EXPECT_NEAR(density, dense_cells().p_vulnerable, 0.05);
}

TEST_F(HammerTest, ThresholdsWithinSpread) {
  const u64 t_rh = dev_.config().t_rh;
  for (const auto& c : model_.vulnerable_cells({0, 2, 5})) {
    EXPECT_GE(c.threshold, t_rh);
    EXPECT_LE(c.threshold,
              t_rh + static_cast<u64>(dense_cells().threshold_spread * t_rh) + 1);
  }
}

TEST_F(HammerTest, CellInfoFindsKnownCells) {
  const auto& cells = model_.vulnerable_cells({0, 3, 7});
  ASSERT_FALSE(cells.empty());
  const auto info = model_.cell_info({0, 3, 7}, cells[0].col, cells[0].bit);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->threshold, cells[0].threshold);
  // A (col,bit) beyond the row is never vulnerable.
  EXPECT_FALSE(model_.cell_info({0, 3, 7}, 0, 0).has_value() &&
               cells.size() == 0);
}

TEST_F(HammerTest, TemplatingDiscoversOracleCells) {
  // Templating with a generous budget must discover exactly the cells whose
  // threshold fits in the budget, with correct directions.
  const u64 budget = 2 * dev_.config().t_rh;  // > max threshold (1.5x)
  const auto found = attacker_.template_rows(1, 1, 10, 13, budget);
  for (const auto& e : found) {
    const auto info = model_.cell_info(e.row, e.col, e.bit);
    ASSERT_TRUE(info.has_value())
        << "templating found a cell the oracle does not know: row=" << e.row.row
        << " col=" << e.col << " bit=" << e.bit;
    EXPECT_EQ(info->one_to_zero, e.one_to_zero);
  }
  // And it must find at least the interior cells of the middle probed row.
  usize oracle_cells = model_.vulnerable_cells({1, 1, 11}).size();
  usize found_mid = 0;
  for (const auto& e : found) found_mid += (e.row.row == 11);
  EXPECT_GE(found_mid, oracle_cells / 2);
}

TEST_F(HammerTest, PostActHookFires) {
  u64 hooks = 0;
  attacker_.set_post_act_hook([&] { ++hooks; });
  const RowAddr aggressors[2] = {{0, 0, 3}, {0, 0, 5}};
  attacker_.hammer(aggressors, 100);
  EXPECT_EQ(hooks, 100u);
}

TEST(HammerEdge, TopEdgeVictimFallsBackToLowerAggressor) {
  DramConfig cfg = small_config();
  DramDevice dev(cfg);
  HammerModel model(dev, dense_cells());
  HammerAttacker attacker(dev, sys::Rng(3));
  const u32 last = cfg.geo.rows_per_subarray - 1;
  std::vector<u8> ones(cfg.geo.row_bytes, 0xFF);
  dev.write_row({0, 0, last}, ones);
  // Single-sided alternates aggressor/dummy, so the victim sees one
  // disturbance per two ACTs; 4x T_RH covers the full threshold spread.
  const auto res = attacker.single_sided({0, 0, last}, 4 * cfg.t_rh);
  EXPECT_TRUE(res.any_flip());  // aggressor row last-1 works
}

TEST(HammerEdge, BlastRadiusTwoReachesSecondNeighbor) {
  DramConfig cfg = small_config();
  cfg.blast_radius = 2;
  DramDevice dev(cfg);
  HammerModel model(dev, dense_cells());
  std::vector<u8> ones(cfg.geo.row_bytes, 0xFF);
  dev.write_row({0, 0, 12}, ones);
  // Hammer row 10: victims are 9,11 (d=1) and 8,12 (d=2).
  HammerAttacker attacker(dev, sys::Rng(3));
  const RowAddr aggressors[2] = {{0, 0, 10}, {0, 1, 0}};  // dummy in other subarray
  attacker.hammer(aggressors, 4 * cfg.t_rh);
  EXPECT_GT(model.disturbance({0, 0, 12}), 0u);
}

TEST(HammerConfig, NegativeThresholdSpreadIsRejected) {
  DramDevice dev(small_config());
  HammerModelConfig h = dense_cells();
  h.threshold_spread = -0.1;
  EXPECT_THROW(HammerModel(dev, h), std::invalid_argument);
  h.threshold_spread = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(HammerModel(dev, h), std::invalid_argument);
}

TEST(HammerConfig, ZeroSpreadFlipsExactlyAtThreshold) {
  // Every cell threshold equals T_RH: the row's first flip must land on the
  // very ACT that takes its disturbance to T_RH, not one later.
  DramDevice dev(small_config(200));
  HammerModelConfig h = dense_cells();
  h.threshold_spread = 0.0;
  HammerModel model(dev, h);
  for (const auto& c : model.vulnerable_cells({0, 0, 10})) ASSERT_EQ(c.threshold, 200u);
  std::vector<u8> ones(dev.config().geo.row_bytes, 0xFF);
  dev.write_row({0, 0, 10}, ones);
  HammerAttacker attacker(dev, sys::Rng(1));
  const RowAddr aggressors[2] = {{0, 0, 9}, {0, 0, 11}};
  attacker.hammer(aggressors, 199);
  EXPECT_EQ(model.disturbance({0, 0, 10}), 199u);
  EXPECT_EQ(model.flips_injected(), 0u);
  dev.activate({0, 0, 11});  // hammer() would restart at row 9, which is still open
  EXPECT_EQ(model.disturbance({0, 0, 10}), 200u);
  EXPECT_GT(model.flips_injected(), 0u);
}

// ------------------------------------------- differential oracle -----

/// The map-based model HammerModel replaced: an unordered_map of row states,
/// each row's cells built and scanned on first touch, cell_info by linear
/// search. Kept here only as the oracle of the differential test below.
class MapHammerOracle final : public dram::RowEventListener {
 public:
  MapHammerOracle(DramDevice& device, HammerModelConfig cfg) : device_(device), cfg_(cfg) {
    device_.add_listener(this);
  }
  ~MapHammerOracle() override { device_.remove_listener(this); }

  void on_activate(const RowAddr& row, Picoseconds /*now*/) override {
    const auto& cfg = device_.config();
    for (u32 d = 1; d <= cfg.blast_radius; ++d) {
      if (row.row >= d) bump_and_maybe_flip(RowAddr{row.bank, row.subarray, row.row - d});
      if (row.row + d < cfg.geo.rows_per_subarray) {
        bump_and_maybe_flip(RowAddr{row.bank, row.subarray, row.row + d});
      }
    }
  }

  void on_restore(const RowAddr& row, Picoseconds /*now*/, dram::RestoreKind kind) override {
    const auto it = rows_.find(flat_row_id(device_.config().geo, row));
    if (it == rows_.end()) return;
    RowState& st = it->second;
    st.disturbance = 0;
    st.next_candidate = 0;
    if (kind == dram::RestoreKind::kRewrite) {
      std::fill(st.discharged.begin(), st.discharged.end(), false);
    }
  }

  [[nodiscard]] u64 disturbance(const RowAddr& row) const {
    const auto it = rows_.find(flat_row_id(device_.config().geo, row));
    return it == rows_.end() ? 0 : it->second.disturbance;
  }

  const std::vector<VulnerableCell>& vulnerable_cells(const RowAddr& row) {
    return state_for(flat_row_id(device_.config().geo, row), row).cells;
  }

  [[nodiscard]] u64 flips_injected() const { return flips_injected_; }

 private:
  struct RowState {
    u64 disturbance = 0;
    bool cells_built = false;
    std::vector<VulnerableCell> cells;
    std::vector<bool> discharged;
    usize next_candidate = 0;
  };

  RowState& state_for(u64 flat_id, const RowAddr& row) {
    auto it = rows_.find(flat_id);
    if (it == rows_.end()) it = rows_.emplace(flat_id, RowState{}).first;
    RowState& st = it->second;
    if (!st.cells_built) {
      build_cells(st, row);
      st.cells_built = true;
    }
    return st;
  }

  void build_cells(RowState& st, const RowAddr& row) const {
    const auto& geo = device_.config().geo;
    const u64 rid = flat_row_id(geo, row);
    const u64 t_rh = device_.config().t_rh;
    for (usize col = 0; col < geo.row_bytes; ++col) {
      for (u32 bit = 0; bit < 8; ++bit) {
        const u64 h = sys::hash_combine(cfg_.seed, rid, col, bit);
        if (sys::hash_to_unit(h) >= cfg_.p_vulnerable) continue;
        VulnerableCell cell;
        cell.col = col;
        cell.bit = bit;
        const u64 h2 = sys::hash_combine(h, 0x7e57ab1eULL);
        cell.threshold = t_rh + static_cast<u64>(sys::hash_to_unit(h2) * cfg_.threshold_spread *
                                                 static_cast<double>(t_rh));
        cell.one_to_zero = (h2 & 1) != 0;
        st.cells.push_back(cell);
      }
    }
    std::sort(st.cells.begin(), st.cells.end(),
              [](const VulnerableCell& a, const VulnerableCell& b) {
                return a.threshold < b.threshold;
              });
    st.discharged.assign(st.cells.size(), false);
  }

  void bump_and_maybe_flip(const RowAddr& victim) {
    RowState& st = state_for(flat_row_id(device_.config().geo, victim), victim);
    st.disturbance += 1;
    while (st.next_candidate < st.cells.size() &&
           st.cells[st.next_candidate].threshold <= st.disturbance) {
      const usize i = st.next_candidate++;
      if (st.discharged[i]) continue;
      const VulnerableCell& cell = st.cells[i];
      const bool bit_set = (device_.peek(victim, cell.col) >> cell.bit) & 1;
      if (cfg_.directional) {
        if (cell.one_to_zero && !bit_set) continue;
        if (!cell.one_to_zero && bit_set) continue;
      }
      device_.force_flip_bit(victim, cell.col, cell.bit);
      st.discharged[i] = true;
      flips_injected_ += 1;
    }
  }

  DramDevice& device_;
  HammerModelConfig cfg_;
  std::unordered_map<u64, RowState> rows_;
  u64 flips_injected_ = 0;
};

bool same_cell(const VulnerableCell& a, const VulnerableCell& b) {
  return a.col == b.col && a.bit == b.bit && a.threshold == b.threshold &&
         a.one_to_zero == b.one_to_zero;
}

/// One device driven by HammerModel and a twin driven by the oracle, fed the
/// same seeded command stream.
class HammerDifferential : public ::testing::TestWithParam<std::tuple<u32, u64>> {};

TEST_P(HammerDifferential, FlatModelMatchesMapOracleAfterEveryCommand) {
  const auto [blast_radius, seed] = GetParam();
  DramConfig cfg = small_config(40);  // low T_RH: rows cross it and flip often
  cfg.blast_radius = blast_radius;
  cfg.refresh_steps = 16;
  DramDevice dev(cfg);
  DramDevice twin(cfg);
  HammerModel model(dev, dense_cells());
  MapHammerOracle oracle(twin, dense_cells());
  const auto& geo = cfg.geo;
  sys::Rng rng(seed);

  auto random_row = [&] {
    return RowAddr{static_cast<u32>(rng.uniform(geo.banks)),
                   static_cast<u32>(rng.uniform(geo.subarrays_per_bank)),
                   static_cast<u32>(rng.uniform(geo.rows_per_subarray))};
  };
  // Most ACTs hit a few aggressors so their victims cross T_RH, flip, get
  // rewritten or refreshed, and cross it again.
  const std::vector<RowAddr> hot{{0, 0, 9}, {0, 0, 11}, {0, 1, 30}, {0, 1, 32}, {1, 3, 1},
                                 {1, 3, 62}};
  std::vector<u8> data(geo.row_bytes);
  u64 last_flips = 0;
  for (int op = 0; op < 6000; ++op) {
    const u64 kind = rng.uniform(100);
    if (kind < 70) {
      const RowAddr row = kind < 60 ? hot[rng.uniform(hot.size())] : random_row();
      dev.activate(row);
      twin.activate(row);
    } else if (kind < 78) {
      const RowAddr row = kind < 74 ? hot[rng.uniform(hot.size())] : random_row();
      const RowAddr victim{row.bank, row.subarray, row.row ^ 1u};
      for (auto& b : data) b = static_cast<u8>(rng.uniform(256));
      dev.write_row(victim, data);
      twin.write_row(victim, data);
    } else if (kind < 86) {
      const RowAddr src = random_row();
      const u32 dst = static_cast<u32>(rng.uniform(geo.rows_per_subarray));
      dev.rowclone_fpm(src.bank, src.subarray, src.row, dst);
      twin.rowclone_fpm(src.bank, src.subarray, src.row, dst);
    } else if (kind < 90) {
      const RowAddr src = random_row();
      const RowAddr dst = random_row();
      dev.rowclone_psm(src, dst);
      twin.rowclone_psm(src, dst);
    } else if (kind < 94) {
      dev.refresh_step();
      twin.refresh_step();
    } else {
      const RowAddr row = random_row();
      const usize col = rng.uniform(geo.row_bytes);
      const u8 value = static_cast<u8>(rng.uniform(256));
      dev.poke(row, col, value);
      twin.poke(row, col, value);
    }

    ASSERT_EQ(model.flips_injected(), oracle.flips_injected()) << "op " << op;
    for (u64 id = 0; id < geo.total_rows(); ++id) {
      const RowAddr row = dram::unflatten_row_id(geo, id);
      ASSERT_EQ(model.disturbance(row), oracle.disturbance(row)) << "op " << op << " row " << id;
      const auto a = dev.peek_row(row);
      const auto b = twin.peek_row(row);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "op " << op << " row " << id;
    }
    last_flips = model.flips_injected();
  }
  // The stream must actually exercise the flip scan and its re-arming.
  EXPECT_GT(last_flips, 50u);
}

INSTANTIATE_TEST_SUITE_P(BlastRadiusAndSeed, HammerDifferential,
                         ::testing::Combine(::testing::Values(1u, 2u),
                                            ::testing::Values(u64{3}, u64{17}, u64{2024})));

TEST(HammerOracle, CellInfoMatchesVulnerableCellsAndOracle) {
  const DramConfig cfg = small_config();
  DramDevice dev(cfg);
  DramDevice twin(cfg);
  const HammerModel model(dev, dense_cells());
  MapHammerOracle oracle(twin, dense_cells());
  for (const RowAddr row : {RowAddr{0, 0, 0}, RowAddr{0, 2, 33}, RowAddr{1, 1, 63},
                            RowAddr{1, 3, 7}}) {
    const auto cells = model.vulnerable_cells(row);
    const auto& want = oracle.vulnerable_cells(row);
    ASSERT_EQ(cells.size(), want.size());
    for (usize i = 0; i < cells.size(); ++i) ASSERT_TRUE(same_cell(cells[i], want[i])) << i;

    std::map<std::pair<usize, u32>, VulnerableCell> by_cell;
    for (const auto& c : cells) by_cell.emplace(std::pair{c.col, c.bit}, c);
    for (usize col = 0; col < cfg.geo.row_bytes; ++col) {
      for (u32 bit = 0; bit < 8; ++bit) {
        const auto info = model.cell_info(row, col, bit);
        const auto it = by_cell.find({col, bit});
        if (it == by_cell.end()) {
          EXPECT_FALSE(info.has_value()) << "col " << col << " bit " << bit;
        } else {
          ASSERT_TRUE(info.has_value()) << "col " << col << " bit " << bit;
          EXPECT_TRUE(same_cell(*info, it->second)) << "col " << col << " bit " << bit;
        }
      }
    }
    EXPECT_FALSE(model.cell_info(row, cfg.geo.row_bytes, 0).has_value());
    EXPECT_FALSE(model.cell_info(row, 0, 8).has_value());
  }
}

}  // namespace
}  // namespace dnnd::rowhammer
