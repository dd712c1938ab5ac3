#include <gtest/gtest.h>

#include <set>

#include "dram/dram_device.hpp"
#include "dram/row_remapper.hpp"
#include "sys/rng.hpp"

namespace dnnd::dram {
namespace {

using namespace dnnd::time_literals;

TEST(Geometry, SizeArithmetic) {
  Geometry g{.banks = 2, .subarrays_per_bank = 4, .rows_per_subarray = 64, .row_bytes = 512};
  EXPECT_EQ(g.rows_per_bank(), 256u);
  EXPECT_EQ(g.total_rows(), 512u);
  EXPECT_EQ(g.total_bytes(), 512u * 512u);
}

class RowIdRoundtrip : public ::testing::TestWithParam<Geometry> {};

TEST_P(RowIdRoundtrip, FlatUnflattenInverse) {
  const Geometry geo = GetParam();
  for (u64 id = 0; id < geo.total_rows(); id += 7) {
    const RowAddr a = unflatten_row_id(geo, id);
    EXPECT_EQ(flat_row_id(geo, a), id);
    EXPECT_LT(a.bank, geo.banks);
    EXPECT_LT(a.subarray, geo.subarrays_per_bank);
    EXPECT_LT(a.row, geo.rows_per_subarray);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RowIdRoundtrip,
    ::testing::Values(Geometry{2, 4, 64, 512}, Geometry{8, 8, 128, 1024},
                      Geometry{1, 1, 16, 64}, Geometry{3, 5, 33, 128}));

TEST(DeviceGen, ThresholdsMatchFig1a) {
  EXPECT_EQ(rowhammer_threshold(DeviceGen::kDdr3Old), 139'000u);
  EXPECT_EQ(rowhammer_threshold(DeviceGen::kDdr3New), 22'400u);
  EXPECT_EQ(rowhammer_threshold(DeviceGen::kDdr4Old), 17'500u);
  EXPECT_EQ(rowhammer_threshold(DeviceGen::kDdr4New), 10'000u);
  EXPECT_EQ(rowhammer_threshold(DeviceGen::kLpddr4Old), 16'800u);
  EXPECT_EQ(rowhammer_threshold(DeviceGen::kLpddr4New), 4'800u);
}

TEST(DeviceGen, Lpddr4NewIsWeakest) {
  // The paper's motivation: ~4.5x fewer hammers on LPDDR4(new) vs DDR3(new).
  const double ratio = static_cast<double>(rowhammer_threshold(DeviceGen::kDdr3New)) /
                       rowhammer_threshold(DeviceGen::kLpddr4New);
  EXPECT_NEAR(ratio, 4.67, 0.3);
}

TEST(Config, PresetsCarryThreshold) {
  for (auto gen : {DeviceGen::kDdr3Old, DeviceGen::kDdr4New, DeviceGen::kLpddr4New}) {
    EXPECT_EQ(DramConfig::preset(gen).t_rh, rowhammer_threshold(gen));
  }
}

TEST(Config, InstantiatingPaperGeometryThrows) {
  EXPECT_THROW(DramDevice dev(DramConfig::paper_32gb()), std::invalid_argument);
}

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest() : dev_(DramConfig::sim_small()) {}
  DramDevice dev_;
};

TEST_F(DeviceTest, FreshDeviceIsZeroed) {
  EXPECT_EQ(dev_.peek({0, 0, 0}, 0), 0);
  EXPECT_EQ(dev_.peek({1, 3, 63}, 511), 0);
}

TEST_F(DeviceTest, PokePeekRoundtrip) {
  dev_.poke({1, 2, 3}, 17, 0xAB);
  EXPECT_EQ(dev_.peek({1, 2, 3}, 17), 0xAB);
  EXPECT_EQ(dev_.peek({1, 2, 3}, 18), 0x00);
}

TEST_F(DeviceTest, WriteReadRowRoundtrip) {
  std::vector<u8> data(dev_.config().geo.row_bytes);
  for (usize i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7 + 3);
  const RowAddr row{0, 1, 5};
  dev_.write_row(row, data);
  EXPECT_EQ(dev_.read_row(row), data);
}

TEST_F(DeviceTest, ActivateOpensRowAndChargesTime) {
  const Picoseconds t0 = dev_.now();
  dev_.activate({0, 0, 3});
  EXPECT_EQ(dev_.now() - t0, dev_.config().timing.t_act);
  EXPECT_EQ(dev_.stats().n_act, 1u);
  EXPECT_EQ(dev_.open_row(0), 3);
}

TEST_F(DeviceTest, ActivateOutsideTheGeometryThrows) {
  const Geometry& geo = dev_.config().geo;
  EXPECT_THROW(dev_.activate({0, 0, geo.rows_per_subarray}), std::out_of_range);
  EXPECT_THROW(dev_.activate({0, 0, static_cast<u32>(-1)}), std::out_of_range);
  EXPECT_THROW(dev_.activate({0, geo.subarrays_per_bank, 0}), std::out_of_range);
  EXPECT_THROW(dev_.activate({geo.banks, 0, 0}), std::out_of_range);
  EXPECT_EQ(dev_.stats().n_act, 0u);
  EXPECT_EQ(dev_.now(), 0);
  dev_.activate({0, 0, geo.rows_per_subarray - 1});
  EXPECT_EQ(dev_.stats().n_act, 1u);
}

TEST_F(DeviceTest, ReactivatingOpenRowIsFree) {
  dev_.activate({0, 0, 3});
  const auto acts = dev_.stats().n_act;
  const auto t = dev_.now();
  dev_.activate({0, 0, 3});
  EXPECT_EQ(dev_.stats().n_act, acts);
  EXPECT_EQ(dev_.now(), t);
}

TEST_F(DeviceTest, ActivatingOtherRowImplicitlyPrecharges) {
  dev_.activate({0, 0, 3});
  dev_.activate({0, 0, 9});
  EXPECT_EQ(dev_.stats().n_act, 2u);
  EXPECT_EQ(dev_.stats().n_pre, 1u);
  EXPECT_EQ(dev_.open_row(0), 9);
}

TEST_F(DeviceTest, BanksHaveIndependentRowBuffers) {
  dev_.activate({0, 0, 3});
  dev_.activate({1, 0, 7});
  EXPECT_EQ(dev_.open_row(0), 3);
  EXPECT_EQ(dev_.open_row(1), 7 + 0);  // subarray 0
  EXPECT_EQ(dev_.stats().n_pre, 0u);
}

TEST_F(DeviceTest, PrechargeIdempotent) {
  dev_.precharge(0);
  EXPECT_EQ(dev_.stats().n_pre, 0u);  // nothing open: no command
  dev_.activate({0, 0, 1});
  dev_.precharge(0);
  dev_.precharge(0);
  EXPECT_EQ(dev_.stats().n_pre, 1u);
  EXPECT_EQ(dev_.open_row(0), -1);
}

TEST_F(DeviceTest, RowCloneFpmCopiesData) {
  std::vector<u8> data(dev_.config().geo.row_bytes, 0x5A);
  dev_.write_row({0, 2, 10}, data);
  dev_.rowclone_fpm(0, 2, 10, 20);
  EXPECT_EQ(dev_.read_row({0, 2, 20}), data);
  // Source unchanged (copy, not move).
  EXPECT_EQ(dev_.read_row({0, 2, 10}), data);
}

TEST_F(DeviceTest, RowCloneFpmCostsOneAap) {
  const Picoseconds t0 = dev_.now();
  const auto e0 = dev_.stats().energy;
  dev_.rowclone_fpm(0, 0, 1, 2);
  EXPECT_EQ(dev_.now() - t0, dev_.config().timing.t_aap);
  EXPECT_EQ(dev_.stats().n_aap, 1u);
  EXPECT_EQ(dev_.stats().energy - e0, dev_.config().energy.aap);
}

TEST_F(DeviceTest, RowCloneSameRowIsNoop) {
  dev_.rowclone_fpm(0, 0, 5, 5);
  EXPECT_EQ(dev_.stats().n_aap, 0u);
}

TEST_F(DeviceTest, RowClonePsmCopiesAcrossBanks) {
  std::vector<u8> data(dev_.config().geo.row_bytes, 0x3C);
  dev_.write_row({0, 1, 4}, data);
  dev_.rowclone_psm({0, 1, 4}, {1, 2, 8});
  EXPECT_EQ(dev_.read_row({1, 2, 8}), data);
  EXPECT_EQ(dev_.stats().n_psm_copy, 1u);
}

TEST_F(DeviceTest, PsmSlowerThanFpm) {
  DramDevice a(DramConfig::sim_small());
  DramDevice b(DramConfig::sim_small());
  a.rowclone_fpm(0, 0, 1, 2);
  b.rowclone_psm({0, 0, 1}, {1, 0, 2});
  EXPECT_GT(b.now(), a.now());
}

TEST_F(DeviceTest, ForceFlipTogglesBitAndCounts) {
  dev_.poke({0, 0, 7}, 3, 0b0000'1000);
  dev_.force_flip_bit({0, 0, 7}, 3, 3);
  EXPECT_EQ(dev_.peek({0, 0, 7}, 3), 0);
  dev_.force_flip_bit({0, 0, 7}, 3, 7);
  EXPECT_EQ(dev_.peek({0, 0, 7}, 3), 0b1000'0000);
  EXPECT_EQ(dev_.stats().n_bitflips, 2u);
}

TEST_F(DeviceTest, RefreshAllTouchesEveryRowOncePerWindow) {
  struct Counter : RowEventListener {
    std::vector<int> restores;
    explicit Counter(usize n) : restores(n, 0) {}
    void on_activate(const RowAddr&, Picoseconds) override {}
    void on_restore(const RowAddr& r, Picoseconds, RestoreKind k) override {
      if (k == RestoreKind::kRefresh) restores[flat_row_id(Geometry{2, 4, 64, 512}, r)]++;
    }
  } counter(dev_.config().geo.total_rows());
  dev_.add_listener(&counter);
  dev_.refresh_all();
  dev_.remove_listener(&counter);
  for (int c : counter.restores) EXPECT_EQ(c, 1);
  EXPECT_EQ(dev_.stats().n_ref, dev_.config().refresh_steps);
}

TEST_F(DeviceTest, ListenerEventKinds) {
  struct Recorder : RowEventListener {
    int activates = 0, refresh_restores = 0, rewrite_restores = 0;
    void on_activate(const RowAddr&, Picoseconds) override { ++activates; }
    void on_restore(const RowAddr&, Picoseconds, RestoreKind k) override {
      (k == RestoreKind::kRefresh ? refresh_restores : rewrite_restores)++;
    }
  } rec;
  dev_.add_listener(&rec);
  dev_.activate({0, 0, 1});  // activate + refresh-restore
  EXPECT_EQ(rec.activates, 1);
  EXPECT_EQ(rec.refresh_restores, 1);
  std::vector<u8> data(dev_.config().geo.row_bytes, 1);
  dev_.write_row({0, 0, 1}, data);  // rewrite restores (per burst)
  EXPECT_GT(rec.rewrite_restores, 0);
  const int rewrites_before = rec.rewrite_restores;
  dev_.rowclone_fpm(0, 0, 1, 2);  // src refresh + dst rewrite
  EXPECT_EQ(rec.rewrite_restores, rewrites_before + 1);
  dev_.remove_listener(&rec);
}

TEST_F(DeviceTest, AdvanceMovesClockWithoutCommands) {
  const auto stats_before = dev_.stats().n_act;
  dev_.advance(5_us);
  EXPECT_EQ(dev_.now(), 5_us);
  EXPECT_EQ(dev_.stats().n_act, stats_before);
}

TEST(StatsTest, SummaryMentionsCounters) {
  Stats s;
  s.n_act = 3;
  s.n_aap = 2;
  const std::string text = s.summary();
  EXPECT_NE(text.find("ACT=3"), std::string::npos);
  EXPECT_NE(text.find("AAP=2"), std::string::npos);
  s.reset();
  EXPECT_EQ(s.n_act, 0u);
}

// ---------------------------------------------------------- RowRemapper ----

TEST(Remapper, StartsAsIdentity) {
  RowRemapper remap(DramConfig::sim_small().geo);
  EXPECT_TRUE(remap.is_identity());
  const RowAddr a{1, 2, 3};
  EXPECT_EQ(remap.to_physical(a), a);
  EXPECT_EQ(remap.to_logical(a), a);
}

TEST(Remapper, SwapExchangesBackings) {
  RowRemapper remap(DramConfig::sim_small().geo);
  const RowAddr a{0, 0, 1}, b{0, 0, 9};
  remap.swap_logical(a, b);
  EXPECT_EQ(remap.to_physical(a), b);
  EXPECT_EQ(remap.to_physical(b), a);
  EXPECT_EQ(remap.to_logical(a), b);
  EXPECT_EQ(remap.to_logical(b), a);
  EXPECT_FALSE(remap.is_identity());
  EXPECT_EQ(remap.swap_count(), 1u);
}

TEST(Remapper, DoubleSwapRestoresIdentity) {
  RowRemapper remap(DramConfig::sim_small().geo);
  const RowAddr a{1, 1, 1}, b{0, 3, 60};
  remap.swap_logical(a, b);
  remap.swap_logical(a, b);
  EXPECT_TRUE(remap.is_identity());
}

// Property: after ANY sequence of swaps, the mapping stays a bijection and
// logical->physical->logical round-trips for every row (both directions).
TEST(Remapper, RoundTripsAfterArbitrarySwapSequence) {
  const Geometry geo = DramConfig::sim_small().geo;
  RowRemapper remap(geo);
  sys::Rng rng(0xC0FFEE);
  const usize n_swaps = 500;
  for (usize i = 0; i < n_swaps; ++i) {
    const RowAddr a = unflatten_row_id(geo, rng.uniform(geo.total_rows()));
    const RowAddr b = unflatten_row_id(geo, rng.uniform(geo.total_rows()));
    remap.swap_logical(a, b);
  }
  EXPECT_EQ(remap.swap_count(), n_swaps);
  std::set<u64> backing;
  for (u64 id = 0; id < geo.total_rows(); ++id) {
    const RowAddr logical = unflatten_row_id(geo, id);
    const RowAddr phys = remap.to_physical(logical);
    EXPECT_EQ(remap.to_logical(phys), logical) << "row " << id;
    EXPECT_EQ(remap.to_physical(remap.to_logical(logical)), logical) << "row " << id;
    EXPECT_TRUE(backing.insert(flat_row_id(geo, phys)).second)
        << "physical row backs two logical rows";
  }
  EXPECT_EQ(backing.size(), geo.total_rows());
}

TEST(Remapper, ChainedSwapsComposeCorrectly) {
  RowRemapper remap(DramConfig::sim_small().geo);
  const RowAddr a{0, 0, 1}, b{0, 0, 2}, c{0, 0, 3};
  remap.swap_logical(a, b);  // a->2, b->1
  remap.swap_logical(b, c);  // b->3, c->1
  EXPECT_EQ(remap.to_physical(a), (RowAddr{0, 0, 2}));
  EXPECT_EQ(remap.to_physical(b), (RowAddr{0, 0, 3}));
  EXPECT_EQ(remap.to_physical(c), (RowAddr{0, 0, 1}));
  // Inverse is consistent everywhere.
  for (const auto& r : {a, b, c}) EXPECT_EQ(remap.to_logical(remap.to_physical(r)), r);
}

}  // namespace
}  // namespace dnnd::dram
