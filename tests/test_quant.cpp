#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "models/model_zoo.hpp"
#include "quant/bit_gradient.hpp"
#include "quant/quantizer.hpp"

namespace dnnd::quant {
namespace {

// ------------------------------------------------------------ bit helpers --

class AllCodes : public ::testing::TestWithParam<int> {};

TEST_P(AllCodes, FlipTwiceIsIdentity) {
  const i8 q = static_cast<i8>(GetParam());
  for (u32 bit = 0; bit < 8; ++bit) {
    EXPECT_EQ(flip_bit_value(flip_bit_value(q, bit), bit), q);
  }
}

TEST_P(AllCodes, FlipChangesValueByBitWeight) {
  const i8 q = static_cast<i8>(GetParam());
  for (u32 bit = 0; bit < 8; ++bit) {
    const i8 f = flip_bit_value(q, bit);
    const i32 delta = static_cast<i32>(f) - static_cast<i32>(q);
    const i32 expected = (get_bit(q, bit) ? -1 : 1) * bit_weight(bit);
    EXPECT_EQ(delta, expected) << "q=" << static_cast<int>(q) << " bit=" << bit;
  }
}

TEST_P(AllCodes, BitsReconstructValue) {
  const i8 q = static_cast<i8>(GetParam());
  i32 v = 0;
  for (u32 bit = 0; bit < 8; ++bit) {
    if (get_bit(q, bit)) v += bit_weight(bit);
  }
  EXPECT_EQ(v, static_cast<i32>(q));
}

INSTANTIATE_TEST_SUITE_P(TwosComplement, AllCodes, ::testing::Range(-128, 128));

TEST(BitWeight, SignBitIsNegative128) {
  EXPECT_EQ(bit_weight(7), -128);
  EXPECT_EQ(bit_weight(0), 1);
  EXPECT_EQ(bit_weight(6), 64);
}

TEST(BitLocation, KeyRoundtrip) {
  for (const BitLocation loc : {BitLocation{0, 0, 0}, BitLocation{5, 1234, 7},
                                BitLocation{100, 999999, 3}}) {
    EXPECT_EQ(BitLocation::from_key(loc.key()), loc);
  }
}

TEST(BitSkipSet, InsertContains) {
  BitSkipSet set;
  EXPECT_TRUE(set.empty());
  set.insert({1, 2, 3});
  EXPECT_TRUE(set.contains({1, 2, 3}));
  EXPECT_FALSE(set.contains({1, 2, 4}));
  EXPECT_EQ(set.size(), 1u);
  const auto v = set.to_vector();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], (BitLocation{1, 2, 3}));
}

// --------------------------------------------------------- QuantizedModel --

class QuantFixture : public ::testing::Test {
 protected:
  QuantFixture() : model_(models::make_test_mlp(8, 6, 3, /*seed=*/42)), qm_(*model_) {}
  std::unique_ptr<nn::Model> model_;
  QuantizedModel qm_;
};

TEST_F(QuantFixture, LayersMatchQuantizableParams) {
  EXPECT_EQ(qm_.num_layers(), 2u);
  EXPECT_EQ(qm_.total_weights(), model_->weight_count());
  EXPECT_EQ(qm_.total_bits(), model_->weight_count() * 8);
}

TEST_F(QuantFixture, RoundtripErrorBoundedByHalfScale) {
  // Quantization happened at construction; compare the materialized weights
  // with a fresh float model of the same seed.
  auto fresh = models::make_test_mlp(8, 6, 3, 42);
  const auto fresh_params = fresh->quantizable_params();
  for (usize l = 0; l < qm_.num_layers(); ++l) {
    const auto& layer = qm_.layer(l);
    for (usize i = 0; i < layer.size(); ++i) {
      EXPECT_NEAR((*layer.value)[i], (*fresh_params[l].value)[i], layer.scale * 0.5 + 1e-6);
    }
  }
}

TEST_F(QuantFixture, ScaleCoversMaxAbs) {
  auto fresh = models::make_test_mlp(8, 6, 3, 42);
  const auto fresh_params = fresh->quantizable_params();
  for (usize l = 0; l < qm_.num_layers(); ++l) {
    EXPECT_NEAR(qm_.layer(l).scale, fresh_params[l].value->abs_max() / 127.0f, 1e-6);
  }
}

TEST_F(QuantFixture, FlipUpdatesCodeAndFloat) {
  const i8 before = qm_.get_q(0, 3);
  qm_.flip({0, 3, 7});
  const i8 after = qm_.get_q(0, 3);
  EXPECT_EQ(after, flip_bit_value(before, 7));
  EXPECT_FLOAT_EQ((*qm_.layer(0).value)[3], static_cast<float>(after) * qm_.layer(0).scale);
}

TEST_F(QuantFixture, MsbFlipIsLarge) {
  // The BFA's weapon: an MSB flip moves the weight by 128 quantization steps.
  const i8 before = qm_.get_q(1, 0);
  qm_.flip({1, 0, 7});
  const i32 delta = std::abs(static_cast<i32>(qm_.get_q(1, 0)) - static_cast<i32>(before));
  EXPECT_EQ(delta, 128);
}

TEST_F(QuantFixture, SnapshotRestoreRoundtrip) {
  const auto snap = qm_.snapshot();
  qm_.flip({0, 0, 7});
  qm_.flip({1, 2, 3});
  EXPECT_EQ(qm_.hamming_distance(snap), 2u);
  qm_.restore(snap);
  EXPECT_EQ(qm_.hamming_distance(snap), 0u);
  EXPECT_FLOAT_EQ((*qm_.layer(0).value)[0],
                  static_cast<float>(qm_.get_q(0, 0)) * qm_.layer(0).scale);
}

TEST_F(QuantFixture, SetQWritesThrough) {
  qm_.set_q(0, 1, -100);
  EXPECT_EQ(qm_.get_q(0, 1), -100);
  EXPECT_FLOAT_EQ((*qm_.layer(0).value)[1], -100.0f * qm_.layer(0).scale);
}

TEST_F(QuantFixture, MaterializeRewritesEverything) {
  (*qm_.layer(0).value)[0] = 999.0f;  // corrupt the float view
  qm_.materialize();
  EXPECT_FLOAT_EQ((*qm_.layer(0).value)[0],
                  static_cast<float>(qm_.get_q(0, 0)) * qm_.layer(0).scale);
}

// ------------------------------------------------------------ bit gradient --

TEST_F(QuantFixture, FlipGainSignSemantics) {
  auto& layer = qm_.layer(0);
  layer.grad->zero();
  (*layer.grad)[0] = 1.0f;  // dL/dw > 0: increasing w increases loss
  // A 0->1 flip on a positive-weight bit increases q -> positive gain.
  const i8 q = layer.q[0];
  for (u32 bit = 0; bit < 7; ++bit) {
    const double gain = flip_gain(layer, 0, bit);
    const double expected = (get_bit(q, bit) ? -1.0 : 1.0) * bit_weight(bit) * layer.scale;
    EXPECT_NEAR(gain, expected, 1e-9);
  }
}

TEST_F(QuantFixture, TopKMatchesBruteForce) {
  auto& layer = qm_.layer(0);
  sys::Rng rng(9);
  for (usize i = 0; i < layer.grad->size(); ++i) {
    (*layer.grad)[i] = static_cast<float>(rng.normal());
  }
  const BitSkipSet empty;
  const auto top = top_k_flips(layer, 0, 5, empty);
  ASSERT_LE(top.size(), 5u);
  // Brute force all (index, bit) gains.
  std::vector<double> all;
  for (usize i = 0; i < layer.size(); ++i) {
    for (u32 b = 0; b < 8; ++b) {
      const double g = flip_gain(layer, i, b);
      if (g > 0.0) all.push_back(g);
    }
  }
  std::sort(all.rbegin(), all.rend());
  ASSERT_GE(all.size(), top.size());
  for (usize i = 0; i < top.size(); ++i) {
    EXPECT_NEAR(top[i].estimated_gain, all[i], 1e-12) << "rank " << i;
  }
  // Sorted descending.
  for (usize i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].estimated_gain, top[i].estimated_gain);
  }
}

TEST_F(QuantFixture, TopKRespectsSkipSet) {
  auto& layer = qm_.layer(0);
  layer.grad->zero();
  (*layer.grad)[0] = 10.0f;  // dominant weight
  BitSkipSet skip;
  const auto first = top_k_flips(layer, 0, 1, skip);
  ASSERT_EQ(first.size(), 1u);
  skip.insert(first[0].loc);
  const auto second = top_k_flips(layer, 0, 1, skip);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(second[0].loc == first[0].loc);
}

TEST_F(QuantFixture, TopKOnlyPositiveGains) {
  auto& layer = qm_.layer(0);
  sys::Rng rng(10);
  for (usize i = 0; i < layer.grad->size(); ++i) {
    (*layer.grad)[i] = static_cast<float>(rng.normal());
  }
  const BitSkipSet empty;
  for (const auto& cand : top_k_flips(layer, 0, 20, empty)) {
    EXPECT_GT(cand.estimated_gain, 0.0);
  }
}

TEST_F(QuantFixture, ZeroGradientYieldsNoCandidates) {
  auto& layer = qm_.layer(0);
  layer.grad->zero();
  const BitSkipSet empty;
  EXPECT_TRUE(top_k_flips(layer, 0, 5, empty).empty());
}

// ------------------------------------------------- bit-key packing bounds --

TEST(BitKeyBounds, ValidatesPackingLimits) {
  // Exactly at the field limits (max index = limit - 1) is fine; one past
  // either field must throw, because key() would silently alias.
  EXPECT_NO_THROW(detail::validate_bit_key_bounds(detail::kMaxKeyLayers, detail::kMaxKeyIndex));
  EXPECT_NO_THROW(detail::validate_bit_key_bounds(0, 0));
  EXPECT_THROW(detail::validate_bit_key_bounds(detail::kMaxKeyLayers + 1, 10),
               std::length_error);
  EXPECT_THROW(detail::validate_bit_key_bounds(10, detail::kMaxKeyIndex + 1),
               std::length_error);
}

// ------------------------------------------------ weight quantization --

TEST(WeightQuantization, RoundHalfTiesAwayFromZero) {
  // Craft a weight tensor whose amax pins the scale to exactly 1.0, then
  // check the construction-time rounding: .5 ties away from zero, both signs.
  auto model = models::make_test_mlp(8, 6, 3, /*seed=*/11);
  auto params = model->quantizable_params();
  nn::Tensor& w = *params[0].value;
  ASSERT_GE(w.size(), 4u);
  w.fill(0.25f);
  w[0] = 127.0f;  // amax -> scale = 127/127 = 1.0 exactly
  w[1] = 63.5f;
  w[2] = -63.5f;
  w[3] = -126.5f;
  QuantizedModel qm(*model);
  ASSERT_EQ(qm.layer(0).scale, 1.0f);
  EXPECT_EQ(qm.get_q(0, 0), 127);
  EXPECT_EQ(qm.get_q(0, 1), 64);    // tie rounds away
  EXPECT_EQ(qm.get_q(0, 2), -64);   // tie rounds away
  EXPECT_EQ(qm.get_q(0, 3), -127);  // tie rounds away (to -127, within clamp)
  EXPECT_EQ(qm.get_q(0, 4), 0);     // 0.25 rounds to zero
}

}  // namespace
}  // namespace dnnd::quant
