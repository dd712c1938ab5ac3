// Byte gate on the paper's own models. The tiny grid golden pins an MLP
// only; this one pins vgg11 and resnet20 -- convolutions, BatchNorm in
// train and eval mode, residual blocks with identity and projection
// shortcuts, GlobalAvgPool, SGD training and the BFA search on top -- as
// three values per model, compared with tests/data/paper_models_golden.json:
//   weights  stable_hash64 of every parameter and BatchNorm running
//            statistic after a few seeded training steps;
//   flips    the first five BFA flips on a fixed attack batch, in order;
//   logits   stable_hash64 of the attack batch's logits after those flips.
// The file changes only with a change whose point is a numeric change, and
// that change says so. CI runs this suite at every DNND_THREADS/DNND_SIMD
// leg and under both sanitizers; the bytes must not depend on either.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "attack/bfa.hpp"
#include "models/model_zoo.hpp"
#include "nn/trainer.hpp"
#include "quant/quantizer.hpp"
#include "sys/json.hpp"
#include "sys/rng.hpp"

using namespace dnnd;

namespace {

u64 hash_floats(u64 h, const nn::Tensor& t) {
  return sys::hash_combine(
      h, sys::stable_hash64(std::string_view(reinterpret_cast<const char*>(t.data()),
                                             t.size() * sizeof(float))));
}

std::string hex64(u64 v) {
  std::ostringstream s;
  s << std::hex << v;
  return s.str();
}

/// Trains `arch` for a few seeded steps, runs five BFA steps and returns the
/// three pinned values as one JSON object.
std::string paper_model_record(const std::string& arch) {
  nn::SynthSpec spec = nn::SynthSpec::cifar10_like();
  spec.train_per_class = 10;
  spec.test_per_class = 4;
  const nn::SplitDataset data = nn::make_synthetic(spec);
  auto model = models::make_by_name(arch, spec.num_classes, /*seed=*/3);
  nn::TrainConfig tc;
  tc.epochs = 2;  // 2 x ceil(100 / 32) = 8 SGD steps
  tc.batch_size = 32;
  tc.shuffle_seed = 5;
  nn::train(*model, data, tc);

  u64 weights = sys::stable_hash64("paper-golden-weights");
  for (const auto& p : model->params()) weights = hash_floats(weights, *p.value);
  for (const nn::Tensor* t : model->net().state_tensors()) weights = hash_floats(weights, *t);

  quant::QuantizedModel qm(*model);
  auto [ax, ay] = data.test.head(32);
  attack::ProgressiveBitSearch bfa(qm, ax, ay);
  sys::JsonValue flips = sys::JsonValue::array();
  for (int i = 0; i < 5; ++i) {
    const auto r = bfa.step({});
    if (!r.has_value()) break;
    flips.push_back(sys::JsonValue::string(std::to_string(r->loc.layer) + ":" +
                                           std::to_string(r->loc.index) + ":" +
                                           std::to_string(r->loc.bit)));
  }
  const nn::Tensor logits = qm.model().forward(ax);

  sys::JsonValue rec = sys::JsonValue::object();
  rec.set("weights", sys::JsonValue::string(hex64(weights)));
  rec.set("flips", flips);
  rec.set("logits",
          sys::JsonValue::string(hex64(hash_floats(sys::stable_hash64("paper-golden-logits"),
                                                   logits))));
  return rec.dump();
}

std::string golden_record(const std::string& arch) {
  std::ifstream in(std::string(DNND_SOURCE_DIR) + "/tests/data/paper_models_golden.json",
                   std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return sys::parse_json(ss.str()).at(arch).dump();
}

}  // namespace

TEST(PaperModelGolden, Vgg11TrainingAndBfaMatchTheGolden) {
  EXPECT_EQ(paper_model_record("vgg11"), golden_record("vgg11"));
}

TEST(PaperModelGolden, Resnet20TrainingAndBfaMatchTheGolden) {
  EXPECT_EQ(paper_model_record("resnet20"), golden_record("resnet20"));
}
