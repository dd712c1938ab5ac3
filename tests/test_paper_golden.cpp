// Byte gate on the paper's own models. The tiny grid golden pins an MLP
// only; this one pins vgg11 and resnet20 -- convolutions, BatchNorm in
// train and eval mode, residual blocks with identity and projection
// shortcuts, GlobalAvgPool, SGD training and the BFA search on top -- as
// three values per model, compared with tests/data/paper_models_golden.json:
//   weights  stable_hash64 of every parameter and BatchNorm running
//            statistic after a few seeded training steps;
//   flips    the first five BFA flips on a fixed attack batch, in order;
//   logits   stable_hash64 of the attack batch's logits after those flips.
// A second record per model, "<arch>-binary", pins the binary-weight
// defense's sign-bit attack on the same trained model: the flip count of a
// five-flip attack_binary, and the weights and logits hashes after it.
// The file changes only with a change whose point is a numeric change, and
// that change says so. CI runs this suite at every DNND_THREADS/DNND_SIMD
// leg and under both sanitizers; the bytes must not depend on either.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "attack/bfa.hpp"
#include "defense/software_defenses.hpp"
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

u64 hash_params(std::string_view seed, nn::Model& model) {
  u64 h = sys::stable_hash64(seed);
  for (const auto& p : model.params()) h = hash_floats(h, *p.value);
  for (const nn::Tensor* t : model.net().state_tensors()) h = hash_floats(h, *t);
  return h;
}

nn::SplitDataset golden_data() {
  nn::SynthSpec spec = nn::SynthSpec::cifar10_like();
  spec.train_per_class = 10;
  spec.test_per_class = 4;
  return nn::make_synthetic(spec);
}

/// `arch` after a few seeded SGD steps on `data`.
std::unique_ptr<nn::Model> trained_model(const std::string& arch,
                                         const nn::SplitDataset& data) {
  auto model = models::make_by_name(arch, data.spec.num_classes, /*seed=*/3);
  nn::TrainConfig tc;
  tc.epochs = 2;  // 2 x ceil(100 / 32) = 8 SGD steps
  tc.batch_size = 32;
  tc.shuffle_seed = 5;
  nn::train(*model, data, tc);
  return model;
}

sys::JsonValue logits_hash(nn::Model& model, const nn::Tensor& x) {
  return sys::JsonValue::string(
      hex64(hash_floats(sys::stable_hash64("paper-golden-logits"), model.forward(x))));
}

/// Trains `arch` for a few seeded steps, runs five BFA steps and returns the
/// three pinned values as one JSON object.
std::string paper_model_record(const std::string& arch) {
  const nn::SplitDataset data = golden_data();
  auto model = trained_model(arch, data);
  const u64 weights = hash_params("paper-golden-weights", *model);

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

  sys::JsonValue rec = sys::JsonValue::object();
  rec.set("weights", sys::JsonValue::string(hex64(weights)));
  rec.set("flips", flips);
  rec.set("logits", logits_hash(qm.model(), ax));
  return rec.dump();
}

/// Binarizes the same trained `arch` and runs a five-flip sign-bit attack
/// (a negative stop accuracy never stops early).
std::string binary_record(const std::string& arch) {
  const nn::SplitDataset data = golden_data();
  auto model = trained_model(arch, data);
  defense::software::BinaryWeightModel bm(*model);
  auto [ax, ay] = data.test.head(32);
  const auto res = defense::software::attack_binary(bm, ax, ay, /*max_flips=*/5,
                                                    /*stop_accuracy=*/-1.0);

  sys::JsonValue rec = sys::JsonValue::object();
  rec.set("flips", sys::JsonValue::number(static_cast<double>(res.steps.size())));
  rec.set("weights", sys::JsonValue::string(hex64(hash_params("paper-golden-weights", *model))));
  rec.set("logits", logits_hash(*model, ax));
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

TEST(PaperModelGolden, Vgg11BinaryBfaMatchesTheGolden) {
  EXPECT_EQ(binary_record("vgg11"), golden_record("vgg11-binary"));
}

TEST(PaperModelGolden, Resnet20BinaryBfaMatchesTheGolden) {
  EXPECT_EQ(binary_record("resnet20"), golden_record("resnet20-binary"));
}
