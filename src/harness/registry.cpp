#include "harness/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "models/model_zoo.hpp"
#include "sys/env.hpp"

namespace dnnd::harness {

namespace {

/// DNND_BENCH_SCALE=small epoch shrink: half the epochs, at least two.
usize scaled_epochs(bool small, usize epochs) {
  return small ? std::max<usize>(2, epochs / 2) : epochs;
}

constexpr const char* kReconstructionGuard = "reconstruction-guard";

}  // namespace

std::string device_gen_slug(dram::DeviceGen gen) {
  switch (gen) {
    case dram::DeviceGen::kDdr3Old: return "ddr3-old";
    case dram::DeviceGen::kDdr3New: return "ddr3-new";
    case dram::DeviceGen::kDdr4Old: return "ddr4-old";
    case dram::DeviceGen::kDdr4New: return "ddr4-new";
    case dram::DeviceGen::kLpddr4Old: return "lpddr4-old";
    case dram::DeviceGen::kLpddr4New: return "lpddr4-new";
  }
  return "unknown";
}

dram::DeviceGen device_gen_from_slug(const std::string& slug) {
  for (const auto gen : kAllDeviceGens) {
    if (device_gen_slug(gen) == slug) return gen;
  }
  throw std::invalid_argument("unknown device generation: " + slug);
}

bool is_known_prep_axis(const std::string& prep) {
  if (prep == kReconstructionGuard) return true;
  try {
    software_prep_from_string(prep);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

std::vector<Scenario> table3_scenarios(bool small) {
  const usize attack_batch = small ? 24 : 32;
  const usize eval_batch = small ? 120 : 300;
  const usize bfa_budget = small ? 60 : 120;
  const usize binary_budget = small ? 80 : 200;
  const usize hw_attempts = small ? 12 : 30;
  // The legacy serial bench ran every hardware row on ProtectedSystem's
  // default seed; pin it so migrated results match bit-for-bit.
  const u64 legacy_hw_seed = 0x5E55;

  const TrainSpec base{.arch = "resnet20", .width_mult = 1,
                       .epochs = scaled_epochs(small, 6), .seed = 1};
  const TrainSpec wide{.arch = "resnet20", .width_mult = 2,
                       .epochs = scaled_epochs(small, 5), .seed = 2};

  auto common = [&](Scenario sc) {
    sc.dataset = DatasetKind::kCifar10Like;
    sc.attack_batch = attack_batch;
    sc.eval_batch = eval_batch;
    return sc;
  };

  std::vector<Scenario> grid;

  {
    Scenario sc;
    sc.id = "table3/baseline";
    sc.label = "Baseline ResNet-20 (8-bit)";
    sc.train = base;
    sc.attack = AttackKind::kBfa;
    sc.max_flips = bfa_budget;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "table3/weight-reconstruction";
    sc.label = "Weight Reconstruction";
    sc.train = base;
    sc.attack = AttackKind::kBfa;
    sc.reconstruction_guard = true;
    sc.defense = "weight-reconstruction";
    sc.max_flips = bfa_budget;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "table3/binary";
    sc.label = "Binary weight";
    sc.train = base;
    sc.attack = AttackKind::kBinaryBfa;
    sc.prep = SoftwarePrep::kBinaryFinetune;
    sc.prep_epochs = small ? 2 : 4;
    sc.prep_lr = 0.02;
    sc.defense = "binary-weight";
    sc.max_flips = binary_budget;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "table3/piecewise";
    sc.label = "Piece-wise Clustering";
    sc.train = base;
    sc.attack = AttackKind::kBfa;
    sc.prep = SoftwarePrep::kPiecewiseClustering;
    sc.prep_epochs = small ? 1 : 2;
    sc.prep_lr = 0.01;
    sc.prep_lambda = 0.15;
    sc.defense = "piecewise-clustering";
    sc.max_flips = bfa_budget;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "table3/capacity-x4";
    sc.label = "Model Capacity x4";
    sc.train = wide;
    sc.attack = AttackKind::kBfa;
    sc.defense = "capacity-x4";
    sc.max_flips = bfa_budget;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "table3/ra-bnn";
    sc.label = "RA-BNN (binary, wide)";
    sc.train = wide;
    sc.attack = AttackKind::kBinaryBfa;
    sc.prep = SoftwarePrep::kBinaryFinetune;
    sc.prep_epochs = small ? 2 : 4;
    sc.prep_lr = 0.02;
    sc.defense = "ra-bnn";
    sc.max_flips = binary_budget;
    grid.push_back(common(sc));
  }

  for (const char* name : {"rrs", "srs", "shadow"}) {
    Scenario sc;
    sc.id = std::string("table3/") + name;
    sc.label = name;
    std::transform(sc.label.begin(), sc.label.end(), sc.label.begin(),
                   [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
    sc.train = base;
    sc.attack = AttackKind::kDramWhiteBox;
    sc.mitigation = mitigation_factory(name);
    sc.defense = sc.label;
    sc.dram = dram::DramConfig::nn_scaled();
    sc.hw_attempts = hw_attempts;
    sc.seed_override = legacy_hw_seed;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "table3/dnn-defender";
    sc.label = "DNN-Defender";
    sc.train = base;
    sc.attack = AttackKind::kDramWhiteBox;
    sc.use_dnn_defender = true;
    sc.profile_bits = 2 * hw_attempts;
    sc.defense = "DNN-Defender";
    sc.dram = dram::DramConfig::nn_scaled();
    sc.hw_attempts = hw_attempts;
    sc.seed_override = legacy_hw_seed;
    grid.push_back(common(sc));
  }

  return grid;
}

std::vector<Scenario> fig1b_scenarios(bool small) {
  const usize attack_batch = small ? 24 : 32;
  const usize eval_batch = small ? 120 : 300;
  const usize bfa_budget = small ? 15 : 30;
  const usize random_budget = small ? 60 : 150;

  const TrainSpec spec{.arch = "resnet34", .width_mult = 1,
                       .epochs = scaled_epochs(small, 6), .seed = 1};

  auto common = [&](Scenario sc) {
    sc.dataset = DatasetKind::kImagenetLike;
    sc.train = spec;
    sc.attack_batch = attack_batch;
    sc.eval_batch = eval_batch;
    return sc;
  };

  std::vector<Scenario> grid;
  {
    Scenario sc;
    sc.id = "fig1b/bfa";
    sc.label = "Targeted BFA";
    sc.attack = AttackKind::kBfa;
    sc.record_trace = true;
    sc.max_flips = bfa_budget;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "fig1b/random";
    sc.label = "Random attack";
    sc.attack = AttackKind::kRandom;
    sc.max_flips = random_budget;
    sc.measure_every = 10;
    sc.seed_override = 3;  // the legacy bench's Rng seed
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "fig1b/dnn-defender";
    sc.label = "DNN-Defender (full coverage)";
    sc.attack = AttackKind::kAdaptive;
    sc.secure_all_weight_rows = true;
    sc.defense = "DNN-Defender";
    sc.dram = dram::DramConfig::nn_scaled();
    sc.max_flips = random_budget;
    sc.measure_every = 10;
    grid.push_back(common(sc));
  }
  return grid;
}

std::vector<Scenario> fig9_scenarios(bool small) {
  struct Panel {
    const char* arch;
    DatasetKind dataset;
  };
  const std::vector<usize> sb_levels =
      small ? std::vector<usize>{8, 32} : std::vector<usize>{8, 16, 32, 64};

  std::vector<Scenario> grid;
  for (const Panel& panel : {Panel{"vgg11", DatasetKind::kCifar10Like},
                             Panel{"resnet18", DatasetKind::kImagenetLike},
                             Panel{"resnet34", DatasetKind::kImagenetLike}}) {
    auto cell = [&](const std::string& slug, const std::string& label) {
      Scenario sc;
      sc.id = "fig9/" + std::string(panel.arch) + "/" + slug;
      sc.label = label;
      sc.dataset = panel.dataset;
      sc.train = TrainSpec{.arch = panel.arch, .width_mult = 1,
                           .epochs = scaled_epochs(small, 6), .seed = 1};
      sc.attack = AttackKind::kAdaptive;
      sc.defense = "DNN-Defender";
      sc.attack_batch = small ? 20 : 28;
      sc.eval_batch = small ? 100 : 240;
      sc.max_flips = small ? 20 : 40;
      sc.measure_every = 10;
      return sc;
    };
    // One secured bit secures one row: effectively unprotected.
    Scenario baseline = cell("baseline", "none (baseline)");
    baseline.use_dnn_defender = true;
    baseline.profile_bits = 1;
    grid.push_back(baseline);
    for (const usize sb : sb_levels) {
      Scenario sc = cell("sb-" + std::to_string(sb), std::to_string(sb));
      sc.use_dnn_defender = true;
      sc.profile_bits = sb;
      grid.push_back(sc);
    }
    Scenario full = cell("full-coverage", "full row coverage");
    full.secure_all_weight_rows = true;
    grid.push_back(full);
  }
  return grid;
}

std::vector<Scenario> tiny_test_grid() {
  const TrainSpec mlp{.arch = "mlp", .width_mult = 1, .epochs = 5, .seed = 7};

  auto common = [&](Scenario sc) {
    sc.dataset = DatasetKind::kTinyEasy;
    sc.train = mlp;
    sc.attack_batch = 32;
    sc.eval_batch = 60;
    return sc;
  };

  std::vector<Scenario> grid;
  {
    Scenario sc;
    sc.id = "tiny/bfa";
    sc.attack = AttackKind::kBfa;
    sc.record_trace = true;
    sc.max_flips = 8;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/weight-reconstruction";
    sc.attack = AttackKind::kBfa;
    sc.reconstruction_guard = true;
    sc.defense = "weight-reconstruction";
    sc.max_flips = 8;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/binary";
    sc.attack = AttackKind::kBinaryBfa;
    sc.prep = SoftwarePrep::kBinaryFinetune;
    sc.prep_epochs = 1;
    sc.defense = "binary-weight";
    sc.max_flips = 12;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/random";
    sc.attack = AttackKind::kRandom;
    sc.max_flips = 40;
    sc.measure_every = 10;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/adaptive";
    sc.attack = AttackKind::kAdaptive;
    sc.secure_all_weight_rows = true;
    sc.defense = "DNN-Defender";
    sc.max_flips = 16;
    sc.measure_every = 8;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/hw-rrs";
    sc.attack = AttackKind::kDramWhiteBox;
    sc.mitigation = mitigation_factory("rrs");
    sc.defense = "RRS";
    sc.hw_attempts = 6;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/hw-dnn-defender";
    sc.attack = AttackKind::kDramWhiteBox;
    sc.use_dnn_defender = true;
    sc.profile_bits = 12;
    sc.defense = "DNN-Defender";
    sc.hw_attempts = 6;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/tbfa-n-to-1";
    sc.attack = AttackKind::kTbfaNTo1;
    sc.tbfa_target = 1;
    sc.max_flips = 10;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/tbfa-1-to-1";
    sc.attack = AttackKind::kTbfa1To1;
    sc.tbfa_source = 2;
    sc.tbfa_target = 0;
    sc.max_flips = 10;
    grid.push_back(common(sc));
  }
  {
    Scenario sc;
    sc.id = "tiny/tbfa-stealthy";
    sc.attack = AttackKind::kTbfaStealthy;
    sc.tbfa_source = 3;
    sc.tbfa_target = 1;
    sc.tbfa_stealth_tol = 0.15;
    sc.max_flips = 10;
    grid.push_back(common(sc));
  }
  {
    // Budget small enough that the tiny MLP survives it: pins the
    // "N (budget)" spelling (budget exhausted before stop accuracy).
    Scenario sc;
    sc.id = "tiny/vwa-limited";
    sc.attack = AttackKind::kVwaLimited;
    sc.vwa_budget = 4;
    grid.push_back(common(sc));
  }
  {
    // Generous budget with a reachable stop level: pins the bare-count
    // spelling (early stop with budget left over).
    Scenario sc;
    sc.id = "tiny/vwa-limited-stop";
    sc.attack = AttackKind::kVwaLimited;
    sc.vwa_budget = 20;
    sc.stop_accuracy = 0.5;
    grid.push_back(common(sc));
  }
  return grid;
}

bool grid_cell_coherent(AttackKind attack, const std::string& prep,
                        const std::string& defense) {
  // The reconstruction guard is only consulted by the plain-BFA attack path.
  if (prep == kReconstructionGuard && attack != AttackKind::kBfa) return false;
  if (defense == "none") return true;
  if (defense == "dnn-defender") {
    // Profiled deployment runs through the DRAM stack; the full-coverage
    // secured-bit set is what the adaptive attacker plays against.
    return attack == AttackKind::kDramWhiteBox || attack == AttackKind::kAdaptive;
  }
  // Every other defense is an in-DRAM mitigation: it can only intercept an
  // attack that actually hammers the device.
  return attack == AttackKind::kDramWhiteBox;
}

std::vector<Scenario> enumerate_grid(const GridSpec& spec) {
  // Validate every axis value up front: a typo'd name must throw even when
  // pruning (or a run-time per-cell failure) would otherwise hide it.
  for (const auto& model : spec.models) {
    if (model != "mlp" && !models::is_known_arch(model)) {
      throw std::invalid_argument("unknown model axis value: " + model);
    }
  }
  for (const auto& prep : spec.preps) {
    if (!is_known_prep_axis(prep)) {
      throw std::invalid_argument("unknown prep axis value: " + prep);
    }
  }
  for (const auto& defense : spec.defenses) {
    if (defense != "none" && defense != "dnn-defender") {
      mitigation_factory(defense);  // throws std::invalid_argument on unknown
    }
  }
  std::vector<Scenario> grid;
  for (const auto& model : spec.models) {
    for (const auto gen : spec.generations) {
      for (const auto attack : spec.attacks) {
        for (const auto& prep : spec.preps) {
          for (const auto& defense : spec.defenses) {
            if (spec.prune_incoherent && !grid_cell_coherent(attack, prep, defense)) {
              continue;
            }
            Scenario sc;
            sc.id = "grid/" + model + "/" + device_gen_slug(gen) + "/" +
                    to_string(attack) + "/" + prep + "/" + defense;
            sc.label = model + " | " + to_string(attack) + " vs " + prep + "+" + defense +
                       " @ " + dram::to_string(gen);
            sc.dataset = spec.dataset;
            sc.train = TrainSpec{.arch = model, .width_mult = 1,
                                 .epochs = scaled_epochs(spec.small, 6), .seed = 1};
            sc.attack = attack;

            if (prep == kReconstructionGuard) {
              sc.reconstruction_guard = true;
            } else {
              sc.prep = software_prep_from_string(prep);
              sc.prep_epochs = spec.small ? 1 : 2;
            }

            if (defense == "dnn-defender") {
              if (attack == AttackKind::kAdaptive) {
                sc.secure_all_weight_rows = true;
              } else {
                sc.use_dnn_defender = true;
                sc.profile_bits = spec.small ? 24 : 60;
              }
            } else if (defense != "none") {
              sc.mitigation = mitigation_factory(defense);
            }
            // Display name: the prep and defense halves that are active.
            if (prep == "none") {
              sc.defense = defense;
            } else if (defense == "none") {
              sc.defense = prep;
            } else {
              sc.defense = prep + "+" + defense;
            }

            sc.dram = dram::DramConfig::nn_scaled();
            sc.dram.gen = gen;
            sc.dram.t_rh = dram::rowhammer_threshold(gen);
            sc.attack_batch = spec.small ? 24 : 32;
            sc.eval_batch = spec.small ? 120 : 300;
            sc.max_flips = attack == AttackKind::kRandom ? (spec.small ? 40 : 150)
                                                         : (spec.small ? 12 : 40);
            sc.vwa_budget = spec.vwa_budget;
            sc.measure_every = 10;
            sc.hw_attempts = spec.small ? 12 : 30;
            grid.push_back(std::move(sc));
          }
        }
      }
    }
  }
  return grid;
}

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Overrides `axis` with the env var's comma-separated list when set.
void override_axis(const char* env, std::vector<std::string>& axis) {
  if (const char* v = std::getenv(env); v != nullptr && v[0] != '\0') {
    axis = split_csv(v);
  }
}

}  // namespace

GridSpec grid_spec_from_env(bool small) {
  GridSpec spec;
  spec.small = small;
  spec.generations = {dram::DeviceGen::kLpddr4New, dram::DeviceGen::kDdr4New};
  spec.attacks.assign(std::begin(kAllAttackKinds), std::end(kAllAttackKinds));
  spec.preps = {"none", "binary-finetune", "piecewise-clustering", "reconstruction-guard"};

  override_axis("DNND_GRID_MODELS", spec.models);
  override_axis("DNND_GRID_PREPS", spec.preps);
  override_axis("DNND_GRID_DEFENSES", spec.defenses);
  if (const char* v = std::getenv("DNND_GRID_GENS"); v != nullptr && v[0] != '\0') {
    spec.generations.clear();
    for (const auto& slug : split_csv(v)) {
      spec.generations.push_back(device_gen_from_slug(slug));
    }
  }
  if (const char* v = std::getenv("DNND_GRID_ATTACKS"); v != nullptr && v[0] != '\0') {
    spec.attacks.clear();
    for (const auto& slug : split_csv(v)) {
      try {
        spec.attacks.push_back(attack_kind_from_string(slug));
      } catch (const std::invalid_argument& e) {
        // Name the env var: the bare slug error is useless when the typo lives
        // in a CI matrix definition three layers up.
        throw std::invalid_argument(std::string("DNND_GRID_ATTACKS: ") + e.what());
      }
    }
  }
  if (const char* v = std::getenv("DNND_GRID_FULL_PRODUCT"); v != nullptr && v[0] == '1') {
    spec.prune_incoherent = false;
  }
  spec.vwa_budget = sys::env_usize("DNND_VWA_BUDGET", spec.vwa_budget);
  return spec;
}

std::vector<Scenario> grid_from_env(bool tiny, bool small) {
  if (tiny) return tiny_test_grid();
  return enumerate_grid(grid_spec_from_env(small));
}

}  // namespace dnnd::harness
