// Scenario registry: enumerates the paper's evaluation grids as Scenario
// lists for CampaignRunner.
//
// table3_scenarios / fig1b_scenarios / fig9_scenarios reproduce the exact
// cells (labels, budgets, seeds) of the corresponding paper tables/figures --
// the bench binaries are thin drivers over these. enumerate_grid() builds arbitrary
// attack x defense x model x DramConfig cross-products for wider sweeps, and
// tiny_test_grid() is a seconds-fast grid covering every attack path for the
// determinism regression tests.
#pragma once

#include <vector>

#include "harness/scenario.hpp"

namespace dnnd::harness {

/// Table 3: DNN-Defender vs software & hardware BFA defenses (ResNet-20 on
/// the CIFAR-10 stand-in). `small` mirrors DNND_BENCH_SCALE=small budgets.
std::vector<Scenario> table3_scenarios(bool small);

/// Fig. 1(b): targeted BFA vs random flipping vs a full-coverage
/// DNN-Defender deployment (ResNet-34 on the ImageNet stand-in).
std::vector<Scenario> fig1b_scenarios(bool small);

/// Fig. 9: the adaptive white-box attack against DNN-Defender at increasing
/// Secured Bits (the row expansion of the first SB blocked-attacker bits),
/// plus an effectively unprotected baseline (one bit) and full row coverage,
/// on VGG-11 (CIFAR-10 stand-in), ResNet-18 and ResNet-34 (ImageNet
/// stand-in). Cells are grouped by model, in panel order.
std::vector<Scenario> fig9_scenarios(bool small);

/// Fast all-paths grid (tiny MLP, easy data): one scenario per attack kind
/// plus software- and hardware-defended variants. Used by test_harness.
std::vector<Scenario> tiny_test_grid();

/// Every device generation, in declaration order (slug round-trips, axis
/// defaults, exhaustive tests).
inline constexpr dram::DeviceGen kAllDeviceGens[] = {
    dram::DeviceGen::kDdr3Old,   dram::DeviceGen::kDdr3New, dram::DeviceGen::kDdr4Old,
    dram::DeviceGen::kDdr4New,   dram::DeviceGen::kLpddr4Old,
    dram::DeviceGen::kLpddr4New,
};

/// URL-ish slug for a device generation ("lpddr4-new"); stable, used inside
/// grid scenario ids.
std::string device_gen_slug(dram::DeviceGen gen);

/// Inverse of device_gen_slug; throws std::invalid_argument.
dram::DeviceGen device_gen_from_slug(const std::string& slug);

/// Software-defense axis value in GridSpec: a SoftwarePrep slug
/// ("none", "binary-finetune", "piecewise-clustering") or
/// "reconstruction-guard" (the inference-time clamp of Li et al. DAC'20).
bool is_known_prep_axis(const std::string& prep);

/// Cross-product sweep specification (the paper's evaluation shape:
/// attack kind x software prep x defense x model x device generation).
struct GridSpec {
  std::vector<std::string> models = {"vgg11", "resnet18", "resnet20", "resnet34"};
  std::vector<dram::DeviceGen> generations = {dram::DeviceGen::kLpddr4New};
  /// Attack-kind axis (any AttackKind; budgets are set per kind).
  std::vector<AttackKind> attacks = {AttackKind::kDramWhiteBox};
  /// Software-defense axis; see is_known_prep_axis for the vocabulary.
  std::vector<std::string> preps = {"none"};
  /// Hardware/system defense axis: "none", "para", "rrs", "srs", "shadow",
  /// "graphene", "hydra", "dnn-defender".
  std::vector<std::string> defenses = {"none", "rrs", "srs", "shadow", "dnn-defender"};
  DatasetKind dataset = DatasetKind::kCifar10Like;
  /// Hard flip budget of kVwaLimited cells (DNND_VWA_BUDGET).
  usize vwa_budget = 10;
  bool small = true;
  /// Drop cells whose defense cannot engage the attack kind (e.g. a DRAM
  /// mitigation against a model-level BFA, which never touches the device).
  /// With false the full cross product is emitted; the inert defense runs as
  /// a no-op and the cell duplicates its defense="none" sibling.
  bool prune_incoherent = true;
};

/// True when `defense` (and the prep axis value) can actually engage
/// `attack`: DRAM mitigations and profiled DNN-Defender need kDramWhiteBox,
/// full-coverage DNN-Defender also pairs with kAdaptive, and the
/// reconstruction guard is only consulted by the kBfa path.
bool grid_cell_coherent(AttackKind attack, const std::string& prep,
                        const std::string& defense);

/// Enumerates the cross product of a GridSpec as scenarios with stable ids
/// ("grid/<model>/<gen>/<attack>/<prep>/<defense>"). Cells failing
/// grid_cell_coherent are skipped unless spec.prune_incoherent is false.
/// Throws std::invalid_argument for unknown axis values.
std::vector<Scenario> enumerate_grid(const GridSpec& spec);

/// The paper-shaped default GridSpec with every axis overridable through the
/// DNND_GRID_* env vars (comma-separated lists; see bench_grid/README).
/// Shared by bench_grid and dnnd_shard so every shard of one sweep -- and
/// the merge coordinator -- enumerates the identical scenario list from the
/// identical environment. Throws std::invalid_argument for unknown axis
/// values.
GridSpec grid_spec_from_env(bool small);

/// The scenario list a sharded run operates on: tiny_test_grid() when `tiny`
/// (the CI baseline grid), else enumerate_grid(grid_spec_from_env(small)).
/// Every dnnd_shard invocation against one run directory must resolve this
/// identically or cells/merge won't line up.
std::vector<Scenario> grid_from_env(bool tiny, bool small);

}  // namespace dnnd::harness
