// Scenario descriptor for the parallel evaluation harness.
//
// A Scenario is one cell of the paper's evaluation grid: attack kind x
// defense (software prep, inference-time guard, or a hardware
// defense::Mitigation factory) x model/dataset x DramConfig, plus the attack
// budgets. Scenarios are plain data: CampaignRunner executes them on a thread
// pool, and every stochastic component is seeded from the scenario *id*
// (never from thread order), so a grid's results are independent of the
// thread count that produced them.
#pragma once

#include <functional>
#include <iterator>
#include <memory>
#include <string>

#include "defense/mitigation.hpp"
#include "dram/dram_config.hpp"
#include "nn/dataset.hpp"

namespace dnnd::harness {

/// Synthetic dataset families used by the paper's evaluation.
enum class DatasetKind {
  kCifar10Like,   ///< 10-class CIFAR stand-in (Table 3)
  kImagenetLike,  ///< many-class ImageNet stand-in (Fig. 1b)
  kTinyEasy,      ///< 4-class 1x8x8 set for fast unit tests
};

/// How the attacker reaches the weights.
enum class AttackKind {
  kBfa,           ///< progressive bit search on the quantized model
  kBinaryBfa,     ///< sign-bit progressive search on a binary-weight model
  kRandom,        ///< uniformly random bit flips
  kAdaptive,      ///< white-box BFA that skips a secured-bit set
  kDramWhiteBox,  ///< full-stack attack carried through the DRAM simulator
  kTbfaNTo1,      ///< T-BFA: redirect every class to the target class
  kTbfa1To1,      ///< T-BFA: redirect one source class to the target class
  kTbfaStealthy,  ///< T-BFA 1-to-1 under the other-class accuracy constraint
  /// Limited-bit-budget weight attack in the style of Versatile Weight
  /// Attack (Bai et al., "Versatile Weight Attack via Flipping Limited
  /// Bits"): the attacker's defining constraint is a HARD flip budget B
  /// (Scenario::vwa_budget) -- it seeks the best damage at <= B flips, not
  /// the fewest flips to a damage target. Hitting the stop accuracy early is
  /// a bonus and exhausting the budget is the EXPECTED outcome, so the cell
  /// reports the three ways a run ends distinctly. It is the untargeted
  /// objective without BFA's first-order fallback: an attacker paying for
  /// every flip never spends one on a candidate that did not improve the
  /// loss, so a step with no improving probe ends the attack.
  kVwaLimited,
};

/// True for the class-targeted T-BFA family (the kinds whose results carry
/// an attack-success-rate instead of pure accuracy collapse).
inline constexpr bool is_tbfa(AttackKind kind) {
  return kind == AttackKind::kTbfaNTo1 || kind == AttackKind::kTbfa1To1 ||
         kind == AttackKind::kTbfaStealthy;
}

/// Training-time software defense applied before quantization.
enum class SoftwarePrep {
  kNone,
  kBinaryFinetune,        ///< STE binary-weight training (He et al.)
  kPiecewiseClustering,   ///< clustering regularizer fine-tune (He et al.)
};

/// Every enumerator, in declaration order -- the single source for slug
/// round-trips, axis defaults, and exhaustive tests. A new enum value only
/// needs to be added here and in its to_string switch.
inline constexpr AttackKind kAllAttackKinds[] = {
    AttackKind::kBfa,          AttackKind::kBinaryBfa, AttackKind::kRandom,
    AttackKind::kAdaptive,     AttackKind::kDramWhiteBox,
    AttackKind::kTbfaNTo1,     AttackKind::kTbfa1To1,  AttackKind::kTbfaStealthy,
    AttackKind::kVwaLimited,
};
/// Declared AttackKind count -- bump together with the enum. The assert
/// keeps the array from silently lagging the enum; the runtime round-trip
/// test (test_harness Registry.AxisSlugsRoundTrip) walks [0, count) through
/// to_string/attack_kind_from_string, which additionally catches an
/// enumerator missing from the array or from the to_string switch.
inline constexpr usize kAttackKindCount = 9;
static_assert(std::size(kAllAttackKinds) == kAttackKindCount,
              "kAllAttackKinds must enumerate every AttackKind");
inline constexpr SoftwarePrep kAllSoftwarePreps[] = {
    SoftwarePrep::kNone,
    SoftwarePrep::kBinaryFinetune,
    SoftwarePrep::kPiecewiseClustering,
};

/// Builds a hardware mitigation wired to a scenario's device. Factories keep
/// Scenario copyable and let one descriptor instantiate per-run mitigations.
using MitigationFactory = std::function<std::unique_ptr<defense::Mitigation>(
    dram::DramDevice&, dram::RowRemapper&)>;

/// Model + training recipe (resolved through models::make_by_name, or
/// models::make_test_mlp for the special arch "mlp").
struct TrainSpec {
  std::string arch = "resnet20";
  usize width_mult = 1;
  usize epochs = 6;
  u64 seed = 1;
};

struct Scenario {
  /// Stable unique id, e.g. "table3/rrs". Doubles as the RNG seed source and
  /// the lookup key in campaign results.
  std::string id;
  /// Display name for tables (paper row label).
  std::string label;

  DatasetKind dataset = DatasetKind::kCifar10Like;
  TrainSpec train;

  AttackKind attack = AttackKind::kBfa;

  // ----- defense ----------------------------------------------------------
  SoftwarePrep prep = SoftwarePrep::kNone;
  usize prep_epochs = 2;
  double prep_lr = 0.02;
  double prep_lambda = 0.15;  ///< piece-wise clustering strength
  u64 prep_seed = 5;
  /// Inference-time weight-reconstruction clamp applied after every flip.
  bool reconstruction_guard = false;
  /// Hardware mitigation (kDramWhiteBox only); null = undefended device.
  MitigationFactory mitigation;
  /// Protect the rows of the priority profiler's blocked-attacker bits.
  /// kDramWhiteBox installs DNN-Defender on them; kAdaptive secures every
  /// bit of those rows (Fig. 9's SB level).
  bool use_dnn_defender = false;
  /// Profiled bits for use_dnn_defender (profile_blocked_attacker budget).
  usize profile_bits = 60;
  /// kAdaptive: secure every bit of every weight row (full-coverage SB set;
  /// takes precedence over use_dnn_defender).
  bool secure_all_weight_rows = false;
  /// Display name of the defense (tables/JSON).
  std::string defense = "none";

  dram::DramConfig dram = dram::DramConfig::nn_scaled();

  // ----- budgets ----------------------------------------------------------
  usize attack_batch = 32;   ///< attacker's gradient/search batch
  usize eval_batch = 300;    ///< held-out accuracy measurement batch
  usize max_flips = 60;      ///< flip budget (software attacks)
  usize vwa_budget = 10;     ///< hard flip budget B (kVwaLimited)
  usize measure_every = 10;  ///< accuracy sampling period (trace attacks)
  usize hw_attempts = 30;    ///< DRAM flip-attempt budget (kDramWhiteBox)
  /// Stop when eval accuracy falls to this; 0 = 1.1 x random-guess level.
  double stop_accuracy = 0.0;
  // T-BFA knobs (is_tbfa(attack) only).
  u32 tbfa_source = 0;            ///< source class (1-to-1 variants)
  u32 tbfa_target = 1;            ///< class the sources are redirected to
  double tbfa_stealth_tol = 0.1;  ///< kTbfaStealthy admissibility tolerance
  /// Record a per-measurement accuracy trace (Fig. 1b style curves).
  bool record_trace = false;

  /// Explicit RNG seed; 0 = derive from `id` (the default and the
  /// recommended mode -- overrides exist to reproduce legacy bench runs).
  u64 seed_override = 0;
};

/// The scenario's RNG seed: `seed_override` if set, else a stable hash of the
/// id. Thread order never contributes.
u64 scenario_seed(const Scenario& sc);

std::string to_string(AttackKind kind);
std::string to_string(DatasetKind kind);
std::string to_string(SoftwarePrep prep);

/// Inverse of to_string(AttackKind); throws std::invalid_argument for
/// unknown slugs. Used by GridSpec axis parsing (bench_grid env overrides).
AttackKind attack_kind_from_string(const std::string& slug);

/// Inverse of to_string(SoftwarePrep); throws std::invalid_argument.
SoftwarePrep software_prep_from_string(const std::string& slug);

/// Synthetic data spec backing a DatasetKind.
nn::SynthSpec dataset_spec(DatasetKind kind);

/// Factory for a baseline hardware mitigation by name:
/// "para", "rrs", "srs", "shadow", "graphene", "hydra".
/// Throws std::invalid_argument for unknown names.
MitigationFactory mitigation_factory(const std::string& name);

}  // namespace dnnd::harness
