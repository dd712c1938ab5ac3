// Symmetric per-layer 8-bit weight quantization with two's-complement bit
// access -- the representation the BFA threat model attacks.
//
// Each quantizable weight tensor W gets scale s = max|W| / 127 and integer
// codes q = clamp(round(W/s), -128, 127). Inference runs on the dequantized
// ("materialized") values q*s written back into the float model, the standard
// fake-quantization scheme BFA evaluations use. Flipping two's-complement bit
// j of a code changes the weight by +-s*2^j (+-s*128 for the sign bit), which
// is why MSB flips are the attack's weapon of choice.
#pragma once

#include <string>
#include <vector>

#include "nn/model.hpp"

namespace dnnd::quant {

/// Two's-complement bit j of code q, as stored in the memory byte.
inline bool get_bit(i8 q, u32 bit) { return (static_cast<u8>(q) >> bit) & 1; }

/// Code with bit j flipped.
inline i8 flip_bit_value(i8 q, u32 bit) {
  return static_cast<i8>(static_cast<u8>(q) ^ static_cast<u8>(1u << bit));
}

/// Signed contribution of bit j to the code value: -128 for bit 7 (sign),
/// +2^j otherwise.
inline i32 bit_weight(u32 bit) { return bit == 7 ? -128 : (1 << bit); }

/// Identifies one bit of one weight: (quantized layer, flat weight index, bit).
struct BitLocation {
  usize layer = 0;
  usize index = 0;
  u32 bit = 0;

  friend bool operator==(const BitLocation&, const BitLocation&) = default;

  /// Packs into a sortable/hashable key (layer < 2^20, index < 2^41).
  [[nodiscard]] u64 key() const {
    return (static_cast<u64>(layer) << 44) | (static_cast<u64>(index) << 3) | bit;
  }
  static BitLocation from_key(u64 k) {
    return {static_cast<usize>(k >> 44), static_cast<usize>((k >> 3) & ((1ULL << 41) - 1)),
            static_cast<u32>(k & 7)};
  }
};

namespace detail {

/// BitLocation::key() packing limits: 20 bits of layer index, 41 of weight
/// index. Exceeding either would silently alias distinct bits under one key.
inline constexpr usize kMaxKeyLayers = usize{1} << 20;
inline constexpr usize kMaxKeyIndex = usize{1} << 41;

/// Throws std::length_error if a model of `layer_count` quantized layers with
/// largest layer `max_layer_size` weights could alias under key(). Checked at
/// QuantizedModel construction so every BitLocation minted later is packable.
void validate_bit_key_bounds(usize layer_count, usize max_layer_size);

}  // namespace detail

/// One quantized weight tensor.
struct QuantizedLayer {
  std::string name;        ///< hierarchical parameter name
  std::vector<i8> q;       ///< integer codes, same flat order as the float tensor
  float scale = 1.0f;
  nn::Tensor* value = nullptr;  ///< float weights used by inference
  nn::Tensor* grad = nullptr;   ///< gradient buffer of the float weights
  /// Index of the owning layer in the model's top-level Sequential -- the
  /// Model::forward_from / probe_row argument that re-evaluates a flip in
  /// this tensor (only layers >= net_layer can see the changed weight).
  usize net_layer = 0;

  /// Weights per output row (in features / in_ch*k*k): code `index` belongs
  /// to output feature / channel index / cols.
  usize cols = 0;

  /// Lowest attackable bit: bits [lowest_bit, 7] of every code are the
  /// layer's attack surface (0 for 8-bit codes; 7 for binary weights, whose
  /// sign bit is the only bit that carries information).
  u32 lowest_bit = 0;

  [[nodiscard]] usize size() const { return q.size(); }
};

/// Quantized view over a Model's weight tensors. Owns the integer codes --
/// the bits the attacks flip; the float model remains the inference engine
/// (and stays in sync code-for-code).
///
/// The public constructor codes every layer with the symmetric 8-bit scheme
/// above; a subclass may code them differently through the protected
/// constructor (defense::software::BinaryWeightModel: codes +-64, sign bit
/// only).
///
/// Invariant: while a QuantizedModel is alive, every mutation of a quantized
/// weight tensor must go through it (flip / set_q / restore / materialize) so
/// codes and floats never diverge. All in-tree mutators (attacks,
/// ReconstructionGuard, WeightMapping::download) already do.
class QuantizedModel {
 public:
  /// Quantizes all quantizable parameters of `model` and materializes the
  /// dequantized values into the model (so inference == quantized inference).
  explicit QuantizedModel(nn::Model& model);
  QuantizedModel(const QuantizedModel&) = delete;
  QuantizedModel& operator=(const QuantizedModel&) = delete;

  [[nodiscard]] usize num_layers() const { return layers_.size(); }
  [[nodiscard]] QuantizedLayer& layer(usize i) { return layers_.at(i); }
  [[nodiscard]] const QuantizedLayer& layer(usize i) const { return layers_.at(i); }

  [[nodiscard]] nn::Model& model() { return model_; }

  /// Total number of weights / attackable weight bits across all quantized
  /// layers.
  [[nodiscard]] u64 total_weights() const;
  [[nodiscard]] u64 total_bits() const;

  /// Rewrites every float weight from its code -- the full dequantization
  /// pass. flip/set_q/restore keep everything in sync
  /// incrementally, so this is only needed after external code edits.
  void materialize();

  /// Flips one bit: updates the code and the corresponding float weight.
  void flip(const BitLocation& loc);

  /// Prices one flip exactly: flips bit `loc` WITHOUT invalidating the
  /// forward cache, runs the channel-sparse probe from the flipped row
  /// (Model::probe_row), then restores the code and float weight to their
  /// exact prior bytes. Returns the post-flip logits, held in the
  /// model's probe workspace until its next probe or forward. The probe
  /// writes nothing of the clean cache (it only refreshes a stale prefix
  /// below the flipped layer), so probe after probe reuses it; committing a
  /// flip is flip()'s job.
  const nn::Tensor& probe(const BitLocation& loc);

  /// Reads / writes one code (set_q also updates the float weight).
  /// Writing the value a code already holds is a no-op: it neither touches
  /// the floats nor invalidates the incremental-forward cache, which is what
  /// lets WeightMapping::download sync the whole model from DRAM after an
  /// attack attempt without paying a materialization or re-forward for the
  /// (vast majority of) unchanged weights.
  [[nodiscard]] i8 get_q(usize layer, usize index) const;
  void set_q(usize layer, usize index, i8 code);

  /// Full snapshot of the integer codes (cheap: one byte per weight).
  [[nodiscard]] std::vector<std::vector<i8>> snapshot() const;
  /// Restores a snapshot incrementally: only codes that differ are rewritten
  /// (code + float), and the forward cache is invalidated from the
  /// earliest changed layer only -- not a full materialization pass.
  void restore(const std::vector<std::vector<i8>>& snap);

  /// Hamming distance of current codes to a snapshot (total flipped bits).
  [[nodiscard]] u64 hamming_distance(const std::vector<std::vector<i8>>& snap) const;

 protected:
  /// Fills one layer's `scale`, `q` and `lowest_bit` from its float weights.
  using LayerCoder = void (*)(const nn::Tensor& weights, QuantizedLayer& layer);
  /// Builds every layer's bookkeeping (name, tensors, net_layer, cols), codes
  /// it with `coder`, checks the key bounds and materializes.
  QuantizedModel(nn::Model& model, LayerCoder coder);

 private:
  nn::Model& model_;
  std::vector<QuantizedLayer> layers_;
};

}  // namespace dnnd::quant
