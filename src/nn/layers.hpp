// Neural-network layers with full forward/backward passes. Every layer caches
// what its backward pass needs during forward; backward accumulates parameter
// gradients (call Model::zero_grad between batches) and returns dL/dx.
//
// The compute API is arena-based: forward_into/backward_into write into
// caller-provided tensors and draw all scratch from a Workspace, so the
// steady state performs zero heap allocations. Dense and Conv2d lower both
// passes onto the cache-blocked GEMM in nn/gemm.hpp (Conv2d via patch
// gathers) while preserving the naive loops' per-output accumulation order
// bit-exactly; the float forward packs the weight operand from the float
// tensor on every call, so it can never read stale weights. The
// value-returning forward/backward wrappers remain for tests and one-off use.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv_patch.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace dnnd::nn {

class Layer;

/// A named view of one parameter tensor and its gradient buffer.
/// `quantizable` marks weights the BFA threat model targets (conv/dense
/// weights); biases and batch-norm affine parameters are not quantized,
/// matching the paper's 8-bit weight-only quantization.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  bool quantizable = false;
  /// Index of the layer that owns this parameter within the outermost
  /// Sequential that enumerated it (the Model's net for Model::params()).
  /// This is the `first_changed` argument Sequential::forward_from needs to
  /// incrementally re-evaluate after the parameter is perturbed.
  usize top_layer = 0;
  /// The layer object the parameter belongs to (the innermost one, not a
  /// wrapping Sequential). QuantizedModel uses it to attach resident int8
  /// code panels to Dense/Conv2d for the true-integer forward path.
  Layer* owner = nullptr;
};

/// Abstract layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output into `y` (resized as needed). `train` toggles
  /// batch-statistics behaviour (BatchNorm) -- it does not change caching;
  /// backward is always legal after forward. All scratch comes from `ws`;
  /// with stable shapes and workspace this allocates nothing.
  virtual void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) = 0;

  /// Propagates dL/dy -> dL/dx into `dx`, accumulating parameter gradients.
  virtual void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) = 0;

  /// Value-returning convenience wrappers over the arena API. They run
  /// against a layer-owned workspace; the engine paths (Model, attacks)
  /// use the *_into forms with the model's workspace instead.
  Tensor forward(const Tensor& x, bool train);
  Tensor backward(const Tensor& dy);

  /// Parameter views (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Non-parameter persistent state (BatchNorm running statistics). Needed
  /// to snapshot/restore a model completely.
  virtual std::vector<Tensor*> state_tensors() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// True-integer int8 residency (the DNND_INT8 regime): raw weight codes in
  /// gemm::pack_b_q8 layout plus the symmetric scales needed to requantize.
  /// act_scale == 0 means "uncalibrated": forward derives a per-call scale
  /// from the live input instead (deterministic, but costs an extra pass and
  /// floats the quantization grid per batch).
  struct Int8Pack {
    const i8* panel = nullptr;
    float weight_scale = 1.0f;
    float act_scale = 0.0f;
  };
  void attach_int8_pack(const Int8Pack& pack) { int8_pack_ = pack; }
  void detach_int8_pack(const i8* panel) {
    if (int8_pack_.panel == panel) int8_pack_ = {};
  }
  [[nodiscard]] const Int8Pack& int8_pack() const { return int8_pack_; }

  /// Guard hook for code that mutates parameter tensors directly instead of
  /// through quant::QuantizedModel (Model::load_state, the optimizer): drops
  /// the attached int8 code panel so forward falls back to the float path
  /// over the current weights -- slower but never stale.
  void drop_packed_weight() { int8_pack_ = {}; }

  /// Activation-calibration probe: while set, every Dense/Conv2d forward
  /// folds max|input| into *sink. QuantizedModel::calibrate_int8 points it at
  /// the per-layer amax accumulator for one recording pass, then clears it.
  void set_act_probe(float* sink) { act_probe_ = sink; }

 protected:
  /// Called by quantizable layers at the top of forward_into.
  void record_act(const Tensor& x) {
    if (act_probe_ != nullptr) *act_probe_ = std::max(*act_probe_, x.abs_max());
  }

 private:
  std::unique_ptr<Workspace> legacy_ws_;  ///< lazily created for the wrappers
  Int8Pack int8_pack_;
  float* act_probe_ = nullptr;
};

/// Fully-connected layer: y = x W^T + b, W: {out, in}.
class Dense final : public Layer {
 public:
  Dense(usize in_features, usize out_features, sys::Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override { return "dense"; }

  [[nodiscard]] usize in_features() const { return in_; }
  [[nodiscard]] usize out_features() const { return out_; }

  Tensor weight;  ///< {out, in}
  Tensor bias;    ///< {out}
  Tensor dweight;
  Tensor dbias;

 private:
  usize in_, out_;
  Tensor x_cache_;
};

/// 2-D convolution, square kernel, NCHW. y = conv(x, W) + b, computed as a
/// GEMM over im2col patches (weight rows x patch rows).
class Conv2d final : public Layer {
 public:
  Conv2d(usize in_ch, usize out_ch, usize kernel, usize stride, usize padding, sys::Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override { return "conv2d"; }

  [[nodiscard]] usize out_size(usize in_size) const { return (in_size + 2 * pad_ - k_) / stride_ + 1; }

  Tensor weight;  ///< {out_ch, in_ch, k, k}
  Tensor bias;    ///< {out_ch}
  Tensor dweight;
  Tensor dbias;

 private:
  [[nodiscard]] ConvGeom geom(usize h, usize w) const {
    return {in_ch_, k_, stride_, pad_, h, w, out_size(h), out_size(w)};
  }
  /// Gathers sample `b`'s patches into `col`, patch-major: col[p*K + kk].
  void im2col(const Tensor& x, usize b, const ConvGeom& g, float* col) const;
  /// Gathers only patches [p_lo, p_hi) of sample b into col (row p at
  /// col + p * patch_size). Disjoint ranges touch disjoint col rows, so the
  /// threaded gather in forward_into can partition one sample's patches
  /// across a pool team into one shared buffer, byte-identically.
  void im2col_range(const Tensor& x, usize b, const ConvGeom& g, usize p_lo, usize p_hi,
                    float* col) const;
  /// Int8 gather over a pre-quantized input slice `xq` (the sample's
  /// in_ch*h*w codes), TAP-major: T row k (flat tap (ic, ki, kj)) holds that
  /// tap's code for every output pixel p -- for stride 1 each T row is just
  /// a shifted copy of input rows, so the gather runs as oh memcpys of
  /// ow-byte spans per tap instead of P per-patch scatter lambdas. Rows
  /// K..padded_k_int8(K) are zeroed; simd::interleave_quads_i8 then zips T
  /// into the GEMM's quad-major A panel. Gathering codes commutes exactly
  /// with quantizing gathered floats -- every patch entry is an input value
  /// (same code either way) or an exact padding zero (code 0) -- so the
  /// pipeline is byte-identical to quantizing a float im2col. `T` must have
  /// 16 bytes of slack past padded_k_int8(K) * oh * ow: the small-image fast
  /// path writes whole 16-byte lanes whose tails are rewritten by later rows
  /// (the final one lands in the slack).
  void gather_taps_i8(const i8* xq, const ConvGeom& g, i8* T) const;

  usize in_ch_, out_ch_, k_, stride_, pad_;
  Tensor x_cache_;
};

/// Elementwise max(x, 0).
class ReLU final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  Tensor mask_;  ///< 1 where x > 0
};

/// 2x2 max pooling with stride 2 (the only configuration the zoo needs).
class MaxPool2d final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "maxpool2d"; }

 private:
  std::vector<usize> argmax_;  ///< flat input index chosen per output element
  std::vector<usize> in_shape_;
};

/// Global average pooling: {N,C,H,W} -> {N,C}.
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "gap"; }

 private:
  std::vector<usize> in_shape_;
};

/// {N,C,H,W} -> {N, C*H*W}.
class Flatten final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "flatten"; }

 private:
  std::vector<usize> in_shape_;
};

/// Per-channel batch normalisation for NCHW tensors with running statistics.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(usize channels, float momentum = 0.1f, float eps = 1e-5f);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  std::vector<ParamRef> params() override;
  std::vector<Tensor*> state_tensors() override { return {&running_mean, &running_var}; }
  [[nodiscard]] std::string name() const override { return "batchnorm2d"; }

  Tensor gamma, beta, dgamma, dbeta;
  Tensor running_mean, running_var;

 private:
  usize channels_;
  float momentum_, eps_;
  // caches for backward
  Tensor x_hat_;
  std::vector<float> batch_mean_, batch_inv_std_;
  std::vector<usize> in_shape_;
};

/// Executes contained layers in order. Used standalone and as the body of
/// residual blocks. Caches every layer's activation in the workspace, which
/// is what makes incremental re-evaluation (forward_from) possible.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  [[nodiscard]] usize layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(usize i) { return *layers_.at(i); }

  /// Runs the full network, caching each layer's activation in `ws` (slots
  /// keyed by this Sequential; slot 0 holds a copy of the input). Returns a
  /// reference to the final activation, valid until the next call using `ws`.
  const Tensor& forward_cached(const Tensor& x, bool train, Workspace& ws);

  /// Incremental re-evaluation after the parameters of layer `first_changed`
  /// (and only that layer) were perturbed: recomputes layers >= the earliest
  /// layer whose cached activation could be stale and returns the new final
  /// activation. Cost scales with the remaining depth, not the full network.
  ///
  /// Contract: a forward_cached on the same input batch and workspace must
  /// precede; interleaved probes at different layers are handled (the
  /// internal frontier tracks how much of the cache is still clean), but the
  /// cached prefix is only valid as long as layers before `first_changed`
  /// keep their parameters. Throws std::logic_error without a prior cache.
  const Tensor& forward_from(usize first_changed, bool train, Workspace& ws);

  /// dL/d(input) of the last forward, via workspace gradient slots.
  const Tensor& backward_cached(const Tensor& dy, Workspace& ws);

  /// Records that the parameters of layer `first_changed` were mutated
  /// outside a probe (e.g. a committed flip), so cached activations beyond it
  /// are stale. O(1); forward_from restarts from the clamped frontier.
  void invalidate_from(usize first_changed) {
    clean_frontier_ = std::min(clean_frontier_, first_changed);
  }

  /// True when `ws` holds this network's activation cache (a forward_cached
  /// ran against it), i.e. forward_from is legal. The cache's input batch is
  /// whatever that forward received -- Model tracks it for the incremental
  /// evaluation helpers.
  [[nodiscard]] bool has_cache(const Workspace& ws) const { return cache_ws_ == &ws; }

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  std::vector<ParamRef> params() override;
  std::vector<Tensor*> state_tensors() override;
  [[nodiscard]] std::string name() const override { return "sequential"; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  /// Activations 0..clean_frontier_ in the cache were computed with the
  /// current (un-probed) parameters of their producing layers. The cache
  /// lives in exactly one workspace at a time (cache_ws_); forward_from
  /// against any other workspace is rejected.
  usize clean_frontier_ = 0;
  const Workspace* cache_ws_ = nullptr;
};

/// ResNet basic block: y = relu(F(x) + shortcut(x)), where F is
/// conv-bn-relu-conv-bn and shortcut is identity or a 1x1 projection.
class ResidualBlock final : public Layer {
 public:
  /// stride > 1 or in_ch != out_ch selects a projection shortcut.
  ResidualBlock(usize in_ch, usize out_ch, usize stride, sys::Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& dy, Tensor& dx, Workspace& ws) override;
  std::vector<ParamRef> params() override;
  std::vector<Tensor*> state_tensors() override;
  [[nodiscard]] std::string name() const override { return "resblock"; }

 private:
  Sequential body_;
  std::unique_ptr<Sequential> projection_;  ///< null for identity shortcut
  Tensor sum_mask_;  ///< relu mask of (F(x) + shortcut)
};

}  // namespace dnnd::nn
