// Neural-network layers with full forward/backward passes. A layer object
// holds only its parameters, their gradients, persistent statistics
// (BatchNorm's running mean/var) and shape configuration -- no per-forward
// state. Everything a backward pass needs is read from the layer's input and
// output activations, which the enclosing Sequential keeps in its Workspace,
// or recomputed from them; per-layer scratch that outlives one call (BatchNorm
// batch statistics) lives in a workspace slot keyed by the layer. So a layer
// is a function of the activation cache: a forward into another workspace
// cannot disturb a pending backward. Backward accumulates parameter gradients
// (call Model::zero_grad between batches) and, when asked for it, dL/dx.
//
// The compute API is arena-based: forward_into/backward_into write into
// caller-provided tensors and draw all scratch from a Workspace, so the
// steady state performs zero heap allocations. Dense and Conv2d lower both
// passes onto the cache-blocked GEMM in nn/gemm.hpp (Conv2d via patch
// gathers) while preserving the naive loops' per-output accumulation order
// bit-exactly; the forward packs the weight operand from the float tensor
// on every call, so it can never read stale weights. The value-returning
// forward/backward wrappers remain for tests and one-off use.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv_patch.hpp"
#include "nn/tensor.hpp"
#include "nn/workspace.hpp"

namespace dnnd::nn {

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
  /// This is the layer argument the probes (Sequential::probe_from /
  /// probe_row) and invalidate_from take after the parameter is perturbed.
  usize top_layer = 0;
};

/// Abstract layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output into `y` (resized as needed). `train` toggles
  /// batch-statistics behaviour (BatchNorm); backward is always legal after
  /// forward. All scratch comes from `ws`; with stable shapes and workspace
  /// this allocates nothing.
  virtual void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) = 0;

  /// Accumulates the parameter gradients from dL/dy and, when `dx` is not
  /// null, writes dL/dx into *dx. A null `dx` says nobody reads the input
  /// gradient (Sequential::backward_params passes it to the lowest layer
  /// with parameters): the layer then skips every pass that only feeds dx --
  /// Conv2d its dy gather, flipped-weight pack and dx GEMM, Dense its dx
  /// GEMM, BatchNorm2d its dx loop -- and the parameter gradients come out
  /// byte-identical. Layers without parameters always get a `dx`.
  /// `x` and `y` must be the input and output of this layer's latest
  /// forward_into against `ws`, unmodified since (Sequential passes its
  /// activation slots i and i + 1). Backward reads nothing else of that
  /// forward: what it needs beyond x and y it recomputes, or reads from the
  /// layer's own slots in `ws`.
  virtual void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                             Workspace& ws) = 0;

  /// One-row forward for the channel-sparse probe: computes output row
  /// `row` alone -- the output channel of a Conv2d, the output feature of a
  /// Dense -- for the whole batch, into `y` as an {N, 1, ...} tensor whose
  /// bytes equal that row of forward_into's output (eval mode).
  /// Returns false, computing nothing, for layers without such a kernel.
  virtual bool forward_row_into(const Tensor& /*x*/, usize /*row*/, Tensor& /*y*/,
                                Workspace& /*ws*/) {
    return false;
  }

  /// True when, in eval mode, output channel c depends on input channel c
  /// alone (BatchNorm, ReLU, pooling, Flatten). forward_channel_into then
  /// maps channel `c` of the input, passed alone as an {N, 1, ...} tensor, to
  /// channel c of the output in the same one-channel form, byte-identical to
  /// that channel of forward_into. The default suits layers that treat every
  /// channel alike and read no per-channel parameters.
  [[nodiscard]] virtual bool channel_local() const { return false; }
  virtual void forward_channel_into(const Tensor& x, usize /*c*/, Tensor& y, Workspace& ws) {
    forward_into(x, y, /*train=*/false, ws);
  }

  /// Value-returning convenience wrappers over the arena API. They run
  /// against a layer-owned workspace that also keeps the last forward's x
  /// and y for backward; the engine paths (Model, attacks) use the *_into
  /// forms with the model's workspace instead.
  Tensor forward(const Tensor& x, bool train);
  Tensor backward(const Tensor& dy);

  /// Parameter views (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Non-parameter persistent state (BatchNorm running statistics). Needed
  /// to snapshot/restore a model completely.
  virtual std::vector<Tensor*> state_tensors() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

 private:
  std::unique_ptr<Workspace> legacy_ws_;  ///< lazily created for the wrappers
};

/// Fully-connected layer: y = x W^T + b, W: {out, in}.
class Dense final : public Layer {
 public:
  Dense(usize in_features, usize out_features, sys::Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  bool forward_row_into(const Tensor& x, usize row, Tensor& y, Workspace& ws) override;
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
};

/// 2-D convolution, square kernel, NCHW. y = conv(x, W) + b, computed as a
/// GEMM per sample over patch rows (one per output position) against the
/// weight rows. Every pass -- forward, the one-row probe kernel,
/// backward -- reads its patches from zero-bordered copies of the
/// sample's planes, so no gather tests bounds.
class Conv2d final : public Layer {
 public:
  Conv2d(usize in_ch, usize out_ch, usize kernel, usize stride, usize padding, sys::Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  bool forward_row_into(const Tensor& x, usize row, Tensor& y, Workspace& ws) override;
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
  usize in_ch_, out_ch_, k_, stride_, pad_;
};

/// Elementwise max(x, 0).
class ReLU final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "relu"; }
  [[nodiscard]] bool channel_local() const override { return true; }
};

/// 2x2 max pooling with stride 2 (the only configuration the zoo needs).
class MaxPool2d final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "maxpool2d"; }
  [[nodiscard]] bool channel_local() const override { return true; }
};

/// Global average pooling: {N,C,H,W} -> {N,C}.
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "gap"; }
  [[nodiscard]] bool channel_local() const override { return true; }
};

/// {N,C,H,W} -> {N, C*H*W}.
class Flatten final : public Layer {
 public:
  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "flatten"; }
  [[nodiscard]] bool channel_local() const override { return true; }
};

/// Per-channel batch normalisation for NCHW tensors with running statistics.
/// Forward leaves the per-channel mean and 1/std it normalised with in the
/// workspace scratch slot (this, kScratch, 0); backward recomputes x_hat
/// from x with the forward's own float expression.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(usize channels, float momentum = 0.1f, float eps = 1e-5f);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  std::vector<ParamRef> params() override;
  std::vector<Tensor*> state_tensors() override { return {&running_mean, &running_var}; }
  [[nodiscard]] std::string name() const override { return "batchnorm2d"; }
  [[nodiscard]] bool channel_local() const override { return true; }
  void forward_channel_into(const Tensor& x, usize c, Tensor& y, Workspace& ws) override;

  Tensor gamma, beta, dgamma, dbeta;
  Tensor running_mean, running_var;

 private:
  usize channels_;
  float momentum_, eps_;
};

/// Executes contained layers in order. Used standalone and as the body of
/// residual blocks. Caches every layer's activation in the workspace, which
/// is what every layer's backward reads and what the probes below re-run
/// from.
///
/// The clean cache and its frontier. After forward_cached(x, ws), activation
/// slot i in `ws` holds the input of layer i under the current parameters.
/// Only two things move that: a parameter change reported through
/// invalidate_from(k), which marks activations beyond k stale, and a refresh
/// (forward_cached, refresh), which recomputes them. Probes never write
/// `ws`: they compute in a second, probe-private workspace, reading the
/// clean slots, so any number of probes at any layers leave the cache
/// exactly as they found it.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer. Its parameter set is read here, once, so a layer must
  /// have its parameters when it is added.
  void add(std::unique_ptr<Layer> layer);
  [[nodiscard]] usize layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(usize i) { return *layers_.at(i); }

  /// Runs the full network, caching each layer's activation in `ws` (slots
  /// keyed by this Sequential; slot 0 holds a copy of the input). Returns a
  /// reference to the final activation, valid until the next call using `ws`.
  const Tensor& forward_cached(const Tensor& x, bool train, Workspace& ws);

  /// Brings the clean cache up to date through activation `upto` (clamped to
  /// the layer count) by re-running, in eval mode, the stale layers between
  /// the frontier and `upto`; returns that activation. Throws
  /// std::logic_error unless a forward_cached into `ws` came first.
  const Tensor& refresh(usize upto, Workspace& ws);

  /// Dense probe: the final activation with the parameters of layer
  /// `first_changed` (and only that layer) perturbed since the cache was
  /// clean. Refreshes the cache up to that layer's input, then runs layers
  /// >= first_changed in eval mode into `probe`; `ws` is read, never
  /// written by the probe itself. The result lives in `probe` (or, for
  /// first_changed == layer_count(), is the cached final activation).
  const Tensor& probe_from(usize first_changed, Workspace& ws, Workspace& probe);

  /// Channel-sparse probe: like probe_from, for a perturbation confined to
  /// output row `row` of layer `k` (one output channel or feature). When
  /// layer k has a one-row kernel, only that row is recomputed and carried
  /// through the channel-local layers after it; the input of the first layer
  /// that mixes channels is the clean activation with that channel replaced,
  /// and the dense forward runs from there. Byte-identical to probe_from(k).
  /// Falls back to probe_from(k) when layer k has no row kernel, or when the
  /// clean activation the channel run splices into is stale.
  const Tensor& probe_row(usize k, usize row, Workspace& ws, Workspace& probe);

  /// dL/d(input) of the last forward, via workspace gradient slots. Layer i
  /// differentiates against activation slots i and i + 1.
  const Tensor& backward_cached(const Tensor& dy, Workspace& ws);

  /// The parameter gradients of the last forward, and nothing else: runs
  /// backward from the top down to the lowest layer that has parameters,
  /// which gets no dx to fill (see Layer::backward_into); the layers below
  /// it do not run. Byte-identical parameter gradients to backward_cached.
  void backward_params(const Tensor& dy, Workspace& ws);

  /// Records that the parameters of layer `first_changed` were mutated
  /// (a committed flip, a restore), so cached activations beyond it are
  /// stale. O(1); the next refresh re-runs from the clamped frontier.
  void invalidate_from(usize first_changed) {
    clean_frontier_ = std::min(clean_frontier_, first_changed);
  }

  /// True when `ws` holds this network's activation cache (a forward_cached
  /// ran against it), i.e. refresh and the probes are legal. The cache's
  /// input batch is whatever that forward received -- Model tracks it for
  /// the incremental evaluation helpers.
  [[nodiscard]] bool has_cache(const Workspace& ws) const { return cache_ws_ == &ws; }

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  std::vector<ParamRef> params() override;
  std::vector<Tensor*> state_tensors() override;
  [[nodiscard]] std::string name() const override { return "sequential"; }

 private:
  /// Runs layers >= first in eval mode into `probe`, layer `first` reading
  /// `in`; returns the final activation (`in` itself when nothing runs).
  const Tensor& run_probe(usize first, const Tensor& in, Workspace& probe);

  /// Backward through layers >= `lowest`, top down; layer `lowest` writes
  /// its dx into gradient slot `lowest` when `input_grad`, else gets none.
  /// Returns that slot, or null.
  const Tensor* backward_down_to(usize lowest, bool input_grad, const Tensor& dy,
                                 Workspace& ws);

  std::vector<std::unique_ptr<Layer>> layers_;
  /// Index of the first layer with parameters; layer_count() when none has.
  usize lowest_param_layer_ = 0;
  /// Activations 0..clean_frontier_ in the cache were computed with the
  /// current parameters of their producing layers. The cache lives in
  /// exactly one workspace at a time (cache_ws_); refreshes and probes
  /// against any other workspace are rejected.
  usize clean_frontier_ = 0;
  const Workspace* cache_ws_ = nullptr;
};

/// ResNet basic block: y = relu(F(x) + shortcut(x)), where F is
/// conv-bn-relu-conv-bn and shortcut is identity or a 1x1 projection.
/// F and the projection cache their activations in the workspace under their
/// own Sequential keys; backward takes the final relu's mask from y.
class ResidualBlock final : public Layer {
 public:
  /// stride > 1 or in_ch != out_ch selects a projection shortcut.
  ResidualBlock(usize in_ch, usize out_ch, usize stride, sys::Rng& rng);

  void forward_into(const Tensor& x, Tensor& y, bool train, Workspace& ws) override;
  void backward_into(const Tensor& x, const Tensor& y, const Tensor& dy, Tensor* dx,
                     Workspace& ws) override;
  std::vector<ParamRef> params() override;
  std::vector<Tensor*> state_tensors() override;
  [[nodiscard]] std::string name() const override { return "resblock"; }

 private:
  Sequential body_;
  std::unique_ptr<Sequential> projection_;  ///< null for identity shortcut
};

}  // namespace dnnd::nn
