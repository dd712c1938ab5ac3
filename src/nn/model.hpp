// Model: a Sequential network plus the bookkeeping the trainer, quantizer,
// and attacks need -- flat parameter enumeration, gradient reset, batch
// forward/backward, and prediction helpers.
//
// The model owns two Workspace arenas. The clean one holds the activation
// cache: forward_cached runs the full net and caches every layer activation
// there (zero heap allocations in steady state), and backward reads it. The
// probe workspace is where the probes compute -- the primitive the BFA-family
// attacks use to price candidate bit flips: forward_from(k) re-runs layers
// >= k over the cached prefix, and probe_row(k, row) re-runs only the one
// channel a flip can change until the first layer that mixes channels. A
// probe never writes the clean cache, so its frontier moves only when
// parameters change (invalidate_from) or on a refresh.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"

namespace dnnd::nn {

class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}

  /// Appends a layer to the network.
  void add(std::unique_ptr<Layer> layer) { net_.add(std::move(layer)); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Sequential& net() { return net_; }
  [[nodiscard]] Workspace& workspace() { return ws_; }

  /// Full forward pass through the model workspace; returns a reference to
  /// the cached logits (valid until the next forward/backward on this model).
  /// `train` selects batch statistics for BatchNorm.
  const Tensor& forward_cached(const Tensor& x, bool train = false) {
    last_input_ = x.data();
    last_input_size_ = x.size();
    last_edge_[0] = x.size() > 0 ? x[0] : 0.0f;
    last_edge_[1] = x.size() > 0 ? x[x.size() - 1] : 0.0f;
    last_train_ = train;
    return net_.forward_cached(x, train, ws_);
  }

  /// The probes' private arena (see the file comment).
  [[nodiscard]] Workspace& probe_workspace() { return probe_ws_; }

  /// Dense probe: the logits with the parameters of top-level layer
  /// `first_changed` perturbed since the cache was clean, recomputing layers
  /// >= first_changed in the probe workspace (Sequential::probe_from). Probes
  /// are inference-only: train = true throws std::invalid_argument, because
  /// a train-mode BatchNorm would update its running statistics. Throws
  /// std::logic_error without a prior forward_cached. The reference is valid
  /// until the next probe or forward on this model.
  const Tensor& forward_from(usize first_changed, bool train = false);

  /// Channel-sparse probe: the logits with only output row `row` of
  /// top-level layer `layer` perturbed (Sequential::probe_row), byte-identical
  /// to forward_from(layer). Same contract and lifetime as forward_from.
  const Tensor& probe_row(usize layer, usize row);

  /// Marks cached activations beyond top-level layer `first_changed` stale
  /// after a parameter mutation (committed flips route through this via
  /// QuantizedModel so a later probe or refresh cannot read pre-flip state).
  void invalidate_from(usize first_changed) { net_.invalidate_from(first_changed); }

  /// Value-returning forward for callers that keep the logits.
  Tensor forward(const Tensor& x, bool train = false) { return forward_cached(x, train); }

  /// Backward pass from dL/dlogits: accumulates every parameter gradient.
  /// The gradient of the network input is never computed -- nothing reads
  /// it -- so backward stops at the lowest layer with parameters
  /// (Sequential::backward_params), as do loss_and_grad and
  /// loss_and_grad_incremental.
  void backward(const Tensor& dlogits) { net_.backward_params(dlogits, ws_); }

  /// All parameters in declaration order with hierarchical names.
  std::vector<ParamRef> params() { return net_.params(); }

  /// Only the BFA-targetable (quantizable) weight tensors.
  std::vector<ParamRef> quantizable_params();

  /// Zeroes every gradient buffer.
  void zero_grad();

  /// Complete value snapshot: all parameters plus persistent layer state
  /// (BatchNorm running statistics). Restoring reproduces inference exactly.
  [[nodiscard]] std::vector<Tensor> save_state();
  void load_state(const std::vector<Tensor>& snapshot);

  /// Total parameter count (all) and quantizable weight count.
  [[nodiscard]] usize param_count();
  [[nodiscard]] usize weight_count();

  /// Computes loss and accumulates gradients on a batch. Uses train=false
  /// statistics by default (the BFA computes gradients of the *inference*
  /// loss, i.e. with frozen BatchNorm statistics, per the threat model).
  /// The returned reference aliases model-owned scratch: read it before the
  /// next loss_and_grad call.
  const LossResult& loss_and_grad(const Tensor& x, const std::vector<u32>& labels,
                                  bool train_mode = false);

  /// Loss only, no gradients.
  double loss(const Tensor& x, const std::vector<u32>& labels);

  /// Loss and argmax accuracy from ONE forward pass -- the shared evaluation
  /// helper the attacks and the campaign harness use instead of separate
  /// loss()/accuracy() calls (which would forward twice).
  BatchEval evaluate_batch(const Tensor& x, const std::vector<u32>& labels);

  /// Per-class variant of evaluate_batch for a source->target pair (`source`
  /// may be kAllSources): one forward, per-class counts plus attack-success
  /// and other-class accuracy written into `out`. Overall loss/accuracy agree
  /// with evaluate_batch bit-for-bit.
  void evaluate_batch_per_class(const Tensor& x, const std::vector<u32>& labels,
                                u32 source, u32 target, PerClassEval& out);

  /// evaluate_batch that recomputes ONLY the layers whose parameters changed
  /// since the last forward (via the invalidate_from frontier) when the cache
  /// is reusable, and falls back to the full pass otherwise. Byte-identical
  /// to evaluate_batch in both cases.
  ///
  /// The cache is reusable when this model last forwarded the SAME batch
  /// object (`x.data()` and size match; keep the batch tensor alive and
  /// unmodified between calls) in eval mode, and every parameter mutation
  /// since went through invalidate_from -- true for all QuantizedModel
  /// mutators. The attack measurement loops (random / adaptive / white-box)
  /// ride this: after a flip burst, only the stale suffix re-runs.
  BatchEval evaluate_batch_incremental(const Tensor& x, const std::vector<u32>& labels);

  /// loss_and_grad with the same cache-reuse rule as
  /// evaluate_batch_incremental: when the last forward was the same batch in
  /// eval mode, only layers at/beyond the invalidation frontier re-forward
  /// before the (full) backward pass. Layer backward caches ahead of the
  /// frontier are still valid -- same input, same parameters -- so gradients
  /// are byte-identical to the full-forward path. The BFA step uses this to
  /// avoid re-running the clean prefix of the network every iteration.
  const LossResult& loss_and_grad_incremental(const Tensor& x, const std::vector<u32>& labels);

  /// The incremental-cache forward (same reuse rule as the helpers above),
  /// exposed for objectives beyond plain cross-entropy: callers compute their
  /// own loss/gradient from the returned logits and drive backward() with it
  /// (the T-BFA targeted objective does). The reference is valid until the
  /// next forward/backward on this model.
  const Tensor& forward_incremental_logits(const Tensor& x) { return forward_incremental(x); }

  /// Fraction of correct argmax predictions on (x, labels).
  double accuracy(const Tensor& x, const std::vector<u32>& labels);

 private:
  /// Cached logits when the last forward matches (same batch, eval mode),
  /// re-running only stale layers; a fresh full forward otherwise.
  const Tensor& forward_incremental(const Tensor& x);

  std::string name_;
  Sequential net_;
  Workspace ws_;
  Workspace probe_ws_;  ///< probes compute here; never the clean cache
  LossResult loss_scratch_;  ///< reused by loss_and_grad (zero-alloc steady state)
  // Identity of the last forwarded batch, for the incremental helpers:
  // pointer + size plus an edge-value fingerprint, so a batch refilled in
  // place (or a new tensor landing on the same allocation) falls back to the
  // full forward instead of silently reusing a stale cache.
  const float* last_input_ = nullptr;
  usize last_input_size_ = 0;
  float last_edge_[2] = {0.0f, 0.0f};
  bool last_train_ = false;
};

}  // namespace dnnd::nn
