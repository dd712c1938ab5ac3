#include "nn/model.hpp"

#include <cstring>
#include <stdexcept>

namespace dnnd::nn {

std::vector<ParamRef> Model::quantizable_params() {
  std::vector<ParamRef> out;
  for (auto& p : params()) {
    if (p.quantizable) out.push_back(p);
  }
  return out;
}

void Model::zero_grad() {
  for (auto& p : params()) p.grad->zero();
}

std::vector<Tensor> Model::save_state() {
  std::vector<Tensor> out;
  for (auto& p : params()) out.push_back(*p.value);
  for (Tensor* t : net_.state_tensors()) out.push_back(*t);
  return out;
}

void Model::load_state(const std::vector<Tensor>& snapshot) {
  usize i = 0;
  for (auto& p : params()) *p.value = snapshot.at(i++);
  for (Tensor* t : net_.state_tensors()) *t = snapshot.at(i++);
  // Every cached activation is stale now; incremental evaluation must not
  // reuse any of them.
  net_.invalidate_from(0);
}

usize Model::param_count() {
  usize n = 0;
  for (auto& p : params()) n += p.value->size();
  return n;
}

usize Model::weight_count() {
  usize n = 0;
  for (auto& p : quantizable_params()) n += p.value->size();
  return n;
}

const LossResult& Model::loss_and_grad(const Tensor& x, const std::vector<u32>& labels,
                                       bool train_mode) {
  const Tensor& logits = forward_cached(x, train_mode);
  softmax_cross_entropy_into(logits, labels, loss_scratch_);
  net_.backward_params(loss_scratch_.dlogits, ws_);
  return loss_scratch_;
}

const Tensor& Model::forward_incremental(const Tensor& x) {
  const bool reusable = net_.has_cache(ws_) && last_input_ == x.data() &&
                        last_input_size_ == x.size() && !last_train_ && x.size() > 0 &&
                        std::memcmp(&last_edge_[0], x.data(), sizeof(float)) == 0 &&
                        std::memcmp(&last_edge_[1], x.data() + x.size() - 1,
                                    sizeof(float)) == 0;
  if (!reusable) return forward_cached(x, /*train=*/false);
  // Same batch, eval mode: re-run only layers at/beyond the invalidation
  // frontier.
  return net_.refresh(net_.layer_count(), ws_);
}

const Tensor& Model::forward_from(usize first_changed, bool train) {
  if (train) throw std::invalid_argument("Model::forward_from: probes run in eval mode");
  return net_.probe_from(first_changed, ws_, probe_ws_);
}

const Tensor& Model::probe_row(usize layer, usize row) {
  return net_.probe_row(layer, row, ws_, probe_ws_);
}

const LossResult& Model::loss_and_grad_incremental(const Tensor& x,
                                                   const std::vector<u32>& labels) {
  const Tensor& logits = forward_incremental(x);
  softmax_cross_entropy_into(logits, labels, loss_scratch_);
  net_.backward_params(loss_scratch_.dlogits, ws_);
  return loss_scratch_;
}

double Model::loss(const Tensor& x, const std::vector<u32>& labels) {
  const Tensor& logits = forward_cached(x, /*train=*/false);
  return softmax_cross_entropy_loss(logits, labels);
}

BatchEval Model::evaluate_batch(const Tensor& x, const std::vector<u32>& labels) {
  const Tensor& logits = forward_cached(x, /*train=*/false);
  return evaluate_logits(logits, labels);
}

void Model::evaluate_batch_per_class(const Tensor& x, const std::vector<u32>& labels,
                                     u32 source, u32 target, PerClassEval& out) {
  const Tensor& logits = forward_cached(x, /*train=*/false);
  evaluate_logits_per_class(logits, labels, source, target, out);
}

BatchEval Model::evaluate_batch_incremental(const Tensor& x, const std::vector<u32>& labels) {
  return evaluate_logits(forward_incremental(x), labels);
}

double Model::accuracy(const Tensor& x, const std::vector<u32>& labels) {
  return evaluate_batch(x, labels).accuracy;
}

}  // namespace dnnd::nn
