#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>

namespace dnnd::nn {

TrainReport train(Model& model, const SplitDataset& data, const TrainConfig& cfg) {
  SgdOptimizer opt(model, cfg.sgd);
  sys::Rng rng(cfg.shuffle_seed);
  const usize n = data.train.size();
  std::vector<usize> order(n);
  std::iota(order.begin(), order.end(), usize{0});

  TrainReport report;
  for (usize epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (epoch > 0 && cfg.decay_every > 0 && epoch % cfg.decay_every == 0) {
      opt.set_lr(opt.lr() * cfg.lr_decay);
    }
    rng.shuffle(order);
    double epoch_loss = 0.0;
    usize batches = 0;
    for (usize start = 0; start + cfg.batch_size <= n; start += cfg.batch_size) {
      std::vector<usize> idx(order.begin() + static_cast<isize>(start),
                             order.begin() + static_cast<isize>(start + cfg.batch_size));
      auto [x, y] = data.train.gather(idx);
      model.zero_grad();
      const LossResult& res = model.loss_and_grad(x, y, /*train_mode=*/true);
      opt.step();
      epoch_loss += res.loss;
      ++batches;
    }
    epoch_loss /= static_cast<double>(batches == 0 ? 1 : batches);
    report.epoch_loss.push_back(epoch_loss);
  }
  report.test_accuracy = evaluate(model, data.test);
  return report;
}

double evaluate(Model& model, const Dataset& data, usize batch_size) {
  const usize n = data.size();
  usize hits = 0;
  for (usize start = 0; start < n; start += batch_size) {
    const usize count = std::min(batch_size, n - start);
    std::vector<usize> idx(count);
    std::iota(idx.begin(), idx.end(), start);
    auto [x, y] = data.gather(idx);
    hits += model.evaluate_batch(x, y).correct;
  }
  return static_cast<double>(hits) / static_cast<double>(n == 0 ? 1 : n);
}

}  // namespace dnnd::nn
