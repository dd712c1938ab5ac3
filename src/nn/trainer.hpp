// Mini-batch SGD training loop and batched evaluation.
#pragma once

#include "nn/dataset.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace dnnd::nn {

struct TrainConfig {
  usize epochs = 8;
  usize batch_size = 32;
  SgdConfig sgd{};
  double lr_decay = 0.5;      ///< multiply lr by this ...
  usize decay_every = 3;      ///< ... every this many epochs
  u64 shuffle_seed = 7;
};

struct TrainReport {
  std::vector<double> epoch_loss;
  double test_accuracy = 0.0;
};

/// Trains `model` on `data.train`, reports the per-epoch loss and the final
/// test accuracy (evaluated last, so the model's cache ends on the test split).
TrainReport train(Model& model, const SplitDataset& data, const TrainConfig& cfg);

/// Batched accuracy over a dataset (bounds activation memory).
double evaluate(Model& model, const Dataset& data, usize batch_size = 128);

}  // namespace dnnd::nn
