#include "nn/workspace.hpp"

namespace dnnd::nn {

Tensor& Workspace::slot(const void* owner, SlotKind kind, usize idx) {
  const Key key{owner, static_cast<u32>(kind), static_cast<u64>(idx)};
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    it = slots_.emplace(key, Tensor{}).first;
    alloc_events_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

void Workspace::reserve_team(usize teams) {
  if (planes_.size() < teams) {
    planes_.resize(teams);
    alloc_events_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace dnnd::nn
