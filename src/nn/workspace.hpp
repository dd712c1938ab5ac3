// Workspace: a scratch arena for the inference engine. Each Model owns two:
// the clean one, holding the activation cache that backward reads, and a
// probe workspace, in which the BFA probes compute.
//
// The engine's hot paths (Sequential::forward_cached / refresh / the probes /
// backward_cached and the GEMM lowering of Dense/Conv2d) never allocate their
// own tensors. Instead every piece of scratch -- per-layer activations, the
// Conv2d planes and offset tables, the GEMM pack panel, gradient
// intermediates, composite layer temporaries -- lives in the model's
// Workspace and is reused across iterations. Slots are keyed by (owner
// pointer, kind, index), created lazily on first use, and retain their
// storage forever after, so the steady state (same shapes, same workspace)
// performs zero heap allocations.
//
// The workspace is also the whole of a network's forward state. Layers keep
// no copy of what a forward saw: backward reads each layer's input and
// output from the activation slots (kActivation, keyed by the enclosing
// Sequential) and per-layer leftovers such as BatchNorm's batch statistics
// from kScratch slots keyed by the layer. A forward into one workspace
// therefore never disturbs a backward pending in another -- which is what
// lets a probe run in the probe workspace, under the same slot keys, while
// the clean cache stays byte for byte as the last forward left it. A
// channel-sparse probe adds its one-channel activations there as kScratch
// slots keyed by the Sequential.
//
// Threaded passes extend the arena with per-team-slot planes buffers:
// reserve_team(teams) (serial, before entering a pool region) sizes the
// buffer table, after which each team slot grows and reuses only its own
// buffer -- the steady state stays zero-allocation at any fixed team size.
// The complementary pattern is SHARED buffers (Conv2d's offset tables, the
// whole-batch planes its weight gradient reads, the small transposed
// operands), fully sized before the region (grow() is not safe inside one):
// team slots only read them or write disjoint ranges.
//
// `alloc_events()` counts arena growth (new slots, buffer grows); a constant
// count across iterations is the observable zero-allocation invariant that
// tests/test_inference_engine.cpp pins down.
#pragma once

#include <atomic>
#include <unordered_map>
#include <vector>

#include "nn/tensor.hpp"

namespace dnnd::nn {

class Workspace {
 public:
  /// Separate key spaces so one owner can hold activations, gradients, and
  /// scratch under the same indices without collisions.
  enum class SlotKind : u32 { kActivation = 0, kGradient = 1, kScratch = 2 };

  Workspace() : planes_(1) {}

  /// The (lazily created) tensor slot for (owner, kind, idx). References stay
  /// valid for the workspace lifetime (node-based map). NOT safe to call from
  /// inside a pool region.
  Tensor& slot(const void* owner, SlotKind kind, usize idx);

  /// Pre-sizes the per-team-slot buffer table so planes_buffer can be
  /// called concurrently with team_slot < teams. Must run OUTSIDE any pool
  /// region (growing the table is not thread-safe; growing one slot's buffer
  /// from its own thread is).
  void reserve_team(usize teams);

  /// Conv2d's zero-bordered planes (a sample's input planes in the
  /// forward, its spread dy planes in the input gradient, the batch's
  /// planes and accumulators in the one-row probe kernel), at least `n`
  /// floats for one team slot; grows monotonically. Distinct team slots own
  /// distinct buffers.
  float* planes_buffer(usize n, usize team_slot = 0) { return grow(planes_[team_slot], n); }

  /// GEMM panel-pack buffer of at least `n` floats. Serial use only.
  float* pack_buffer(usize n) { return grow(pack_, n); }

  /// Conv2d backward's zero-bordered input planes of the whole batch (the
  /// weight-gradient GEMM's A operand). Shared, sized outside pool regions;
  /// team slots fill disjoint sample ranges.
  float* batch_planes_buffer(usize n) { return grow(batch_planes_, n); }

  /// Conv2d's GEMM offset tables (row and k offsets into its planes).
  /// Shared, filled serially before a pool region, only read inside one.
  u32* offset_buffer(usize n) { return grow(offsets_, n); }

  /// Small transposed operands of the backward GEMMs (Dense's dy^T,
  /// Conv2d's tap-flipped weight). Shared, serial use only.
  float* transpose_buffer(usize n) { return grow(transpose_, n); }

  /// Arena growth events so far (slot creations and buffer grows). Constant
  /// across steady-state iterations == no new arena structures. Pair with
  /// slot_capacity() -- which sees reallocation of the slot tensors'
  /// storage -- for the full zero-allocation invariant.
  [[nodiscard]] usize alloc_events() const {
    return alloc_events_.load(std::memory_order_relaxed);
  }

  /// Total allocated entries across slot tensors and the scratch buffers.
  [[nodiscard]] usize slot_capacity() const {
    usize total = 0;
    for (const auto& b : planes_) total += b.capacity();
    total += pack_.capacity() + batch_planes_.capacity() + transpose_.capacity();
    total += offsets_.capacity();  // u32 entries, counted like floats
    for (const auto& [key, t] : slots_) total += t.capacity();
    return total;
  }

 private:
  struct Key {
    const void* owner;
    u32 kind;
    u64 idx;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    usize operator()(const Key& k) const {
      u64 h = reinterpret_cast<u64>(k.owner);
      h = (h ^ (static_cast<u64>(k.kind) << 56) ^ k.idx) * 0x9e3779b97f4a7c15ULL;
      return static_cast<usize>(h ^ (h >> 32));
    }
  };

  template <typename T>
  T* grow(std::vector<T>& buf, usize n) {
    if (buf.size() < n) {
      buf.resize(n);
      alloc_events_.fetch_add(1, std::memory_order_relaxed);
    }
    return buf.data();
  }

  std::unordered_map<Key, Tensor, KeyHash> slots_;
  std::vector<std::vector<float>> planes_;  ///< indexed by team slot
  std::vector<float> pack_;
  std::vector<float> batch_planes_;
  std::vector<float> transpose_;
  std::vector<u32> offsets_;
  std::atomic<usize> alloc_events_{0};
};

}  // namespace dnnd::nn
