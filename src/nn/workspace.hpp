// Workspace: a scratch arena for the inference engine. Each Model owns two:
// the clean one, holding the activation cache that backward reads, and a
// probe workspace, in which the BFA probes compute.
//
// The engine's hot paths (Sequential::forward_cached / refresh / the probes /
// backward_cached and the GEMM lowering of Dense/Conv2d) never allocate their
// own tensors. Instead every piece of scratch -- per-layer activations, the
// Conv2d patch buffer, the GEMM pack panel, gradient intermediates, composite
// layer temporaries -- lives in the model's Workspace and is reused across
// iterations. Slots are keyed by (owner pointer, kind, index), created lazily
// on first use, and retain their storage forever after, so the steady state
// (same shapes, same workspace) performs zero heap allocations.
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
// Threaded passes extend the arena with per-team-slot col/pack buffers:
// reserve_team(teams) (serial, before entering a pool region) sizes the
// buffer tables, after which each team slot grows and reuses only its own
// buffer -- the steady state stays zero-allocation at any fixed team size.
// The backward lowerings add the complementary pattern: SHARED buffers (the
// whole-batch tap gather and the small transposed operands), fully sized
// before the region (grow() is not safe inside one), into which team slots
// write disjoint ranges.
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

  Workspace() : col_(1), pack_(1) {}

  /// The (lazily created) tensor slot for (owner, kind, idx). References stay
  /// valid for the workspace lifetime (node-based map). NOT safe to call from
  /// inside a pool region.
  Tensor& slot(const void* owner, SlotKind kind, usize idx);

  /// Pre-sizes the per-team-slot buffer tables so col_buffer/pack_buffer can
  /// be called concurrently with team_slot < teams. Must run OUTSIDE any pool
  /// region (growing the tables is not thread-safe; growing one slot's buffer
  /// from its own thread is).
  void reserve_team(usize teams);

  /// Conv2d patch buffer of at least `n` floats for one team slot (the
  /// padded planes and the gathered patches); grows monotonically. Distinct
  /// team slots own distinct buffers.
  float* col_buffer(usize n, usize team_slot = 0) { return grow(col_[team_slot], n); }

  /// GEMM panel-pack buffer of at least `n` floats; distinct from the col
  /// buffer because both are live during a lowered convolution.
  float* pack_buffer(usize n, usize team_slot = 0) { return grow(pack_[team_slot], n); }

  /// Conv2d backward's tap-major gather of the whole batch's input patches
  /// (the dweight GEMM's A operand). Shared, sized outside pool regions;
  /// team slots may fill disjoint column ranges.
  float* taps_buffer(usize n) { return grow(taps_, n); }

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

  /// Total allocated floats across slot tensors and the scratch buffers.
  [[nodiscard]] usize slot_capacity() const {
    usize total = 0;
    for (const auto& b : col_) total += b.capacity();
    for (const auto& b : pack_) total += b.capacity();
    total += taps_.capacity() + transpose_.capacity();
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

  float* grow(std::vector<float>& buf, usize n) {
    if (buf.size() < n) {
      buf.resize(n);
      alloc_events_.fetch_add(1, std::memory_order_relaxed);
    }
    return buf.data();
  }

  std::unordered_map<Key, Tensor, KeyHash> slots_;
  std::vector<std::vector<float>> col_;   ///< indexed by team slot
  std::vector<std::vector<float>> pack_;  ///< indexed by team slot
  std::vector<float> taps_;
  std::vector<float> transpose_;
  std::atomic<usize> alloc_events_{0};
};

}  // namespace dnnd::nn
