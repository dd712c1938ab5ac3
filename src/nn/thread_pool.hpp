// ThreadPool: the process-wide worker pool behind the parallel GEMM.
//
// The pool runs "team regions": parallel(teams, body) invokes body(slot,
// teams) once for every slot in [0, teams). Slot 0 always runs on the calling
// thread; the remaining slots are offered to the pool's workers, and any slot
// no worker has claimed by the time the caller finishes its own share is
// executed by the caller itself (caller work-stealing). A region therefore
// always completes, even when every worker is busy with someone else's region
// -- which is exactly what happens when several CampaignRunner scenario
// threads hit the GEMM at once -- and can never deadlock.
//
// Determinism contract: the partition of work across slots is STATIC (the
// body derives its range from `slot`/`teams` alone), so which thread executes
// a slot can never change any output byte. Nested regions degrade to serial
// execution of the body on the calling thread (in_region() is thread-local),
// keeping per-slot scratch buffers exclusive to one running body at a time --
// e.g. the GEMM of one Conv2d sample, which runs serially inside the
// batch-parallel region when the batch is split and as its own region when
// it is not.
//
// Workers are spawned lazily up to the largest team ever requested minus one
// and live for the process lifetime. The pool allocates nothing per region
// on the steady-state path (the region descriptor lives on the caller's
// stack); the Workspace zero-allocation invariant extends over threaded
// forwards.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "sys/types.hpp"

namespace dnnd::nn {

class ThreadPool {
 public:
  /// The process-wide pool (lazily constructed, joined at exit).
  static ThreadPool& instance();

  /// Runs body(slot, teams) for every slot in [0, teams), blocking until all
  /// slots finished. teams <= 1 -- or a call from inside another region --
  /// runs body(0, 1) inline. The callable is passed by reference (it outlives
  /// the call by construction), so no closure is copied or heap-allocated.
  /// If any slot's body throws, the region still completes every slot and the
  /// first exception is rethrown on the calling thread.
  template <typename F>
  void parallel(usize teams, F&& body) {
    using Body = std::remove_reference_t<F>;
    void* ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
    parallel_impl(teams, ctx, [](void* c, usize slot, usize t) {
      (*static_cast<Body*>(c))(slot, t);
    });
  }

  /// True while the current thread is executing a region body (worker or
  /// participating caller). Parallel entry points use this to degrade nested
  /// parallelism to serial execution.
  [[nodiscard]] static bool in_region();

  /// Pre-spawns workers until `n` exist. A region only ensures its own
  /// team's worth (teams - 1); callers that fan out CONCURRENT regions --
  /// the campaign runs scenario_workers x (team - 1) pool slots at once --
  /// reserve the aggregate here so the regions don't contend for a
  /// single region's worker count.
  void reserve_workers(usize n);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool() = default;

  using BodyFn = void (*)(void* ctx, usize slot, usize teams);

  /// One parallel region; lives on the caller's stack for its duration (the
  /// caller does not return before every slot -- and thus every reference to
  /// the region -- has finished).
  struct Region {
    void* ctx = nullptr;
    BodyFn body = nullptr;
    usize teams = 0;
    usize next_slot = 1;  ///< slots 1..teams-1 claimable; 0 is the caller's
    usize done = 0;
    std::exception_ptr error;  ///< first body exception; rethrown by the caller
    std::mutex m;
    std::condition_variable cv;
  };

  void parallel_impl(usize teams, void* ctx, BodyFn body);
  /// Claims the next unclaimed slot of `r`, or returns teams when exhausted.
  static usize claim_slot(Region& r);
  static void run_slot(Region& r, usize slot);
  void ensure_workers(usize n);
  void worker_loop();

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Region*> queue_;  ///< regions with unclaimed slots
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace dnnd::nn
