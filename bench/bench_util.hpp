// Shared helpers for the benchmark harness binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sys/table.hpp"

namespace dnnd::bench {

/// True when DNND_BENCH_SCALE=small is set: every harness shrinks its sweep
/// for quick iteration. Default (unset/full) reproduces the full series.
inline bool small_scale() {
  const char* v = std::getenv("DNND_BENCH_SCALE");
  return v != nullptr && std::string(v) == "small";
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dnnd::bench
