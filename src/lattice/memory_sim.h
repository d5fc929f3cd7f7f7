// Live-memory accounting and the paper's memory bounds (Theorems 1/2/4/5).
//
// `MemoryLedger` is the shared accounting primitive: builders feed it real
// allocations and write-backs, and the schedule verifier feeds it each
// rank's planned ones (analysis/comm_plan.h), so the Figure-3 walk's peak
// is predicted before anything is allocated.
#pragma once

#include <cstdint>
#include <vector>

#include "common/dimset.h"
#include "lattice/cube_lattice.h"

namespace cubist {

/// Tracks currently-live bytes and their high-water mark.
class MemoryLedger {
 public:
  void alloc(std::int64_t bytes) {
    live_ += bytes;
    if (live_ > peak_) peak_ = live_;
  }
  void release(std::int64_t bytes) { live_ -= bytes; }

  std::int64_t live_bytes() const { return live_; }
  std::int64_t peak_bytes() const { return peak_; }

 private:
  std::int64_t live_ = 0;
  std::int64_t peak_ = 0;
};

/// Theorem 1 / Theorem 2: the tight bound on live result memory,
///   sum_i prod_{j != i} D_j cells,
/// i.e. the sum of the sizes of the root's n children. Returned in bytes
/// (sizeof(Value) per cell, as every bound here).
std::int64_t sequential_memory_bound(const CubeLattice& lattice);

/// Theorem 4 / Theorem 5: the per-processor bound when dimension j is
/// split 2^{k_j} ways: sum_i prod_{j != i} ceil(D_j / 2^{k_j}) in bytes.
std::int64_t parallel_memory_bound(const CubeLattice& lattice,
                                   const std::vector<int>& log_splits);

/// Certifies a view selection against a byte budget by replaying its
/// materialization through a MemoryLedger: every selected view is
/// allocated and stays resident (that is how a serving PartialCube holds
/// them), so the ledger peak is the selection's resident footprint.
/// Returns the certified peak; throws InvalidArgument when it exceeds
/// `budget_bytes` — a re-plan must never swap in an uncertified set.
std::int64_t certify_selection_bytes(const CubeLattice& lattice,
                                     const std::vector<DimSet>& views,
                                     std::int64_t budget_bytes);

}  // namespace cubist
