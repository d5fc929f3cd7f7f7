#include "lattice/memory_sim.h"

#include "array/shape.h"
#include "common/error.h"
#include "common/mathutil.h"

namespace cubist {

std::int64_t sequential_memory_bound(const CubeLattice& lattice) {
  std::int64_t cells = 0;
  for (int i = 0; i < lattice.ndims(); ++i) {
    cells += product_excluding(lattice.sizes(), i);
  }
  return cells * static_cast<std::int64_t>(sizeof(Value));
}

std::int64_t parallel_memory_bound(const CubeLattice& lattice,
                                   const std::vector<int>& log_splits) {
  CUBIST_CHECK(static_cast<int>(log_splits.size()) == lattice.ndims(),
               "split rank mismatch");
  std::vector<std::int64_t> local(lattice.sizes());
  for (int d = 0; d < lattice.ndims(); ++d) {
    CUBIST_CHECK(log_splits[d] >= 0, "negative split exponent");
    local[d] = ceil_div(local[d], static_cast<std::int64_t>(pow2(log_splits[d])));
  }
  CubeLattice local_lattice(local);
  return sequential_memory_bound(local_lattice);
}

std::int64_t certify_selection_bytes(const CubeLattice& lattice,
                                     const std::vector<DimSet>& views,
                                     std::int64_t budget_bytes) {
  CUBIST_CHECK(budget_bytes >= 0, "budget must be non-negative");
  const DimSet root = DimSet::full(lattice.ndims());
  MemoryLedger ledger;
  for (DimSet view : views) {
    CUBIST_CHECK(view.is_subset_of(root), "selected view out of lattice");
    CUBIST_CHECK(view != root, "the root is the input; do not select it");
    ledger.alloc(lattice.view_cells(view) *
                 static_cast<std::int64_t>(sizeof(Value)));
  }
  CUBIST_CHECK(ledger.peak_bytes() <= budget_bytes,
               "selection needs " << ledger.peak_bytes()
                                  << " resident bytes, over the budget of "
                                  << budget_bytes);
  return ledger.peak_bytes();
}

}  // namespace cubist
