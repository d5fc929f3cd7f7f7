// quickstart — the smallest end-to-end tour of cubist.
//
// Builds the full data cube of a tiny 3-D sales array (item x branch x
// time, the paper's motivating example), prints the aggregation tree it
// used, every materialized view, and the memory-bound bookkeeping from
// Theorem 1.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "cubist/cubist.h"

namespace {

using namespace cubist;

void print_tree(const AggregationTree& tree, DimSet view, int depth) {
  std::printf("%*s%s\n", 2 * depth, "", view.to_letters().c_str());
  for (DimSet child : tree.children(view)) {
    print_tree(tree, child, depth + 1);
  }
}

}  // namespace

int main() {
  // A 4 x 3 x 2 sales array: 4 items, 3 branches, 2 time periods.
  // Dimensions are ordered by non-increasing size — the instantiation the
  // paper proves optimal (Theorems 6 and 7).
  const std::vector<std::int64_t> sizes{4, 3, 2};
  DenseArray sales{Shape{sizes}};
  for (std::int64_t item = 0; item < 4; ++item) {
    for (std::int64_t branch = 0; branch < 3; ++branch) {
      for (std::int64_t period = 0; period < 2; ++period) {
        sales.at({item, branch, period}) =
            static_cast<Value>(10 * (item + 1) + 3 * branch + period);
      }
    }
  }

  std::printf("input: %s sales array (A=item, B=branch, C=time)\n\n",
              sales.shape().to_string().c_str());

  std::printf("aggregation tree (right-to-left depth-first traversal):\n");
  const AggregationTree tree(3);
  print_tree(tree, tree.root(), 0);

  std::printf("\nwrite-back (completion) order: ");
  for (DimSet view : tree.completion_order()) {
    std::printf("%s ", view.to_letters().c_str());
  }
  std::printf("\n\n");

  BuildStats stats;
  const CubeResult cube = build_cube_sequential(sales, &stats);

  std::printf("built %zu views; peak live memory %lld B (Theorem-1 bound "
              "%lld B), %lld cells scanned\n\n",
              cube.num_views(), static_cast<long long>(stats.peak_live_bytes),
              static_cast<long long>(
                  sequential_memory_bound(CubeLattice(sizes))),
              static_cast<long long>(stats.cells_scanned));

  // Walk every view and print it.
  for (DimSet view : cube.stored_views()) {
    const DenseArray& array = cube.view(view);
    std::printf("view %-3s (%s): ", view.to_letters().c_str(),
                array.shape().to_string().c_str());
    for (std::int64_t i = 0; i < array.size(); ++i) {
      std::printf("%g ", array[i]);
    }
    std::printf("\n");
  }

  // Example group-by lookups, paper-§2 style.
  std::printf("\nsales of item 2 across all branches and periods: %g\n",
              cube.query(DimSet::of({0}), {2}));
  std::printf("sales at branch 1 in period 0:                    %g\n",
              cube.query(DimSet::of({1, 2}), {1, 0}));
  std::printf("total sales (`all`):                              %g\n",
              cube.query(DimSet(), {}));
  return 0;
}
