// partition_planner — the paper's §5 machinery as a planning tool.
//
// Given dimension sizes and a processor count, prints: the optimal
// dimension ordering (Theorems 6/7), every way to partition the array
// over 2^k processors with its Theorem-3 communication volume, the
// Figure-6 greedy choice, and the Theorem-4 per-processor memory bound.
//
//   $ ./examples/partition_planner --sizes=1024x256x64x16 --log-p=4
#include <cstdio>
#include <sstream>

#include "common/args.h"
#include "cubist/cubist.h"

using namespace cubist;

namespace {

std::vector<std::int64_t> parse_sizes(const std::string& text) {
  std::vector<std::int64_t> sizes;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, 'x')) {
    sizes.push_back(std::stoll(token));
  }
  CUBIST_CHECK(!sizes.empty(), "could not parse --sizes");
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("partition_planner",
                 "plan the optimal processor grid for cube construction");
  const auto* sizes_text =
      args.add_string("sizes", "1024x256x64x16", "extents, e.g. 64x64x32");
  const auto* log_p = args.add_int("log-p", 4, "log2 of processor count");
  const auto* show_all = args.add_bool("all", true,
                                       "list every candidate grid");
  if (!args.parse(argc, argv)) return 1;

  std::vector<std::int64_t> sizes = parse_sizes(*sizes_text);

  // Step 1: ordering (Theorems 6/7).
  const std::vector<int> perm = descending_permutation(sizes);
  const std::vector<std::int64_t> ordered = apply_permutation(sizes, perm);
  if (!is_minimal_parent_ordering(sizes)) {
    std::printf("note: input sizes are not non-increasing; reordering to "
                "%s (Theorems 6/7: this ordering simultaneously minimizes "
                "communication volume and computes every view from its "
                "minimal parent).\n\n",
                Shape{ordered}.to_string().c_str());
  }

  const int n = static_cast<int>(ordered.size());
  const auto p = static_cast<int>(pow2(static_cast<int>(*log_p)));
  std::printf("cube:  %s   processors: %d\n\n",
              Shape{ordered}.to_string().c_str(), p);

  // Step 2: per-dimension weights (the restated Theorem 3).
  std::printf("dimension weights w_m = prod_{j<m}(1+D_j) * prod_{j>m} D_j:\n");
  for (int m = 0; m < n; ++m) {
    std::printf("  dim %d (size %5lld): w = %s\n", m,
                static_cast<long long>(ordered[m]),
                TextTable::with_thousands(dimension_weight(ordered, m)).c_str());
  }

  // Step 3: candidate grids.
  const std::vector<int> greedy =
      greedy_partition(ordered, static_cast<int>(*log_p));
  if (*show_all) {
    TextTable table;
    table.header({"grid", "volume (elements)", "vs best", "note"});
    const std::int64_t best =
        total_volume_elements(ordered, greedy);
    for (const auto& splits :
         enumerate_partitions(n, static_cast<int>(*log_p))) {
      const std::int64_t volume = total_volume_elements(ordered, splits);
      std::string note;
      if (splits == greedy) note = "<- greedy (Fig. 6)";
      table.row({ProcGrid(splits).to_string(),
                 TextTable::with_thousands(volume),
                 TextTable::fixed(static_cast<double>(volume) /
                                      static_cast<double>(best),
                                  2) +
                     "x",
                 note});
    }
    std::printf("\nall %zu candidate grids (Theorem 3 volume):\n%s",
                enumerate_partitions(n, static_cast<int>(*log_p)).size(),
                table.render().c_str());
  }

  // Step 4: the plan.
  std::printf("\nchosen grid: %s  (volume %s elements, %s bytes)\n",
              ProcGrid(greedy).to_string().c_str(),
              TextTable::with_thousands(
                  total_volume_elements(ordered, greedy))
                  .c_str(),
              TextTable::with_thousands(
                  total_volume_elements(ordered, greedy) *
                  static_cast<std::int64_t>(sizeof(Value)))
                  .c_str());
  std::printf("per-processor result-memory bound (Theorem 4): %s bytes\n",
              TextTable::with_thousands(parallel_memory_bound(
                  CubeLattice(ordered), greedy))
                  .c_str());
  return 0;
}
