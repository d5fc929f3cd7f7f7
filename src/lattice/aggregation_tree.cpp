#include "lattice/aggregation_tree.h"

#include <utility>

#include "common/error.h"

namespace cubist {

AggregationTree::AggregationTree(int n) : n_(n) {
  CUBIST_CHECK(n >= 1 && n <= kMaxDims, "dimension count out of range");
}

std::vector<DimSet> AggregationTree::children(DimSet view) const {
  CUBIST_CHECK(view.is_subset_of(root()), "view out of lattice");
  const DimSet removed = view.complement(n_);
  // A child drops one more position, which must exceed every position
  // already dropped (prefix-tree children only append larger elements).
  const int first = removed.empty() ? 0 : removed.max_dim() + 1;
  std::vector<DimSet> out;
  for (int j = first; j < n_; ++j) {
    CUBIST_DCHECK(view.contains(j), "positions above max(~V) are in V");
    out.push_back(view.without(j));
  }
  return out;
}

DimSet AggregationTree::parent(DimSet view) const {
  return view.with(aggregated_dim(view));
}

int AggregationTree::aggregated_dim(DimSet view) const {
  CUBIST_CHECK(view != root(), "root has no parent");
  CUBIST_CHECK(view.is_subset_of(root()), "view out of lattice");
  return view.complement(n_).max_dim();
}

std::vector<ScheduleEvent> AggregationTree::schedule() const {
  struct Recorder {
    std::vector<ScheduleEvent> events;
    void scan(DimSet view, const std::vector<DimSet>& /*children*/) {
      events.push_back({ScheduleEvent::Kind::kComputeChildren, view});
    }
    bool finalize(DimSet /*view*/, DimSet /*child*/) { return true; }
    void retire(DimSet view, bool /*keep*/) {
      events.push_back({ScheduleEvent::Kind::kWriteBack, view});
    }
  } recorder;
  walk_tree(*this, root(), recorder);
  return std::move(recorder.events);
}

std::vector<DimSet> AggregationTree::completion_order() const {
  std::vector<DimSet> order;
  for (const ScheduleEvent& event : schedule()) {
    if (event.kind == ScheduleEvent::Kind::kWriteBack) {
      order.push_back(event.view);
    }
  }
  return order;
}

}  // namespace cubist
