// Shared helpers for the cubist test suite.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "array/aggregate_op.h"
#include "array/block.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "common/dimset.h"
#include "common/rng.h"
#include "minimpi/event_trace.h"

namespace cubist::testing {

/// Dense array with the given extents, filled with small random integers
/// (0..9, zero with probability 1 - density). Deterministic in `seed`.
inline DenseArray random_dense(const std::vector<std::int64_t>& extents,
                               double density, std::uint64_t seed) {
  DenseArray array{Shape{extents}};
  Xoshiro256ss rng(seed);
  for (std::int64_t i = 0; i < array.size(); ++i) {
    if (rng.next_double() < density) {
      array[i] = static_cast<Value>(1 + rng.next_below(9));
    }
  }
  return array;
}

/// The plain loop behind input_order_scan: combines each non-empty cell
/// `for_each_cell` visits inside `region` into its cell of the child that
/// drops the positions in `dropped`, counted from the region's low corner.
template <typename ForEachCell>
DenseArray input_order_loop(const BlockRange& region, DimSet dropped,
                            AggregateOp op, bool input_level,
                            const ForEachCell& for_each_cell) {
  std::vector<std::int64_t> extents;
  for (int d = 0; d < region.ndim(); ++d) {
    if (!dropped.contains(d)) extents.push_back(region.extent(d));
  }
  DenseArray out{Shape{extents}, identity_of(op)};
  const Value empty = input_level ? Value{0} : identity_of(op);
  std::vector<std::int64_t> at;
  for_each_cell([&](const std::int64_t* index, Value cell) {
    if (cell == empty || !region.contains(index)) return;
    at.clear();
    for (int d = 0; d < region.ndim(); ++d) {
      if (!dropped.contains(d)) at.push_back(index[d] - region.lo(d));
    }
    combine(op, out.at(at), input_level ? contribution_of(op, cell) : cell);
  });
  return out;
}

/// Reference of one scan, sharing no code with the kernels: `region` of
/// `parent` aggregated under `op` over the positions in `dropped`, each
/// child cell combining its contributions in the parent's row-major order
/// from the operator's identity, unfinalized like a kernel's child. Raw
/// input (`input_level`) marks empty cells with 0 and contributes
/// contribution_of(op, cell); a live view marks them with the identity and
/// contributes the cell itself.
inline DenseArray input_order_scan(const DenseArray& parent,
                                   const BlockRange& region, DimSet dropped,
                                   AggregateOp op = AggregateOp::kSum,
                                   bool input_level = true) {
  return input_order_loop(region, dropped, op, input_level, [&](auto visit) {
    std::vector<std::int64_t> index(static_cast<std::size_t>(parent.ndim()));
    for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
      parent.shape().unravel(linear, index.data());
      visit(index.data(), parent[linear]);
    }
  });
}

/// The same over a sparse parent's non-zeros, in for_each_nonzero's chunk
/// order.
inline DenseArray input_order_scan(const SparseArray& parent,
                                   const BlockRange& region, DimSet dropped,
                                   AggregateOp op = AggregateOp::kSum) {
  return input_order_loop(region, dropped, op, /*input_level=*/true,
                          [&](auto visit) { parent.for_each_nonzero(visit); });
}

/// Reference: aggregate `parent` along `pos` under `op` with the plain
/// loop, finalized as the builders finalize their views.
inline DenseArray brute_force_op(const DenseArray& parent, int pos,
                                 AggregateOp op, bool input_level = true) {
  DenseArray out =
      input_order_scan(parent, BlockRange::whole(parent.shape()),
                       DimSet::single(pos), op, input_level);
  finalize_view(op, out);
  return out;
}

/// Dense array like random_dense, but each non-zero is a non-integer of
/// either sign with a magnitude between 2^-12 and 2^12: sums of such
/// values round differently when their order changes.
inline DenseArray fractional_dense(const std::vector<std::int64_t>& extents,
                                   double density, std::uint64_t seed) {
  DenseArray array{Shape{extents}};
  Xoshiro256ss rng(seed);
  for (std::int64_t i = 0; i < array.size(); ++i) {
    if (rng.next_double() < density) {
      const Value magnitude =
          std::ldexp(1.0 + rng.next_double(),
                     static_cast<int>(rng.next_below(25)) - 12);
      array[i] = rng.next_below(2) == 0 ? magnitude : -magnitude;
    }
  }
  return array;
}

/// Dense array whose cell values equal their linear index + 1 (handy for
/// checking exact placements).
inline DenseArray iota_dense(const std::vector<std::int64_t>& extents) {
  DenseArray array{Shape{extents}};
  for (std::int64_t i = 0; i < array.size(); ++i) {
    array[i] = static_cast<Value>(i + 1);
  }
  return array;
}

/// The first difference between two sparse arrays, compared chunk for
/// chunk (shape, chunking, every chunk's offsets and decoded values, nnz);
/// empty when they hold the same cells, in either form.
inline std::string chunk_difference(const SparseArray& a,
                                    const SparseArray& b) {
  std::ostringstream out;
  if (a.shape() != b.shape() || a.chunk_extents() != b.chunk_extents()) {
    out << "shapes or chunkings differ: " << a.shape().to_string() << " vs "
        << b.shape().to_string();
  } else if (a.nnz() != b.nnz()) {
    out << "nnz " << a.nnz() << " vs " << b.nnz();
  } else {
    for (std::int64_t c = 0; c < a.num_chunks(); ++c) {
      // Decoded positions and values: chunks of the same cells are equal
      // whichever forms they keep.
      const std::vector<SparseArray::Offset> ao =
          a.chunk_positions(c).to_vector();
      const std::vector<SparseArray::Offset> bo =
          b.chunk_positions(c).to_vector();
      const std::vector<Value> av = a.chunk_values(c).to_vector();
      const std::vector<Value> bv = b.chunk_values(c).to_vector();
      if (ao != bo || av != bv) {
        out << "chunk " << c << " differs (" << ao.size() << " vs "
            << bo.size() << " entries)";
        break;
      }
    }
  }
  return out.str();
}

/// Events of `kind` in `trace`, over every rank.
inline std::int64_t count_kind(const EventTrace& trace, TraceEventKind kind) {
  std::int64_t count = 0;
  for (const std::vector<TraceEvent>& events : trace.ranks) {
    count += std::count_if(
        events.begin(), events.end(),
        [kind](const TraceEvent& e) { return e.kind == kind; });
  }
  return count;
}

/// Sets the wire bytes of `send`, an event of `trace`, and of the receive
/// that consumed it: the send shipped `wire` bytes, and the record stays
/// consistent on both ends.
inline void set_wire(EventTrace& trace, TraceEvent& send, std::int64_t wire) {
  for (std::size_t rank = 0; rank < trace.ranks.size(); ++rank) {
    const std::vector<TraceEvent>& events = trace.ranks[rank];
    for (std::size_t index = 0; index < events.size(); ++index) {
      if (&events[index] != &send) continue;
      for (std::vector<TraceEvent>& receiver : trace.ranks) {
        for (TraceEvent& e : receiver) {
          if (e.kind == TraceEventKind::kRecv &&
              e.peer == static_cast<int>(rank) && e.match_seq == index) {
            e.wire = wire;
          }
        }
      }
    }
  }
  send.wire = wire;
}

}  // namespace cubist::testing
