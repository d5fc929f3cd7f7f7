// DenseArray: contiguous row-major n-dimensional array of Values.
//
// All aggregated views in cube construction are dense (paper §6: after
// aggregating along a dimension, zero probability drops sharply), so this is
// the workhorse container for every node of the cube except possibly the
// root input.
#pragma once

#include <algorithm>
#include <vector>

#include "array/shape.h"

namespace cubist {

class DenseArray {
 public:
  DenseArray() = default;

  /// Array of the given shape with every cell set to `fill`.
  explicit DenseArray(Shape shape, Value fill = Value{0})
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.size()), fill) {}

  const Shape& shape() const { return shape_; }
  int ndim() const { return shape_.ndim(); }
  std::int64_t size() const { return shape_.size(); }

  /// Total heap footprint in bytes (what the memory-bound theorems count).
  std::int64_t bytes() const {
    return size() * static_cast<std::int64_t>(sizeof(Value));
  }

  Value* data() { return data_.data(); }
  const Value* data() const { return data_.data(); }

  Value& operator[](std::int64_t linear) {
    CUBIST_DCHECK(linear >= 0 && linear < size(), "linear index out of range");
    return data_[static_cast<std::size_t>(linear)];
  }
  Value operator[](std::int64_t linear) const {
    CUBIST_DCHECK(linear >= 0 && linear < size(), "linear index out of range");
    return data_[static_cast<std::size_t>(linear)];
  }

  Value& at(const std::vector<std::int64_t>& index) {
    return data_[static_cast<std::size_t>(shape_.linear_index(index))];
  }
  Value at(const std::vector<std::int64_t>& index) const {
    return data_[static_cast<std::size_t>(shape_.linear_index(index))];
  }

  void fill(Value v) { std::fill(data_.begin(), data_.end(), v); }

  /// Elementwise `this += other`; shapes must match. This is the combine
  /// step of the parallel reduction (summing partial aggregates).
  void accumulate(const DenseArray& other);

  /// Sum of every cell; aggregating all dimensions must preserve this.
  Value total() const;

  bool operator==(const DenseArray&) const = default;

 private:
  Shape shape_;
  std::vector<Value> data_;
};

}  // namespace cubist
