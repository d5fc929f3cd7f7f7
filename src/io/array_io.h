// Binary persistence for arrays and CSV export for views.
//
// Formats (little-endian host order; these files are a working format, not
// an interchange one):
//   dense:  "CBDN" u32-version(1) u32-ndim i64-extents[ndim] f64-cells[size]
//   sparse: "CBSP" u32-version(2) u32-ndim i64-extents[ndim]
//           i64-chunk_extents[ndim] then per chunk (row-major grid order):
//           i64-count u16-offsets[count] f64-values[count]
// Sparse version 2 stores SparseArray's 16-bit chunk offsets, so its chunk
// extents may span at most SparseArray::kMaxChunkCells cells. Version 1
// stored 32-bit offsets; read_sparse rejects it, and rejects chunk extents
// over the cap, before it allocates anything the file's fields size. The
// file holds every value whole: write_sparse decodes a coded chunk, and
// read_sparse codes each chunk again when its values allow.
#pragma once

#include <string>

#include "array/dense_array.h"
#include "array/sparse_array.h"

namespace cubist {

void write_dense(const DenseArray& array, const std::string& path);
DenseArray read_dense(const std::string& path);

void write_sparse(const SparseArray& array, const std::string& path);
SparseArray read_sparse(const std::string& path);

/// Writes a view as CSV: one row per cell, coordinates then value.
/// `header` names the coordinate columns (e.g. {"item","branch"}).
void write_view_csv(const DenseArray& view,
                    const std::vector<std::string>& header,
                    const std::string& path);

}  // namespace cubist
