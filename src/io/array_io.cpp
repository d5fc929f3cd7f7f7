#include "io/array_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "common/error.h"
#include "common/mathutil.h"

namespace cubist {
namespace {

constexpr std::uint32_t kDenseVersion = 1;
/// Version 2: 16-bit chunk offsets (version 1 stored 32-bit ones).
constexpr std::uint32_t kSparseVersion = 2;

void write_raw(std::ofstream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  CUBIST_CHECK(out.good(), "write failed");
}

void read_raw(std::ifstream& in, void* data, std::size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  CUBIST_CHECK(in.good(), "read failed (truncated file?)");
}

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  write_raw(out, &value, sizeof value);
}

template <typename T>
T read_pod(std::ifstream& in) {
  T value;
  read_raw(in, &value, sizeof value);
  return value;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CUBIST_CHECK(out.is_open(), "cannot open for writing: " << path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CUBIST_CHECK(in.is_open(), "cannot open for reading: " << path);
  return in;
}

void write_magic(std::ofstream& out, const char magic[4],
                 std::uint32_t version) {
  write_raw(out, magic, 4);
  write_pod(out, version);
}

void expect_magic(std::ifstream& in, const char magic[4],
                  std::uint32_t version, const std::string& path) {
  char found[4];
  read_raw(in, found, 4);
  CUBIST_CHECK(std::equal(found, found + 4, magic),
               "bad magic in " << path);
  const auto found_version = read_pod<std::uint32_t>(in);
  CUBIST_CHECK(found_version == version,
               "unsupported version " << found_version << " of "
                                      << std::string(magic, 4) << " in "
                                      << path << " (reads version "
                                      << version << ')');
}

/// Bytes from the read position to the end of the file.
std::int64_t bytes_left(std::ifstream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  CUBIST_CHECK(in.good() && here >= 0 && end >= here,
               "cannot tell the file's size");
  return static_cast<std::int64_t>(end - here);
}

/// A length field is trusted only once the file could hold what it claims:
/// `count` records of `record_bytes` each within the `left` bytes unread.
void check_fits(std::int64_t count, std::int64_t record_bytes,
                std::int64_t left, const char* what) {
  CUBIST_CHECK(count <= left / record_bytes,
               "file claims " << count << ' ' << what << " in its last "
                              << left << " bytes");
}

std::vector<std::int64_t> read_extents(std::ifstream& in) {
  const auto ndim = read_pod<std::uint32_t>(in);
  CUBIST_CHECK(ndim >= 1 && ndim <= 32, "bad dimension count " << ndim);
  std::vector<std::int64_t> extents(ndim);
  read_raw(in, extents.data(), extents.size() * sizeof(std::int64_t));
  return extents;
}

void write_extents(std::ofstream& out,
                   const std::vector<std::int64_t>& extents) {
  write_pod(out, static_cast<std::uint32_t>(extents.size()));
  write_raw(out, extents.data(), extents.size() * sizeof(std::int64_t));
}

}  // namespace

void write_dense(const DenseArray& array, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "CBDN", kDenseVersion);
  write_extents(out, array.shape().extents());
  write_raw(out, array.data(),
            static_cast<std::size_t>(array.size()) * sizeof(Value));
}

DenseArray read_dense(const std::string& path) {
  std::ifstream in = open_in(path);
  expect_magic(in, "CBDN", kDenseVersion, path);
  std::vector<std::int64_t> extents = read_extents(in);
  check_fits(checked_product(extents), sizeof(Value), bytes_left(in),
             "cells");
  DenseArray array{Shape{std::move(extents)}};
  read_raw(in, array.data(),
           static_cast<std::size_t>(array.size()) * sizeof(Value));
  return array;
}

void write_sparse(const SparseArray& array, const std::string& path) {
  std::ofstream out = open_out(path);
  write_magic(out, "CBSP", kSparseVersion);
  write_extents(out, array.shape().extents());
  write_raw(out, array.chunk_extents().data(),
            array.chunk_extents().size() * sizeof(std::int64_t));
  // A chunk is written decoded: the file holds a list of offsets and every
  // value whole, whatever forms the chunk keeps in memory.
  for (std::int64_t c = 0; c < array.num_chunks(); ++c) {
    const std::vector<SparseArray::Offset> offsets =
        array.chunk_positions(c).to_vector();
    const std::vector<Value> values = array.chunk_values(c).to_vector();
    write_pod(out, static_cast<std::int64_t>(offsets.size()));
    write_raw(out, offsets.data(),
              offsets.size() * sizeof(SparseArray::Offset));
    write_raw(out, values.data(), values.size() * sizeof(Value));
  }
}

SparseArray read_sparse(const std::string& path) {
  std::ifstream in = open_in(path);
  expect_magic(in, "CBSP", kSparseVersion, path);
  const std::vector<std::int64_t> extents = read_extents(in);
  std::vector<std::int64_t> chunk_extents(extents.size());
  read_raw(in, chunk_extents.data(),
           chunk_extents.size() * sizeof(std::int64_t));
  // Every chunk spends at least its 8-byte entry count, so the file must
  // hold the whole chunk grid before the array allocates a slot a chunk.
  checked_product(extents);  // every extent is positive
  const std::int64_t chunk_cells = checked_product(chunk_extents);
  CUBIST_CHECK(chunk_cells <= SparseArray::kMaxChunkCells,
               "chunk extents of " << chunk_cells << " cells exceed the "
                                   << SparseArray::kMaxChunkCells
                                   << "-cell cap in " << path);
  std::vector<std::int64_t> grid(extents.size());
  for (std::size_t d = 0; d < extents.size(); ++d) {
    grid[d] = (extents[d] - 1) / chunk_extents[d] + 1;
  }
  std::int64_t left = bytes_left(in);
  check_fits(checked_product(grid), sizeof(std::int64_t), left, "chunks");
  SparseArray array{Shape{extents}, chunk_extents};

  // Each chunk goes through set_chunk(), which revalidates its entries,
  // picks the form of its positions and codes the chunk when it can.
  constexpr std::int64_t kEntryBytes =
      sizeof(SparseArray::Offset) + sizeof(Value);
  std::vector<std::int64_t> chunk_coords(extents.size());
  for (std::int64_t c = 0; c < array.num_chunks(); ++c) {
    const auto count = read_pod<std::int64_t>(in);
    left -= static_cast<std::int64_t>(sizeof count);
    array.chunk_grid().unravel(c, chunk_coords.data());
    const std::int64_t volume =
        checked_product(array.chunk_shape_at(chunk_coords));
    CUBIST_CHECK(count >= 0 && count <= volume,
                 "chunk " << c << " claims " << count << " entries in "
                          << volume << " cells");
    check_fits(count, kEntryBytes, left, "entries");
    left -= count * kEntryBytes;
    std::vector<SparseArray::Offset> offsets(
        static_cast<std::size_t>(count));
    std::vector<Value> values(static_cast<std::size_t>(count));
    read_raw(in, offsets.data(), offsets.size() * sizeof(SparseArray::Offset));
    read_raw(in, values.data(), values.size() * sizeof(Value));
    array.set_chunk(c, std::move(offsets), std::move(values));
  }
  array.finalize();
  return array;
}

void write_view_csv(const DenseArray& view,
                    const std::vector<std::string>& header,
                    const std::string& path) {
  CUBIST_CHECK(static_cast<int>(header.size()) == view.ndim(),
               "header column count must match view rank");
  std::ofstream out(path, std::ios::trunc);
  CUBIST_CHECK(out.is_open(), "cannot open for writing: " << path);
  for (std::size_t c = 0; c < header.size(); ++c) {
    out << header[c] << ',';
  }
  out << "value\n";
  std::vector<std::int64_t> index(static_cast<std::size_t>(view.ndim()), 0);
  for (std::int64_t linear = 0; linear < view.size(); ++linear) {
    view.shape().unravel(linear, index.data());
    for (int d = 0; d < view.ndim(); ++d) {
      out << index[d] << ',';
    }
    out << view[linear] << '\n';
  }
  CUBIST_CHECK(out.good(), "write failed");
}

}  // namespace cubist
