#include "io/array_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/generators.h"
#include "test_util.h"

namespace cubist {
namespace {

class ArrayIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return ::testing::TempDir() + "cubist_io_" + name;
  }
  void TearDown() override {
    for (const std::string& p : created_) {
      std::remove(p.c_str());
    }
  }
  std::string track(std::string p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(ArrayIoTest, DenseRoundTrip) {
  const DenseArray original = testing::random_dense({5, 4, 3}, 0.5, 7);
  const std::string file = track(path("dense.bin"));
  write_dense(original, file);
  EXPECT_EQ(read_dense(file), original);
}

TEST_F(ArrayIoTest, DenseScalarRoundTrip) {
  DenseArray scalar{Shape{std::vector<std::int64_t>{1}}};
  scalar[0] = 3.5;
  const std::string file = track(path("scalar.bin"));
  write_dense(scalar, file);
  EXPECT_EQ(read_dense(file), scalar);
}

TEST_F(ArrayIoTest, SparseRoundTrip) {
  SparseSpec spec;
  spec.sizes = {9, 7, 5};
  spec.density = 0.3;
  spec.seed = 3;
  const SparseArray original = generate_sparse_global(spec);
  const std::string file = track(path("sparse.bin"));
  write_sparse(original, file);
  const SparseArray loaded = read_sparse(file);
  EXPECT_EQ(loaded.nnz(), original.nnz());
  EXPECT_EQ(loaded.shape(), original.shape());
  EXPECT_EQ(loaded.chunk_extents(), original.chunk_extents());
  EXPECT_EQ(loaded.to_dense(), original.to_dense());
}

/// FNV-1a of a file's bytes.
std::uint64_t file_digest(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char byte : bytes) {
    h = (h ^ static_cast<unsigned char>(byte)) * 0x100000001b3ULL;
  }
  return h;
}

TEST_F(ArrayIoTest, GeneratedArraysWriteThePinnedFileBytes) {
  // Generated chunks are coded in memory, but the file holds each value
  // whole: these digests were taken when chunks were stored raw. Reading
  // the file back codes every chunk again, cell for cell the same.
  struct Pinned {
    const char* name;
    std::vector<std::int64_t> sizes;
    std::vector<std::int64_t> chunks;  // empty = default_chunks
    double density;
    double zipf_theta;
    std::uint64_t digest;
  };
  for (const Pinned& p :
       {Pinned{"uniform 0.25", {24, 20, 18}, {}, 0.25, 0.0,
               0xb308a25ca7f913d5},
        Pinned{"ragged zipf", {40, 24, 17}, {4, 8, 5}, 0.3, 1.1,
               0x2e59650379ae7ceb}}) {
    SparseSpec spec;
    spec.sizes = p.sizes;
    spec.chunk_extents = p.chunks;
    spec.density = p.density;
    spec.zipf_theta = p.zipf_theta;
    spec.seed = 97;
    const SparseArray original = generate_sparse_global(spec);
    const std::string file = track(path("pinned.bin"));
    write_sparse(original, file);
    EXPECT_EQ(file_digest(file), p.digest)
        << p.name << ": 0x" << std::hex << file_digest(file);
    const SparseArray loaded = read_sparse(file);
    EXPECT_EQ(testing::chunk_difference(loaded, original), "") << p.name;
    std::int64_t coded = 0;
    for (std::int64_t c = 0; c < loaded.num_chunks(); ++c) {
      if (loaded.chunk_positions(c).empty()) continue;
      EXPECT_TRUE(loaded.chunk_values(c).coded()) << p.name << " chunk " << c;
      ++coded;
    }
    EXPECT_GT(coded, 0) << p.name;
    // A read chunk's dictionary holds only the values it uses, a
    // generated one all nine.
    EXPECT_LE(loaded.bytes(), original.bytes()) << p.name;
  }
}

TEST_F(ArrayIoTest, EmptySparseRoundTrip) {
  const SparseArray original{Shape{{4, 4}}, {2, 2}};
  const std::string file = track(path("empty.bin"));
  write_sparse(original, file);
  EXPECT_EQ(read_sparse(file).nnz(), 0);
}

TEST_F(ArrayIoTest, WrongMagicRejected) {
  const std::string file = track(path("magic.bin"));
  {
    std::ofstream out(file, std::ios::binary);
    out << "NOPE nonsense";
  }
  EXPECT_THROW(read_dense(file), InvalidArgument);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, CrossFormatMagicRejected) {
  const DenseArray dense = testing::random_dense({4}, 0.5, 1);
  const std::string file = track(path("cross.bin"));
  write_dense(dense, file);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, TruncatedFileRejected) {
  const DenseArray dense = testing::random_dense({16, 16}, 0.5, 2);
  const std::string file = track(path("trunc.bin"));
  write_dense(dense, file);
  // Chop the file in half.
  std::ifstream in(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(read_dense(file), InvalidArgument);
}

/// The message of the InvalidArgument read_sparse raises on `file`;
/// empty when it loads.
std::string read_sparse_error(const std::string& file) {
  try {
    read_sparse(file);
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "";
}

/// Writes a one-chunk CBSP file by hand: `count` as the chunk's entry
/// count, followed by `offsets` and `values` as given.
void write_one_chunk_file(const std::string& file, std::int64_t extent,
                          std::int64_t count,
                          const std::vector<SparseArray::Offset>& offsets,
                          const std::vector<Value>& values) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  const auto put = [&out](const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
  };
  const std::uint32_t version = 2;
  const std::uint32_t ndim = 1;
  put("CBSP", 4);
  put(&version, sizeof version);
  put(&ndim, sizeof ndim);
  put(&extent, sizeof extent);  // shape
  put(&extent, sizeof extent);  // chunk extents: one chunk
  put(&count, sizeof count);
  put(offsets.data(), offsets.size() * sizeof(SparseArray::Offset));
  put(values.data(), values.size() * sizeof(Value));
}

TEST_F(ArrayIoTest, HandWrittenChunkLoads) {
  const std::string file = track(path("hand.bin"));
  write_one_chunk_file(file, 8, 2, {1, 6}, {3.0, 4.0});
  const SparseArray loaded = read_sparse(file);
  EXPECT_EQ(loaded.nnz(), 2);
  EXPECT_EQ(loaded.to_dense()[6], 4.0);
}

TEST_F(ArrayIoTest, ChunkCountAboveItsVolumeRejected) {
  const std::string file = track(path("count.bin"));
  write_one_chunk_file(file, 8, 9, {0, 1, 2, 3, 4, 5, 6, 7, 7},
                       std::vector<Value>(9, 1.0));
  EXPECT_THROW(read_sparse(file), InvalidArgument);
  // A count no file could back is refused before anything is allocated.
  write_one_chunk_file(file, 8, std::int64_t{1} << 60, {}, {});
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

/// Writes a file's header by hand: `magic`, `version`, `ndim` and the
/// i64 fields of `header` (the extents, then a CBSP file's chunk extents),
/// followed by `tail` zero bytes.
void write_header_file(const std::string& file, const char* magic,
                       std::uint32_t version, std::uint32_t ndim,
                       const std::vector<std::int64_t>& header,
                       std::size_t tail) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&ndim), sizeof ndim);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size() * sizeof(std::int64_t)));
  out.write(std::string(tail, '\0').data(),
            static_cast<std::streamsize>(tail));
}

TEST_F(ArrayIoTest, DenseCellCountBeyondTheFileRejected) {
  const std::string file = track(path("dense_claim.bin"));
  // 32 bytes claiming 2^31 x 2^31 cells.
  write_header_file(file, "CBDN", 1, 2,
                    {std::int64_t{1} << 31, std::int64_t{1} << 31}, 4);
  EXPECT_THROW(read_dense(file), InvalidArgument);
}

TEST_F(ArrayIoTest, SparseChunkGridBeyondTheFileRejected) {
  const std::string file = track(path("sparse_claim.bin"));
  // 48 bytes claiming a 2^31 x 2^31 grid of one-cell chunks.
  write_header_file(file, "CBSP", 2, 2,
                    {std::int64_t{1} << 31, std::int64_t{1} << 31, 1, 1}, 4);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
  // One 2^16-cell chunk claiming 2^16 entries that the file does not hold.
  write_one_chunk_file(file, SparseArray::kMaxChunkCells,
                       SparseArray::kMaxChunkCells, {}, {});
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, VersionOneSparseFileRejected) {
  // Version 1 stored 32-bit offsets: a well-formed version-1 file of one
  // 8-cell chunk holding cells 1 and 6 is refused by its version field.
  const std::string file = track(path("version1.bin"));
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    const auto put = [&out](const void* data, std::size_t bytes) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
    };
    const std::uint32_t version = 1;
    const std::uint32_t ndim = 1;
    const std::int64_t extent = 8;
    const std::int64_t count = 2;
    const std::uint32_t offsets[] = {1, 6};
    const Value values[] = {3.0, 4.0};
    put("CBSP", 4);
    put(&version, sizeof version);
    put(&ndim, sizeof ndim);
    put(&extent, sizeof extent);
    put(&extent, sizeof extent);
    put(&count, sizeof count);
    put(offsets, sizeof offsets);
    put(values, sizeof values);
  }
  EXPECT_NE(read_sparse_error(file).find("unsupported version 1"),
            std::string::npos)
      << read_sparse_error(file);
  // A version-1 header claiming a 2^31 x 2^31 grid of one-cell chunks is
  // refused by its version before the grid is checked or allocated.
  write_header_file(file, "CBSP", 1, 2,
                    {std::int64_t{1} << 31, std::int64_t{1} << 31, 1, 1}, 4);
  EXPECT_NE(read_sparse_error(file).find("unsupported version 1"),
            std::string::npos)
      << read_sparse_error(file);
}

TEST_F(ArrayIoTest, ChunkExtentsOverTheCapRejected) {
  // One chunk of 2^16 + 1 cells, and a 2^20 x 2^20 chunk claiming a grid
  // the file does not hold: both are refused by the cap, before the chunk
  // grid or any entry is allocated.
  const std::string file = track(path("over_cap.bin"));
  write_one_chunk_file(file, SparseArray::kMaxChunkCells + 1, 0, {}, {});
  EXPECT_NE(read_sparse_error(file).find("cap"), std::string::npos)
      << read_sparse_error(file);
  write_header_file(file, "CBSP", 2, 2,
                    {std::int64_t{1} << 30, std::int64_t{1} << 30,
                     std::int64_t{1} << 20, std::int64_t{1} << 20},
                    4);
  EXPECT_NE(read_sparse_error(file).find("cap"), std::string::npos)
      << read_sparse_error(file);
}

TEST_F(ArrayIoTest, OneRowChunkOfTheCapRoundTrips) {
  // 4 x 16384: one chunk of 2^16 cells, generated as a single row; its
  // last cell's offset is 65535.
  SparseSpec spec;
  spec.sizes = {4, 16384};
  spec.chunk_extents = spec.sizes;
  spec.density = 0.3;
  spec.seed = 5;
  SparseArray original = generate_sparse_global(spec);
  ASSERT_EQ(original.num_chunks(), 1);
  // The last cell at offset 65535, set whatever the hash kept there.
  std::vector<SparseArray::Offset> offsets =
      original.chunk_positions(0).to_vector();
  std::vector<Value> values = original.chunk_values(0).to_vector();
  if (offsets.back() != 65535) {
    offsets.push_back(65535);
    values.push_back(7.0);
  }
  SparseArray edged{Shape{spec.sizes}, spec.sizes};
  edged.set_chunk(0, offsets, values);
  edged.finalize();
  const std::string file = track(path("one_row.bin"));
  write_sparse(edged, file);
  const SparseArray loaded = read_sparse(file);
  EXPECT_EQ(loaded.chunk_extents(), edged.chunk_extents());
  EXPECT_EQ(testing::chunk_difference(loaded, edged), "");
  EXPECT_EQ(loaded.to_dense().at({3, 16383}), values.back());
}

TEST_F(ArrayIoTest, DescendingChunkOffsetsRejected) {
  const std::string file = track(path("descending.bin"));
  write_one_chunk_file(file, 8, 2, {5, 2}, {1.0, 2.0});
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, ChunkOffsetAtItsVolumeRejected) {
  const std::string file = track(path("volume.bin"));
  write_one_chunk_file(file, 8, 1, {8}, {1.0});
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, MissingFileRejected) {
  EXPECT_THROW(read_dense(path("does_not_exist.bin")), InvalidArgument);
}

TEST_F(ArrayIoTest, CsvExportHasHeaderAndOneRowPerCell) {
  DenseArray view{Shape{{2, 2}}};
  view.at({0, 1}) = 5.0;
  const std::string file = track(path("view.csv"));
  write_view_csv(view, {"item", "branch"}, file);
  std::ifstream in(file);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "item,branch,value");
  EXPECT_EQ(lines[2], "0,1,5");
}

TEST_F(ArrayIoTest, CsvHeaderRankValidated) {
  DenseArray view{Shape{{2, 2}}};
  EXPECT_THROW(write_view_csv(view, {"only_one"}, path("bad.csv")),
               InvalidArgument);
}

}  // namespace
}  // namespace cubist
