// cube_tool — a small command-line workflow around the binary formats:
// generate a dataset to disk, build its cube (each view saved to a
// directory), and query saved views.
//
//   $ ./examples/cube_tool --mode=generate --file=/tmp/sales.cbsp
//         --sizes=64x32x16 --density=0.1
//   $ ./examples/cube_tool --mode=build --file=/tmp/sales.cbsp
//         --out=/tmp/cube
//   $ ./examples/cube_tool --mode=query --out=/tmp/cube --view=0,2
//         --coords=5,3
//   $ ./examples/cube_tool --mode=info --file=/tmp/sales.cbsp
#include <cstdio>
#include <sstream>
#include <string>

#include "common/args.h"
#include "cubist/cubist.h"

using namespace cubist;

namespace {

std::vector<std::int64_t> parse_int_list(const std::string& text,
                                         char separator) {
  std::vector<std::int64_t> values;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, separator)) {
    if (!token.empty()) values.push_back(std::stoll(token));
  }
  return values;
}

std::string view_path(const std::string& dir, DimSet view) {
  return dir + "/view_" + std::to_string(view.mask()) + ".cbdn";
}

int run_generate(const std::string& file, const std::string& sizes_text,
                 double density, std::int64_t seed) {
  SparseSpec spec;
  spec.sizes = parse_int_list(sizes_text, 'x');
  CUBIST_CHECK(!spec.sizes.empty(), "could not parse --sizes");
  spec.density = density;
  spec.seed = static_cast<std::uint64_t>(seed);
  const SparseArray data = generate_sparse_global(spec);
  write_sparse(data, file);
  std::printf("wrote %s: %s, %lld non-zeros (%.1f%%)\n", file.c_str(),
              data.shape().to_string().c_str(),
              static_cast<long long>(data.nnz()), data.density() * 100);
  return 0;
}

int run_info(const std::string& file) {
  const SparseArray data = read_sparse(file);
  const CubeLattice lattice(data.shape().extents());
  std::printf("%s: %s, %lld non-zeros (%.2f%%), %lld chunks, %.2f MB\n",
              file.c_str(), data.shape().to_string().c_str(),
              static_cast<long long>(data.nnz()), data.density() * 100,
              static_cast<long long>(data.num_chunks()),
              static_cast<double>(data.bytes()) / 1e6);
  std::printf("full cube: %lld views, %s output cells, Theorem-1 build "
              "memory %s bytes\n",
              static_cast<long long>(lattice.num_views()),
              TextTable::with_thousands([&] {
                std::int64_t cells = 0;
                for (DimSet v : lattice.all_views()) {
                  if (v != DimSet::full(lattice.ndims())) {
                    cells += lattice.view_cells(v);
                  }
                }
                return cells;
              }()).c_str(),
              TextTable::with_thousands(
                  sequential_memory_bound(lattice))
                  .c_str());
  return 0;
}

int run_build(const std::string& file, const std::string& out) {
  const SparseArray data = read_sparse(file);
  BuildStats stats;
  Timer timer;
  const CubeResult cube = build_cube_sequential(data, &stats);
  std::printf("built %zu views in %.2f s (peak %.2f MB)\n", cube.num_views(),
              timer.elapsed_seconds(),
              static_cast<double>(stats.peak_live_bytes) / 1e6);
  for (DimSet view : cube.stored_views()) {
    write_dense(cube.view(view), view_path(out, view));
  }
  std::printf("wrote views to %s/view_<mask>.cbdn\n", out.c_str());
  return 0;
}

int run_query(const std::string& out, const std::string& view_text,
              const std::string& coords_text) {
  const std::vector<std::int64_t> dims = parse_int_list(view_text, ',');
  DimSet view;
  for (std::int64_t d : dims) {
    view = view.with(static_cast<int>(d));
  }
  const DenseArray array = read_dense(view_path(out, view));
  const std::vector<std::int64_t> coords = parse_int_list(coords_text, ',');
  CUBIST_CHECK(static_cast<int>(coords.size()) == array.ndim(),
               "need " << array.ndim() << " coordinates for this view");
  std::printf("view %s @ (%s) = %g\n", view.to_letters().c_str(),
              coords_text.c_str(), array.at(coords));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("cube_tool", "generate / build / query data cubes on disk");
  const auto* mode =
      args.add_string("mode", "info", "generate | info | build | query");
  const auto* file = args.add_string("file", "/tmp/cubist_data.cbsp",
                                     "sparse dataset path");
  const auto* out = args.add_string("out", "/tmp/cubist_cube",
                                    "cube output directory (must exist)");
  const auto* sizes = args.add_string("sizes", "64x32x16", "generate: extents");
  const auto* density = args.add_double("density", 0.1, "generate: density");
  const auto* seed = args.add_int("seed", 1, "generate: seed");
  const auto* view = args.add_string("view", "0", "query: dims, e.g. 0,2");
  const auto* coords = args.add_string("coords", "0", "query: coordinates");
  if (!args.parse(argc, argv)) return 1;

  try {
    if (*mode == "generate") {
      return run_generate(*file, *sizes, *density, *seed);
    }
    if (*mode == "info") {
      return run_info(*file);
    }
    if (*mode == "build") {
      return run_build(*file, *out);
    }
    if (*mode == "query") {
      return run_query(*out, *view, *coords);
    }
    std::fprintf(stderr, "unknown --mode=%s\n%s", mode->c_str(),
                 args.usage().c_str());
    return 1;
  } catch (const InvalidArgument& error) {
    // Bad input: the check's own message, without its source location.
    std::fprintf(stderr, "error: %s\n", std::string(error.message()).c_str());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
