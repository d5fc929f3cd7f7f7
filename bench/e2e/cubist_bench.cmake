# Build file of the end-to-end benchmark. It adds the cubist_bench program
# and the bench_e2e_smoke test to the repository's own CMake project, so
# the program and the library it measures are compiled with exactly the
# project's settings (standard, build type, warnings, sanitizers). It is
# hooked in at configure time through project()'s include variable:
#
#   cmake -S . -B .bench_build \
#         -DCMAKE_PROJECT_cubist_INCLUDE="$PWD/bench/e2e/cubist_bench.cmake"
#   cmake --build .bench_build --target cubist_bench -j 4
#   ctest --test-dir .bench_build -R bench_e2e_smoke --output-on-failure
#
# run.py does the first two itself; see README.md.
set(CUBIST_BENCH_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

# project() includes this file before the root CMakeLists.txt has set its
# compile options and found its packages, so the targets are added when
# the root directory is done.
function(cubist_bench_e2e)
  add_executable(cubist_bench
    "${CUBIST_BENCH_E2E_DIR}/cubist_bench.cpp"
    "${CUBIST_BENCH_E2E_DIR}/attribution.cpp")
  # bench_util.h (paper_model) includes the google-benchmark header, whose
  # stream-initialization anchor needs the library at link time; nothing
  # else of google-benchmark is used.
  target_link_libraries(cubist_bench PRIVATE cubist::cubist benchmark::benchmark)
  target_include_directories(cubist_bench PRIVATE "${PROJECT_SOURCE_DIR}/bench")

  find_package(Python3 COMPONENTS Interpreter REQUIRED)
  add_test(NAME bench_e2e_smoke
    COMMAND ${Python3_EXECUTABLE} "${CUBIST_BENCH_E2E_DIR}/run.py" --smoke
            --binary $<TARGET_FILE:cubist_bench>
    WORKING_DIRECTORY "${PROJECT_SOURCE_DIR}")
endfunction()
cmake_language(DEFER CALL cubist_bench_e2e)
