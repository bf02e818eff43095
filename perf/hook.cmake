# Adds the benchmark's targets to the product's own build.
#
# perf/run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# CMake includes this file at the end of the root project() call, and the
# deferred include of perf/targets.cmake runs once the root CMakeLists.txt
# has finished. The benchmark's targets then live in the product's root
# directory: they link the product's library targets by name and compile
# with exactly the product's flags (-march, -ffp-contract, SIMD selection,
# build type), and no product build file needs a change.
cmake_language(EVAL CODE "
  cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])
")
