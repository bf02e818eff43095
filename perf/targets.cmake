# The benchmark's targets. Not a standalone project: perf/run.py adds them to
# the product's build through perf/hook.cmake, so everything here sees the
# product's targets and the root directory's compile options.
if(NOT TARGET dlner_serve_tool)
  message(FATAL_ERROR "perf/ is built by perf/run.py through perf/hook.cmake")
endif()
set(PERF_DIR ${CMAKE_CURRENT_LIST_DIR})

# The build facts recorded with every result.
get_directory_property(PERF_COMPILE_OPTIONS COMPILE_OPTIONS)
get_directory_property(PERF_COMPILE_DEFINITIONS COMPILE_DEFINITIONS)
string(TOUPPER "${CMAKE_BUILD_TYPE}" PERF_BUILD_TYPE_UPPER)
string(JOIN " " PERF_FLAGS ${CMAKE_CXX_FLAGS}
       ${CMAKE_CXX_FLAGS_${PERF_BUILD_TYPE_UPPER}} ${PERF_COMPILE_OPTIONS}
       ${PERF_COMPILE_DEFINITIONS})
string(STRIP "${PERF_FLAGS}" PERF_FLAGS)

add_library(perf_support STATIC EXCLUDE_FROM_ALL
  ${PERF_DIR}/client.cc
  ${PERF_DIR}/inputs.cc
  ${PERF_DIR}/layers.cc
  ${PERF_DIR}/server_proc.cc
  ${PERF_DIR}/stats.cc
  ${PERF_DIR}/workloads.cc
)
target_include_directories(perf_support PUBLIC ${CMAKE_SOURCE_DIR})
target_compile_definitions(perf_support PRIVATE
  PERF_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PERF_CXX_FLAGS="${PERF_FLAGS}")
target_link_libraries(perf_support PUBLIC
  dlner_serve dlner_stream dlner_core dlner_data dlner_eval dlner_plan
  dlner_tensor dlner_runtime dlner_obs Threads::Threads)

add_executable(perf_harness EXCLUDE_FROM_ALL ${PERF_DIR}/main.cc)
target_link_libraries(perf_harness PRIVATE perf_support)

add_executable(perf_selftest EXCLUDE_FROM_ALL ${PERF_DIR}/selftest.cc)
target_link_libraries(perf_selftest PRIVATE perf_support GTest::gtest
                      GTest::gtest_main)
set_target_properties(perf_harness perf_selftest PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perf)
