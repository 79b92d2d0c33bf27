# Script-mode runner (cmake -P): configure a sub-build of this project with
# the requested sanitizer enabled, build one test target, and run it.
# Every `ctest -L sanitizer` entry runs through here, registered by
# lowdiff_sanitized_test() in the top-level CMakeLists (only in
# non-sanitized builds, so it cannot recurse).  Entries of one sanitizer
# pass the same BUILD_DIR: each reconfigures the existing tree and builds
# only what its target still lacks.
#
# Required -D arguments: SOURCE_DIR, BUILD_DIR, SANITIZER (address|thread|
# undefined), TEST_TARGET.
# Optional: GTEST_FILTER (forwarded as --gtest_filter; empty = all).

if(NOT SOURCE_DIR OR NOT BUILD_DIR OR NOT SANITIZER OR NOT TEST_TARGET)
  message(FATAL_ERROR
      "run_sanitized_test.cmake needs -DSOURCE_DIR=, -DBUILD_DIR=, "
      "-DSANITIZER=, and -DTEST_TARGET=")
endif()

set(tag "[${SANITIZER}:${TEST_TARGET}]")

message(STATUS "${tag} configuring sanitized sub-build in ${BUILD_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DLOWDIFF_SANITIZE=${SANITIZER} -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_rc)
if(NOT configure_rc EQUAL 0)
  message(FATAL_ERROR "${tag} configure failed (${configure_rc})")
endif()

cmake_host_system_information(RESULT ncores QUERY NUMBER_OF_LOGICAL_CORES)
message(STATUS "${tag} building ${TEST_TARGET} (-j ${ncores})")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${TEST_TARGET}
          -j ${ncores}
  RESULT_VARIABLE build_rc)
if(NOT build_rc EQUAL 0)
  message(FATAL_ERROR "${tag} build failed (${build_rc})")
endif()

set(run_args)
if(GTEST_FILTER)
  list(APPEND run_args --gtest_filter=${GTEST_FILTER})
endif()

message(STATUS "${tag} running under ${SANITIZER} sanitizer")
execute_process(
  COMMAND ${BUILD_DIR}/tests/${TEST_TARGET} ${run_args}
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${tag} failed under ${SANITIZER} (${run_rc})")
endif()
