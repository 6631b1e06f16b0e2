# Fails when any file under SRC_DIR includes <thread> or names
# std::thread, std::jthread or std::async. The simulation is
# single-threaded by contract; the query table and the metrics registry
# hold no locks and no atomics because of it.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/single_thread_guard.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "single_thread_guard: SRC_DIR '${SRC_DIR}' is not a directory")
endif()
file(GLOB_RECURSE files LIST_DIRECTORIES false "${SRC_DIR}/*")
set(report "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" lines
       REGEX "#[ \t]*include[ \t]*<thread>|std::(thread|jthread|async)([^A-Za-z0-9_]|$)")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "src/ must stay single-threaded; thread use found:${report}")
endif()
list(LENGTH files n)
message(STATUS "single_thread_guard: ${n} files under src/, no thread use")
