# Fails when any file under SRC_DIR includes <thread>, <atomic> or
# <mutex>, or names std::thread, std::jthread, std::async, std::atomic,
# std::mutex or std::lock_guard. The simulation is single-threaded by
# contract; the query table, the metrics registry, the observability
# switch and the logger hold no locks and no atomics because of it.
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
       REGEX "#[ \t]*include[ \t]*<(thread|atomic|mutex)>|std::(thread|jthread|async|atomic|mutex|lock_guard)([^A-Za-z0-9_]|$)")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "src/ must stay single-threaded; thread or lock use found:${report}")
endif()
list(LENGTH files n)
message(STATUS "single_thread_guard: ${n} files under src/, no thread or lock use")
