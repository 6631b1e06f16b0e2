# Fails when a file under SRC_DIR declares a std::set or std::vector of
# SourceSel, or a std::map keyed by it. A query's mechanisms are a
# query::MechanismSet (core/query/ast.hpp), one byte; per-mechanism
# state is an array indexed by SourceSel, like QueryRecord::cluster and
# the factory's FacadeArray.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/mechanism_set_guard.cmake
cmake_minimum_required(VERSION 3.16)
file(GLOB_RECURSE files LIST_DIRECTORIES false
     "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp")
if(NOT files)
  message(FATAL_ERROR "mechanism_set_guard: no source files under ${SRC_DIR}")
endif()
set(report "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" lines
       REGEX "std::(set|vector)<[ \t]*(query::)?SourceSel[ \t]*>|std::map<[ \t]*(query::)?SourceSel")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "SourceSel containers found; use query::MechanismSet or a SourceSel-indexed array:${report}")
endif()
list(LENGTH files n)
message(STATUS "mechanism_set_guard: ${n} files checked, no SourceSel set, vector or map")
