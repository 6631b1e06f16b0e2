# Fails when a file under SRC_DIR/core/, other than
# core/pipeline/query_table.*, opens, closes or counts a query's tracer
# span (AddItems, BeginStage, EndStage, BeginQuery, EndQuery) or changes
# a record's assigned mechanisms (assigned.insert/erase/clear).
# The QueryTable owns a query's span windows: a provision span is open
# exactly while its mechanism is assigned (QueryTable::Assign/Unassign),
# the failover and degraded spans exactly while the record is in that
# state (QueryTable::Transition). Everything else reaches the spans
# through those calls; the router bumps the record's item counters and
# never calls the tracer per item.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/span_count_guard.cmake
cmake_minimum_required(VERSION 3.16)
file(GLOB_RECURSE files LIST_DIRECTORIES false "${SRC_DIR}/core/*")
list(FILTER files EXCLUDE REGEX "/core/pipeline/query_table\\.[^/]*$")
if(NOT files)
  message(FATAL_ERROR "span_count_guard: no files under ${SRC_DIR}/core")
endif()
set(report "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" lines
       REGEX "(AddItems|BeginStage|EndStage|BeginQuery|EndQuery)[ \t]*\\(|assigned[ \t]*(\\.|->)[ \t]*(insert|erase|clear)[ \t]*\\(")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "a query's spans or assigned mechanisms change outside the QueryTable; use QueryTable::Assign/Unassign/Transition:${report}")
endif()
list(LENGTH files n)
message(STATUS "span_count_guard: ${n} files checked, only the QueryTable opens, closes or counts a query's spans")
