# Fails when a file under SRC_DIR/core/pipeline/ or SRC_DIR/core/facade.*
# declares a std::map / std::unordered_map (or set) keyed by std::string.
# Query id strings stay at the public API: inside the pipeline and the
# facades a query is named by its QueryId, and its state lives in its
# QueryRecord. Two string-keyed containers are allowed:
#   - QueryTable::ids_, the id-string -> QueryId map at the API boundary;
#   - QueryRecord::seen_items, the item-id dedup window (wire ids); it
#     exists only for plans that start on more than one mechanism.
# It also fails when SRC_DIR/core/facade.* declares a map or set keyed by
# QueryId: a facade reaches a query's cluster through the ClusterRef its
# record holds, so per-query state never needs a second index there.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/query_id_guard.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT IS_DIRECTORY "${SRC_DIR}/core/pipeline")
  message(FATAL_ERROR "query_id_guard: '${SRC_DIR}/core/pipeline' is not a directory")
endif()
file(GLOB files LIST_DIRECTORIES false
     "${SRC_DIR}/core/pipeline/*" "${SRC_DIR}/core/facade.*")
if(NOT files)
  message(FATAL_ERROR "query_id_guard: no files to check under ${SRC_DIR}/core")
endif()
set(report "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" lines
       REGEX "std::(unordered_)?(multi)?(map|set)<[ \t]*(const[ \t]+)?std::string[ \t]*[,>]")
  foreach(line IN LISTS lines)
    if(line MATCHES "[ \t](ids_|seen_items);")
      continue()
    endif()
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "string-keyed per-query containers found; key them by QueryId or keep the state in QueryRecord:${report}")
endif()
file(GLOB facade_files LIST_DIRECTORIES false "${SRC_DIR}/core/facade.*")
foreach(f IN LISTS facade_files)
  file(STRINGS "${f}" lines
       REGEX "std::(unordered_)?(multi)?(map|set)<[ \t]*(const[ \t]+)?(core::)?QueryId[ \t]*[,>]")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "QueryId-keyed containers found in the facade; reach the cluster through the record's ClusterRef:${report}")
endif()
list(LENGTH files n)
message(STATUS "query_id_guard: ${n} files checked, no string-keyed per-query containers, no QueryId-keyed facade containers")
