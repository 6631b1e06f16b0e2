# Fails when a file under SRC_DIR/core, SRC_DIR/obs or SRC_DIR/sim
# contains `<< 32`, `>> 32` or `0xffffffff`: the handle layout (slot in
# the low 32 bits, generation in the high 32) lives only in
# common/slot_table.hpp, and every handle store in those trees goes
# through SlotTable. net/medium.* shifts by 32 to hash cell keys and is
# out of scope.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/slot_handle_guard.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT EXISTS "${SRC_DIR}/common/slot_table.hpp")
  message(FATAL_ERROR "slot_handle_guard: '${SRC_DIR}/common/slot_table.hpp' not found")
endif()
file(GLOB_RECURSE files LIST_DIRECTORIES false
     "${SRC_DIR}/core/*" "${SRC_DIR}/obs/*" "${SRC_DIR}/sim/*")
if(NOT files)
  message(FATAL_ERROR "slot_handle_guard: no files under ${SRC_DIR}/{core,obs,sim}")
endif()
set(report "")
foreach(f IN LISTS files)
  file(STRINGS "${f}" lines REGEX "<<[ \t]*32|>>[ \t]*32|0[xX][fF][fF][fF][fF]'?[fF][fF][fF][fF]")
  foreach(line IN LISTS lines)
    file(RELATIVE_PATH rel "${SRC_DIR}" "${f}")
    string(STRIP "${line}" line)
    string(APPEND report "\n  src/${rel}: ${line}")
  endforeach()
endforeach()
if(report)
  message(FATAL_ERROR "handle packing outside common/slot_table.hpp; store the values in a SlotTable instead:${report}")
endif()
list(LENGTH files n)
message(STATUS "slot_handle_guard: ${n} files checked, no handle packing outside common/slot_table.hpp")
