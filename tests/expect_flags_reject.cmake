# Negative tests for every flag of one CLI, enumerated from its generated
# usage text (the stderr of `--bogus`).  Each flag that takes a value
# must be a usage error (exit 2, stderr starting `usage:`) when the value
# is missing; each whose value is not a free-form path (metavar FILE or
# DIR) must also reject the value `x`.
#
#   cmake -DBIN=path/to/cli -P expect_flags_reject.cmake

function(expect_usage)
  execute_process(COMMAND "${BIN}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "^usage:")
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${BIN} ${args}: exit '${rc}', want 2 + usage:\n${err}")
  endif()
  set(usage "${err}" PARENT_SCOPE)
endfunction()

expect_usage(--bogus)
# A usage row of a value flag: two spaces, the flag, one space, metavar.
string(REGEX MATCHALL "\n  --[a-z0-9-]+ [^ \n]+" rows "${usage}")
list(LENGTH rows n)
if(n EQUAL 0)
  message(FATAL_ERROR "${BIN}: no value flags found in usage:\n${usage}")
endif()
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^\n  (--[a-z0-9-]+) ([^ \n]+)$" "\\1;\\2" parts "${row}")
  list(GET parts 0 flag)
  list(GET parts 1 metavar)
  expect_usage(${flag})
  if(NOT metavar MATCHES "^(FILE|DIR)$")
    expect_usage(${flag} x)
  endif()
endforeach()
message(STATUS "${BIN}: ${n} value flags reject a missing or malformed value")
