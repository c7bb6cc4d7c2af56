# Runs one CLI invocation and passes only when it exits 2 with a message
# on stderr matching EXPECT: the contract for every rejected flag or
# input (never a wrapped value, a silent fallback, or an abort).
#
#   cmake -DBIN=path/to/cli "-DARGS=--flag value" "-DEXPECT=regex" \
#         [-DNO_FILE=path] -P expect_usage_error.cmake
#
# NO_FILE names a file the rejected run must not leave behind (say, the
# --store it was given): it is removed before the run and the test fails
# if it exists afterwards.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NO_FILE)
  get_filename_component(no_file "${NO_FILE}" ABSOLUTE)
  file(REMOVE "${no_file}")
endif()
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', want 2\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "${BIN} ${ARGS}: stderr does not match '${EXPECT}':\n${err}")
endif()
if(NO_FILE AND EXISTS "${no_file}")
  message(FATAL_ERROR "${BIN} ${ARGS}: rejected, but left ${no_file} behind")
endif()
