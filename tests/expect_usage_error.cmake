# Runs one CLI invocation and passes only when it exits 2 with a message
# on stderr matching EXPECT: the contract for every rejected flag or
# input (never a wrapped value, a silent fallback, or an abort).
#
#   cmake -DBIN=path/to/cli "-DARGS=--flag value" "-DEXPECT=regex" \
#         -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
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
