# Crash and resume of one hi_pareto ladder: a run told to SIGKILL itself
# after its first completed MILP round (the store is synced first) must
# die by that signal, and a rerun on the same store must complete and
# serve at least one point from it.
#
#   cmake -DBIN=path/to/hi_pareto -DSTORE=file -P expect_pareto_resume.cmake
set(args --gen-seed 7 --tsim 2 --runs 1 --pdr-min 0.5,0.7,0.9
         --store "${STORE}")
file(REMOVE "${STORE}")

# Through a shell, so death by SIGKILL shows as its exit status 137.
execute_process(COMMAND sh -c "\"$0\" \"$@\" >/dev/null; exit $?"
                        "${BIN}" ${args} --kill-after-rounds 1
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "137")
  message(FATAL_ERROR "killed run: exit '${rc}', want 137 (SIGKILL)\n${err}")
endif()

execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "resumed run: exit '${rc}', want 0\n${err}")
endif()
if(NOT out MATCHES "\"complete\": true")
  message(FATAL_ERROR "resumed run did not complete:\n${out}")
endif()
if(NOT out MATCHES "\"store_hits\": [1-9]")
  message(FATAL_ERROR "resumed run served nothing from the store:\n${out}")
endif()
file(REMOVE "${STORE}")
