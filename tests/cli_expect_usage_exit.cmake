# Runs updb_cli with a malformed numeric flag and requires exit code 2
# (usage message), not a crash and not a silently accepted value.
#
#   cmake -DCLI=<path to updb_cli> -DARGS="serve|--shards=-1"
#         [-DSETUP="generate|--out=x.updb"] -P cli_expect_usage_exit.cmake
#
# ARGS and SETUP separate arguments with '|'. SETUP, when given, runs
# first and must succeed (e.g. to write the dataset a command loads).
string(REPLACE "|" ";" args "${ARGS}")
if(DEFINED SETUP)
  string(REPLACE "|" ";" setup "${SETUP}")
  execute_process(COMMAND "${CLI}" ${setup} RESULT_VARIABLE setup_rc
                  OUTPUT_QUIET)
  if(NOT setup_rc STREQUAL "0")
    message(FATAL_ERROR "setup `${SETUP}` failed: ${setup_rc}")
  endif()
endif()
execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "`${ARGS}`: expected exit code 2, got '${rc}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "usage: updb_cli")
  message(FATAL_ERROR "`${ARGS}`: no usage message on stderr:\n${err}")
endif()
