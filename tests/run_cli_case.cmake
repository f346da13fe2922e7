# Drive one sadp_route case end to end and check BOTH the exit code and the
# output (PASS_REGULAR_EXPRESSION alone cannot pin the exit code, and an
# `assert` death would exit with a signal, not 1).
#
# Arguments (via -D):
#   CLI        path to the sadp_route binary
#   CLI_ARGS   semicolon-separated argument list
#   EXPECT_EXIT     required exit code
#   EXPECT_STDERR   regex that must match the captured stderr (optional)
#   EXPECT_STDOUT   regex that must match the captured stdout (optional)
execute_process(
  COMMAND "${CLI}" ${CLI_ARGS}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT exit_code EQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit code ${EXPECT_EXIT}, got '${exit_code}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}'\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}'\nstdout:\n${out}")
endif()
