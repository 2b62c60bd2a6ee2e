# Run one bench binary with one argument and check its command-line
# contract: the exit code, a pattern in its output, and that it wrote no
# file named after the argument.
#
#   cmake -DBIN=<binary> -DARG=<argument> -DWANT_RC=<code> -DWANT=<regex>
#         -DDIR=<scratch dir> -P cli_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BIN}" "${ARG}"
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${WANT_RC}")
  message(FATAL_ERROR "${BIN} ${ARG}: exit ${rc}, want ${WANT_RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${WANT}")
  message(FATAL_ERROR "${BIN} ${ARG}: output lacks '${WANT}':\n${out}${err}")
endif()
file(GLOB left "${DIR}/*")
if(left)
  message(FATAL_ERROR "${BIN} ${ARG}: wrote ${left}")
endif()
