# Checks that sparql_shell fails cleanly on a bad command line: an unknown
# flag or a flag missing its value exits 2 with a one-line usage message,
# and a data file that cannot be opened (missing, or a .lbr file that is
# not a snapshot) exits 1 with a one-line "error: ..." message. An abort
# (std::terminate) fails every case.
#
#   cmake -DSHELL=<path to sparql_shell> -P tests/sparql_shell_cli.cmake

function(expect_failure expected_code pattern)
  execute_process(COMMAND "${SHELL}" ${ARGN}
                  INPUT_FILE /dev/null
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected_code}")
    message(FATAL_ERROR "sparql_shell ${ARGN}: exit '${code}', expected "
                        "${expected_code}; stderr:\n${err}")
  endif()
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT lines EQUAL 1 OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "sparql_shell ${ARGN}: expected one stderr line "
                        "matching '${pattern}', got:\n${err}")
  endif()
endfunction()

expect_failure(2 "^unknown option '--bogus'; usage: sparql_shell " --bogus)
expect_failure(2 "^unknown option '--budget'; usage: " --budget 1024)
expect_failure(2 "^--threads needs a value; usage: " --threads)
expect_failure(2 "^--planner needs a value; usage: " --planner)
expect_failure(1 "^error: .*no-such-file\\.nt" no-such-file.nt)
expect_failure(1 "^error: .*no-such-file\\.lbr" no-such-file.lbr)

# A file in the retired eager database format is rejected by its magic.
set(legacy "${CMAKE_CURRENT_BINARY_DIR}/sparql_shell_cli_legacy.lbr")
file(WRITE "${legacy}" "LBRDBF01 and the rest of a retired database file")
expect_failure(1 "^error: .*sparql_shell_cli_legacy\\.lbr is not a snapshot"
               "${legacy}")
file(REMOVE "${legacy}")
