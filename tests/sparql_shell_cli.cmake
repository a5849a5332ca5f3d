# Checks that sparql_shell fails cleanly on a bad command line: an unknown
# flag or a flag missing its value exits 2 with a one-line usage message,
# and a data file that cannot be opened (missing, or a .lbr file that is
# not a snapshot) exits 1 with a one-line "error: ..." message. An abort
# (std::terminate) fails every case. Also checks that --threads N sizes the
# .batch runner pool: a .batch file exits 0, reports N thread(s), and
# counts each TP cache lookup of the batch once.
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
expect_failure(2 "^unknown option '--planner'; usage: " --planner)
expect_failure(1 "^error: .*no-such-file\\.nt" no-such-file.nt)
expect_failure(1 "^error: .*no-such-file\\.lbr" no-such-file.lbr)

# A file in the retired eager database format is rejected by its magic.
set(legacy "${CMAKE_CURRENT_BINARY_DIR}/sparql_shell_cli_legacy.lbr")
file(WRITE "${legacy}" "LBRDBF01 and the rest of a retired database file")
expect_failure(1 "^error: .*sparql_shell_cli_legacy\\.lbr is not a snapshot"
               "${legacy}")
file(REMOVE "${legacy}")

# --threads 2 runs a .batch file on two runners over the demo graph.
set(batch "${CMAKE_CURRENT_BINARY_DIR}/sparql_shell_cli.batch")
set(input "${CMAKE_CURRENT_BINARY_DIR}/sparql_shell_cli.input")
file(WRITE "${batch}"
     "SELECT * WHERE { ?who <hasFriend> ?f . }\n\n"
     "SELECT * WHERE { ?who <hasFriend> ?f . ?f <actedIn> ?show . }\n")
file(WRITE "${input}" ".batch ${batch}\n")
execute_process(COMMAND "${SHELL}" --threads 2
                INPUT_FILE "${input}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE "${batch}" "${input}")
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "sparql_shell --threads 2 .batch: exit '${code}', "
                      "expected 0; stderr:\n${err}")
endif()
if(NOT out MATCHES "batch: 2 queries \\(0 failed\\), [0-9]+ rows in [^\n]* on 2 thread\\(s\\); tp cache ([0-9]+) hit\\(s\\) / ([0-9]+) miss")
  message(FATAL_ERROR "sparql_shell --threads 2 .batch: no 'batch: ... on 2 "
                      "thread(s); tp cache ...' line in:\n${out}")
endif()
# The batch's cache totals count each TP lookup once, whichever runner made
# it: 1 + 2 TPs.
math(EXPR lookups "${CMAKE_MATCH_1} + ${CMAKE_MATCH_2}")
if(NOT lookups EQUAL 3)
  message(FATAL_ERROR "sparql_shell --threads 2 .batch: ${lookups} tp cache "
                      "lookups (hits + misses), expected 3, in:\n${out}")
endif()
