# Checks the exit status of `vic_bench --diff`: 2 when an artifact
# does not parse or cannot be read, 1 when two artifacts differ in one
# stat, 0 when they differ only in wall-clock fields. An optional
# fourth argument is a regex that stderr must match.
#
#   cmake -DVIC_BENCH=path/to/vic_bench -DFIXTURES=tests/diff_fixtures
#         -P tests/diff_fixtures/diff_exit_status.cmake

function(expect_exit want a b)
    execute_process(
        COMMAND ${VIC_BENCH} --diff ${FIXTURES}/${a} ${FIXTURES}/${b}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL want)
        message(FATAL_ERROR
            "--diff ${a} ${b}: exit ${rc}, want ${want}\n${out}${err}")
    endif()
    if(ARGC GREATER 3 AND NOT err MATCHES "${ARGV3}")
        message(FATAL_ERROR
            "--diff ${a} ${b}: stderr does not match '${ARGV3}'\n${err}")
    endif()
    message(STATUS "--diff ${a} ${b}: exit ${rc}")
endfunction()

expect_exit(2 truncated.json truncated.json)
expect_exit(2 artifact_a.json truncated.json)
expect_exit(1 artifact_a.json artifact_b.json)
expect_exit(0 artifact_a.json artifact_a.json)

# A readable but empty first file and a missing second file: the
# message names the file that could not be read, not the empty one.
expect_exit(2 empty.json missing.json "cannot read [^\n]*missing\\.json")
