# Checks that vic_bench rejects the flags of its retired mechanisms as
# unknown options, exit 2, instead of running a sweep without them.
#
#   cmake -DVIC_BENCH=path/to/vic_bench -P tests/vic_bench_retired_flags.cmake

foreach(probe "--shards 2" "--ratchet x" "--throughput x")
    separate_arguments(args UNIX_COMMAND "${probe}")
    list(GET args 0 flag)
    execute_process(
        COMMAND ${VIC_BENCH} --smoke --filter table2 ${args}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown option ${flag}")
        message(FATAL_ERROR "${probe}: exit ${rc}, want 2 and "
                            "'unknown option ${flag}'\n${out}${err}")
    endif()
    message(STATUS "${probe}: exit ${rc}")
endforeach()
