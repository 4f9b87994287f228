# Checks the colour cap of MachineParams::check(): the consistency state
# keeps one 64-bit word of colours per page and cache, so a machine with
# more colours is a fatal configuration error (exit 1, with the
# diagnostic), while 64 colours still run to the oracle verdict.
#
#   cmake -DPOLICY_EXPLORER=path/to/policy_explorer \
#         -P tests/policy_explorer_colour_cap.cmake

execute_process(
    COMMAND ${POLICY_EXPLORER} F alias-unaligned --colours 128
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "more than 64 colours")
    message(FATAL_ERROR "--colours 128: exit ${rc}, want 1 and "
                        "'more than 64 colours'\n${out}${err}")
endif()
message(STATUS "--colours 128: exit ${rc}")

execute_process(
    COMMAND ${POLICY_EXPLORER} F alias-unaligned --colours 64
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "64 colour\\(s\\)"
   OR NOT out MATCHES "0 violations")
    message(FATAL_ERROR "--colours 64: exit ${rc}, want 0, 64 colours "
                        "and 0 violations\n${out}${err}")
endif()
message(STATUS "--colours 64: exit ${rc}")
