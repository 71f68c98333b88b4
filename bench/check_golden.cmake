# Runs one paper binary at OPS instructions, once with one worker
# thread and once with four, and fails unless both standard outputs
# equal GOLDEN byte for byte.  A differing output is written next to
# ACTUAL (suffixed .jobs1 / .jobs4) so it can be diffed.  Needs only
# CMake:
#
#   cmake -DBIN=build/bench/table7_tagged_indexing -DOPS=20000 \
#         -DGOLDEN=tests/golden/paper/table7_tagged_indexing.txt \
#         -DACTUAL=/tmp/table7 -P bench/check_golden.cmake
#
# A change that means to move a rendered number regenerates the golden
# file in the same diff (`BIN OPS > GOLDEN`).
foreach(var BIN OPS GOLDEN ACTUAL)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
    endif()
endforeach()

file(READ "${GOLDEN}" want)
foreach(jobs 1 4)
    # Only TPRED_JOBS may vary; no other setting may reach the binary.
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env
                --unset=TPRED_OPS --unset=TPRED_CORPUS_DIR
                --unset=TPRED_REPORT --unset=TPRED_VERBOSE
                "TPRED_JOBS=${jobs}" "${BIN}" "${OPS}"
        OUTPUT_VARIABLE got
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${BIN} ${OPS} (TPRED_JOBS=${jobs}) failed: "
                            "${status}")
    endif()
    if(NOT got STREQUAL want)
        file(WRITE "${ACTUAL}.jobs${jobs}" "${got}")
        message(FATAL_ERROR
            "${BIN} ${OPS} (TPRED_JOBS=${jobs}) differs from ${GOLDEN}; "
            "see: diff ${GOLDEN} ${ACTUAL}.jobs${jobs}")
    endif()
endforeach()
