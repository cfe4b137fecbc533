# Byte-identity check of the batch evaluation service: run
# memsense_eval over the 50-request fixture and require its result
# stream to equal the checked-in golden byte for byte. The serve tests
# in tests/CMakeLists.txt run it at several worker counts and warm.
#
# Usage: cmake -DEVAL=<memsense_eval> -DREQUESTS=<fixture.jsonl>
#              -DGOLDEN=<golden.jsonl> -DOUT=<output file>
#              "-DARGS=--jobs;8" -P check_golden.cmake
foreach(var EVAL REQUESTS GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_golden.cmake: -D${var}= is required")
    endif()
endforeach()

string(REPLACE ";" " " args_text "${ARGS}")

execute_process(
    COMMAND "${EVAL}" --requests "${REQUESTS}" ${ARGS}
    OUTPUT_FILE "${OUT}"
    RESULT_VARIABLE eval_status)
if(NOT eval_status EQUAL 0)
    message(FATAL_ERROR "memsense_eval ${args_text} exited with ${eval_status}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "memsense_eval ${args_text}: ${OUT} differs from ${GOLDEN} "
        "(diff them to see which replies moved)")
endif()
message(STATUS "memsense_eval ${args_text}: byte-identical to the golden")
