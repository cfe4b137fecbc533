# Byte-identity check of the serve tools: run memsense_eval over the
# 50-request fixture (or, with -DSTDIN=ON, pipe the fixture into
# memsense_serve --stdio) and require its result stream to equal the
# checked-in golden byte for byte, order included. The serve tests in
# tests/CMakeLists.txt run it at several worker counts, warm, and
# through the server.
#
# Usage: cmake -DEVAL=<memsense_eval or memsense_serve>
#              -DREQUESTS=<fixture.jsonl> -DGOLDEN=<golden.jsonl>
#              -DOUT=<output file> "-DARGS=--jobs;8" [-DSTDIN=ON]
#              -P check_golden.cmake
foreach(var EVAL REQUESTS GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_golden.cmake: -D${var}= is required")
    endif()
endforeach()

get_filename_component(tool "${EVAL}" NAME)
string(REPLACE ";" " " args_text "${ARGS}")

if(STDIN)
    execute_process(
        COMMAND "${EVAL}" ${ARGS}
        INPUT_FILE "${REQUESTS}"
        OUTPUT_FILE "${OUT}"
        RESULT_VARIABLE eval_status)
else()
    execute_process(
        COMMAND "${EVAL}" --requests "${REQUESTS}" ${ARGS}
        OUTPUT_FILE "${OUT}"
        RESULT_VARIABLE eval_status)
endif()
if(NOT eval_status EQUAL 0)
    message(FATAL_ERROR "${tool} ${args_text} exited with ${eval_status}")
endif()

execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "${tool} ${args_text}: ${OUT} differs from ${GOLDEN} "
        "(diff them to see which replies moved)")
endif()
message(STATUS "${tool} ${args_text}: byte-identical to the golden")
