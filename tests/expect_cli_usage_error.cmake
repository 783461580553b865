# Runs the edgeshed CLI with ARGS and fails unless it exits 2 with EXPECT
# in its stderr. Usage:
#   cmake -DCLI=<edgeshed> "-DARGS=reduce --methd=bm2" -DEXPECT=--methd -P <this>
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "edgeshed ${ARGS}: exit ${code}, want 2\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "edgeshed ${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
