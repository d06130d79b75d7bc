# Run an ecctool subcommand and its bench twin, each writing a run
# manifest, and require the named payload sections to be equal — the
# proof that the two front-ends share one implementation. Usage:
#
#   cmake "-DTOOL=<ecctool> campaign --runs=25"
#         "-DTWIN=<bench_fault_campaign> --quick"
#         -DSECTIONS=models,overhead -P twin_sections_equal.cmake
#
# Both commands get a --json=PATH appended; the manifests land in the
# working directory, named after the twin so that tests of different
# pairs can run in parallel.
string(REPLACE "," ";" SECTIONS "${SECTIONS}")
separate_arguments(twin_cmd UNIX_COMMAND "${TWIN}")
list(GET twin_cmd 0 twin_exe)
get_filename_component(twin "${twin_exe}" NAME_WE)
foreach(side TOOL TWIN)
  separate_arguments(cmd UNIX_COMMAND "${${side}}")
  set(out "${CMAKE_CURRENT_BINARY_DIR}/twin_${twin}_${side}.json")
  execute_process(COMMAND ${cmd} --json=${out}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${${side}}' exited with ${rc}")
  endif()
  file(READ "${out}" doc_${side})
endforeach()
foreach(section IN LISTS SECTIONS)
  string(JSON tool_part GET "${doc_TOOL}" payload ${section})
  string(JSON twin_part GET "${doc_TWIN}" payload ${section})
  if(NOT tool_part STREQUAL twin_part)
    message(FATAL_ERROR "payload.${section} differs between '${TOOL}' and "
                        "'${TWIN}':\n${tool_part}\nvs\n${twin_part}")
  endif()
endforeach()
message(STATUS "payload sections equal: ${SECTIONS}")
