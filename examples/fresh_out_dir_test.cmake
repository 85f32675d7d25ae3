# Runs surveillance_report into fresh nested output directories, ungoverned
# and governed (--checkpoint-dir), and checks each wrote analysis.json.
# Invoked by ctest with -DREPORT=<binary> -DROOT=<scratch dir>.
file(REMOVE_RECURSE ${ROOT})
foreach(mode ungoverned governed)
  set(out ${ROOT}/${mode}/nested/out)
  if(mode STREQUAL "governed")
    set(extra --checkpoint-dir=${ROOT}/${mode}/checkpoints)
  else()
    set(extra "")
  endif()
  execute_process(COMMAND ${REPORT} ${out} 1500 5 ${extra}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${mode} run into ${out} exited with ${rc}")
  endif()
  if(NOT EXISTS ${out}/analysis.json)
    message(FATAL_ERROR "${mode} run wrote no ${out}/analysis.json")
  endif()
endforeach()
file(REMOVE_RECURSE ${ROOT})
