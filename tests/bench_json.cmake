# Helper for the bench_*_determinism scripts. Every BENCH_*.json file opens
# with host provenance (write_host_env_json in bench/bench_common.hpp): the
# host's core count and the resolved --workers count. Both are stamped on
# purpose, and both differ between hosts and between runs that vary
# --workers, so a determinism check compares each file with those two
# values masked. The stamps stay in the files.
#   include(${CMAKE_CURRENT_LIST_DIR}/bench_json.cmake)
#   read_bench_results(${BENCH_DIR}/BENCH_x.json json_x)
function(read_bench_results path out_var)
  file(READ "${path}" raw)
  string(REGEX REPLACE "\"(host_cores|workers)\": [0-9]+" "\"\\1\": X"
         raw "${raw}")
  set(${out_var} "${raw}" PARENT_SCOPE)
endfunction()
