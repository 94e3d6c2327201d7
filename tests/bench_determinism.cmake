# Determinism gate for the benches and updsm_run. Virtual-time results are
# a pure function of the workload and config, so a bench must print the
# same stdout and write the same BENCH results whatever its --jobs,
# --workers or --gang, and on a rerun. A BENCH_*.json file opens with host
# provenance (host cores, workers, jobs, gang), which may differ; only its
# "results" object is compared.
#
# Each check is a list of entries; a command is a program path relative to
# BUILD_DIR followed by its flags, e.g. "bench/ablation_nodes --quick".
#   SAME      "CMD | V1 | V2 ...": CMD V1, CMD V2, ... all print the same
#             stdout and BENCH results (repeat a variant to check a rerun).
#   CHANGED   "CMD | V1 | V2 ...": CMD V2, ... each print other stdout than
#             CMD V1 (the variant reaches the simulation).
#   MATCH     "CMD | REGEX": the stdout plus BENCH results of CMD match.
#   NO_MATCH  "CMD | REGEX": ... do not match.
#   REJECT    "CMD | REGEX": CMD exits non-zero with stderr matching.
#   GOLDEN    "CMD | FILE": the stdout of CMD equals the committed FILE byte
#             for byte; a mismatch names FILE, the line number and the
#             first differing line of each side. With -DBLESS=ON the stdout
#             is written to FILE instead (tests/golden/README.md).
# MATCH and NO_MATCH reuse the output of a command run by an earlier check.
# Runs execute in WORK_DIR, so the BENCH files a run leaves are its own.
#   cmake -DBUILD_DIR=<build> -DWORK_DIR=<dir> -DSAME=... -P bench_determinism.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED BUILD_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DBUILD_DIR=<build tree> -DWORK_DIR=<scratch dir>")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs one command line; sets <var>_out (stdout), <var>_results (the
# results objects of the BENCH files it wrote), <var>_err, <var>_rc and
# <var>_key, and remembers the output of a successful run in seen_<key>.
function(run_command cmd var)
  separate_arguments(argv UNIX_COMMAND "${cmd}")
  string(JOIN " " cmd ${argv})
  string(MD5 key "${cmd}")
  list(POP_FRONT argv program)
  file(GLOB stale "${WORK_DIR}/BENCH_*.json")
  if(stale)
    file(REMOVE ${stale})
  endif()
  execute_process(COMMAND "${BUILD_DIR}/${program}" ${argv}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  set(results "")
  file(GLOB written "${WORK_DIR}/BENCH_*.json")
  foreach(json IN LISTS written)
    file(READ "${json}" raw)
    string(FIND "${raw}" "\n  \"provenance\": {" has_provenance)
    string(FIND "${raw}" "\n  \"results\": {" at)
    if(has_provenance EQUAL -1 OR at EQUAL -1)
      message(FATAL_ERROR "${json} (from ${cmd}) lacks provenance/results")
    endif()
    string(SUBSTRING "${raw}" ${at} -1 tail)
    string(APPEND results "${json}:${tail}")
  endforeach()
  foreach(part out results err rc key)
    set(${var}_${part} "${${part}}" PARENT_SCOPE)
  endforeach()
  if(rc EQUAL 0 AND NOT DEFINED seen_${key})
    set(seen_${key} "${out}${results}" PARENT_SCOPE)
  endif()
endfunction()

# run_command for a command that must succeed.
macro(run_ok cmd var)
  run_command("${cmd}" ${var})
  if(NOT ${var}_rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (${${var}_rc}): ${${var}_err}")
  endif()
endmacro()

foreach(kind SAME CHANGED)
  foreach(group IN LISTS ${kind})
    string(REPLACE "|" ";" variants "${group}")
    list(POP_FRONT variants base first)
    run_ok("${base} ${first}" ref)
    string(STRIP "${first}" first)
    foreach(variant IN LISTS variants)
      run_ok("${base} ${variant}" run)
      string(STRIP "${variant}" variant)
      if(kind STREQUAL "SAME" AND NOT ref_out STREQUAL run_out)
        message(FATAL_ERROR
          "${base}: stdout differs between '${first}' and '${variant}'")
      elseif(kind STREQUAL "SAME" AND NOT ref_results STREQUAL run_results)
        message(FATAL_ERROR
          "${base}: BENCH results differ between '${first}' and '${variant}'")
      elseif(kind STREQUAL "CHANGED" AND ref_out STREQUAL run_out)
        message(FATAL_ERROR
          "${base}: '${variant}' prints the same as '${first}'; the flag is "
          "not reaching the simulation")
      endif()
    endforeach()
    message(STATUS "${kind} ${group}: ok")
  endforeach()
endforeach()

foreach(kind MATCH NO_MATCH REJECT)
  foreach(entry IN LISTS ${kind})
    string(FIND "${entry}" "|" bar)
    string(SUBSTRING "${entry}" 0 ${bar} cmd)
    math(EXPR bar "${bar} + 1")
    string(SUBSTRING "${entry}" ${bar} -1 regex)
    string(REGEX REPLACE "^ +" "" regex "${regex}")
    separate_arguments(argv UNIX_COMMAND "${cmd}")
    string(JOIN " " cmd ${argv})
    string(MD5 key "${cmd}")
    if(kind STREQUAL "REJECT")
      run_command("${cmd}" run)
      if(run_rc EQUAL 0)
        message(FATAL_ERROR "${cmd} was accepted; it must fail")
      elseif(NOT run_err MATCHES "${regex}")
        message(FATAL_ERROR
          "${cmd}: error does not match '${regex}': ${run_err}")
      endif()
    else()
      if(NOT DEFINED seen_${key})
        run_ok("${cmd}" run)
      endif()
      if(kind STREQUAL "MATCH" AND NOT seen_${key} MATCHES "${regex}")
        message(FATAL_ERROR "${cmd}: output does not match '${regex}'")
      elseif(kind STREQUAL "NO_MATCH" AND seen_${key} MATCHES "${regex}")
        message(FATAL_ERROR "${cmd}: output matches '${regex}'")
      endif()
    endif()
    message(STATUS "${kind} ${cmd} | ${regex}: ok")
  endforeach()
endforeach()

foreach(entry IN LISTS GOLDEN)
  string(FIND "${entry}" "|" bar)
  string(SUBSTRING "${entry}" 0 ${bar} cmd)
  math(EXPR bar "${bar} + 1")
  string(SUBSTRING "${entry}" ${bar} -1 golden)
  string(STRIP "${golden}" golden)
  string(STRIP "${cmd}" cmd)
  run_ok("${cmd}" run)
  if(BLESS)
    file(WRITE "${golden}" "${run_out}")
    message(STATUS "GOLDEN ${cmd} | ${golden}: blessed")
    continue()
  endif()
  if(NOT EXISTS "${golden}")
    message(FATAL_ERROR "${golden} is missing; bless it from a trusted build")
  endif()
  file(READ "${golden}" want)
  if(NOT want STREQUAL run_out)
    # Walk both texts line by line to the first difference.
    set(line 1)
    set(rest_want "${want}")
    set(rest_got "${run_out}")
    while(1)
      foreach(side want got)
        if(rest_${side} STREQUAL "")
          set(line_${side} "<end>")
          continue()
        endif()
        string(FIND "${rest_${side}}" "\n" end)
        string(SUBSTRING "${rest_${side}}" 0 ${end} line_${side})
        if(end EQUAL -1)
          string(APPEND line_${side} "<no newline at end>")
          set(rest_${side} "")
        else()
          math(EXPR end "${end} + 1")
          string(SUBSTRING "${rest_${side}}" ${end} -1 rest_${side})
        endif()
      endforeach()
      # Lines plus the end markers spell out each text, so two different
      # texts part at some line; the <end> test is only a backstop.
      if(NOT line_want STREQUAL line_got OR line_want STREQUAL "<end>")
        break()
      endif()
      math(EXPR line "${line} + 1")
    endwhile()
    message(FATAL_ERROR "${cmd}: stdout differs from ${golden} at line "
      "${line}\n  golden: ${line_want}\n  actual: ${line_got}")
  endif()
  message(STATUS "GOLDEN ${cmd} | ${golden}: ok")
endforeach()
