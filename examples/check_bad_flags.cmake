# Drives a binary with malformed flags (numeric values that are not whole
# in-range numbers, unknown flags or names) and requires each run to
# print its usage line and exit 2 instead of running.
#
#   cmake -DPROGRAM=path/to/binary -DNAME=service_demo -P check_bad_flags.cmake
#
# NAME picks the case table below; each case is one command line.
if(NOT PROGRAM OR NOT NAME)
  message(FATAL_ERROR "pass -DPROGRAM=<path to the binary> -DNAME=<its name>")
endif()

if(NAME STREQUAL "service_demo")
  set(cases
    --nodes=12abc        # trailing bytes
    --nodes=4294967299   # 2^32 + 3: past INT32_MAX, and 3 if truncated
    --nodes=2147483648   # INT32_MAX + 1
    --nodes=abc
    --nodes=
    --nodes=2            # a cycle needs 3 nodes
    --nodes=-5
    "--nodes=\\ 12"      # leading whitespace
    --nodes=+12
    --cap=0
    --cap=-1
    --cap=99999999999999999999
    --rounds=-1
    --rounds=1.5
    --stop-after=-2
    --checkpoint-interval=-1
    --metrics-interval=x
    --balancer=NOPE      # not a registered balancer
  )
elseif(NAME STREQUAL "bench_irregular")
  set(cases
    --threads=2abc       # atoi would run 2 threads
    --threads=abc        # atoi would run the automatic count
    --threads=
    --threads=-1
    "--threads=\\ 2"
    --threads=+2
    --threads=4294967298
    --threads=1.5
    --bogus
  )
elseif(NAME STREQUAL "dlb_sim")
  set(cases
    "--graph cycle:12abc --algo floor"
    "--graph cycle:abc --algo floor"
    "--graph torus:4x5y --algo floor"
    "--graph random:16:4x --algo floor"
    "--graph cycle:8 --algo floor --k 10x"
    "--graph cycle:8 --algo floor --loops 1.5"
    "--graph cycle:8 --algo floor --multiplier abc"
    "--graph cycle:8 --algo floor --multiplier 2x"
    "--graph cycle:8 --algo floor --samples 4294967300"
    "--graph cycle:8 --algo floor --seed -1"
    "--graph cycle:8 --algo floor --seed 12q"
    "--graph cycle:8 --algo nope"
  )
else()
  message(FATAL_ERROR "no case table for NAME=${NAME}")
endif()

set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND ${PROGRAM} ${args}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage: ${NAME}")
    message(SEND_ERROR "'${case}': exit ${code}, stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

list(LENGTH cases total)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${total} malformed flags were not refused")
endif()
message(STATUS "all ${total} malformed command lines refused with exit 2")
