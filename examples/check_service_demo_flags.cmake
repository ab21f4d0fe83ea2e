# Drives service_demo with malformed flags (numeric values that are not
# whole in-range integers, an unknown balancer) and requires each run to
# print the usage line and exit 2 before it builds anything.
#
#   cmake -DSERVICE_DEMO=path/to/service_demo -P check_service_demo_flags.cmake
if(NOT SERVICE_DEMO)
  message(FATAL_ERROR "pass -DSERVICE_DEMO=<path to the service_demo binary>")
endif()

set(bad_flags
  --nodes=12abc        # trailing bytes
  --nodes=4294967299   # 2^32 + 3: past INT32_MAX, and 3 if truncated
  --nodes=2147483648   # INT32_MAX + 1
  --nodes=abc
  --nodes=
  --nodes=2            # a cycle needs 3 nodes
  --nodes=-5
  "--nodes= 12"        # leading whitespace
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

set(failures 0)
foreach(flag IN LISTS bad_flags)
  execute_process(COMMAND ${SERVICE_DEMO} ${flag}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage: service_demo")
    message(SEND_ERROR "'${flag}': exit ${code}, stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

list(LENGTH bad_flags total)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${total} malformed flags were not refused")
endif()
message(STATUS "all ${total} malformed flags refused with exit 2")
