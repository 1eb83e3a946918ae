# Flag-contract smoke for both daemons, whose help text and flag checks are
# generated from one flag table each: `--help` exits 0 and lists every
# flag with its default; bad input exits 2 with the usage text on stderr;
# the defaults that name a constant show the constant's value; and
# opaq_queryd's startup line names the wire versions it really serves.
#
# Driven by ctest:
#   cmake -DOPAQ_CLI=... -DOPAQ_NODED=... -DOPAQ_QUERYD=... -DWORK_DIR=...
#         -P daemon_flags_smoke.cmake

if(NOT DEFINED OPAQ_CLI OR NOT DEFINED OPAQ_NODED OR NOT DEFINED OPAQ_QUERYD
   OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "daemon_flags_smoke.cmake needs -DOPAQ_CLI/"
                      "-DOPAQ_NODED/-DOPAQ_QUERYD/-DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(DATA "${WORK_DIR}/data.opaq")

# Every declared flag with the default its help must show ("..." = none).
set(NODED_FLAGS
    "--export=..." "--live=..." "--bind=127.0.0.1" "--port=34601"
    "--max-read-bytes=4194304" "--delay-ms=0"
    "--duration=0" "--stats-interval=0")
set(QUERYD_FLAGS
    "--serve=..." "--watch=..." "--bind=127.0.0.1" "--port=34602"
    "--run-size=1048576" "--samples=1024" "--seed=1"
    "--refresh-interval=0" "--exact-delay-ms=0" "--delay-ms=0"
    "--duration=0" "--stats-interval=0")

# Runs `binary args...` with a timeout so a daemon that wrongly starts
# serving cannot hang the test.
function(run_daemon binary out_code out_stdout out_stderr)
  execute_process(
    COMMAND "${binary}" ${ARGN}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code
    TIMEOUT 30
  )
  set(${out_code} "${code}" PARENT_SCOPE)
  set(${out_stdout} "${stdout}" PARENT_SCOPE)
  set(${out_stderr} "${stderr}" PARENT_SCOPE)
endfunction()

# `name`: the daemon's program name; `dataset_flag`: a well-formed dataset
# list, so each bad-input row fails on its one bad flag alone (the missing
# file would only fail later, with exit 1).
function(check_daemon name binary dataset_flag)
  run_daemon("${binary}" code out err --help)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${name} --help exited ${code}:\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "usage: ${name} \\[flags\\]")
    message(FATAL_ERROR "${name} --help prints no usage line:\n${out}")
  endif()
  foreach(flag IN LISTS ARGN)
    string(FIND "${out}" "  ${flag} " at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${name} --help does not list '${flag}':\n${out}")
    endif()
  endforeach()

  set(bad_inputs
      "--no-such-flag=1" "--port=99999" "--port=" "--stats-interval=-1"
      "--max-wire-version=0" "stray-positional")
  foreach(bad IN LISTS bad_inputs)
    run_daemon("${binary}" code out err "${dataset_flag}" "${bad}")
    if(NOT code EQUAL 2)
      message(FATAL_ERROR
              "${name} ${bad} exited ${code}, want 2 (usage):\n${out}\n${err}")
    endif()
    if(NOT err MATCHES "usage: ${name} \\[flags\\]")
      message(FATAL_ERROR "${name} ${bad} shows no usage on stderr:\n${err}")
    endif()
  endforeach()
  run_daemon("${binary}" code out err --port=0)
  if(NOT code EQUAL 2 OR NOT err MATCHES "usage: ${name} \\[flags\\]")
    message(FATAL_ERROR "${name} with nothing to serve exited ${code}, "
                        "want 2 with usage:\n${out}\n${err}")
  endif()
endfunction()

check_daemon(opaq_noded "${OPAQ_NODED}" "--export=d=${WORK_DIR}/missing"
             ${NODED_FLAGS})
check_daemon(opaq_queryd "${OPAQ_QUERYD}" "--serve=d=${WORK_DIR}/missing"
             ${QUERYD_FLAGS})

# The startup line names the served wire versions: query ops arrive at v3,
# and the v6 STATS op `opaq_cli stats` polls is answered too.
execute_process(
  COMMAND "${OPAQ_CLI}" generate --out=${DATA} --n=5000 --dist=sequential
  RESULT_VARIABLE gen_code
  OUTPUT_VARIABLE gen_out
  ERROR_VARIABLE gen_err
)
if(NOT gen_code EQUAL 0)
  message(FATAL_ERROR "generate failed:\n${gen_out}\n${gen_err}")
endif()
run_daemon("${OPAQ_QUERYD}" code out err --serve=d=${DATA} --port=0
           --run-size=1000 --samples=100 --duration=0.2)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "opaq_queryd exited ${code}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "serving on [0-9.:]+ \\(protocol v3\\.\\.6,")
  message(FATAL_ERROR
          "opaq_queryd's startup line does not name protocol v3..6:\n${out}")
endif()

message(STATUS "daemon flag smoke ok: opaq_noded and opaq_queryd")
