# End-to-end smoke of the `bdi serve` loop, run by ctest as ServeSmoke
# (see tests/CMakeLists.txt): generate a tiny corpus, start the server on
# stdio, pipe a stats query, a find, a malformed line, an update batch and
# a shutdown through it, and check every response line came back. Then
# check that `bdi ask` and `bdi serve` answer one question alike, and that
# a durable server survives a restart.
#
#   cmake -DBDI_CLI=<bdi binary> -DWORK_DIR=<scratch dir> -P serve_smoke.cmake
if(NOT DEFINED BDI_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
      "usage: cmake -DBDI_CLI=<bdi> -DWORK_DIR=<dir> -P serve_smoke.cmake")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
set(corpus ${WORK_DIR}/corpus.csv)
execute_process(
    COMMAND ${BDI_CLI} generate --out ${corpus}
            --entities 40 --sources 5 --seed 11
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi generate failed (${rc})")
endif()

set(requests ${WORK_DIR}/requests.jsonl)
file(WRITE ${requests} "{\"op\":\"stats\",\"id\":1}
{\"op\":\"find\",\"id\":2,\"entity\":\"camera\",\"k\":3}
not json
{\"op\":\"update\",\"id\":3,\"records\":[{\"source\":\"smoke-src\",\"fields\":{\"name\":\"Smoke Test Entity\",\"weight\":\"1 g\"}}]}
{\"op\":\"stats\",\"id\":4}
{\"op\":\"shutdown\",\"id\":5}
")

execute_process(
    COMMAND ${BDI_CLI} serve --in ${corpus} --shards 4
    INPUT_FILE ${requests}
    OUTPUT_VARIABLE responses
    ERROR_VARIABLE banner
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi serve exited ${rc}: ${banner}")
endif()

# One expected fragment per request line: the bootstrap snapshot answers
# v=1, the malformed line turns into an ok:false error (never a crash),
# the update publishes v=2 and the follow-up stats sees it, shutdown says
# bye and the process exited 0 above.
foreach(needle
    "\"ok\":true,\"id\":1,\"v\":1"
    "\"ok\":true,\"id\":2,\"v\":1"
    "\"ok\":false,\"error\":"
    "\"ok\":true,\"id\":3,\"v\":2"
    "\"ok\":true,\"id\":4,\"v\":2"
    "\"bye\":true")
  string(FIND "${responses}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "serve response missing '${needle}'; full output:\n${responses}")
  endif()
endforeach()

# One-engine leg: `bdi ask` answers through a one-shard snapshot of a
# batch integration, `bdi serve` through its sharded snapshot of the
# store's bootstrap. Both must print the same value, confidence and
# support for the same question. The two processes reach their reports
# through different linkage paths (the batch Linker's blocking vs the
# store's IncrementalLinker candidate harvest), and on this corpus those
# fuse different confidences for a few entities; the question below is
# one both integrations resolve to the same fused cell, so a difference
# here is the query path's.
function(pad_right text width out)
  string(LENGTH "${text}" length)
  while(length LESS width)
    string(APPEND text " ")
    math(EXPR length "${length} + 1")
  endwhile()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

function(check_ask_matches_serve)
  set(ask_entity "Draeo ID-7010")
  set(ask_attribute "brand")
  set(ask_requests ${WORK_DIR}/ask_requests.jsonl)
  file(WRITE ${ask_requests}
      "{\"op\":\"ask\",\"id\":20,\"entity\":\"${ask_entity}\","
      "\"attribute\":\"${ask_attribute}\"}\n"
      "{\"op\":\"shutdown\",\"id\":21}\n")
  execute_process(
      COMMAND ${BDI_CLI} serve --in ${corpus} --shards 4
      INPUT_FILE ${ask_requests}
      OUTPUT_VARIABLE served
      ERROR_VARIABLE banner
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bdi serve (ask leg) exited ${rc}: ${banner}")
  endif()
  execute_process(
      COMMAND ${BDI_CLI} ask --in ${corpus}
              --attribute ${ask_attribute} --entity ${ask_entity}
      OUTPUT_VARIABLE asked
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bdi ask exited ${rc}")
  endif()
  string(REGEX MATCH "^[^\n]*" served "${served}")
  string(JSON found GET "${served}" found)
  if(NOT found)
    message(FATAL_ERROR "bdi serve found no answer:\n${served}")
  endif()
  string(JSON served_attribute GET "${served}" attribute)
  string(JSON served_entity GET "${served}" entity)
  string(JSON served_value GET "${served}" value)
  string(JSON served_confidence GET "${served}" confidence)
  set(header "${served_attribute} of \"${served_entity}\" = ${served_value}")
  string(FIND "${asked}" "${header}  (confidence " at)
  if(NOT at EQUAL 0)
    message(FATAL_ERROR
        "bdi ask and bdi serve disagree: expected '${header}'\n"
        "ask:\n${asked}\nserve:\n${served}")
  endif()
  # `bdi ask` prints the confidence to two decimals: it must be the served
  # value rounded, i.e. within 0.005 of it (compared in millionths).
  string(REGEX MATCH "\\(confidence ([0-9]+)\\.([0-9][0-9])\\)" _ "${asked}")
  math(EXPR asked_micros "${CMAKE_MATCH_1} * 1000000 + 1${CMAKE_MATCH_2} * 10000 - 1000000")
  if(NOT served_confidence MATCHES "^([0-9]+)(\\.([0-9]*))?$")
    message(FATAL_ERROR "unexpected served confidence '${served_confidence}'")
  endif()
  set(fraction "${CMAKE_MATCH_3}000000")
  string(SUBSTRING "${fraction}" 0 6 fraction)
  math(EXPR served_micros "${CMAKE_MATCH_1} * 1000000 + 1${fraction} - 1000000")
  math(EXPR gap "${asked_micros} - ${served_micros}")
  if(gap GREATER 5000 OR gap LESS -5000)
    message(FATAL_ERROR
        "confidence differs: ask printed ${asked_micros}e-6, serve sent "
        "${served_confidence}")
  endif()
  # Support: one `bdi ask` line per served claim, printf'd as
  # "  %-24s %-16s agrees|dissents".
  string(JSON num_support LENGTH "${served}" support)
  string(REGEX MATCHALL "\n  " asked_support "${asked}")
  list(LENGTH asked_support num_asked_support)
  if(NOT num_asked_support EQUAL num_support)
    message(FATAL_ERROR
        "bdi ask printed ${num_asked_support} support lines, bdi serve sent "
        "${num_support}:\n${asked}")
  endif()
  math(EXPR last_support "${num_support} - 1")
  foreach(i RANGE ${last_support})
    string(JSON source GET "${served}" support ${i} source)
    string(JSON value GET "${served}" support ${i} value)
    string(JSON agrees GET "${served}" support ${i} agrees)
    pad_right("${source}" 24 source)
    pad_right("${value}" 16 value)
    if(agrees)
      set(verdict "agrees")
    else()
      set(verdict "dissents")
    endif()
    string(FIND "${asked}" "\n  ${source} ${value} ${verdict}\n" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
          "bdi ask lacks served claim ${i} ('${source} ${value} ${verdict}'):"
          "\n${asked}")
    endif()
  endforeach()
endfunction()

# string(JSON) needs CMake 3.19; older CMake runs the other legs only.
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(STATUS "serve smoke: bdi ask leg needs CMake >= 3.19, skipped")
else()
  check_ask_matches_serve()
endif()

# Restart leg: run the same session with --wal, stop cleanly, then restart
# on the same log with the same bootstrap. The replayed store must already
# be at v2 with the batch counted — durable serving survives a restart.
set(wal ${WORK_DIR}/serve.wal)
file(REMOVE ${wal})
execute_process(
    COMMAND ${BDI_CLI} serve --in ${corpus} --shards 4 --wal ${wal}
    INPUT_FILE ${requests}
    OUTPUT_VARIABLE responses
    ERROR_VARIABLE banner
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi serve --wal exited ${rc}: ${banner}")
endif()
string(FIND "${responses}" "\"ok\":true,\"id\":3,\"v\":2" at)
if(at EQUAL -1)
  message(FATAL_ERROR
      "durable serve lost the update; full output:\n${responses}")
endif()

set(restart_requests ${WORK_DIR}/restart_requests.jsonl)
file(WRITE ${restart_requests} "{\"op\":\"stats\",\"id\":10}
{\"op\":\"shutdown\",\"id\":11}
")
execute_process(
    COMMAND ${BDI_CLI} serve --in ${corpus} --shards 4 --wal ${wal}
    INPUT_FILE ${restart_requests}
    OUTPUT_VARIABLE responses
    ERROR_VARIABLE banner
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bdi serve restart exited ${rc}: ${banner}")
endif()
string(FIND "${banner}" "1 batches replayed" replayed_at)
if(replayed_at EQUAL -1)
  message(FATAL_ERROR
      "restart did not replay the WAL; banner:\n${banner}")
endif()
foreach(needle
    "\"ok\":true,\"id\":10,\"v\":2"
    "\"batches\":1")
  string(FIND "${responses}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
        "restarted serve missing '${needle}'; full output:\n${responses}")
  endif()
endforeach()
message(STATUS "serve smoke ok")
