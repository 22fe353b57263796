# Loopback round-trip for the TCP service plane: `cooper_cli serve
# --listen` serves a trace_gen trace to a multi-connection load_gen
# replay, and the summary every party ends up holding — the server's
# --out, each client's received Summary bytes — must be byte-identical
# to the in-process `cooper_cli serve --trace` replay of the same
# (trace, seed, config). Both drivers (flat and sharded) are held to
# it.
# Dispatch hygiene rides along: unknown subcommands and unknown flags
# are hard failures that name the offender.
function(run_step)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}${err}")
    endif()
    message(STATUS "${out}")
endfunction()

# Expect nonzero exit AND the named offender in the diagnostics.
function(expect_failure_naming pattern)
    set(cmd ${ARGV})
    list(REMOVE_AT cmd 0)
    execute_process(COMMAND ${cmd} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(code EQUAL 0)
        message(FATAL_ERROR
                "step was expected to fail but passed: ${cmd}\n${out}")
    endif()
    if(NOT "${out}${err}" MATCHES "${pattern}")
        message(FATAL_ERROR
                "failure did not name '${pattern}': ${cmd}\n${out}${err}")
    endif()
    message(STATUS "rejected as expected: ${err}")
endfunction()

function(require_identical a b what)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORKDIR}/${a} ${WORKDIR}/${b}
                    RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "${what}: ${a} and ${b} differ")
    endif()
endfunction()

function(wait_for_file path what)
    foreach(attempt RANGE 300)
        if(EXISTS ${WORKDIR}/${path})
            return()
        endif()
        execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
    endforeach()
    message(FATAL_ERROR "${what}: timed out waiting for ${path}")
endfunction()

# The port file existing is not enough — the server creates it, then
# writes the port, and the read below must not land in between. Poll
# until the content is an actual port number.
function(wait_for_port_file path out_var what)
    foreach(attempt RANGE 300)
        if(EXISTS ${WORKDIR}/${path})
            file(READ ${WORKDIR}/${path} port)
            string(STRIP "${port}" port)
            if(port MATCHES "^[0-9]+$")
                set(${out_var} "${port}" PARENT_SCOPE)
                return()
            endif()
        endif()
        execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
    endforeach()
    message(FATAL_ERROR "${what}: timed out waiting for ${path}")
endfunction()

# Serve one --listen run in the background and replay the trace into
# it with load_gen; ${tag}_server.json / ${tag}_client.json hold the
# two summaries afterwards. The done-marker (written after the server
# process exits) is what closes the race between "summary file exists"
# and "summary file is fully written".
function(serve_round_trip tag connections)
    set(server_flags ${ARGN})
    file(REMOVE ${WORKDIR}/${tag}_port.txt ${WORKDIR}/${tag}_done.txt)
    string(JOIN " " server_args ${server_flags})
    execute_process(
        COMMAND sh -c "{ ${CLI} serve --listen --port-file ${tag}_port.txt \
--trace serve_net_trace.txt ${server_args} --out ${tag}_server.json \
> ${tag}_server.log 2>&1; echo done > ${tag}_done.txt; } \
< /dev/null > /dev/null 2>&1 &"
        WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "${tag}: failed to launch the server")
    endif()
    wait_for_port_file(${tag}_port.txt port
                       "${tag}: server never came up")
    run_step(${LOAD_GEN} --trace serve_net_trace.txt --port ${port}
             --connections ${connections} --out ${tag}_client.json)
    wait_for_file(${tag}_done.txt "${tag}: server never exited")
endfunction()

# Dispatch hygiene: a typo must name itself, never silently no-op.
expect_failure_naming("unknown subcommand 'frobnicate'"
                      ${CLI} frobnicate --seed 1)
expect_failure_naming("unknown flag --no-such-flag"
                      ${CLI} serve --no-such-flag)

run_step(${TRACE_GEN} --arrivals 120 --initial 16 --mean-gap 8
         --mean-life 400 --seed 7 --out serve_net_trace.txt)

# Flat driver: the in-process replay is the reference.
run_step(${CLI} serve --trace serve_net_trace.txt --seed 11
         --threads 2 --out serve_net_ref.json)

serve_round_trip(serve_net_flat 3 --seed 11 --threads 2)
require_identical(serve_net_ref.json serve_net_flat_server.json
                  "served summary diverged from in-process")
require_identical(serve_net_ref.json serve_net_flat_client.json
                  "client summary diverged from in-process")

# Sharded fleet behind the same socket plane.
run_step(${CLI} serve --trace serve_net_trace.txt --seed 11
         --threads 2 --shards 4 --out serve_net_shard_ref.json)

serve_round_trip(serve_net_shard 3 --seed 11 --threads 2 --shards 4)
require_identical(serve_net_shard_ref.json serve_net_shard_server.json
                  "served sharded summary diverged from in-process")
require_identical(serve_net_shard_ref.json serve_net_shard_client.json
                  "sharded client summary diverged from in-process")
