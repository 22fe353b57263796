# Runs bench_regression, bench_online, bench_faults, bench_shard,
# bench_serve, and bench_coalition at smoke-test sizes and validates
# each emitted cooper.bench.v2 document with bench_json. Timing floors
# are mostly left to CI's wide sanity floors and the nightly full-size
# runs. Two floors hold here because tiny sizes cannot flake them:
# runs_per_server.ratio >= 0.5 only asserts that hosting N runs
# concurrently costs at most 2x serving them back to back, and the
# coalition ceiling counts blocking coalitions, not seconds — the
# formation seeds from the packed-pairs baseline among its candidates
# and only improves, making g<G>.blocking_ratio <= 1 structural.
#
# Then every gate bench_json enforces gets a rejecting case: corrupt
# documents (unreadable, empty, truncated, blank), and one mutation
# per gate of a real tiny document (string(JSON), CMake >= 3.19),
# each of which must exit 1 with a message naming the field. Failing
# floors must name every offender with measured-vs-required values,
# and a floor naming a field the document lacks must fail.
cmake_minimum_required(VERSION 3.19)

function(run_step)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}${err}")
    endif()
    message(STATUS "${out}")
endfunction()

# expect_rejected(<pattern> <command...>): exit 1, naming <pattern>.
function(expect_rejected pattern)
    set(cmd ${ARGV})
    list(REMOVE_AT cmd 0)
    execute_process(COMMAND ${cmd} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 1)
        message(FATAL_ERROR
                "expected exit 1, got ${code}: ${cmd}\n${out}${err}")
    endif()
    if(NOT "${out}${err}" MATCHES "${pattern}")
        message(FATAL_ERROR
                "rejection lacks '${pattern}': ${cmd}\n${out}${err}")
    endif()
    message(STATUS "rejected as expected: ${err}")
endfunction()

run_step(${BENCH} --tiny --out bench_smoke_kernels.json)
run_step(${BENCH_JSON} --file bench_smoke_kernels.json)

run_step(${BENCH_ONLINE} --tiny --out bench_smoke_online.json)
run_step(${BENCH_JSON} --file bench_smoke_online.json)

run_step(${BENCH_FAULTS} --tiny --out bench_smoke_faults.json)
run_step(${BENCH_JSON} --file bench_smoke_faults.json)

run_step(${BENCH_SHARD} --tiny --out bench_smoke_shard.json)
run_step(${BENCH_JSON} --file bench_smoke_shard.json)

run_step(${BENCH_SERVE} --tiny --out bench_smoke_serve.json)
run_step(${BENCH_JSON} --file bench_smoke_serve.json
         --min runs_per_server.ratio=0.5)

run_step(${BENCH_COALITION} --tiny --out bench_smoke_coalition.json)
run_step(${BENCH_JSON} --file bench_smoke_coalition.json
         --max g3.blocking_ratio=1,g4.blocking_ratio=1)

# Floors: every offender named with measured-vs-required values, then
# the count; an absent field is an offender too.
expect_rejected(
    "runs_per_server.ratio: measured .* is below the required 10000"
    ${BENCH_JSON} --file bench_smoke_serve.json
    --min runs_per_server.ratio=10000)
expect_rejected("2 floor\\(s\\) not met"
    ${BENCH_JSON} --file bench_smoke_serve.json
    --min runs_per_server.ratio=10000,serve.ratio=10000)
expect_rejected(
    "g2.blocking_ratio: measured .* exceeds the allowed 0"
    ${BENCH_JSON} --file bench_smoke_coalition.json
    --max g2.blocking_ratio=0)
expect_rejected("no_such.ratio: the document has no such number"
    ${BENCH_JSON} --file bench_smoke_kernels.json
    --min no_such.ratio=1)
expect_rejected("bad --max entry \"g2.blocking_ratio=1x\""
    ${BENCH_JSON} --file bench_smoke_coalition.json
    --max g2.blocking_ratio=1x)

# Corruption: a bench run that crashed mid-write must not validate.
expect_rejected("cannot open .no_such_file.json"
    ${BENCH_JSON} --file no_such_file.json)
file(WRITE ${WORKDIR}/bench_smoke_empty.json "")
expect_rejected("is empty" ${BENCH_JSON} --file bench_smoke_empty.json)
file(READ ${WORKDIR}/bench_smoke_faults.json whole_doc)
string(LENGTH "${whole_doc}" whole_len)
math(EXPR half_len "${whole_len} / 2")
string(SUBSTRING "${whole_doc}" 0 ${half_len} half_doc)
file(WRITE ${WORKDIR}/bench_smoke_truncated.json "${half_doc}")
expect_rejected("parseJson: .* at offset"
    ${BENCH_JSON} --file bench_smoke_truncated.json)
file(WRITE ${WORKDIR}/bench_smoke_blank.json "  \n\t\n")
expect_rejected("is empty" ${BENCH_JSON} --file bench_smoke_blank.json)

# mutant(<bench> <pattern> <string(JSON) op and args>): edit one field
# of that bench's tiny document; bench_json must reject it by name.
function(mutant bench pattern op)
    file(READ ${WORKDIR}/bench_smoke_${bench}.json doc)
    string(JSON doc ${op} "${doc}" ${ARGN})
    file(WRITE ${WORKDIR}/bench_smoke_mutant.json "${doc}")
    expect_rejected("${pattern}"
        ${BENCH_JSON} --file bench_smoke_mutant.json)
endfunction()

# Schema and bench.
mutant(kernels "cooper.bench.v1" SET schema "\"cooper.bench.v1\"")
mutant(kernels "unknown bench \"nope\"" SET bench "\"nope\"")
# Workload: required sizes are numbers; tiny is a boolean.
mutant(kernels "workload.matrix is not a number"
       SET workload matrix "\"24\"")
mutant(online "workload lacks \"epochs\"" REMOVE workload epochs)
mutant(kernels "workload.tiny is not a boolean" SET workload tiny 1)
# Phases: required ones present; equal true on every phase, with or
# without a baseline; a phase with a baseline has a positive ratio;
# seconds are non-negative.
mutant(kernels "phases lacks \"predict\"" REMOVE phases predict)
mutant(kernels "phases.similarity.equal is false"
       SET phases similarity equal false)
mutant(serve "phases.serve.equal is false" SET phases serve equal false)
mutant(serve "phases.runs_per_server.equal is false"
       SET phases runs_per_server equal false)
mutant(online "phases.predict.ratio is not positive"
       SET phases predict ratio 0)
mutant(kernels "phases.shapley.optimized is negative"
       SET phases shapley optimized -1)
mutant(shard "phases.scale2.baseline is negative"
       SET phases scale2 baseline -1)
# Values: online counters.
mutant(online "values.online.migrations is -1"
       SET values online.migrations -1)
mutant(online "values lacks \"online.recomputed_pairs\""
       REMOVE values online.recomputed_pairs)
# Faults: counters non-negative, injected and throughput positive.
mutant(faults "values.faults.retries is -1" SET values faults.retries -1)
mutant(faults "values.faults.injected is 0" SET values faults.injected 0)
mutant(faults "values.faults.throughput_ratio is 0"
       SET values faults.throughput_ratio 0)
# Shard rows: non-negative, shards >= 1, efficiency > 0, complete.
mutant(shard "values.k1.migrations is -1" SET values k1.migrations -1)
mutant(shard "values.k2.shards is 0" SET values k2.shards 0)
mutant(shard "values.k2.efficiency is 0" SET values k2.efficiency 0)
mutant(shard "values lacks \"k2.efficiency\"" REMOVE values k2.efficiency)
# Serve latency: non-negative, a positive sustained rate.
mutant(serve "values.latency.rtt_p99_ms is -1"
       SET values latency.rtt_p99_ms -1)
mutant(serve "values.latency.arrivals_per_sec is 0"
       SET values latency.arrivals_per_sec 0)
# Coalition rows: non-negative, fairness a rank correlation, group
# size >= 2, formation identical across thread counts.
mutant(coalition "values.g3.blocking_sr is -1"
       SET values g3.blocking_sr -1)
mutant(coalition "values.g3.fairness_sr is 1.5"
       SET values g3.fairness_sr 1.5)
mutant(coalition "values.g2.group_size is 1" SET values g2.group_size 1)
mutant(coalition "values.g3.identical_across_threads is not true"
       SET values g3.identical_across_threads false)

# Row counts: one shard count measured no scaling, and no group size
# measured nothing.
file(READ ${WORKDIR}/bench_smoke_shard.json doc)
foreach(field shards wall_seconds speedup efficiency egalitarian_final
        egalitarian_mean migrations epochs)
    string(JSON doc REMOVE "${doc}" values k2.${field})
endforeach()
file(WRITE ${WORKDIR}/bench_smoke_mutant.json "${doc}")
expect_rejected("values hold 1 k<N> row"
    ${BENCH_JSON} --file bench_smoke_mutant.json)
mutant(coalition "values hold 0 g<N> row" SET values "{}")
