# Runs a bench binary with FLICK_METRICS_PROM pointed at OUT, then
# validates the resulting Prometheus text exposition with
# bench/check_prometheus.py (full grammar plus histogram-consistency
# checks; --require pins the metrics CI artifacts depend on).
#
# Usage:
#   cmake -DBENCH=<bench-binary> -DCHECKER=<check_prometheus.py>
#         -DPYTHON=<python3> -DOUT=<metrics.prom> -P CheckPrometheus.cmake

foreach(VAR BENCH CHECKER PYTHON OUT)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "CheckPrometheus.cmake: -D${VAR}=... is required")
  endif()
endforeach()

file(REMOVE "${OUT}" "${OUT}.bench.json"
  "${OUT}.bench.json.exemplars.json"
  "${OUT}.bench.json.exemplars.trace.json")
# FLICK_FIG8_QUICK shrinks the measurement windows; a quick fig8 run still
# exercises the threaded runtime end to end, so the exposition carries
# nonzero RPC counters and a populated latency histogram.  FLICK_BENCH_JSON
# turns the bench tracer on (tail-exemplar reservoir -> bucket exemplar
# annotations) and FLICK_SLO_DEFAULT arms the error-budget counters, so
# the validated exposition covers the full latency-anatomy surface.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          FLICK_METRICS_PROM=${OUT} FLICK_FIG8_QUICK=1
          FLICK_BENCH_JSON=${OUT}.bench.json "FLICK_SLO_DEFAULT=p99<50ms"
          "${BENCH}"
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "bench run failed (rc=${RC}):\n${STDERR}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "bench did not write ${OUT}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${OUT}"
          --require flick_build_info
          --require flick_rpcs_sent_total
          --require flick_rpc_latency_seconds
          --require flick_slo_met_total
          --require flick_slo_violated_total
          --require flick_demux_errors_total
          --require flick_server_request_bytes_total
          --require-exemplar flick_rpc_latency_seconds
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE STDOUT
  ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "Prometheus exposition invalid (rc=${RC}):\n"
                      "${STDOUT}${STDERR}")
endif()
message(STATUS "${STDOUT}")
