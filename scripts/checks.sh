#!/usr/bin/env sh
# The standard check set: what CI runs (see .github/workflows/checks.yml).
#
#   sh scripts/checks.sh
#
# 1. `pytest -m "not slow"` — the fast tier-1 signal (the full tier-1
#    command is `pytest -x -q` without the marker filter; the slow
#    training-driver tests are nightly material).  Every serving contract
#    lives here: bit-identity through each transport, backend and fault
#    path, the wire error table, drain, telemetry.  `--durations=15`
#    names the fifteen slowest tests in every log (output only).
# 2. `run_perf_suite.py --smoke` — the fused-vs-reference engine micro
#    table, written to a throwaway path; exits non-zero if the headline
#    (mvm_forms_16bit_128pos) falls below its 5x floor.
# 3. The same with `--backend process`: the multi-worker benches fan
#    tiles out to spawned worker processes over shared-memory planes, so
#    spawn, ship, merge and unlink get an end-to-end smoke.
# 4. `check_docs.py` — the docs drift gate, fourteen rules (packages, linked pages, CLI
#    subcommands and serve flags, wire error codes, backends, metric
#    catalog, SSE event types, every referenced script resolving to a
#    tracked file, every `/v1/stats` key and `/v1/usage` cell field of
#    the ServerStats store documented, the `FORMS_*` environment
#    variables read in src/ exactly the ones documented, the engine
#    profile's documented rung list exactly `repro.reram.TIERS`,
#    every `repro.…` name in src/ docstrings and the docs importable,
#    and every bare `:data:` name in src/ and backticked UPPER_SNAKE
#    constant in the docs and verify notes defined).
# 5. `benchmarks/e2e/run.py --seed 0 --seconds 3` — all six workloads of
#    the end-to-end benchmark at a quarter length (about a minute).  The
#    exit code gates bit-identity of every output against the serial
#    forward (ideal, IR-drop, variation and read-noise engines; in
#    process, over the threaded shell, streamed over the asyncio shell),
#    every refusal being a documented receipt, the golden digests at
#    seed 0 and the thread / fd / shm leak counters.  This is the only
#    place performance is measured; see benchmarks/e2e/README.md.
# 6. `python -m repro <name> --scale fast` over the twelve registry entries
#    that finish in seconds (about a minute in all): each regenerates its
#    table and exits 1 if its check finds a violated claim.  The eight
#    training-based paper tables (table1, table2, table5, table6, fig6,
#    fig8, fig13, fig14) are not here: at the FAST scale they take about
#    36 minutes together on 2 vCPUs; run them with `python -m repro all`.
set -e

cd "$(dirname "$0")/.."

echo "==> tier-1 (fast signal): pytest -m 'not slow'"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -m "not slow" \
    --durations=15

echo "==> perf gate: run_perf_suite.py --smoke"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/run_perf_suite.py \
    --smoke -o "${PERF_GATE_OUTPUT:-/tmp/forms_perf_gate.json}"

echo "==> process-backend smoke: run_perf_suite.py --smoke --backend process"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/run_perf_suite.py \
    --smoke --backend process \
    -o "${PERF_GATE_PROCESS_OUTPUT:-/tmp/forms_perf_gate_process.json}"

echo "==> docs check: check_docs.py"
python scripts/check_docs.py

echo "==> end-to-end benchmark smoke: benchmarks/e2e/run.py (all six workloads)"
python3 benchmarks/e2e/run.py --seed 0 --seconds 3

echo "==> experiment checks: python -m repro <name> --scale fast"
for name in table3 table4 dse irdrop crossbar_size event_pipeline tinyadc \
        fault_tolerance insitu_validation adc_bits energy_noc sign_rule; do
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro "$name" \
        --scale fast
done

echo "checks passed"
