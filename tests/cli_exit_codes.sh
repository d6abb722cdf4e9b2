#!/usr/bin/env bash
# tap_cli error-path audit (ISSUE 5 satellite): every malformed invocation
# must exit non-zero WITH a message on stderr, and the exit code must
# follow the contract documented at the top of examples/tap_cli.cpp:
#   2 = usage error (bad flag / value / model / fault spec)
#   1 = runtime failure (unreadable input, unwritable output)
#   0 = success
# --help and -h print the flag list to stdout and exit 0, for tap_cli and
# (when its path is given) tap_serve.
# Usage: cli_exit_codes.sh /path/to/tap_cli [/path/to/tap_serve]
set -u

CLI=${1:?usage: cli_exit_codes.sh /path/to/tap_cli [/path/to/tap_serve]}
SERVE=${2:-}
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT
FAILURES=0

# expect <code> <descr> -- args...
# Runs the CLI, asserts the exit code, and (for non-zero codes) asserts
# stderr is non-empty — a silent failure is a failure of this test.
expect() {
  local want=$1 descr=$2
  shift 3  # code, description, "--" separator
  local err
  err=$("$CLI" "$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL [$descr]: exit $got, want $want (args: $*)" >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  if [ "$want" -ne 0 ] && [ -z "$err" ]; then
    echo "FAIL [$descr]: exit $got but stderr is empty (args: $*)" >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "ok   [$descr]"
}

# Small/fast model configuration shared by the success cases.
FAST=(--model t5 --layers 1 --mesh 2x8 --threads 1)

# --- usage errors: exit 2 -------------------------------------------------
expect 2 "unknown flag"            -- --definitely-not-a-flag
expect 2 "missing value"           -- --layers
expect 2 "non-numeric layers"      -- --layers fast
expect 2 "half-numeric batch"      -- --batch 8x
expect 2 "unknown model"           -- --model resnet9000
expect 2 "bad mesh syntax"         -- --mesh 2by8
expect 2 "bad mesh trailing"       -- --mesh 2x8x1
expect 2 "unknown diff baseline"   -- "${FAST[@]}" --diff-baseline alpa
expect 2 "fault spec no equals"    -- "${FAST[@]}" --fault cache.disk.read
expect 2 "fault spec bad action"   -- "${FAST[@]}" --fault x=explode
expect 2 "fault spec bad prob"     -- "${FAST[@]}" --fault x=throw:1.5
expect 2 "non-numeric deadline"    -- "${FAST[@]}" --deadline-ms soon

# --- runtime failures: exit 1 ---------------------------------------------
expect 1 "unreadable --load-plan"  -- "${FAST[@]}" --load-plan "$SCRATCH/absent.json"
echo "not json" > "$SCRATCH/garbage.json"
expect 1 "corrupt --load-plan"     -- "${FAST[@]}" --load-plan "$SCRATCH/garbage.json"
expect 1 "unwritable --report"     -- "${FAST[@]}" --report "$SCRATCH/no/such/dir/r.json"
expect 1 "unwritable --plan-json"  -- "${FAST[@]}" --plan-json "$SCRATCH/no/such/dir/p.json"
expect 1 "unwritable --stats"      -- "${FAST[@]}" --stats "$SCRATCH/no/such/dir/s.json"

# --- happy paths keep exiting 0 -------------------------------------------
expect 0 "plain run"               -- "${FAST[@]}"
expect 0 "report to file"          -- "${FAST[@]}" --report "$SCRATCH/report.json"
[ -s "$SCRATCH/report.json" ] || { echo "FAIL: report.json empty" >&2; FAILURES=$((FAILURES + 1)); }
expect 0 "valid fault spec (inert delay)" -- "${FAST[@]}" --fault service.search=delay:1:0.5
expect 0 "deadline + checkpoint flags"    -- "${FAST[@]}" --deadline-ms 60000 --max-checkpoints 3

# --plan-json + --load-plan round trip through the CLI
expect 0 "write plan json"         -- "${FAST[@]}" --plan-json "$SCRATCH/plan.json"
expect 0 "load written plan"       -- "${FAST[@]}" --load-plan "$SCRATCH/plan.json"
# The same document naming a GraphNode the model does not have.
sed 's/"assignments":{"/"assignments":{"no\/such\/node":"dp","/' \
  "$SCRATCH/plan.json" > "$SCRATCH/unknown_node.json"
grep -q '"no/such/node"' "$SCRATCH/unknown_node.json" || { echo "FAIL: no unknown node written" >&2; FAILURES=$((FAILURES + 1)); }
expect 1 "--load-plan unknown node" -- "${FAST[@]}" --load-plan "$SCRATCH/unknown_node.json"

# --- --help / -h: the flag list on stdout, exit 0 ------------------------
# expect_help <binary> <flag> <a flag the list must name>
expect_help() {
  local bin=$1 flag=$2 names=$3
  local out
  out=$("$bin" "$flag" 2>/dev/null)
  local got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL [$(basename "$bin") $flag]: exit $got, want 0" >&2
    FAILURES=$((FAILURES + 1))
  elif ! grep -q -- "$names" <<<"$out"; then
    echo "FAIL [$(basename "$bin") $flag]: no '$names' in the output" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok   [$(basename "$bin") $flag]"
  fi
}
expect_help "$CLI" --help --plan-json
expect_help "$CLI" -h --plan-json
if [ -n "$SERVE" ]; then
  expect_help "$SERVE" --help --flight-capacity
  expect_help "$SERVE" -h --flight-capacity
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES case(s) failed" >&2
  exit 1
fi
echo "all exit-code cases passed"
