#!/usr/bin/env bash
# Contract of the opm_sim command line on a small RC ladder:
#
#   - `--method integral --window 16` warns that --window only applies to
#     the opm methods, exits 0, and writes the same CSV bytes as the run
#     without --window (the integral form has no windowed variant);
#   - `--basis spectral --window 16` is a usage error (exit 2);
#   - `--method opm --window 16 --memory-len 8` exits 0 with as many CSV
#     rows as the unwindowed run.
#
# Usage: cli_contract.sh <opm_sim.exe>
set -u

if [ "$#" -ne 1 ]; then
  echo "usage: cli_contract.sh <opm_sim.exe>" >&2
  exit 2
fi
sim=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/ladder.sp" <<'EOF'
V1 in 0 step(1)
R1 in n1 1k
C1 n1 0 1u
R2 n1 n2 1k
C2 n2 0 1u
EOF

status=0
fail() {
  echo "cli-contract: $*" >&2
  status=1
}

run() {
  # run <name> <args...>: stdout to <name>.csv, stderr to <name>.err,
  # exit code to the global $code
  local name=$1
  shift
  "$sim" "$tmp/ladder.sp" -t 5e-3 --steps 64 --probe n2 "$@" \
    > "$tmp/$name.csv" 2> "$tmp/$name.err"
  code=$?
}

run integral --method integral
[ "$code" -eq 0 ] || fail "--method integral exited $code"
run integral_w --method integral --window 16
[ "$code" -eq 0 ] || fail "--method integral --window 16 exited $code"
grep -q -- "--window only applies to the opm methods; ignored" "$tmp/integral_w.err" \
  || fail "--method integral --window 16 did not warn that --window is ignored"
cmp -s "$tmp/integral.csv" "$tmp/integral_w.csv" \
  || fail "--method integral CSV changed under --window 16"

run spectral --basis spectral --window 16
[ "$code" -eq 2 ] || fail "--basis spectral --window 16 exited $code, expected 2"

run opm --method opm
[ "$code" -eq 0 ] || fail "--method opm exited $code"
run opm_w --method opm --window 16 --memory-len 8
[ "$code" -eq 0 ] || fail "--method opm --window 16 --memory-len 8 exited $code"
rows=$(wc -l < "$tmp/opm.csv")
rows_w=$(wc -l < "$tmp/opm_w.csv")
[ "$rows" -eq "$rows_w" ] \
  || fail "windowed opm CSV has $rows_w rows, unwindowed $rows"

[ "$status" -eq 0 ] && echo "cli-contract: ok"
exit $status
