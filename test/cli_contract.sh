#!/usr/bin/env bash
# Contract of the opm_sim command line on a small RC ladder:
#
#   - `--method integral` (a removed alias) is a usage error (exit 124);
#   - `--basis spectral --window 16` is a usage error (exit 2);
#   - `--method opm --window 16 --memory-len 8` exits 0 with as many CSV
#     rows as the unwindowed run, and does not warn;
#   - `--method opm --window 16` alone writes the CSV bytes of the
#     unwindowed run (a window is a slice of the one column loop);
#   - on a ladder with a constant-phase element at 256 steps,
#     `--memory-len 8` alone and with `--window 256` warns that
#     --memory-len is ignored and writes the same CSV bytes as the
#     full-history run (the tail is only truncated between windows),
#     and `--window 16` alone writes the bytes of that run too;
#   - `--no-fft-rhs` and `--compile` (removed no-ops) are unknown
#     options (exit 124), and `OPM_NO_FFT_RHS=1` changes nothing: the
#     same CSV bytes as the run without it, and no warning line;
#   - `--tend` must be finite and positive (`nan`, `inf`, `0`, `-1` are
#     usage errors, exit 2) and is required for tran, step-response and
#     impulse-response (exit 2 without it), but not for ac.
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

cat > "$tmp/cpe.sp" <<'EOF'
V1 in 0 step(1)
R1 in n1 1k
C1 n1 0 1u
R2 n1 n2 1k
P2 n2 0 q=1u alpha=0.5
EOF

status=0
fail() {
  echo "cli-contract: $*" >&2
  status=1
}

run() {
  # run <name> <args...>: the RC ladder at 64 steps; stdout to
  # <name>.csv, stderr to <name>.err, exit code to the global $code
  local name=$1
  shift
  "$sim" "$tmp/ladder.sp" -t 5e-3 --steps 64 --probe n2 "$@" \
    > "$tmp/$name.csv" 2> "$tmp/$name.err"
  code=$?
}

run_cpe() {
  # run_cpe <name> <args...>: as run, on the CPE ladder at 256 steps
  local name=$1
  shift
  "$sim" "$tmp/cpe.sp" -t 5e-3 --steps 256 --probe n2 --method opm "$@" \
    > "$tmp/$name.csv" 2> "$tmp/$name.err"
  code=$?
}

ignored="--memory-len only applies with --window < --steps; ignored"

run integral --method integral
[ "$code" -eq 124 ] || fail "--method integral exited $code, expected 124"

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
grep -q -- "$ignored" "$tmp/opm_w.err" \
  && fail "--window 16 --memory-len 8 warned that --memory-len is ignored"
run opm_w16 --method opm --window 16
[ "$code" -eq 0 ] || fail "--method opm --window 16 exited $code"
cmp -s "$tmp/opm.csv" "$tmp/opm_w16.csv" \
  || fail "--window 16 CSV differs from the unwindowed RC ladder run"

run_cpe cpe
[ "$code" -eq 0 ] || fail "CPE ladder exited $code"
for args in "--memory-len 8" "--memory-len 8 --window 256"; do
  # word splitting of $args is intended
  run_cpe cpe_k $args
  [ "$code" -eq 0 ] || fail "CPE ladder $args exited $code"
  grep -q -- "$ignored" "$tmp/cpe_k.err" \
    || fail "CPE ladder $args did not warn that --memory-len is ignored"
  cmp -s "$tmp/cpe.csv" "$tmp/cpe_k.csv" \
    || fail "CPE ladder CSV changed under $args"
done

run_cpe cpe_w16 --window 16
[ "$code" -eq 0 ] || fail "CPE ladder --window 16 exited $code"
cmp -s "$tmp/cpe.csv" "$tmp/cpe_w16.csv" \
  || fail "CPE ladder --window 16 CSV differs from the unwindowed run"

for flag in --no-fft-rhs --compile; do
  run_cpe cpe_removed "$flag"
  [ "$code" -eq 124 ] || fail "CPE ladder $flag exited $code, expected 124"
done
OPM_NO_FFT_RHS=1 run_cpe cpe_nofft_env
[ "$code" -eq 0 ] || fail "CPE ladder with OPM_NO_FFT_RHS=1 exited $code"
cmp -s "$tmp/cpe.csv" "$tmp/cpe_nofft_env.csv" \
  || fail "OPM_NO_FFT_RHS=1 CSV differs from the CPE run"
grep -q -- "warning" "$tmp/cpe_nofft_env.err" && fail "OPM_NO_FFT_RHS=1 printed a warning"

for t in nan inf 0 -1; do
  "$sim" "$tmp/ladder.sp" --steps 64 --probe n2 "--tend=$t" \
    > "$tmp/tend.csv" 2> "$tmp/tend.err"
  code=$?
  [ "$code" -eq 2 ] || fail "--tend=$t exited $code, expected 2"
  [ -s "$tmp/tend.csv" ] && fail "--tend=$t printed CSV"
done
for mode in tran step-response impulse-response; do
  "$sim" "$tmp/ladder.sp" --steps 64 --probe n2 --mode "$mode" \
    > "$tmp/notend.csv" 2> "$tmp/notend.err"
  code=$?
  [ "$code" -eq 2 ] || fail "--mode $mode without --tend exited $code, expected 2"
  grep -q -- "--tend is required" "$tmp/notend.err" \
    || fail "--mode $mode without --tend did not name --tend"
done
"$sim" "$tmp/ladder.sp" --probe n2 --mode ac > "$tmp/ac.csv" 2> "$tmp/ac.err"
code=$?
[ "$code" -eq 0 ] || fail "--mode ac without --tend exited $code"

[ "$status" -eq 0 ] && echo "cli-contract: ok"
exit $status
