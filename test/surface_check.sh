#!/usr/bin/env bash
# Library surface check: every value a `lib/**/*.mli` exports must be
# reached by a program. A value `val v` of `lib/<dir>/<mod>.mli` (or of
# its submodule `Sub`) counts as reached when `Mod.v` (`Mod.Sub.v`)
# appears in a `.ml`/`.mli` file under `bin/`, `examples/`, `bench/` or
# under `lib/` outside `<mod>.ml`/`<mod>.mli`. Tests do not count.
#
# A value reached only by tests stays exported only if the allow-list
# names it. Each allow-list line reads
#
#   Mod.value  test_file  the contract the test checks with it
#
# (blank lines and lines starting with `#` are skipped). The check
# fails on
#   - an exported value that is neither reached nor allow-listed;
#   - an allow-list line without a test and a contract;
#   - an allow-list entry that names no exported value, or one that a
#     program already reaches (a stale line).
#
# Usage: surface_check.sh <allow-list> <repo root>
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: surface_check.sh <allow-list> <repo root>" >&2
  exit 2
fi
allow=$1
root=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

sources() {
  find "$root/bin" "$root/examples" "$root/bench" "$root/lib" \
    -name '.*' -prune -o -type f \( -name '*.ml' -o -name '*.mli' \) -print
}

# exported values, one "Mod.v<TAB>file stem" per line
for mli in "$root"/lib/*/*.mli; do
  stem=$(basename "$mli" .mli)
  mod=$(printf '%s' "${stem:0:1}" | tr '[:lower:]' '[:upper:]')${stem:1}
  awk -v mod="$mod" -v stem="$stem" '
    /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/ {
      name = $0
      sub(/^[ \t]*module[ \t]+/, "", name)
      sub(/[ \t:].*/, "", name)
      sub_path = name "."
      next
    }
    /^end/ { sub_path = ""; next }
    /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/ {
      v = $0
      sub(/^[ \t]*val[ \t]+/, "", v)
      sub(/[^A-Za-z0-9_'\''].*/, "", v)
      printf "%s.%s%s\t%s\n", mod, sub_path, v, stem
    }
  ' "$mli"
done | sort -u > "$tmp/exported"

# qualified names each program file mentions, one "name<TAB>file stem"
# per line (a lib file's stem marks its own module's mentions)
sources | while read -r f; do
  case "$f" in
    "$root"/lib/*) stem=$(basename "${f%.*}") ;;
    *) stem="" ;;
  esac
  grep -oE "\b[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.[a-z_][A-Za-z0-9_']*" "$f" \
    | sort -u | awk -v stem="$stem" '{ printf "%s\t%s\n", $0, stem }'
done > "$tmp/mentions"

# reached: a mention from a file other than the value's own module
# (a mention Opm_core.Engine.run names Engine.run too)
awk -F'\t' '
  NR == FNR { own[$1] = $2; next }
  {
    name = $1
    while (1) {
      if ((name in own) && own[name] != $2) reached[name] = 1
      if (index(name, ".") == 0) break
      sub(/^[^.]*\./, "", name)
    }
  }
  END { for (v in reached) print v }
' "$tmp/exported" "$tmp/mentions" | sort -u > "$tmp/reached"

status=0
fail() {
  echo "surface-check: $*" >&2
  status=1
}

grep -vE '^[[:space:]]*(#|$)' "$allow" > "$tmp/allow_lines" || true
while read -r name test contract; do
  if [ -z "${test:-}" ] || [ -z "${contract:-}" ]; then
    fail "allow-list line for $name must name a test and a contract"
  fi
  if ! cut -f1 "$tmp/exported" | grep -qxF "$name"; then
    fail "allow-listed $name is not an exported value"
  elif grep -qxF "$name" "$tmp/reached"; then
    fail "allow-listed $name is reached by a program; drop its line"
  fi
done < "$tmp/allow_lines"
awk '{ print $1 }' "$tmp/allow_lines" | sort -u > "$tmp/allowed"

cut -f1 "$tmp/exported" | sort -u | comm -23 - "$tmp/reached" \
  | comm -23 - "$tmp/allowed" > "$tmp/orphans"
while read -r name; do
  fail "$name is exported but no program reaches it (delete it, unexport it, or allow-list the test that needs it)"
done < "$tmp/orphans"

if [ "$status" -eq 0 ]; then
  echo "surface-check: $(wc -l < "$tmp/exported") exported values, $(wc -l < "$tmp/allowed") allow-listed for tests"
fi
exit "$status"
