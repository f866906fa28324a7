#!/usr/bin/env bash
# Exit-code contract of `nck_cli lint` / `nck_cli certify` / `nck_cli
# simplify`:
#   0  no error-severity diagnostic (simplify: sound, possibly identity,
#      reduction)
#   1  error diagnostics / program provably broken (simplify: presolve
#      proved unsat, or the reduction failed equivalence certification)
#   2  the analysis could not run (unreadable/unparsable input, bad usage)
# Solve (and its number flags) shares code 2 for bad usage and for an
# unreadable or unparsable program, single or in --batch.
# Run by ctest as: cli_exit_codes.sh <path-to-nck_cli>
set -u

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/clean.nck" <<'EOF'
nck({a, b}, {1, 2}) /\ nck({a, c}, {1, 2}) /\ nck({b, c}, {1, 2})
nck({a}, {0}, soft) nck({b}, {0}, soft) nck({c}, {0}, soft)
EOF

cat > "$TMP/broken.nck" <<'EOF'
# same collection, disjoint selections: provably unsatisfiable (NCK-P001)
nck({a, b}, {2}) /\ nck({a, b}, {0})
EOF

cat > "$TMP/garbage.nck" <<'EOF'
this is not an nck program
EOF

fails=0
expect() {
  local want="$1"
  local desc="$2"
  shift 2
  "$@" > "$TMP/out" 2> "$TMP/err"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got" >&2
    sed 's/^/  stdout: /' "$TMP/out" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    fails=$((fails + 1))
  else
    echo "ok: $desc (exit $got)"
  fi
}

expect 0 "lint clean program"            "$CLI" lint "$TMP/clean.nck"
expect 1 "lint broken program"           "$CLI" lint "$TMP/broken.nck"
expect 2 "lint unreadable file"          "$CLI" lint "$TMP/missing.nck"
expect 2 "lint unparsable program"       "$CLI" lint "$TMP/garbage.nck"
expect 2 "lint bad usage"                "$CLI" lint
expect 0 "certify clean program"         "$CLI" certify "$TMP/clean.nck"
expect 0 "certify clean program (json)"  "$CLI" certify --json "$TMP/clean.nck"
expect 1 "certify broken program"        "$CLI" certify "$TMP/broken.nck"
expect 1 "certify drowned gaps (V001)"   "$CLI" certify --hard-margin=0 "$TMP/clean.nck"
expect 2 "certify unreadable file"       "$CLI" certify "$TMP/missing.nck"
expect 2 "certify unparsable program"    "$CLI" certify "$TMP/garbage.nck"
expect 2 "certify bad usage"             "$CLI" certify

# A margin that is not a finite number would print an invalid certificate
# (`"hard_scale":nan`) and silence NCK-V001/V002.
expect 2 "certify nan margin"            "$CLI" certify --json --hard-margin=nan "$TMP/clean.nck"
expect 2 "certify inf margin"            "$CLI" certify --json --hard-margin=inf "$TMP/clean.nck"
expect 2 "certify malformed margin"      "$CLI" certify --json --hard-margin=1x "$TMP/clean.nck"

# Solve number flags are strict: a malformed, overflowing or wrapped (-1)
# value, or reads/shots past the wire protocol's caps, is bad usage. The
# wrapped and capped values run on the classical backend, which samples
# nothing, so an accepting build finishes at once.
expect 2 "solve non-numeric reads"       "$CLI" --reads=abc "$TMP/clean.nck"
expect 2 "solve non-numeric deadline"    "$CLI" --deadline-ms=x "$TMP/clean.nck"
expect 2 "solve overflowing seed"        "$CLI" --seed=99999999999999999999999 "$TMP/clean.nck"
expect 2 "solve negative reads"          "$CLI" --backend=classical --reads=-1 "$TMP/clean.nck"
expect 2 "solve negative shots"          "$CLI" --backend=classical --shots=-1 "$TMP/clean.nck"
expect 2 "solve reads past kMaxReads"    "$CLI" --backend=classical --reads=10001 "$TMP/clean.nck"
expect 2 "solve shots past kMaxShots"    "$CLI" --backend=classical --shots=100001 "$TMP/clean.nck"
expect 0 "solve reads at kMaxReads"      "$CLI" --backend=classical --reads=10000 "$TMP/clean.nck"
expect 2 "solve unreadable file"         "$CLI" --backend=classical "$TMP/missing.nck"
expect 2 "solve unparsable program"      "$CLI" --backend=classical "$TMP/garbage.nck"
expect 2 "solve --batch one missing file" "$CLI" solve --batch --backend=classical "$TMP/clean.nck" "$TMP/missing.nck"

# A decompose loop of zero rounds is rejected as invalid options (a solve
# that did not run: exit 1), not reported as a failure without a kind.
expect 1 "solve zero decompose rounds"   "$CLI" solve --backend=annealer --subproblem-vars=2 --max-rounds=0 "$TMP/clean.nck"
if ! grep -q "\[bad-options\]: invalid options: decompose.max_rounds must be >= 1" "$TMP/out"; then
  echo "FAIL: zero decompose rounds did not report bad-options" >&2
  sed 's/^/  stdout: /' "$TMP/out" >&2
  fails=$((fails + 1))
else
  echo "ok: zero decompose rounds reports bad-options"
fi

cat > "$TMP/reducible.nck" <<'EOF'
# unit veto pins b FALSE; presolve substitutes it away
nck({a, b}, {0, 1}) /\ nck({b}, {0})
nck({a}, {1}, soft)
EOF

expect 0 "simplify clean program"        "$CLI" simplify "$TMP/clean.nck"
expect 0 "simplify reducible program"    "$CLI" simplify "$TMP/reducible.nck"
expect 1 "simplify unsat program"        "$CLI" simplify "$TMP/broken.nck"
expect 2 "simplify unreadable file"      "$CLI" simplify "$TMP/missing.nck"
expect 2 "simplify unparsable program"   "$CLI" simplify "$TMP/garbage.nck"
expect 2 "simplify bad usage"            "$CLI" simplify
expect 2 "simplify empty emit path"      "$CLI" simplify --emit= "$TMP/clean.nck"

# simplify --emit writes a reduced program this tool itself can lint, and
# --json records matching original/reduced ground truths.
expect 0 "simplify --emit reduced form"  "$CLI" simplify --emit="$TMP/reduced.nck" "$TMP/reducible.nck"
expect 0 "lint emitted reduced form"     "$CLI" lint "$TMP/reduced.nck"
"$CLI" simplify --json "$TMP/reducible.nck" > "$TMP/simplify.json"
if ! grep -q '"changed":true' "$TMP/simplify.json" ||
   ! grep -q '"verification":{"checked":true,"ok":true' "$TMP/simplify.json" ||
   ! grep -q '"truth":{"checked":true' "$TMP/simplify.json"; then
  echo "FAIL: simplify --json document missing reduction/verdict/truth keys" >&2
  fails=$((fails + 1))
else
  echo "ok: simplify --json document shape"
fi

# The certify --json document must carry both the artifact and the report.
"$CLI" certify --json "$TMP/clean.nck" > "$TMP/cert.json"
if ! grep -q '"certificate":{"ok":true' "$TMP/cert.json" ||
   ! grep -q '"report":{"diagnostics":' "$TMP/cert.json"; then
  echo "FAIL: certify --json document missing certificate/report keys" >&2
  fails=$((fails + 1))
else
  echo "ok: certify --json document shape"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all exit-code cases passed"
