#!/usr/bin/env bash
# Daemon-lifecycle contract of nck_serve (and `nck_cli serve`), exercised
# from the outside the way an operator would:
#   - here-doc request stream: one typed JSON response per line, shutdown
#     drains and exits 0 with a final stats snapshot on stderr
#   - malformed + oversized request lines earn typed bad_request responses
#     and never kill the daemon
#   - first SIGTERM drains gracefully (exit 0, queued work rejected as
#     `draining`, in-flight work completed)
#   - second SIGTERM force-exits a daemon wedged by a stuck worker
#   - a malformed, wrapped or out-of-cap number flag is bad usage (exit 2)
#   - the daemon's lint and certify payloads equal `nck_cli ... --json`,
#     with each program sent raw and with its non-ASCII characters escaped
# Run by ctest as: cli_serve.sh <path-to-nck_serve> <path-to-nck_cli>
set -u

SERVE="$1"
CLI="${2:-}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0
fail() {
  echo "FAIL: $1" >&2
  shift
  for f in "$@"; do sed 's/^/  /' "$f" >&2; done
  fails=$((fails + 1))
}

# ---- 1. here-doc round trip: solve/lint/stats/shutdown, exit 0 --------
"$SERVE" --workers=2 > "$TMP/out" 2> "$TMP/err" <<'EOF'
{"id":1,"op":"solve","program":"nck({a, b}, {1})","backend":"classical"}
{"id":2,"op":"lint","program":"nck({a, b}, {1})"}
{"id":3,"op":"bogus"}
{"id":4,"op":"stats"}
{"id":5,"op":"shutdown"}
EOF
code=$?
[ "$code" -eq 0 ] || fail "here-doc stream should exit 0, got $code" "$TMP/err"
grep -q '"id":3,.*"kind":"bad_request"' "$TMP/out" ||
  fail "unknown op should earn a typed bad_request" "$TMP/out"
grep -q '"id":4,"op":"stats","ok":true' "$TMP/out" ||
  fail "stats should answer inline" "$TMP/out"
grep -q '"id":5,"op":"shutdown","ok":true' "$TMP/out" ||
  fail "shutdown should be acknowledged" "$TMP/out"
grep -q 'final stats' "$TMP/err" ||
  fail "final stats snapshot missing from stderr" "$TMP/err"
# Every request got exactly one response line.
responses=$(grep -c '^{"id":' "$TMP/out")
[ "$responses" -eq 5 ] ||
  fail "expected 5 response lines, got $responses" "$TMP/out"
[ "$fails" -eq 0 ] && echo "ok: here-doc round trip"

# ---- 2. oversized + garbage lines never kill the daemon ---------------
# Drive via a fifo and wait for the solve response before shutting down:
# a piped `shutdown` would race ahead of the queued solve and the drain
# would (correctly) reject it as `draining`.
mkfifo "$TMP/in2"
"$SERVE" --workers=1 < "$TMP/in2" > "$TMP/out2" 2> "$TMP/err2" &
pid=$!
exec 5> "$TMP/in2"
{
  # ~2 MiB on one line: over the 1 MiB request cap, streamed and discarded.
  printf '{"id":1,"op":"solve","program":"'
  head -c 2097152 /dev/zero | tr '\0' 'x'
  printf '"}\n'
  printf 'complete garbage\n'
  printf '{"id":2,"op":"solve","program":"nck({a, b}, {1})","backend":"classical"}\n'
} >&5
for _ in $(seq 1 200); do
  grep -q '"id":2' "$TMP/out2" 2>/dev/null && break
  sleep 0.1
done
printf '{"id":3,"op":"shutdown"}\n' >&5
exec 5>&-
alive=1
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || { alive=0; break; }
  sleep 0.1
done
if [ "$alive" -eq 0 ]; then
  wait "$pid" 2>/dev/null
  code=$?
else
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  code=137
fi
[ "$code" -eq 0 ] || fail "oversized-line stream should exit 0, got $code" "$TMP/err2"
grep -q '"kind":"bad_request".*byte cap' "$TMP/out2" ||
  fail "oversized line should earn a typed bad_request naming the cap" "$TMP/out2"
grep -q '"id":2,"op":"solve","ok":true' "$TMP/out2" ||
  fail "daemon should still solve after abuse" "$TMP/out2"
[ "$fails" -eq 0 ] && echo "ok: oversized and garbage input survived"

# ---- 3. first SIGTERM drains gracefully ------------------------------
# Keep stdin open via a fifo so the daemon is idle-blocked on read().
mkfifo "$TMP/in3"
"$SERVE" --workers=1 < "$TMP/in3" > "$TMP/out3" 2> "$TMP/err3" &
pid=$!
exec 3> "$TMP/in3"  # hold the write end open
printf '{"id":1,"op":"solve","program":"nck({a, b}, {1})","backend":"classical"}\n' >&3
# Wait until the solve response lands so the request is genuinely in/past flight.
for _ in $(seq 1 100); do
  grep -q '"id":1' "$TMP/out3" 2>/dev/null && break
  sleep 0.1
done
kill -TERM "$pid"
graceful=1
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || { graceful=0; break; }
  sleep 0.1
done
if [ "$graceful" -eq 0 ]; then
  wait "$pid" 2>/dev/null
  code=$?
else
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  code=137
fi
exec 3>&-
[ "$graceful" -eq 0 ] || fail "daemon did not exit after SIGTERM" "$TMP/err3"
[ "$code" -eq 0 ] || fail "SIGTERM drain should exit 0, got $code" "$TMP/err3"
grep -q '"id":1,"op":"solve","ok":true' "$TMP/out3" ||
  fail "in-flight solve should complete before the drain" "$TMP/out3"
grep -q 'final stats' "$TMP/err3" ||
  fail "drained daemon should flush final stats" "$TMP/err3"
[ "$fails" -eq 0 ] && echo "ok: graceful SIGTERM drain"

# ---- 4. second SIGTERM force-exits a wedged daemon --------------------
# --test-stall-ms pins the only worker far longer than the test budget, so
# the first SIGTERM's drain can never finish on its own.
mkfifo "$TMP/in4"
"$SERVE" --workers=1 --test-stall-ms=60000 < "$TMP/in4" > "$TMP/out4" 2> "$TMP/err4" &
pid=$!
exec 4> "$TMP/in4"
printf '{"id":1,"op":"solve","program":"nck({a, b}, {1})","backend":"classical"}\n' >&4
sleep 1  # let the worker enter the stall
kill -TERM "$pid"
sleep 1  # drain is now wedged behind the stalled worker
kill -0 "$pid" 2>/dev/null ||
  fail "daemon should still be draining behind the stuck worker" "$TMP/err4"
kill -TERM "$pid"
forced=1
for _ in $(seq 1 50); do
  kill -0 "$pid" 2>/dev/null || { forced=0; break; }
  sleep 0.1
done
if [ "$forced" -eq 0 ]; then
  wait "$pid" 2>/dev/null
  code=$?
else
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  code=137
fi
exec 4>&-
[ "$forced" -eq 0 ] || fail "second SIGTERM must force exit" "$TMP/err4"
[ "$code" -ne 0 ] || fail "forced exit should be nonzero, got $code" "$TMP/err4"
[ "$fails" -eq 0 ] && echo "ok: second SIGTERM forces exit"

# ---- 5. nck_cli serve is the same daemon ------------------------------
if [ -n "$CLI" ]; then
  printf '{"id":1,"op":"stats"}\n{"id":2,"op":"shutdown"}\n' |
    "$CLI" serve --workers=1 > "$TMP/out5" 2> "$TMP/err5"
  code=$?
  [ "$code" -eq 0 ] || fail "nck_cli serve should exit 0, got $code" "$TMP/err5"
  grep -q '"id":1,"op":"stats","ok":true' "$TMP/out5" ||
    fail "nck_cli serve should answer stats" "$TMP/out5"
  [ "$fails" -eq 0 ] && echo "ok: nck_cli serve subcommand"
fi

# ---- 6. strict number flags ------------------------------------------
# A wrapped (-1) or out-of-cap value is bad usage (exit 2) before any
# daemon starts. stdin is empty, so a daemon that accepted one
# would only start and drain; --workers never gets a wrapped value.
for flag in --queue-depth=-1 --seed=-1 --reads=-1 --reads=10001 \
            --shots=-1 --shots=100001; do
  "$SERVE" "$flag" < /dev/null > "$TMP/out6" 2> "$TMP/err6"
  code=$?
  [ "$code" -eq 2 ] ||
    fail "nck_serve $flag should exit 2, got $code" "$TMP/err6"
done
[ "$fails" -eq 0 ] && echo "ok: strict number flags"

# ---- 7. nck_cli and nck_serve give one answer --------------------------
# For every example program the daemon's lint report must equal `nck_cli
# lint --json`, and its certify certificate and report `nck_cli certify
# --json`, byte for byte. Each program and op gets a fresh daemon: cached
# Z3 QUBOs can depend on the session's synthesis history.
ask_fresh() {  # <request line>: prints the daemon's response to it
  rm -f "$TMP/in7"
  mkfifo "$TMP/in7"
  "$SERVE" --workers=1 < "$TMP/in7" > "$TMP/out7" 2> "$TMP/err7" &
  local pid=$!
  exec 7> "$TMP/in7"
  printf '%s\n' "$1" >&7
  # Close stdin only once answered: a drain rejects still-queued requests.
  for _ in $(seq 1 300); do
    grep -q '^{"id":1,' "$TMP/out7" 2>/dev/null && break
    sleep 0.1
  done
  exec 7>&-
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  head -n 1 "$TMP/out7"
}
json_string() {  # <file> <ascii>: its text as one JSON string; with ascii
  # True every non-ASCII character is a \u escape (json.dumps' default),
  # with False the UTF-8 is left raw
  python3 -c 'import json, sys
print(json.dumps(open(sys.argv[1], encoding="utf-8").read(),
                 ensure_ascii=sys.argv[2] == "True"))' "$1" "$2"
}
if [ -n "$CLI" ]; then
  for prog in "$(dirname "$0")"/../examples/programs/*.nck; do
    text=$(json_string "$prog" False)
    escaped=$(json_string "$prog" True)
    for op in lint certify; do
      got=$(ask_fresh "{\"id\":1,\"op\":\"$op\",\"program\":$text}")
      # The same program with its non-ASCII characters escaped must get
      # the same reply.
      if [ "$escaped" != "$text" ]; then
        got_escaped=$(ask_fresh "{\"id\":1,\"op\":\"$op\",\"program\":$escaped}")
        if [ "$got_escaped" != "$got" ]; then
          printf '%s\n' "$got" > "$TMP/raw7"
          printf '%s\n' "$got_escaped" > "$TMP/esc7"
          fail "nck_serve $op answers the ASCII-escaped $(basename "$prog") differently" \
            "$TMP/raw7" "$TMP/esc7" "$TMP/err7"
        fi
      fi
      cli=$("$CLI" "$op" --json "$prog")
      if [ "$op" = lint ]; then
        want="{\"id\":1,\"op\":\"lint\",\"ok\":true,\"report\":$cli}"
      else
        want="{\"id\":1,\"op\":\"certify\",\"ok\":true,${cli#\{}"
      fi
      if [ "$got" != "$want" ]; then
        printf '%s\n' "$want" > "$TMP/want7"
        printf '%s\n' "$got" > "$TMP/got7"
        fail "nck_serve $op differs from nck_cli $op --json on $(basename "$prog")" \
          "$TMP/want7" "$TMP/got7" "$TMP/err7"
      fi
    done
  done
  [ "$fails" -eq 0 ] && echo "ok: nck_cli and nck_serve agree on lint and certify, raw or escaped"
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all serve lifecycle cases passed"
