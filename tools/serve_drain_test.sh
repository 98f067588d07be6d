#!/bin/sh
# SIGTERM drain test for `fpsq serve --stdin`: with the input pipe held
# open (so the reader is blocked mid-stream, the worst case for signal
# delivery), a SIGTERM must wake the reader, answer every admitted
# request, and exit 0.
set -eu

FPSQ="$1"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
fifo="$dir/requests.fifo"
out="$dir/responses.ndjson"
mkfifo "$fifo"
# The background job opens "$out" only after the fifo opens, so create
# it now: the wait loop below must not read a file that is not there yet.
: > "$out"

"$FPSQ" serve --stdin < "$fifo" > "$out" &
pid=$!

# Keep the write end open past the requests: EOF must NOT be what stops
# the server.
exec 9> "$fifo"
printf '%s\n' '{"id":"d1","op":"rtt","gamers":60}' >&9
printf '%s\n' '{"id":"d2","op":"rtt","gamers":80}' >&9

# Wait for both responses so the signal races only against the blocked
# reader, not against request processing.
i=0
while [ "$(wc -l < "$out")" -lt 2 ]; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "FAIL: responses never arrived"; exit 1; }
  sleep 0.1
done

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
exec 9>&-

if [ "$status" -ne 0 ]; then
  echo "FAIL: serve exited $status after SIGTERM (want 0)"
  exit 1
fi
grep -q '"id":"d1"' "$out" || { echo "FAIL: missing response d1"; exit 1; }
grep -q '"id":"d2"' "$out" || { echo "FAIL: missing response d2"; exit 1; }
echo "PASS: graceful drain, $(wc -l < "$out") responses, exit 0"
