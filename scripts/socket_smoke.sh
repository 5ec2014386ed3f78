#!/usr/bin/env sh
# Socket-mode smoke: `rsp_cli serve --listen <unix socket>` must serve two
# CONCURRENT clients — which reuse each other's request ids, proving id
# scopes are per-connection — with response sets byte-identical to the
# stdin/stdout serve path, and must shut down gracefully on SIGTERM
# (exit 0 after draining). Responses complete out of order on both
# transports, so each set is compared sorted.
#
#   scripts/socket_smoke.sh <rsp_cli binary>
set -eu

cli=$1
workdir=$(mktemp -d)
server_pid=
cleanup() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

sock="$workdir/rsp.sock"

cat > "$workdir/requests_a.ndjson" <<'EOF'
{"protocol_version": 2, "id": "r1", "op": "eval", "kernel": "SAD"}
{"protocol_version": 2, "id": "r2", "op": "ping", "delay_ms": 50}
{"protocol_version": 2, "id": "r3", "op": "list"}
EOF
cat > "$workdir/requests_b.ndjson" <<'EOF'
{"protocol_version": 2, "id": "r1", "op": "eval", "kernel": "MVM"}
{"protocol_version": 2, "id": "r2", "op": "map", "kernel": "MVM", "arch": "RSP#2"}
{"protocol_version": 2, "id": "r3", "op": "ping"}
EOF

# Reference: the same streams through the plain stdin/stdout serve path.
"$cli" serve < "$workdir/requests_a.ndjson" \
  | sort > "$workdir/expect_a"
"$cli" serve < "$workdir/requests_b.ndjson" \
  | sort > "$workdir/expect_b"

"$cli" serve --listen "$sock" --max-connections 8 \
  > "$workdir/server.ready" 2> "$workdir/server.log" &
server_pid=$!

# The server prints a machine-parseable "READY <resolved-addr>" line per
# listener once it is accepting — no connect-polling needed.
i=0
while ! grep -q "^READY " "$workdir/server.ready" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "socket_smoke: server never printed READY for $sock" >&2
    cat "$workdir/server.log" >&2
    exit 1
  fi
  sleep 0.1
done
ready_addr=$(awk '/^READY /{print $2; exit}' "$workdir/server.ready")
if [ "$ready_addr" != "$sock" ]; then
  echo "socket_smoke: READY reported '$ready_addr', expected '$sock'" >&2
  exit 1
fi

# Two clients at once, overlapping ids.
"$cli" connect "$sock" < "$workdir/requests_a.ndjson" \
  | sort > "$workdir/got_a" &
client_a=$!
"$cli" connect "$sock" < "$workdir/requests_b.ndjson" \
  | sort > "$workdir/got_b" &
client_b=$!
wait "$client_a"
wait "$client_b"

kill -TERM "$server_pid"
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=
if [ "$server_rc" -ne 0 ]; then
  echo "socket_smoke: server exited $server_rc on SIGTERM" >&2
  cat "$workdir/server.log" >&2
  exit 1
fi

for side in a b; do
  if ! cmp -s "$workdir/expect_$side" "$workdir/got_$side"; then
    echo "socket_smoke: client $side diverges from the stdin serve path" >&2
    diff "$workdir/expect_$side" "$workdir/got_$side" >&2 || true
    exit 1
  fi
  if [ ! -s "$workdir/got_$side" ]; then
    echo "socket_smoke: client $side produced no output" >&2
    exit 1
  fi
done

echo "socket_smoke: 2 concurrent clients byte-identical to the stdin path," \
  "graceful SIGTERM shutdown ($(wc -c < "$workdir/got_a" | tr -d ' ')+$(wc \
  -c < "$workdir/got_b" | tr -d ' ') bytes compared)"
