#!/bin/sh
# Header hygiene: every public header of the layered engine must compile on
# its own in an isolated translation unit. This is what catches a header
# that silently leans on includes its old monolithic home provided (the
# failure mode of a header -> .cc split).
set -eu
cd "$(dirname "$0")/.."

CXX="${CXX:-c++}"
TMPDIR_HH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_HH"' EXIT

HEADERS="
src/core/engine.h
src/core/superstep_driver.h
src/core/message_path.h
src/core/paths/push_path.h
src/core/paths/push_m_path.h
src/core/paths/bpull_path.h
src/core/paths/vpull_path.h
src/core/paths/adaptive_path.h
src/core/paths/ghp_path.h
src/core/frontier.h
src/core/mirror_table.h
src/core/engine_setup.h
src/core/message_flow.h
src/core/superstep_accounting.h
src/core/hybrid_switch.h
src/core/engine_checkpoint.h
src/core/node_state.h
src/core/inbox.h
src/core/send_staging.h
src/core/trace.h
src/core/recovery.h
src/io/storage.h
src/io/prefetch.h
src/io/message_spill.h
src/net/message_codec.h
src/util/message_arena.h
src/core/epoch_driver.h
src/graph/edge_delta.h
src/graph/ve_block_overlay.h
src/serve/snapshot.h
src/serve/serve_protocol.h
src/serve/serve_server.h
"

failed=0
for h in $HEADERS; do
  [ -f "$h" ] || { echo "MISSING $h"; failed=1; continue; }
  tu="$TMPDIR_HH/$(echo "$h" | tr '/.' '__').cc"
  inc="${h#src/}"  # headers are included relative to -I src
  # Include twice: catches both missing transitive includes and a broken
  # include guard.
  printf '#include "%s"\n#include "%s"\nint main() { return 0; }\n' "$inc" "$inc" > "$tu"
  if ! "$CXX" -std=c++20 -fsyntax-only -I src "$tu" 2>"$TMPDIR_HH/err.txt"; then
    echo "FAIL $h"
    cat "$TMPDIR_HH/err.txt"
    failed=1
  else
    echo "ok   $h"
  fi
done

[ "$failed" -eq 0 ] || { echo "header hygiene check failed"; exit 1; }
echo "header hygiene: all engine headers compile standalone"
