#!/usr/bin/env bash
# CI gate: build, test, format, lint, the benchmark smoke, then the
# service's end-to-end gates. Every stage passes or fails by its exit
# status. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> one byte codec (no from_le_bytes in crates/*/src outside crates/core/src/bytes.rs)"
# Every length, integer and checksum a format reads goes through
# snb_core::bytes, where the count rule lives; a second reader would
# bring back the panics and oversized allocations that rule refuses.
if grep -rn --include='*.rs' 'from_le_bytes' crates/*/src | grep -v '^crates/core/src/bytes\.rs:'; then
  echo "from_le_bytes outside crates/core/src/bytes.rs: read through snb_core::bytes::Reader" >&2
  exit 1
fi

echo "==> unsafe code in crates/store/src only in append_vec.rs"
# The append-shared buffer carries the store's only memory-ordering
# argument; an `unsafe` block, impl or fn anywhere else in the store
# needs its own argument, so it fails here first. Versions are published
# through a std RwLock<Arc<_>>, which needs none.
if grep -rnE --include='*.rs' '\bunsafe[[:space:]]*(\{|impl\b|fn\b)' crates/store/src \
  | grep -vE '^crates/store/src/append_vec\.rs:'; then
  echo "unsafe code outside crates/store/src/append_vec.rs" >&2
  exit 1
fi

echo "==> unsafe code in crates/*/src only in five files, each block and impl under a SAFETY: comment"
# The files that need unsafe: the append-shared buffer, the worker
# pool's borrowed-closure pointer, the epoll reactor, the server's
# signal handlers and the bench harness's SIGTERM. Every `unsafe` block
# or impl states its argument in a `// SAFETY:` comment just above it
# (consecutive impls share one); a bare block fails here.
UNSAFE_FILES='^crates/(store/src/append_vec|engine/src/exec|server/src/reactor|server/src/bin/snb_server|bench/src/bin/service_load/node)\.rs:'
if grep -rnE --include='*.rs' '\bunsafe\b' crates/*/src | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
  | grep -vE "$UNSAFE_FILES"; then
  echo "unsafe code outside the five allowed files in crates/*/src" >&2
  exit 1
fi
if grep -rlE --include='*.rs' '\bunsafe\b' crates/*/src | xargs awk '
  FNR == 1 { covered = 0; in_comment = 0 }
  /^[[:space:]]*\/\// {
    if (!in_comment) covered = 0
    in_comment = 1
    if ($0 ~ /SAFETY:/) covered = 1
    next
  }
  {
    in_comment = 0
    if ($0 ~ /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|impl[[:space:]<])/) {
      if (!covered) { print FILENAME ":" FNR ": " $0; found = 1 }
      if ($0 !~ /(^|[^[:alnum:]_])unsafe[[:space:]]+impl[[:space:]<]/) covered = 0
    } else {
      covered = 0
    }
  }
  END { exit !found }'; then
  echo "an unsafe block or impl without a // SAFETY: comment just above it" >&2
  exit 1
fi

echo "==> one write record (the IU parameter structs and insert_* entity methods stay gone)"
# Every insert reaches a store as an update-stream event through
# Store::apply_event, whose row writers the bulk builder shares; a second
# insert record would bring back the field-by-field conversion. (`\b`
# keeps the tests named insert_person_then_lookup and the like.)
if grep -rnE --include='*.rs' \
  'PersonInsert|PostInsert|CommentInsert|ForumInsert|fn insert_(person|post|comment|forum)\b' \
  crates/ src/ tests/ examples/; then
  echo "a second insert record is back: write through Store::apply_event" >&2
  exit 1
fi

echo "==> each column group is declared once (no per-field group passes, no per-group codec)"
# A column group's fields are listed once, in its column_group! declaration
# (crates/store/src/columns.rs), and the delete filter, shrink_to_fit and
# the image codec derive from it; a hand-listed pass would bring back the
# silent misalignment a forgotten column causes.
if grep -nE '\b[a-z_]+\.[a-z_]+\.(filter_in_place|shrink_to_fit)\(' \
  crates/store/src/delete.rs crates/store/src/store.rs crates/store/src/image.rs \
  || grep -nE 'fn (encode|decode)_(persons|forums|messages|places|tags|tag_classes|organisations)\b' \
    crates/store/src/image.rs; then
  echo "a column group is listed by hand: derive the pass from its column_group! declaration" >&2
  exit 1
fi

echo "==> one store builder (CSR assembly only in crates/store/src/{adj,build}.rs, CsvBasic names only in the serializer)"
# Every bulk load (the streaming generator, a materialised graph, the
# CsvBasic files) feeds StreamBuilder, whose row writers the update
# stream shares; a second CSR assembly or column push would bring back a
# loader whose store differs from the built one. The CsvBasic layout is
# known only by crates/datagen/src/serializer.rs, whose reader is the
# writer's inverse.
if grep -rnE --include='*.rs' 'Adj::from_edges\(|forward_reverse\(' crates/*/src \
  | grep -vE '^crates/store/src/(adj|build)\.rs:' \
  || grep -rn --include='*.rs' '_0_0\.csv' crates/*/src \
    | grep -v '^crates/datagen/src/serializer\.rs:'; then
  echo "a second store builder or CsvBasic reader: feed StreamBuilder through serializer::read_basic" >&2
  exit 1
fi

echo "==> one write-ack contract (no group commit, no fsync batching, no flush gate in crates/*/src)"
# Every write ack follows its own batch's fsync: submit_batch applies to a
# private clone, SegmentedWal::append writes and fsyncs the record, then
# the batch is published and acked. A deferred or shared flush would let
# an ack or a publish get ahead of the disk.
if grep -rnE --include='*.rs' 'group_commit|fsync_every|GROUP_COMMIT_WINDOW|wait_for_flush|flushed_seq' \
  crates/*/src; then
  echo "a second write-ack mode is back: ack only after the batch's own fsync" >&2
  exit 1
fi

echo "==> each query is declared once (no per-query arm in the wire codec or the parameter files)"
# A query's fields and their spec keys are declared once, in its module's
# query_params! declaration, and its number, variant and module once, in
# the bi_queries! / ic_queries! table; the wire codec (proto.rs) and the
# substitution files (files.rs) dispatch through the BiParams / IcParams
# methods derived from them. A hand-listed arm would bring back the drift
# that left BI 2's min_count out of its file. Only the code above each
# file's test module is searched: the tests build sample bindings.
if awk '/^#\[cfg\(test\)\]/ { nextfile }
  /(Bi|Ic)Params::Q[0-9]/ { print FILENAME ":" FNR ": " $0; found = 1 }
  END { exit !found }' crates/server/src/proto.rs crates/params/src/files.rs; then
  echo "a query is listed by hand: dispatch through its query_params! / query_enum! declaration" >&2
  exit 1
fi

echo "==> each string column owns its dictionary (no process-global interner, no leaked strings)"
# A dictionary-coded column holds exactly the strings its rows use, so a
# delete gives them back; a process-wide dictionary or a leaked string
# would grow for the life of the process under sustained writes.
if grep -rnE 'StrInterner|interner\(\)|intern_static|Box::leak' crates/*/src src tests examples; then
  echo "a process-global string dictionary or a leaked string is back: push into the column" >&2
  exit 1
fi

echo "==> the date index is never stale, names resolve through the dictionaries"
# Every store the API hands out keeps message_by_date sorted and complete:
# an insert goes in at its place, a delete keeps the survivors' order, and
# only the bulk builder and image decode sort. Country, tag and tag-class
# names resolve through the name columns' own dictionaries. A freshness
# check, a scan fallback or a second name map would bring back a store
# state that exists only to be repaired. Store::date_index_fresh (always
# true) stays defined in store.rs for the benchmark package alone.
if grep -rnE 'date_index_fresh|note_index_fallback|place_by_name|tag_by_name|tag_class_by_name' \
  crates/*/src src tests examples \
  | grep -vE '^crates/store/src/store\.rs:[0-9]+:    pub fn date_index_fresh\(' \
  || grep -rn 'rebuild_date_index' crates/*/src src tests examples \
    | grep -vE '^crates/store/src/(store|build|image)\.rs:'; then
  echo "a stale-index repair or a second name map is back: keep the index sorted on write, look names up in the column" >&2
  exit 1
fi

echo "==> durable bytes are hashed once (no fnv64 in the WAL or the image, no unsafe in crates/core/src, the image path streams)"
# Every checked frame and the image header are summed once, by xxh64 in
# snb_core::bytes, which is safe code; FNV-1a is byte-serial and stays
# only for the answer, binding and wire pins. The image is written and
# read a section at a time: an encode_store call in the server would hold
# the whole payload beside the store again. Only the code above each
# file's test module is searched for it: the tests compare stores by
# their encoded bytes.
if grep -n 'fnv64' crates/server/src/wal.rs crates/server/src/image.rs crates/store/src/image.rs \
  || grep -rnE --include='*.rs' '\bunsafe\b' crates/core/src \
  || awk '/^#\[cfg\(test\)\]/ { nextfile }
    /encode_store\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }' crates/server/src/*.rs crates/server/src/bin/*.rs; then
  echo "a second hash pass or a whole-image buffer is back: frame through snb_core::bytes, stream the image" >&2
  exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> kernel oracle sweep at SF 0.03 (BI 2, 9, 11, 12, 18, 19, 20 against run_naive)"
# The tier-1 sweep runs on a 150-person store; this one has person and
# message lists close to the benchmark's.
cargo test --release --test kernel_oracles -- --ignored

echo "==> refresh microbatch image equality at SF 0.03 (a like delete against never inserting)"
cargo test --release --test refresh_deletes -- --ignored

echo "==> deleted persons give their names back at 100 000 persons (live and after image recovery)"
# Tier-1 writes and deletes 2 000 uniquely named persons; this one
# writes 100 000 through the wire codec and a durable server.
cargo test --release --test string_dictionary -- --ignored

echo "==> CsvBasic load equals the built store at SF 0.01 (encode_store bytes)"
# Tier-1 checks two SF 0.003 seeds; this one has a deeper reply forest
# and more likes per message.
cargo test --release --test csv_pipeline -- --ignored

echo "==> snapshot isolation and the concurrent stress gates in release"
# In-place appends share buffers with pinned readers; the release build
# runs the writer fast enough to overlap the readers' scans.
cargo test --release --test snapshot_isolation
cargo test --release -p snb-server --test concurrent_stress

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -- -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> benchmark smoke (frozen benchmark/ package: fmt, clippy, tests, 4 workloads traced at SF 0.003)"
# The repo benchmark verifies every workload against its own oracle
# (naive engine, direct-apply store, direct run_short); a change to a
# string column or a BI row builder must keep those checks green here,
# not first in the driver's benchmark run.
smoke_started=$SECONDS
benchmark/smoke.sh
echo "benchmark smoke wall time: $((SECONDS - smoke_started)) s"

echo "==> chaos recovery (WAL + SIGKILL + dedupe + oracle equality)"
# Gate on the WAL checksum/truncation unit tests before paying for the
# full chaos run — a broken record format makes the rest meaningless.
cargo test -q --release -p snb-server --lib wal:: > /dev/null
# The harness spawns snb-server itself (ephemeral port, temp WAL dir,
# one wal.log), SIGKILLs it at four injected fault points (WAL tears,
# apply panic, torn store-image write), restarts it, resubmits unacked
# batches, verifies the recovered store against an acked-batches oracle
# over all 25 BI queries, and requires a clean exit on SIGTERM.
target/release/service_load 0.001 --chaos --server-bin target/release/snb-server

echo "==> removed knobs stay gone (--partitions, --shed-oldest, the lane, write-ack and replication knobs -> unknown flag, exit 2)"
for FLAG in --partitions --shed-oldest --short-cap --heavy-cap --write-cap --short-weight \
  --short-deadline-ms --deadline-ms --fsync-every --group-commit --write-workers \
  --repl-port --follower --replicate-from --promote --announce-repl --announce-client \
  --siblings --epoch-floor; do
  set +e
  FLAG_ERR="$(target/release/snb-server 0.001 "$FLAG" 2>&1 >/dev/null)"
  FLAG_STATUS=$?
  set -e
  if [ "$FLAG_STATUS" -ne 2 ] || ! printf '%s' "$FLAG_ERR" | grep -q "unknown flag $FLAG"; then
    echo "snb-server $FLAG exited $FLAG_STATUS ($FLAG_ERR); want 2 and unknown flag" >&2
    exit 1
  fi
done

echo "==> read-path chaos (conn.read.stall -> typed conn_stalled outcome)"
# A connection goes quiet while the armed stall wedges its handler in
# the read path; the idle deadline must trip and the close must land in
# the access log with the typed conn_stalled outcome (not a hang, not a
# silent drop). SIGTERM must then exit cleanly and flush the log.
STALL_OUT="$(mktemp /tmp/stall_smoke.XXXXXX.out)"
STALL_LOG="$(mktemp /tmp/stall_smoke.XXXXXX.jsonl)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -f "$STALL_OUT" "$STALL_LOG"
}
trap cleanup EXIT
SNB_ACCESS_LOG="$STALL_LOG" SNB_FAULTS='conn.read.stall=stall:800@h1' \
  target/release/snb-server 0.001 \
  --port 0 --workers 1 --conn-timeout-ms 300 > "$STALL_OUT" 2>/dev/null &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 240); do
  ADDR="$(grep -o '127\.0\.0\.1:[0-9]*' "$STALL_OUT" | head -1 || true)"
  [ -n "$ADDR" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "snb-server (stall stage) exited before listening" >&2; exit 1
  fi
  sleep 0.5
done
[ -n "$ADDR" ] || { echo "snb-server (stall stage) never listened" >&2; exit 1; }
PORT="${ADDR##*:}"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
sleep 2
exec 3<&- 3>&-
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "snb-server (stall stage) did not exit cleanly on SIGTERM" >&2; exit 1
fi
SERVER_PID=""
grep -q '"outcome": "conn_stalled"' "$STALL_LOG" || {
  echo "access log has no conn_stalled outcome for the stalled connection" >&2
  exit 1; }

echo "==> connection sweep (reactor ladder + starvation gate)"
# E16 on a small ladder: every level answers every request without an
# error, the reactor holds every level's connections at once, the
# BI-flood phase sheds no short read.
target/release/service_load 0.001 --sweep --sweep-levels 1,8,64 --sweep-duration 500ms

echo "CI OK"
