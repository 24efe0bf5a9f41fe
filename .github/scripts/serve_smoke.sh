#!/usr/bin/env bash
# serve-smoke: pipe three requests through `cdat serve --stdio` and diff
# the responses against `cdat batch` on the same three-document suite.
# The response bodies must be byte-identical (the id field replaces the
# doc/name/cache fields, which this script strips from both sides).
#
# Usage: serve_smoke.sh [path/to/cdat]
set -euo pipefail

CDAT=${1:-target/release/cdat}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Three small documents: the factory example plus two hand-rolled trees
# (one of them DAG-like, so both solver backends run).
doc0='or "production shutdown" damage=200\n  bas cyberattack cost=1 prob=0.2\n  and "destroy robot" damage=100\n    bas "place bomb" cost=3 prob=0.4\n    bas "force door" cost=2 damage=10 prob=0.9\n'
doc1='or goal damage=10\n  bas pick-lock cost=5\n  bas smash-window cost=1 damage=2\n'
doc2='or root damage=9\n  and g1\n    bas x cost=1\n    bas y cost=2\n  and g2\n    ref x\n    bas z cost=3 damage=4\n'

# The suite file for `cdat batch` (printf expands the \n escapes) ...
{
  printf -- '--- a\n'; printf -- "$doc0"
  printf -- '--- b\n'; printf -- "$doc1"
  printf -- '--- c\n'; printf -- "$doc2"
} > "$workdir/suite.cdat"

# ... and the same three documents as serve requests. The \n stay literal
# (they are JSON string escapes); inner double quotes must be escaped.
json0=${doc0//\"/\\\"}
json1=${doc1//\"/\\\"}
json2=${doc2//\"/\\\"}
{
  printf '{"id":0,"tree":"%s","query":"cdpf"}\n' "$json0"
  printf '{"id":1,"tree":"%s","query":"cdpf"}\n' "$json1"
  printf '{"id":2,"tree":"%s","query":"cdpf"}\n' "$json2"
} > "$workdir/requests.jsonl"

"$CDAT" batch "$workdir/suite.cdat" --cdpf 2>/dev/null \
  | sed -E 's/"doc":[0-9]+,("name":"[^"]*",)?//; s/"cache":"(hit|miss)",//' \
  > "$workdir/batch.out"

"$CDAT" serve --stdio --workers 2 --batch-window-us 500 < "$workdir/requests.jsonl" \
  | sort -t: -k2 \
  | sed -E 's/"id":[0-9]+,//' \
  > "$workdir/serve.out"

echo "--- batch (normalized) ---"; cat "$workdir/batch.out"
echo "--- serve (normalized) ---"; cat "$workdir/serve.out"
diff -u "$workdir/batch.out" "$workdir/serve.out"
echo "serve-smoke: serve and batch agree byte-for-byte on 3 documents"

# Same three documents again with witnesses on: `batch --witnesses` and
# `"witnesses":true` serve requests must stay byte-identical, and every
# front line must actually carry a witnesses array.
{
  printf '{"id":0,"tree":"%s","query":"cdpf","witnesses":true}\n' "$json0"
  printf '{"id":1,"tree":"%s","query":"cdpf","witnesses":true}\n' "$json1"
  printf '{"id":2,"tree":"%s","query":"cdpf","witnesses":true}\n' "$json2"
} > "$workdir/requests-wit.jsonl"

"$CDAT" batch "$workdir/suite.cdat" --cdpf --witnesses 2>/dev/null \
  | sed -E 's/"doc":[0-9]+,("name":"[^"]*",)?//; s/"cache":"(hit|miss)",//' \
  > "$workdir/batch-wit.out"

"$CDAT" serve --stdio --workers 2 --batch-window-us 500 < "$workdir/requests-wit.jsonl" \
  | sort -t: -k2 \
  | sed -E 's/"id":[0-9]+,//' \
  > "$workdir/serve-wit.out"

echo "--- batch --witnesses (normalized) ---"; cat "$workdir/batch-wit.out"
echo "--- serve witnesses:true (normalized) ---"; cat "$workdir/serve-wit.out"
diff -u "$workdir/batch-wit.out" "$workdir/serve-wit.out"
[ "$(grep -c '"witnesses":\[' "$workdir/serve-wit.out")" -eq 3 ] \
  || { echo "serve-smoke: expected a witnesses array on all 3 responses" >&2; exit 1; }
echo "serve-smoke: witnessed serve and batch agree byte-for-byte on 3 documents"

# Persistent store: one serve session fills a fresh store, then a second
# session — a restarted server on the same file — answers warm from disk.
# Both sessions must emit the same bytes as batch, and the restarted one
# must report disk hits in its stats.
store="$workdir/fronts.cdatstore"

"$CDAT" serve --stdio --workers 2 --batch-window-us 500 --store "$store" \
  < "$workdir/requests.jsonl" \
  | sort -t: -k2 \
  | sed -E 's/"id":[0-9]+,//' \
  > "$workdir/serve-store-cold.out"
diff -u "$workdir/batch.out" "$workdir/serve-store-cold.out"
[ -s "$store" ] || { echo "serve-smoke: the serve session wrote no store records" >&2; exit 1; }

# The restart. The stats op trails the solves after a pause so the shards
# have answered (responses stream before the stats line is requested).
{ cat "$workdir/requests.jsonl"; sleep 2; printf '{"op":"stats","id":9}\n'; } \
  | "$CDAT" serve --stdio --workers 2 --batch-window-us 500 --store "$store" \
  > "$workdir/serve-store-warm-raw.out"
grep '"stats":' "$workdir/serve-store-warm-raw.out" \
  | grep -Eq '"stats":\{[^}]*"disk_hits":[1-9]' \
  || { echo "serve-smoke: the restarted server must report disk hits" >&2; \
       cat "$workdir/serve-store-warm-raw.out"; exit 1; }
grep -v '"stats":' "$workdir/serve-store-warm-raw.out" \
  | sort -t: -k2 \
  | sed -E 's/"id":[0-9]+,//' \
  > "$workdir/serve-store-warm.out"
diff -u "$workdir/batch.out" "$workdir/serve-store-warm.out"
echo "serve-smoke: restarted server answered warm from the store, byte-identically"

# Repeated trees: the three documents three times each in one session with
# fresh ids, the last copy of each spelled with `\u000a` escapes instead of
# `\n`. The tree memo parses each text on its first two sightings and
# answers the third from memory (the escape spelling decodes to the same
# text). Every answer must still equal batch, and the metrics op must show
# memo hits, so this lane fails if the memo silently stops engaging.
{
  id=100
  for round in 0 1 2; do
    for json in "$json0" "$json1" "$json2"; do
      [ "$round" -eq 2 ] && json=${json//\\n/\\u000a}
      printf '{"id":%d,"tree":"%s","query":"cdpf"}\n' "$id" "$json"
      id=$((id + 1))
    done
  done
  printf '{"op":"metrics","id":999}\n'
} > "$workdir/requests-repeat.jsonl"
grep -q 'u000a' "$workdir/requests-repeat.jsonl" \
  || { echo "serve-smoke: the escaped copies are missing" >&2; exit 1; }

"$CDAT" serve --stdio --workers 2 < "$workdir/requests-repeat.jsonl" \
  > "$workdir/serve-repeat-raw.out"
grep -v '"metrics":' "$workdir/serve-repeat-raw.out" \
  | sed -E 's/"id":[0-9]+,//' \
  | sort > "$workdir/serve-repeat.out"
for _ in 1 2 3; do cat "$workdir/batch.out"; done | sort > "$workdir/batch-repeat.out"
diff -u "$workdir/batch-repeat.out" "$workdir/serve-repeat.out"
memo_hits=$(grep '"metrics":' "$workdir/serve-repeat-raw.out" \
  | grep -oE 'cdat_tree_memo_hits_total [0-9]+' | awk '{ print $2 }')
echo "serve-smoke: repeated-tree pass scraped cdat_tree_memo_hits_total=${memo_hits:-missing}"
[ "${memo_hits:-0}" -gt 0 ] \
  || { echo "serve-smoke: repeated trees must answer from the tree memo" >&2; exit 1; }
echo "serve-smoke: repeated trees answered from the memo, byte-identical to batch"
