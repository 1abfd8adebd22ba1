#!/usr/bin/env bash
# Measures which non-test functions no shipped entry point reaches, and
# writes them to docs/REACHABILITY.txt.
#
#	bash internal/tools/reach/run.sh
#
# It builds bbmig, bbcluster, bbench, bbtrace and the benchmark/ binary with
# coverage over every package of the module, runs a fixed list of entry
# points (demos, a loopback send/recv round trip with an IM back and a cold
# resume, the cluster verbs, trace record/analyze, the bbench tables and
# suite, the gated benchmark untraced and traced), merges the profiles and
# lists every function left at 0.0 % with its line count. The benchmark
# harness and internal/tools are left out of the list. Takes a few minutes;
# every build output and run artifact stays in a temporary directory.
#
# Every row the file keeps is one of: a fault path (reached only after a link
# failure), a test fake, a paper baseline the goldens compare against, an
# observer a test asserts through, or hostd striping. The archcheck rule "no
# test-only code" (internal/tools/archcheck) is the build-time half of this
# report: it fails on a function no non-test file names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../../.." && pwd)"
work="$(mktemp -d)"
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT
export GOPROXY=off GOTOOLCHAIN=local
bin="$work/bin"
mkdir -p "$bin" "$work/cov" "$work/run"

echo "reach: building with coverage" >&2
for c in bbmig bbcluster bbench bbtrace; do
	(cd "$root" && go build -cover -coverpkg=bbmig/... -o "$bin/$c" "./cmd/$c")
done
(cd "$root/benchmark" && go build -cover -coverpkg=bbmig/... -o "$bin/benchmark" .)
export GOCOVERDIR="$work/cov"
cd "$work/run"

# step runs one entry point under a watchdog, its output kept out of sight.
step() {
	echo "reach: $*" >&2
	timeout 600 "$@" >>"$work/log" 2>&1
}

# recv starts a receiver in the background and waits for its listener; its
# pid is left in $rpid and the address it bound in $addr.
recv() {
	local log="$work/recv.$RANDOM"
	"$bin/bbmig" -mode recv -listen 127.0.0.1:0 -size-mb 8 -mem-mb 2 "$@" >"$log" 2>&1 &
	rpid=$!
	pids+=($rpid)
	for _ in $(seq 100); do
		addr="$(sed -n 's/^waiting for migration on \(.*\)\.\.\.$/\1/p' "$log")"
		[ -n "$addr" ] && return 0
		sleep 0.1
	done
	echo "reach: receiver did not start: $(cat "$log")" >&2
	return 1
}

demo=("$bin/bbmig" -mode demo -size-mb 8 -mem-mb 2)
step "${demo[@]}" -workload web -progress
step "${demo[@]}" -workload diabolical -streams 2 -extent-blocks 16 -workers 2 -readahead 2 \
	-compress -dedup -delta -cache-blocks 256
step "${demo[@]}" -workload kernel -max-retries 2 -limit-mbps 400
step "${demo[@]}" -workload stream

# A primary migration with a journal and a saved fresh bitmap, then an IM
# back along that bitmap with every transfer knob on.
head -c 4194304 /dev/urandom >src.img
truncate -s 8M src.img
recv -image dst.img -fresh-bitmap fresh.bm
step "$bin/bbmig" -mode send -addr "$addr" -image src.img -mem-mb 2 -workload web -speedup 50 \
	-max-retries 2 -journal primary.journal
wait "$rpid"
recv -image src.img -streams 2 -workers 2 -cache-blocks 256
step "$bin/bbmig" -mode send -addr "$addr" -image dst.img -mem-mb 2 -workload kernel -speedup 50 \
	-initial-bitmap fresh.bm -streams 2 -extent-blocks 16 -compress-level 1 -dedup -delta -cache-blocks 256
wait "$rpid"

# Cold resume: a paced migration loses its receiver mid pre-copy, the source
# gives up with its journal on disk, and a restarted source re-sends what the
# journal owes.
recv -image cold.img
"$bin/bbmig" -mode send -addr "$addr" -image src.img -mem-mb 2 -limit-mbps 4 \
	-max-retries 1 -retry-backoff 10ms -journal cold.journal >>"$work/log" 2>&1 &
sender=$!
pids+=($sender)
sleep 2
kill -9 "$rpid"
wait "$sender" || true
recv -image cold.img
step "$bin/bbmig" -mode send -addr "$addr" -image src.img -mem-mb 2 -journal cold.journal -resume
wait "$rpid"

step "$bin/bbcluster" status
step "$bin/bbcluster" drain host1
step "$bin/bbcluster" -presync -dedup -swarm -live -budget-mb 200 drain host1
step "$bin/bbcluster" rebalance
step "$bin/bbcluster" -forecast -live autopilot

step "$bin/bbtrace" -mode record -workload web -minutes 1 -disk-mb 256 -out web.trace
step "$bin/bbtrace" -mode analyze -in web.trace

step "$bin/bbench" -exp all
# The gate's verdict depends on the machine; only what it runs matters here.
step "$bin/bbench" -json bench.json -compare "$root/BENCH_engine.json" || true

step "$bin/benchmark" -seconds 2
step "$bin/benchmark" -seconds 2 -trace 1

echo "reach: merging profiles" >&2
go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/cover.raw"
# The benchmark harness and internal/tools are not shipped code.
grep -v -e '^bbmig/benchmark/' -e '^bbmig/internal/tools/' "$work/cover.raw" >"$work/cover.txt"
out="$root/docs/REACHABILITY.txt"
(cd "$root" && go tool cover -func="$work/cover.txt") |
	awk -v root="$root" '
	$NF == "0.0%" {
		split($1, at, ":")
		file = at[1]; sub(/^bbmig\//, "", file)
		start = at[2]; n = 0; line = 0
		# gofmt closes a multi-line function with "}" in column 1.
		while ((getline text < (root "/" file)) > 0) {
			line++
			if (line < start) continue
			n++
			if (line == start && text ~ /}$/ || line > start && text == "}") break
		}
		close(root "/" file)
		# An empty body has no statement to cover: it always reads 0.0 %.
		if (n == 1 && text ~ /\{\}$/) next
		printf "%s:%d\t%s\t%d\n", file, start, $2, n
		total += n; count++
	}
	END { printf "# %d functions, %d lines\n", count, total > "/dev/stderr" }
	' 2>"$work/total" | sort -t: -k1,1 -k2,2n >"$work/rows"
{
	echo "# Non-test functions no shipped entry point reaches: file:line, function,"
	echo "# lines. Regenerate with: bash internal/tools/reach/run.sh"
	cat "$work/total"
	cat "$work/rows"
} >"$out"
echo "reach: wrote $out ($(cat "$work/total" | tr -d '#'))" >&2
