#!/bin/sh
# CLI transcript: run a fixed list of ftes commands and print, for each,
# the command line, its stdout, its stderr and its exit status.  The
# output is deterministic (campaign ETA lines are dropped, temporary file
# names lose their pid), so it is diffed byte for byte against
# test/golden/cli_transcript.txt.
#
#   sh cli_transcript.sh path/to/ftes.exe path/to/golden > transcript.txt
#
# Commands run in a fresh ./cli-transcript.d, so every file they read or
# write has a short relative name.

set -u
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$2" && pwd)
unset FTES_CAMPAIGN_KILL_AFTER FTES_CAMPAIGN_KILL_SHARD OCAMLRUNPARAM
rm -rf cli-transcript.d
mkdir cli-transcript.d
cd cli-transcript.d || exit 1
cp "$golden/infeasible-fig1.json" "$golden/certificate-cc.json" \
  "$golden/certificate-infeasible-fig1-tampered.json" .
printf '{"class": "wcet-scale", "node": 0, "factor": 1.1}\n' > delta.json

run() {
  printf '$ ftes'
  for arg in "$@"; do
    case $arg in
      *' '*) printf " '%s'" "$arg" ;;
      *) printf ' %s' "$arg" ;;
    esac
  done
  printf '\n'
  "$exe" "$@" > stdout.txt 2> stderr.txt
  status=$?
  echo '--- stdout'
  sed '/(ETA /d' stdout.txt
  echo '--- stderr'
  sed 's/\.tmp\.[0-9]*/.tmp.PID/g' stderr.txt
  echo "--- exit $status"
  echo
}

deadline='{"class": "deadline-scale", "factor": 0.95}'

# The exact search proves fig1 and fig3 in milliseconds; cc takes minutes.
for format in '' '--format json'; do
  for example in fig1 cc; do
    run optimize --example $example --gantt $format
    run analyze --example $example $format
    run pareto --example $example $format
    run whatif --example $example --delta "$deadline" $format
    run lint --example $example $format
  done
  for example in fig1 fig3; do
    run exact --example $example $format
  done
done
run lint --example fig3
run pareto --example cc --eps 0.5

run analyze --example fig1 --cert fig1-cert.json
run analyze --example fig1 --audit fig1-cert.json
run analyze --example fig1 --audit fig1-cert.json --format json
run analyze --example cc --audit certificate-cc.json
run exact --example fig1 --cert fig1-bnb-cert.json
run exact --example fig1 --audit fig1-bnb-cert.json
run exact --example fig1 --audit fig1-bnb-cert.json --format json
run exact --example fig3
run pareto --example cc --csv frontier.csv --json frontier.json
run analyze --example cc --audit certificate-cc.json --frontier frontier.json

run analyze --file infeasible-fig1.json
run analyze --file infeasible-fig1.json --audit certificate-infeasible-fig1-tampered.json
run lint --file infeasible-fig1.json
run lint --file infeasible-fig1.json --format json

run whatif --example fig1 --delta-file delta.json --format json
run whatif --example fig1 --delta '{"class": "frobnicate"}'

run simulate --example fig1 --trials 2000 --boost 100
run simulate --example fig1 --trials 2000
run simulate --example cc --trials 2000
run worst-case --example fig1
run checkpoint --example fig1
run export --example cc -o cc.json
run lint --file cc.json
run generate --procs 8 --seed 5 -o synthetic.json
run analyze --file synthetic.json --format json

run analyze --example fig1 --cert /nonexistent/x.json
run pareto --example fig1 --csv /nonexistent/x.csv
run export --example fig1 -o /nonexistent/x.json
run generate --procs 8 -o /nonexistent/x.json
run optimize --example fig1 --trace /nonexistent/t.jsonl
run optimize --example fig1 --metrics /nonexistent/m.csv
run campaign run --dir /nonexistent/c --apps 2 --shards 1 --policies min

run campaign run --dir campaign --apps 2 --shards 2 --jobs 1 \
  --policies 'min, OPT' --sers '1e-11, 1e-10'
run campaign status --dir campaign
run campaign merge --dir campaign
run campaign run --dir bad --apps 2 --policies min,best
run campaign run --dir bad --apps 2 --sers 1e-11,x
