#!/bin/sh
# Characterization transcript of the subcommands that turn analysis
# verdicts into a run (run, profile, heap): stdout, stderr and exit code
# of each case, in order.  Every case is deterministic, so the transcript
# is compared byte for byte against characterize.expected.
#
# Usage: sh characterize.sh path/to/satbelim.exe > characterize.out

set -u
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 2
"$exe" workloads db > db.jasm
"$exe" workloads mtrt > mtrt.jasm

case_ () {
  echo "== satbelim $*"
  "$exe" "$@" > out 2> err
  code=$?
  echo "-- stdout"
  cat out
  echo "-- stderr"
  cat err
  echo "-- exit $code"
}

for gc in none satb incr retrace hybrid; do
  case_ run db.jasm --gc "$gc"
done
case_ run db.jasm --no-elim
case_ run db.jasm --gc hybrid --no-elim
case_ run db.jasm --gc retrace --swap --move-down --null-or-same --summaries \
  --chaos 42

case_ profile --workload micro-expand --soft-limit 24 --top 5
case_ profile --workload micro-expand --soft-limit 24 --top 5 --gc hybrid
case_ heap --workload micro-expand --top 5
case_ heap --workload micro-expand --top 5 --soft-limit 24

# the three unsound-combination refusals, under both subcommands
case_ run db.jasm --swap
case_ run db.jasm --move-down --gc incr
case_ run mtrt.jasm --move-down
case_ profile --workload db --swap
case_ profile --workload db --move-down --gc incr
case_ profile --workload mtrt --move-down
