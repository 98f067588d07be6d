#!/bin/sh
# Prints the stdout of a fixed list of analytic CLI invocations, each
# under a "$ fpsq ..." header line. The cli_golden ctest entry diffs the
# result against cli_golden.txt:
#
#   sh tools/cli_golden.sh build/tools/fpsq | diff -u tools/cli_golden.txt -
#
# Any command exiting non-zero fails the script.
set -eu

FPSQ="$1"
while read -r args; do
  echo "\$ fpsq $args"
  # shellcheck disable=SC2086  # word-split the argument list on purpose
  "$FPSQ" $args < /dev/null
done <<'EOF'
rtt --gamers 80 --k 9
rtt --gamers 40 --jitter 0.07
rtt --gamers 120 --k 20 --tick 50 --ps 150 --eps 1e-3
dimension --bound 50 --k 9
dimension --ks 2,9,20 --bounds 50,100
sweep --step 0.2
sweep --step 0.1 --jitter 0.07
EOF
