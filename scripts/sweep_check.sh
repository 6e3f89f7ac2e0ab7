#!/bin/sh
# Pin the fixed-seed differential sweeps and the planlint sweep: each must
# report its committed count and 0 failures. The counts are how many plans
# (or prefixes, executions, statements) a sweep checked, so a planner
# change that alters which plans the memo retains fails here even when
# every answer is still right. After a deliberate change, record the new
# counts here and in CHANGES.md.
#
#   sh scripts/sweep_check.sh      (run from the root of the repository)
set -u
fail=0
check() {
  expected=$1
  shift
  line=$(dune exec bin/rankopt.exe -- "$@" 2>&1 | grep 'failure(s)' | tail -1)
  got=$(echo "$line" | sed -n 's/.*), \([0-9]*\) [a-z ]*, \([0-9]*\) failure(s).*/\1 \2/p')
  if [ "$got" = "$expected 0" ]; then
    echo "sweep-check: rankopt $*: $expected, 0 failures"
  else
    echo "sweep-check: rankopt $*: expected $expected and 0 failures, got: $line"
    fail=1
  fi
}
check 4188 fuzz --seed 0 --cases 400
check 4188 fuzz --vector --seed 0 --cases 400
check 2596 fuzz --enum --seed 0 --cases 200
check 150 fuzz --shard 4 --seed 0 --cases 50
check 600 fuzz --rank --seed 0 --cases 200
check 253 fuzz --server --seed 0 --cases 50
check 48661 lint --fuzz-seed 0 --fuzz-cases 300
# Two mode flags at once select no mode: a usage error before any case.
if dune exec bin/rankopt.exe -- fuzz --vector --enum --cases 1 >/dev/null 2>&1; then
  echo "sweep-check: rankopt fuzz --vector --enum: expected a usage error, got exit 0"
  fail=1
else
  echo "sweep-check: rankopt fuzz --vector --enum: usage error"
fi
exit $fail
