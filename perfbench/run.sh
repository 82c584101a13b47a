#!/bin/sh
# Build the daemon and the benchmark driver from this checkout, then run
# the driver with the arguments given:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the
# driver's JSON result.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./bin/faultnetd.exe ./perfbench/main.exe 1>&2
# The daemon workloads run the client and the daemon on one CPU, the
# last one this process may use: the two take turns, and the host
# reference (calib.ml) is then timed on the CPU the daemon runs on.
# The theorem suite runs on default domains, so it keeps every CPU.
pin=
case " $* " in
*" --workload churn_serve "* | *" --workload alpha_track "*)
  cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null |
    tr ',' '\n' | tail -n 1 | sed 's/.*-//')
  if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
    pin="taskset -c $cpu"
  fi
  ;;
esac
exec $pin ./_build/default/perfbench/main.exe "$@"
