#!/bin/sh
# Run one small config per etlab mode on two source trees and report, per
# config, whether `diff -r` finds their output directories identical. macro
# also runs at n = 1024 (the size of the benchmark's macro-n1024, 20 steps,
# under 1 s), with paper_picard (at the default eps and delta, and at
# eps = delta = 0), with backoff substeps (fp_max_iter = 4 makes its first
# step halve tau five times) and on theta-step data whose first step
# exhausts the tau backoff, kinetic also at the size of the benchmark's
# kinetic-n256 (n = 256, n_v = 64, 2276 steps, about 0.5 s) and on uniform
# equilibrium data with rho = 1e16 >> theta = 1, and sweep with one varied
# field (the gaps and orders of a delta study) and with two; a config named
# <mode>-<variant> runs <mode>. When both trees exit with the same nonzero
# code, their error.json files are compared instead.
#
#   scripts/output_diff.sh <base-tree> [<head-tree>] [<work-dir>]
#
# <head-tree> defaults to the current directory, <work-dir> to a fresh
# temporary directory, which keeps the configs and both trees' outputs.
# The script only reports: it exits 0 whatever the outputs are, so that a
# change that alters output bytes is seen and explained, not blocked.
set -u
base=$(cd "$1" && pwd)
head=$(cd "${2:-.}" && pwd)
work=${3:-$(mktemp -d)}
mkdir -p "$work"

config() {  # config <name> <json>
  printf '%s\n' "$2" > "$work/$1.json"
}
items() {  # items <count> <value>: <count> comma-separated copies of <value>
  printf '%s' "$2"
  i=1
  while [ "$i" -lt "$1" ]; do printf ', %s' "$2"; i=$((i + 1)); done
}
config macro '{"mode": "macro", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.01}, "init": {"preset": "gauss-bump"},
  "output": {"snapshot_stride": 1}}'
config macro-n1024 '{"mode": "macro", "grid": {"n_cells": 1024, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.02}, "init": {"preset": "gauss-bump"},
  "output": {"snapshot_stride": 10}}'
config macro-picard '{"mode": "macro", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.01, "inner_mode": "paper_picard"},
  "init": {"preset": "gauss-bump"}}'
config macro-picard-unregularized '{"mode": "macro",
  "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.01, "inner_mode": "paper_picard", "eps": 0.0, "delta": 0.0},
  "init": {"preset": "gauss-bump"}}'
config macro-substeps '{"mode": "macro", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"tau": 1e-2, "t_final": 0.04, "fp_max_iter": 4},
  "init": {"preset": "gauss-bump"}}'
config macro-fails '{"mode": "macro", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.002},
  "init": {"rho0": ['"$(items 32 1)"'],
           "theta0": ['"$(items 10 0), $(items 12 1), $(items 10 0)"']}}'
config kinetic '{"mode": "kinetic", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"t_final": 0.005}, "kinetic": {"eps": 0.2, "n_v": 32},
  "init": {"preset": "gauss-bump"}}'
config kinetic-n256 '{"mode": "kinetic", "grid": {"n_cells": 256, "length": 1.0},
  "scheme": {"t_final": 0.1}, "kinetic": {"eps": 0.1, "n_v": 64},
  "init": {"preset": "gauss-bump"}}'
config kinetic-dense '{"mode": "kinetic", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"t_final": 0.005}, "kinetic": {"eps": 0.2, "n_v": 32},
  "init": {"rho0": ['"$(items 32 1e16)"'], "theta0": ['"$(items 32 1.0)"']}}'
config compare '{"mode": "compare", "grid": {"n_cells": 32, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.01}, "kinetic": {"eps": [0.4, 0.2, 0.1], "n_v": 32},
  "init": {"preset": "gauss-bump"}}'
config sweep-delta '{"mode": "sweep", "grid": {"n_cells": 16, "length": 1.0},
  "scheme": {"tau": 2e-3, "t_final": 0.01, "eps": 0.0}, "init": {"preset": "gauss-bump"},
  "sweep": {"varied": {"delta": [1e-2, 1e-3, 1e-4]}}}'
config sweep-varied '{"mode": "sweep", "grid": {"n_cells": 16, "length": 1.0},
  "scheme": {"tau": 5e-3, "t_final": 0.02, "eps": 0.0}, "init": {"preset": "temp-step"},
  "sweep": {"varied": {"delta": [1e-3, 1e-4], "tau": [1e-2, 5e-3]}}}'
config mms '{"mode": "mms", "grid": {"n_cells": 16, "length": 1.0},
  "scheme": {"tau": 1e-3, "t_final": 0.01, "eps": 0.0, "delta": 0.0},
  "mms": {"resolutions": [16, 32]}}'

run() {  # run <tree> <label> <mode> <config> <out>: etlab's exit code
  PYTHONPATH="$1/src" python3 -m etlab.cli "$3" "$work/$4.json" \
    "output.directory=$work/$2/$5" > "$work/$2-$5.log" 2>&1
}

for name in macro macro-n1024 macro-picard macro-picard-unregularized macro-substeps macro-fails audit kinetic kinetic-n256 kinetic-dense compare sweep-delta sweep-varied mms; do
  status=
  codes=
  for tree in base head; do
    if [ "$tree" = base ]; then dir=$base; else dir=$head; fi
    case $name in
      audit) cp -r "$work/$tree/macro" "$work/$tree/audit" 2> /dev/null &&
             run "$dir" "$tree" audit macro audit ;;
      *-*) run "$dir" "$tree" "${name%%-*}" "$name" "$name" ;;
      *) run "$dir" "$tree" "$name" "$name" "$name" ;;
    esac
    code=$?
    codes="$codes $code"
    [ "$code" -eq 0 ] || status="${status:+$status; }$tree run failed (exit $code)"
  done
  set -- $codes
  if [ "$1" -ne 0 ] && [ "$1" -eq "$2" ]; then
    if diff "$work/base/$name/error.json" "$work/head/$name/error.json" > /dev/null 2>&1; then
      status="identical failure (exit $1)"
    else
      status="failure messages differ"
    fi
  elif [ -z "$status" ]; then
    if diff -r "$work/base/$name" "$work/head/$name" > /dev/null; then
      status=identical
    else
      status="outputs differ"
    fi
  fi
  echo "$name: $status"
done
exit 0
