#!/usr/bin/env bash
# Builds everything tier-1 does not and then runs tier-1, stopping at the
# first failure:
#   1. `sbt compileAll`: the main, test and bench/ sources;
#   2. the perfbench/ build (SPARK_HOME defaults to /opt/spark, the
#      distribution whose jars the root build compiles against);
#   3. the tier-1 suite, `sbt "testOnly *"`.
# sbt runs offline, with the settings ROADMAP.md gives for tier-1.
# Usage: tools/check.sh   (from anywhere inside the repository)
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

export COURSIER_MODE=offline
export SBT_OPTS="${SBT_OPTS:--Dsbt.override.build.repos=true -Dsbt.repository.config=$HOME/.sbt/repositories -Dsbt.offline=true -Xmx4g}"
export SPARK_HOME="${SPARK_HOME:-/opt/spark}"

sbt --batch -Dsbt.log.noformat=true compileAll
(cd perfbench && sbt --batch -Dsbt.log.noformat=true compile)

export SPARK_GRAFT_CPUS="$(env -u OMP_NUM_THREADS nproc)"
export SPARK_DRIVER_MEM="$(awk '/^MemTotal:/ {g = int($2 / 2097152)} END {print (g < 2 ? 2 : g > 8 ? 8 : g) "g"}' 2>/dev/null </proc/meminfo || echo 2g)"
export SPARK_LOCAL_DIRS=/tmp/spark-local
sbt --batch -Dsbt.log.noformat=true "testOnly *"
