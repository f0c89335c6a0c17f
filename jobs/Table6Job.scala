package repro.jobs

import repro.bench.{BenchConfig, BenchUtil, PruningPower}

/** spark-submit entrypoint regenerating Table 6 (PDX-BOND pruning power). */
object Table6Job {
  def main(args: Array[String]): Unit =
    BenchUtil.report("table6_bond_pruning",
                     PruningPower.table6(BenchConfig.pruningCatalog)._1)
}
