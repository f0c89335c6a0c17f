package repro.jobs

import repro.bench.{BenchConfig, BenchUtil, PruningPower}

/** spark-submit entrypoint regenerating Table 2 (ADSampling pruning power). */
object Table2Job {
  def main(args: Array[String]): Unit =
    BenchUtil.report("table2_adsampling_pruning",
                     PruningPower.table2(BenchConfig.pruningCatalog)._1)
}
