package repro.jobs

import repro.bench.{BenchConfig, BenchUtil, BreakdownBench}

/** spark-submit entrypoint regenerating Table 7 (IVF query breakdown). */
object Table7Job {
  def main(args: Array[String]): Unit =
    BenchUtil.report("table7_breakdown",
                     BreakdownBench.run(BenchConfig.breakdownSpec,
                                        targetRecall = BenchConfig.breakdownTargetRecall)._1)
}
