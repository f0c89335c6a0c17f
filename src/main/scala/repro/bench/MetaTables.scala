package repro.bench

import repro.data.VectorData
import repro.data.VectorData.DatasetSpec

/** Tables 1 and 3 — the descriptive setup tables. Table 1 summarizes our
  * synthetic stand-in catalog (with a measured skewness statistic verifying
  * the normal-vs-skewed classification); Table 3 collapses the paper's four
  * CPUs to the single host this reproduction runs on (DESIGN.md #1).
  */
object MetaTables {

  def table1(specs: Seq[DatasetSpec]): String = {
    val rows = specs.map { spec =>
      val ds = DatasetCache.dataset(spec)
      val skew = VectorData.meanAbsSkewness(ds.vectors)
      Seq(spec.name,
          if (spec.skewed) "skewed (synthetic)" else "normal (synthetic)",
          spec.n.toString, spec.nQueries.toString, spec.d.toString,
          BenchUtil.f2(skew))
    }
    BenchUtil.markdownTable(
      Seq("Dataset", "Distribution class", "Size", "N. Queries", "Dim.", "mean |skewness|"),
      rows
    ) + "\nSynthetic stand-ins for the paper's datasets (clustered Gaussian mixtures; " +
      "paper sizes 0.29M-10M are scaled to bench size).\n"
  }

  def table3(): String = {
    BenchUtil.markdownTable(
      Seq("Architecture", "Scalar ISA", "Vector backend", "CPU Model", "Cores", "JVM"),
      Seq(Seq(
        System.getProperty("os.arch"),
        System.getProperty("os.arch"),
        "HotSpot C2 auto-vectorization",
        BenchUtil.cpuModel,
        Runtime.getRuntime.availableProcessors.toString,
        System.getProperty("java.vm.version")
      ))
    ) + "\nSingle-host substitution for the paper's four platforms (DESIGN.md #1).\n"
  }
}
