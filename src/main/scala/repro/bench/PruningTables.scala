package repro.bench

import repro.data.VectorData.DatasetSpec
import repro.prune.Bond

/** Tables 2 and 6: best / p50 / p25 / worst pruning power (Δd = 1, K = 10)
  * of ADSampling (Table 2) and PDX-BOND (Table 6) over the 8-dataset
  * pruning catalog.
  */
object PruningTables {

  private val rowNames = Seq("Best", "p50", "p25", "Worst")

  private def render(title: String,
                     cols: Seq[(String, PruningPower.Summary)]): String = {
    val header = Seq("Pruning") ++ cols.map(_._1)
    val rows = rowNames.map { rn =>
      Seq(rn) ++ cols.map { case (_, s) =>
        val v = rn match {
          case "Best" => s.best
          case "p50" => s.p50
          case "p25" => s.p25
          case _ => s.worst
        }
        BenchUtil.f1(v)
      }
    }
    BenchUtil.markdownTable(header, rows) + s"\n$title\n"
  }

  /** Table 2: ADSampling (ε0 = 2.1) pruning power. */
  def table2(specs: Seq[DatasetSpec], k: Int = 10)
      : (String, Map[String, PruningPower.Summary]) = {
    val cols = specs.map { spec =>
      val ds = DatasetCache.dataset(spec)
      val (pruner, space) = DatasetCache.adsSpace(spec)
      val power = PruningPower.perQuery(space, pruner, ds.queries, k)
      spec.label -> PruningPower.summarize(power)
    }
    (render("ADSampling pruning power (% of dimension values avoided), Δd=1, K=10.", cols),
     cols.toMap)
  }

  /** Table 6: PDX-BOND (distance-to-means order) pruning power. */
  def table6(specs: Seq[DatasetSpec], k: Int = 10)
      : (String, Map[String, PruningPower.Summary]) = {
    val cols = specs.map { spec =>
      val ds = DatasetCache.dataset(spec)
      val pruner = new Bond(spec.d, Bond.DistanceToMeans)
      val power = PruningPower.perQuery(ds.vectors, pruner, ds.queries, k)
      spec.label -> PruningPower.summarize(power)
    }
    (render("PDX-BOND pruning power (% of dimension values avoided), Δd=1, K=10.", cols),
     cols.toMap)
  }
}
