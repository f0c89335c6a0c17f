package repro.bench

import repro.core.{NaryBucket, NarySearcher, PdxLayout, Pruner, SearchProfiler}
import repro.data.VectorData.DatasetSpec
import repro.prune.Bond

/** Pruning power for Tables 2 and 6, K = 10: the share of dimension values
  * that the vector-at-a-time search skips when it tests its bound after
  * every dimension (Δd = 1).
  *
  * *Pruning power* = percentage of individual dimension values NOT used in
  * distance calculations (§2.3). Each query runs [[NarySearcher]] at Δd = 1
  * over the whole collection packed as one N-ary bucket (storage order, the
  * pruner's dimension order from the collection means), and the power is
  * read from its profiler: `1 − dimValuesScanned / (n·d)`. The first k
  * vectors fill the heap, so all their dimensions count as used. This
  * measures the algorithm, not the storage, which is how the paper
  * isolates pruning behaviour. Tables 2 and 6 are this measurement for
  * ADSampling over the rotated collection and PDX-BOND over the raw one.
  */
object PruningPower {

  /** Per-query pruning power (fraction in [0,1]) over the collection. */
  def perQuery(vecsInSpace: IndexedSeq[Array[Float]], pruner: Pruner,
               rawQueries: IndexedSeq[Array[Float]]): IndexedSeq[Double] = {
    val bucket = NaryBucket(PdxLayout.packOne(vecsInSpace, vecsInSpace.indices.map(_.toLong),
                                              pruner.d, pruner.needsSuffixNorms))
    rawQueries.map { raw =>
      val profiler = new SearchProfiler
      new NarySearcher(BenchConfig.K, deltaD = 1, profiler).search(Iterator.single(bucket), raw, pruner)
      1.0 - profiler.dimValuesScanned.toDouble / (bucket.n.toLong * bucket.d)
    }
  }

  final case class Summary(best: Double, p50: Double, p25: Double, worst: Double) {
    def inRowOrder: Seq[Double] = Seq(best, p50, p25, worst) // as RowNames
  }

  private val RowNames: Seq[String] = Seq("Best", "p50", "p25", "Worst")

  /** Best / median / lower-quartile / worst pruning power, as percentages,
    * matching the Table 2 / Table 6 row structure. "p25" is the paper's
    * lower-quartile-of-pruning-power (25% of queries prune less than it).
    */
  def summarize(perQueryPower: IndexedSeq[Double]): Summary = {
    val sorted = perQueryPower.sorted // ascending: worst first
    Summary(
      best = 100.0 * sorted.last,
      p50 = 100.0 * BenchUtil.percentile(sorted, 0.50),
      p25 = 100.0 * BenchUtil.percentile(sorted, 0.25),
      worst = 100.0 * sorted.head
    )
  }

  /** Table 2: ADSampling (ε0 = 2.1) pruning power. */
  def table2(specs: Seq[DatasetSpec]): (String, Map[String, Summary]) =
    table("ADSampling pruning power (% of dimension values avoided), Δd=1, K=10.", specs)(
      DatasetCache.adsSpace)

  /** Table 6: PDX-BOND (distance-to-means order) pruning power. */
  def table6(specs: Seq[DatasetSpec]): (String, Map[String, Summary]) =
    table("PDX-BOND pruning power (% of dimension values avoided), Δd=1, K=10.", specs)(
      spec => (new Bond(spec.d, Bond.DistanceToMeans), DatasetCache.dataset(spec).vectors))

  /** One column per dataset: `space` gives the pruner and the vectors in its space. */
  private def table(title: String, specs: Seq[DatasetSpec])(
      space: DatasetSpec => (Pruner, IndexedSeq[Array[Float]])): (String, Map[String, Summary]) = {
    val cols = specs.map { spec =>
      val (pruner, vecs) = space(spec)
      spec.label -> summarize(perQuery(vecs, pruner, DatasetCache.dataset(spec).queries))
    }
    val rows = RowNames.indices.map { r =>
      RowNames(r) +: cols.map { case (_, s) => BenchUtil.f1(s.inRowOrder(r)) }
    }
    (BenchUtil.markdownTable("Pruning" +: cols.map(_._1), rows) + s"\n$title\n", cols.toMap)
  }
}
