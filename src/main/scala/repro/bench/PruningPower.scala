package repro.bench

import repro.core.{NaryBucket, NarySearcher, Pruner, SearchProfiler}

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
  * isolates pruning behaviour.
  */
object PruningPower {

  /** Per-query pruning power (fraction in [0,1]) over the collection. */
  def perQuery(vecsInSpace: IndexedSeq[Array[Float]], pruner: Pruner,
               rawQueries: IndexedSeq[Array[Float]], k: Int = 10): IndexedSeq[Double] = {
    val bucket = NaryBucket.pack(vecsInSpace, vecsInSpace.indices.map(_.toLong),
                                 withSuffixNorms = pruner.needsSuffixNorms)
    rawQueries.map { raw =>
      val profiler = new SearchProfiler
      new NarySearcher(k, deltaD = 1, profiler).search(Iterator.single(bucket), raw, pruner)
      1.0 - profiler.dimValuesScanned.toDouble / (bucket.n.toLong * bucket.d)
    }
  }

  final case class Summary(best: Double, p50: Double, p25: Double, worst: Double)

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
}
