package repro.bench

import repro.core.{KnnHeap, Pruner}

/** Pruning-power simulation for Tables 2 and 6: a full scan per query that
  * tries to prune at every dimension (Δd = 1), K = 10.
  *
  * *Pruning power* = percentage of individual dimension values NOT used in
  * distance calculations (§2.3). The scan walks the collection in storage
  * order; the first k vectors fill the heap (all their dims count as used),
  * then each vector accumulates its partial distance one dimension at a
  * time — in the pruner's query-aware order when it defines one — testing
  * the bound after every dimension and stopping at the first prune.
  * Layout-independent by construction (it measures the algorithm, not the
  * storage), which is exactly how the paper isolates pruning behaviour.
  * Tables 2 and 6 run ADSampling and PDX-BOND; a pruner whose bound reads
  * suffix norms (BSA) is rejected.
  */
object PruningPower {

  /** Per-query pruning power (fraction in [0,1]) over the collection. */
  def perQuery(vecsInSpace: IndexedSeq[Array[Float]], collectionMeans: Array[Float],
               pruner: Pruner, rawQueries: IndexedSeq[Array[Float]],
               k: Int = 10): IndexedSeq[Double] = {
    require(!pruner.needsSuffixNorms,
            s"${pruner.name} needs suffix norms, which the pruning-power simulation does not keep")
    val n = vecsInSpace.length
    val d = vecsInSpace.head.length

    rawQueries.map { raw =>
      val pq = pruner.prepareQuery(raw)
      val q = pq.query
      val order = pq.order(collectionMeans)
      val heap = new KnnHeap(k)
      var used = 0L
      var i = 0
      while (i < n) {
        val v = vecsInSpace(i)
        val tau = heap.threshold
        if (tau == Float.PositiveInfinity) {
          // Heap not yet full: full evaluation.
          var dist = 0f
          var j = 0
          while (j < d) {
            val dim = if (order == null) j else order(j)
            val t = q(dim) - v(dim)
            dist += t * t
            j += 1
          }
          heap.push(i.toLong, dist)
          used += d
        } else {
          var partial = 0f
          var dv = 0
          var prunedV = false
          while (dv < d && !prunedV) {
            val dim = if (order == null) dv else order(dv)
            val t = q(dim) - v(dim)
            partial += t * t
            dv += 1
            if (dv < d && pq.bound(partial, dv, 0f) > tau) prunedV = true
          }
          used += dv
          if (!prunedV) heap.push(i.toLong, partial)
        }
        i += 1
      }
      1.0 - used.toDouble / (n.toLong * d)
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
