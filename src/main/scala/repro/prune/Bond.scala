package repro.prune

import repro.core.{PreparedQuery, Pruner}

/** PDX-BOND (§5): exact dimension pruning on raw vectors.
  *
  * The bound is just the partially computed distance (monotone in the number
  * of visited dims ⇒ exact, zero bound-evaluation latency). Its pruning
  * power comes from the query-aware order in which dimensions are visited:
  *
  *  - [[Bond.Sequential]]       storage order (baseline);
  *  - [[Bond.Decreasing]]       highest |query value| first (original BOND);
  *  - [[Bond.DistanceToMeans]]  largest |query − collection/block mean| first;
  *  - [[Bond.DimensionZones]]   rank [[Bond.Zones]] zones of consecutive dims
  *    by their mean distance-to-means, visit best zones first (trades a
  *    little pruning power for sequential stretches — the IVF-block setting
  *    of §5).
  *
  * No data transform and no preprocessing. The order is ranked once per
  * search, from the first pruned block's means (§5, Table 7: PDX-BOND
  * "query preprocessing — computing the order in which dimensions are
  * accessed — is almost free"). Any permutation is correct, because the
  * bound is the partial distance; reusing one order across a search's
  * blocks costs pruning power only when block means diverge wildly, and
  * avoids a per-block sort.
  */
final class Bond(val d: Int, val criteria: Bond.Criteria = Bond.DistanceToMeans)
    extends Pruner {

  val name = s"PDX-BOND(${criteria.label})"

  def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
    val query: Array[Float] = q

    override def isPartialBound: Boolean = true

    def order(means: Array[Float]): Array[Int] = criteria match {
      case Bond.Sequential => null
      case Bond.Decreasing =>
        sortDimsBy(d)(dim => math.abs(q(dim)))
      case Bond.DistanceToMeans =>
        sortDimsBy(d)(dim => math.abs(q(dim) - means(dim)))
      case Bond.DimensionZones =>
        val nz = math.min(Bond.Zones, d)
        val zoneOf = (dim: Int) => math.min(nz - 1, dim * nz / d)
        val score = new Array[Double](nz)
        val cnt = new Array[Int](nz)
        var dim = 0
        while (dim < d) {
          val z = zoneOf(dim)
          score(z) += math.abs(q(dim) - means(dim))
          cnt(z) += 1
          dim += 1
        }
        var z = 0
        while (z < nz) { if (cnt(z) > 0) score(z) /= cnt(z); z += 1 }
        val zoneOrder = (0 until nz).sortBy(z2 => -score(z2))
        val out = new Array[Int](d)
        var w = 0
        zoneOrder.foreach { zz =>
          var dim2 = 0
          while (dim2 < d) {
            if (zoneOf(dim2) == zz) { out(w) = dim2; w += 1 }
            dim2 += 1
          }
        }
        out
    }

    def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = partial
  }

  private def sortDimsBy(d: Int)(key: Int => Double): Array[Int] = {
    val idx = Array.tabulate(d)(identity)
    // Sort descending by key; stable tie-break on dim index for determinism.
    idx.sortBy(dim => (-key(dim), dim))
  }
}

object Bond {
  final val Zones = 16 // zone count of DimensionZones, capped at d

  sealed trait Criteria { def label: String }
  case object Sequential extends Criteria { val label = "sequential" }
  case object Decreasing extends Criteria { val label = "decreasing" }
  case object DistanceToMeans extends Criteria { val label = "dist-to-means" }
  case object DimensionZones extends Criteria { val label = "dim-zones" }
}
