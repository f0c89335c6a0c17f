package repro.prune

import repro.core.{LinearScan, PreparedQuery, Pruner}

/** PDX-BOND (§5): exact dimension pruning on raw vectors.
  *
  * The bound is just the partially computed distance (monotone in the number
  * of visited dims ⇒ exact; it costs no arithmetic of its own). Its pruning
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
    LinearScan.requireQueryDims(q, d)
    val query: Array[Float] = q

    def order(means: Array[Float]): Array[Int] = criteria match {
      case Bond.Sequential => null
      case Bond.Decreasing =>
        Bond.descendingOrder(Array.tabulate(d)(dim => math.abs(q(dim))))
      case Bond.DistanceToMeans =>
        Bond.descendingOrder(Array.tabulate(d)(dim => math.abs(q(dim) - means(dim))))
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
        // Ranked as floats: zones whose mean scores round to one float tie.
        val zoneOrder = Bond.descendingOrder(score.map(_.toFloat))
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
}

object Bond {
  final val Zones = 16 // zone count of DimensionZones, capped at d

  /** The indices of `keys` by descending key, ties by ascending index: the
    * order of `sortBy(i => (-keys(i), i))` over non-negative keys, with −0.0
    * counted as +0.0. One primitive sort of packed longs, no boxing: the
    * high half holds the inverted raw bits of the key (the bits of a
    * non-negative float order as its value), the low half the index.
    */
  private[prune] def descendingOrder(keys: Array[Float]): Array[Int] = {
    val packed = new Array[Long](keys.length)
    var i = 0
    while (i < keys.length) {
      val bits = if (keys(i) == 0f) 0 else java.lang.Float.floatToRawIntBits(keys(i))
      packed(i) = ((~bits).toLong << 32) | i
      i += 1
    }
    java.util.Arrays.sort(packed)
    val out = new Array[Int](keys.length)
    i = 0
    while (i < out.length) { out(i) = packed(i).toInt; i += 1 }
    out
  }

  sealed trait Criteria { def label: String }
  case object Sequential extends Criteria { val label = "sequential" }
  case object Decreasing extends Criteria { val label = "decreasing" }
  case object DistanceToMeans extends Criteria { val label = "dist-to-means" }
  case object DimensionZones extends Criteria { val label = "dim-zones" }
}
