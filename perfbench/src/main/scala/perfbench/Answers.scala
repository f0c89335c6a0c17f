package perfbench

import java.util.concurrent.{Executors, TimeUnit}
import repro.core.Kernels
import repro.data.VectorData

/** Ground truth and answer checks. Everything here runs outside the timed
  * sections and outside `setup_s`.
  */
final class Answers(vectors: IndexedSeq[Array[Float]], queries: IndexedSeq[Array[Float]],
                    val k: Int) {

  /** Exact top-k ids per query from `VectorData.groundTruth` (double
    * precision, ties broken by id), computed on all cores.
    */
  val truth: Array[Array[Long]] = {
    val threads = math.max(1, Runtime.getRuntime.availableProcessors)
    val chunk = math.max(1, (queries.length + threads - 1) / threads)
    val pool = Executors.newFixedThreadPool(threads)
    try {
      val parts = queries.grouped(chunk).toSeq.map { qs =>
        pool.submit(() => VectorData.groundTruth(vectors, qs, k))
      }
      parts.flatMap(_.get()).toArray
    } finally {
      pool.shutdown()
      pool.awaitTermination(1, TimeUnit.MINUTES)
    }
  }

  /** Double-precision distance of the true k-th neighbour, per query. */
  private val kthRef: Array[Double] =
    queries.indices.map(qi => Kernels.l2Ref(vectors(truth(qi)(k - 1).toInt), queries(qi))).toArray

  def recall(qi: Int, ids: Array[Long]): Double = VectorData.recall(ids.toSeq, truth(qi))

  /** Approximate answers (IVF): k distinct, in-range ids in ascending
    * finite distance. Returns an error message, or null when the answer holds.
    */
  def checkShape(ids: Array[Long], dists: Array[Double]): String = {
    if (ids.length != k) return s"${ids.length} ids, expected $k"
    if (ids.distinct.length != k) return s"duplicate ids ${ids.mkString(",")}"
    if (ids.exists(id => id < 0 || id >= vectors.length)) return s"id out of range in ${ids.mkString(",")}"
    var i = 0
    while (i < k) {
      if (dists(i).isNaN || dists(i).isInfinite) return s"non-finite distance at rank $i"
      if (i > 0 && dists(i) < dists(i - 1)) return s"distances not ascending at rank $i"
      i += 1
    }
    null
  }

  /** Exact answers (Spark PDX-BOND): the ids must be the ground truth,
    * except that ranks may swap between neighbours whose distances tie
    * within float rounding. Same tolerance as the repository's
    * `TestUtil.checkExactKnn`: each returned distance is its id's reference
    * distance within 1e-3·(1 + ref), and no returned id's reference
    * distance exceeds the true k-th distance by more than that.
    */
  def checkExact(qi: Int, ids: Array[Long], dists: Array[Double]): String = {
    val shape = checkShape(ids, dists)
    if (shape != null) return shape
    val q = queries(qi)
    var i = 0
    while (i < k) {
      val ref = Kernels.l2Ref(vectors(ids(i).toInt), q)
      val tol = 1e-3 * (1.0 + ref)
      if (math.abs(dists(i) - ref) > tol) return s"id=${ids(i)} dist=${dists(i)} != ref=$ref"
      if (ref > kthRef(qi) + tol) return s"id=${ids(i)} ref=$ref exceeds k-th=${kthRef(qi)} (non-exact)"
      i += 1
    }
    null
  }
}
