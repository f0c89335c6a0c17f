package repro.prune

import repro.core.{Kernels, LinearScan, PreparedQuery, Pruner}
import repro.linalg.Mat

/** ADSampling [Gao & Long 2023]: random orthogonal projection of the
  * collection, then a hypothesis test on the partially computed distance.
  *
  * After visiting the first `dv` dims of the rotated space, the partial
  * squared distance `p` is an unbiased sample of `dv/D` of the full squared
  * distance; the test prunes when
  *   `p * D / dv > τ * (1 + ε0/√dv)²`
  * i.e. when even the (1+ε0/√dv)-inflated estimate exceeds the threshold.
  * ε0 = 2.1 is the authors' recommended significance knob (§6.1).
  *
  * Expressed in the [[Pruner]] contract as a bound:
  *   `bound(p, dv) = p * D / (dv * (1+ε0/√dv)²)`, prune iff bound > τ.
  * At `dv == D` the bound equals the exact distance.
  */
final class AdSampling(val d: Int, val epsilon0: Double = 2.1, seed: Long = 17)
    extends Pruner {

  val name = "ADSampling"

  /** The random rotation Ω, fitted in double and kept as row-major D x D
    * floats.
    */
  private val rotation: Array[Float] = Mat.randomOrthogonal(d, seed).toFloats

  /** factor(dv) = D / (dv * (1+ε0/√dv)²), precomputed; factor(D) is pinned
    * to 1 so the end-of-vector test is the exact comparison.
    */
  private val factor: Array[Float] = {
    val f = new Array[Float](d + 1)
    var dv = 1
    while (dv <= d) {
      val ratio = 1.0 + epsilon0 / math.sqrt(dv.toDouble)
      f(dv) = (d.toDouble / (dv * ratio * ratio)).toFloat
      dv += 1
    }
    f(d) = 1f
    f
  }

  override def transformVector(v: Array[Float]): Array[Float] = {
    LinearScan.requireQueryDims(v, d)
    Kernels.matVec(rotation, v)
  }

  def prepareQuery(q: Array[Float]): PreparedQuery = {
    val rotated = transformVector(q)
    new PreparedQuery {
      val query: Array[Float] = rotated
      def order(means: Array[Float]): Array[Int] = null
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float =
        partial * factor(dimsVisited)
    }
  }
}
