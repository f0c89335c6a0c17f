package repro.prune

import java.util.Random
import repro.core.{LinearScan, PreparedQuery, Pruner}

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
  *
  * The rotation is structured, in the spirit of Ailon & Chazelle's fast
  * Johnson–Lindenstrauss transform (STOC 2006), instead of a dense D×D
  * matrix. Each of `Rounds` rounds applies a seeded permutation, then
  * seeded ±1/√P signs and a fast Walsh–Hadamard transform on `[0, P)`, then
  * a second set of signs and a transform on `[D − P, D)`, where P is the
  * largest power of two ≤ D (one window when D is a power of two). Every
  * step is orthogonal and the windows cover D with no padding, so L2
  * distances and inner products are preserved. A vector costs
  * O(Rounds · D log D) and the pruner keeps D ints and at most 2·P floats
  * per round.
  */
final class AdSampling(val d: Int, val epsilon0: Double = 2.1, seed: Long = 17)
    extends Pruner {
  require(d > 0, s"d must be positive, got $d")

  val name = "ADSampling"

  /** Rounds of permutation + signed Hadamard windows. One round leaves the
    * raw dimensions that its permutation puts in `[P, D)` out of the first
    * D − P rotated dimensions, which biases the prefix estimate; EXPERIMENTS.md
    * (Table 2) gives the pruning power and recall measured for 1–4 rounds.
    */
  private final val Rounds = 3

  private val window: Int = Integer.highestOneBit(d)

  /** Per round: the permutation (output i takes input `perm(i)`), then the
    * signs of `[0, P)` followed, when P < D, by those of `[D − P, D)`, each
    * scaled by 1/√P so that the transform is orthonormal.
    */
  private val rounds: Array[AdSampling.Round] = {
    val rnd = new Random(seed)
    val scale = (1.0 / math.sqrt(window.toDouble)).toFloat
    Array.fill(Rounds) {
      val perm = Array.range(0, d)
      var i = d - 1
      while (i > 0) {
        val j = rnd.nextInt(i + 1)
        val t = perm(i); perm(i) = perm(j); perm(j) = t
        i -= 1
      }
      val nSigns = if (window == d) window else 2 * window
      AdSampling.Round(perm, Array.fill(nSigns)(if (rnd.nextBoolean()) scale else -scale))
    }
  }

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

  /** Rotates `v` into a new array. Shares no scratch between calls, so
    * [[Pruner.transformData]] may call it from many threads.
    */
  override def transformVector(v: Array[Float]): Array[Float] = {
    LinearScan.requireQueryDims(v, d)
    val a = new Array[Float](d)
    val b = if (Rounds > 1) new Array[Float](d) else null
    var src = v
    var dst = a
    var r = 0
    while (r < Rounds) {
      val round = rounds(r)
      val perm = round.perm
      var i = 0
      while (i < d) { dst(i) = src(perm(i)); i += 1 }
      signedHadamard(dst, 0, round.signs, 0)
      if (window < d) signedHadamard(dst, d - window, round.signs, window)
      src = dst
      dst = if (dst eq a) b else a
      r += 1
    }
    src
  }

  /** `x[off, off + P)` times the signs `s[s0, s0 + P)`, then an in-place
    * unnormalized fast Walsh–Hadamard transform of that window: two levels
    * (h and 2h) per pass over groups of four, and a last single level when
    * log2 P is odd. The sums are those of the one-level-per-pass transform.
    */
  private def signedHadamard(x: Array[Float], off: Int, s: Array[Float], s0: Int): Unit = {
    val n = window
    var i = 0
    while (i < n) { x(off + i) *= s(s0 + i); i += 1 }
    var h = 1
    while (4 * h <= n) {
      var b = off
      while (b < off + n) {
        var j = b
        while (j < b + h) {
          val x0 = x(j)
          val x1 = x(j + h)
          val x2 = x(j + 2 * h)
          val x3 = x(j + 3 * h)
          val a0 = x0 + x1
          val a1 = x0 - x1
          val a2 = x2 + x3
          val a3 = x2 - x3
          x(j) = a0 + a2
          x(j + h) = a1 + a3
          x(j + 2 * h) = a0 - a2
          x(j + 3 * h) = a1 - a3
          j += 1
        }
        b += 4 * h
      }
      h *= 4
    }
    if (h < n) {
      var j = off
      while (j < off + h) {
        val a = x(j)
        val c = x(j + h)
        x(j) = a + c
        x(j + h) = a - c
        j += 1
      }
    }
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

object AdSampling {

  /** One round of the rotation: see [[AdSampling]]. */
  private final case class Round(perm: Array[Int], signs: Array[Float])
}
