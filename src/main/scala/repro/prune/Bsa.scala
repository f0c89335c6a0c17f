package repro.prune

import repro.core.{Kernels, LinearScan, PdxLayout, PreparedQuery, Pruner}
import repro.linalg.Mat

/** BSA [Yang et al. 2024] reproduction: PCA projection of the collection
  * plus a residual bound built from stored per-vector suffix norms and
  * learned per-dimension error quantiles.
  *
  * The transform is `v ↦ P(v − μ)`: centering is translation-invariant for
  * L2 (distances preserved exactly) and makes the PCA residuals zero-mean.
  *
  * After visiting the first `dv` PCA dimensions:
  *   full = partial + ‖v⁺‖² + ‖q⁺‖² − 2·⟨v⁺, q⁺⟩ .
  * Cauchy–Schwarz gives ⟨v⁺,q⁺⟩ ≤ ‖v⁺‖·‖q⁺‖, so with cross-coefficient
  * c(dv) = 1 the bound
  *   partial + ‖v⁺‖² + ‖q⁺‖² − 2·c(dv)·‖v⁺‖·‖q⁺‖
  * is an exact lower bound ([[Bsa.fitExact]] — no recall trade-off).
  *
  * The approximate mode reproduces BSA's learned error framework: at fit
  * time a high quantile of the residual cosine ⟨v⁺,q⁺⟩/(‖v⁺‖‖q⁺‖) is
  * estimated per dimension from sample pairs, and
  * c(dv) = min(1, multiplier · quantile(dv)). The `multiplier` is the
  * speed/recall knob (smaller ⇒ earlier pruning, slight recall loss), the
  * analog of BSA's quantile multiplier `m` (DESIGN.md, substitution #4).
  * PCA makes residual norms collapse quickly, which is why BSA prunes
  * earlier than ADSampling on skewed data.
  *
  * Requires blocks with suffix squared norms ([[Pruner.needsSuffixNorms]]).
  */
final class Bsa(val d: Int, val multiplier: Double,
                basis: Array[Float], mean: Array[Float],
                cosQuantiles: Array[Float]) extends Pruner {
  require(basis.length == d * d,
          s"basis has ${basis.length} values but a $d x $d basis needs ${d * d}")
  require(mean.length == d, "mean must be D-dimensional")
  require(cosQuantiles.length == d + 1, "need a cosine quantile per prefix length")

  val name = "BSA"
  private val exact: Boolean = multiplier.isPosInfinity
  override val needsSuffixNorms = true

  /** Approximate BSA never prunes before this many dims: the original BSA
    * evaluates its bound only at Δd=32 checkpoints, and the learned
    * quantiles are not calibrated for tiny prefixes (sample near-pairs are
    * farther than true query neighbours, whose residuals stay correlated
    * longer). The exact mode has no such restriction.
    */
  val minDims: Int = if (exact) 0 else math.max(1, math.min(32, d / 4))

  /** 2·c(dv), precomputed per prefix length. */
  private val cross2: Array[Float] = Array.tabulate(d + 1) { dv =>
    val c = math.min(1.0, multiplier * math.max(0.0, cosQuantiles(dv).toDouble))
    (2.0 * c).toFloat
  }

  override def transformVector(v: Array[Float]): Array[Float] = Bsa.project(basis, mean, v)

  def prepareQuery(q: Array[Float]): PreparedQuery = {
    val rotated = transformVector(q)
    val qs = PdxLayout.querySuffixSqNorms(rotated)
    new PreparedQuery {
      val query: Array[Float] = rotated
      def order(means: Array[Float]): Array[Int] = null
      override def minPruneDims: Int = minDims
      def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = {
        if (dimsVisited < minDims) return Float.NegativeInfinity
        val sq = qs(dimsVisited)
        val cross = cross2(dimsVisited) * math.sqrt(vecSuffixSq.toDouble * sq).toFloat
        partial + vecSuffixSq + sq - cross
      }
    }
  }
}

object Bsa {

  /** Exact BSA: pure Cauchy–Schwarz bound (c ≡ 1), no recall trade-off. */
  def fitExact(vecs: IndexedSeq[Array[Float]], seed: Long = 7): Bsa =
    fitInternal(vecs, Double.PositiveInfinity, seed, learn = false)

  /** Approximate BSA with learned per-dimension residual-cosine quantiles;
    * `multiplier` scales the learned quantile (1.0 = as learned).
    */
  def fit(vecs: IndexedSeq[Array[Float]], multiplier: Double = 1.0, seed: Long = 7): Bsa =
    fitInternal(vecs, multiplier, seed, learn = true)

  private final val Quantile = 0.995 // of the residual cosine, per prefix length
  private final val SamplePairs = 512 // near-neighbour pairs it is learned from

  private def fitInternal(vecs: IndexedSeq[Array[Float]], multiplier: Double,
                          seed: Long, learn: Boolean): Bsa = {
    require(vecs.nonEmpty, "cannot fit BSA on 0 vectors")
    val d = vecs.head.length
    val mean = PdxLayout.globalMeans(vecs)
    val basis = Mat.pcaRotation(vecs, seed = seed).toFloats
    val cq =
      if (!learn) Array.fill(d + 1)(1f)
      else learnCosQuantiles(basis, mean, vecs, seed)
    new Bsa(d, multiplier, basis, mean, cq)
  }

  /** `v ↦ P(v − μ)` for a row-major float basis `P` and mean `μ`. */
  private def project(basis: Array[Float], mean: Array[Float], v: Array[Float]): Array[Float] = {
    val d = mean.length
    LinearScan.requireQueryDims(v, d)
    val centred = new Array[Float](d)
    var j = 0
    while (j < d) { centred(j) = v(j) - mean(j); j += 1 }
    Kernels.matVec(basis, centred)
  }

  /** Estimate, for each prefix length dv, a high quantile of the residual
    * cosine over *near-neighbour* sample pairs — BSA's "learned error
    * bounds at each dimension", without per-dimension regression models.
    *
    * Near pairs (each sample point with its nearest neighbour among the
    * sample) are the binding constraint: they are exactly the pairs a
    * search must NOT prune, and their residuals stay correlated far longer
    * than random pairs'. Quantiles learned from random pairs underestimate
    * them and collapse recall under per-vector-tightened thresholds.
    */
  private def learnCosQuantiles(basis: Array[Float], mean: Array[Float],
                                vecs: IndexedSeq[Array[Float]], seed: Long): Array[Float] = {
    val d = mean.length
    val rnd = new java.util.Random(seed * 31 + 11)
    // One pair per pool point: the point and its nearest pool neighbour.
    val nPairs = math.min(vecs.length, SamplePairs)
    if (nPairs < 2) return Array.fill(d + 1)(1f)
    val pool = IndexedSeq.fill(nPairs)(project(basis, mean, vecs(rnd.nextInt(vecs.length))))
    val cosines = Array.ofDim[Float](d + 1, nPairs)
    var p = 0
    while (p < nPairs) {
      val a = pool(p)
      // Nearest neighbour of `a` within the pool (excluding itself).
      var best = -1
      var bestDist = Double.PositiveInfinity
      var t = 0
      while (t < nPairs) {
        if (t != p) {
          val dist = Kernels.l2Ref(pool(t), a)
          if (dist < bestDist) { bestDist = dist; best = t }
        }
        t += 1
      }
      val b = pool(best)
      // Suffix inner products and suffix norms, computed back-to-front.
      var inner = 0.0
      var sa = 0.0
      var sb = 0.0
      cosines(d)(p) = 0f
      var j = d - 1
      while (j >= 0) {
        inner += a(j).toDouble * b(j)
        sa += a(j).toDouble * a(j)
        sb += b(j).toDouble * b(j)
        val denom = math.sqrt(sa * sb)
        cosines(j)(p) = if (denom > 1e-20) (inner / denom).toFloat else 0f
        j -= 1
      }
      p += 1
    }
    Array.tabulate(d + 1) { dv =>
      if (dv == d) 1f
      else {
        val xs = cosines(dv).clone()
        java.util.Arrays.sort(xs)
        val idx = math.min(nPairs - 1, math.max(0, (Quantile * (nPairs - 1)).round.toInt))
        math.min(1f, math.max(0f, xs(idx)))
      }
    }
  }
}
