package repro.ivf

import java.util.Random
import java.util.stream.IntStream
import repro.core.{Kernels, LinearScan, PdxBlock, PdxLayout, PdxScratch}

/** Seeded Lloyd k-means — the "non-optimized Lloyd algorithm" the paper's
  * IVF index uses to form buckets (§2.1). Deterministic in (data, k, seed).
  *
  * [[fit]] computes what Lloyd computes, bit for bit, but skips most of its
  * distances with Elkan's triangle-inequality bounds (Elkan, ICML 2003).
  * Every assignment pass picks, per vector, the centroid of least float
  * distance by the PDX fold (`Kernels.l2Pdx`), ties to the lowest index:
  *  - the first pass scores all k centroids with one `LinearScan.scoreBlock`
  *    of the centroid block, as IVF bucket selection does;
  *  - each later pass keeps, per vector, an upper bound U on its exact
  *    Euclidean distance to its centroid and a lower bound L to every
  *    centroid, plus half of every centroid–centroid distance (one
  *    `scoreBlock` per centroid). It scores with [[Kernels.l2PdxLane]], which
  *    returns the block scan's float, only the centroids those bounds cannot
  *    prove strictly farther in float than the best one so far.
  *
  * Exactness: γ = 2(d+4)·2⁻²⁴ bounds the relative error of the float scan on
  * a squared distance D², and η = d·2⁻¹⁴⁹ its absolute error from underflow,
  * so (1−γ)D² − η ≤ f ≤ (1+γ)D² + η. Each bound is a true bound on the exact
  * distance: a float f becomes √((f+η)/(1−γ)) or √((f−η)/(1+γ)), each moved
  * one float ulp outward, and every update after a centroid move is rounded
  * outward. Centroid c is skipped only when L² (1−γ) − η > U² (1+γ) + η,
  * which forces its float distance strictly above the best one's. A float
  * distance of +∞ gives U = +∞, which skips nothing. The bounds hold n·k
  * floats during the fit; none is kept.
  *
  * The assignment passes and the centroid–centroid scan run on all cores,
  * one independent question per vector or centroid. The centroid sums are
  * split over the threads by centroid, and each (centroid, dim) sum still
  * adds in index order; the counts and the reseeding of empty clusters
  * run on the calling thread. So the result has the same bits for any
  * number of threads; the threads are those of the ForkJoin pool that calls
  * [[fit]] (the common pool unless called from inside another pool).
  * The paper disables multi-threading only for the searches it times, and
  * so does every query path here.
  */
object KMeans {

  /** k centroids packed once as one PDX block whose ids are the centroid
    * indices, so the nearest-centroid question is IVF bucket selection with
    * nprobe = 1: a top-1 `LinearScan.pdxKnn` of the block.
    */
  final case class Model(centroids: Array[Array[Float]]) {
    val k: Int = centroids.length
    require(k > 0, "k-means: a model needs at least one centroid")
    private val d: Int = centroids(0).length
    private[ivf] val block: PdxBlock =
      PdxLayout.packOne(centroids.toIndexedSeq, (0 until k).map(_.toLong), d, withSuffixNorms = false)

    /** Nearest centroid of v, ties going to the lowest index by `KnnHeap`'s
      * (distance, id) order. `v` must have the centroids' length.
      */
    def assign(v: Array[Float]): Int = {
      require(v.length == d, s"k-means: the vector has ${v.length} dimensions but the centroids have $d")
      LinearScan.pdxKnn(Iterator.single(block), v, 1).idsSorted.head.toInt
    }
  }

  /** What a fit did. `scoredPerPass(p)` is the number of vector–centroid
    * distances assignment pass p scored (n·k in pass 0); each later pass
    * also scores the k² centroid pairs, which are not counted. The nanos
    * split the fit's wall time into its phases: the first pass, the centroid
    * updates (counts, sums, reseeding, shifts), the centroid–centroid scans
    * and the bounded passes.
    */
  final case class FitStats(scoredPerPass: Array[Long], firstPassNanos: Long, updateNanos: Long,
                            centroidScanNanos: Long, boundedPassNanos: Long)

  /** A fitted model and the last assignment pass: `assignment(i)` is
    * `model.assign(vecs(i))`.
    */
  final case class Fit(model: Model, assignment: Array[Int], stats: FitStats)

  /** Fit k centroids with `iters` (≥ 0) Lloyd iterations, and assign every
    * vector to its nearest final centroid. Initial centroids are a seeded
    * sample without replacement; clusters that empty out are reseeded to a
    * random point so `k` buckets always survive. Every vector must have the
    * first one's length and only finite values.
    */
  def fit(vecs: IndexedSeq[Array[Float]], k: Int, iters: Int = 10,
          seed: Long = 23): Fit = {
    require(vecs.nonEmpty, "k-means on empty collection")
    require(k > 0 && k <= vecs.length, s"k=$k out of range for n=${vecs.length}")
    require(iters >= 0, s"k-means: iters must be non-negative, got $iters")
    val n = vecs.length
    val d = vecs.head.length
    requireUniformFinite(vecs, d)
    val vs = vecs.toArray
    val rnd = new Random(seed)

    // Seeded distinct-index sample for the initial centroids.
    val chosen = new java.util.LinkedHashSet[Integer]()
    while (chosen.size < k) chosen.add(rnd.nextInt(n))
    var model = {
      val it = chosen.iterator()
      Model(Array.fill(k)(vs(it.next()).clone()))
    }

    val err = new ErrorModel(d)
    val assign = new Array[Int](n)
    val upper = new Array[Float](n)
    val lower = Array.fill(n)(new Array[Float](k))
    val scored = new Array[Long](iters + 1)
    val t0 = System.nanoTime()
    scored(0) = firstPass(vs, model, err, assign, upper, lower)
    val firstNanos = System.nanoTime() - t0
    var (updateNanos, scanNanos, boundedNanos) = (0L, 0L, 0L)
    var iter = 0
    while (iter < iters) {
      val t1 = System.nanoTime()
      val next = nextCentroids(vs, assign, model.centroids, rnd)
      val shift = Array.tabulate(k)(c => up(math.sqrt(Kernels.l2Ref(model.centroids(c), next(c)))))
      val t2 = System.nanoTime()
      model = Model(next)
      val half = halfCentroidDistances(model, err)
      val t3 = System.nanoTime()
      scored(iter + 1) = boundedPass(vs, model, half, shift, err, assign, upper, lower)
      val t4 = System.nanoTime()
      updateNanos += t2 - t1; scanNanos += t3 - t2; boundedNanos += t4 - t3
      iter += 1
    }
    Fit(model, assign, FitStats(scored, firstNanos, updateNanos, scanNanos, boundedNanos))
  }

  /** Vectors per task of an assignment pass. */
  private val Chunk = 64

  /** Tasks of the centroid sums, one per CPU: task t adds up the vectors of
    * the centroids c ≡ t (mod SumTasks), each vector read whole.
    */
  private val SumTasks = Runtime.getRuntime.availableProcessors

  /** Per centroid-move decay factor of the lower bounds, 1 − 2⁻²²: with
    * round-to-nearest, fl(fl(L·Shrink) − δ) ≤ L − δ, so a lower bound moved
    * by a centroid shift δ stays below the exact distance. A negative result
    * is a valid lower bound too, and never skips a centroid.
    */
  private val Shrink = 1f - 4f / (1 << 24)

  /** Pass 0: every centroid scored by one block scan per vector; the bounds
    * are set from the floats. Returns the number of distances scored.
    */
  private def firstPass(vs: Array[Array[Float]], model: Model, err: ErrorModel, assign: Array[Int],
                        upper: Array[Float], lower: Array[Array[Float]]): Long = {
    val k = model.k
    inChunks(vs.length) { (i0, i1) =>
      val scratch = new PdxScratch
      var i = i0
      while (i < i1) {
        LinearScan.scoreBlock(model.block, vs(i), scratch)
        val acc = scratch.acc
        val row = lower(i)
        var best = 0
        var c = 0
        while (c < k) {
          val f = acc(c)
          if (f < acc(best)) best = c
          row(c) = err.lower(f)
          c += 1
        }
        assign(i) = best
        upper(i) = err.upper(acc(best))
        i += 1
      }
      (i1 - i0).toLong * k
    }
  }

  /** One bounded pass after the centroids moved by `shift`: the bounds are
    * moved outward by the shifts, then each vector scores only the centroids
    * they cannot rule out. Returns the number of distances scored.
    */
  private def boundedPass(vs: Array[Array[Float]], model: Model, half: HalfDistances, shift: Array[Float],
                          err: ErrorModel, assign: Array[Int], upper: Array[Float],
                          lower: Array[Array[Float]]): Long = {
    val k = model.k
    val centroids = model.centroids
    inChunks(vs.length) { (i0, i1) =>
      var scored = 0L
      var i = i0
      while (i < i1) {
        val v = vs(i)
        val row = lower(i)
        var c = 0
        while (c < k) { row(c) = row(c) * Shrink - shift(c); c += 1 }
        var best = assign(i)
        var u = Math.nextUp(upper(i) + shift(best))
        var t = err.threshold(u)
        var tu = up((t.toDouble + u) / 2)
        if (!(half.nearest(best) > tu)) {
          var hb = half.rows(best)
          var fBest = 0f
          var tight = false
          c = 0
          while (c < k) {
            if (c != best && !(row(c) > t) && !(hb(c) > tu)) {
              if (!tight) {
                fBest = Kernels.l2PdxLane(centroids(best), v)
                scored += 1
                row(best) = err.lower(fBest)
                u = err.upper(fBest); t = err.threshold(u); tu = up((t.toDouble + u) / 2)
                tight = true
              }
              if (!(row(c) > t) && !(hb(c) > tu)) {
                val f = Kernels.l2PdxLane(centroids(c), v)
                scored += 1
                row(c) = err.lower(f)
                if (f < fBest || (f == fBest && c < best)) {
                  best = c; fBest = f; hb = half.rows(c)
                  u = err.upper(f); t = err.threshold(u); tu = up((t.toDouble + u) / 2)
                }
              }
            }
            c += 1
          }
        }
        assign(i) = best
        upper(i) = u
        i += 1
      }
      scored
    }
  }

  /** `rows(c)(c2)` ≤ half the exact distance between centroids c and c2;
    * `nearest(c)` is the least of `rows(c)` over c2 ≠ c (+∞ when k = 1).
    */
  private final class HalfDistances(val rows: Array[Array[Float]], val nearest: Array[Float])

  /** One `scoreBlock` of the centroid block per centroid, on all cores. */
  private def halfCentroidDistances(model: Model, err: ErrorModel): HalfDistances = {
    val k = model.k
    val rows = new Array[Array[Float]](k)
    val nearest = new Array[Float](k)
    IntStream.range(0, k).parallel().forEach { c =>
      val scratch = new PdxScratch
      LinearScan.scoreBlock(model.block, model.centroids(c), scratch)
      val row = Array.tabulate(k)(c2 => err.halfLower(scratch.acc(c2)))
      var m = Float.PositiveInfinity
      var c2 = 0
      while (c2 < k) { if (c2 != c && row(c2) < m) m = row(c2); c2 += 1 }
      rows(c) = row
      nearest(c) = m
    }
    new HalfDistances(rows, nearest)
  }

  /** Lloyd's update: each centroid becomes the mean of its vectors (sums in
    * double, in index order), or a seeded random vector when it has none.
    */
  private def nextCentroids(vs: Array[Array[Float]], assign: Array[Int], centroids: Array[Array[Float]],
                            rnd: Random): Array[Array[Float]] = {
    val (n, k, d) = (vs.length, centroids.length, centroids(0).length)
    val counts = new Array[Int](k)
    assign.foreach(a => counts(a) += 1)
    val sums = Array.ofDim[Double](k, d)
    IntStream.range(0, SumTasks).parallel().forEach { t =>
      var i = 0
      while (i < n) {
        val a = assign(i)
        if (a % SumTasks == t) {
          val v = vs(i)
          val sum = sums(a)
          var j = 0
          while (j < d) { sum(j) += v(j); j += 1 }
        }
        i += 1
      }
    }
    Array.tabulate(k) { c =>
      if (counts(c) == 0) vs(rnd.nextInt(n)).clone()
      else {
        val s = sums(c)
        val cnt = counts(c)
        Array.tabulate(d)(j => (s(j) / cnt).toFloat)
      }
    }
  }

  /** `body(i0, i1)` over chunks of `0 until n` on the calling pool's
    * threads; returns the sum of what the chunks return.
    */
  private def inChunks(n: Int)(body: (Int, Int) => Long): Long = {
    val chunks = (n + Chunk - 1) / Chunk
    val out = new Array[Long](chunks)
    IntStream.range(0, chunks).parallel().forEach(ch => out(ch) = body(ch * Chunk, math.min(n, (ch + 1) * Chunk)))
    out.sum
  }

  /** The float error model of the PDX fold at dimensionality d (see the
    * object's scaladoc), as outward-rounded conversions from a float squared
    * distance to bounds on the exact distance. The double arithmetic here
    * errs by far less than the one float ulp each result is moved outward.
    */
  private final class ErrorModel(d: Int) {
    private val gamma = 2.0 * (d + 4) / (1 << 24)
    private val eta = d * Float.MinPositiveValue.toDouble

    /** ≥ the exact distance whose float squared distance is f. */
    def upper(f: Float): Float = up(math.sqrt((f + eta) / (1 - gamma)))

    /** ≤ the exact distance whose float squared distance is f; an overflowed
      * f = +∞ still means an exact square of at least `Float.MaxValue`.
      */
    def lower(f: Float): Float = down(lowerD(f))

    /** ≤ half the exact distance whose float squared distance is f. */
    def halfLower(f: Float): Float = down(lowerD(f) / 2)

    /** A float t such that a centroid at exact distance above t has a float
      * squared distance strictly above that of any centroid within u.
      */
    def threshold(u: Float): Float =
      up(math.sqrt((u.toDouble * u * (1 + gamma) + 2 * eta) / (1 - gamma)))

    private def lowerD(f: Float): Double =
      math.sqrt(math.max(0.0, math.min(f.toDouble, Float.MaxValue.toDouble) - eta) / (1 + gamma))
  }

  /** x moved one float ulp up (down) from its nearest float: ≥ (≤) x. */
  private def up(x: Double): Float = Math.nextUp(x.toFloat)
  private def down(x: Double): Float = Math.nextDown(x.toFloat)

  /** Fails, naming the vector, the position and the value, unless every
    * vector has `d` values and all of them are finite: a NaN vector would
    * land in cluster 0 and turn its centroid into NaN.
    */
  private def requireUniformFinite(vecs: IndexedSeq[Array[Float]], d: Int): Unit = {
    var i = 0
    while (i < vecs.length) {
      val v = vecs(i)
      require(v.length == d, s"k-means: vector $i has ${v.length} dimensions but vector 0 has $d")
      var j = 0
      while (j < d) {
        require(java.lang.Float.isFinite(v(j)),
                s"k-means: vector $i has the non-finite value ${v(j)} at position $j")
        j += 1
      }
      i += 1
    }
  }
}
