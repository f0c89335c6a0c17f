package repro.ivf

import java.util.Random
import java.util.stream.IntStream
import repro.core.{Kernels, PdxLayout}

/** Seeded Lloyd k-means — the "non-optimized Lloyd algorithm" the paper's
  * IVF index uses to form buckets (§2.1). Deterministic in (data, k, seed).
  *
  * The assignment pass, one independent nearest-centroid question per
  * vector, runs on all cores ([[Model.assignAll]]); the centroid sums, the
  * counts and the reseeding of empty clusters run on the calling thread in
  * index order, so the result has the same bits for any number of threads.
  * The paper disables multi-threading only for the searches it times, and
  * so does every query path here.
  */
object KMeans {

  final case class Model(centroids: Array[Array[Float]]) {
    val k: Int = centroids.length
    private val d: Int = if (k > 0) centroids(0).length else 0
    private val packed: Array[Float] = PdxLayout.packNary(centroids.toIndexedSeq)

    /** Nearest centroid of v (ties → lowest index, deterministic). `v`
      * must have the centroids' length: the kernel reads d values, so a
      * longer vector would be silently truncated.
      */
    def assign(v: Array[Float]): Int = {
      require(v.length == d, s"k-means: the vector has ${v.length} dimensions but the centroids have $d")
      var best = 0
      var bestDist = Float.PositiveInfinity
      var c = 0
      while (c < k) {
        val dist = Kernels.l2Unrolled(packed, c * d, v, 0, d)
        if (dist < bestDist) { bestDist = dist; best = c }
        c += 1
      }
      best
    }

    /** `assign` of every vector: entry i is exactly `assign(vecs(i))`. Every
      * length is checked first, on the calling thread, naming the vector;
      * then the vectors are split over the threads of the ForkJoin pool
      * that calls it (the common pool unless called from inside another
      * pool).
      */
    def assignAll(vecs: IndexedSeq[Array[Float]]): Array[Int] = {
      vecs.indices.foreach { i =>
        require(vecs(i).length == d,
                s"k-means: vector $i has ${vecs(i).length} dimensions but the centroids have $d")
      }
      val out = new Array[Int](vecs.length)
      IntStream.range(0, vecs.length).parallel().forEach(i => out(i) = assign(vecs(i)))
      out
    }
  }

  /** Fit k centroids with `iters` Lloyd iterations. Initial centroids are a
    * seeded sample without replacement; clusters that empty out are reseeded
    * to a random point so `k` buckets always survive. Every vector must have
    * the first one's length and only finite values.
    */
  def fit(vecs: IndexedSeq[Array[Float]], k: Int, iters: Int = 10,
          seed: Long = 23): Model = {
    require(vecs.nonEmpty, "k-means on empty collection")
    require(k > 0 && k <= vecs.length, s"k=$k out of range for n=${vecs.length}")
    val n = vecs.length
    val d = vecs.head.length
    requireUniformFinite(vecs, d)
    val rnd = new Random(seed)

    // Seeded distinct-index sample for the initial centroids.
    val chosen = new java.util.LinkedHashSet[Integer]()
    while (chosen.size < k) chosen.add(rnd.nextInt(n))
    var centroids: Array[Array[Float]] = {
      val it = chosen.iterator()
      Array.fill(k)(vecs(it.next()).clone())
    }

    val sums = Array.ofDim[Double](k, d)
    val counts = new Array[Int](k)
    var iter = 0
    while (iter < iters) {
      val assign = Model(centroids).assignAll(vecs)
      var c = 0
      while (c < k) { java.util.Arrays.fill(sums(c), 0.0); c += 1 }
      java.util.Arrays.fill(counts, 0)
      var i = 0
      while (i < n) {
        val v = vecs(i)
        val a = assign(i)
        counts(a) += 1
        val s = sums(a)
        var j = 0
        while (j < d) { s(j) += v(j); j += 1 }
        i += 1
      }
      centroids = Array.tabulate(k) { c2 =>
        if (counts(c2) == 0) vecs(rnd.nextInt(n)).clone()
        else {
          val s = sums(c2)
          val cnt = counts(c2)
          Array.tabulate(d)(j => (s(j) / cnt).toFloat)
        }
      }
      iter += 1
    }
    Model(centroids)
  }

  /** Fails, naming the vector, the position and the value, unless every
    * vector has `d` values and all of them are finite: a longer vector would
    * be silently truncated by the kernel, and a NaN one would land in
    * cluster 0 and turn its centroid into NaN.
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
