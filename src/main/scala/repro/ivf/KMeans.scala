package repro.ivf

import java.util.Random
import java.util.stream.IntStream
import repro.core.{LinearScan, PdxBlock, PdxLayout}

/** Seeded Lloyd k-means — the "non-optimized Lloyd algorithm" the paper's
  * IVF index uses to form buckets (§2.1). Deterministic in (data, k, seed).
  *
  * The assignment pass, one independent nearest-centroid question per
  * vector asked by the same PDX scan of the centroids as IVF bucket
  * selection (`IvfIndex.nearestBuckets`), runs on all cores
  * ([[Model.assignAll]]); the centroid sums, the counts and the reseeding
  * of empty clusters run on the calling thread in index order, so the
  * result has the same bits for any number of threads.
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
    private val block: PdxBlock =
      PdxLayout.packOne(centroids.toIndexedSeq, (0 until k).map(_.toLong), d, withSuffixNorms = false)

    /** Nearest centroid of v, ties going to the lowest index by `KnnHeap`'s
      * (distance, id) order. `v` must have the centroids' length.
      */
    def assign(v: Array[Float]): Int = {
      require(v.length == d, s"k-means: the vector has ${v.length} dimensions but the centroids have $d")
      LinearScan.pdxKnn(Iterator.single(block), v, 1).idsSorted.head.toInt
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
