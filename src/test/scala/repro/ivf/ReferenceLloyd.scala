package repro.ivf

import java.util.Random
import java.util.stream.IntStream

/** Plain Lloyd k-means as `KMeans.fit` ran it before it kept Elkan bounds:
  * every pass scores all n·k distances with `KMeans.Model.assign`, and
  * `partition` runs one more full pass on the final centroids. The tests hold
  * the bounded fit to its bits. Its input is not checked: the tests give it
  * only input that `KMeans.fit` accepts.
  */
object ReferenceLloyd {

  /** `model.assign` of every vector: entry i is exactly
    * `model.assign(vecs(i))`. Every length is checked first, on the calling
    * thread, naming the vector; then the vectors are split over the threads
    * of the ForkJoin pool that calls it.
    */
  def assignAll(model: KMeans.Model, vecs: IndexedSeq[Array[Float]]): Array[Int] = {
    val d = model.centroids(0).length
    vecs.indices.foreach { i =>
      require(vecs(i).length == d,
              s"k-means: vector $i has ${vecs(i).length} dimensions but the centroids have $d")
    }
    val out = new Array[Int](vecs.length)
    IntStream.range(0, vecs.length).parallel().forEach(i => out(i) = model.assign(vecs(i)))
    out
  }

  def fit(vecs: IndexedSeq[Array[Float]], k: Int, iters: Int, seed: Long): KMeans.Model = {
    val n = vecs.length
    val d = vecs.head.length
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
      val assign = assignAll(KMeans.Model(centroids), vecs)
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
    KMeans.Model(centroids)
  }

  def partition(vecs: IndexedSeq[Array[Float]], nlist: Int, iters: Int, seed: Long): IvfPartition = {
    val model = fit(vecs, nlist, iters, seed)
    IvfPartition(nlist, assignAll(model, vecs), model.centroids)
  }
}
