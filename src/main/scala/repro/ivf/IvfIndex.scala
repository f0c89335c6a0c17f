package repro.ivf

import repro.core._

/** Bucket membership computed once on RAW data, shared by every layout and
  * pruner space, reproducing §6.3's "all competitors share the same IVF
  * index (identical buckets)".
  */
final case class IvfPartition(nlist: Int, assign: Array[Int],
                              rawCentroids: Array[Array[Float]])

object Ivf {

  /** Run Lloyd k-means on raw vectors; each vector's bucket is its nearest
    * final centroid, from the fit's last assignment pass.
    */
  def partition(vecs: IndexedSeq[Array[Float]], nlist: Int, iters: Int = 10,
                seed: Long = 23): IvfPartition = {
    val fit = KMeans.fit(vecs, nlist, iters, seed)
    IvfPartition(nlist, fit.assignment, fit.model.centroids)
  }
}

/** An IVF index materialized in one search space (raw for PDX-BOND, rotated
  * for ADSampling, PCA for BSA): buckets as PDX blocks (bucket == block, as
  * in Figure 2) and the centroids packed as a PDX block, so bucket selection
  * is the same PDX linear scan as the search (§6.4, Table 7 "Find Nearest
  * Buckets"). Every search, PDX or N-ary, picks its buckets with that one
  * scan. The horizontal (N-ary) buckets for the N-ary searchers are derived
  * from the blocks on first use, so PDX-only users never build them.
  *
  * Empty buckets are dropped, and so are their centroids: `centroidBlock`
  * holds only the live centroids, each with its centroid index as its id.
  * `bucketOf(c)` maps a centroid index to its position in `blocks` (or -1).
  */
final class IvfIndex(
    val centroidBlock: PdxBlock,
    val blocks: Array[PdxBlock],
    val bucketOf: Array[Int]
) {

  lazy val naryBuckets: Array[NaryBucket] = blocks.map(NaryBucket(_))

  /** The `nprobe` live centroid indices nearest to the (search-space)
    * query, by (distance, index): a top-nprobe linear scan of the centroids.
    */
  def nearestBuckets(query: Array[Float], nprobe: Int): Array[Int] = {
    require(nprobe > 0, s"nprobe must be positive, got $nprobe")
    LinearScan.pdxKnn(Iterator.single(centroidBlock), query, nprobe).idsSorted.map(_.toInt).toArray
  }

  /** Full IVF query with PDXearch. Returns sorted (id, distance) pairs. */
  def searchPdx(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                searcher: PdxSearcher): IndexedSeq[(Long, Float)] =
    search(rawQuery, k, nprobe, pruner, searcher.profiler) { (probes, pq, heap) =>
      searcher.searchPrepared(probes.map(c => blocks(bucketOf(c))), pq, heap)
    }

  /** Full IVF query with the horizontal (N-ary) pruned search. */
  def searchNary(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                 searcher: NarySearcher): IndexedSeq[(Long, Float)] =
    search(rawQuery, k, nprobe, pruner, searcher.profiler) { (probes, pq, heap) =>
      searcher.searchPrepared(probes.map(c => naryBuckets(bucketOf(c))), pq, heap)
    }

  /** The one IVF query sequence (Table 7's layers in order): check the raw
    * query, prep it, pick the `nprobe` nearest buckets, `scan` them nearest
    * first. A non-null `profiler` gets the prep and bucket time; a null one
    * reads no clock.
    */
  private def search(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                     profiler: SearchProfiler)(
      scan: (Iterator[Int], PreparedQuery, KnnHeap) => KnnHeap): IndexedSeq[(Long, Float)] = {
    LinearScan.requireFiniteQuery(rawQuery)
    val t0 = if (profiler ne null) System.nanoTime() else 0L
    val pq = pruner.prepareQuery(rawQuery)
    val t1 = if (profiler ne null) System.nanoTime() else 0L
    val probes = nearestBuckets(pq.query, nprobe)
    if (profiler ne null) {
      profiler.prepNanos += t1 - t0
      profiler.bucketsNanos += System.nanoTime() - t1
    }
    scan(probes.iterator, pq, new KnnHeap(k)).sorted
  }
}

object IvfIndex {

  /** Materialize the shared bucket membership in one pruner's search space.
    * `vecsInSpace` must be `pruner.transformData(raw)` (or raw itself);
    * centroids are transformed with the same map (rotations are linear, so
    * transformed centroids are the centroids of transformed buckets).
    */
  def materialize(part: IvfPartition, vecsInSpace: IndexedSeq[Array[Float]],
                  ids: IndexedSeq[Long], spaceCentroids: Array[Array[Float]],
                  withSuffixNorms: Boolean): IvfIndex = {
    val n = vecsInSpace.length
    require(n > 0, "cannot materialize an IVF index over 0 vectors")
    require(ids.length == n && part.assign.length == n,
            s"vecsInSpace has $n vectors but ids has ${ids.length} and part.assign has ${part.assign.length}")
    require(spaceCentroids.length == part.nlist,
            s"spaceCentroids has ${spaceCentroids.length} centroids but the partition has nlist ${part.nlist}")
    val d = vecsInSpace.head.length
    val byBucket = Array.fill(part.nlist)(Vector.newBuilder[Int])
    var i = 0
    while (i < part.assign.length) {
      val c = part.assign(i)
      require(c >= 0 && c < part.nlist, s"vector $i is assigned to bucket $c, outside [0, nlist ${part.nlist})")
      byBucket(c) += i
      i += 1
    }
    val members = byBucket.map(_.result())
    val live = (0 until part.nlist).filter(members(_).nonEmpty)
    val bucketOf = Array.fill(part.nlist)(-1)
    live.indices.foreach(w => bucketOf(live(w)) = w)
    val blocks = live.map { c =>
      PdxLayout.packOne(members(c).map(vecsInSpace), members(c).map(ids), d, withSuffixNorms)
    }
    val centroidBlock = PdxLayout.packOne(live.map(spaceCentroids), live.map(_.toLong), d,
                                          withSuffixNorms = false)
    new IvfIndex(centroidBlock, blocks.toArray, bucketOf)
  }
}
