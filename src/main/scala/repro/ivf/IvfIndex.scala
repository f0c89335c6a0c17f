package repro.ivf

import repro.core._

/** Bucket membership computed once on RAW data, shared by every layout and
  * pruner space, reproducing §6.3's "all competitors share the same IVF
  * index (identical buckets)".
  */
final case class IvfPartition(nlist: Int, assign: Array[Int],
                              rawCentroids: Array[Array[Float]])

object Ivf {

  /** Run Lloyd k-means on raw vectors and assign each to its bucket. */
  def partition(vecs: IndexedSeq[Array[Float]], nlist: Int, iters: Int = 10,
                seed: Long = 23): IvfPartition = {
    val model = KMeans.fit(vecs, nlist, iters, seed)
    IvfPartition(nlist, model.assignAll(vecs), model.centroids)
  }
}

/** An IVF index materialized in one search space (raw for PDX-BOND, rotated
  * for ADSampling, PCA for BSA): buckets as PDX blocks (bucket == block, as
  * in Figure 2) and the centroids packed as a PDX block, so bucket selection
  * is the same PDX linear scan as the search (§6.4, Table 7 "Find Nearest
  * Buckets"). The horizontal (N-ary) buckets and centroids for the N-ary
  * searchers are derived from those on first use, so PDX-only users never
  * build them.
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

  lazy val centroidBucket: NaryBucket = NaryBucket.fromBlock(centroidBlock)

  lazy val naryBuckets: Array[NaryBucket] = blocks.map(NaryBucket.fromBlock)

  /** The `nprobe` live centroid indices nearest to the (search-space)
    * query, by (distance, index): a top-nprobe linear scan of the centroids.
    */
  def nearestBuckets(query: Array[Float], nprobe: Int, usePdx: Boolean = true): Array[Int] = {
    require(nprobe > 0, s"nprobe must be positive, got $nprobe")
    val heap =
      if (usePdx) LinearScan.pdxKnn(Iterator.single(centroidBlock), query, nprobe)
      else LinearScan.naryKnn(Iterator.single(centroidBucket), query, nprobe)
    heap.idsSorted.map(_.toInt).toArray
  }

  /** Full IVF query with PDXearch: prep query, pick nprobe buckets, search
    * blocks nearest-first. Returns sorted (id, distance) pairs.
    */
  def searchPdx(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                searcher: PdxSearcher): IndexedSeq[(Long, Float)] = {
    val pq = pruner.prepareQuery(rawQuery)
    val probes = nearestBuckets(pq.query, nprobe, usePdx = true)
    val heap = new KnnHeap(k)
    searcher.searchPrepared(probes.iterator.map(c => blocks(bucketOf(c))), pq, heap)
    heap.sorted
  }

  /** Full IVF query with the horizontal (N-ary) pruned search. */
  def searchNary(rawQuery: Array[Float], k: Int, nprobe: Int, pruner: Pruner,
                 searcher: NarySearcher): IndexedSeq[(Long, Float)] = {
    val pq = pruner.prepareQuery(rawQuery)
    val probes = nearestBuckets(pq.query, nprobe, usePdx = false)
    val heap = new KnnHeap(k)
    searcher.searchPrepared(probes.iterator.map(c => naryBuckets(bucketOf(c))), pq, heap)
    heap.sorted
  }

  /** Linear IVF bucket scan with the horizontal kernel — the FAISS/Milvus
    * IVF_FLAT stand-in (no dimension pruning).
    */
  def searchLinear(query: Array[Float], k: Int, nprobe: Int): IndexedSeq[(Long, Float)] = {
    val probes = nearestBuckets(query, nprobe, usePdx = false)
    LinearScan.naryKnn(probes.iterator.map(c => naryBuckets(bucketOf(c))), query, k).sorted
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
    while (i < part.assign.length) { byBucket(part.assign(i)) += i; i += 1 }
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

  /** Convenience: partition raw data and materialize in a pruner's space. */
  def build(raw: IndexedSeq[Array[Float]], ids: IndexedSeq[Long], nlist: Int,
            pruner: Pruner, iters: Int = 10, seed: Long = 23): IvfIndex = {
    val part = Ivf.partition(raw, nlist, iters, seed)
    materialize(part, pruner.transformData(raw), ids,
                part.rawCentroids.map(pruner.transformVector),
                pruner.needsSuffixNorms)
  }
}
