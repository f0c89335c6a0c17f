package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.TestUtil.clustered
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

/** Exactness and recall invariants of the PDXearch framework (§4). */
class PdxSearchSpec extends AnyFunSuite {

  // --- exact pruners must equal brute force on every configuration ---
  for {
    d <- Seq(6, 32, 96)
    bs <- Seq(16, 64, 200)
    k <- Seq(1, 10)
  } {
    test(s"PDXearch + PartialDistance is exact (d=$d, blockSize=$bs, k=$k)") {
      val ds = clustered(600, d, queries = 8, seed = d * 100L + bs)
      val blocks = PdxLayout.pack(ds.vectors, ds.ids, bs)
      val searcher = new PdxSearcher(k)
      ds.queries.foreach { q =>
        val heap = searcher.search(blocks, q, TestPruners.PartialDistance(d))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, k)
      }
    }
  }

  for (crit <- Seq(Bond.Sequential, Bond.Decreasing, Bond.DistanceToMeans, Bond.DimensionZones)) {
    test(s"PDXearch + PDX-BOND(${crit.label}) is exact") {
      val d = 48
      val ds = clustered(800, d, queries = 8, seed = 7, skewed = true)
      val blocks = PdxLayout.pack(ds.vectors, ds.ids, 100)
      val searcher = new PdxSearcher(10)
      ds.queries.foreach { q =>
        val heap = searcher.search(blocks, q, new Bond(d, crit))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
      }
    }
  }

  test("PDX-BOND(sequential) and PartialDistance make the same decisions: same heap, same counts") {
    // Both bounds are the partial distance, so the one compaction loop keeps
    // the same survivors for both: equal answers, and equal counts of values
    // scanned and bounds evaluated. d = 13 leaves a 1-dimension kernel tail.
    val d = 13
    val sizes = Seq(16, 173, 16, 173, 173, 16, 173)
    val ds = clustered(sizes.sum, d, queries = 8, seed = 61)
    val starts = sizes.scanLeft(0)(_ + _)
    val blocks = sizes.indices.map { b =>
      val range = starts(b) until starts(b + 1)
      PdxLayout.packOne(range.map(ds.vectors), range.map(ds.ids), d, withSuffixNorms = false)
    }
    assert(blocks.map(_.n) == sizes)
    for (k <- Seq(1, 10); q <- ds.queries) {
      val Seq((bondHeap, bondProf), (partialHeap, partialProf)) =
        Seq[Pruner](new Bond(d, Bond.Sequential), TestPruners.PartialDistance(d)).map { pruner =>
          val prof = new SearchProfiler
          (new PdxSearcher(k, prof).search(blocks, q, pruner).sorted, prof)
        }
      val bits = (h: Seq[(Long, Float)]) => h.map { case (id, x) => (id, java.lang.Float.floatToRawIntBits(x)) }
      assert(bits(bondHeap) == bits(partialHeap))
      assert(bondProf.dimValuesScanned == partialProf.dimValuesScanned)
      assert(bondProf.boundEvals == partialProf.boundEvals)
      assert(bondProf.boundEvals > 0 && bondProf.dimValuesScanned < sizes.sum.toLong * d,
             s"k=$k: nothing was pruned")
      TestUtil.assertExactKnn(bondHeap, ds.vectors, q, k)
    }
  }

  /** Yields `blocks` over one shared set of arrays that each `next()`
    * refills, replaced only when a block's `n` or `d` changes, as Spark's
    * per-task block decoder does: a search that kept a reference to an
    * earlier block would read a later block's values through it.
    */
  private def refilled(blocks: Seq[PdxBlock]): Iterator[PdxBlock] = {
    var ids = Array.emptyLongArray
    var data = Array.emptyFloatArray
    var means = Array.emptyFloatArray
    blocks.iterator.map { b =>
      if (ids.length != b.n) ids = new Array[Long](b.n)
      if (data.length != b.n * b.d) data = new Array[Float](b.n * b.d)
      if (means.length != b.d) means = new Array[Float](b.d)
      System.arraycopy(b.ids, 0, ids, 0, b.n)
      System.arraycopy(b.data, 0, data, 0, b.n * b.d)
      System.arraycopy(b.means, 0, means, 0, b.d)
      PdxBlock(ids, b.n, b.d, data, means, Array.emptyFloatArray)
    }
  }

  test("a block is read only until the next is taken: searches over one refilled set of arrays equal searches over distinct blocks") {
    val d = 24
    val sizes = Seq(64, 64, 64, 17, 64, 64, 64, 5, 64, 64)
    val ds = clustered(sizes.sum, d, queries = 8, seed = 23)
    val starts = sizes.scanLeft(0)(_ + _)
    val blocks = sizes.indices.map { b =>
      val range = starts(b) until starts(b + 1)
      PdxLayout.packOne(range.map(ds.vectors), range.map(ds.ids), d, withSuffixNorms = false)
    }
    val shared = refilled(blocks)
    assert(shared.next().data eq shared.next().data)
    val searches = Seq[(String, Iterator[PdxBlock] => Array[Float] => KnnHeap)](
      "PDX-BOND" -> (it => q => new PdxSearcher(10).search(it, q, new Bond(d, Bond.DistanceToMeans))),
      "NeverPrune" -> (it => q => new PdxSearcher(10).search(it, q, TestPruners.NeverPrune(d))),
      "LinearScan.pdxKnn" -> (it => q => LinearScan.pdxKnn(it, q, 10)))
    val bits = (h: Seq[(Long, Float)]) => h.map { case (id, x) => (id, java.lang.Float.floatToRawIntBits(x)) }
    for ((name, search) <- searches; q <- ds.queries) {
      val distinct = search(blocks.iterator)(q).sorted
      assert(bits(search(refilled(blocks))(q).sorted) == bits(distinct), name)
      TestUtil.assertExactKnn(distinct, ds.vectors, q, 10)
    }
  }

  test("PDXearch + NeverPrune equals a PDX linear scan") {
    val d = 20
    val ds = clustered(500, d, queries = 8, seed = 11)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val a = searcher.search(blocks, q, TestPruners.NeverPrune(d)).sorted
      val b = LinearScan.pdxKnn(blocks, q, 10).sorted
      assert(a.map(_._1) == b.map(_._1))
    }
  }

  test("pdxKnn and PDXearch reject a query of the wrong dimensionality") {
    val d = 20
    val ds = clustered(300, d, queries = 8, seed = 29)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val searcher = new PdxSearcher(10)
    for (len <- Seq(d - 1, d + 1)) {
      val q = VectorData.gaussian(1, len, seed = len.toLong).head
      val e1 = intercept[IllegalArgumentException](LinearScan.pdxKnn(blocks, q, 10))
      assert(e1.getMessage.contains(s"query has $len dimensions but the block has $d"))
      val e2 = intercept[IllegalArgumentException](searcher.search(blocks, q, TestPruners.PartialDistance(d)))
      assert(e2.getMessage.contains(s"query has $len dimensions but the block has $d"))
    }
  }

  test("PDXearch + BSA(m=1) is exact") {
    val d = 32
    val ds = clustered(700, d, queries = 8, seed = 13, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val blocks = PdxLayout.pack(space, ds.ids, 64, withSuffixNorms = true)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val heap = searcher.search(blocks, q, bsa)
      // Distances are preserved by the rotation: compare against raw space.
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
    }
  }

  test("PDXearch + ADSampling reaches recall@10 >= 0.9 on clustered data") {
    val d = 64
    val ds = clustered(2000, d, queries = 8, seed = 17)
    val ads = new AdSampling(d, seed = 19)
    val space = ads.transformData(ds.vectors)
    val blocks = PdxLayout.pack(space, ds.ids, 64)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new PdxSearcher(10)
    val recalls = ds.queries.indices.map { qi =>
      val heap = searcher.search(blocks, ds.queries(qi), ads)
      VectorData.recall(heap.idsSorted, gt(qi))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.9, s"avg recall $avg")
  }

  test("PDXearch + learned BSA reaches recall@10 >= 0.85 on clustered data") {
    val d = 64
    val ds = clustered(2000, d, queries = 8, seed = 23, skewed = true)
    val bsa = Bsa.fit(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val blocks = PdxLayout.pack(space, ds.ids, 64, withSuffixNorms = true)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new PdxSearcher(10)
    val recalls = ds.queries.indices.map { qi =>
      val heap = searcher.search(blocks, ds.queries(qi), bsa)
      VectorData.recall(heap.idsSorted, gt(qi))
    }
    val avg = recalls.sum / recalls.length
    assert(avg >= 0.85, s"avg recall $avg")
  }

  test("PDXearch sizes its first WARMUP step to the pruner's minPruneDims") {
    // A pruner that records the first dimsVisited its bound is asked about.
    val d = 64
    val ds = clustered(300, d, queries = 8, seed = 53)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    var firstAsked = -1
    val probe = new Pruner {
      val name = "probe"
      val d: Int = 64
      def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
        val query: Array[Float] = q
        def order(means: Array[Float]): Array[Int] = null
        override def minPruneDims: Int = 16
        def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = {
          if (firstAsked < 0) firstAsked = dimsVisited
          Float.NegativeInfinity
        }
      }
    }
    new PdxSearcher(5).search(blocks, ds.queries.head, probe)
    assert(firstAsked >= 16, s"first bound asked at dv=$firstAsked")
  }

  test("PDXearch asks for the dimension order once per search") {
    // 10 blocks of 30: the first fills the heap, the other nine are pruned.
    val d = 16
    val ds = clustered(300, d, queries = 8, seed = 59)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 30)
    var orderCalls = 0
    val probe = new Pruner {
      val name = "order-probe"
      val d: Int = 16
      def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
        val query: Array[Float] = q
        def order(means: Array[Float]): Array[Int] = {
          orderCalls += 1
          Array.tabulate(d)(j => d - 1 - j)
        }
        def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = partial
      }
    }
    ds.queries.take(3).foreach { q =>
      orderCalls = 0
      val heap = new PdxSearcher(5).search(blocks, q, probe)
      assert(orderCalls == 1)
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 5)
    }
    // No block is pruned when the heap never fills: no order is needed.
    orderCalls = 0
    new PdxSearcher(400).search(blocks, ds.queries.head, probe)
    assert(orderCalls == 0)
  }

  test("PDXearch is exact through both block exits: WARMUP to the last dimension, and PRUNE") {
    // Block by block, with the heap carried over: a block that went through
    // WARMUP/PRUNE evaluated bounds; it scanned all n*d values iff it stayed
    // in WARMUP to the last dimension (PRUNE skips the pruned vectors).
    val d = 30
    val ds = clustered(500, d, queries = 8, seed = 31)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val prof = new SearchProfiler
    val searcher = new PdxSearcher(5, prof)
    var warmupExits = 0
    var pruneExits = 0
    for (q <- ds.queries; pruner <- Seq(new Bond(d, Bond.DistanceToMeans), TestPruners.NeverPrune(d))) {
      val pq = pruner.prepareQuery(q)
      val heap = new KnnHeap(5)
      blocks.foreach { b =>
        val (dims0, evals0) = (prof.dimValuesScanned, prof.boundEvals)
        searcher.searchPrepared(Iterator.single(b), pq, heap)
        if (prof.boundEvals > evals0) {
          if (prof.dimValuesScanned - dims0 == b.n.toLong * d) warmupExits += 1
          else pruneExits += 1
        }
      }
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 5)
    }
    assert(warmupExits > 0 && pruneExits > 0, s"warmup=$warmupExits prune=$pruneExits")
  }

  for (sel <- Seq(0.05, 0.2, 0.5, 1.0)) {
    test(s"selectivity threshold $sel preserves exactness") {
      // WARMUP switches to PRUNE once at most 20% of a block survives. Here a
      // fraction `sel` of every block after the first survives the first bound
      // pass: the others are pruned by their first coordinate, and the
      // survivors stay below τ to the last dimension (each block is nearer
      // than the one before). So the block exits through PRUNE iff sel <= 0.2.
      val (d, bs, k, nBlocks) = (16, 100, 5, 4)
      val near = math.round(sel * bs).toInt
      val vecs = (0 until nBlocks * bs).map { id =>
        val (b, i) = (id / bs, id % bs)
        if (b == 0) Array.fill(d)(1f)
        else if (i < near) Array.fill(d)((1.0 / (b + 1) * (1 - 0.001 * i)).toFloat)
        else Array.tabulate(d)(j => if (j == 0) 10f else 0f)
      }
      val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), bs)
      assert(blocks.map(_.n) == Seq.fill(nBlocks)(bs))
      val q = new Array[Float](d)
      val prof = new SearchProfiler
      val searcher = new PdxSearcher(k, prof)
      val pq = TestPruners.PartialDistance(d).prepareQuery(q)
      val heap = new KnnHeap(k)
      blocks.zipWithIndex.foreach { case (b, bi) =>
        val dims0 = prof.dimValuesScanned
        searcher.searchPrepared(Iterator.single(b), pq, heap)
        val scanned = prof.dimValuesScanned - dims0
        if (bi > 0) {
          if (sel <= 0.2) assert(scanned < bs.toLong * d, s"block $bi stayed in WARMUP")
          else assert(scanned == bs.toLong * d, s"block $bi left WARMUP early")
        }
      }
      TestUtil.assertExactKnn(heap.sorted, vecs, q, k)
    }
  }

  test("PdxSearcher rejects a non-positive k, naming it") {
    for (k <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](new PdxSearcher(k))
      assert(e.getMessage.contains(s"k must be positive, got $k"), e.getMessage)
    }
  }

  test("k larger than the collection returns every vector") {
    val d = 12
    val ds = clustered(40, d, queries = 8, seed = 37)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 16)
    val searcher = new PdxSearcher(100)
    val heap = searcher.search(blocks, ds.queries.head, new Bond(d))
    assert(heap.size == 40)
  }

  test("single-vector blocks work") {
    val d = 10
    val ds = clustered(30, d, queries = 8, seed = 41)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 1)
    val searcher = new PdxSearcher(3)
    ds.queries.foreach { q =>
      val heap = searcher.search(blocks, q, new Bond(d))
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 3)
    }
  }

  test("searcher instances are reusable across queries and block shapes") {
    val searcher = new PdxSearcher(4)
    for (d <- Seq(8, 24); n <- Seq(50, 300)) {
      val ds = clustered(n, d, queries = 8, seed = d * 10L + n)
      val blocks = PdxLayout.pack(ds.vectors, ds.ids, 32)
      ds.queries.take(3).foreach { q =>
        val heap = searcher.search(blocks, q, new Bond(d))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 4)
      }
    }
  }

  test("profiler accounts distance and bounds time when attached") {
    val d = 64
    val ds = clustered(2000, d, queries = 8, seed = 43)
    val prof = new SearchProfiler
    val searcher = new PdxSearcher(10, profiler = prof)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    searcher.search(blocks, ds.queries.head, new Bond(d, Bond.DistanceToMeans))
    assert(prof.distanceNanos > 0)
    assert(prof.dimValuesScanned > 0)
    assert(prof.dimValuesScanned <= 2000L * d)
    assert(prof.boundEvals > 0)
  }

  test("duplicate vectors: the k smallest ids win in any block order") {
    // Integer coordinates make every distance exact, so all n distances are
    // equal whatever order the dimensions are summed in.
    val (n, d, k) = (300, 16, 10)
    val vecs = IndexedSeq.fill(n)(Array.tabulate(d)(j => (j % 5).toFloat))
    val q = Array.tabulate(d)(j => (j % 3).toFloat)
    val blocks = PdxLayout.pack(vecs, (0 until n).map(_.toLong), 64)
    for (order <- Seq(blocks, blocks.reverse)) {
      assert(LinearScan.pdxKnn(order, q, k).idsSorted == (0L until k))
      assert(new PdxSearcher(k).search(order, q, new Bond(d)).idsSorted == (0L until k))
    }
  }

  test("pruning reduces scanned dimension values vs linear scan on clustered data") {
    val d = 96
    val ds = clustered(3000, d, queries = 8, seed = 47, skewed = true)
    val prof = new SearchProfiler
    val searcher = new PdxSearcher(10, profiler = prof)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    searcher.search(blocks, ds.queries.head, new Bond(d, Bond.DistanceToMeans))
    val total = 3000L * d
    assert(prof.dimValuesScanned < total, s"scanned ${prof.dimValuesScanned} of $total")
  }
}
