package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

class NarySearchSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 6, skewed, clusters = 8, seed = seed))

  test("NaryBucket.pack stores vectors contiguously with correct suffix norms") {
    val vecs = VectorData.gaussian(5, 7, seed = 3)
    val b = NaryBucket.pack(vecs, vecs.indices.map(_.toLong), withSuffixNorms = true)
    assert(b.n == 5 && b.d == 7)
    vecs.indices.foreach { i =>
      assert(b.data.slice(i * 7, (i + 1) * 7).toSeq == vecs(i).toSeq)
      val expect = vecs(i).map(x => x.toDouble * x).sum
      assert(math.abs(b.suffixSqNorms(i * 8) - expect) < 1e-4 * (1 + expect))
      assert(b.suffixSqNorms(i * 8 + 7) == 0f)
    }
  }

  test("NaryBucket rejects ids or data of the wrong length, naming both lengths") {
    val e1 = intercept[IllegalArgumentException] {
      NaryBucket(Array(1L), 2, 3, new Array[Float](6), new Array[Float](3), Array.emptyFloatArray)
    }
    assert(e1.getMessage.contains("ids 1 != n 2"))
    val e2 = intercept[IllegalArgumentException] {
      NaryBucket(Array(1L, 2L), 2, 3, new Array[Float](5), new Array[Float](3), Array.emptyFloatArray)
    }
    assert(e2.getMessage.contains("data 5 != n*d 6"))
  }

  test("NaryBucket rejects means of the wrong length, and fromBlock shares the block's means") {
    val e = intercept[IllegalArgumentException] {
      NaryBucket(Array(1L, 2L), 2, 3, new Array[Float](6), new Array[Float](2), Array.emptyFloatArray)
    }
    assert(e.getMessage.contains("means 2 != d 3"))
    val vecs = VectorData.gaussian(9, 5, seed = 4)
    val block = PdxLayout.packOne(vecs, vecs.indices.map(_.toLong), 5, withSuffixNorms = false)
    assert(NaryBucket.fromBlock(block).means eq block.means)
  }

  for ((d, deltaD) <- Seq(4 -> 1, 32 -> 8, 128 -> 32)) {
    test(s"NarySearcher + PartialDistance is exact (deltaD=$deltaD)") {
      val ds = clustered(600, d, seed = 5)
      val buckets = Seq(
        NaryBucket.pack(ds.vectors.take(300), ds.ids.take(300)),
        NaryBucket.pack(ds.vectors.drop(300), ds.ids.drop(300))
      )
      val searcher = new NarySearcher(10, deltaD)
      ds.queries.foreach { q =>
        val heap = searcher.search(buckets, q, TestPruners.PartialDistance(d))
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
      }
    }
  }

  test("NarySearcher + BSA(m=1) is exact") {
    val d = 32
    val ds = clustered(500, d, seed = 7, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val bucket = NaryBucket.pack(space, ds.ids, withSuffixNorms = true)
    val searcher = new NarySearcher(10, deltaD = d / 4)
    ds.queries.foreach { q =>
      val heap = searcher.search(Seq(bucket), q, bsa)
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
    }
  }

  test("NarySearcher + ADSampling reaches recall@10 >= 0.9") {
    val d = 64
    val ds = clustered(1500, d, seed = 9)
    val ads = new AdSampling(d, seed = 11)
    val space = ads.transformData(ds.vectors)
    val bucket = NaryBucket.pack(space, ds.ids)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val searcher = new NarySearcher(10, deltaD = d / 4)
    val recalls = ds.queries.indices.map { qi =>
      VectorData.recall(searcher.search(Seq(bucket), ds.queries(qi), ads).idsSorted, gt(qi))
    }
    assert(recalls.sum / recalls.length >= 0.9)
  }

  test("NarySearcher and PdxSearcher agree under the same exact pruner") {
    val d = 24
    val ds = clustered(400, d, seed = 13)
    val nb = NaryBucket.pack(ds.vectors, ds.ids)
    val pb = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val q = ds.queries.head
    val a = new NarySearcher(10, deltaD = d / 4).search(Seq(nb), q, TestPruners.PartialDistance(d)).idsSorted
    val b = new PdxSearcher(10).search(pb, q, TestPruners.PartialDistance(d)).idsSorted
    assert(a.toSet == b.toSet)
  }

  test("NarySearcher counts operations when profiled") {
    val d = 48
    val ds = clustered(800, d, seed = 15)
    val prof = new SearchProfiler
    val searcher = new NarySearcher(10, deltaD = d / 4, prof)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    searcher.search(Seq(bucket), ds.queries.head, TestPruners.PartialDistance(d))
    assert(prof.dimValuesScanned > 0 && prof.dimValuesScanned <= 800L * d)
    assert(prof.distanceNanos > 0)
  }

  test("NarySearcher + PDX-BOND is exact for every criterion at Δd ∈ {1, 8}") {
    val d = 32
    val ds = clustered(600, d, seed = 19, skewed = true)
    val buckets = Seq(
      NaryBucket.pack(ds.vectors.take(250), ds.ids.take(250)),
      NaryBucket.pack(ds.vectors.drop(250), ds.ids.drop(250))
    )
    for (criteria <- Seq(Bond.Sequential, Bond.Decreasing, Bond.DistanceToMeans, Bond.DimensionZones);
         deltaD <- Seq(1, 8); q <- ds.queries) {
      val heap = new NarySearcher(10, deltaD).search(buckets, q, new Bond(d, criteria))
      withClue(s"${criteria.label} Δd=$deltaD: ") {
        TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
      }
    }
  }

  test("NarySearcher asks for the order once per search, from the first bucket's means") {
    // Query 0; bucket 0 holds the zero vector, which fills the k = 1 heap.
    // Bucket 1's vector differs only in the last dimension: visited last-first
    // it is pruned after one dimension, in storage order only after all four.
    val d = 4
    val buckets = Seq(
      NaryBucket.pack(IndexedSeq(new Array[Float](d)), IndexedSeq(0L)),
      NaryBucket.pack(IndexedSeq(Array(0f, 0f, 0f, 5f)), IndexedSeq(1L)))
    var orderCalls = 0
    var askedWith: Array[Float] = null
    val probe = new Pruner {
      val name = "order-probe"
      val d: Int = 4
      def prepareQuery(q: Array[Float]): PreparedQuery = new PreparedQuery {
        val query: Array[Float] = q
        def order(means: Array[Float]): Array[Int] = {
          orderCalls += 1
          askedWith = means
          Array.tabulate(d)(j => d - 1 - j)
        }
        def bound(partial: Float, dimsVisited: Int, vecSuffixSq: Float): Float = partial
      }
    }
    val prof = new SearchProfiler
    val heap = new NarySearcher(1, deltaD = 1, prof).search(buckets, new Array[Float](d), probe)
    assert(orderCalls == 1)
    assert(askedWith eq buckets.head.means)
    assert(heap.idsSorted == Seq(0L))
    assert(prof.dimValuesScanned == d + 1, s"scanned ${prof.dimValuesScanned}")
  }

  // --- linear scans ---

  test("all linear scans agree with double-precision brute force") {
    val d = 33
    val ds = clustered(500, d, seed = 17)
    val nary = PdxLayout.packNary(ds.vectors)
    val dsm = PdxLayout.packDsm(ds.vectors)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val bucket = NaryBucket(ds.ids.toArray, 500, d, nary, PdxLayout.globalMeans(ds.vectors),
                            Array.emptyFloatArray)
    ds.queries.foreach { q =>
      TestUtil.assertExactKnn(LinearScan.naryKnn(Seq(bucket), q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.naryScalarKnn(nary, 500, d, q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.dsmKnn(dsm, 500, q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.pdxKnn(blocks, q, 10).sorted, ds.vectors, q, 10)
      TestUtil.assertExactKnn(LinearScan.gatherKnn(nary, 500, d, q, 10).sorted, ds.vectors, q, 10)
    }
  }

  test("the scalar, DSM and gather scans reject a query of the wrong dimensionality") {
    val d = 9
    val vecs = VectorData.gaussian(70, d, seed = 23)
    val nary = PdxLayout.packNary(vecs)
    val dsm = PdxLayout.packDsm(vecs)
    for (len <- Seq(d - 1, d + 1)) {
      val q = VectorData.gaussian(1, len, seed = len.toLong).head
      val calls = Seq[() => Any](
        () => LinearScan.naryScalarKnn(nary, 70, d, q, 10),
        () => LinearScan.dsmKnn(dsm, 70, q, 10),
        () => LinearScan.gatherKnn(nary, 70, d, q, 10))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"query has $len dimensions but the block has $d"))
      }
    }
  }
}
