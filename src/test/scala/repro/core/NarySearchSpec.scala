package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.VectorData
import repro.prune.{AdSampling, Bsa}

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
      NaryBucket(Array(1L), 2, 3, new Array[Float](6), Array.emptyFloatArray)
    }
    assert(e1.getMessage.contains("ids 1 != n 2"))
    val e2 = intercept[IllegalArgumentException] {
      NaryBucket(Array(1L, 2L), 2, 3, new Array[Float](5), Array.emptyFloatArray)
    }
    assert(e2.getMessage.contains("data 5 != n*d 6"))
  }

  // Δd = d/4 (capped at 32): these d give Δd = 1, 8 and 32.
  for ((d, deltaD) <- Seq(4 -> 1, 32 -> 8, 128 -> 32)) {
    test(s"NarySearcher + PartialDistance is exact (deltaD=$deltaD)") {
      val ds = clustered(600, d, seed = 5)
      val buckets = Seq(
        NaryBucket.pack(ds.vectors.take(300), ds.ids.take(300)),
        NaryBucket.pack(ds.vectors.drop(300), ds.ids.drop(300))
      )
      val searcher = new NarySearcher(10)
      ds.queries.foreach { q =>
        val heap = searcher.search(buckets, q, Pruner.PartialDistance(d))
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
    val searcher = new NarySearcher(10)
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
    val searcher = new NarySearcher(10)
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
    val a = new NarySearcher(10).search(Seq(nb), q, Pruner.PartialDistance(d)).idsSorted
    val b = new PdxSearcher(10).search(pb, q, Pruner.PartialDistance(d)).idsSorted
    assert(a.toSet == b.toSet)
  }

  test("NarySearcher counts operations when profiled") {
    val d = 48
    val ds = clustered(800, d, seed = 15)
    val prof = new SearchProfiler
    val searcher = new NarySearcher(10, prof)
    val bucket = NaryBucket.pack(ds.vectors, ds.ids)
    searcher.search(Seq(bucket), ds.queries.head, Pruner.PartialDistance(d))
    assert(prof.dimValuesScanned > 0 && prof.dimValuesScanned <= 800L * d)
    assert(prof.distanceNanos > 0)
  }

  // --- linear scans ---

  test("all linear scans agree with double-precision brute force") {
    val d = 33
    val ds = clustered(500, d, seed = 17)
    val nary = PdxLayout.packNary(ds.vectors)
    val dsm = PdxLayout.packDsm(ds.vectors)
    val blocks = PdxLayout.pack(ds.vectors, ds.ids, 64)
    val bucket = NaryBucket(ds.ids.toArray, 500, d, nary, Array.emptyFloatArray)
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
