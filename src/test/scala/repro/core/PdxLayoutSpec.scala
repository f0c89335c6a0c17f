package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.TestUtil.forAllSampled
import repro.bench.{ExactSearchBench, PruningPower}
import repro.data.VectorData
import repro.prune.Bond

class PdxLayoutSpec extends AnyFunSuite {

  for (bs <- Seq(1, 2, 16, 64, 100); n <- Seq(1, 5, 64, 129); d <- Seq(1, 8, 33)) {
    test(s"pack/unpack roundtrip blockSize=$bs n=$n d=$d") {
      val vecs = VectorData.gaussian(n, d, seed = bs * 1000L + n * 10L + d)
      val ids = vecs.indices.map(i => i.toLong * 7)
      val blocks = PdxLayout.pack(vecs, ids, bs)
      assert(blocks.length == (n + bs - 1) / bs)
      assert(blocks.map(_.n).sum == n)
      assert(blocks.forall(_.n <= bs))
      val back = blocks.flatMap(b => (0 until b.n).map(i => (b.ids(i), b.vectorAt(i))))
      assert(back.length == n)
      back.zipWithIndex.foreach { case ((id, v), i) =>
        assert(id == ids(i))
        assert(v.toSeq == vecs(i).toSeq, s"vector $i mismatch")
      }
    }
  }

  test("pack of empty collection is empty") {
    assert(PdxLayout.pack(IndexedSeq.empty, IndexedSeq.empty).isEmpty)
  }

  test("pack rejects ragged vectors") {
    val vecs = IndexedSeq(Array(1f, 2f), Array(1f, 2f, 3f))
    val e = intercept[IllegalArgumentException] {
      PdxLayout.pack(vecs, IndexedSeq(10L, 11L), 64)
    }
    assert(e.getMessage.contains("ragged vector: vector 11 has 3 dimensions but the block has 2"), e.getMessage)
  }

  test("pack rejects a NaN or infinite value, naming the vector's id, the position and the value") {
    val vecs = VectorData.gaussian(40, 6, seed = 79).toVector
    val ids = vecs.indices.map(i => i.toLong * 7)
    for (x <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity); bs <- Seq(1, 16, 64)) {
      val bad = vecs(17).clone()
      bad(5) = x
      val e = intercept[IllegalArgumentException](PdxLayout.pack(vecs.updated(17, bad), ids, bs))
      assert(e.getMessage.contains(s"vector 119 has the non-finite value $x at position 5"), e.getMessage)
    }
  }

  test("packOne rejects an empty group: a block cannot hold 0 vectors") {
    val calls = Seq[() => Any](
      () => PdxLayout.packOne(IndexedSeq.empty, IndexedSeq.empty, 4, withSuffixNorms = false),
      () => PdxLayout.packOne(IndexedSeq.empty, IndexedSeq.empty, 4, withSuffixNorms = true),
      // Tables 2 and 6 pack their collection through packOne.
      () => PruningPower.perQuery(IndexedSeq.empty, new Bond(4), VectorData.gaussian(2, 4, seed = 7)))
    calls.foreach { call =>
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains("a PDX block cannot hold 0 vectors"), e.getMessage)
    }
  }

  test("globalMeans rejects an empty collection with a message") {
    val e = intercept[IllegalArgumentException](PdxLayout.globalMeans(IndexedSeq.empty))
    assert(e.getMessage.contains("globalMeans of an empty collection"))
  }

  test("pack rejects a non-positive blockSize") {
    for (bs <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](PdxLayout.pack(IndexedSeq(Array(1f)), IndexedSeq(0L), bs))
      assert(e.getMessage.contains(s"blockSize must be positive, got $bs"))
    }
  }

  test("pack rejects mismatched ids") {
    intercept[IllegalArgumentException] {
      PdxLayout.pack(IndexedSeq(Array(1f)), IndexedSeq(0L, 1L), 64)
    }
  }

  test("block data is dimension-major") {
    val vecs = IndexedSeq(Array(1f, 2f, 3f), Array(4f, 5f, 6f))
    val b = PdxLayout.pack(vecs, IndexedSeq(0L, 1L), 64).head
    // dim-major: [d0v0, d0v1, d1v0, d1v1, d2v0, d2v1]
    assert(b.data.toSeq == Seq(1f, 4f, 2f, 5f, 3f, 6f))
  }

  test("block means match per-dimension averages") {
    val vecs = VectorData.gaussian(40, 6, seed = 77)
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    (0 until 6).foreach { dim =>
      val expect = vecs.map(_(dim).toDouble).sum / vecs.length
      assert(math.abs(b.means(dim) - expect) < 1e-5, s"dim $dim")
    }
  }

  test("suffix squared norms are correct and descending") {
    val d = 10
    val vecs = VectorData.gaussian(7, d, seed = 78)
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64, withSuffixNorms = true).head
    (0 until b.n).foreach { i =>
      assert(b.suffix(i, d) == 0f)
      (0 until d).foreach { j =>
        val expect = (j until d).map(t => vecs(i)(t).toDouble * vecs(i)(t)).sum
        assert(math.abs(b.suffix(i, j) - expect) < 1e-4 * (1 + expect), s"i=$i j=$j")
        if (j > 0) assert(b.suffix(i, j) <= b.suffix(i, j - 1) + 1e-6)
      }
    }
  }

  test("suffix norms are absent unless requested") {
    val vecs = VectorData.gaussian(3, 4, seed = 79)
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    assert(!b.hasSuffixNorms)
    val bs = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64, withSuffixNorms = true).head
    assert(bs.hasSuffixNorms)
  }

  test("querySuffixSqNorms matches brute force") {
    val q = VectorData.gaussian(1, 9, seed = 80).head
    val s = PdxLayout.querySuffixSqNorms(q)
    assert(s.length == 10)
    (0 to 9).foreach { j =>
      val expect = (j until 9).map(t => q(t).toDouble * q(t)).sum
      assert(math.abs(s(j) - expect) < 1e-5 * (1 + expect))
    }
  }

  test("packNary layout is vector-major") {
    val vecs = IndexedSeq(Array(1f, 2f), Array(3f, 4f))
    assert(PdxLayout.packNary(vecs).toSeq == Seq(1f, 2f, 3f, 4f))
  }

  test("packDsm columns hold one dimension each") {
    val vecs = IndexedSeq(Array(1f, 2f), Array(3f, 4f), Array(5f, 6f))
    val cols = ExactSearchBench.packDsm(vecs)
    assert(cols.length == 2)
    assert(cols(0).toSeq == Seq(1f, 3f, 5f))
    assert(cols(1).toSeq == Seq(2f, 4f, 6f))
  }

  test("globalMeans matches block means for a single block") {
    val vecs = VectorData.gaussian(30, 5, seed = 81)
    val g = PdxLayout.globalMeans(vecs)
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    (0 until 5).foreach(dim => assert(math.abs(g(dim) - b.means(dim)) < 1e-6))
  }

  test("vectorAt reconstructs the original vector") {
    val vecs = VectorData.gaussian(10, 12, seed = 82)
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    (0 until 10).foreach(i => assert(b.vectorAt(i).toSeq == vecs(i).toSeq))
  }

  test("property: pack preserves every value at arbitrary shapes") {
    val gen = for {
      n <- Gen.choose(1, 60)
      d <- Gen.choose(1, 20)
      bs <- Gen.choose(1, 70)
    } yield (n, d, bs)
    forAllSampled(gen, samples = 30) { case (n, d, bs) =>
      val vecs = VectorData.gaussian(n, d, seed = n * 100L + d * 10L + bs)
      val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), bs)
      val back = blocks.flatMap(b => (0 until b.n).map(b.vectorAt))
      assert(back.map(_.toSeq) == vecs.map(_.toSeq))
    }
  }

  test("PdxBlock validates shapes") {
    // Each message names both lengths; NaryBucket takes these fields from
    // the block, so these are its checks too.
    val cases = Seq(
      "ids 1 != n 2" -> (() => PdxBlock(Array(1L), 2, 3, new Array[Float](6), new Array[Float](3),
                                        Array.emptyFloatArray)),
      "data 5 != n*d 6" -> (() => PdxBlock(Array(1L, 2L), 2, 3, new Array[Float](5), new Array[Float](3),
                                           Array.emptyFloatArray)),
      "means 2 != d 3" -> (() => PdxBlock(Array(1L, 2L), 2, 3, new Array[Float](6), new Array[Float](2),
                                          Array.emptyFloatArray)),
      "suffix 7 != n*(d+1) 8" -> (() => PdxBlock(Array(1L, 2L), 2, 3, new Array[Float](6),
                                                 new Array[Float](3), new Array[Float](7))))
    for ((message, build) <- cases) {
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains(message), e.getMessage)
    }
  }
}
