package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.TestUtil
import repro.TestUtil.forAllSampled
import repro.bench.{ExactSearchBench, KernelBench}
import repro.data.VectorData

class KernelsSpec extends AnyFunSuite {

  private def relTol(ref: Double, d: Int): Double = 1e-4 * (1.0 + math.abs(ref)) * math.max(1, d / 64)

  private val dims = Seq(1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 33, 64, 100, 128, 257)

  /** Full `l2Pdx` distances of `q` to block `b`'s vectors, visiting `order`. */
  private def pdxL2(b: PdxBlock, q: Array[Float], order: Array[Int]): Array[Float] = {
    val scratch = new PdxScratch
    scratch.ensureCapacity(b.n)
    Kernels.l2Pdx(b.data, b.n, q, order, 0, b.d, scratch)
    scratch.acc.take(b.n)
  }

  // --- horizontal kernels vs double reference, every metric and D ---
  for (metric <- KernelBench.metrics; d <- dims) {
    test(s"${metric.name} unrolled horizontal kernel matches reference at d=$d") {
      val vecs = VectorData.gaussian(5, d, seed = d * 17L)
      val q = VectorData.gaussian(1, d, seed = d * 19L).head
      val nary = PdxLayout.packNary(vecs)
      vecs.indices.foreach { i =>
        val got = KernelBench.nary(metric)(nary, i * d, q, d)
        val ref = TestKernels.ref(metric)(vecs(i), q)
        assert(math.abs(got - ref) <= relTol(ref, d), s"i=$i got=$got ref=$ref")
      }
    }

    test(s"${metric.name} scalar horizontal kernel matches reference at d=$d") {
      val vecs = VectorData.gaussian(5, d, seed = d * 23L)
      val q = VectorData.gaussian(1, d, seed = d * 29L).head
      val nary = PdxLayout.packNary(vecs)
      vecs.indices.foreach { i =>
        val got = KernelBench.naryScalar(metric)(nary, i * d, q, d)
        val ref = TestKernels.ref(metric)(vecs(i), q)
        assert(math.abs(got - ref) <= relTol(ref, d), s"i=$i got=$got ref=$ref")
      }
    }
  }

  // --- PDX kernels vs horizontal, across block sizes ---
  for (metric <- KernelBench.metrics; bs <- Seq(1, 3, 16, 64, 256); d <- Seq(4, 33, 128)) {
    test(s"${metric.name} PDX kernel == reference at blockSize=$bs d=$d") {
      val n = 100
      val vecs = VectorData.gaussian(n, d, seed = bs * 100L + d)
      val q = VectorData.gaussian(1, d, seed = bs * 101L + d).head
      val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), bs)
      var idx = 0
      val scratch = new PdxScratch
      blocks.foreach { b =>
        scratch.ensureCapacity(b.n)
        val acc = scratch.acc
        java.util.Arrays.fill(acc, 0, b.n, 0f)
        KernelBench.pdx(metric)(b.data, b.n, q, 0, b.d, scratch)
        (0 until b.n).foreach { i =>
          val ref = TestKernels.ref(metric)(vecs(idx), q)
          assert(math.abs(acc(i) - ref) <= relTol(ref, d), s"vec $idx got=${acc(i)} ref=$ref")
          idx += 1
        }
      }
      assert(idx == n)
    }
  }

  test("PDX range kernel accumulates across split calls (within float regrouping)") {
    // Split points misaligned with the 4-dim blocking: results may differ by
    // float regrouping only. The second input visits a random permutation
    // at a dimensionality that is not a multiple of 4.
    val inputs = Seq[(Int, Array[Int], Seq[Int])](
      (60, null, Seq(0, 7, 31, 60)),
      (13, new scala.util.Random(12).shuffle((0 until 13).toVector).toArray, Seq(0, 3, 9, 13))
    )
    for ((d, order, cuts) <- inputs) {
      val vecs = VectorData.gaussian(64, d, seed = 5)
      val q = VectorData.gaussian(1, d, seed = 6).head
      val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
      val whole = pdxL2(b, q, order)
      val split = new PdxScratch
      split.ensureCapacity(b.n)
      cuts.sliding(2).foreach { case Seq(j0, j1) => Kernels.l2Pdx(b.data, b.n, q, order, j0, j1, split) }
      (0 until b.n).foreach(i => assert(math.abs(whole(i) - split.acc(i)) <= relTol(whole(i), d), s"d=$d i=$i"))
    }
  }

  test("l2Pdx with a full permutation order equals sequential full scan") {
    val d = 40
    val vecs = VectorData.gaussian(30, d, seed = 7)
    val q = VectorData.gaussian(1, d, seed = 8).head
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    val seqAcc = pdxL2(b, q, null)
    val order = new scala.util.Random(9).shuffle((0 until d).toVector).toArray
    val ordAcc = pdxL2(b, q, order)
    (0 until b.n).foreach { i =>
      assert(math.abs(seqAcc(i) - ordAcc(i)) <= relTol(seqAcc(i), d))
    }
  }

  // --- the staged l2Pdx keeps the unstaged kernel's bits ---
  for (n <- Seq(1, 2, 15, 16, 17, 63, 64, 65, 173)) {
    test(s"l2Pdx is bit-identical to the unstaged 4-dim fold (n=$n)") {
      val d = 19
      val vecs = VectorData.gaussian(n, d, seed = n * 43L)
      val q = VectorData.gaussian(1, d, seed = n * 47L).head
      val b = PdxLayout.packOne(vecs, vecs.indices.map(_.toLong), d, withSuffixNorms = false)
      val start = VectorData.gaussian(1, n, seed = n * 53L).head.map(math.abs)
      val shuffled = new scala.util.Random(n).shuffle((0 until d).toVector).toArray
      // One scratch for every range, sized past n, so stale columns and a
      // longer acc are in play; ranges of 1–7 dims cover each tail length
      // with and without a full group, and [0, d) the whole vector.
      val scratch = new PdxScratch
      scratch.ensureCapacity(n + 5)
      for (order <- Seq(null, shuffled); len <- (1 to 7) :+ d; j0 <- Seq(0, 3, d - len).distinct
           if j0 + len <= d) {
        val expected = start.clone()
        TestKernels.l2PdxUnstaged(b.data, n, q, order, j0, j0 + len, expected)
        System.arraycopy(start, 0, scratch.acc, 0, n)
        Kernels.l2Pdx(b.data, n, q, order, j0, j0 + len, scratch)
        (0 until n).foreach { i =>
          assert(java.lang.Float.floatToRawIntBits(scratch.acc(i)) ==
                   java.lang.Float.floatToRawIntBits(expected(i)),
                 s"ordered=${order != null} [$j0, ${j0 + len}) i=$i: ${scratch.acc(i)} vs ${expected(i)}")
        }
      }
    }
  }

  // --- l2PdxLane returns one lane of the block scan, bit for bit ---
  for (d <- (1 to 9) ++ Seq(13, 128, 768)) {
    test(s"l2PdxLane equals scoreBlock's acc bit for bit at d=$d, on random and tied data") {
      val n = 37
      val random = VectorData.gaussian(n, d, seed = d * 59L)
      // Small integers: duplicate vectors and many equal distances.
      val rnd = new java.util.Random(d * 61L)
      val tied = IndexedSeq.fill(n)(Array.fill(d)((rnd.nextInt(3) - 1).toFloat))
      val scratch = new PdxScratch
      for ((kind, vecs) <- Seq("random" -> random, "tied" -> tied); q <- vecs.take(4) :+ random.last) {
        val b = PdxLayout.packOne(vecs, vecs.indices.map(_.toLong), d, withSuffixNorms = false)
        LinearScan.scoreBlock(b, q, scratch)
        (0 until n).foreach { i =>
          val lane = Kernels.l2PdxLane(vecs(i), q)
          assert(java.lang.Float.floatToRawIntBits(lane) == java.lang.Float.floatToRawIntBits(scratch.acc(i)),
                 s"$kind i=$i: $lane vs ${scratch.acc(i)}")
        }
      }
    }
  }

  test("one PdxSearcher over blocks of 173, 5 and 300 vectors equals brute force") {
    // The searcher's scratch is sized by the first block, reused for the
    // smaller one and grown for the last; every query reuses it again.
    val d = 24
    val ds = TestUtil.clustered(478, d, queries = 8, seed = 61)
    val cuts = Seq(0, 173, 178, 478)
    val blocks = cuts.sliding(2).map { case Seq(a, b) =>
      PdxLayout.packOne(ds.vectors.slice(a, b), ds.ids.slice(a, b), d, withSuffixNorms = false)
    }.toVector
    assert(blocks.map(_.n) == Seq(173, 5, 300))
    for (k <- Seq(1, 10)) {
      val searcher = new PdxSearcher(k)
      ds.queries.foreach { q =>
        TestUtil.assertExactKnn(searcher.search(blocks, q, TestPruners.PartialDistance(d)).sorted,
                                ds.vectors, q, k)
        TestUtil.assertExactKnn(searcher.search(blocks, q, TestPruners.NeverPrune(d)).sorted,
                                ds.vectors, q, k)
      }
    }
  }

  test("l2PdxPositions only touches listed positions") {
    val d = 24
    val vecs = VectorData.gaussian(50, d, seed = 10)
    val q = VectorData.gaussian(1, d, seed = 11).head
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    val acc = Array.fill(b.n)(1.5f)
    val positions = Array(3, 7, 19)
    Kernels.l2PdxPositions(b.data, b.n, q, null, 0, d, positions, positions.length, acc)
    (0 until b.n).foreach { i =>
      if (positions.contains(i)) {
        val ref = Kernels.l2Ref(vecs(i), q)
        assert(math.abs(acc(i) - 1.5f - ref) <= relTol(ref, d))
      } else assert(acc(i) == 1.5f, s"untouched position $i was modified")
    }
  }

  test("l2PdxPositions honors a dimension order") {
    val d = 16
    val vecs = VectorData.gaussian(20, d, seed = 12)
    val q = VectorData.gaussian(1, d, seed = 13).head
    val b = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64).head
    val order = (0 until d).reverse.toArray
    val acc = new Array[Float](b.n)
    val pos = Array.tabulate(b.n)(identity)
    Kernels.l2PdxPositions(b.data, b.n, q, order, 0, d, pos, b.n, acc)
    (0 until b.n).foreach { i =>
      val ref = Kernels.l2Ref(vecs(i), q)
      assert(math.abs(acc(i) - ref) <= relTol(ref, d))
    }
  }

  test("l2PartialNary splits match full scalar kernel") {
    val d = 50
    val vecs = VectorData.gaussian(10, d, seed = 14)
    val q = VectorData.gaussian(1, d, seed = 15).head
    val nary = PdxLayout.packNary(vecs)
    vecs.indices.foreach { i =>
      val full = KernelBench.l2Scalar(nary, i * d, q, d)
      val parts = Kernels.l2Unrolled(nary, i * d, q, 0, 13) +
        Kernels.l2Unrolled(nary, i * d, q, 13, 37) +
        Kernels.l2Unrolled(nary, i * d, q, 37, d)
      assert(math.abs(full - parts) <= relTol(full, d))
    }
  }

  for (d <- Seq(8, 33, 100); n <- Seq(10, 64, 130)) {
    test(s"l2NaryGather matches reference (n=$n, d=$d)") {
      val vecs = VectorData.gaussian(n, d, seed = n * 31L + d)
      val q = VectorData.gaussian(1, d, seed = n * 37L + d).head
      val nary = PdxLayout.packNary(vecs)
      val out = new Array[Float](64)
      var v0 = 0
      while (v0 < n) {
        val count = math.min(64, n - v0)
        KernelBench.l2NaryGather(nary, v0, count, d, q, out)
        (0 until count).foreach { i =>
          val ref = Kernels.l2Ref(vecs(v0 + i), q)
          assert(math.abs(out(i) - ref) <= relTol(ref, d))
        }
        v0 += count
      }
    }
  }

  test("l2Dsm matches reference") {
    val d = 37
    val n = 200
    val vecs = VectorData.gaussian(n, d, seed = 40)
    val q = VectorData.gaussian(1, d, seed = 41).head
    val cols = ExactSearchBench.packDsm(vecs)
    val acc = new Array[Float](n)
    ExactSearchBench.l2Dsm(cols, n, q, acc)
    (0 until n).foreach { i =>
      val ref = Kernels.l2Ref(vecs(i), q)
      assert(math.abs(acc(i) - ref) <= relTol(ref, d))
    }
  }

  // --- property tests: layouts agree on arbitrary inputs ---
  private val vecGen = for {
    d <- Gen.choose(1, 48)
    n <- Gen.choose(1, 40)
    values <- Gen.listOfN(n * d + d, Gen.choose(-100f, 100f))
  } yield (n, d, values.toArray)

  test("property: PDX L2 == horizontal L2 on arbitrary float data") {
    forAllSampled(vecGen) { case (n, d, values) =>
      val vecs = IndexedSeq.tabulate(n)(i => values.slice(i * d, (i + 1) * d))
      val q = values.slice(n * d, n * d + d)
      val nary = PdxLayout.packNary(vecs)
      val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 16)
      var idx = 0
      blocks.foreach { b =>
        val acc = pdxL2(b, q, null)
        (0 until b.n).foreach { i =>
          val h = Kernels.l2Unrolled(nary, idx * d, q, 0, d)
          assert(math.abs(acc(i) - h) <= 1e-2 * (1 + math.abs(h)))
          idx += 1
        }
      }
    }
  }

  test("property: IP is symmetric on arbitrary dimensionalities") {
    forAllSampled(Gen.choose(1, 64)) { d =>
      val a = VectorData.gaussian(1, d, seed = d * 3L).head
      val b = VectorData.gaussian(1, d, seed = d * 5L).head
      val ab = Kernels.ipUnrolled(PdxLayout.packNary(IndexedSeq(a)), 0, b, d)
      val ba = Kernels.ipUnrolled(PdxLayout.packNary(IndexedSeq(b)), 0, a, d)
      assert(math.abs(ab - ba) <= 1e-3 * (1 + math.abs(ab)))
    }
  }

  test("matVec rejects a matrix that is not whole rows of the vector's length") {
    val e = intercept[IllegalArgumentException](Kernels.matVec(new Array[Float](10), new Array[Float](3)))
    assert(e.getMessage.contains("matrix of 10 values has no whole rows of 3 columns"))
  }

  test("L2 of identical vectors is zero, L1 of identical vectors is zero") {
    val v = VectorData.gaussian(1, 77, seed = 50).head
    assert(Kernels.l2Unrolled(v, 0, v, 0, 77) == 0f)
    assert(KernelBench.l1Unrolled(v, 0, v, 77) == 0f)
  }
}
