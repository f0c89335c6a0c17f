package repro.prune

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Kernels, PdxLayout, Pruner, TestPruners}
import repro.data.VectorData

class PrunerSpec extends AnyFunSuite {

  // ---------------- ADSampling ----------------

  test("ADSampling transform preserves L2 distances") {
    val d = 48
    val ads = new AdSampling(d, seed = 3)
    val vecs = VectorData.gaussian(20, d, seed = 1)
    val q = VectorData.gaussian(1, d, seed = 2).head
    val tv = ads.transformData(vecs)
    val tq = ads.prepareQuery(q).query
    vecs.indices.foreach { i =>
      val before = Kernels.l2Ref(vecs(i), q)
      val after = Kernels.l2Ref(tv(i), tq)
      assert(math.abs(before - after) < 1e-3 * (1 + before))
    }
  }

  test("ADSampling transformVector matches transformData") {
    val ads = new AdSampling(16, seed = 4)
    val vecs = VectorData.gaussian(3, 16, seed = 5)
    val a = ads.transformData(vecs)
    val b = vecs.map(ads.transformVector)
    vecs.indices.foreach(i => assert(a(i).toSeq == b(i).toSeq))
  }

  test("ADSampling bound at full dimensionality equals the partial distance") {
    val ads = new AdSampling(32)
    val pq = ads.prepareQuery(VectorData.gaussian(1, 32, seed = 6).head)
    assert(pq.bound(7.5f, 32, 0f) == 7.5f)
  }

  test("ADSampling bound scales partial by D/(dv*(1+eps/sqrt(dv))^2)") {
    val d = 64
    val eps = 2.1
    val ads = new AdSampling(d, eps)
    val pq = ads.prepareQuery(VectorData.gaussian(1, d, seed = 7).head)
    for (dv <- Seq(1, 2, 8, 32, 63)) {
      val ratio = 1.0 + eps / math.sqrt(dv.toDouble)
      val expect = 2.0f * (d / (dv * ratio * ratio))
      assert(math.abs(pq.bound(2.0f, dv, 0f) - expect) < 1e-3 * (1 + expect), s"dv=$dv")
    }
  }

  test("ADSampling bound is below the exact distance in expectation (rarely overshoots)") {
    // For random vectors, the inflated confidence interval should make the
    // bound exceed the true distance only rarely — that is its whole point.
    val d = 128
    val ads = new AdSampling(d, seed = 8)
    val vecs = VectorData.gaussian(200, d, seed = 9)
    val q = VectorData.gaussian(1, d, seed = 10).head
    val tv = ads.transformData(vecs)
    val pq = ads.prepareQuery(q)
    var overshoots = 0
    var total = 0
    tv.foreach { v =>
      val full = Kernels.l2Ref(v, pq.query).toFloat
      var partial = 0f
      for (dv <- 1 to d) {
        val t = pq.query(dv - 1) - v(dv - 1)
        partial += t * t
        if (dv % 16 == 0 && dv < d) {
          total += 1
          if (pq.bound(partial, dv, 0f) > full) overshoots += 1
        }
      }
    }
    assert(overshoots.toDouble / total < 0.05, s"$overshoots/$total overshoots")
  }

  test("ADSampling uses sequential dimension order") {
    val ads = new AdSampling(8)
    assert(ads.prepareQuery(new Array[Float](8)).order(new Array[Float](8)) == null)
  }

  test("ADSampling is not exact; needs no suffix norms") {
    val ads = new AdSampling(8)
    assert(!ads.needsSuffixNorms)
    // At D = 128 the estimate after one dimension is 128 / 3.1² ≈ 13 times
    // the partial distance: for a vector whose whole distance lies in that
    // dimension, the bound exceeds the full distance.
    assert(new AdSampling(128).prepareQuery(new Array[Float](128)).bound(1f, 1, 0f) > 1f)
  }

  // ---------------- BSA ----------------

  private def bsaFixture(d: Int = 32, exact: Boolean = true) = {
    val vecs = VectorData.generate(
      VectorData.DatasetSpec("t", d, 400, 10, skewed = true, clusters = 8, seed = 55))
    val bsa = if (exact) Bsa.fitExact(vecs.vectors) else Bsa.fit(vecs.vectors)
    (bsa, vecs)
  }

  test("BSA transform preserves L2 distances") {
    val (bsa, ds) = bsaFixture()
    val tv = bsa.transformData(ds.vectors.take(10))
    val tq = bsa.prepareQuery(ds.queries.head).query
    (0 until 10).foreach { i =>
      val before = Kernels.l2Ref(ds.vectors(i), ds.queries.head)
      val after = Kernels.l2Ref(tv(i), tq)
      assert(math.abs(before - after) < 1e-2 * (1 + before))
    }
  }

  test("BSA bound with m=1 is a true lower bound of the full distance") {
    val (bsa, ds) = bsaFixture()
    val tv = bsa.transformData(ds.vectors.take(50))
    val pq = bsa.prepareQuery(ds.queries.head)
    tv.foreach { v =>
      val full = Kernels.l2Ref(v, pq.query)
      val suffix = PdxLayout.querySuffixSqNorms(v) // per-vector suffix norms
      var partial = 0f
      for (dv <- 1 until v.length) {
        val t = pq.query(dv - 1) - v(dv - 1)
        partial += t * t
        val b = pq.bound(partial, dv, suffix(dv))
        assert(b <= full * (1 + 1e-3) + 1e-3, s"dv=$dv bound=$b full=$full")
      }
    }
  }

  test("BSA bound is monotone in the multiplier (m<1 prunes earlier)") {
    val (bsa1, ds) = bsaFixture()
    val tv = bsa1.transformData(ds.vectors.take(5))
    val pqExact = bsa1.prepareQuery(ds.queries.head)
    val agg = Bsa.fit(ds.vectors, 0.5, seed = 7)
    val pqAgg = agg.prepareQuery(ds.queries.head)
    tv.foreach { v =>
      val suffix = PdxLayout.querySuffixSqNorms(v)
      var partial = 0f
      for (dv <- 1 until v.length) {
        val t = pqExact.query(dv - 1) - v(dv - 1)
        partial += t * t
        if (dv >= agg.minDims) // below minDims the approximate bound opts out (-inf)
          assert(pqAgg.bound(partial, dv, suffix(dv)) >= pqExact.bound(partial, dv, suffix(dv)) - 1e-4)
        else
          assert(pqAgg.bound(partial, dv, suffix(dv)) == Float.NegativeInfinity)
      }
    }
  }

  test("BSA transform centers the data (transformed collection has ~zero mean)") {
    val (bsa, ds) = bsaFixture()
    val tv = bsa.transformData(ds.vectors)
    (0 until 32).foreach { j =>
      val m = tv.map(_(j).toDouble).sum / tv.length
      assert(math.abs(m) < 0.15, s"dim $j mean $m")
    }
  }

  test("BSA requires suffix norms; m=1 is exact, m<1 is not") {
    val (bsa, ds) = bsaFixture()
    assert(bsa.needsSuffixNorms)
    // A vector queried with itself is at distance 0. Halfway through, the
    // exact bound stays at 0 (c = 1); the m < 1 bound, c < 1, exceeds it.
    val v = ds.vectors.head
    val dv = bsa.d / 2
    for ((pruner, exact) <- Seq(bsa -> true, Bsa.fit(ds.vectors, 0.9) -> false)) {
      val suffix = PdxLayout.querySuffixSqNorms(pruner.transformVector(v))(dv)
      val b = pruner.prepareQuery(v).bound(0f, dv, suffix)
      assert(suffix > 0f)
      if (exact) assert(b <= 1e-4f * suffix, s"exact bound $b") else assert(b > 1e-4f * suffix, s"m<1 bound $b")
    }
  }

  test("BSA PCA concentrates partial distance early vs raw order") {
    val (bsa, ds) = bsaFixture()
    val raw = ds.vectors.take(100)
    val tv = bsa.transformData(raw)
    val q = ds.queries.head
    val tq = bsa.prepareQuery(q).query
    val dEighth = 32 / 8
    def fracEarly(vs: IndexedSeq[Array[Float]], query: Array[Float]): Double = {
      val fracs = vs.map { v =>
        var early = 0.0; var full = 0.0
        for (j <- v.indices) {
          val t = query(j).toDouble - v(j)
          val c = t * t
          if (j < dEighth) early += c
          full += c
        }
        if (full == 0) 0.0 else early / full
      }
      fracs.sum / fracs.length
    }
    val pcaFrac = fracEarly(tv, tq)
    val rawFrac = fracEarly(raw, q)
    assert(pcaFrac > rawFrac, s"pca=$pcaFrac raw=$rawFrac")
  }

  test("ADSampling and BSA reject a vector of the wrong dimensionality") {
    val d = 16
    val ads = new AdSampling(d, seed = 37)
    val bsa = Bsa.fitExact(VectorData.gaussian(200, d, seed = 38))
    for (pruner <- Seq[Pruner](ads, bsa); len <- Seq(d - 1, d + 1)) {
      val v = VectorData.gaussian(1, len, seed = len.toLong).head
      val e1 = intercept[IllegalArgumentException](pruner.prepareQuery(v))
      assert(e1.getMessage.contains(s"query has $len dimensions but the block has $d"), pruner.name)
      val e2 = intercept[IllegalArgumentException](pruner.transformData(IndexedSeq(v)))
      assert(e2.getMessage.contains(s"data vector 0 has $len dimensions but the pruner has $d"), pruner.name)
    }
  }

  private def rejectsWrongLengthDataVector(pruner: Pruner): Unit = {
    val d = pruner.d
    val vecs = VectorData.gaussian(6, d, seed = 41).toVector
    for (len <- Seq(d - 1, d + 1)) {
      val bad = vecs.updated(4, VectorData.gaussian(1, len, seed = 42).head)
      val e = intercept[IllegalArgumentException](pruner.transformData(bad))
      assert(e.getMessage.contains(s"data vector 4 has $len dimensions but the pruner has $d"),
             s"${pruner.name}: ${e.getMessage}")
    }
  }

  test("ADSampling.transformData names the data vector of the wrong length") {
    rejectsWrongLengthDataVector(new AdSampling(16, seed = 43))
  }

  test("BSA.transformData names the data vector of the wrong length") {
    rejectsWrongLengthDataVector(Bsa.fit(VectorData.gaussian(200, 16, seed = 44)))
  }

  test("transformData gives the same bits in pools of 1 and 3 threads and the common pool") {
    val d = 32
    val vecs = VectorData.gaussian(2000, d, seed = 45)
    val bsa = Bsa.fit(VectorData.gaussian(300, d, seed = 46))
    for (pruner <- Seq[Pruner](new AdSampling(d, seed = 47), bsa)) {
      val runs = TestUtil.inPools(pruner.transformData(vecs))
      vecs.indices.foreach { i =>
        val one = pruner.transformVector(vecs(i))
        runs.foreach(r => assert(java.util.Arrays.equals(r(i), one), s"${pruner.name} vector $i"))
      }
    }
    val bond = new Bond(d)
    assert(TestUtil.inPools(bond.transformData(vecs)).forall(_ eq vecs))
  }

  // ---------------- PDX-BOND ----------------

  test("Bond orders are permutations of dimensions") {
    val d = 24
    val q = VectorData.gaussian(1, d, seed = 31).head
    val means = VectorData.gaussian(1, d, seed = 32).head
    for (crit <- Seq(Bond.Decreasing, Bond.DistanceToMeans, Bond.DimensionZones)) {
      val order = new Bond(d, crit).prepareQuery(q).order(means)
      assert(order != null, crit.label)
      assert(order.sorted.toSeq == (0 until d), s"${crit.label} is not a permutation")
    }
    assert(new Bond(d, Bond.Sequential).prepareQuery(q).order(means) == null)
  }

  test("Decreasing order visits highest |query| dims first") {
    val q = Array(0.1f, -5f, 2f, 0f)
    val order = new Bond(4, Bond.Decreasing).prepareQuery(q).order(new Array[Float](4))
    assert(order.toSeq == Seq(1, 2, 0, 3))
  }

  test("DistanceToMeans order visits largest |q - mean| first") {
    val q = Array(1f, 1f, 1f)
    val means = Array(1f, 5f, 2f)
    val order = new Bond(3, Bond.DistanceToMeans).prepareQuery(q).order(means)
    assert(order.toSeq == Seq(1, 2, 0))
  }

  test("DimensionZones keeps zones contiguous and ranks them by score") {
    val d = 32
    val q = new Array[Float](d)
    // 16 zones of 2 dims; zone z's means are z away from q, so zones are
    // visited last-first, each as one contiguous pair.
    val means = Array.tabulate(d)(dim => (dim / 2).toFloat)
    val order = new Bond(d, Bond.DimensionZones).prepareQuery(q).order(means)
    assert(order.toSeq == (15 to 0 by -1).flatMap(z => Seq(2 * z, 2 * z + 1)))
  }

  test("Bond order is a pure function of the means it is given") {
    // The same prepared query asked twice answers each call from its own
    // means; ranking once per search is the searcher's job.
    val pq = new Bond(4, Bond.DistanceToMeans).prepareQuery(Array(0f, 1f, 2f, 3f))
    assert(pq.order(new Array[Float](4)).toSeq == Seq(3, 2, 1, 0))
    assert(pq.order(Array.fill(4)(3f)).toSeq == Seq(0, 1, 2, 3))
    assert(pq.order(new Array[Float](4)).toSeq == Seq(3, 2, 1, 0))
  }

  test("Bond bound is the partial distance itself") {
    val pq = new Bond(4).prepareQuery(Array(1f, 2f, 3f, 4f))
    assert(pq.bound(3.25f, 2, 0f) == 3.25f)
  }

  test("Bond is exact, needs no transform or suffix norms") {
    val b = new Bond(4)
    assert(b.prepareQuery(new Array[Float](4)).isPartialBound && !b.needsSuffixNorms)
    val vecs = VectorData.gaussian(2, 4, seed = 33)
    assert(b.transformData(vecs) eq vecs)
  }

  // ---------------- test pruners ----------------

  test("NeverPrune bound never exceeds any threshold") {
    val pq = TestPruners.NeverPrune(5).prepareQuery(new Array[Float](5))
    assert(pq.bound(1e30f, 3, 0f) == Float.NegativeInfinity)
  }

  test("PartialDistance bound is exact and sequential") {
    val p = TestPruners.PartialDistance(5)
    val pq = p.prepareQuery(new Array[Float](5))
    assert(pq.order(new Array[Float](5)) == null)
    assert(pq.bound(2f, 1, 0f) == 2f)
  }
}
