package repro.prune

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Kernels, NaryBucket, NarySearcher, PdxLayout, PdxSearcher, Pruner, TestPruners}
import repro.data.VectorData
import repro.linalg.TestMats

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
    for ((d, n) <- Seq(16 -> 3, 768 -> 300)) {
      val ads = new AdSampling(d, seed = 4)
      val vecs = VectorData.gaussian(n, d, seed = 5)
      val a = ads.transformData(vecs)
      vecs.indices.foreach(i => assert(java.util.Arrays.equals(a(i), ads.transformVector(vecs(i))), s"d=$d vector $i"))
    }
  }

  private def dot(x: Array[Float], y: Array[Float]): Double = x.indices.map(i => x(i).toDouble * y(i)).sum

  for (d <- Seq(1, 2, 3, 5, 13, 48, 100, 128, 420, 768, 1536)) {
    test(s"ADSampling rotation preserves norms and inner products (d=$d)") {
      val ads = new AdSampling(d, seed = d * 11L)
      // Random vectors, and the first and last unit vectors (the edges of
      // the two Hadamard windows).
      val unit = Seq(0, d - 1).map(j => Array.tabulate(d)(i => if (i == j) 1f else 0f))
      val vecs = VectorData.gaussian(10, d, seed = d.toLong) ++ unit
      val rot = vecs.map(ads.transformVector)
      for (i <- vecs.indices; j <- i until vecs.length) {
        val before = dot(vecs(i), vecs(j))
        val after = dot(rot(i), rot(j))
        val scale = math.sqrt(dot(vecs(i), vecs(i)) * dot(vecs(j), vecs(j)))
        assert(math.abs(before - after) <= 1e-5 * scale, s"<$i,$j>: $before vs $after")
      }
    }
  }

  test("ADSampling rotation is deterministic in the seed, and seeds differ") {
    for (d <- Seq(13, 768)) {
      val v = VectorData.gaussian(1, d, seed = 3).head
      val a = new AdSampling(d, seed = 5).transformVector(v)
      assert(java.util.Arrays.equals(a, new AdSampling(d, seed = 5).transformVector(v)), s"d=$d")
      val b = new AdSampling(d, seed = 6).transformVector(v)
      assert(a.indices.map(i => math.abs(a(i) - b(i))).max > 1e-3, s"d=$d: seeds 5 and 6 agree")
    }
  }

  test("ADSampling rotation leaves its input unchanged") {
    val v = VectorData.gaussian(1, 100, seed = 4).head
    val copy = v.clone()
    new AdSampling(100, seed = 7).transformVector(v)
    assert(java.util.Arrays.equals(v, copy))
  }

  test("ADSampling rotation brings every raw dimension into the prefix about as evenly as a dense one") {
    // The prefix estimate p·D/dv is unbiased when each raw dimension puts
    // its dv/D share of energy into the first dv rotated dimensions. One
    // round of the structured rotation leaves the raw dimensions that land
    // in [P, D) out of the prefix (share 0), and signs and permutations
    // without the Hadamard mixing give shares of 0 or D/dv; the dense
    // Gram–Schmidt rotation gives the spread a random rotation has.
    for (d <- Seq(100, 420, 768)) {
      val ads = new AdSampling(d, seed = 5)
      val dense = TestMats.randomOrthogonal(d, seed = 5).toFloats
      def shares(rotate: Array[Float] => Array[Float], dv: Int): IndexedSeq[Double] =
        (0 until d).map { j =>
          val e = new Array[Float](d)
          e(j) = 1f
          val y = rotate(e)
          (0 until dv).map(i => y(i).toDouble * y(i)).sum * d / dv
        }
      for (dv <- Seq(32, 128) if dv < d) {
        val s = shares(ads.transformVector, dv)
        val r = shares(Kernels.matVec(dense, _), dv)
        assert(s.min >= r.min / 2 && s.max <= r.max * 2,
               f"d=$d dv=$dv: structured ${s.min}%.3f..${s.max}%.3f, dense ${r.min}%.3f..${r.max}%.3f")
      }
    }
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

  /** (overshoots, checks): of the (vector, dv) checks, dv a multiple of 16
    * below d, those at which the ADSampling bound exceeds the vector's full
    * distance to `q`.
    */
  private def overshootRate(ads: AdSampling, vecs: IndexedSeq[Array[Float]], q: Array[Float]): (Int, Int) = {
    val d = ads.d
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
    (overshoots, total)
  }

  test("ADSampling bound is below the exact distance in expectation (rarely overshoots)") {
    // For random vectors, the inflated confidence interval should make the
    // bound exceed the true distance only rarely — that is its whole point.
    val d = 128
    val (overshoots, total) = overshootRate(new AdSampling(d, seed = 8), VectorData.gaussian(200, d, seed = 9),
                                            VectorData.gaussian(1, d, seed = 10).head)
    assert(overshoots.toDouble / total < 0.05, s"$overshoots/$total overshoots")
  }

  test("ADSampling bound rarely overshoots at d = 768 on skewed data") {
    // Power-law dimension scales put most of the energy in a few raw
    // dimensions; the rotation must still spread it evenly over the prefix.
    val ds = VectorData.generate(VectorData.DatasetSpec("t", 768, 200, 1, skewed = true, clusters = 8, seed = 11))
    val (overshoots, total) = overshootRate(new AdSampling(768, seed = 12), ds.vectors, ds.queries.head)
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
        assert(pqAgg.bound(partial, dv, suffix(dv)) >= pqExact.bound(partial, dv, suffix(dv)) - 1e-4)
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

  test("BSA fit rejects an empty collection with a message") {
    for (fit <- Seq[() => Bsa](() => Bsa.fitExact(IndexedSeq.empty), () => Bsa.fit(IndexedSeq.empty))) {
      val e = intercept[IllegalArgumentException](fit())
      assert(e.getMessage.contains("cannot fit BSA on 0 vectors"))
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

  test("Bond of another d than the data rejects the query through both searchers, naming both lengths") {
    val vecs = VectorData.gaussian(100, 32, seed = 34)
    val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), 64)
    val buckets = blocks.map(NaryBucket(_))
    val q = VectorData.gaussian(1, 32, seed = 35).head
    for (d <- Seq(16, 64)) {
      val calls = Seq[() => Any](
        () => new PdxSearcher(10).search(blocks, q, new Bond(d)),
        () => new NarySearcher(10, deltaD = 8).search(buckets, q, new Bond(d)))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"query has 32 dimensions but the block has $d"), e.getMessage)
      }
    }
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
