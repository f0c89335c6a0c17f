package repro.ivf

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.TestUtil.clustered
import repro.core._
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

class IvfSpec extends AnyFunSuite {

  // ---------------- k-means ----------------

  test("KMeans is deterministic in (data, k, seed)") {
    val vecs = clustered(300, 8, queries = 6, seed = 1).vectors
    val a = KMeans.fit(vecs, 5, seed = 9).model
    val b = KMeans.fit(vecs, 5, seed = 9).model
    a.centroids.zip(b.centroids).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("KMeans.assign returns the nearest centroid") {
    val vecs = clustered(200, 6, queries = 6, seed = 2).vectors
    val model = KMeans.fit(vecs, 4, seed = 3).model
    vecs.take(50).foreach { v =>
      val got = model.assign(v)
      val dists = model.centroids.map(c => Kernels.l2Ref(c, v))
      assert(dists(got) == dists.min)
    }
  }

  test("KMeans recovers well-separated clusters") {
    // 3 tight clusters far apart: inertia after fit should be tiny vs spread.
    val rnd = new java.util.Random(5)
    val centers = Seq(Array(0f, 0f), Array(100f, 0f), Array(0f, 100f))
    val vecs = IndexedSeq.tabulate(300) { i =>
      val c = centers(i % 3)
      Array((c(0) + rnd.nextGaussian() * 0.1).toFloat, (c(1) + rnd.nextGaussian() * 0.1).toFloat)
    }
    val model = KMeans.fit(vecs, 3, iters = 15, seed = 7).model
    val inertia = vecs.map(v => Kernels.l2Ref(model.centroids(model.assign(v)), v)).sum / vecs.length
    assert(inertia < 1.0, s"inertia $inertia")
  }

  test("KMeans keeps k centroids even with duplicate points") {
    val vecs = IndexedSeq.fill(50)(Array(1f, 1f)) ++ IndexedSeq.fill(50)(Array(5f, 5f))
    val model = KMeans.fit(vecs, 4, seed = 11).model
    assert(model.centroids.length == 4)
  }

  test("KMeans validates arguments") {
    intercept[IllegalArgumentException] { KMeans.fit(IndexedSeq.empty, 2) }
    intercept[IllegalArgumentException] { KMeans.fit(IndexedSeq(Array(1f)), 2) }
  }

  test("KMeans rejects a vector whose length differs from the first, naming it") {
    val vecs = clustered(50, 6, queries = 6, seed = 4).vectors.toVector
    for (len <- Seq(5, 7)) {
      val e = intercept[IllegalArgumentException] {
        KMeans.fit(vecs.updated(17, new Array[Float](len)), 3)
      }
      assert(e.getMessage.contains(s"vector 17 has $len dimensions but vector 0 has 6"), e.getMessage)
    }
  }

  test("KMeans rejects a non-finite value, naming the vector, the position and the value") {
    val vecs = clustered(50, 6, queries = 6, seed = 5).vectors.toVector
    for (x <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val bad = vecs(23).clone()
      bad(4) = x
      val e = intercept[IllegalArgumentException](KMeans.fit(vecs.updated(23, bad), 3))
      assert(e.getMessage.contains(s"vector 23 has the non-finite value $x at position 4"), e.getMessage)
      intercept[IllegalArgumentException](Ivf.partition(vecs.updated(23, bad), 3))
    }
  }

  test("KMeans.assignAll is assign of every vector") {
    // assignAll is the reference Lloyd's full pass (ReferenceLloyd).
    val vecs = clustered(2000, 16, queries = 6, seed = 6).vectors
    val model = KMeans.fit(vecs, 12, iters = 3, seed = 8).model
    val all = ReferenceLloyd.assignAll(model, vecs)
    assert(all.length == vecs.length)
    vecs.indices.foreach(i => assert(all(i) == model.assign(vecs(i)), s"vector $i"))
  }

  for ((kind, len) <- Seq("longer" -> 17, "shorter" -> 15)) {
    test(s"KMeans.assign and assignAll reject a $kind vector than the centroids, assignAll naming it") {
      val vecs = clustered(60, 16, queries = 6, seed = 7).vectors.toVector
      val model = KMeans.fit(vecs, 4, iters = 2, seed = 9).model
      val bad = Array.tabulate(len)(j => if (j < 16) vecs(0)(j) else 1f)
      val e1 = intercept[IllegalArgumentException](model.assign(bad))
      assert(e1.getMessage.contains(s"the vector has $len dimensions but the centroids have 16"), e1.getMessage)
      val e2 = intercept[IllegalArgumentException](ReferenceLloyd.assignAll(model, vecs.updated(41, bad)))
      assert(e2.getMessage.contains(s"vector 41 has $len dimensions but the centroids have 16"), e2.getMessage)
    }
  }

  test("KMeans.fit and Ivf.partition give the same bits in pools of 1 and 3 threads and the common pool") {
    val vecs = clustered(3000, 24, queries = 6, seed = 10, skewed = true).vectors
    val fits = TestUtil.inPools(KMeans.fit(vecs, 20, seed = 12).model.centroids)
    val parts = TestUtil.inPools(Ivf.partition(vecs, 20, seed = 12))
    for (centroids <- fits.tail ++ parts.map(_.rawCentroids); c <- 0 until 20)
      assert(java.util.Arrays.equals(centroids(c), fits.head(c)), s"centroid $c")
    parts.tail.foreach(p => assert(java.util.Arrays.equals(p.assign, parts.head.assign)))
    val model = KMeans.Model(fits.head)
    vecs.indices.foreach(i => assert(parts.head.assign(i) == model.assign(vecs(i)), s"vector $i"))
  }

  test("KMeans.fit and Ivf.partition reject a negative iteration count, naming it") {
    val vecs = clustered(60, 6, queries = 6, seed = 8).vectors
    for (iters <- Seq(-1, -10)) {
      val calls = Seq[() => Any](() => KMeans.fit(vecs, 3, iters), () => Ivf.partition(vecs, 3, iters))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"k-means: iters must be non-negative, got $iters"), e.getMessage)
      }
    }
  }

  // ---------------- the bounded fit against plain Lloyd ----------------

  /** Ivf.partition in pools of 1 and 3 threads and the common pool gives the
    * reference Lloyd's centroids and assignment, bit for bit.
    */
  private def assertSameAsLloyd(what: String, vecs: IndexedSeq[Array[Float]], k: Int, iters: Int,
                                seed: Long = 3): Unit = {
    val ref = ReferenceLloyd.partition(vecs, k, iters, seed)
    for (part <- TestUtil.inPools(Ivf.partition(vecs, k, iters, seed))) {
      for (c <- 0 until k)
        assert(java.util.Arrays.equals(part.rawCentroids(c), ref.rawCentroids(c)), s"$what: centroid $c")
      val diff = vecs.indices.find(i => part.assign(i) != ref.assign(i))
      assert(diff.isEmpty, s"$what: vector ${diff.getOrElse(-1)} assigned ${diff.map(part.assign)} " +
                           s"instead of ${diff.map(ref.assign)}")
    }
  }

  for (d <- Seq(1, 3, 5, 13, 128, 768); skewed <- Seq(false, true)) {
    val kind = if (skewed) "skewed" else "normal"
    test(s"KMeans.fit equals plain Lloyd bit for bit on $kind data at d=$d, k in {1, 2, n}, iters in {0, 1, 10}") {
      val n = if (d >= 768) 60 else if (d >= 128) 100 else 200
      val vecs = clustered(n, d, queries = 6, seed = d * 7L + 1, skewed = skewed).vectors
      for (k <- Seq(1, 2, n); iters <- Seq(0, 1, 10))
        assertSameAsLloyd(s"k=$k iters=$iters", vecs, k, iters)
    }
  }

  test("KMeans.fit equals plain Lloyd on many clusters, where the bounds skip most distances") {
    val vecs = clustered(2000, 128, queries = 6, seed = 15, skewed = true).vectors
    assertSameAsLloyd("n=2000 d=128", vecs, 40, 10, seed = 16)
  }

  test("KMeans.fit equals plain Lloyd with duplicate points and exact distance ties") {
    // Integer points in {0, 1, 2}^d: many duplicates, and centroids (means of
    // small integer sets) at exactly equal distances from many points.
    for (d <- Seq(2, 3, 5); k <- Seq(2, 7, 40)) {
      val rnd = new java.util.Random(d * 31L + k)
      val vecs = IndexedSeq.fill(300)(Array.fill(d)(rnd.nextInt(3).toFloat))
      assertSameAsLloyd(s"d=$d k=$k", vecs, k, 10, seed = k)
    }
  }

  test("KMeans.fit equals plain Lloyd when clusters empty out and are reseeded, and on vectors equal to a centroid") {
    // Two distinct points: most of the k clusters empty out in every pass,
    // and every vector sits exactly on a centroid.
    val twoPoints = IndexedSeq.fill(50)(Array(1f, 1f)) ++ IndexedSeq.fill(50)(Array(5f, 5f))
    for (k <- Seq(2, 4, 30)) assertSameAsLloyd(s"two points k=$k", twoPoints, k, 10, seed = 11)
    val threePoints = IndexedSeq.tabulate(90)(i => Array.fill(13)((i % 3).toFloat))
    assertSameAsLloyd("three points k=20", threePoints, 20, 10, seed = 5)
  }

  test("KMeans.fit equals plain Lloyd on values near 1e19, whose float squared distances overflow") {
    for (d <- Seq(1, 3, 5)) {
      val vecs = VectorData.gaussian(200, d, seed = d.toLong).map(_.map(_ * 1e19f))
      val scratch = new PdxScratch
      val block = PdxLayout.packOne(vecs, vecs.indices.map(_.toLong), d, withSuffixNorms = false)
      LinearScan.scoreBlock(block, vecs.head, scratch)
      assert(scratch.acc.take(200).exists(_.isPosInfinity), s"d=$d: some distance overflows")
      assert(scratch.acc.take(200).exists(f => f > 0f && !f.isInfinite), s"d=$d: some does not")
      for (k <- Seq(2, 8)) assertSameAsLloyd(s"d=$d k=$k", vecs, k, 10, seed = k)
    }
  }

  test("KMeans.fit scores every distance in its first pass and fewer in each later one on well-separated clusters") {
    val rnd = new java.util.Random(5)
    val centers = Seq(Array(0f, 0f, 0f), Array(100f, 0f, 0f), Array(0f, 100f, 0f), Array(0f, 0f, 100f))
    val vecs = IndexedSeq.tabulate(400) { i =>
      centers(i % 4).map(x => (x + rnd.nextGaussian() * 0.1).toFloat)
    }
    val (n, k, iters) = (vecs.length, 6, 10)
    val fit = KMeans.fit(vecs, k, iters, seed = 7)
    val scored = fit.stats.scoredPerPass
    assert(scored.length == iters + 1)
    assert(scored.head == n.toLong * k)
    scored.tail.zipWithIndex.foreach { case (s, p) => assert(s < n.toLong * k, s"pass ${p + 1} scored $s") }
    assertSameAsLloyd("separated", vecs, k, iters, seed = 7)
  }

  test("KMeans.assign breaks distance ties to the lowest centroid index") {
    val (a, b) = (Array(1f, 2f, 3f), Array(-4f, 0.5f, 2f))
    assert(KMeans.Model(Array(a, a, b)).assign(a) == 0)
    assert(KMeans.Model(Array(b, a, a)).assign(a) == 1)
    // (0, 0, 0) is at distance 1 from both (1, 0, 0) and (-1, 0, 0).
    val centroids = Array(Array(3f, 0f, 0f), Array(1f, 0f, 0f), Array(-1f, 0f, 0f))
    assert(KMeans.Model(centroids).assign(Array(0f, 0f, 0f)) == 1)
    assert(KMeans.Model(centroids.reverse).assign(Array(0f, 0f, 0f)) == 0)
  }

  test("KMeans.Model rejects an empty centroid set with a message") {
    val e = intercept[IllegalArgumentException](KMeans.Model(Array.empty))
    assert(e.getMessage.contains("k-means: a model needs at least one centroid"))
  }

  test("KMeans.assign is bucket selection with nprobe 1 on a raw-space index whose buckets are all live") {
    val ds = clustered(1500, 20, queries = 6, seed = 13, skewed = true)
    val part = Ivf.partition(ds.vectors, nlist = 16, seed = 14)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    assert(idx.bucketOf.forall(_ >= 0), "every bucket is live")
    val model = KMeans.Model(part.rawCentroids)
    (ds.vectors ++ ds.queries).zipWithIndex.foreach { case (v, i) =>
      assert(model.assign(v) == idx.nearestBuckets(v, 1).head, s"vector $i")
    }
  }

  // ---------------- IVF build ----------------

  test("Ivf.partition covers every vector and respects nlist") {
    val ds = clustered(400, 10, queries = 6, seed = 21)
    val part = Ivf.partition(ds.vectors, nlist = 10)
    assert(part.assign.length == 400)
    assert(part.assign.forall(a => a >= 0 && a < 10))
    assert(part.rawCentroids.length == 10)
  }

  test("materialize groups vectors into identical PDX and N-ary buckets") {
    val ds = clustered(400, 12, queries = 6, seed = 23)
    val part = Ivf.partition(ds.vectors, nlist = 8)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    assert(idx.blocks.map(_.n).sum == 400)
    assert(idx.naryBuckets.map(_.n).sum == 400)
    idx.blocks.zip(idx.naryBuckets).foreach { case (pb, nb) =>
      assert(pb.ids.toSeq == nb.ids.toSeq)
      (0 until pb.n).foreach { i =>
        assert(pb.vectorAt(i).toSeq == nb.data.slice(i * pb.d, (i + 1) * pb.d).toSeq)
      }
    }
    // Every id in exactly one bucket.
    val all = idx.blocks.flatMap(_.ids)
    assert(all.sorted.toSeq == ds.ids.sorted)
  }

  test("bucketOf maps centroids to blocks consistently") {
    val ds = clustered(200, 6, queries = 6, seed = 25)
    val part = Ivf.partition(ds.vectors, nlist = 20)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    (0 until 20).foreach { c =>
      val pos = idx.bucketOf(c)
      if (pos >= 0) {
        // All members of this block were assigned to centroid c.
        idx.blocks(pos).ids.foreach(id => assert(part.assign(id.toInt) == c))
      } else {
        assert(!part.assign.contains(c))
      }
    }
  }

  test("nearestBuckets orders live buckets by (distance, index), ties and empty buckets included") {
    // 7 centroids at d = 5: 1 and 3 are identical (an exact distance tie);
    // buckets 4 and 5 are empty, and some queries below sit on their centroids.
    val d = 5
    val nlist = 7
    val rnd = new java.util.Random(47)
    val centroids = Array.fill(nlist)(Array.fill(d)(rnd.nextGaussian().toFloat))
    centroids(3) = centroids(1).clone()
    val liveBuckets = Seq(0, 1, 2, 3, 6)
    val assign = Array.tabulate(20)(i => liveBuckets(i % liveBuckets.length))
    val vecs = assign.toIndexedSeq.map(c => centroids(c).map(_ + 0.01f))
    val part = IvfPartition(nlist, assign, centroids)
    val idx = IvfIndex.materialize(part, vecs, vecs.indices.map(_.toLong), centroids,
                                   withSuffixNorms = false)

    // Reference rule: score all nlist centroids with the same kernel, sort
    // by (distance, index), drop the empty buckets, take nprobe.
    val allPdx = PdxLayout.packOne(centroids.toIndexedSeq, (0 until nlist).map(_.toLong), d,
                                   withSuffixNorms = false)
    def expected(q: Array[Float], nprobe: Int): Seq[Int] = {
      val scratch = new PdxScratch
      LinearScan.scoreBlock(allPdx, q, scratch)
      val dists = scratch.acc
      (0 until nlist).sortBy(c => (dists(c), c)).filter(idx.bucketOf(_) >= 0).take(nprobe)
    }

    val queries = Seq(centroids(1), centroids(4), centroids(5),
                      centroids(4).zip(centroids(1)).map { case (a, b) => (a + b) / 2 }) ++
      VectorData.gaussian(6, d, seed = 49)
    for (q <- queries; nprobe <- Seq(1, 2, liveBuckets.length, nlist + 3)) {
      val got = idx.nearestBuckets(q, nprobe).toSeq
      assert(got == expected(q, nprobe), s"nprobe=$nprobe q=${q.toSeq}")
    }
    // The tie itself: a query on centroids 1 and 3 picks 1 first, then 3.
    assert(idx.nearestBuckets(centroids(1), 2).toSeq == Seq(1, 3))
  }

  test("nearestBuckets and the IVF searches reject a non-positive nprobe") {
    val ds = clustered(200, 8, queries = 6, seed = 51)
    val bond = new Bond(8, Bond.DistanceToMeans)
    val part = Ivf.partition(ds.vectors, nlist = 4)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val q = ds.queries.head
    for (nprobe <- Seq(0, -1)) {
      val calls = Seq[() => Any](
        () => idx.nearestBuckets(q, nprobe),
        () => idx.searchPdx(q, 10, nprobe, bond, new PdxSearcher(10)),
        () => idx.searchNary(q, 10, nprobe, bond, new NarySearcher(10, deltaD = 2)))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"nprobe must be positive, got $nprobe"))
      }
    }
  }

  // ---------------- IVF search ----------------

  test("searchPdx with BOND and nprobe == nlist is exact") {
    val d = 24
    val ds = clustered(500, d, queries = 6, seed = 31)
    val bond = new Bond(d, Bond.DimensionZones)
    val part = Ivf.partition(ds.vectors, nlist = 10)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val res = idx.searchPdx(q, 10, nprobe = 10, bond, searcher)
      TestUtil.assertExactKnn(res, ds.vectors, q, 10)
    }
  }

  test("recall grows with nprobe") {
    val d = 32
    val ds = clustered(2000, d, queries = 6, seed = 33)
    val part = Ivf.partition(ds.vectors, nlist = 20)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val (bond, searcher) = (new Bond(d, Bond.DistanceToMeans), new PdxSearcher(10)) // exact
    def avgRecall(np: Int): Double = {
      val rs = ds.queries.indices.map { qi =>
        VectorData.recall(idx.searchPdx(ds.queries(qi), 10, np, bond, searcher).map(_._1), gt(qi))
      }
      rs.sum / rs.length
    }
    val r1 = avgRecall(1)
    val r5 = avgRecall(5)
    val r20 = avgRecall(20)
    assert(r1 <= r5 + 1e-9 && r5 <= r20 + 1e-9, s"$r1 $r5 $r20")
    assert(r20 > 0.999, s"full probe recall $r20")
  }

  test("PDX-ADS inside IVF matches N-ary-ADS recall and beats 0.85 at full probe") {
    val d = 48
    val ds = clustered(1500, d, queries = 6, seed = 35)
    val ads = new AdSampling(d, seed = 37)
    val part = Ivf.partition(ds.vectors, nlist = 12)
    val idx = IvfIndex.materialize(part, ads.transformData(ds.vectors), ds.ids,
                                   part.rawCentroids.map(ads.transformVector),
                                   withSuffixNorms = false)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    val pdxS = new PdxSearcher(10)
    val naryS = new NarySearcher(10, deltaD = d / 4)
    val (pdxR, naryR) = ds.queries.indices.map { qi =>
      val q = ds.queries(qi)
      val a = VectorData.recall(idx.searchPdx(q, 10, 12, ads, pdxS).map(_._1), gt(qi))
      val b = VectorData.recall(idx.searchNary(q, 10, 12, ads, naryS).map(_._1), gt(qi))
      (a, b)
    }.unzip
    val (pa, na) = (pdxR.sum / pdxR.length, naryR.sum / naryR.length)
    assert(pa >= 0.85, s"PDX-ADS recall $pa")
    assert(na >= 0.85, s"N-ary-ADS recall $na")
    assert(math.abs(pa - na) < 0.1, s"recalls diverge: $pa vs $na")
  }

  test("BSA(m=1) inside IVF is exact at full probe in both layouts") {
    val d = 24
    val ds = clustered(600, d, queries = 6, seed = 39, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val part = Ivf.partition(ds.vectors, nlist = 8)
    val idx = IvfIndex.materialize(part, bsa.transformData(ds.vectors), ds.ids,
                                   part.rawCentroids.map(bsa.transformVector),
                                   withSuffixNorms = true)
    val pdxS = new PdxSearcher(10)
    val naryS = new NarySearcher(10, deltaD = d / 4)
    ds.queries.foreach { q =>
      TestUtil.assertExactKnn(idx.searchPdx(q, 10, 8, bsa, pdxS), ds.vectors, q, 10)
      TestUtil.assertExactKnn(idx.searchNary(q, 10, 8, bsa, naryS), ds.vectors, q, 10)
    }
  }

  test("searchPdx and searchNary time prep and bucket selection into the searcher's profiler") {
    val d = 32
    val ds = clustered(800, d, queries = 6, seed = 53, skewed = true)
    val part = Ivf.partition(ds.vectors, nlist = 8)
    val ads = new AdSampling(d, seed = 55)
    val adsIdx = IvfIndex.materialize(part, ads.transformData(ds.vectors), ds.ids,
                                      part.rawCentroids.map(ads.transformVector),
                                      withSuffixNorms = false)
    val bsa = Bsa.fit(ds.vectors, multiplier = 0.75)
    val bsaIdx = IvfIndex.materialize(part, bsa.transformData(ds.vectors), ds.ids,
                                      part.rawCentroids.map(bsa.transformVector),
                                      withSuffixNorms = true)
    val nprobe = 3
    val (pdxProf, pdxHand, naryProf, naryHand) =
      (new SearchProfiler, new SearchProfiler, new SearchProfiler, new SearchProfiler)
    val (pdxPlain, pdxTimed, pdxByHand) =
      (new PdxSearcher(10), new PdxSearcher(10, pdxProf), new PdxSearcher(10, pdxHand))
    val (naryPlain, naryTimed, naryByHand) =
      (new NarySearcher(10, deltaD = 4), new NarySearcher(10, deltaD = 4, naryProf),
       new NarySearcher(10, deltaD = 4, naryHand))
    ds.queries.foreach { q =>
      val pdx = adsIdx.searchPdx(q, 10, nprobe, ads, pdxTimed)
      assert(pdx == adsIdx.searchPdx(q, 10, nprobe, ads, pdxPlain))
      val adsQ = ads.prepareQuery(q)
      val pdxProbes = adsIdx.nearestBuckets(adsQ.query, nprobe)
      pdxByHand.searchPrepared(pdxProbes.iterator.map(c => adsIdx.blocks(adsIdx.bucketOf(c))),
                               adsQ, new KnnHeap(10))

      val nary = bsaIdx.searchNary(q, 10, nprobe, bsa, naryTimed)
      assert(nary == bsaIdx.searchNary(q, 10, nprobe, bsa, naryPlain))
      val bsaQ = bsa.prepareQuery(q)
      val naryProbes = bsaIdx.nearestBuckets(bsaQ.query, nprobe)
      naryByHand.searchPrepared(naryProbes.iterator.map(c => bsaIdx.naryBuckets(bsaIdx.bucketOf(c))),
                                bsaQ, new KnnHeap(10))
    }
    for ((prof, hand) <- Seq(pdxProf -> pdxHand, naryProf -> naryHand)) {
      assert(prof.prepNanos > 0 && prof.bucketsNanos > 0)
      assert(prof.dimValuesScanned == hand.dimValuesScanned)
      assert(prof.boundEvals == hand.boundEvals)
      // Driven by hand, the searchers record no prep or bucket time.
      assert(hand.prepNanos == 0 && hand.bucketsNanos == 0)
    }
  }

  test("N-ary IVF paths reject a query of the wrong dimensionality") {
    val d = 12
    val ds = clustered(200, d, queries = 6, seed = 45)
    val part = Ivf.partition(ds.vectors, nlist = 4)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val searcher = new NarySearcher(10, deltaD = d / 4)
    for (len <- Seq(d - 1, d + 1)) {
      val q = VectorData.gaussian(1, len, seed = len.toLong).head
      val pruner = TestPruners.PartialDistance(len)
      val calls = Seq[() => Any](
        () => idx.searchNary(q, 10, 4, pruner, searcher),
        () => searcher.search(idx.naryBuckets.toSeq, q, pruner))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"query has $len dimensions but the block has $d"))
      }
    }
  }

  test("every query entry point rejects a NaN or infinite raw query value, naming its position") {
    // Checked on the raw query: after the rotation one NaN is in every
    // coordinate, and its position is lost.
    val d = 12
    val ds = clustered(200, d, queries = 6, seed = 46)
    val part = Ivf.partition(ds.vectors, nlist = 4)
    val ads = new AdSampling(d, seed = 47)
    val inSpace = ads.transformData(ds.vectors)
    val idx = IvfIndex.materialize(part, inSpace, ds.ids, part.rawCentroids.map(ads.transformVector),
                                   withSuffixNorms = false)
    val blocks = PdxLayout.pack(inSpace, ds.ids, 64)
    val pdx = new PdxSearcher(10)
    val nary = new NarySearcher(10, deltaD = d / 4)
    for (pos <- Seq(0, d - 1); bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val q = ds.queries.head.clone()
      q(pos) = bad
      val calls = Seq[(String, () => Any)](
        "PdxSearcher.search" -> (() => pdx.search(blocks, q, ads)),
        "NarySearcher.search" -> (() => nary.search(idx.naryBuckets.toSeq, q, ads)),
        "IvfIndex.searchPdx" -> (() => idx.searchPdx(q, 10, 4, ads, pdx)),
        "IvfIndex.searchNary" -> (() => idx.searchNary(q, 10, 4, ads, nary)))
      for ((name, call) <- calls) {
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"query value at position $pos is $bad"), s"$name: ${e.getMessage}")
      }
    }
  }

  test("IvfIndex.materialize rejects an empty collection") {
    val part = IvfPartition(1, Array.emptyIntArray, Array(Array(0f, 0f)))
    val e = intercept[IllegalArgumentException] {
      IvfIndex.materialize(part, IndexedSeq.empty, IndexedSeq.empty, part.rawCentroids,
                           withSuffixNorms = false)
    }
    assert(e.getMessage.contains("0 vectors"))
  }

  test("IvfIndex.materialize rejects vectors, ids and assignments of different lengths") {
    val ds = clustered(60, 6, queries = 6, seed = 47)
    val part = Ivf.partition(ds.vectors, nlist = 3)
    val e1 = intercept[IllegalArgumentException] {
      IvfIndex.materialize(part, ds.vectors, ds.ids.take(59), part.rawCentroids, withSuffixNorms = false)
    }
    assert(e1.getMessage.contains("vecsInSpace has 60 vectors but ids has 59 and part.assign has 60"))
    val e2 = intercept[IllegalArgumentException] {
      IvfIndex.materialize(part.copy(assign = part.assign.take(58)), ds.vectors, ds.ids,
                           part.rawCentroids, withSuffixNorms = false)
    }
    assert(e2.getMessage.contains("vecsInSpace has 60 vectors but ids has 60 and part.assign has 58"))
  }

  test("IvfIndex.materialize rejects a centroid count other than nlist") {
    val ds = clustered(60, 6, queries = 6, seed = 49)
    val part = Ivf.partition(ds.vectors, nlist = 3)
    for (centroids <- Seq(part.rawCentroids.take(2), part.rawCentroids :+ part.rawCentroids.head)) {
      val e = intercept[IllegalArgumentException] {
        IvfIndex.materialize(part, ds.vectors, ds.ids, centroids, withSuffixNorms = false)
      }
      assert(e.getMessage.contains(s"spaceCentroids has ${centroids.length} centroids but the partition has nlist 3"))
    }
  }

  test("IvfIndex.materialize rejects an assignment outside [0, nlist), naming the vector and the value") {
    val vecs = IndexedSeq(Array(0f, 1f), Array(2f, 3f))
    for (bad <- Seq(2, -1)) {
      val part = IvfPartition(2, Array(0, bad), Array(Array(0f, 0f), Array(1f, 1f)))
      val e = intercept[IllegalArgumentException] {
        IvfIndex.materialize(part, vecs, IndexedSeq(0L, 1L), part.rawCentroids, withSuffixNorms = false)
      }
      assert(e.getMessage.contains(s"vector 1 is assigned to bucket $bad, outside [0, nlist 2)"), e.getMessage)
    }
  }

  test("IvfIndex.materialize rejects a NaN or infinite vector or centroid value, naming it") {
    val ds = clustered(60, 6, queries = 6, seed = 51)
    val part = Ivf.partition(ds.vectors, nlist = 3)
    val vecs = ds.vectors.toVector
    for (x <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val bad = vecs(23).clone()
      bad(4) = x
      val e1 = intercept[IllegalArgumentException] {
        IvfIndex.materialize(part, vecs.updated(23, bad), ds.ids.map(_ + 1000), part.rawCentroids,
                             withSuffixNorms = false)
      }
      assert(e1.getMessage.contains(s"vector 1023 has the non-finite value $x at position 4"), e1.getMessage)
      val live = part.assign(0) // only live centroids are packed; their ids are their indices
      val centroids = part.rawCentroids.clone()
      centroids(live) = centroids(live).clone()
      centroids(live)(1) = x
      val e2 = intercept[IllegalArgumentException] {
        IvfIndex.materialize(part, vecs, ds.ids, centroids, withSuffixNorms = true)
      }
      assert(e2.getMessage.contains(s"vector $live has the non-finite value $x at position 1"), e2.getMessage)
    }
  }

  test("IvfIndex.build in ADSampling space preserves bucket membership vs raw") {
    val d = 16
    val ds = clustered(300, d, queries = 6, seed = 41)
    val ads = new AdSampling(d, seed = 43)
    val part = Ivf.partition(ds.vectors, nlist = 6)
    val rawIdx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val adsIdx = IvfIndex.materialize(part, ads.transformData(ds.vectors), ds.ids,
                                      part.rawCentroids.map(ads.transformVector),
                                      withSuffixNorms = false)
    rawIdx.blocks.zip(adsIdx.blocks).foreach { case (a, b) =>
      assert(a.ids.toSeq == b.ids.toSeq, "identical buckets violated")
    }
  }
}
