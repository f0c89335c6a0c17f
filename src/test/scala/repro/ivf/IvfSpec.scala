package repro.ivf

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core._
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

class IvfSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 6, skewed, clusters = 8, seed = seed))

  // ---------------- k-means ----------------

  test("KMeans is deterministic in (data, k, seed)") {
    val vecs = clustered(300, 8, seed = 1).vectors
    val a = KMeans.fit(vecs, 5, seed = 9)
    val b = KMeans.fit(vecs, 5, seed = 9)
    a.centroids.zip(b.centroids).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("KMeans.assign returns the nearest centroid") {
    val vecs = clustered(200, 6, seed = 2).vectors
    val model = KMeans.fit(vecs, 4, seed = 3)
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
    val model = KMeans.fit(vecs, 3, iters = 15, seed = 7)
    val inertia = vecs.map(v => Kernels.l2Ref(model.centroids(model.assign(v)), v)).sum / vecs.length
    assert(inertia < 1.0, s"inertia $inertia")
  }

  test("KMeans keeps k centroids even with duplicate points") {
    val vecs = IndexedSeq.fill(50)(Array(1f, 1f)) ++ IndexedSeq.fill(50)(Array(5f, 5f))
    val model = KMeans.fit(vecs, 4, seed = 11)
    assert(model.centroids.length == 4)
  }

  test("KMeans validates arguments") {
    intercept[IllegalArgumentException] { KMeans.fit(IndexedSeq.empty, 2) }
    intercept[IllegalArgumentException] { KMeans.fit(IndexedSeq(Array(1f)), 2) }
  }

  test("KMeans rejects a vector whose length differs from the first, naming it") {
    val vecs = clustered(50, 6, seed = 4).vectors.toVector
    for (len <- Seq(5, 7)) {
      val e = intercept[IllegalArgumentException] {
        KMeans.fit(vecs.updated(17, new Array[Float](len)), 3)
      }
      assert(e.getMessage.contains(s"vector 17 has $len dimensions but vector 0 has 6"), e.getMessage)
    }
  }

  test("KMeans rejects a non-finite value, naming the vector, the position and the value") {
    val vecs = clustered(50, 6, seed = 5).vectors.toVector
    for (x <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val bad = vecs(23).clone()
      bad(4) = x
      val e = intercept[IllegalArgumentException](KMeans.fit(vecs.updated(23, bad), 3))
      assert(e.getMessage.contains(s"vector 23 has the non-finite value $x at position 4"), e.getMessage)
      intercept[IllegalArgumentException](Ivf.partition(vecs.updated(23, bad), 3))
    }
  }

  test("KMeans.assignAll is assign of every vector") {
    val vecs = clustered(2000, 16, seed = 6).vectors
    val model = KMeans.fit(vecs, 12, iters = 3, seed = 8)
    val all = model.assignAll(vecs)
    assert(all.length == vecs.length)
    vecs.indices.foreach(i => assert(all(i) == model.assign(vecs(i)), s"vector $i"))
  }

  for ((kind, len) <- Seq("longer" -> 17, "shorter" -> 15)) {
    test(s"KMeans.assign and assignAll reject a $kind vector than the centroids, assignAll naming it") {
      val vecs = clustered(60, 16, seed = 7).vectors.toVector
      val model = KMeans.fit(vecs, 4, iters = 2, seed = 9)
      val bad = Array.tabulate(len)(j => if (j < 16) vecs(0)(j) else 1f)
      val e1 = intercept[IllegalArgumentException](model.assign(bad))
      assert(e1.getMessage.contains(s"the vector has $len dimensions but the centroids have 16"), e1.getMessage)
      val e2 = intercept[IllegalArgumentException](model.assignAll(vecs.updated(41, bad)))
      assert(e2.getMessage.contains(s"vector 41 has $len dimensions but the centroids have 16"), e2.getMessage)
    }
  }

  test("KMeans.fit and Ivf.partition give the same bits in pools of 1 and 3 threads and the common pool") {
    val vecs = clustered(3000, 24, seed = 10, skewed = true).vectors
    val fits = TestUtil.inPools(KMeans.fit(vecs, 20, seed = 12).centroids)
    val parts = TestUtil.inPools(Ivf.partition(vecs, 20, seed = 12))
    for (centroids <- fits.tail ++ parts.map(_.rawCentroids); c <- 0 until 20)
      assert(java.util.Arrays.equals(centroids(c), fits.head(c)), s"centroid $c")
    parts.tail.foreach(p => assert(java.util.Arrays.equals(p.assign, parts.head.assign)))
    val model = KMeans.Model(fits.head)
    vecs.indices.foreach(i => assert(parts.head.assign(i) == model.assign(vecs(i)), s"vector $i"))
  }

  // ---------------- IVF build ----------------

  test("Ivf.partition covers every vector and respects nlist") {
    val ds = clustered(400, 10, seed = 21)
    val part = Ivf.partition(ds.vectors, nlist = 10)
    assert(part.assign.length == 400)
    assert(part.assign.forall(a => a >= 0 && a < 10))
    assert(part.rawCentroids.length == 10)
  }

  test("materialize groups vectors into identical PDX and N-ary buckets") {
    val ds = clustered(400, 12, seed = 23)
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
    val ds = clustered(200, 6, seed = 25)
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

  test("nearestBuckets orders buckets by centroid distance (pdx == nary path)") {
    val ds = clustered(300, 8, seed = 27)
    val part = Ivf.partition(ds.vectors, nlist = 12)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val q = ds.queries.head
    val a = idx.nearestBuckets(q, 5, usePdx = true).toSeq
    val b = idx.nearestBuckets(q, 5, usePdx = false).toSeq
    assert(a == b)
    val dists = a.map(c => Kernels.l2Ref(part.rawCentroids(c), q))
    assert(dists == dists.sorted)
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
    val allNary = PdxLayout.packNary(centroids.toIndexedSeq)
    def expected(q: Array[Float], nprobe: Int, usePdx: Boolean): Seq[Int] = {
      val dists = new Array[Float](nlist)
      if (usePdx) LinearScan.scoreBlock(allPdx, q, dists)
      else (0 until nlist).foreach(c => dists(c) = Kernels.l2Unrolled(allNary, c * d, q, 0, d))
      (0 until nlist).sortBy(c => (dists(c), c)).filter(idx.bucketOf(_) >= 0).take(nprobe)
    }

    val queries = Seq(centroids(1), centroids(4), centroids(5),
                      centroids(4).zip(centroids(1)).map { case (a, b) => (a + b) / 2 }) ++
      VectorData.gaussian(6, d, seed = 49)
    for (q <- queries; nprobe <- Seq(1, 2, liveBuckets.length, nlist + 3); usePdx <- Seq(true, false)) {
      val got = idx.nearestBuckets(q, nprobe, usePdx).toSeq
      assert(got == expected(q, nprobe, usePdx), s"nprobe=$nprobe usePdx=$usePdx q=${q.toSeq}")
    }
    // The tie itself: a query on centroids 1 and 3 picks 1 first, then 3.
    for (usePdx <- Seq(true, false))
      assert(idx.nearestBuckets(centroids(1), 2, usePdx).toSeq == Seq(1, 3))
  }

  test("nearestBuckets and the IVF searches reject a non-positive nprobe") {
    val ds = clustered(200, 8, seed = 51)
    val bond = new Bond(8, Bond.DistanceToMeans)
    val idx = IvfIndex.build(ds.vectors, ds.ids, nlist = 4, bond)
    val q = ds.queries.head
    for (nprobe <- Seq(0, -1)) {
      val calls = Seq[() => Any](
        () => idx.nearestBuckets(q, nprobe, usePdx = true),
        () => idx.nearestBuckets(q, nprobe, usePdx = false),
        () => idx.searchPdx(q, 10, nprobe, bond, new PdxSearcher(10)),
        () => idx.searchNary(q, 10, nprobe, bond, new NarySearcher(10, deltaD = 2)),
        () => idx.searchLinear(q, 10, nprobe))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"nprobe must be positive, got $nprobe"))
      }
    }
  }

  // ---------------- IVF search ----------------

  test("searchLinear with nprobe == nlist is exact") {
    val ds = clustered(500, 16, seed = 29)
    val part = Ivf.partition(ds.vectors, nlist = 10)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    ds.queries.foreach { q =>
      val res = idx.searchLinear(q, 10, nprobe = 10)
      TestUtil.assertExactKnn(res, ds.vectors, q, 10)
    }
  }

  test("searchPdx with BOND and nprobe == nlist is exact") {
    val d = 24
    val ds = clustered(500, d, seed = 31)
    val bond = new Bond(d, Bond.DimensionZones)
    val idx = IvfIndex.build(ds.vectors, ds.ids, nlist = 10, bond)
    val searcher = new PdxSearcher(10)
    ds.queries.foreach { q =>
      val res = idx.searchPdx(q, 10, nprobe = 10, bond, searcher)
      TestUtil.assertExactKnn(res, ds.vectors, q, 10)
    }
  }

  test("recall grows with nprobe") {
    val d = 32
    val ds = clustered(2000, d, seed = 33)
    val part = Ivf.partition(ds.vectors, nlist = 20)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val gt = VectorData.groundTruth(ds.vectors, ds.queries, 10)
    def avgRecall(np: Int): Double = {
      val rs = ds.queries.indices.map { qi =>
        VectorData.recall(idx.searchLinear(ds.queries(qi), 10, np).map(_._1), gt(qi))
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
    val ds = clustered(1500, d, seed = 35)
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
    val ds = clustered(600, d, seed = 39, skewed = true)
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

  test("N-ary IVF paths reject a query of the wrong dimensionality") {
    val d = 12
    val ds = clustered(200, d, seed = 45)
    val part = Ivf.partition(ds.vectors, nlist = 4)
    val idx = IvfIndex.materialize(part, ds.vectors, ds.ids, part.rawCentroids, withSuffixNorms = false)
    val searcher = new NarySearcher(10, deltaD = d / 4)
    for (len <- Seq(d - 1, d + 1)) {
      val q = VectorData.gaussian(1, len, seed = len.toLong).head
      val pruner = TestPruners.PartialDistance(len)
      val calls = Seq[() => Any](
        () => idx.searchNary(q, 10, 4, pruner, searcher),
        () => idx.searchLinear(q, 10, 4),
        () => searcher.search(idx.naryBuckets.toSeq, q, pruner))
      calls.foreach { call =>
        val e = intercept[IllegalArgumentException](call())
        assert(e.getMessage.contains(s"query has $len dimensions but the block has $d"))
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
    val ds = clustered(60, 6, seed = 47)
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
    val ds = clustered(60, 6, seed = 49)
    val part = Ivf.partition(ds.vectors, nlist = 3)
    for (centroids <- Seq(part.rawCentroids.take(2), part.rawCentroids :+ part.rawCentroids.head)) {
      val e = intercept[IllegalArgumentException] {
        IvfIndex.materialize(part, ds.vectors, ds.ids, centroids, withSuffixNorms = false)
      }
      assert(e.getMessage.contains(s"spaceCentroids has ${centroids.length} centroids but the partition has nlist 3"))
    }
  }

  test("IvfIndex.build in ADSampling space preserves bucket membership vs raw") {
    val d = 16
    val ds = clustered(300, d, seed = 41)
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
