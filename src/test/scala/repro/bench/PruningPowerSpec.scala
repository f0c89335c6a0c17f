package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{NaryBucket, NarySearcher, PdxLayout, TestPruners}
import repro.data.VectorData
import repro.prune.{AdSampling, Bond, Bsa}

class PruningPowerSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, skewed: Boolean = false) =
    VectorData.generate(VectorData.DatasetSpec("t", d, n, 6, skewed, clusters = 8, seed = seed))

  test("NeverPrune yields zero pruning power") {
    val ds = clustered(200, 16, seed = 1)
    val power = PruningPower.perQuery(ds.vectors, TestPruners.NeverPrune(16), ds.queries)
    assert(power.forall(_ == 0.0))
  }

  test("pruning power is within [0, 1) and positive for BOND on clustered data") {
    val ds = clustered(1000, 48, seed = 2, skewed = true)
    val power = PruningPower.perQuery(ds.vectors, new Bond(48, Bond.DistanceToMeans), ds.queries)
    assert(power.forall(p => p >= 0.0 && p < 1.0))
    assert(power.max > 0.1, s"max power ${power.max}")
  }

  test("ADSampling pruning power is positive on clustered data") {
    val ds = clustered(1000, 48, seed = 3)
    val (ads, space) = {
      val a = new AdSampling(48, seed = 5)
      (a, a.transformData(ds.vectors))
    }
    val power = PruningPower.perQuery(space, ads, ds.queries)
    assert(power.max > 0.1, s"max power ${power.max}")
  }

  test("BSA-exact pruning power is in [0, 1) and its Δd = 1 search is exact") {
    val ds = clustered(500, 24, seed = 5, skewed = true)
    val bsa = Bsa.fitExact(ds.vectors)
    val space = bsa.transformData(ds.vectors)
    val power = PruningPower.perQuery(space, bsa, ds.queries)
    assert(power.forall(p => p >= 0.0 && p < 1.0), power)
    val bucket = NaryBucket(PdxLayout.packOne(space, ds.ids, 24, withSuffixNorms = true))
    ds.queries.foreach { q =>
      val heap = new NarySearcher(10, deltaD = 1).search(Seq(bucket), q, bsa)
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
    }
  }

  test("distance-to-means order prunes at least as well as sequential for BOND") {
    val ds = clustered(1000, 64, seed = 4, skewed = true)
    val seqP = PruningPower.perQuery(ds.vectors, new Bond(64, Bond.Sequential), ds.queries)
    val dtmP = PruningPower.perQuery(ds.vectors, new Bond(64, Bond.DistanceToMeans), ds.queries)
    assert(dtmP.sum >= seqP.sum * 0.9, s"dtm=${dtmP.sum} seq=${seqP.sum}")
  }

  test("summarize orders best >= p50 >= p25 >= worst") {
    val s = PruningPower.summarize(IndexedSeq(0.1, 0.5, 0.9, 0.3, 0.7))
    assert(s.best == 90.0 && s.worst == 10.0)
    assert(s.best >= s.p50 && s.p50 >= s.p25 && s.p25 >= s.worst)
  }

  test("summarize of constant powers is flat") {
    val s = PruningPower.summarize(IndexedSeq.fill(5)(0.42))
    assert(s.best == 42.0 && s.p50 == 42.0 && s.p25 == 42.0 && s.worst == 42.0)
  }

  test("the Δd = 1 PDX-BOND search behind the pruning power is exact") {
    val ds = clustered(400, 24, seed = 6)
    val bucket = NaryBucket(PdxLayout.packOne(ds.vectors, ds.ids, 24, withSuffixNorms = false))
    ds.queries.foreach { q =>
      val heap = new NarySearcher(10, deltaD = 1).search(Seq(bucket), q, new Bond(24, Bond.DistanceToMeans))
      TestUtil.assertExactKnn(heap.sorted, ds.vectors, q, 10)
    }
  }
}
