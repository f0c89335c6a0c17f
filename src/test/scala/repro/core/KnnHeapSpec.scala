package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.TestUtil.forAllSampled

class KnnHeapSpec extends AnyFunSuite {

  test("threshold is +inf until full, then the k-th best") {
    val h = new KnnHeap(3)
    assert(h.threshold == Float.PositiveInfinity)
    h.push(1, 5f); h.push(2, 1f)
    assert(h.threshold == Float.PositiveInfinity)
    h.push(3, 3f)
    assert(h.threshold == 5f)
    h.push(4, 2f) // evicts 5
    assert(h.threshold == 3f)
    h.push(5, 10f) // worse than threshold: ignored
    assert(h.threshold == 3f)
    assert(h.idsSorted == Seq(2L, 4L, 3L))
  }

  test("push with equal distance to threshold does not evict") {
    val h = new KnnHeap(2)
    h.push(1, 1f); h.push(2, 2f)
    h.push(3, 2f)
    assert(h.idsSorted == Seq(1L, 2L))
  }

  test("equal distance with a smaller id evicts the top") {
    val h = new KnnHeap(2)
    h.push(5, 1f); h.push(4, 2f)
    h.push(3, 2f)
    assert(h.sorted == Seq((5L, 1f), (3L, 2f)))
    h.push(2, 1f); h.push(1, 1f)
    assert(h.sorted == Seq((1L, 1f), (2L, 1f)))
  }

  test("k larger than inserts keeps everything") {
    val h = new KnnHeap(10)
    h.push(1, 3f); h.push(2, 1f)
    assert(h.size == 2)
    assert(h.sorted == Seq((2L, 1f), (1L, 3f)))
  }

  test("k must be positive") {
    intercept[IllegalArgumentException] { new KnnHeap(0) }
  }

  for (k <- Seq(1, 2, 5, 10, 50); n <- Seq(1, 7, 100, 500)) {
    test(s"heap equals sort-based top-k (k=$k, n=$n)") {
      val rnd = new java.util.Random(k * 1000L + n)
      val items = IndexedSeq.fill(n)((rnd.nextLong().abs, rnd.nextFloat() * 100))
      val h = new KnnHeap(k)
      items.foreach { case (id, dist) => h.push(id, dist) }
      val expect = items.sortBy { case (id, dist) => (dist, id) }.take(k)
      // Compare distances (ids may differ on exact-duplicate distances).
      assert(h.sorted.map(_._2) == expect.map(_._2))
    }
  }

  test("sorted and idsSorted equal a (distance, id) sortBy of the kept entries, with ties and duplicate ids") {
    val gen = for {
      k <- Gen.choose(1, 40)
      n <- Gen.choose(1, 120)
      seed <- Gen.choose(0L, 10000L)
    } yield (k, n, seed)
    forAllSampled(gen) { case (k, n, seed) =>
      // Few distinct ids and distances: equal distances and repeated (id, distance) pairs are common.
      val rnd = new java.util.Random(seed)
      val items = IndexedSeq.fill(n)((rnd.nextInt(8).toLong, (rnd.nextInt(5) - 2).toFloat))
      val h = new KnnHeap(k)
      items.foreach { case (id, dist) => h.push(id, dist) }
      val expect = items.sortBy { case (id, d) => (d, id) }.take(k)
      assert(h.sorted == expect)
      assert(h.idsSorted == expect.map(_._1))
    }
  }

  test("property: heap top-k distances match full sort on arbitrary input") {
    val gen = for {
      k <- Gen.choose(1, 20)
      n <- Gen.choose(1, 200)
      seed <- Gen.choose(0L, 10000L)
    } yield (k, n, seed)
    forAllSampled(gen) { case (k, n, seed) =>
      val rnd = new java.util.Random(seed)
      val dists = IndexedSeq.fill(n)(rnd.nextFloat())
      val h = new KnnHeap(k)
      dists.zipWithIndex.foreach { case (dist, i) => h.push(i.toLong, dist) }
      assert(h.sorted.map(_._2) == dists.sorted.take(k))
    }
  }
}
