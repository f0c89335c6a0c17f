package repro

import java.util.concurrent.{Callable, ForkJoinPool}
import repro.core.Kernels

/** Shared assertions for search-result exactness.
  *
  * Exact searchers are validated against a double-precision brute force.
  * Float kernels can legitimately flip ranks between candidates whose
  * distances differ by less than float rounding, so "exact" is asserted as:
  * every returned distance matches the reference distance of its id, and is
  * within float tolerance of (or below) the reference k-th distance.
  */
object TestUtil {

  /** Deterministic ScalaCheck-driven property loop (the scalatestplus bridge
    * is not in the offline cache, so suites sample generators directly).
    */
  def forAllSampled[A](gen: org.scalacheck.Gen[A], samples: Int = 50)(f: A => Unit): Unit = {
    val params = org.scalacheck.Gen.Parameters.default
    (0 until samples).foreach { i =>
      gen(params, org.scalacheck.rng.Seed(1000L + i)).foreach(f)
    }
  }

  /** `f` evaluated in a ForkJoinPool of 1 thread, in one of 3 threads and
    * in the calling thread's (common) pool: a parallel stream runs in the
    * pool whose thread starts it. Both pools are shut down afterwards.
    */
  def inPools[T](f: => T): Seq[T] = {
    val pools = Seq(new ForkJoinPool(1), new ForkJoinPool(3))
    try pools.map(_.submit(new Callable[T] { def call(): T = f }).get()) :+ f
    finally pools.foreach(_.shutdownNow())
  }

  final case class ExactCheck(ok: Boolean, message: String)

  def checkExactKnn(result: Seq[(Long, Float)], vecs: IndexedSeq[Array[Float]],
                    q: Array[Float], k: Int): ExactCheck = {
    val refDists = vecs.indices.map(i => Kernels.l2Ref(vecs(i), q))
    val kth = refDists.sorted.apply(math.min(k, vecs.length) - 1)
    val expectSize = math.min(k, vecs.length)
    if (result.size != expectSize) ExactCheck(ok = false, s"size ${result.size} != $expectSize")
    else {
      val bad = result.iterator.map { case (id, dist) =>
        val ref = refDists(id.toInt)
        val tol = 1e-3 * (1.0 + ref)
        if (math.abs(dist - ref) > tol) Some(s"id=$id dist=$dist != ref=$ref")
        else if (ref > kth + tol) Some(s"id=$id ref=$ref exceeds kth=$kth (non-exact result)")
        else None
      }.collectFirst { case Some(msg) => msg }
      bad match {
        case Some(msg) => ExactCheck(ok = false, msg)
        case None => ExactCheck(ok = true, "")
      }
    }
  }

  def assertExactKnn(result: Seq[(Long, Float)], vecs: IndexedSeq[Array[Float]],
                     q: Array[Float], k: Int): Unit = {
    val c = checkExactKnn(result, vecs, q, k)
    assert(c.ok, c.message)
  }
}
