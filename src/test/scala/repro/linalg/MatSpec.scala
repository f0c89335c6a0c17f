package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Kernels
import repro.data.VectorData

class MatSpec extends AnyFunSuite {

  /** Plain double-precision references the checks below are written in. */
  private implicit class MatRef(m: Mat) {
    import m.{a, cols, rows}

    /** Matrix transpose. */
    def t: Mat = Mat(cols, rows, Array.tabulate(rows * cols)(k => a((k % rows) * cols + k / rows)))

    /** Dense matrix product `m * other`. */
    def *(other: Mat): Mat = {
      require(cols == other.rows, s"inner dims: $cols != ${other.rows}")
      Mat(rows, other.cols, Array.tabulate(rows * other.cols) { k =>
        val (i, j) = (k / other.cols, k % other.cols)
        (0 until cols).map(p => a(i * cols + p) * other(p, j)).sum
      })
    }

    /** `m * v` for a dense vector. */
    def mulVec(v: Array[Double]): Array[Double] = {
      require(v.length == cols)
      Array.tabulate(rows)(i => (0 until cols).map(j => a(i * cols + j) * v(j)).sum)
    }

    /** Frobenius distance to another matrix. */
    def frobDist(other: Mat): Double = {
      require(rows == other.rows && cols == other.cols)
      math.sqrt(a.indices.map(i => (a(i) - other.a(i)) * (a(i) - other.a(i))).sum)
    }
  }

  private def approxEq(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * (1.0 + math.abs(a) + math.abs(b))

  test("eye is identity under multiplication") {
    val a = Mat.gaussian(5, 5, 1)
    assert((Mat.eye(5) * a).frobDist(a) < 1e-12)
    assert((a * Mat.eye(5)).frobDist(a) < 1e-12)
  }

  test("transpose twice is identity") {
    val a = Mat.gaussian(4, 7, 2)
    assert(a.t.t.frobDist(a) == 0.0)
  }

  test("matmul matches manual small case") {
    val a = Mat(2, 2, Array(1.0, 2.0, 3.0, 4.0))
    val b = Mat(2, 2, Array(5.0, 6.0, 7.0, 8.0))
    val c = a * b
    assert(c.a.toSeq == Seq(19.0, 22.0, 43.0, 50.0))
  }

  test("mulVec matches matmul with column") {
    val a = Mat.gaussian(6, 6, 3)
    val v = Array.tabulate(6)(i => (i + 1).toDouble)
    val got = a.mulVec(v)
    val viaMat = a * Mat(6, 1, v)
    assert(got.indices.forall(i => approxEq(got(i), viaMat.a(i))))
  }

  for (d <- Seq(2, 3, 8, 16, 33, 64, 128)) {
    test(s"randomOrthogonal(d=$d) has orthonormal rows") {
      val q = Mat.randomOrthogonal(d, seed = d * 7L)
      val qqt = q * q.t
      assert(qqt.frobDist(Mat.eye(d)) < 1e-9, s"Q Q^T != I at d=$d")
    }

    test(s"randomOrthogonal(d=$d) preserves L2 distances") {
      val q = Mat.randomOrthogonal(d, seed = d * 13L)
      val vecs = VectorData.gaussian(8, d, seed = d)
      val qf = q.toFloats
      val rot = vecs.map(Kernels.matVec(qf, _))
      for (i <- vecs.indices; j <- vecs.indices if i < j) {
        val before = repro.core.Kernels.l2Ref(vecs(i), vecs(j))
        val after = repro.core.Kernels.l2Ref(rot(i), rot(j))
        assert(math.abs(before - after) < 1e-3 * (1 + before),
               s"distance not preserved at d=$d: $before vs $after")
      }
    }
  }

  test("randomOrthogonal is deterministic in the seed") {
    val a = Mat.randomOrthogonal(16, 5)
    val b = Mat.randomOrthogonal(16, 5)
    val c = Mat.randomOrthogonal(16, 6)
    assert(a.frobDist(b) == 0.0)
    assert(c.frobDist(a) > 1e-3)
  }

  test("covariance of a known 2-d set") {
    // Points: (0,0), (2,0), (0,2), (2,2) — var 1 per dim, cov 0.
    val pts = IndexedSeq(Array(0f, 0f), Array(2f, 0f), Array(0f, 2f), Array(2f, 2f))
    val cov = Mat.covariance(pts)
    assert(approxEq(cov(0, 0), 1.0) && approxEq(cov(1, 1), 1.0))
    assert(math.abs(cov(0, 1)) < 1e-12 && math.abs(cov(1, 0)) < 1e-12)
  }

  test("covariance is symmetric") {
    val cov = Mat.covariance(VectorData.gaussian(50, 9, 11))
    for (i <- 0 until 9; j <- 0 until 9)
      assert(cov(i, j) == cov(j, i))
  }

  test("symEigen recovers a diagonal matrix") {
    val diag = Mat.zeros(4, 4)
    diag(0, 0) = 4.0; diag(1, 1) = 1.0; diag(2, 2) = 3.0; diag(3, 3) = 2.0
    val (eig, _) = Mat.symEigen(diag)
    assert(eig.toSeq == Seq(4.0, 3.0, 2.0, 1.0))
  }

  test("symEigen on known 2x2 symmetric matrix") {
    // [[2,1],[1,2]] has eigenvalues 3 and 1.
    val m = Mat(2, 2, Array(2.0, 1.0, 1.0, 2.0))
    val (eig, rot) = Mat.symEigen(m)
    assert(approxEq(eig(0), 3.0) && approxEq(eig(1), 1.0))
    // Rows are unit eigenvectors: rot * m * rot^T diagonal.
    val d = rot * m * rot.t
    assert(math.abs(d(0, 1)) < 1e-9 && math.abs(d(1, 0)) < 1e-9)
  }

  for (d <- Seq(4, 8, 16, 32)) {
    test(s"symEigen returns an orthogonal basis and reconstructs (d=$d)") {
      val g = Mat.gaussian(d, d, d * 3L)
      val sym = g * g.t // PSD symmetric
      val (eig, rot) = Mat.symEigen(sym, maxSweeps = 20)
      assert((rot * rot.t).frobDist(Mat.eye(d)) < 1e-8)
      // rot * sym * rot^T ≈ diag(eig)
      val diag = rot * sym * rot.t
      for (i <- 0 until d) assert(approxEq(diag(i, i), eig(i), 1e-7))
      var off = 0.0
      for (i <- 0 until d; j <- 0 until d if i != j) off = math.max(off, math.abs(diag(i, j)))
      assert(off < 1e-6 * (1 + eig.head), s"off-diagonal residue $off")
      // Eigenvalues sorted descending and non-negative for PSD input.
      assert(eig.sliding(2).forall(p => p(0) >= p(1) - 1e-9))
      assert(eig.forall(_ >= -1e-9))
    }
  }

  test("pcaRotation concentrates variance in leading dimensions") {
    // Anisotropic data: dim0 scaled 10x, dim3 scaled 5x (d=6).
    val rnd = new java.util.Random(99)
    val scale = Array(10.0, 1.0, 1.0, 5.0, 1.0, 1.0)
    val vecs = IndexedSeq.fill(2000)(Array.tabulate(6)(j => (rnd.nextGaussian() * scale(j)).toFloat))
    val rot = Mat.pcaRotation(vecs)
    val rotF = rot.toFloats
    val rotated = vecs.map(Kernels.matVec(rotF, _))
    val vars = (0 until 6).map { j =>
      val xs = rotated.map(_(j).toDouble)
      val m = xs.sum / xs.length
      xs.map(x => (x - m) * (x - m)).sum / xs.length
    }
    // First two components should carry the 100x and 25x variance.
    assert(vars(0) > 80.0 && vars(0) < 120.0, s"v0=${vars(0)}")
    assert(vars(1) > 18.0 && vars(1) < 32.0, s"v1=${vars(1)}")
    assert(vars.drop(2).forall(v => v < 2.0), s"tail=${vars.drop(2)}")
    // Rotation preserves pairwise distance.
    val before = repro.core.Kernels.l2Ref(vecs(0), vecs(1))
    val after = repro.core.Kernels.l2Ref(rotated(0), rotated(1))
    assert(math.abs(before - after) < 1e-2 * (1 + before))
  }

  test("pcaRotation subsamples deterministically") {
    val vecs = VectorData.gaussian(5000, 8, 21)
    val a = Mat.pcaRotation(vecs, seed = 3)
    val b = Mat.pcaRotation(vecs, seed = 3)
    assert(a.frobDist(b) == 0.0)
  }

  test("mulVecF matches mulVec") {
    val m = Mat.gaussian(12, 12, 8)
    val v = VectorData.gaussian(1, 12, 9).head
    val f = Kernels.matVec(m.toFloats, v)
    val dd = m.mulVec(v.map(_.toDouble))
    assert(f.indices.forall(i => math.abs(f(i) - dd(i)) < 1e-4))
  }
}
