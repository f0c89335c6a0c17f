package repro.linalg

import java.util.Random

/** Small dense linear-algebra substrate that fits the dimension-pruning
  * transforms (ADSampling's random rotation, BSA's PCA basis).
  *
  * Matrices are row-major `Array[Double]` with explicit (rows, cols). The
  * fit runs in double precision, so orthogonality holds to ~1e-12; the
  * pruners then keep only the row-major float copy (`toFloats`) and
  * apply it with [[repro.core.Kernels.matVec]], so rotated distances match
  * raw distances to float precision.
  */
final case class Mat(rows: Int, cols: Int, a: Array[Double]) {
  require(a.length == rows * cols, s"shape mismatch: ${a.length} != $rows x $cols")

  @inline def apply(i: Int, j: Int): Double = a(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = a(i * cols + j) = v

  /** Row-major float copy of `a`, made once per fit: the form a fitted
    * rotation is kept and applied in ([[repro.core.Kernels.matVec]]).
    */
  def toFloats: Array[Float] = {
    val out = new Array[Float](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i).toFloat; i += 1 }
    out
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = Mat(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): Mat = {
    val m = zeros(n, n)
    var i = 0
    while (i < n) { m(i, i) = 1.0; i += 1 }
    m
  }

  /** Standard-normal matrix, seeded. */
  def gaussian(rows: Int, cols: Int, seed: Long): Mat = {
    val rnd = new Random(seed)
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < out.length) { out(i) = rnd.nextGaussian(); i += 1 }
    Mat(rows, cols, out)
  }

  /** Random orthogonal D x D matrix: modified Gram–Schmidt QR of a
    * Gaussian matrix (the ADSampling random-rotation preprocessor).
    */
  def randomOrthogonal(d: Int, seed: Long): Mat = {
    val g = gaussian(d, d, seed)
    // Orthonormalize the ROWS with modified Gram–Schmidt (row-major friendly).
    val q = g.a.clone()
    var i = 0
    while (i < d) {
      val ri = i * d
      var j = 0
      while (j < i) {
        val rj = j * d
        var dot = 0.0; var t = 0
        while (t < d) { dot += q(ri + t) * q(rj + t); t += 1 }
        t = 0
        while (t < d) { q(ri + t) -= dot * q(rj + t); t += 1 }
        j += 1
      }
      var nrm = 0.0; var t = 0
      while (t < d) { nrm += q(ri + t) * q(ri + t); t += 1 }
      nrm = math.sqrt(nrm)
      // A zero row is probability-0 for Gaussian input; guard anyway.
      val inv = if (nrm > 0) 1.0 / nrm else 0.0
      t = 0
      while (t < d) { q(ri + t) *= inv; t += 1 }
      i += 1
    }
    Mat(d, d, q)
  }

  /** Sample covariance (biased, 1/n) of row vectors after mean-centering. */
  def covariance(vectors: IndexedSeq[Array[Float]]): Mat = {
    val n = vectors.length
    require(n > 0, "covariance of empty collection")
    val d = vectors.head.length
    val mean = new Array[Double](d)
    var i = 0
    while (i < n) {
      val v = vectors(i); var j = 0
      while (j < d) { mean(j) += v(j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < d) { mean(j) /= n; j += 1 }
    val cov = new Array[Double](d * d)
    val centered = new Array[Double](d)
    i = 0
    while (i < n) {
      val v = vectors(i)
      var t = 0
      while (t < d) { centered(t) = v(t) - mean(t); t += 1 }
      var r = 0
      while (r < d) {
        val cr = centered(r)
        if (cr != 0.0) {
          val base = r * d
          var c = r
          while (c < d) { cov(base + c) += cr * centered(c); c += 1 }
        }
        r += 1
      }
      i += 1
    }
    // Mirror the upper triangle and normalize.
    var r = 0
    while (r < d) {
      var c = r
      while (c < d) {
        val v = cov(r * d + c) / n
        cov(r * d + c) = v
        cov(c * d + r) = v
        c += 1
      }
      r += 1
    }
    Mat(d, d, cov)
  }

  private final val EigenTolerance = 1e-10 // off-diagonal / matrix norm that ends the sweeps
  private final val PcaSample = 4096

  /** Cyclic Jacobi eigendecomposition of a symmetric matrix.
    *
    * Returns (eigenvalues, eigenvectors-as-rows) sorted by eigenvalue
    * descending — i.e. the returned matrix is the PCA rotation whose row i
    * is the i-th principal axis, so multiplying a vector by it puts the
    * highest-variance component first (what BSA needs).
    *
    * `maxSweeps` bounds cost at O(maxSweeps * d^3); for the PCA use case a
    * handful of sweeps concentrates energy far beyond what pruning needs.
    */
  def symEigen(sym: Mat, maxSweeps: Int = 8): (Array[Double], Mat) = {
    require(sym.rows == sym.cols, "symEigen needs a square matrix")
    val d = sym.rows
    val m = sym.a.clone()
    val v = eye(d).a // accumulated rotations, row-major; starts as I
    var sweep = 0
    var off = offDiagNorm(m, d)
    val base = frobNorm(m, d)
    while (sweep < maxSweeps && off > EigenTolerance * (base + 1e-300)) {
      var p = 0
      while (p < d - 1) {
        var q = p + 1
        while (q < d) {
          val apq = m(p * d + q)
          if (math.abs(apq) > 1e-300) {
            val app = m(p * d + p)
            val aqq = m(q * d + q)
            val theta = (aqq - app) / (2.0 * apq)
            val t =
              if (theta >= 0) 1.0 / (theta + math.sqrt(1.0 + theta * theta))
              else 1.0 / (theta - math.sqrt(1.0 + theta * theta))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val s = t * c
            // Rotate rows/cols p and q of m.
            var i = 0
            while (i < d) {
              val mip = m(i * d + p)
              val miq = m(i * d + q)
              m(i * d + p) = c * mip - s * miq
              m(i * d + q) = s * mip + c * miq
              i += 1
            }
            i = 0
            while (i < d) {
              val mpi = m(p * d + i)
              val mqi = m(q * d + i)
              m(p * d + i) = c * mpi - s * mqi
              m(q * d + i) = s * mpi + c * mqi
              i += 1
            }
            // Accumulate rotation into eigenvector rows p and q.
            i = 0
            while (i < d) {
              val vpi = v(p * d + i)
              val vqi = v(q * d + i)
              v(p * d + i) = c * vpi - s * vqi
              v(q * d + i) = s * vpi + c * vqi
              i += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(m, d)
      sweep += 1
    }
    val eig = new Array[Double](d)
    var i = 0
    while (i < d) { eig(i) = m(i * d + i); i += 1 }
    // Sort eigenpairs descending by eigenvalue.
    val order = (0 until d).sortBy(i => -eig(i)).toArray
    val sortedEig = order.map(eig)
    val rot = new Array[Double](d * d)
    i = 0
    while (i < d) {
      System.arraycopy(v, order(i) * d, rot, i * d, d)
      i += 1
    }
    (sortedEig, Mat(d, d, rot))
  }

  private def offDiagNorm(m: Array[Double], d: Int): Double = {
    var s = 0.0; var i = 0
    while (i < d) {
      var j = 0
      while (j < d) {
        if (i != j) { val x = m(i * d + j); s += x * x }
        j += 1
      }
      i += 1
    }
    math.sqrt(s)
  }

  private def frobNorm(m: Array[Double], d: Int): Double = {
    var s = 0.0; var i = 0
    while (i < m.length) { s += m(i) * m(i); i += 1 }
    math.sqrt(s)
  }

  /** PCA rotation of a collection: rows are principal axes, most-variant
    * first. Computed on a seeded subsample of 4096 when the collection is
    * large (covariance converges fast; Jacobi cost is D-bound anyway).
    */
  def pcaRotation(vectors: IndexedSeq[Array[Float]], seed: Long = 7,
                  maxSweeps: Int = 8): Mat = {
    val sample =
      if (vectors.length <= PcaSample) vectors
      else {
        val rnd = new Random(seed)
        IndexedSeq.fill(PcaSample)(vectors(rnd.nextInt(vectors.length)))
      }
    val (_, rot) = symEigen(covariance(sample), maxSweeps)
    rot
  }
}
