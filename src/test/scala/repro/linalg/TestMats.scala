package repro.linalg

import java.util.Random

/** Dense matrices that only the tests build: seeded Gaussian matrices, and
  * the dense random rotation (Gram–Schmidt QR of a Gaussian matrix) that
  * ADSampling's structured rotation is checked against.
  */
object TestMats {

  /** Standard-normal matrix, seeded. */
  def gaussian(rows: Int, cols: Int, seed: Long): Mat = {
    val rnd = new Random(seed)
    Mat(rows, cols, Array.fill(rows * cols)(rnd.nextGaussian()))
  }

  /** Random orthogonal D x D matrix: modified Gram–Schmidt over the rows of
    * a seeded Gaussian matrix.
    */
  def randomOrthogonal(d: Int, seed: Long): Mat = {
    val q = gaussian(d, d, seed).a
    for (i <- 0 until d) {
      val ri = i * d
      for (j <- 0 until i) {
        val rj = j * d
        var dot = 0.0
        for (t <- 0 until d) dot += q(ri + t) * q(rj + t)
        for (t <- 0 until d) q(ri + t) -= dot * q(rj + t)
      }
      var nrm = 0.0
      for (t <- 0 until d) nrm += q(ri + t) * q(ri + t)
      val inv = 1.0 / math.sqrt(nrm)
      for (t <- 0 until d) q(ri + t) *= inv
    }
    Mat(d, d, q)
  }
}
