package repro.core

import repro.bench.KernelBench.{IP, L1, L2, Metric}

/** Double-precision references that the kernel tests compare Table 4's
  * metrics against; L2 is the production [[Kernels.l2Ref]].
  */
object TestKernels {

  def l1Ref(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += math.abs(b(i).toDouble - a(i)); i += 1 }
    s
  }

  def ipRef(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += b(i).toDouble * a(i); i += 1 }
    s
  }

  def ref(metric: Metric)(a: Array[Float], b: Array[Float]): Double = metric match {
    case L2 => Kernels.l2Ref(a, b)
    case L1 => l1Ref(a, b)
    case IP => ipRef(a, b)
  }

  /** The PDX L2 kernel before [[Kernels.l2Pdx]] staged its columns: the same
    * 4-dimension fold, read straight from the block's flat array. The
    * kernel tests hold the staged kernel to its bits.
    */
  def l2PdxUnstaged(data: Array[Float], n: Int, q: Array[Float], order: Array[Int],
                    j0: Int, j1: Int, acc: Array[Float]): Unit = {
    var j = j0
    while (j + 3 < j1) {
      val d0 = if (order == null) j else order(j)
      val d1 = if (order == null) j + 1 else order(j + 1)
      val d2 = if (order == null) j + 2 else order(j + 2)
      val d3 = if (order == null) j + 3 else order(j + 3)
      val off0 = d0 * n; val off1 = d1 * n; val off2 = d2 * n; val off3 = d3 * n
      val q0 = q(d0); val q1 = q(d1); val q2 = q(d2); val q3 = q(d3)
      var i = 0
      while (i < n) {
        val t0 = q0 - data(off0 + i)
        val t1 = q1 - data(off1 + i)
        val t2 = q2 - data(off2 + i)
        val t3 = q3 - data(off3 + i)
        acc(i) += t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3
        i += 1
      }
      j += 4
    }
    while (j < j1) {
      val d = if (order == null) j else order(j)
      val off = d * n
      val qd = q(d)
      var i = 0
      while (i < n) { val t = qd - data(off + i); acc(i) += t * t; i += 1 }
      j += 1
    }
  }
}
