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
}
