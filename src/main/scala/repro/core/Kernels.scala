package repro.core

/** Distance kernels over the horizontal (N-ary), PDX (dimension-major
  * per-block), and DSM layouts — Algorithm 1 of the paper plus baselines.
  *
  * The PDX kernels are the paper's contribution: a dimensions outer loop and
  * a vectors inner loop whose per-lane accumulators are independent, which
  * HotSpot C2 can auto-vectorize / software-pipeline (the JVM analog of the
  * paper's LLVM auto-vectorization). The horizontal kernels model the
  * conventional vector-at-a-time scan; `l2Unrolled` (4 independent
  * accumulators) is our stand-in for the paper's hand-SIMDized horizontal
  * kernels, since a plain scalar reduction is the worst case on any ISA.
  *
  * All kernels use float32 data and float32 accumulation, as in the paper.
  */
object Kernels {

  sealed trait Metric { def name: String }
  case object L2 extends Metric { val name = "L2" }
  case object L1 extends Metric { val name = "L1" }
  case object IP extends Metric { val name = "IP" }
  val metrics: Seq[Metric] = Seq(L2, IP, L1)

  // ------------------------------------------------------------------
  // Horizontal (N-ary) kernels: one vector at offset `o` in `a`.
  // ------------------------------------------------------------------

  /** Plain scalar L2 (serial FP reduction — the "vanilla scalar" baseline). */
  def l2Scalar(a: Array[Float], o: Int, q: Array[Float], d: Int): Float = {
    var s = 0f; var i = 0
    while (i < d) { val t = q(i) - a(o + i); s += t * t; i += 1 }
    s
  }

  def l1Scalar(a: Array[Float], o: Int, q: Array[Float], d: Int): Float = {
    var s = 0f; var i = 0
    while (i < d) { s += math.abs(q(i) - a(o + i)); i += 1 }
    s
  }

  def ipScalar(a: Array[Float], o: Int, q: Array[Float], d: Int): Float = {
    var s = 0f; var i = 0
    while (i < d) { s += q(i) * a(o + i); i += 1 }
    s
  }

  /** 4-way unrolled L2 over dims [d0, d1) — independent accumulators break
    * the FP dependency chain; the JVM stand-in for explicit-SIMD horizontal
    * kernels. The range form serves the N-ary pruned search, which
    * interleaves bounds every Δd dims: the paper SIMDizes the original
    * ADSampling implementation "to compare it fairly to PDXearch" (§6.1), so
    * the N-ary baseline gets the best horizontal form there too.
    */
  def l2Unrolled(a: Array[Float], o: Int, q: Array[Float], d0: Int, d1: Int): Float = {
    var s0 = 0f; var s1 = 0f; var s2 = 0f; var s3 = 0f
    var i = d0
    val lim = d1 - 3
    while (i < lim) {
      val t0 = q(i) - a(o + i)
      val t1 = q(i + 1) - a(o + i + 1)
      val t2 = q(i + 2) - a(o + i + 2)
      val t3 = q(i + 3) - a(o + i + 3)
      s0 += t0 * t0; s1 += t1 * t1; s2 += t2 * t2; s3 += t3 * t3
      i += 4
    }
    while (i < d1) { val t = q(i) - a(o + i); s0 += t * t; i += 1 }
    s0 + s1 + s2 + s3
  }

  def l1Unrolled(a: Array[Float], o: Int, q: Array[Float], d: Int): Float = {
    var s0 = 0f; var s1 = 0f; var s2 = 0f; var s3 = 0f
    var i = 0
    val lim = d - 3
    while (i < lim) {
      s0 += math.abs(q(i) - a(o + i))
      s1 += math.abs(q(i + 1) - a(o + i + 1))
      s2 += math.abs(q(i + 2) - a(o + i + 2))
      s3 += math.abs(q(i + 3) - a(o + i + 3))
      i += 4
    }
    while (i < d) { s0 += math.abs(q(i) - a(o + i)); i += 1 }
    s0 + s1 + s2 + s3
  }

  /** 4-way unrolled IP. The stored operand comes first in each product:
    * same bits either way, but C2 on x86 ran [[matVec]] at D=768 about 20%
    * slower with the query operand first.
    */
  def ipUnrolled(a: Array[Float], o: Int, q: Array[Float], d: Int): Float = {
    var s0 = 0f; var s1 = 0f; var s2 = 0f; var s3 = 0f
    var i = 0
    val lim = d - 3
    while (i < lim) {
      s0 += a(o + i) * q(i)
      s1 += a(o + i + 1) * q(i + 1)
      s2 += a(o + i + 2) * q(i + 2)
      s3 += a(o + i + 3) * q(i + 3)
      i += 4
    }
    while (i < d) { s0 += a(o + i) * q(i); i += 1 }
    s0 + s1 + s2 + s3
  }

  /** Row-major matrix `m` (`m.length / v.length` rows of `v.length`) times
    * `v`: one [[ipUnrolled]] per row. This applies the fitted rotations of
    * ADSampling and BSA, the per-query transform cost ("Query
    * Preprocessing" in Table 7).
    */
  def matVec(m: Array[Float], v: Array[Float]): Array[Float] = {
    val d = v.length
    require(d > 0 && m.length % d == 0,
            s"matrix of ${m.length} values has no whole rows of $d columns")
    val out = new Array[Float](m.length / d)
    var i = 0
    while (i < out.length) { out(i) = ipUnrolled(m, i * d, v, d); i += 1 }
    out
  }

  /** Horizontal kernel dispatch (unrolled = "best SIMD" stand-in). */
  def nary(metric: Metric)(a: Array[Float], o: Int, q: Array[Float], d: Int): Float =
    metric match {
      case L2 => l2Unrolled(a, o, q, 0, d)
      case L1 => l1Unrolled(a, o, q, d)
      case IP => ipUnrolled(a, o, q, d)
    }

  def naryScalar(metric: Metric)(a: Array[Float], o: Int, q: Array[Float], d: Int): Float =
    metric match {
      case L2 => l2Scalar(a, o, q, d)
      case L1 => l1Scalar(a, o, q, d)
      case IP => ipScalar(a, o, q, d)
    }

  // ------------------------------------------------------------------
  // PDX kernels: data is dimension-major within a block; dim d of vector i
  // sits at data(d * n + i). `acc` accumulates per-vector results across
  // calls, so a full distance is a sequence of range calls [0,d).
  // (Algorithm 1 in the paper; the range form is what PDXearch steps use.)
  // ------------------------------------------------------------------

  /** Dimension-blocked PDX L2 over dimensions `order(j0 until j1)`, or
    * `j0 until j1` when `order == null` (a query-aware order is PDX-BOND's
    * access path; the lookup is per 4-dim group, outside the vector loop).
    * Four dimensions are folded per `acc` load / store. The paper's C++
    * kernel gets this for free — LLVM keeps the whole 64-float distances
    * array in SIMD registers across the dims loop; HotSpot will not hoist
    * array state across loop iterations, so the blocking is done by hand
    * (still scalar, still auto-vectorizable: the inner loop has independent
    * per-lane accumulators).
    */
  def l2Pdx(data: Array[Float], n: Int, q: Array[Float], order: Array[Int],
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

  def l1Pdx(data: Array[Float], n: Int, q: Array[Float], d0: Int, d1: Int,
            acc: Array[Float]): Unit = {
    var d = d0
    while (d + 3 < d1) {
      val off0 = d * n; val off1 = off0 + n; val off2 = off1 + n; val off3 = off2 + n
      val q0 = q(d); val q1 = q(d + 1); val q2 = q(d + 2); val q3 = q(d + 3)
      var i = 0
      while (i < n) {
        acc(i) += math.abs(q0 - data(off0 + i)) + math.abs(q1 - data(off1 + i)) +
          math.abs(q2 - data(off2 + i)) + math.abs(q3 - data(off3 + i))
        i += 1
      }
      d += 4
    }
    while (d < d1) {
      val off = d * n
      val qd = q(d)
      var i = 0
      while (i < n) { acc(i) += math.abs(qd - data(off + i)); i += 1 }
      d += 1
    }
  }

  def ipPdx(data: Array[Float], n: Int, q: Array[Float], d0: Int, d1: Int,
            acc: Array[Float]): Unit = {
    var d = d0
    while (d + 3 < d1) {
      val off0 = d * n; val off1 = off0 + n; val off2 = off1 + n; val off3 = off2 + n
      val q0 = q(d); val q1 = q(d + 1); val q2 = q(d + 2); val q3 = q(d + 3)
      var i = 0
      while (i < n) {
        acc(i) += q0 * data(off0 + i) + q1 * data(off1 + i) +
          q2 * data(off2 + i) + q3 * data(off3 + i)
        i += 1
      }
      d += 4
    }
    while (d < d1) {
      val off = d * n
      val qd = q(d)
      var i = 0
      while (i < n) { acc(i) += qd * data(off + i); i += 1 }
      d += 1
    }
  }

  def pdx(metric: Metric)(data: Array[Float], n: Int, q: Array[Float],
                          d0: Int, d1: Int, acc: Array[Float]): Unit =
    metric match {
      case L2 => l2Pdx(data, n, q, null, d0, d1, acc)
      case L1 => l1Pdx(data, n, q, d0, d1, acc)
      case IP => ipPdx(data, n, q, d0, d1, acc)
    }

  /** PRUNE-phase PDX L2: only the surviving positions are touched.
    * `order == null` means sequential dimension access. Kept apart from
    * [[l2Pdx]]: it gathers scattered positions, so its inner loop cannot be
    * the contiguous one over `0 until n`.
    */
  def l2PdxPositions(data: Array[Float], n: Int, q: Array[Float],
                     order: Array[Int], j0: Int, j1: Int,
                     positions: Array[Int], posCount: Int,
                     acc: Array[Float]): Unit = {
    var j = j0
    while (j + 3 < j1) {
      val d0 = if (order == null) j else order(j)
      val d1 = if (order == null) j + 1 else order(j + 1)
      val d2 = if (order == null) j + 2 else order(j + 2)
      val d3 = if (order == null) j + 3 else order(j + 3)
      val off0 = d0 * n; val off1 = d1 * n; val off2 = d2 * n; val off3 = d3 * n
      val q0 = q(d0); val q1 = q(d1); val q2 = q(d2); val q3 = q(d3)
      var p = 0
      while (p < posCount) {
        val i = positions(p)
        val t0 = q0 - data(off0 + i)
        val t1 = q1 - data(off1 + i)
        val t2 = q2 - data(off2 + i)
        val t3 = q3 - data(off3 + i)
        acc(i) += t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3
        p += 1
      }
      j += 4
    }
    while (j < j1) {
      val d = if (order == null) j else order(j)
      val off = d * n
      val qd = q(d)
      var p = 0
      while (p < posCount) {
        val i = positions(p)
        val t = qd - data(off + i)
        acc(i) += t * t
        p += 1
      }
      j += 1
    }
  }

  // ------------------------------------------------------------------
  // N-ary + Gather (§7): PDX-style computation over horizontal storage by
  // transposing 64-vector groups on the fly. On the JVM the "gather" is a
  // strided load, modelling exactly the access-pattern cost the paper
  // measures (no fast gather on NEON / costly one on Zen4).
  // ------------------------------------------------------------------

  /** L2 of a query against `count` vectors stored horizontally starting at
    * vector index `v0`, computed dimension-at-a-time via strided access,
    * writing per-vector distances into `out(0 until count)`.
    */
  def l2NaryGather(a: Array[Float], v0: Int, count: Int, d: Int,
                   q: Array[Float], out: Array[Float]): Unit = {
    java.util.Arrays.fill(out, 0, count, 0f)
    var dim = 0
    while (dim < d) {
      val qd = q(dim)
      val base = v0 * d + dim
      var i = 0
      while (i < count) {
        val t = qd - a(base + i * d) // strided "gather" load
        out(i) += t * t
        i += 1
      }
      dim += 1
    }
  }

  // ------------------------------------------------------------------
  // DSM: fully decomposed layout — each dimension is one full-collection
  // column. Same inner loop as PDX but the accumulator array spans the
  // whole collection (breaking the tight-loop register reuse, as §7 notes).
  // ------------------------------------------------------------------

  /** Full-collection DSM L2: columns(d) holds dimension d of all n vectors. */
  def l2Dsm(columns: Array[Array[Float]], n: Int, q: Array[Float],
            acc: Array[Float]): Unit = {
    java.util.Arrays.fill(acc, 0, n, 0f)
    var d = 0
    while (d < columns.length) {
      val col = columns(d)
      val qd = q(d)
      var i = 0
      while (i < n) { val t = qd - col(i); acc(i) += t * t; i += 1 }
      d += 1
    }
  }

  // ------------------------------------------------------------------
  // Double-precision reference kernels (tests / ground truth only).
  // ------------------------------------------------------------------

  def l2Ref(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val t = b(i).toDouble - a(i); s += t * t; i += 1 }
    s
  }

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
    case L2 => l2Ref(a, b)
    case L1 => l1Ref(a, b)
    case IP => ipRef(a, b)
  }
}
