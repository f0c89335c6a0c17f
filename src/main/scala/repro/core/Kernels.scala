package repro.core

/** The distance kernels the searches run: the horizontal (N-ary) and PDX
  * (dimension-major per-block) forms of Algorithm 1, the query rotation's
  * mat-vec, and the double-precision reference that ground truth uses.
  *
  * The PDX kernels are the paper's contribution: a dimensions outer loop and
  * a vectors inner loop whose per-lane accumulators are independent. HotSpot
  * C2 auto-vectorizes that inner loop (the JVM analog of the paper's LLVM
  * auto-vectorization) only when every array it touches is read and written
  * at the same index, so [[l2Pdx]] first copies its columns into a
  * [[PdxScratch]] (0.19–0.50 ns per dimension value instead of 0.45–0.93
  * on an AVX-512 Xeon). [[l2PdxPositions]] gathers scattered
  * positions and stays scalar; [[l2PdxLane]] is one lane of the full scan,
  * for the few distances k-means' bounds leave to score. The horizontal
  * kernels model the conventional vector-at-a-time scan; `l2Unrolled` (4
  * independent accumulators) is our stand-in for the paper's hand-SIMDized
  * horizontal kernels, since a plain scalar reduction is the worst case on
  * any ISA.
  * The forms only the evaluation measures (the scalar, L1 and IP kernels of
  * Tables 4–5, N-ary+Gather, DSM) live in [[repro.bench.KernelBench]] and
  * [[repro.bench.ExactSearchBench]].
  *
  * All kernels use float32 data and float32 accumulation, as in the paper.
  */
object Kernels {

  // ------------------------------------------------------------------
  // Horizontal (N-ary) kernels: one vector at offset `o` in `a`.
  // ------------------------------------------------------------------

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
    * `v`: one [[ipUnrolled]] per row. This applies BSA's fitted PCA basis,
    * its per-query transform cost ("Query Preprocessing" in Table 7).
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

  // ------------------------------------------------------------------
  // PDX kernels: data is dimension-major within a block; dim d of vector i
  // sits at data(d * n + i). `acc` accumulates per-vector results across
  // calls, so a full distance is a sequence of range calls [0,d).
  // (Algorithm 1 in the paper; the range form is what PDXearch steps use.)
  // ------------------------------------------------------------------

  /** Dimension-blocked PDX L2 over dimensions `order(j0 until j1)`, or
    * `j0 until j1` when `order == null` (a query-aware order is PDX-BOND's
    * access path; the lookup is per 4-dim group, outside the vector loop),
    * accumulated into `scratch.acc(0 until n)`. The caller sizes `scratch`
    * to at least `n` before it fills `acc`.
    *
    * Four dimensions are folded per `acc` load / store: LLVM keeps the
    * paper's whole distances array in SIMD registers across the dims loop,
    * HotSpot does not, so the blocking is done by hand. Each group's four
    * columns are first copied into `scratch`'s own columns, so the vector
    * loop reads `c0(i)…c3(i)` at the index it stores `acc(i)` to. JDK 17's
    * C2 SuperWord vectorizes a `float[]` loop only when its loads and stores
    * share one loop-invariant offset; reading `data(dim * n + i)` directly,
    * as `l2PdxPositions` does, leaves the loop scalar (0.45–0.93 ns per
    * dimension value on an AVX-512 Xeon, against 0.19–0.50 staged, at
    * d 128 / 768 and n 64–1000). The sum is the same expression in the same
    * order, so every float is that of the unstaged loop.
    */
  def l2Pdx(data: Array[Float], n: Int, q: Array[Float], order: Array[Int],
            j0: Int, j1: Int, scratch: PdxScratch): Unit = {
    val acc = scratch.acc
    val c0 = scratch.col0; val c1 = scratch.col1; val c2 = scratch.col2; val c3 = scratch.col3
    var j = j0
    while (j + 3 < j1) {
      val d0 = if (order == null) j else order(j)
      val d1 = if (order == null) j + 1 else order(j + 1)
      val d2 = if (order == null) j + 2 else order(j + 2)
      val d3 = if (order == null) j + 3 else order(j + 3)
      System.arraycopy(data, d0 * n, c0, 0, n)
      System.arraycopy(data, d1 * n, c1, 0, n)
      System.arraycopy(data, d2 * n, c2, 0, n)
      System.arraycopy(data, d3 * n, c3, 0, n)
      val q0 = q(d0); val q1 = q(d1); val q2 = q(d2); val q3 = q(d3)
      var i = 0
      while (i < n) {
        val t0 = q0 - c0(i)
        val t1 = q1 - c1(i)
        val t2 = q2 - c2(i)
        val t3 = q3 - c3(i)
        acc(i) += t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3
        i += 1
      }
      j += 4
    }
    while (j < j1) {
      val d = if (order == null) j else order(j)
      System.arraycopy(data, d * n, c0, 0, n)
      val qd = q(d)
      var i = 0
      while (i < n) { val t = qd - c0(i); acc(i) += t * t; i += 1 }
      j += 1
    }
  }

  /** One lane of a full sequential [[l2Pdx]] scan: the float that scan
    * leaves in the lane of a vector `data` (`q.length` values) when it scores
    * `q` against it, by the same 4-dimension fold in the same order, so the
    * bits are equal. k-means scores the few centroids its bounds cannot rule
    * out with it, each one contiguous, instead of a whole centroid block.
    */
  def l2PdxLane(data: Array[Float], q: Array[Float]): Float = {
    val d = q.length
    var acc = 0f
    var j = 0
    while (j + 3 < d) {
      val t0 = q(j) - data(j)
      val t1 = q(j + 1) - data(j + 1)
      val t2 = q(j + 2) - data(j + 2)
      val t3 = q(j + 3) - data(j + 3)
      acc += t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3
      j += 4
    }
    while (j < d) { val t = q(j) - data(j); acc += t * t; j += 1 }
    acc
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

  /** Double-precision L2: the reference of the ground truth and answer checks. */
  def l2Ref(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val t = b(i).toDouble - a(i); s += t * t; i += 1 }
    s
  }
}

/** The working arrays of one caller of the PDX kernels: the per-vector
  * accumulators `acc` and the four columns [[Kernels.l2Pdx]] copies each
  * 4-dimension group into. Grown, never shrunk, to the largest block it has
  * been sized for; growing drops what `acc` held. Not thread-safe: one per
  * searcher or per scan.
  */
final class PdxScratch {
  private var a = Array.emptyFloatArray
  private var c0 = Array.emptyFloatArray
  private var c1 = Array.emptyFloatArray
  private var c2 = Array.emptyFloatArray
  private var c3 = Array.emptyFloatArray

  def acc: Array[Float] = a
  def col0: Array[Float] = c0
  def col1: Array[Float] = c1
  def col2: Array[Float] = c2
  def col3: Array[Float] = c3

  /** Makes every array hold at least `n` floats. */
  def ensureCapacity(n: Int): Unit =
    if (a.length < n) {
      a = new Array[Float](n)
      c0 = new Array[Float](n); c1 = new Array[Float](n)
      c2 = new Array[Float](n); c3 = new Array[Float](n)
    }
}
