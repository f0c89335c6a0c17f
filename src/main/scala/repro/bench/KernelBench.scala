package repro.bench

import repro.core.Kernels.{ipUnrolled, l2Pdx, l2Unrolled}
import repro.core.{PdxLayout, PdxScratch}
import repro.data.VectorData

/** Raw distance-kernel microbenchmarks — Tables 4 and 5 (§6.2).
  *
  * One query against an entire standard-normal float32 collection; the only
  * work measured is the distance computation in each layout (no KNN), as in
  * the paper. The horizontal baseline is the 4-way-unrolled kernel (the JVM
  * stand-in for explicit-SIMD kernels, DESIGN.md #1); the PDX side processes
  * pre-packed blocks of `blockSize` vectors at-a-time.
  *
  * The kernels only this benchmark measures (the scalar and L1 ones, IP over
  * PDX, N-ary+Gather) live here; the others are the searches' own
  * ([[repro.core.Kernels]]). The timed loops call dispatchers with a static
  * `match` on the metric, so no function value enters a measurement.
  */
object KernelBench {

  sealed trait Metric { def name: String }
  case object L2 extends Metric { val name = "L2" }
  case object L1 extends Metric { val name = "L1" }
  case object IP extends Metric { val name = "IP" }
  val metrics: Seq[Metric] = Seq(L2, IP, L1)

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

  /** The PDX L1 and IP kernels stage each group's columns into `scratch`
    * exactly as [[repro.core.Kernels.l2Pdx]] does, so Table 4's three
    * metrics share one access pattern.
    */
  def l1Pdx(data: Array[Float], n: Int, q: Array[Float], d0: Int, d1: Int,
            scratch: PdxScratch): Unit = {
    val acc = scratch.acc
    val c0 = scratch.col0; val c1 = scratch.col1; val c2 = scratch.col2; val c3 = scratch.col3
    var d = d0
    while (d + 3 < d1) {
      System.arraycopy(data, d * n, c0, 0, n)
      System.arraycopy(data, (d + 1) * n, c1, 0, n)
      System.arraycopy(data, (d + 2) * n, c2, 0, n)
      System.arraycopy(data, (d + 3) * n, c3, 0, n)
      val q0 = q(d); val q1 = q(d + 1); val q2 = q(d + 2); val q3 = q(d + 3)
      var i = 0
      while (i < n) {
        acc(i) += math.abs(q0 - c0(i)) + math.abs(q1 - c1(i)) +
          math.abs(q2 - c2(i)) + math.abs(q3 - c3(i))
        i += 1
      }
      d += 4
    }
    while (d < d1) {
      System.arraycopy(data, d * n, c0, 0, n)
      val qd = q(d)
      var i = 0
      while (i < n) { acc(i) += math.abs(qd - c0(i)); i += 1 }
      d += 1
    }
  }

  def ipPdx(data: Array[Float], n: Int, q: Array[Float], d0: Int, d1: Int,
            scratch: PdxScratch): Unit = {
    val acc = scratch.acc
    val c0 = scratch.col0; val c1 = scratch.col1; val c2 = scratch.col2; val c3 = scratch.col3
    var d = d0
    while (d + 3 < d1) {
      System.arraycopy(data, d * n, c0, 0, n)
      System.arraycopy(data, (d + 1) * n, c1, 0, n)
      System.arraycopy(data, (d + 2) * n, c2, 0, n)
      System.arraycopy(data, (d + 3) * n, c3, 0, n)
      val q0 = q(d); val q1 = q(d + 1); val q2 = q(d + 2); val q3 = q(d + 3)
      var i = 0
      while (i < n) {
        acc(i) += q0 * c0(i) + q1 * c1(i) + q2 * c2(i) + q3 * c3(i)
        i += 1
      }
      d += 4
    }
    while (d < d1) {
      System.arraycopy(data, d * n, c0, 0, n)
      val qd = q(d)
      var i = 0
      while (i < n) { acc(i) += qd * c0(i); i += 1 }
      d += 1
    }
  }

  /** PDX kernel dispatch into `scratch.acc`, which the caller sizes and zeroes. */
  def pdx(metric: Metric)(data: Array[Float], n: Int, q: Array[Float],
                          d0: Int, d1: Int, scratch: PdxScratch): Unit =
    metric match {
      case L2 => l2Pdx(data, n, q, null, d0, d1, scratch)
      case L1 => l1Pdx(data, n, q, d0, d1, scratch)
      case IP => ipPdx(data, n, q, d0, d1, scratch)
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

  final case class Combo(d: Int, n: Int)

  /** Paper sweep: D from 8 to 1536, collections from small to cache-busting;
    * combos above `maxFloats` are skipped to bound bench time.
    */
  def combos(ds: Seq[Int], sizes: Seq[Int], maxFloats: Long = 24_000_000L): Seq[Combo] =
    for {
      d <- ds
      n <- sizes
      if n.toLong * d <= maxFloats
    } yield Combo(d, n)

  final case class Measurement(metric: String, d: Int, n: Int,
                               naryNanos: Double, pdxNanos: Double,
                               scalarNanos: Double, gatherNanos: Double) {
    def speedup: Double = naryNanos / pdxNanos
    def speedupVsScalar: Double = scalarNanos / pdxNanos
    def gatherSlowdown: Double = gatherNanos / pdxNanos
  }

  /** Measure one (metric, combo) across layouts. `quick` lowers rep counts
    * for functional tests.
    */
  def measure(metric: Metric, combo: Combo, blockSize: Int = 64,
              quick: Boolean = false, withExtras: Boolean = true): Measurement = {
    val vecs = VectorData.gaussian(combo.n, combo.d, seed = combo.d * 1000L + combo.n)
    val query = VectorData.gaussian(1, combo.d, seed = 991L + combo.d).head
    val horizontal = PdxLayout.packNary(vecs)
    val blocks = PdxLayout.pack(vecs, vecs.indices.map(_.toLong), blockSize)
    // One scratch for every block: the timed loop allocates nothing.
    val scratch = new PdxScratch
    scratch.ensureCapacity(blocks.map(_.n).max)
    val acc = scratch.acc
    val gatherOut = new Array[Float](64)
    val minBatch = if (quick) 200_000L else 20_000_000L
    val reps = if (quick) 3 else 5

    val naryNanos = BenchUtil.timePerOp(minBatch, reps) {
      var i = 0
      var sink = 0f
      while (i < combo.n) {
        sink += nary(metric)(horizontal, i * combo.d, query, combo.d)
        i += 1
      }
      BenchUtil.consume(sink)
    }

    val pdxNanos = BenchUtil.timePerOp(minBatch, reps) {
      var sink = 0f
      blocks.foreach { b =>
        java.util.Arrays.fill(acc, 0, b.n, 0f)
        pdx(metric)(b.data, b.n, query, 0, b.d, scratch)
        sink += acc(0)
      }
      BenchUtil.consume(sink)
    }

    val scalarNanos =
      if (!withExtras) Double.NaN
      else BenchUtil.timePerOp(minBatch, reps) {
        var i = 0
        var sink = 0f
        while (i < combo.n) {
          sink += naryScalar(metric)(horizontal, i * combo.d, query, combo.d)
          i += 1
        }
        BenchUtil.consume(sink)
      }

    // Gather only defined for L2 (the §7 study is on the L2 kernel).
    val gatherNanos =
      if (!withExtras || metric != L2) Double.NaN
      else BenchUtil.timePerOp(minBatch, reps) {
        var v0 = 0
        var sink = 0f
        while (v0 < combo.n) {
          val count = math.min(64, combo.n - v0)
          l2NaryGather(horizontal, v0, count, combo.d, query, gatherOut)
          sink += gatherOut(0)
          v0 += count
        }
        BenchUtil.consume(sink)
      }

    Measurement(metric.name, combo.d, combo.n, naryNanos, pdxNanos, scalarNanos, gatherNanos)
  }

  /** Table 4 dimensionality groups. */
  def group(d: Int): String =
    if (d == 8) "D=8" else if (d <= 32) "D=16,32" else "D>32"

  /** Geomean speedups per (metric, group) + overall, Table 4 shape. */
  def table4(ds: Seq[Int], sizes: Seq[Int], quick: Boolean = false)
      : (String, Map[(String, String), Double]) = {
    val cs = combos(ds, sizes)
    val ms = for {
      metric <- metrics
      c <- cs
    } yield measure(metric, c, quick = quick)

    val groups = Seq("D=8", "D=16,32", "D>32", "All")
    val cells = (for {
      metric <- metrics
      g <- groups
    } yield {
      val sel = ms.filter(m => m.metric == metric.name && (g == "All" || group(m.d) == g))
      (metric.name, g) -> BenchUtil.geomean(sel.map(_.speedup))
    }).toMap

    val header = Seq("Arch.") ++ metrics.flatMap(m => groups.map(g => s"${m.name} $g"))
    val row = Seq("JVM/C2 (this host)") ++
      metrics.flatMap(m => groups.map(g => BenchUtil.f1(cells((m.name, g)))))

    val detail = BenchUtil.markdownTable(
      Seq("metric", "D", "n", "nary ns", "pdx ns", "PDX speedup", "vs scalar", "gather slowdown"),
      ms.map(m => Seq(m.metric, m.d.toString, m.n.toString,
                      BenchUtil.f1(m.naryNanos), BenchUtil.f1(m.pdxNanos),
                      BenchUtil.f2(m.speedup), BenchUtil.f2(m.speedupVsScalar),
                      if (m.gatherNanos.isNaN) "-" else BenchUtil.f2(m.gatherSlowdown)))
    )
    val table = BenchUtil.markdownTable(header, Seq(row)) +
      "\nSpeedup of auto-'vectorized' PDX kernels vs the unrolled horizontal " +
      "baseline (geomean per dimensionality group).\n\nPer-combo detail:\n\n" + detail
    (table, cells)
  }

  /** Table 5: geomean L2 speedup per PDX block size. */
  def table5(ds: Seq[Int], sizes: Seq[Int],
             blockSizes: Seq[Int] = Seq(16, 32, 64, 128, 256, 512),
             quick: Boolean = false): (String, Map[Int, Double]) = {
    val cs = combos(ds, sizes)
    val cells = blockSizes.map { bs =>
      val speedups = cs.map { c =>
        val m = measure(L2, c, blockSize = bs, quick = quick, withExtras = false)
        m.speedup
      }
      bs -> BenchUtil.geomean(speedups)
    }.toMap
    val table = BenchUtil.markdownTable(
      Seq("Architecture") ++ blockSizes.map(_.toString),
      Seq(Seq("JVM/C2 (this host)") ++ blockSizes.map(bs => BenchUtil.f1(cells(bs))))
    ) + "\nGeomean speedup of the L2 PDX kernel vs the horizontal baseline per block size.\n"
    (table, cells)
  }
}
